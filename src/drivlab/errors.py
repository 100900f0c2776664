"""Exception taxonomy shared across the package, mapped to CLI exit codes."""

EXIT_VALIDATION = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_NUMERICAL = 4


class DrivlabError(Exception):
    """Base class for all package errors."""


class ValidationError(DrivlabError):
    """Bad configuration, bad input values, or contract violations. Exit code 2."""


class ShapeError(ValidationError):
    """Tensor-op shape mismatch; message names the op and the offending shapes."""


class SplitLeakageError(ValidationError):
    """An operation would mix dataset roles (e.g. labeling the driver's own training split)."""


class ArtifactVersionError(ValidationError):
    """Artifact header carries an unsupported format version."""


class MissingArtifactError(DrivlabError):
    """An upstream artifact file is absent. Exit code 3."""


class NumericalError(DrivlabError):
    """Non-finite loss or other numerical breakdown during training. Exit code 4."""


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, MissingArtifactError):
        return EXIT_MISSING_ARTIFACT
    if isinstance(exc, NumericalError):
        return EXIT_NUMERICAL
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    return 1
