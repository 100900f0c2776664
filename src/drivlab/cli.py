"""Command-line interface.

Every command parses its arguments and makes one call into ``pipeline``, so
the stage commands write the same bytes as ``run-all``. Every value the
config file sets is set only there.

Exit codes: 0 success, 2 validation error or unusable path, 3 missing
artifact, 4 numerical failure during training.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import pipeline
from .config import PipelineConfig
from .core import SPLIT_NAMES
from .errors import EXIT_VALIDATION, DrivlabError, ValidationError, exit_code_for

log = logging.getLogger("drivlab")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--quiet", action="store_true", help="log warnings only")


def _score_files(specs: list[str] | None) -> dict[str, str]:
    files = {}
    for spec in specs or []:
        if "=" not in spec:
            raise ValidationError(f"--scores expects policy=path, got {spec!r}")
        policy, _, path = spec.partition("=")
        if policy in files:
            raise ValidationError(f"--scores names policy {policy!r} twice")
        files[policy] = path
    return files


def _check_outputs(args: argparse.Namespace) -> None:
    """Fail before any stage work when an output directory is missing."""
    dirs = [os.path.dirname(p) or "." for p in (vars(args).get("out"), vars(args).get("metrics")) if p]
    for path in dirs + ([args.out_dir] if args.command == "label" else []):
        if not os.path.isdir(path):
            raise ValidationError(f"{path}: no directory to write into")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivlab",
        description="Synthetic scene-drivability laboratory: generate drives, train the "
        "driving model, label its failures, train the hazard predictor, and "
        "evaluate hazard-ranked human takeover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic episodes")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda cfg, a: pipeline.stage_gen(cfg, a.out, {}))

    p = sub.add_parser("split", help="three-way episode split")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda cfg, a: pipeline.stage_split(cfg, a.data, a.out, {}))

    p = sub.add_parser("train-driver", help="train the driving model on D1")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None, help="metrics JSON path (default <out>.metrics.json)")
    p.set_defaults(run=lambda cfg, a: pipeline.stage_train_driver(
        cfg, a.data, a.split, a.out, a.metrics or a.out + ".metrics.json", {}))

    p = sub.add_parser("label", help="label driver failures on a split at the configured thresholds")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--driver", required=True)
    p.add_argument("--on", choices=SPLIT_NAMES, default="D2")
    p.add_argument("--allow-leakage", action="store_true",
                   help="permit labeling the driver's own training split")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=lambda cfg, a: pipeline.stage_label(
        cfg, a.data, a.split, a.driver, a.on, a.out_dir, {}, allow_leakage=a.allow_leakage))

    p = sub.add_parser("train-failure", help="train the hazard classifier from a label file")
    _add_common(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--driver", required=True, help="driver checkpoint (normalizer source)")
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda cfg, a: pipeline.stage_train_failure(
        cfg, a.data, a.split, a.driver, a.labels, a.out, {}))

    p = sub.add_parser("eval", help="takeover study from a label file and scores")
    _add_common(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--scores", action="append", default=None, metavar="POLICY=PATH")
    p.add_argument("--hazard", default=None, help="hazard checkpoint (scores computed inline)")
    p.add_argument("--driver", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda cfg, a: pipeline.stage_eval(
        cfg, a.labels, a.out, {}, scores=_score_files(a.scores),
        hazard=a.hazard, driver=a.driver, episodes=a.data))

    p = sub.add_parser("report", help="combine stage outputs into report.json")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=lambda cfg, a: pipeline.stage_report(cfg, a.out_dir))

    p = sub.add_parser("run-all", help="run the full pipeline into an output directory")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=lambda cfg, a: log.info(
        "report written to %s", pipeline.run_all(cfg, a.out_dir)))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )
    try:
        cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
        _check_outputs(args)
        args.run(cfg, args)
    except DrivlabError as exc:
        print(f"drivlab: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:  # a path the operating system refuses
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"drivlab: error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
