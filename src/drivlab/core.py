"""Data model, windowing, normalization and the three-way dataset split.

Everything downstream (simulator, models, labeling, evaluation) speaks in the
types defined here. All types are immutable after construction; numpy buffers
are marked read-only so slices of windows can safely share their columns.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArtifactVersionError, MissingArtifactError, ValidationError

SPEED_MIN, SPEED_MAX = 0.0, 180.0  # km/h
ANGLE_MIN, ANGLE_MAX = -720.0, 720.0  # degrees
SAMPLE_RATE_HZ = 4
STD_FLOOR = 1e-6

SPLIT_NAMES = ("D1", "D2", "D3")

EPISODE_FORMAT = "#drivlab-episodes v1"
SPLIT_FORMAT = "#drivlab-splits v1"


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: for an array the caller has just built and shares with no one."""
    a.setflags(write=False)
    return a


def _readonly(a, dtype=np.float64) -> np.ndarray:
    """``a`` as a read-only C-contiguous ``dtype`` array. A read-only array of
    that dtype and layout is shared; anything else is copied, so the caller's
    arrays stay writeable and a later write to them changes nothing here."""
    if isinstance(a, np.ndarray) and not a.flags.writeable and a.dtype == dtype and a.flags.c_contiguous:
        return a
    return _frozen(np.array(a, dtype=dtype, order="C"))


# ---------------------------------------------------------------------------
# Domains and keys: the values a table column or a config or metadata key may take
# ---------------------------------------------------------------------------


class Domain:
    """The values a column or key may take: an interval such as ``[0, 180]``
    or ``[0, 2147483648)`` (a float must also be finite), or a choice such as
    ``{D1, D2, D3}``. Parsed once, where the column or key is declared."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.choices = tuple(c.strip() for c in text[1:-1].split(",")) if text[0] == "{" else None
        lo, hi = (-math.inf, math.inf) if self.choices else (float(b) for b in text[1:-1].split(","))
        # an open end is checked as the closed end one float inward
        self.lo = math.nextafter(lo, math.inf) if text[0] == "(" and math.isfinite(lo) else lo
        self.hi = math.nextafter(hi, -math.inf) if text[-1] == ")" and math.isfinite(hi) else hi

    def first_outside(self, values: np.ndarray) -> tuple[int, object] | None:
        """(row, value) of the first of ``values`` outside the domain, rows
        running along axis 0; None when all lie inside. The one domain check."""
        if self.choices is not None:
            outside = ~np.isin(values, self.choices)
        else:
            outside = ~((values >= self.lo) & (values <= self.hi))
            if values.dtype.kind == "f":
                outside |= ~np.isfinite(values)
        if not outside.any():
            return None
        row, col = divmod(int(np.argmax(outside)), outside[0].size)
        return row, values.reshape(len(values), -1)[row].tolist()[col]

    def why(self, value, name: str | None = None) -> str:
        """Why ``value`` lies outside: ``must be …, got <value>`` for a key,
        or ``<name> <value>, must be …`` for a value of column ``name``."""
        if self.choices is not None:
            return f"{'' if name is None else name + ' '}{value!r} is not one of {', '.join(self.choices)}"
        need = [f"in {self.text}"] if self.lo > -math.inf or self.hi < math.inf else []
        need = " and ".join((["finite"] if isinstance(value, float) else []) + need)
        if name is None:
            return f"must be {need}, got {value}"
        return f"{'' if math.isfinite(value) else 'non-finite '}{name} {value}, must be {need}"


SPLITS = "{" + ", ".join(SPLIT_NAMES) + "}"  # the domain of a split name

# field annotation -> (the types a value may have, its text, the value of a text)
_KEY_TYPES = {
    "int": ((int, np.integer), str, int),
    "float": ((int, float, np.integer, np.floating), lambda v: repr(float(v)), float),
    "str": (str, str, str),
    "np.ndarray": (np.ndarray, lambda v: ",".join(repr(float(x)) for x in v),
                   lambda text: np.array([float(x) for x in text.split(",")])),
}


def key(default=MISSING, domain: str = "(-inf, inf)") -> Field:
    """A dataclass field whose value, or each value of an array, must lie in
    the ``Domain`` written ``domain``. ``check_keys`` checks it and
    ``parse_keys`` reads it."""
    return field(default=default, metadata={"domain": Domain(domain)})


def check_key(f: Field, value, where: str):
    """``value`` if it has the type of field ``f`` and lies in its domain;
    otherwise a ValidationError names ``where`` and the value."""
    if not isinstance(value, _KEY_TYPES[f.type][0]):
        raise ValidationError(f"{where}: must be {f.type}, got {value!r}")
    domain = f.metadata.get("domain")
    values = np.asarray(value, dtype=np.float64 if f.type == "float" else None).ravel()
    found = domain and domain.first_outside(values)
    if found:
        raise ValidationError(f"{where}: {domain.why(found[1])}")
    return value


def check_keys(obj, where: str) -> None:
    """``check_key`` on every field of dataclass ``obj``, named ``where`` and the field name."""
    for f in fields(obj):
        check_key(f, getattr(obj, f.name), f"{where} {f.name}")


def format_keys(obj, prefix: str = "") -> dict[str, str]:
    """The text of each field of dataclass ``obj`` under ``prefix`` + its name, in field order."""
    return {prefix + f.name: _KEY_TYPES[f.type][1](getattr(obj, f.name)) for f in fields(obj)}


def parse_key(f: Field, raw: Mapping[str, str], name: str, where: str):
    """The value of key ``name`` of ``raw``, read as field ``f`` and checked by
    ``check_key``; a missing key or a text that does not read raises
    ValidationError naming ``where`` and the key."""
    if name not in raw:
        raise ValidationError(f"missing {where} key {name!r}")
    try:
        value = _KEY_TYPES[f.type][2](raw[name])
    except ValueError:
        raise ValidationError(f"{where} {name}: cannot read {raw[name]!r}") from None
    return check_key(f, value, f"{where} {name}")


def parse_keys(cls, raw: Mapping[str, str], where: str, prefix: str = ""):
    """A ``cls`` built from the texts that ``format_keys`` writes, each field
    read by ``parse_key`` from the key ``prefix`` + its name."""
    return cls(**{f.name: parse_key(f, raw, prefix + f.name, where) for f in fields(cls)})


@dataclass(frozen=True)
class Episode:
    """One drive as read-only float64 columns sampled at SAMPLE_RATE_HZ:
    observation vectors ``obs`` (n, d) and the human oracle's maneuver,
    ``speed`` (n,) and ``angle`` (n,), in the domains of their
    ``EPISODE_TABLE`` columns (speed and angle in the legal CAN value ranges).
    Row i is step i. A writeable column is copied.
    """

    episode_id: str
    obs: np.ndarray
    speed: np.ndarray
    angle: np.ndarray

    def __post_init__(self) -> None:
        for name in ("obs", "speed", "angle"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        n = len(self.obs)
        if self.obs.ndim != 2:
            raise ValidationError(f"episode {self.episode_id}: obs must be (n, d), got {self.obs.shape}")
        if n == 0:
            raise ValidationError(f"episode {self.episode_id} has no records")
        if self.speed.shape != (n,) or self.angle.shape != (n,):
            raise ValidationError(f"episode {self.episode_id}: speed and angle do not match {n} obs rows")
        bad = EPISODE_TABLE.first_bad(vars(self))
        if bad is not None:
            raise ValidationError(f"episode {self.episode_id}: {bad[1]} at step {bad[0]}")

    def __len__(self) -> int:
        return self.obs.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.obs.shape[1]


@dataclass(frozen=True)
class Windows:
    """Model inputs/targets as row indices into episode columns.

    ``obs``/``speed``/``angle`` concatenate the rows of the episodes the
    windows reference. Window i ends at row ``end[i]``, which is step
    ``t[i]`` of episode ``episode_ids[ep[i]]``: its k+1 observation frames are
    rows end-k..end, its past speeds/angles rows end-k..end-1 and its targets
    row end. Slicing selects windows and shares the columns. These columns
    are the only copy of the inputs: ``driver.batch_inputs`` and
    ``driver.batch_targets`` gather and normalize one batch's rows of them.
    """

    obs: np.ndarray  # (rows, obs_dim)
    speed: np.ndarray  # (rows,)
    angle: np.ndarray  # (rows,)
    end: np.ndarray  # (W,)
    ep: np.ndarray  # (W,)
    t: np.ndarray  # (W,)
    episode_ids: tuple[str, ...]
    k: int

    def __len__(self) -> int:
        return self.end.shape[0]

    def __getitem__(self, idx) -> Windows:
        return replace(self, end=self.end[idx], ep=self.ep[idx], t=self.t[idx])

    @property
    def target_speed(self) -> np.ndarray:
        return self.speed[self.end]

    @property
    def target_angle(self) -> np.ndarray:
        return self.angle[self.end]


def windows_at(
    episodes: Mapping[str, Episode], episode_ids: Sequence[str], ep: np.ndarray, t: np.ndarray, k: int
) -> Windows:
    """The windows ending at each position, in order: position i is step
    ``t[i]`` of episode ``episode_ids[ep[i]]``.

    The only constructor of windows. Windows never span episodes: t must lie
    in [k, len-1] of its episode. The windows keep only the ids they use.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    ep, t = np.asarray(ep, dtype=np.int64), np.asarray(t, dtype=np.int64)
    if ep.shape != t.shape or ep.ndim != 1 or ((ep < 0) | (ep >= len(episode_ids))).any():
        raise ValidationError("positions need equal-length 1-D ep and t, with ep indexing episode_ids")
    codes, ep = np.unique(ep, return_inverse=True)
    ids = tuple(episode_ids[i] for i in codes.tolist())
    unknown = [eid for eid in ids if eid not in episodes]
    if unknown:
        raise ValidationError(f"scene references unknown episode {unknown[0]}")
    used = [episodes[eid] for eid in ids]
    lengths = np.array([len(e) for e in used], dtype=np.int64)
    bad = (t < k) | (t >= lengths[ep])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"scene t={t[i]} out of window range for episode {ids[ep[i]]}")
    empty = {"obs": np.empty((0, 0)), "speed": np.empty(0), "angle": np.empty(0)}
    obs, speed, angle = (
        _frozen(np.concatenate([getattr(e, c) for e in used] or [empty[c]])) for c in empty
    )
    starts = np.cumsum(lengths) - lengths
    return Windows(obs, speed, angle, end=starts[ep] + t, ep=ep, t=t, episode_ids=ids, k=k)


def make_windows(*episodes: Episode, k: int) -> Windows:
    """The windows of ``episodes`` at every t in [k, len-1], episode by
    episode in the given order; an episode shorter than k+1 steps has none."""
    counts = np.array([max(len(e) - k, 0) for e in episodes], dtype=np.int64)
    ep = np.repeat(np.arange(len(episodes)), counts)
    t = k + np.arange(len(ep)) - np.repeat(np.cumsum(counts) - counts, counts)
    return windows_at(episodes_by_id(episodes), [e.episode_id for e in episodes], ep, t, k)


@dataclass(frozen=True)
class SplitSet:
    """Disjoint episode-id partition into the three dataset roles."""

    d1: tuple[str, ...]
    d2: tuple[str, ...]
    d3: tuple[str, ...]

    def __post_init__(self) -> None:
        groups = (set(self.d1), set(self.d2), set(self.d3))
        total = sum(len(g) for g in groups)
        union = set().union(*groups)
        if total != len(union):
            raise ValidationError("splits are not pairwise disjoint")
        sizes = sorted(len(g) for g in groups)
        if sizes[-1] - sizes[0] > 1:
            raise ValidationError(f"split sizes differ by more than 1: {sizes}")

    def ids_of(self, split: str) -> tuple[str, ...]:
        try:
            return dict(zip(SPLIT_NAMES, (self.d1, self.d2, self.d3)))[split]
        except KeyError:
            raise ValidationError(f"unknown split {split!r}") from None


def split_dataset(episodes: Sequence[Episode], seed: int) -> SplitSet:
    """Shuffle episodes with ``seed`` and deal them into three near-equal splits.

    Deterministic for a fixed seed and independent of the input ordering.
    """
    ids = sorted(ep.episode_id for ep in episodes)
    if len(ids) != len(set(ids)):
        raise ValidationError("duplicate episode_ids")
    n = len(ids)
    if n < 3:
        raise ValidationError(f"insufficient episodes: need >= 3, got {n}")
    rng = np.random.default_rng(seed)
    perm = [ids[i] for i in rng.permutation(n)]
    base, rem = divmod(n, 3)
    sizes = [base + (1 if i < rem else 0) for i in range(3)]
    cuts = [0, sizes[0], sizes[0] + sizes[1], n]
    parts = [tuple(perm[cuts[i] : cuts[i + 1]]) for i in range(3)]
    return SplitSet(d1=parts[0], d2=parts[1], d3=parts[2])


@dataclass(frozen=True)
class Normalizer:
    """Per-channel z-score statistics, computed on the training split only."""

    mean_speed: float = key()
    std_speed: float = key(domain="(0, inf)")
    mean_angle: float = key()
    std_angle: float = key(domain="(0, inf)")
    obs_mean: np.ndarray = key()  # (obs_dim,)
    obs_std: np.ndarray = key(domain="(0, inf)")  # (obs_dim,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "obs_mean", _readonly(self.obs_mean))
        object.__setattr__(self, "obs_std", _readonly(self.obs_std))
        check_keys(self, "normalizer")

    def _stats(self, channel: str):
        if channel == "speed":
            return self.mean_speed, self.std_speed
        if channel == "angle":
            return self.mean_angle, self.std_angle
        if channel == "obs":
            return self.obs_mean, self.obs_std
        raise ValidationError(f"unknown channel {channel!r}")

    def normalize(self, x, channel: str):
        mean, std = self._stats(channel)
        return (np.asarray(x, dtype=np.float64) - mean) / std

    def denormalize(self, x, channel: str):
        mean, std = self._stats(channel)
        return np.asarray(x, dtype=np.float64) * std + mean


def _channel_stats(values: np.ndarray, name: str) -> tuple[float, float]:
    # population (divide-by-n) convention; floor guards constant channels
    mean = float(np.mean(values))
    std = float(np.std(values))
    if std < STD_FLOOR:
        warnings.warn(f"channel {name!r} is (near-)constant; std clamped to {STD_FLOOR}")
        std = STD_FLOOR
    return mean, std


STATS_BLOCK = 4096  # rows per gathered block in ``row_stats``; bounds its working memory


def row_stats(values: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.mean`` and ``np.std`` over axis 0 of ``values[rows]`` for 2-D
    ``values``, bit for bit, gathering ``STATS_BLOCK`` rows at a time.

    numpy sums axis 0 of a C-contiguous array of two or more columns row by
    row, so each block's sum starts from the running sum, written as its first
    row, and the sum of the blocks is the whole array's. One column is summed
    pairwise instead, so it is gathered whole (8 bytes a row)."""
    if values.shape[1] == 1:
        gathered = values[rows]
        return np.mean(gathered, axis=0), np.std(gathered, axis=0)
    block = STATS_BLOCK
    buf = np.empty((min(block, len(rows)) + 1, values.shape[1]))

    def total(mean=None):
        # axis-0 sum of values[rows], or of (values[rows] - mean) ** 2
        acc = None
        for lo in range(0, len(rows), block):
            part = rows[lo:lo + block]
            # rows are in range; "clip" lets take write into buf unbuffered
            gathered = np.take(values, part, axis=0, out=buf[1:len(part) + 1], mode="clip")
            if mean is not None:
                np.square(np.subtract(gathered, mean, out=gathered), out=gathered)
            if acc is not None:
                buf[0] = acc
                gathered = buf[:len(part) + 1]
            acc = np.add.reduce(gathered, axis=0)
        return acc

    mean = total() / len(rows)
    return mean, np.sqrt(total(mean) / len(rows))


def fit_normalizer(windows: Windows) -> Normalizer:
    """Population z-score statistics over all frames, past values and targets,
    each window contributing its rows end-k..end. The frames are gathered a
    block at a time (``row_stats``)."""
    if not windows:
        raise ValidationError("cannot fit a normalizer on an empty window list")
    rows = (windows.end[:, None] + np.arange(-windows.k, 1)).ravel()
    mean_s, std_s = _channel_stats(windows.speed[rows], "speed")
    mean_a, std_a = _channel_stats(windows.angle[rows], "angle")
    obs_mean, obs_std = row_stats(windows.obs, rows)
    low = obs_std < STD_FLOOR
    if np.any(low):
        warnings.warn(
            f"obs channels {np.flatnonzero(low).tolist()} are (near-)constant; "
            f"std clamped to {STD_FLOOR}"
        )
        obs_std = np.where(low, STD_FLOOR, obs_std)
    return Normalizer(
        mean_speed=mean_s,
        std_speed=std_s,
        mean_angle=mean_a,
        std_angle=std_a,
        obs_mean=obs_mean,
        obs_std=obs_std,
    )


# ---------------------------------------------------------------------------
# Text tables: episode files, split manifests, label and score files
# ---------------------------------------------------------------------------

TABLE_BLOCK = 1536  # fields per numpy conversion; bounds the codec's working memory


@dataclass(frozen=True)
class Column:
    """A table column of str, np.int64 or np.float64 whose values lie in the
    ``Domain`` written ``domain``, by default ``(-inf, inf)`` for numbers.
    ``width`` names the format-line key of a 2-D column's width."""

    name: str
    dtype: type
    domain: Domain | str | None = None
    width: str | None = None

    def __post_init__(self) -> None:
        text = self.domain or (None if self.dtype is str else "(-inf, inf)")
        object.__setattr__(self, "domain", text and Domain(text))


@dataclass(frozen=True)
class TableSchema:
    """A table file: the ``magic`` line with ``format_keys`` as key=value,
    ``# key value`` lines, the column line if ``column_line``, then rows."""

    magic: str
    noun: str  # the kind of file, in messages
    delimiter: str
    columns: tuple[Column, ...]
    column_line: bool
    format_keys: tuple[str, ...] = ()

    @property
    def header(self) -> str:
        return self.delimiter.join(c.name for c in self.columns)

    def row_error(self, path, line: int, reason: str) -> ValidationError:
        return ValidationError(f"{path}:{line}: malformed {self.noun} row: {reason}")

    def first_bad(self, columns: Mapping[str, np.ndarray]) -> tuple[int, str] | None:
        """(row, reason) for the first row of ``columns``, arrays keyed by
        column name, with a value outside its column's domain; None when every
        value lies inside. Keys that name no column are skipped."""
        bad = [(found[0], col.domain.why(found[1], col.name)) for col in self.columns
               if col.domain and col.name in columns and (found := col.domain.first_outside(columns[col.name]))]
        return min(bad, default=None)


def _parse(path, schema: TableSchema, spans, rows, lines) -> list[np.ndarray]:
    """The columns of ``rows``, the field lists of ``lines``, each column
    cut at its span; raises the ValidationError of the first bad row."""
    try:
        if any(len(row) != spans[-1][1] for row in rows):
            raise ValueError(f"expected {spans[-1][1]} fields, got {len(rows[0])}")
        fields = list(zip(*rows))
        arrays = [np.array(fields[a:b], dtype=c.dtype).T for c, (a, b) in zip(schema.columns, spans)]
    except (ValueError, OverflowError) as exc:
        if len(rows) == 1:
            reason = "integer out of range" if isinstance(exc, OverflowError) else str(exc)
            raise schema.row_error(path, lines[0], reason) from None
        for row, line in zip(rows, lines):  # find the first bad row
            _parse(path, schema, spans, [row], [line])
        raise
    columns = {col.name: values if col.width else values[:, 0] for col, values in zip(schema.columns, arrays)}
    bad = schema.first_bad(columns)
    if bad is not None:
        raise schema.row_error(path, lines[bad[0]], bad[1])
    return list(columns.values())


def read_table(path, schema: TableSchema) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """(meta, columns) of a ``schema`` file. ``meta`` holds the format-line
    keys and every ``# key value`` line; ``columns`` one array per column
    (2-D for a ``width`` column) and ``line``, each row's line number. Rows
    are parsed in blocks into arrays sized from the file, so the parse needs
    little more memory than its result."""
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: {schema.noun} file {path}")
    with open(path, "rb") as fh:
        breaks = sum(b.count(b"\n") + b.count(b"\r") for b in iter(lambda: fh.read(1 << 16), b""))
    size = os.path.getsize(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        tokens = header.split()
        if tokens[:2] != schema.magic.split():
            raise ArtifactVersionError(
                f"{path}: unsupported {schema.noun} file {header!r} ({schema.magic})"
            )
        meta = dict(token.partition("=")[::2] for token in tokens[2:])
        widths = [meta.get(c.width, "") if c.width else "1" for c in schema.columns]
        # a row of more fields than the file has bytes cannot exist
        valid = all(w.isdecimal() and 0 < int(w) <= size for w in widths)
        if not valid or meta.keys() != set(schema.format_keys):
            raise ValidationError(f"{path}:1: malformed {schema.noun} header {header!r}")
        stops = np.cumsum([int(w) for w in widths]).tolist()
        spans = list(zip([0, *stops], stops))
        capacity = min(breaks + 1, (size + 1) // stops[-1])  # all rows but the last end in a break
        out = {
            c.name: np.zeros((capacity, b - a) if c.width else capacity, c.dtype)
            for c, (a, b) in zip(schema.columns, spans)
        }
        out["line"] = np.zeros(capacity, dtype=np.int64)
        column_line = schema.header if schema.column_line else None
        n, lineno = 0, 1
        while batch := list(itertools.islice(fh, max(1, TABLE_BLOCK // stops[-1]))):
            rows, lines = [], []
            for lineno, line in enumerate(batch, start=lineno + 1):
                line = line.rstrip("\n")
                if line.startswith("#"):
                    key, _, value = line[1:].lstrip(" ").partition(" ")
                    meta[key] = value
                elif line and line != column_line:
                    rows.append(line.split(schema.delimiter))
                    lines.append(lineno)
            if rows:
                arrays = [*_parse(path, schema, spans, rows, lines), np.array(lines)]
                for name, values in zip(out, arrays):
                    if out[name].dtype.itemsize < values.dtype.itemsize:  # longer strings
                        out[name] = out[name].astype(values.dtype)
                    out[name][n : n + len(rows)] = values
                n += len(rows)
    return meta, {name: _frozen(values[:n]) for name, values in out.items()}


def write_table(path, schema: TableSchema, meta: Mapping[str, str], blocks: Iterable[Mapping]) -> None:
    """Write the rows of ``blocks``, block after block, as a ``schema``
    file. Each block holds one sequence or array per column, so a caller can
    hand over its rows a part at a time; floats are written with repr, so
    they read back to the same bits."""
    head = [" ".join([schema.magic, *(f"{k}={meta[k]}" for k in schema.format_keys)])]
    head += [f"# {k} {v}" for k, v in meta.items() if k not in schema.format_keys]
    head += [schema.header] if schema.column_line else []
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in head))
        for columns in blocks:
            arrays = [np.asarray(columns[c.name]) for c in schema.columns]
            arrays = [a if a.ndim == 2 else a[:, None] for a in arrays]
            step = max(1, TABLE_BLOCK // sum(a.shape[1] for a in arrays))
            for i in range(0, len(arrays[0]), step):
                fields = [field for a in arrays for field in a[i : i + step].T]
                # tolist() gives Python scalars, whose repr is the shortest round-trip form
                text = [f.tolist() if f.dtype.kind == "U" else map(repr, f.tolist()) for f in fields]
                fh.write("".join(schema.delimiter.join(row) + "\n" for row in zip(*text)))


EPISODE_TABLE = TableSchema(
    EPISODE_FORMAT, "episode", ",",
    (
        Column("episode_id", str),
        Column("step_index", np.int64, "[0, inf)"),
        Column("speed", np.float64, f"[{SPEED_MIN}, {SPEED_MAX}]"),
        Column("angle", np.float64, f"[{ANGLE_MIN}, {ANGLE_MAX}]"),
        Column("obs", np.float64, width="d"),
    ),
    column_line=False, format_keys=("d", "f"),
)
SPLIT_TABLE = TableSchema(
    SPLIT_FORMAT, "split", "\t", (Column("episode_id", str), Column("split", str, SPLITS)), column_line=False
)


def write_episodes(path, episodes: Sequence[Episode], provenance: Mapping[str, str] | None = None) -> None:
    """Line-delimited episode file; floats printed in shortest round-trip form."""
    if not episodes:
        raise ValidationError("no episodes to write")
    d = episodes[0].obs_dim
    if any(ep.obs_dim != d for ep in episodes):
        raise ValidationError("episodes have inconsistent obs dims")
    meta = {"d": str(d), "f": str(SAMPLE_RATE_HZ), **(provenance or {})}
    # one episode at a time, so the writer copies no more than one episode's columns
    write_table(path, EPISODE_TABLE, meta, (
        {"episode_id": np.full(len(ep), ep.episode_id), "step_index": np.arange(len(ep)),
         "speed": ep.speed, "angle": ep.angle, "obs": ep.obs}
        for ep in episodes
    ))


def read_episodes(path) -> list[Episode]:
    """The episodes of an episode file, whose rows hold each episode's steps
    together and in order."""
    meta, cols = read_table(path, EPISODE_TABLE)
    if meta["f"] != str(SAMPLE_RATE_HZ):
        raise ValidationError(f"{path}:1: malformed episode header: f={meta['f']}, not {SAMPLE_RATE_HZ} Hz")
    ids, step = cols["episode_id"], cols["step_index"]
    if len(ids) == 0:
        raise ValidationError(f"{path}: no records")
    starts = np.flatnonzero(np.append(True, ids[1:] != ids[:-1]))
    stops = np.append(starts[1:], len(ids))
    position = np.arange(len(ids)) - np.repeat(starts, stops - starts)
    _, first = np.unique(ids[starts], return_index=True)
    errors = [
        (i, f"episode {ids[i]} reappears after another episode") for i in np.delete(starts, first)[:1]
    ]
    errors += [
        (i, f"step_index {step[i]} is not the row's position {position[i]} in episode {ids[i]}")
        for i in np.flatnonzero(step != position)[:1]
    ]
    if errors:
        i, reason = min(errors)
        raise EPISODE_TABLE.row_error(path, cols["line"][i], reason)
    return [
        Episode(str(ids[a]), cols["obs"][a:b], cols["speed"][a:b], cols["angle"][a:b])
        for a, b in zip(starts.tolist(), stops.tolist())
    ]


def write_split_manifest(path, splits: SplitSet, provenance: Mapping[str, str] | None = None) -> None:
    names = [name for name in SPLIT_NAMES for _ in splits.ids_of(name)]
    ids = splits.d1 + splits.d2 + splits.d3
    write_table(path, SPLIT_TABLE, provenance or {}, [{"episode_id": ids, "split": names}])


def read_split_manifest(path) -> tuple[SplitSet, dict[str, str]]:
    """The splits of a split manifest, and its provenance."""
    meta, cols = read_table(path, SPLIT_TABLE)
    ids, names = cols["episode_id"], cols["split"]
    return SplitSet(*(tuple(ids[names == name].tolist()) for name in SPLIT_NAMES)), meta


def episodes_by_id(episodes: Iterable[Episode]) -> dict[str, Episode]:
    out = {}
    for ep in episodes:
        if ep.episode_id in out:
            raise ValidationError(f"duplicate episode_id {ep.episode_id}")
        out[ep.episode_id] = ep
    return out
