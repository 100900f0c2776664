"""The text-table codec: exact round trips and fuzzed readers, checkpoints and config files included."""

import dataclasses
import math
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivlab import core, simgen
from drivlab.config import PipelineConfig
from drivlab.diffcore.checkpoint import CHECKPOINT_FORMAT, load_checkpoint
from drivlab.driver import (
    BackboneArch,
    DriverNet,
    TrainConfig,
    init_driver_params,
    load_driver,
    predict_batch,
    save_driver,
)
from drivlab.errors import DrivlabError, ValidationError, exit_code_for
from drivlab.evaluate import SCORE_TABLE, PolicyScoreTrace, read_scores_csv
from drivlab.failure import (
    CANONICAL_THRESHOLDS,
    LABEL_TABLE,
    HazardNet,
    Labels,
    init_hazard_params,
    load_hazard,
    predict_hazard_batch,
    read_labels_csv,
    save_hazard,
)

SCHEMAS = (core.EPISODE_TABLE, core.SPLIT_TABLE, LABEL_TABLE, SCORE_TABLE)

TEXT = string.ascii_letters + string.digits + " ._-"
SPECIAL_FLOATS = (-0.0, 5e-324, -2.5e-308, 0.1 + 0.2, 1e16, 179.99999999999997, 1.7976931348623157e308)
SPECIAL_INTS = (0, 1, 2, 2**31, 2**53 + 1, 2**63 - 1)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def _cells(col: core.Column):
    """Values inside ``col``'s domain, with the edge cases drawn often."""
    domain = col.domain
    if domain is None:
        return st.text(TEXT, max_size=8)
    if domain.choices:
        return st.sampled_from(domain.choices)
    if col.dtype is np.int64:
        hi = int(min(domain.hi, 2**63 - 1))
        return st.one_of(st.sampled_from([v for v in SPECIAL_INTS if v <= hi]), st.integers(0, hi))
    bounds = {"min_value": None if np.isinf(domain.lo) else domain.lo,
              "max_value": None if np.isinf(domain.hi) else domain.hi}
    special = [v for v in SPECIAL_FLOATS if domain.lo <= v <= domain.hi]
    return st.one_of(st.sampled_from(special), st.floats(allow_nan=False, allow_infinity=False, **bounds))


def _bits(a: np.ndarray):
    return a.tolist() if a.dtype.kind == "U" else (a.dtype, a.shape, a.tobytes())


@pytest.mark.parametrize("schema", SCHEMAS, ids=lambda s: s.noun)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_round_trip_is_bit_exact(table_dir, schema, data):
    n = data.draw(st.integers(0, 12), label="rows")
    width = data.draw(st.integers(1, 4), label="width")
    meta = {key: str(width) if key == "d" else data.draw(st.text(string.digits, min_size=1))
            for key in schema.format_keys}
    provenance = st.dictionaries(st.text(string.ascii_letters, min_size=2, max_size=6), st.text(TEXT), max_size=3)
    meta.update(data.draw(provenance, label="provenance"))
    columns = {}
    for col in schema.columns:
        shape = (n, width) if col.width else (n,)
        size = int(np.prod(shape))
        cells = data.draw(st.lists(_cells(col), min_size=size, max_size=size), label=col.name)
        columns[col.name] = np.array(cells, dtype=col.dtype).reshape(shape)
    path = table_dir / f"{schema.noun}.txt"
    core.write_table(path, schema, meta, [columns])
    written = path.read_bytes()
    meta_back, back = core.read_table(path, schema)
    assert meta_back == meta
    for col in schema.columns:
        assert _bits(back[col.name]) == _bits(columns[col.name]), col.name
    first = 2 + len(meta) - len(schema.format_keys) + schema.column_line
    assert back["line"].tolist() == list(range(first, first + n))
    core.write_table(path, schema, meta_back, [back])
    assert path.read_bytes() == written
    # the rows handed over in blocks write the same bytes
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3), label="cuts"))
    bounds = list(zip([0, *cuts], [*cuts, n]))
    core.write_table(path, schema, meta, ({c: v[a:b] for c, v in columns.items()} for a, b in bounds))
    assert path.read_bytes() == written


VALID = {
    "episode": (core.read_episodes, f"{core.EPISODE_FORMAT} d=2 f=4\n# seed 1\nep0,0,10.0,1.5,0.1,0.2\n"
                "ep0,1,11.0,-2.0,0.3,0.4\nep1,0,0.0,0.0,0.5,0.6\n"),
    "split": (core.read_split_manifest, f"{core.SPLIT_FORMAT}\n# seed 1\n# episodes 00ff\n"
              "e0\tD1\ne1\tD2\ne2\tD3\ne3\tD1\n"),
    "label": (read_labels_csv, f"{LABEL_TABLE.magic}\n# split D3\n# m 8\n{LABEL_TABLE.header}\n"
              "ep0,2,0,0,0,1,0.5,20.0,0.4,21.0\nep0,3,1,0,1,1,0.5,20.0,9.4,21.0\nep1,0,0,1,1,1,0.0,1.0,0.0,9.0\n"),
    "score": (read_scores_csv, f"{SCORE_TABLE.magic}\n# policy learned\n# split D3\n{SCORE_TABLE.header}\n"
              "ep0,2,0.25\nep1,4,0.75\n"),
}


def _coded(cols):
    """(sorted episode ids, each row's code) of a table's episode_id column."""
    ids, ep = np.unique(cols["episode_id"], return_inverse=True)
    return tuple(ids.tolist()), ep


# table kind -> (its schema, the constructor of its in-memory columns from the columns read)
IN_MEMORY = {
    "episode": (core.EPISODE_TABLE, lambda c: core.Episode("ep0", c["obs"], c["speed"], c["angle"])),
    "label": (LABEL_TABLE, lambda c: Labels(*_coded(c), **{
        col.name: c[col.name] for col in LABEL_TABLE.columns if col.name != "episode_id"})),
    "score": (SCORE_TABLE, lambda c: PolicyScoreTrace("learned", *_coded(c), c["t"], c["score"])),
}


def _outside(col: core.Column):
    """A value just outside ``col``'s domain: past its upper end, else below
    its lower end, else not finite."""
    domain, whole = col.domain, col.dtype is np.int64
    if domain.hi < math.inf:
        return math.floor(domain.hi) + 1 if whole else domain.hi + 1
    if domain.lo > -math.inf:
        return math.ceil(domain.lo) - 1 if whole else domain.lo - 1
    return math.nan


@pytest.mark.parametrize("kind, name", [
    (kind, col.name) for kind, (schema, _) in IN_MEMORY.items() for col in schema.columns
    if col.domain and col.name != "step_index"  # the row's position in its episode, not kept in memory
])
def test_reader_and_constructor_reject_the_same_value(table_dir, kind, name):
    """A value outside its column's domain is rejected by the file's reader,
    naming file:line, and by the constructor of the in-memory columns."""
    read, text = VALID[kind]
    schema, build = IN_MEMORY[kind]
    path = table_dir / f"agree_{kind}.txt"
    path.write_text(text)
    meta, cols = core.read_table(path, schema)
    build({key: values.copy() for key, values in cols.items()})  # the valid columns build
    bad = _outside(next(col for col in schema.columns if col.name == name))
    cols[name] = cols[name].copy()
    cols[name][1] = bad  # a whole row of a 2-D column
    core.write_table(path, schema, meta, [cols])
    value = re.escape(f"{name} {bad}")
    with pytest.raises(ValidationError, match=rf"{re.escape(str(path))}:{cols['line'][1]}: malformed .*{value}"):
        read(path)
    with pytest.raises(ValidationError, match=rf"{value}.* at (step|row) 1$"):
        build(cols)


TOKENS = ("nan", "inf", "-inf", "x", "1e400", "99999999999999999999", "-1", "-3", "", "0", "1.5",
          "v2", "D4", "#")


EDIT = st.tuples(st.integers(0, 99), st.sampled_from(["drop", "duplicate", "replace", "truncate"]),
                 st.integers(0, 99), st.sampled_from(TOKENS))


def _edited(text: str, edit, delimiter: str | None = None) -> str:
    """``text`` with field j of line i dropped, duplicated or replaced by
    ``token``, or with line i cut to j characters; i and j wrap around.
    Fields are split at ``delimiter``; by default line 0 is the format line,
    whose fields are space-separated, and the others split at tabs or commas.
    Replacing a ``key=value`` field of line 0 replaces the value."""
    i, op, j, token = edit
    lines = text.split("\n")
    i %= len(lines) - 1
    delimiter = delimiter or (" " if i == 0 else "\t" if "\t" in lines[i] else ",")
    fields = lines[i].split(delimiter)
    j %= len(fields)
    if op == "drop":
        del fields[j]
    elif op == "duplicate":
        fields.insert(j, fields[j])
    elif op == "replace":
        key, eq, _ = fields[j].rpartition("=") if i == 0 else ("", "", "")
        fields[j] = key + eq + token
    lines[i] = delimiter.join(fields)
    if op == "truncate":
        lines[i] = lines[i][: edit[2] % (len(lines[i]) + 1)]
    return "\n".join(lines)


def _read_rejects_cleanly(read, path, text: str) -> None:
    path.write_text(text)
    try:
        read(path)
    except DrivlabError as exc:
        assert exit_code_for(exc) in (2, 3), text


def _single_edits(text: str, delimiter: str | None = None, prefix: str = "") -> list[str]:
    """Every text one edit away from ``text`` in a line starting with ``prefix``."""
    lines = text.split("\n")
    return sorted({
        _edited(text, (i, op, j, token), delimiter)
        for i, line in enumerate(lines[:-1])
        if line.startswith(prefix)
        for j in range(len(line) + 1)
        for op, token in [("drop", ""), ("duplicate", ""), ("truncate", ""), *(("replace", t) for t in TOKENS)]
    })


@pytest.mark.parametrize("kind", VALID)
def test_every_single_edit_raises_only_drivlab_errors(table_dir, kind):
    read, text = VALID[kind]
    path = table_dir / f"edit_{kind}.txt"
    _read_rejects_cleanly(read, path, text)
    for edited in _single_edits(text):
        _read_rejects_cleanly(read, path, edited)


@pytest.mark.parametrize("kind", VALID)
@given(edits=st.lists(EDIT, min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_edited_file_raises_only_drivlab_errors(table_dir, kind, edits):
    read, text = VALID[kind]
    for edit in edits:
        text = _edited(text, edit)
    _read_rejects_cleanly(read, table_dir / f"fuzz_{kind}.txt", text)


# every PipelineConfig key, at the defaults
CONFIG = "".join(f"{key} = {value}\n" for key, value in PipelineConfig().to_mapping().items())


def _config_loads_whole_or_rejects(path, text: str) -> None:
    """A config file either fails to load with a DrivlabError, or every
    object the stages build from it builds: nothing it sets fails later."""
    path.write_text(text)
    try:
        cfg = PipelineConfig.from_file(path)
    except DrivlabError as exc:
        assert exit_code_for(exc) in (2, 3), text
        return
    cfg.world_config()
    # as stage_train_driver and stage_train_failure build them
    TrainConfig(lr=cfg.driver_lr, epochs=cfg.driver_epochs, batch_size=cfg.driver_batch_size,
                lam=cfg.loss_balance, dropout_p=cfg.driver_dropout)
    TrainConfig(lr=cfg.hazard_lr, epochs=cfg.hazard_epochs, batch_size=cfg.hazard_batch_size,
                dropout_p=cfg.hazard_dropout)


def test_every_single_config_edit_loads_whole_or_raises_drivlab_errors(table_dir):
    path = table_dir / "edit_config.txt"
    path.write_text(CONFIG)
    assert PipelineConfig.from_file(path) == PipelineConfig()
    for edited in _single_edits(CONFIG, delimiter=" "):
        _config_loads_whole_or_rejects(path, edited)


@given(edits=st.lists(EDIT, min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_edited_config_loads_whole_or_raises_drivlab_errors(table_dir, edits):
    text = CONFIG
    for edit in edits:
        text = _edited(text, edit, delimiter=" ")
    _config_loads_whole_or_rejects(table_dir / "fuzz_config.txt", text)


CHECKPOINT = (f"{CHECKPOINT_FORMAT}\nkind driver\nmeta k 4\nmeta prov_episodes 00ff\nparam w 2 3\n"
              "0.5 -1.25 3.0 0.001 2.0 -0.0\nparam b 3\n0.1 0.2 0.3\nparam s\n7.5\nend\n")


def test_every_single_checkpoint_edit_loads_or_raises_drivlab_errors(table_dir):
    path = table_dir / "edit.ckpt"
    path.write_text(CHECKPOINT)
    kind, meta, store = load_checkpoint(path)
    assert (kind, meta) == ("driver", {"k": "4", "prov_episodes": "00ff"})
    assert [(name, p.data.shape) for name, p in store.items()] == [("w", (2, 3)), ("b", (3,)), ("s", ())]
    for edited in _single_edits(CHECKPOINT, delimiter=" "):
        _read_rejects_cleanly(load_checkpoint, path, edited)


@given(edits=st.lists(EDIT, min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_edited_checkpoint_loads_or_raises_drivlab_errors(table_dir, edits):
    text = CHECKPOINT
    for edit in edits:
        text = _edited(text, edit, delimiter=" ")
    _read_rejects_cleanly(load_checkpoint, table_dir / "fuzz.ckpt", text)


@pytest.fixture(scope="module")
def small_nets(table_dir):
    """A driver and a hazard checkpoint as the pipeline saves them, of an arch
    small enough that every edit of their meta lines loads in a millisecond,
    plus windows to predict on. obs_dim 3 keeps a normalizer that lost one
    value from broadcasting against the observations."""
    episodes = simgen.generate_dataset(simgen.WorldConfig(episode_length=20), 2, base_seed=0)
    windows = core.make_windows(*(dataclasses.replace(ep, obs=ep.obs[:, :3]) for ep in episodes), k=2)
    arch = BackboneArch(obs_dim=3, k=2, enc_hidden=4, enc_out=3, vis_hidden=2, sig_hidden=2, head_hidden=3)
    rng = np.random.default_rng(0)
    common = dict(arch=arch, normalizer=core.fit_normalizer(windows), seed=7, provenance={"episodes": "00ff"})
    save_driver(table_dir / "driver.ckpt", DriverNet(params=init_driver_params(arch, rng), trained_on="D1", **common))
    save_hazard(table_dir / "hazard_middle.ckpt", HazardNet(
        params=init_hazard_params(arch, rng), trained_on="D2", thresholds=CANONICAL_THRESHOLDS["middle"], m=8, **common
    ))
    return {
        "driver": (table_dir / "driver.ckpt", load_driver, predict_batch),
        "hazard": (table_dir / "hazard_middle.ckpt", load_hazard, predict_hazard_batch),
    }, windows[:5]


@pytest.mark.parametrize("kind", ["driver", "hazard"])
def test_every_meta_edit_of_a_saved_net_predicts_or_raises_drivlab_errors(table_dir, small_nets, kind):
    nets, windows = small_nets
    path, load, predict = nets[kind]
    text = path.read_text()
    load_and_predict = lambda edited: predict(load(edited), windows)  # noqa: E731
    load_and_predict(path)  # the unedited file loads and predicts
    for edited in _single_edits(text, delimiter=" ", prefix="meta "):
        _read_rejects_cleanly(load_and_predict, table_dir / f"meta_{kind}.ckpt", edited)


@pytest.mark.parametrize("token, error", [("1_0", None), ("nan", "non-finite"), ("1e400", "non-finite"),
                                          ("", "malformed param b"), ("0x1", "malformed param b")])
def test_checkpoint_values_read_as_float_reads_them(table_dir, token, error):
    path = table_dir / "token.ckpt"
    path.write_text(CHECKPOINT.replace("0.1 0.2 0.3", f"0.1 {token} 0.3"))
    if error is None:
        assert load_checkpoint(path)[2]["b"].data.tolist() == [0.1, float(token), 0.3]
    else:
        with pytest.raises(ValidationError, match=error):
            load_checkpoint(path)


@pytest.mark.parametrize("dims", ["-2 -3", "-1 -6", "3 -2 -1"])
def test_checkpoint_negative_dims_rejected(table_dir, dims):
    # the dims multiply to the value count, so only the sign check catches them
    path = table_dir / "negative.ckpt"
    path.write_text(CHECKPOINT.replace("param w 2 3", f"param w {dims}"))
    with pytest.raises(ValidationError, match="negative dimension"):
        load_checkpoint(path)
