import json

import pytest

from drivlab.cli import main
from drivlab.core import EPISODE_FORMAT
from drivlab.evaluate import SCORES_FORMAT, SCORES_HEADER
from drivlab.failure import LABELS_FORMAT, LABELS_HEADER
from drivlab.pipeline import file_digest

SMALL_CONFIG = """
# small world for CLI tests
episodes = 12
episode_length = 60
seed = 5
driver_epochs = 1
hazard_epochs = 1
budgets = 0.05:1.0:0.05
mc_samples = 3
thresholds = middle
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(SMALL_CONFIG)
    return path


def test_run_all_produces_report(tmp_path, config_file):
    out = tmp_path / "run"
    assert main(["run-all", "--config", str(config_file), "--out-dir", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["format"] == "drivlab-report v1"
    assert report["seed"] == 5
    assert "middle" in report["thresholds"]
    assert report["driver"]["mae_speed"] < report["driver"]["baseline_mae_speed"]
    block = report["thresholds"]["middle"]
    curves = block["curves"]
    assert set(curves) == {"learned", "uncertainty", "interval", "oracle"}
    assert len(curves["learned"]) == 20
    assert "auc_learned" in block and "hazard_fraction_windows" in block
    assert set(block["gains_vs_interval_pct"]) == {"10", "15", "20", "25", "30", "35", "40"}
    for name in ("episodes.txt", "splits.tsv", "driver.ckpt", "hazard_middle.ckpt",
                 "labels_D2_middle.csv", "labels_D3_middle.csv", "scores_uncertainty.csv"):
        assert name in report["artifacts"]


def test_run_all_deterministic_bytes(tmp_path, config_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run-all", "--config", str(config_file), "--out-dir", str(out1), "--quiet"]) == 0
    assert main(["run-all", "--config", str(config_file), "--out-dir", str(out2), "--quiet"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_stage_by_stage_flow(tmp_path, config_file):
    episodes = tmp_path / "episodes.txt"
    splits = tmp_path / "splits.tsv"
    driver = tmp_path / "driver.ckpt"
    hazard = tmp_path / "hazard.ckpt"
    labels_dir = tmp_path
    cfg = ["--config", str(config_file), "--quiet"]
    assert main(["gen", *cfg, "--out", str(episodes)]) == 0
    assert main(["split", *cfg, "--data", str(episodes), "--out", str(splits)]) == 0
    assert main(["train-driver", *cfg, "--data", str(episodes), "--split", str(splits),
                 "--out", str(driver)]) == 0
    assert (tmp_path / "driver.ckpt.metrics.json").exists()
    assert main(["label", *cfg, "--data", str(episodes), "--split", str(splits),
                 "--driver", str(driver), "--on", "D2", "--out-dir", str(labels_dir)]) == 0
    labels = labels_dir / "labels_D2_middle.csv"
    assert labels.exists()
    assert main(["train-failure", *cfg, "--labels", str(labels), "--data", str(episodes),
                 "--split", str(splits), "--driver", str(driver), "--out", str(hazard)]) == 0
    assert main(["label", *cfg, "--data", str(episodes), "--split", str(splits),
                 "--driver", str(driver), "--on", "D3", "--out-dir", str(labels_dir)]) == 0
    eval_labels = labels_dir / "labels_D3_middle.csv"
    report = tmp_path / "eval.json"
    assert main(["eval", *cfg, "--labels", str(eval_labels), "--hazard", str(hazard),
                 "--driver", str(driver), "--data", str(episodes), "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert "learned" in payload["curves"]
    assert "interval" in payload["curves"]


def test_gen_deterministic(tmp_path, config_file):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["gen", "--config", str(config_file), "--out", str(out), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_artifact_exit_code_3(tmp_path, config_file):
    out = tmp_path / "run"
    out.mkdir()
    code = main(["report", "--config", str(config_file), "--out-dir", str(out), "--quiet"])
    assert code == 3


def test_eval_missing_checkpoint_exit_code_3(tmp_path, config_file):
    out = tmp_path / "run"
    assert main(["run-all", "--config", str(config_file), "--out-dir", str(out), "--quiet"]) == 0
    (out / "driver.ckpt").unlink()
    code = main(["eval", "--labels", str(out / "labels_D3_middle.csv"),
                 "--hazard", str(out / "hazard_middle.ckpt"),
                 "--driver", str(out / "driver.ckpt"), "--data", str(out / "episodes.txt"),
                 "--out", str(out / "again.json"), "--quiet"])
    assert code == 3


def test_unknown_config_key_exit_code_2(tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("episodes = 12\nwarp_speed = 9\n")
    assert main(["run-all", "--config", str(cfg), "--out-dir", str(tmp_path / "x"), "--quiet"]) == 2


def test_invalid_config_value_exit_code_2(tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("episodes = twelve\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "e.txt"), "--quiet"]) == 2


@pytest.mark.parametrize("key, value", [("driver_lr", "nan"), ("loss_balance", "inf"), ("visibility", "-inf")])
def test_non_finite_config_float_exit_code_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.txt"
    cfg.write_text(SMALL_CONFIG + f"{key} = {value}\n")
    out = tmp_path / "run"
    assert main(["run-all", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 2
    assert f"config key {key}: must be finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())  # rejected before any stage ran


@pytest.mark.parametrize("key, value", [
    ("hazard_lr", "0"), ("hazard_batch_size", "0"), ("hazard_dropout", "1.0"), ("loss_balance", "-1"),
    ("driver_dropout", "0"), ("intersection_rate", "200"),
])
def test_config_value_outside_its_domain_exits_2_before_any_stage(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.txt"
    cfg.write_text(SMALL_CONFIG + f"{key} = {value}\n")
    out = tmp_path / "run"
    assert main(["run-all", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 2
    lineno = SMALL_CONFIG.count("\n") + 1
    assert f"{cfg}:{lineno}: config key {key}: must be" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())  # rejected before any stage ran


@pytest.mark.parametrize("line, message", [
    ("hazard_lr = 0", "config key hazard_lr: must be finite and in (0, inf), got 0.0"),
    ("hazard_lr = fast", "config key hazard_lr: cannot read 'fast'"),
    ("warp_speed = 9", "unknown config keys: warp_speed"),
])
def test_config_error_names_the_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.txt"
    cfg.write_text(SMALL_CONFIG + "# line 11\n" + line + "\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "e.txt"), "--quiet"]) == 2
    assert f"{cfg}:12: {message}" in capsys.readouterr().err


def test_gen_takes_the_pipeline_episode_length_floor(tmp_path):
    cfg = tmp_path / "short.txt"
    cfg.write_text(SMALL_CONFIG.replace("episode_length = 60", "episode_length = 8") + "k = 1\nm = 0\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "e.txt"), "--quiet"]) == 0


def test_label_leakage_exit_code_2(tmp_path, config_file):
    out = tmp_path / "run"
    assert main(["run-all", "--config", str(config_file), "--out-dir", str(out), "--quiet"]) == 0
    code = main(["label", "--config", str(config_file), "--data", str(out / "episodes.txt"),
                 "--split", str(out / "splits.tsv"), "--driver", str(out / "driver.ckpt"),
                 "--on", "D1", "--out-dir", str(tmp_path), "--quiet"])
    assert code == 2
    assert main(["label", "--config", str(config_file), "--data", str(out / "episodes.txt"),
                 "--split", str(out / "splits.tsv"), "--driver", str(out / "driver.ckpt"),
                 "--on", "D1", "--allow-leakage", "--out-dir", str(tmp_path), "--quiet"]) == 0


def test_eval_from_score_files(tmp_path, config_file):
    out = tmp_path / "run"
    assert main(["run-all", "--config", str(config_file), "--out-dir", str(out), "--quiet"]) == 0
    eval_config = tmp_path / "eval_config.txt"
    eval_config.write_text(SMALL_CONFIG.replace("budgets = 0.05:1.0:0.05", "budgets = 0.25,0.5"))
    report = tmp_path / "fromfiles.json"
    code = main(["eval", "--config", str(eval_config), "--labels", str(out / "labels_D3_middle.csv"),
                 "--scores", f"learned={out / 'scores_learned_middle.csv'}",
                 "--scores", f"uncertainty={out / 'scores_uncertainty.csv'}",
                 "--out", str(report), "--quiet"])
    assert code == 0
    payload = json.loads(report.read_text())
    assert {p["budget"] for p in payload["curves"]["learned"]} == {0.25, 0.5}
    assert payload["auc_learned"] is not None


def test_stage_commands_write_run_all_bytes(tmp_path, config_file):
    run, cli = tmp_path / "run", tmp_path / "cli"
    cli.mkdir()
    assert main(["run-all", "--config", str(config_file), "--out-dir", str(run), "--quiet"]) == 0
    cfg = ["--config", str(config_file), "--quiet"]
    data = ["--data", str(cli / "episodes.txt")]
    split = ["--split", str(cli / "splits.tsv")]
    driver = ["--driver", str(cli / "driver.ckpt")]
    assert main(["gen", *cfg, "--out", str(cli / "episodes.txt")]) == 0
    assert main(["split", *cfg, *data, "--out", str(cli / "splits.tsv")]) == 0
    assert main(["train-driver", *cfg, *data, *split, "--out", str(cli / "driver.ckpt"),
                 "--metrics", str(cli / "driver_metrics.json")]) == 0
    for on in ("D2", "D3"):
        assert main(["label", *cfg, *data, *split, *driver, "--on", on, "--out-dir", str(cli)]) == 0
    assert main(["train-failure", *cfg, *data, *split, *driver,
                 "--labels", str(cli / "labels_D2_middle.csv"),
                 "--out", str(cli / "hazard_middle.ckpt")]) == 0
    assert main(["eval", *cfg, *data, *driver, "--labels", str(cli / "labels_D3_middle.csv"),
                 "--hazard", str(cli / "hazard_middle.ckpt"), "--out", str(cli / "eval_middle.json")]) == 0
    for name in ("episodes.txt", "splits.tsv", "driver.ckpt", "driver_metrics.json",
                 "labels_D2_middle.csv", "labels_D3_middle.csv", "hazard_middle.ckpt",
                 "eval_middle.json"):
        assert (cli / name).read_bytes() == (run / name).read_bytes(), name


@pytest.mark.parametrize(
    "bad_row", [
        "ep0000,xx,0,0,0,0,0.5,20.0,0.4,21.0",
        "ep0000,3,0,0,0,0,0.5,20.0,0.4",
        "ep0000,3,0,0,0,2,0.5,20.0,0.4,21.0",  # g_horizon outside {0, 1}
        "ep0000,3,1,0,0,1,0.5,20.0,0.4,21.0",  # g != g_a | g_s
        "ep0000,3,0,0,0,0,nan,20.0,0.4,21.0",  # non-finite prediction
        "ep0000,2,0,0,0,1,0.5,20.0,0.4,21.0",  # duplicate (episode_id, t)
        "ep0000,1,0,0,0,1,0.5,20.0,0.4,21.0",  # (episode_id, t) out of order
        "ep0000,99999999999999999999,0,0,0,1,0.5,20.0,0.4,21.0",  # t beyond int64
    ]
)
def test_malformed_label_row_exit_code_2(tmp_path, bad_row, capsys):
    labels = tmp_path / "labels.csv"
    good = "ep0000,2,0,0,0,1,0.5,20.0,0.4,21.0"
    labels.write_text(f"{LABELS_FORMAT}\n# m 8\n{LABELS_HEADER}\n{good}\n{bad_row}\n")
    code = main(["eval", "--labels", str(labels), "--scores", f"learned={tmp_path / 's.csv'}",
                 "--out", str(tmp_path / "e.json"), "--quiet"])
    assert code == 2
    assert f"{labels}:5: malformed label row" in capsys.readouterr().err


def test_negative_horizon_exit_code_2(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text(f"{LABELS_FORMAT}\n# split D3\n# t_angle 7.0\n# t_speed 3.0\n# m -1\n{LABELS_HEADER}\n")
    code = main(["eval", "--labels", str(labels), "--scores", f"learned={tmp_path / 's.csv'}",
                 "--out", str(tmp_path / "e.json"), "--quiet"])
    assert code == 2
    assert "lacks a valid split, t_angle, t_speed or m" in capsys.readouterr().err


LABELS_D3 = (f"{LABELS_FORMAT}\n# split D3\n# t_angle 7.0\n# t_speed 3.0\n# m 8\n{LABELS_HEADER}\n"
             "ep0000,2,0,0,0,1,0.5,20.0,0.4,21.0\n")


@pytest.mark.parametrize("kind, text, lineno", [
    ("episodes", f"{EPISODE_FORMAT} d=2 f=4\nep0000,0,10.0,0.0,0.1,0.2\nep0000,1,fast,0.0,0.1,0.2\n", 3),
    ("scores", f"{SCORES_FORMAT}\n# policy learned\n{SCORES_HEADER}\nep0000,2,high\n", 4),
    pytest.param("episodes", f"{EPISODE_FORMAT} d=2 f=4\nep0000,0,10.0,0.0,0.1,0.2\n"
                 "ep0000,2,10.0,0.0,0.1,0.2\n", 3, id="episodes-step-index-not-position"),
    pytest.param("episodes", f"{EPISODE_FORMAT} d=2 f=4\nep0000,0,10.0,0.0,0.1,0.2\n"
                 "ep0001,0,10.0,0.0,0.1,0.2\nep0000,1,10.0,0.0,0.1,0.2\n", 4,
                 id="episodes-id-reappears"),
    pytest.param("episodes", f"{EPISODE_FORMAT} d=2 f=4\nep0000,0,10.0,0.0,0.1,0.2\n"
                 "# comment\nep0000,1,181.0,0.0,0.1,0.2\n", 4, id="episodes-speed-out-of-range"),
    pytest.param("episodes", f"{EPISODE_FORMAT} d=-1 f=4\nep0,0,10.0\n", 1, id="episodes-negative-d"),
    pytest.param("episodes", f"{EPISODE_FORMAT} d=-3 f=4\nep0\n", 1, id="episodes-negative-d-one-field"),
    pytest.param("episodes", f"{EPISODE_FORMAT} d=2 f=10\nep0000,0,10.0,0.0,0.1,0.2\n", 1,
                 id="episodes-other-rate"),
])
def test_malformed_text_field_exit_code_2(tmp_path, kind, text, lineno, capsys):
    bad = tmp_path / f"{kind}.txt"
    bad.write_text(text)
    if kind == "episodes":
        argv = ["split", "--data", str(bad), "--out", str(tmp_path / "splits.tsv")]
    else:
        labels = tmp_path / "labels.csv"
        labels.write_text(LABELS_D3)
        argv = ["eval", "--labels", str(labels), "--scores", f"learned={bad}",
                "--out", str(tmp_path / "e.json")]
    assert main([*argv, "--quiet"]) == 2
    assert f"{bad}:{lineno}: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["interval", "oracle"])
def test_eval_rejects_scores_for_a_policy_it_computes(tmp_path, policy, capsys):
    """A score file that would pass every other check would have its curve replaced."""
    labels, scores = tmp_path / "labels.csv", tmp_path / "scores.csv"
    labels.write_text(LABELS_D3.replace("# m 8\n", "# m 8\n# driver abc\n"))
    scores.write_text(f"{SCORES_FORMAT}\n# policy {policy}\n# driver abc\n{SCORES_HEADER}\nep0000,2,0.5\n")
    code = main(["eval", "--labels", str(labels), "--scores", f"{policy}={scores}",
                 "--out", str(tmp_path / "e.json"), "--quiet"])
    assert code == 2
    assert f"{policy} scores: eval computes the interval and oracle policies itself" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["unknown-id", "no-digest", "other-digest"])
def test_split_manifest_provenance_exit_code_2(tmp_path, config_file, edit, capsys):
    episodes, splits = tmp_path / "episodes.txt", tmp_path / "splits.tsv"
    cfg = ["--config", str(config_file), "--quiet"]
    assert main(["gen", *cfg, "--out", str(episodes)]) == 0
    assert main(["split", *cfg, "--data", str(episodes), "--out", str(splits)]) == 0
    lines = splits.read_text().splitlines(keepends=True)
    digest_line = next(i for i, line in enumerate(lines) if line.startswith("# episodes "))
    if edit == "unknown-id":
        lines.append("ghost\tD1\n")
    else:
        lines[digest_line:digest_line + 1] = ["# episodes " + "0" * 64 + "\n"] if edit == "other-digest" else []
    splits.write_text("".join(lines))
    code = main(["train-driver", *cfg, "--data", str(episodes), "--split", str(splits),
                 "--out", str(tmp_path / "driver.ckpt")])
    assert code == 2
    message = "episode ghost is not in" if edit == "unknown-id" else "splits were made from episodes"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["other-driver", "no-driver"])
def test_labels_from_another_driver_exit_code_2(tmp_path, config_file, edit, capsys):
    out = tmp_path / "run"
    assert main(["run-all", "--config", str(config_file), "--out-dir", str(out), "--quiet"]) == 0
    for split in ("D2", "D3"):
        labels = out / f"labels_{split}_middle.csv"
        lines = labels.read_text().splitlines(keepends=True)
        driver_line = next(i for i, line in enumerate(lines) if line.startswith("# driver "))
        lines[driver_line:driver_line + 1] = ["# driver " + "0" * 64 + "\n"] if edit == "other-driver" else []
        labels.write_text("".join(lines))
    common = ["--config", str(config_file), "--data", str(out / "episodes.txt"),
              "--driver", str(out / "driver.ckpt"), "--quiet"]
    assert main(["train-failure", *common, "--split", str(out / "splits.tsv"),
                 "--labels", str(out / "labels_D2_middle.csv"),
                 "--out", str(tmp_path / "hazard.ckpt")]) == 2
    assert main(["eval", *common, "--labels", str(out / "labels_D3_middle.csv"),
                 "--hazard", str(out / "hazard_middle.ckpt"), "--out", str(tmp_path / "e.json")]) == 2
    assert capsys.readouterr().err.count("labels were made by driver") == 2


@pytest.mark.parametrize("edit", ["other-seed", "no-digest"])
def test_eval_episodes_from_another_run_exit_code_2(tmp_path, config_file, edit, capsys):
    out = tmp_path / "run"
    assert main(["run-all", "--config", str(config_file), "--out-dir", str(out), "--quiet"]) == 0
    episodes, driver = out / "episodes.txt", out / "driver.ckpt"
    if edit == "other-seed":
        other = tmp_path / "other.txt"
        other.write_text(SMALL_CONFIG.replace("seed = 5", "seed = 6"))
        episodes = tmp_path / "episodes.txt"
        assert main(["gen", "--config", str(other), "--out", str(episodes), "--quiet"]) == 0
    else:
        driver = tmp_path / "driver.ckpt"
        driver.write_text("".join(line for line in (out / "driver.ckpt").open() if "prov_episodes" not in line))
        labels = out / "labels_D3_middle.csv"  # made by the edited driver
        labels.write_text(labels.read_text().replace(file_digest(out / "driver.ckpt"), file_digest(driver)))
    code = main(["eval", "--config", str(config_file), "--labels", str(out / "labels_D3_middle.csv"),
                 "--hazard", str(out / "hazard_middle.ckpt"), "--driver", str(driver),
                 "--data", str(episodes), "--out", str(tmp_path / "e.json"), "--quiet"])
    assert code == 2
    recorded = "(not recorded)" if edit == "no-digest" else file_digest(out / "episodes.txt")
    assert f"the driver was trained on episodes {recorded}, not on {episodes}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One run-all of the small config, shared by tests that only read it."""
    out = tmp_path_factory.mktemp("small_run")
    config = out / "config.txt"
    config.write_text(SMALL_CONFIG)
    assert main(["run-all", "--config", str(config), "--out-dir", str(out / "run"), "--quiet"]) == 0
    return out / "run"


@pytest.mark.parametrize("case", ["swapped-policy", "other-driver", "no-driver"])
def test_score_file_provenance_exit_code_2(tmp_path, small_run, case, capsys):
    learned, uncertainty = small_run / "scores_learned_middle.csv", small_run / "scores_uncertainty.csv"
    if case == "swapped-policy":
        learned, uncertainty = uncertainty, learned
    else:
        lines = learned.read_text().splitlines(keepends=True)
        driver_line = next(i for i, line in enumerate(lines) if line.startswith("# driver "))
        lines[driver_line:driver_line + 1] = ["# driver " + "0" * 64 + "\n"] if case == "other-driver" else []
        learned = tmp_path / "scores_learned_middle.csv"
        learned.write_text("".join(lines))
    code = main(["eval", "--config", str(small_run.parent / "config.txt"),
                 "--labels", str(small_run / "labels_D3_middle.csv"),
                 "--scores", f"learned={learned}", "--scores", f"uncertainty={uncertainty}",
                 "--out", str(tmp_path / "e.json"), "--quiet"])
    assert code == 2
    message = "holds uncertainty scores" if case == "swapped-policy" else "learned scores come from driver"
    assert message in capsys.readouterr().err


def test_duplicate_scores_policy_exit_code_2(tmp_path, small_run, capsys):
    # the first of the two files does not exist: keeping the last would never open it
    code = main(["eval", "--config", str(small_run.parent / "config.txt"),
                 "--labels", str(small_run / "labels_D3_middle.csv"),
                 "--scores", f"learned={tmp_path / 'missing.csv'}",
                 "--scores", f"learned={small_run / 'scores_learned_middle.csv'}",
                 "--scores", f"uncertainty={small_run / 'scores_uncertainty.csv'}",
                 "--out", str(tmp_path / "e.json"), "--quiet"])
    assert code == 2
    assert "--scores names policy 'learned' twice" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


def _set_meta(key, value):
    return lambda lines: [f"meta {key} {value}\n" if line.startswith(f"meta {key} ") else line for line in lines]


def _short_obs_mean(lines):
    """``lines`` with the first of the norm_obs_mean values dropped."""
    return ["meta norm_obs_mean " + line.split(",", 1)[1] if line.startswith("meta norm_obs_mean ") else line
            for line in lines]


CHECKPOINT_EDITS = {  # case -> (file, edit of its lines, message after the file name)
    "bad-k": ("driver.ckpt", _set_meta("k", "x"), "meta k: cannot read 'x'"),
    "no-std": ("driver.ckpt", lambda lines: [line for line in lines if not line.startswith("meta norm_std_speed ")],
               "missing meta key 'norm_std_speed'"),
    "hazard-bad-m": ("hazard_middle.ckpt", _set_meta("m", "x"), "meta m: cannot read 'x'"),
    "hazard-other-m": ("hazard_middle.ckpt", _set_meta("m", "4"),
                       "the hazard net was trained at Thresholds(t_angle=7.0, t_speed=3.0), m=4;"),
    "hazard-other-threshold": ("hazard_middle.ckpt", _set_meta("t_angle", "10.0"),
                               "the hazard net was trained at Thresholds(t_angle=10.0, t_speed=3.0), m=8;"),
    "hazard-negative-m": ("hazard_middle.ckpt", _set_meta("m", "-3"), "meta m: must be in [0, inf), got -3"),
    "dropout-nan": ("driver.ckpt", _set_meta("dropout_p", "nan"), "meta dropout_p: must be finite and in [0, 1), got nan"),
    "hazard-dropout-1.5": ("hazard_middle.ckpt", _set_meta("dropout_p", "1.5"),
                           "meta dropout_p: must be finite and in [0, 1), got 1.5"),
    "short-obs-mean": ("driver.ckpt", _short_obs_mean, "meta norm_obs_mean: 15 values, obs_dim is 16"),
    "other-width": ("driver.ckpt", _set_meta("enc_hidden", "63"),
                    "parameter ('enc1.w', (16, 64)) where the arch gives ('enc1.w', (16, 63))"),
    "extra-param": ("driver.ckpt", lambda lines: [*lines[:-1], "param extra.w 2\n", "0.5 -0.5\n", lines[-1]],
                    "parameter ('extra.w', (2,)) where the arch gives (none)"),
    "trained-on-unknown": ("driver.ckpt", _set_meta("trained_on", "D9"),
                           "meta trained_on: 'D9' is not one of D1, D2, D3"),
}


@pytest.mark.parametrize("case", CHECKPOINT_EDITS)
def test_malformed_checkpoint_meta_exit_code_2(tmp_path, small_run, case, capsys):
    name, edit, message = CHECKPOINT_EDITS[case]
    edited = tmp_path / name
    edited.write_text("".join(edit((small_run / name).read_text().splitlines(keepends=True))))
    config, data = str(small_run.parent / "config.txt"), str(small_run / "episodes.txt")
    if name == "driver.ckpt":
        code = main(["label", "--config", config, "--data", data, "--split", str(small_run / "splits.tsv"),
                     "--driver", str(edited), "--on", "D2", "--out-dir", str(tmp_path), "--quiet"])
    else:
        code = main(["eval", "--config", config, "--labels", str(small_run / "labels_D3_middle.csv"),
                     "--hazard", str(edited), "--driver", str(small_run / "driver.ckpt"), "--data", data,
                     "--out", str(tmp_path / "e.json"), "--quiet"])
    assert code == 2
    assert f"{edited}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-failure", "eval"])
def test_label_file_split_outside_its_domain_exit_code_2(tmp_path, small_run, command, capsys):
    split = "D2" if command == "train-failure" else "D3"
    labels = tmp_path / f"labels_{split}_middle.csv"
    text = (small_run / labels.name).read_text()
    labels.write_text(text.replace(f"# split {split}\n", "# split D9\n"))
    common = ["--config", str(small_run.parent / "config.txt"), "--labels", str(labels),
              "--data", str(small_run / "episodes.txt"), "--driver", str(small_run / "driver.ckpt"), "--quiet"]
    if command == "train-failure":
        argv = ["--split", str(small_run / "splits.tsv"), "--out", str(tmp_path / "hazard.ckpt")]
    else:
        argv = ["--hazard", str(small_run / "hazard_middle.ckpt"), "--out", str(tmp_path / "e.json")]
    assert main([command, *common, *argv]) == 2
    err = capsys.readouterr().err
    assert f"{labels}: label file lacks a valid split" in err
    assert "meta split: 'D9' is not one of D1, D2, D3" in err


@pytest.mark.parametrize("command", ["gen", "train-driver", "label", "split", "run-all"])
def test_unusable_path_exit_code_2(tmp_path, small_run, command, capsys):
    """An output in a missing directory, or a directory where a file is
    expected, fails before any stage work and names the path."""
    missing, a_file = tmp_path / "nodir", tmp_path / "file.txt"
    a_file.write_text("")
    inputs = ["--data", str(small_run / "episodes.txt"), "--split", str(small_run / "splits.tsv")]
    argv, path = {
        "gen": (["--out", str(missing / "e.txt")], missing),
        "train-driver": ([*inputs, "--out", str(missing / "d.ckpt")], missing),
        "label": ([*inputs, "--driver", str(small_run / "driver.ckpt"), "--out-dir", str(missing)], missing),
        "split": (["--data", str(tmp_path), "--out", str(tmp_path / "s.tsv")], tmp_path),
        "run-all": (["--out-dir", str(a_file)], a_file),
    }[command]
    code = main([command, "--config", str(small_run.parent / "config.txt"), *argv, "--quiet"])
    assert code == 2
    assert f"drivlab: error: {path}:" in capsys.readouterr().err
