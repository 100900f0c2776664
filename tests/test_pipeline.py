import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from drivlab import core, driver, failure, pipeline
from drivlab.config import PipelineConfig, parse_budgets, parse_kv_file
from drivlab.errors import MissingArtifactError, ValidationError
from drivlab.pipeline import STAGES, art_labels, derived_seed, run_all, run_stage, stage_label


class TestKvFile:
    def test_parses_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\nepisodes = 20  # inline\nseed=3\n")
        assert parse_kv_file(path) == {"episodes": ("20", 3), "seed": ("3", 4)}

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_kv_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            parse_kv_file(tmp_path / "absent.txt")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("just a line\n")
        with pytest.raises(ValidationError, match="key = value"):
            parse_kv_file(path)


class TestBudgets:
    def test_grid(self):
        grid = parse_budgets("0.01:1.0:0.01")
        assert len(grid) == 100
        assert grid[0] == 0.01 and grid[-1] == 1.0
        assert 0.25 in grid

    def test_grid_stops_at_stop(self):
        assert parse_budgets("0.1:0.55:0.3") == [0.1, 0.4]
        assert parse_budgets("0.05:1.0:0.05")[-1] == 1.0

    def test_comma_list(self):
        assert parse_budgets("0.25, 0.5") == [0.25, 0.5]

    def test_rejects_out_of_range(self):
        for bad in ("0:1:0.1", "0.5:2.0:0.1", "1.5", "abc"):
            with pytest.raises(ValidationError):
                parse_budgets(bad)


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.episodes == 1000 and cfg.episode_length == 300
        assert cfg.threshold_names() == ["middle"]

    def test_all_thresholds(self):
        cfg = PipelineConfig(thresholds="all")
        assert cfg.threshold_names() == ["tight", "middle", "loose"]

    def test_episode_length_floor(self):
        with pytest.raises(ValidationError, match="k \\+ m \\+ 1"):
            PipelineConfig(episode_length=10)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("seed = 1\nvelocity = 1\nwarp = 9\n")
        message = f"{path}:2: unknown config keys: velocity, warp"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_file(path)

    def test_domain_ends(self):
        """A closed end belongs to a key's domain, an open end does not."""
        for kwargs in ({"intersection_rate": 100.0}, {"visibility": 0.0}, {"visibility": 1.0},
                       {"base_speed": 180.0}, {"hazard_dropout": 0.0}, {"m": 0}):
            PipelineConfig(**kwargs)
        for kwargs in ({"driver_dropout": 0.0}, {"driver_dropout": 1.0}, {"hazard_dropout": 1.0},
                       {"base_speed": 0.0}, {"driver_lr": 0.0}, {"m": -1}, {"episodes": 2}):
            with pytest.raises(ValidationError, match=f"config key {next(iter(kwargs))}: must be"):
                PipelineConfig(**kwargs)

    def test_readme_config_blocks_load(self, tmp_path):
        """Every ``key = value`` block of the README is a config that loads."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```\n((?:\w+ = .*\n)+)```$", readme, flags=re.MULTILINE)
        assert blocks
        for block in blocks:
            path = tmp_path / "readme.txt"
            path.write_text(block)
            PipelineConfig.from_file(path)


class TestStages:
    def test_unknown_stage(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown stage"):
            run_stage("polish", PipelineConfig(), tmp_path)

    def test_stage_requires_upstream(self, tmp_path):
        with pytest.raises(MissingArtifactError, match="episodes.txt"):
            run_stage("split", PipelineConfig(), tmp_path)


    def test_label_runs_the_driver_once_per_split(self, tmp_path, monkeypatch):
        """At thresholds = all the three label files of a split share one
        driver pass, and each holds the bytes of labelling at its threshold alone."""
        cfg = PipelineConfig(episodes=6, episode_length=40, driver_epochs=1, thresholds="all")
        for name in ("gen", "split", "train-driver"):
            run_stage(name, cfg, tmp_path)
        passes = []
        predict = failure.predict_batch
        monkeypatch.setattr(failure, "predict_batch", lambda net, ws: passes.append(len(ws)) or predict(net, ws))
        assert len(run_stage("label", cfg, tmp_path)) == 6
        assert len(passes) == 2 and min(passes) > 0
        inputs = [tmp_path / name for name in ("episodes.txt", "splits.tsv", "driver.ckpt")]
        for th in cfg.threshold_names():
            alone = tmp_path / th
            alone.mkdir()
            for split in ("D2", "D3"):
                stage_label(dataclasses.replace(cfg, thresholds=th), *inputs, split, alone, {})
                name = art_labels(split, th)
                assert (alone / name).read_bytes() == (tmp_path / name).read_bytes(), name
        assert len(passes) == 2 + 6


    def test_run_all_runs_the_driver_once_per_split(self, tmp_path, monkeypatch):
        """Under run_all, label takes train-driver's D3 predictions from the
        memo; uncached stages predict D3 twice. Both write the same bytes."""
        cfg = PipelineConfig(episodes=12, episode_length=60, seed=5, driver_epochs=1, hazard_epochs=1, mc_samples=3)
        passes = []
        predict = driver.predict_batch
        for module in (driver, failure, pipeline):
            monkeypatch.setattr(module, "predict_batch", lambda net, ws: passes.append(len(ws)) or predict(net, ws),
                                raising=False)
        run_all(cfg, tmp_path / "all")
        assert len(passes) == 2  # D3 in train-driver, D2 in label
        (tmp_path / "staged").mkdir()
        for name in STAGES:
            run_stage(name, cfg, tmp_path / "staged")
        assert len(passes) == 2 + 3
        files = sorted(p.name for p in (tmp_path / "all").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "staged").iterdir())
        for name in files:
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "staged" / name).read_bytes(), name


    def test_validation_reads_the_first_d3_windows_of_the_episodes_they_reach(self, tmp_path, monkeypatch):
        """train-driver validates on D3's first ``VAL_WINDOWS`` windows, made
        from the leading D3 episodes only: the same windows as a cut of all
        of D3's."""
        cfg = PipelineConfig(episodes=12, episode_length=60, seed=5, driver_epochs=1, hazard_epochs=1)
        monkeypatch.setattr(pipeline, "VAL_WINDOWS", 70)  # 56 windows per episode: two of D3's four
        seen = []
        train = pipeline.train_driver
        monkeypatch.setattr(pipeline, "train_driver",
                            lambda *args, val_windows, **kw: seen.append(val_windows) or train(
                                *args, val_windows=val_windows, **kw))
        memo: dict = {}
        for name in ("gen", "split", "train-driver"):
            run_stage(name, cfg, tmp_path, memo)
        (got,) = seen
        d3 = pipeline._split_episodes(memo, tmp_path / "episodes.txt", tmp_path / "splits.tsv", "D3")
        want = core.make_windows(*d3, k=cfg.k)[:70]
        assert len(got) == 70 and got.episode_ids == tuple(e.episode_id for e in d3[:2])
        assert np.array_equal(got.t, want.t) and np.array_equal(got.ep, want.ep)
        for column in ("obs", "speed", "angle"):
            assert np.array_equal(getattr(got, column)[got.end], getattr(want, column)[want.end]), column


class TestDerivedSeed:
    def test_deterministic_and_distinct(self):
        assert derived_seed(0, "gen") == derived_seed(0, "gen")
        assert derived_seed(0, "gen") != derived_seed(0, "split")
        assert derived_seed(0, "gen") != derived_seed(1, "gen")
        assert 0 <= derived_seed(123, "driver") < 2**63
