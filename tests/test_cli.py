"""Command-line driver: subcommands, exit codes, artifact layout."""

import json
import time

import numpy as np
import pytest

import elastic_ssm.cli as cli_module
import elastic_ssm.sweep as sweep_module
from elastic_ssm.cli import main, parse_budget_list
from elastic_ssm.errors import ConfigError


@pytest.fixture()
def cache_dir(tmp_path_factory, monkeypatch):
    """One shared basis cache for the whole CLI suite (basis builds are the
    slow part and are content-addressed)."""
    path = tmp_path_factory.getbasetemp() / "cli-basis-cache"
    path.mkdir(exist_ok=True)
    monkeypatch.setenv("ESSM_CACHE_DIR", str(path))
    return path


def run_doc(**kw):
    doc = {
        "model": {
            "seq_len": 16, "width": 8, "gate_hidden": 8, "capacity": 4,
            "budget_set": [2, 3, 4], "input_kind": "tokens", "vocab_size": 6,
            "out_dim": 6, "depth": 1, "seed": 5,
        },
        "train": {
            "steps": 30, "batch_size": 8, "lr": 0.003, "eval_every": 30,
            "checkpoint_every": 0, "seed": 6,
        },
        "task": {
            "kind": "copy", "n_symbols": 5, "delay": 1, "n_samples": 64,
            "seed": 7,
        },
        "paths": {"out_dir": "unset"},
    }
    for section, overrides in kw.items():
        doc[section].update(overrides)
    return doc


def write_config(tmp_path, name="run.json", **kw):
    doc = run_doc(**kw)
    doc["paths"]["out_dir"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path, doc


class TestParseBudgetList:
    def test_basic(self):
        assert parse_budget_list("2,3,4", 4) == (2, 3, 4)
        assert parse_budget_list(" 2, 8 ,32 ", 32) == (2, 8, 32)

    def test_default_when_no_list_given(self):
        assert parse_budget_list(None, 8) is None
        assert parse_budget_list(None, 8, (2, 8)) == (2, 8)

    def test_budget_one_rejected_citing_exclusion(self):
        with pytest.raises(ConfigError, match="excluded"):
            parse_budget_list("1,2,4", 4)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError, match="integers"):
            parse_budget_list("2,three,4", 4)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_budget_list(" , ", 4)

    def test_below_two_rejected(self):
        with pytest.raises(ConfigError, match=r"budgets \[0\] outside \[2, capacity=4\]"):
            parse_budget_list("0,4", 4)

    def test_above_capacity_rejected(self):
        with pytest.raises(ConfigError, match=r"budgets \[9\] outside \[2, capacity=8\]"):
            parse_budget_list("2,8,9", 8)


class TestBasisCommand:
    def test_build_then_cache_hit(self, cache_dir, capsys):
        assert main(["basis", "--seq-len", "32", "--capacity", "4"]) == 0
        out = capsys.readouterr().out
        assert "built" in out
        assert "sigma_1=" in out and "decay_ratio=" in out
        assert main(["basis", "--seq-len", "32", "--capacity", "4"]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_capacity_beyond_length_exits_two(self, cache_dir, capsys):
        assert main(["basis", "--seq-len", "32", "--capacity", "300"]) == 2
        assert "capacity" in capsys.readouterr().err

    def test_failed_eigensolve_exits_four(self, cache_dir, monkeypatch, capsys):
        def no_convergence(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert main(["basis", "--seq-len", "16", "--capacity", "2"]) == 4
        assert "did not converge" in capsys.readouterr().err

    def test_unwritable_destination_exits_three(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        code = main(["basis", "--seq-len", "16", "--capacity", "2",
                     "--out", str(blocker / "cache")])
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestTrainCommand:
    def test_smoke_run_writes_artifacts(self, cache_dir, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "checkpoint.essm").exists()
        assert (out_dir / "train_log.jsonl").exists()
        resolved = json.loads((out_dir / "config.json").read_text())
        assert resolved["train"]["steps"] == 30
        stdout = capsys.readouterr().out
        assert "finished at step 30/30" in stdout
        assert "accuracy=" in stdout

    def test_flag_overrides_beat_config(self, cache_dir, tmp_path):
        config, _ = write_config(tmp_path)
        out = tmp_path / "other"
        assert main(["train", "--config", str(config), "--steps", "10",
                     "--lr", "0.001", "--out", str(out)]) == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["train"]["steps"] == 10
        assert resolved["train"]["lr"] == 0.001

    def test_root_seed_splits_subsystems(self, cache_dir, tmp_path):
        config, _ = write_config(tmp_path)
        out = tmp_path / "seeded"
        assert main(["train", "--config", str(config), "--steps", "5",
                     "--seed", "99", "--out", str(out)]) == 0
        resolved = json.loads((out / "config.json").read_text())
        seeds = {resolved["model"]["seed"], resolved["task"]["seed"],
                 resolved["train"]["seed"]}
        assert len(seeds) == 3  # three independent subsystem seeds

    def test_deterministic_given_config_and_seed(self, cache_dir, tmp_path):
        config, _ = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--config", str(config), "--steps", "15",
                         "--seed", "3", "--out", str(out)]) == 0
        assert (a / "checkpoint.essm").read_bytes() == \
               (b / "checkpoint.essm").read_bytes()

    def test_resume_reproduces_uninterrupted_run(self, cache_dir, tmp_path):
        config, _ = write_config(tmp_path)
        straight = tmp_path / "straight"
        paused = tmp_path / "paused"
        assert main(["train", "--config", str(config),
                     "--out", str(straight)]) == 0
        assert main(["train", "--config", str(config), "--out", str(paused),
                     "--stop-after", "13"]) == 0
        assert main(["train", "--config", str(config), "--out", str(paused),
                     "--resume", str(paused / "checkpoint.essm")]) == 0
        assert (straight / "checkpoint.essm").read_bytes() == \
               (paused / "checkpoint.essm").read_bytes()

    def test_unknown_config_key_exits_two_naming_it(self, tmp_path, capsys):
        config, doc = write_config(tmp_path)
        doc["train"]["learning_rate"] = 0.1  # wrong name
        config.write_text(json.dumps(doc))
        assert main(["train", "--config", str(config)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("decay_inactive", True), ("sampler_mode", "uniform-over-range"),
    ])
    def test_removed_key_with_another_value_exits_two_naming_it(
            self, tmp_path, capsys, key, value):
        config, _ = write_config(tmp_path, train={key: value})
        assert main(["train", "--config", str(config)]) == 2
        assert f"{key} supports only" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad)]) == 2
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergent_lr_exits_four_with_logged_skips(self, cache_dir,
                                                       tmp_path, capsys):
        config, _ = write_config(tmp_path)
        out = tmp_path / "diverged"
        code = main(["train", "--config", str(config), "--lr", "1e9",
                     "--out", str(out)])
        assert code == 4
        assert "skipped" in capsys.readouterr().err
        log = [json.loads(line) for line in
               (out / "train_log.jsonl").read_text().splitlines()]
        assert log[-1]["aborted"] is True
        assert log[-1]["skipped"] >= 1


class TestSweepCommand:
    @pytest.fixture()
    def trained(self, cache_dir, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        return tmp_path / "out" / "checkpoint.essm"

    def test_sweep_writes_reports(self, trained, capsys):
        assert main(["sweep", "--checkpoint", str(trained)]) == 0
        out_dir = trained.parent
        doc = json.loads((out_dir / "sweep.json").read_text())
        assert doc["budgets"] == [2, 3, 4]
        assert doc["retention"][-1] == 1.0
        assert set(doc) == {"budgets", "metric", "metric_name", "retention",
                            "orientation", "sweet_spot", "collapse_boundary",
                            "full_metric", "flags"}
        csv = (out_dir / "sweep.csv").read_text().splitlines()
        assert csv[0] == "budget,metric,retention"
        assert len(csv) == 4
        assert not (out_dir / "sweep.tsv").exists()
        stdout = capsys.readouterr().out
        assert "sweet_spot=" in stdout
        # training run's own resolved config survives the sweep
        assert (out_dir / "config.json").exists()
        assert (out_dir / "sweep_config.json").exists()

    def test_budget_one_exits_two(self, trained, capsys):
        code = main(["sweep", "--checkpoint", str(trained),
                     "--budgets", "1,2,4"])
        assert code == 2
        assert "excluded" in capsys.readouterr().err

    def test_budget_above_capacity_exits_two_before_any_evaluation(
            self, trained, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(sweep_module, "evaluate_model",
                            lambda *a, **kw: calls.append(kw.get("budget")))
        code = main(["sweep", "--checkpoint", str(trained),
                     "--budgets", "2,4,5"])
        assert code == 2
        assert "budgets [5] outside [2, capacity=4]" in capsys.readouterr().err
        assert calls == []

    def test_undefined_retention_exits_four_and_writes_no_report(
            self, trained, capsys, monkeypatch):
        monkeypatch.setattr(
            sweep_module, "evaluate_model",
            lambda *a, budget, **kw: {"metric": 0.5 if budget == 2 else 0.0,
                                      "metric_name": "accuracy", "higher_better": True})
        assert main(["sweep", "--checkpoint", str(trained)]) == 4
        assert "retention at K=2 is undefined: accuracy" in capsys.readouterr().err
        assert not (trained.parent / "sweep.json").exists()

    @pytest.mark.parametrize("bad_budget", [4, 2])  # full capacity, and below it
    def test_non_finite_metric_exits_four_and_writes_no_report(
            self, trained, capsys, monkeypatch, bad_budget):
        monkeypatch.setattr(
            sweep_module, "evaluate_model",
            lambda *a, budget, **kw: {"metric": np.nan if budget == bad_budget else 0.5,
                                      "metric_name": "accuracy", "higher_better": True})
        assert main(["sweep", "--checkpoint", str(trained)]) == 4
        assert f"accuracy is not finite at K={bad_budget} (nan)" in capsys.readouterr().err
        assert not any((trained.parent / name).exists()
                       for name in ("sweep.json", "sweep.csv", "sweep_config.json"))

    def test_run_directory_with_removed_train_keys_sweeps(self, trained):
        # the config.json as `essm train` wrote it while TrainConfig still had
        # sampler_mode and decay_inactive
        config = trained.parent / "config.json"
        doc = json.loads(config.read_text())
        doc["train"].update(sampler_mode="uniform-over-budget-set", decay_inactive=False)
        config.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="removed key") as record:
            assert main(["sweep", "--checkpoint", str(trained)]) == 0
        assert len(record) == 2
        assert (trained.parent / "sweep.json").exists()

    def test_budgets_without_capacity_exit_two(self, trained, capsys):
        code = main(["sweep", "--checkpoint", str(trained),
                     "--budgets", "2,3"])
        assert code == 2
        assert "capacity" in capsys.readouterr().err

    def test_missing_checkpoint_exits_three(self, tmp_path, capsys):
        code = main(["sweep", "--checkpoint", str(tmp_path / "ghost.essm")])
        assert code == 3

    def test_corrupt_checkpoint_exits_three(self, trained, capsys):
        raw = bytearray(trained.read_bytes())
        raw[50] ^= 0xFF  # inside the model container, not the optimizer tail
        bad = trained.parent / "corrupt.essm"
        bad.write_bytes(bytes(raw))
        assert main(["sweep", "--checkpoint", str(bad)]) == 3

    def test_invalid_stored_config_exits_three(self, trained, capsys):
        bad = trained.parent / "float6x.essm"
        bad.write_bytes(trained.read_bytes().replace(b'"float64"', b'"float6x"', 1))
        assert main(["sweep", "--checkpoint", str(bad)]) == 3
        assert "precision" in capsys.readouterr().err

    def test_sibling_config_mismatch_exits_three(self, trained, tmp_path,
                                                 capsys):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "checkpoint.essm").write_bytes(trained.read_bytes())
        doc = run_doc(model={"width": 16, "gate_hidden": 16})
        (elsewhere / "config.json").write_text(json.dumps(doc))
        code = main(["sweep",
                     "--checkpoint", str(elsewhere / "checkpoint.essm")])
        assert code == 3
        assert "disagrees" in capsys.readouterr().err

    def test_no_task_context_exits_two(self, trained, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "checkpoint.essm").write_bytes(trained.read_bytes())
        code = main(["sweep", "--checkpoint", str(bare / "checkpoint.essm")])
        assert code == 2
        assert "--config" in capsys.readouterr().err

    def test_untrained_checkpoint_still_sweeps(self, cache_dir, tmp_path):
        config, _ = write_config(tmp_path)
        out = tmp_path / "fresh"
        # zero steps of training is impossible (steps >= 1), so approximate
        # "untrained" with a single tiny step
        assert main(["train", "--config", str(config), "--steps", "1",
                     "--lr", "1e-9", "--out", str(out)]) == 0
        assert main(["sweep",
                     "--checkpoint", str(out / "checkpoint.essm")]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert len(doc["metric"]) == 3


class TestGradcheckCommand:
    def test_tiny_default_passes(self, cache_dir, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 2  # budgets 2 and capacity
        doc = json.loads((tmp_path / "gradcheck.json").read_text())
        assert [row["budget"] for row in doc["results"]] == [2, 6]
        assert all(row["passed"] for row in doc["results"])

    def test_explicit_budgets(self, cache_dir, capsys):
        assert main(["gradcheck", "--budgets", "3,4"]) == 0
        assert "K=3" in capsys.readouterr().out

    def test_budget_above_capacity_exits_two_before_any_check(
            self, cache_dir, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_module, "finite_diff_check",
                            lambda *a, **kw: calls.append(a))
        assert main(["gradcheck", "--budgets", "2,7"]) == 2
        assert "budgets [7] outside [2, capacity=6]" in capsys.readouterr().err
        assert calls == []

    def test_unattainable_tolerance_exits_five(self, cache_dir, capsys):
        code = main(["gradcheck", "--step", "0.05", "--tolerance", "1e-12"])
        assert code == 5
        assert "FAIL" in capsys.readouterr().out


class TestAuditCommand:
    def test_random_initialization_passes(self, cache_dir, capsys):
        assert main(["audit", "--trials", "20"]) == 0
        stdout = capsys.readouterr().out
        assert "zero violations" in stdout

    def test_trained_checkpoint_passes_with_report(self, cache_dir, tmp_path,
                                                   capsys):
        config, _ = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        ck = tmp_path / "out" / "checkpoint.essm"
        assert main(["audit", "--checkpoint", str(ck), "--trials", "20",
                     "--out", str(tmp_path / "audit")]) == 0
        doc = json.loads((tmp_path / "audit" / "audit.json").read_text())
        assert doc["passed"] is True
        assert doc["blocks"][0]["violations"] == []


class TestAblateCommand:
    def test_emits_five_variant_table(self, cache_dir, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert main(["ablate", "--config", str(config)]) == 0
        out_dir = tmp_path / "out"
        doc = json.loads((out_dir / "ablation.json").read_text())
        assert set(doc["table"]) == {
            "es-ssm", "base-spectral", "gate-only", "dropout-only",
            "es-ssm@direct",
        }
        assert len(doc["variants"]) == 4  # trained variants; fifth is a re-read
        assert doc["variants"][0] == {"name": "es-ssm", "gate_enabled": True,
                                      "budget_dropout": True,
                                      "truncation_mode": "masked"}
        for name in ("es-ssm", "base-spectral", "gate-only", "dropout-only"):
            assert (out_dir / f"{name}.essm").exists()
            assert (out_dir / f"{name}.csv").exists()
        assert (out_dir / "config.json").exists()
        stdout = capsys.readouterr().out
        assert stdout.count("accuracy") == 5


class TestFlopsCommand:
    def test_default_grid(self, capsys, tmp_path):
        report = tmp_path / "flops.json"
        assert main(["flops", "--seq-len", "64", "--width", "16",
                     "--gate-hidden", "16", "--capacity", "32",
                     "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["budgets"] == [2, 3, 4, 6, 8, 12, 16, 24, 32]
        assert doc["training_cost_ratio"] == 9.0
        assert doc["expected_budget"] == pytest.approx(107 / 9)
        base, unit = doc["budget_independent"], doc["per_budget_unit"]
        for k in doc["budgets"]:
            assert doc["flops"][str(k)] == base + k * unit
        assert "affine" in capsys.readouterr().out

    def test_default_geometry_report_is_frozen(self, tmp_path):
        # the reference geometry's table, recorded when flops still parsed
        # --depth, --seed and --cache-dir: dropping them changes no number
        report = tmp_path / "flops.json"
        assert main(["flops", "--out", str(report)]) == 0
        base, unit = 145227776, 69731328
        budgets = [2, 3, 4, 6, 8, 12, 16, 24, 32]
        assert json.loads(report.read_text()) == {
            "seq_len": 1024, "width": 256, "gate_hidden": 256, "capacity": 32,
            "batch": 1, "budgets": budgets,
            "flops": {str(k): base + k * unit for k in budgets},
            "budget_independent": base, "per_budget_unit": unit,
            "expected_budget": 107 / 9, "training_cost_ratio": 9.0,
        }

    @pytest.mark.parametrize("flag", [
        ["--depth", "2"], ["--seed", "1"], ["--cache-dir", "x"],
    ])
    def test_flags_it_never_read_are_gone(self, flag):
        # a per-layer count needs no depth, seed or basis
        with pytest.raises(SystemExit) as exc:
            main(["flops", *flag])
        assert exc.value.code == 2

    def test_budget_above_capacity_exits_two(self, capsys):
        code = main(["flops", "--seq-len", "64", "--width", "16",
                     "--gate-hidden", "16", "--capacity", "8",
                     "--budgets", "2,16"])
        assert code == 2
        assert "capacity" in capsys.readouterr().err

    def test_budget_one_exits_two(self, capsys):
        code = main(["flops", "--seq-len", "64", "--width", "16",
                     "--gate-hidden", "16", "--capacity", "8",
                     "--budgets", "1,8"])
        assert code == 2


class TestSmokeRecipe:
    def test_reference_smoke_config_under_five_minutes(self, cache_dir,
                                                       tmp_path, capsys):
        """The documented smoke recipe: L=64, width=32, depth=2, 300 steps
        on the copy task, well under the five-minute budget."""
        doc = run_doc(
            model={"seq_len": 64, "width": 32, "gate_hidden": 16,
                   "capacity": 8, "budget_set": [2, 3, 4, 6, 8],
                   "vocab_size": 9, "out_dim": 9, "depth": 2},
            train={"steps": 300, "batch_size": 16, "lr": 0.004,
                   "eval_every": 100},
            task={"n_symbols": 8, "delay": 2, "n_samples": 128},
        )
        doc["paths"]["out_dir"] = str(tmp_path / "smoke")
        config = tmp_path / "smoke.json"
        config.write_text(json.dumps(doc))
        started = time.monotonic()
        assert main(["train", "--config", str(config)]) == 0
        elapsed = time.monotonic() - started
        assert elapsed < 300.0
        assert main(["sweep",
                     "--checkpoint", str(tmp_path / "smoke" / "checkpoint.essm"),
                     ]) == 0
        report = json.loads((tmp_path / "smoke" / "sweep.json").read_text())
        # a genuinely trained model: full capacity beats the smallest budget
        assert report["metric"][-1] > report["metric"][0]
