"""Budget sweeps, retention landmarks, stability audit, FLOP accounting."""

import dataclasses
import math

import numpy as np
import pytest

from elastic_ssm.basis import build_basis
from elastic_ssm.config import ModelConfig, RunConfig, TaskSpec, TrainConfig
from elastic_ssm.errors import ConfigError, StructuralError
from elastic_ssm.layer import layer_flop_count, layer_forward
from elastic_ssm.model import init_model_params, params_fingerprint
from elastic_ssm.sweep import (
    COLLAPSE_RETENTION,
    DEFAULT_VARIANTS,
    SWEET_SPOT_RETENTION,
    SweepReport,
    VariantSpec,
    bibo_audit,
    bibo_constant,
    budget_sweep,
    find_collapse_boundary,
    find_sweet_spot,
    flop_estimate,
    model_bibo_audit,
    run_ablation,
    training_cost_ratio,
    variant_run,
)
from elastic_ssm.tasks import build_dataset
from elastic_ssm.training import run_training

from oracles import jacobi_singular_values


def small_config(**kw):
    base = dict(
        seq_len=16, width=8, gate_hidden=8, capacity=4, budget_set=(2, 3, 4),
        input_kind="tokens", vocab_size=6, out_dim=6, depth=1,
    )
    base.update(kw)
    return ModelConfig(**base)


def copy_task(**kw):
    base = dict(kind="copy", n_symbols=5, delay=1, n_samples=96, seed=11)
    base.update(kw)
    return TaskSpec(**base)


@pytest.fixture(scope="module")
def copy_setup():
    cfg = small_config()
    basis = build_basis(cfg.seq_len, cfg.capacity)
    dataset = build_dataset(copy_task(), cfg)
    return cfg, basis, dataset


@pytest.fixture(scope="module")
def trained_copy():
    """A genuinely trained small copy model (shared: training is the slow part)."""
    cfg = small_config()
    train = TrainConfig(steps=400, batch_size=16, lr=5e-3, eval_every=200,
                        checkpoint_every=0, seed=3)
    run = RunConfig(model=cfg, train=train, task=copy_task(n_samples=128))
    result = run_training(run)
    return run, result


def constant_prediction_params(cfg):
    """Every weight zeroed except the readout bias: output ignores the input."""
    params = init_model_params(cfg)
    if params.embed_table is not None:
        params.embed_table[:] = 0.0
    else:
        params.embed_w[:] = 0.0
        params.embed_b[:] = 0.0
    for block in params.blocks:
        block.norm_gain[:] = 0.0
        block.norm_bias[:] = 0.0
        block.layer.mixing[:] = 0.0
        block.layer.skip[:] = 0.0
        block.layer.gate.w_in[:] = 0.0
        block.layer.gate.b_in[:] = 0.0
        block.layer.gate.w_out[:] = 0.0
        block.layer.gate.b_out[:] = 0.0
    params.final_gain[:] = 0.0
    params.final_bias[:] = 0.0
    params.readout_w[:] = 0.0
    params.readout_b[:] = np.arange(cfg.out_dim, dtype=np.float64)
    return params


def report_with_retention(budgets, retention):
    """A synthetic report for exercising the threshold scanners directly."""
    retention = tuple(float(r) for r in retention)
    budgets = tuple(int(k) for k in budgets)
    return SweepReport(
        budgets=budgets,
        metric=retention,  # values unused by the scanners
        metric_name="accuracy",
        orientation="higher-better",
        retention=retention,
        full_metric=retention[-1],
        sweet_spot=0,
        collapse_boundary=0,
        non_monotone=any(b < a for a, b in zip(retention, retention[1:])),
    )


class TestBudgetSweep:
    def test_constant_prediction_identical_metric_everywhere(self, copy_setup):
        cfg, basis, dataset = copy_setup
        params = constant_prediction_params(cfg)
        report = budget_sweep(params, cfg, basis, dataset)
        assert len(set(report.metric)) == 1
        assert report.retention == (1.0, 1.0, 1.0)
        assert report.sweet_spot == min(report.budgets)
        assert report.collapse_boundary == min(report.budgets)
        assert not report.non_monotone

    def test_retention_at_capacity_exactly_one(self, copy_setup):
        cfg, basis, dataset = copy_setup
        report = budget_sweep(init_model_params(cfg), cfg, basis, dataset)
        assert report.retention[-1] == 1.0
        assert report.budgets[-1] == cfg.capacity
        assert report.full_metric == report.metric[-1]

    def test_trained_model_full_budget_at_least_smallest(self, trained_copy):
        run, result = trained_copy
        report = budget_sweep(
            result["params"], run.model, result["basis"], result["dataset"],
        )
        assert report.orientation == "higher-better"
        # orientation-aware: full capacity within 1% of (expected above) K=2
        assert report.metric[-1] >= report.metric[0] * 0.99

    def test_missing_capacity_rejected(self, copy_setup):
        cfg, basis, dataset = copy_setup
        params = init_model_params(cfg)
        with pytest.raises(ConfigError, match="retention"):
            budget_sweep(params, cfg, basis, dataset, budgets=(2, 3))

    def test_duplicate_budgets_rejected(self, copy_setup):
        cfg, basis, dataset = copy_setup
        params = init_model_params(cfg)
        with pytest.raises(ConfigError, match="duplicate"):
            budget_sweep(params, cfg, basis, dataset, budgets=(2, 2, 4))

    def test_sweep_never_mutates_the_checkpoint(self, copy_setup):
        cfg, basis, dataset = copy_setup
        params = init_model_params(cfg)
        before = params_fingerprint(params, cfg)
        budget_sweep(params, cfg, basis, dataset)
        assert params_fingerprint(params, cfg) == before

    def test_budgets_default_to_config_budget_set(self, copy_setup):
        cfg, basis, dataset = copy_setup
        report = budget_sweep(init_model_params(cfg), cfg, basis, dataset)
        assert report.budgets == cfg.budget_set

    def test_lower_better_orientation_from_dataset(self):
        cfg = small_config(input_kind="real", in_dim=3, out_dim=3,
                           vocab_size=None)
        basis = build_basis(cfg.seq_len, cfg.capacity)
        task = TaskSpec(kind="lds-regression", state_dim=4, data_dim=3,
                        n_samples=48, seed=5)
        dataset = build_dataset(task, cfg)
        report = budget_sweep(init_model_params(cfg), cfg, basis, dataset)
        assert report.orientation == "lower-better"
        assert report.metric_name == "mse"
        # lower-better retention: full/metric, so anything worse than full
        # capacity sits at or below 1
        for m, r in zip(report.metric, report.retention):
            if m == report.full_metric:
                assert r == 1.0
            else:
                assert r == report.full_metric / m

    def test_report_serializations(self, copy_setup):
        cfg, basis, dataset = copy_setup
        report = budget_sweep(init_model_params(cfg), cfg, basis, dataset)
        doc = report.to_json_dict()
        assert set(doc) == {
            "budgets", "metric", "metric_name", "retention", "orientation",
            "sweet_spot", "collapse_boundary", "full_metric", "flags",
        }
        assert doc["budgets"] == list(cfg.budget_set)
        assert doc["flags"] == []
        csv = report.to_csv().splitlines()
        assert csv[0] == "budget,metric,retention"
        assert len(csv) == 1 + len(cfg.budget_set)
        assert csv[1].startswith("2,")
        tsv = report.to_tsv().splitlines()
        assert tsv[0] == "budget\tmetric"
        assert len(tsv) == 1 + len(cfg.budget_set)
        for line in tsv[1:]:
            k, m = line.split("\t")
            float(m), int(k)  # parseable plot data


class TestThresholdScanners:
    def test_worked_example(self):
        report = report_with_retention((2, 4, 8, 32), (0.5, 0.97, 0.985, 1.0))
        assert find_sweet_spot(report) == 8
        assert find_collapse_boundary(report) == 4

    def test_all_retentions_one_gives_min_budget(self):
        report = report_with_retention((2, 4, 8, 32), (1.0, 1.0, 1.0, 1.0))
        assert find_sweet_spot(report) == 2
        assert find_collapse_boundary(report) == 2

    def test_capacity_always_qualifies(self):
        report = report_with_retention((2, 4, 32), (0.1, 0.2, 1.0))
        assert find_sweet_spot(report) == 32
        assert find_collapse_boundary(report) == 32

    def test_non_monotone_returns_first_qualifying_and_flags(self):
        report = report_with_retention((2, 4, 32), (0.99, 0.95, 1.0))
        assert report.non_monotone
        assert find_sweet_spot(report) == 2  # smallest qualifying, not smoothed
        assert find_collapse_boundary(report) == 2
        assert report.to_json_dict()["flags"] == ["non-monotone"]

    def test_custom_threshold(self):
        report = report_with_retention((2, 4, 8), (0.5, 0.8, 1.0))
        assert find_sweet_spot(report, threshold=0.75) == 4
        assert find_collapse_boundary(report, threshold=0.4) == 2

    def test_collapse_never_above_sweet_spot(self):
        rng = np.random.default_rng(0)
        budgets = (2, 3, 4, 6, 8)
        for _ in range(50):
            retention = np.concatenate([rng.uniform(0.3, 1.1, size=4), [1.0]])
            report = report_with_retention(budgets, retention)
            assert find_collapse_boundary(report) <= find_sweet_spot(report)

    def test_thresholds_match_module_constants(self):
        assert SWEET_SPOT_RETENTION == 0.98
        assert COLLAPSE_RETENTION == 0.90


class TestBiboAudit:
    def test_skip_only_bound_is_skip_operator_norm(self):
        cfg = small_config()
        basis = build_basis(cfg.seq_len, cfg.capacity)
        p = init_model_params(cfg).blocks[0].layer
        p.mixing[:] = 0.0
        p.skip[:] = np.random.default_rng(1).normal(size=p.skip.shape)
        terms = bibo_constant(p, basis)
        assert terms["conv_term"] == 0.0
        svals = np.linalg.svd(p.skip, compute_uv=False)
        assert terms["constant"] == pytest.approx(svals[0], rel=1e-9)

    def test_operator_norms_match_jacobi_oracle(self):
        """Skip and per-channel terms use exact largest singular values."""
        cfg = small_config()
        basis = build_basis(cfg.seq_len, cfg.capacity)
        p = init_model_params(cfg).blocks[0].layer
        rng = np.random.default_rng(9)
        p.skip[:] = rng.normal(size=p.skip.shape)
        p.mixing[:] = rng.normal(size=p.mixing.shape)
        terms = bibo_constant(p, basis)
        np.testing.assert_allclose(
            terms["skip_term"], jacobi_singular_values(p.skip)[0], rtol=1e-10
        )
        for k, term in enumerate(terms["per_channel"]):
            expected = (basis.eigenvalues[k] ** 0.25
                        * jacobi_singular_values(p.mixing[k])[0]
                        * np.sum(np.abs(basis.filters[k])))
            np.testing.assert_allclose(term, expected, rtol=1e-10)

    def test_skip_only_equality_achievable(self):
        """With no spectral branch, a top-singular-vector input hits the bound."""
        cfg = small_config()
        basis = build_basis(cfg.seq_len, cfg.capacity)
        p = init_model_params(cfg).blocks[0].layer
        p.mixing[:] = 0.0
        p.skip[:] = np.random.default_rng(2).normal(size=p.skip.shape)
        _, s, vt = np.linalg.svd(p.skip)
        u = np.zeros((cfg.seq_len, cfg.width))
        u[3] = vt[0]  # unit input aligned with the top singular direction
        out, _ = layer_forward(u, p, basis, cfg.capacity, gate_enabled=True)
        assert np.linalg.norm(out[3]) == pytest.approx(s[0], rel=1e-9)
        report = bibo_audit(p, basis, n_trials=10, seed=4)
        assert report["passed"]

    def test_random_params_hundred_trials_no_violations(self):
        cfg = small_config(seq_len=32, capacity=8, budget_set=(2, 4, 8))
        basis = build_basis(cfg.seq_len, cfg.capacity)
        p = init_model_params(cfg).blocks[0].layer
        report = bibo_audit(p, basis, n_trials=100, seed=7)
        assert report["budgets"] == list(range(2, 9))
        assert report["n_trials"] == 100
        assert report["violations"] == []
        assert report["passed"]
        assert 0.0 < report["max_ratio"] <= 1.0 + 1e-9
        assert report["constant"] == pytest.approx(
            report["skip_term"] + report["conv_term"]
        )

    def test_audit_respects_input_bound(self):
        cfg = small_config()
        basis = build_basis(cfg.seq_len, cfg.capacity)
        p = init_model_params(cfg).blocks[0].layer
        small = bibo_audit(p, basis, n_trials=20, input_bound=0.5, seed=9)
        large = bibo_audit(p, basis, n_trials=20, input_bound=50.0, seed=9)
        assert small["passed"] and large["passed"]
        # the layer map is linear at fixed weights, but the gate re-weights;
        # the audited ratio still stays under 1 at every scale
        assert large["max_ratio"] <= 1.0 + 1e-9

    def test_homogeneity_with_gate_frozen(self):
        """With the gate off (fixed unit weights) the layer map is linear,
        so scaling the input scales output and bound by the same factor."""
        cfg = small_config()
        basis = build_basis(cfg.seq_len, cfg.capacity)
        p = init_model_params(cfg).blocks[0].layer
        rng = np.random.default_rng(12)
        u = rng.normal(size=(cfg.seq_len, cfg.width))
        c = 3.7
        out, _ = layer_forward(u, p, basis, 3, gate_enabled=False,
                               truncation="direct")
        scaled, _ = layer_forward(c * u, p, basis, 3, gate_enabled=False,
                                  truncation="direct")
        np.testing.assert_allclose(scaled, c * out, rtol=1e-12, atol=1e-12)
        sup = float(np.max(np.linalg.norm(u, axis=1)))
        assert float(np.max(np.linalg.norm(c * u, axis=1))) == pytest.approx(
            c * sup, rel=1e-12
        )

    def test_violation_reporting_carries_a_witness(self):
        cfg = small_config()
        basis = build_basis(cfg.seq_len, cfg.capacity)
        p = init_model_params(cfg).blocks[0].layer
        # an absurd negative slack turns every finite output into a "violation",
        # exercising the witness plumbing without faking the math
        report = bibo_audit(p, basis, n_trials=2, seed=3, rel_slack=-0.9999)
        assert not report["passed"]
        witness = report["violations"][0]
        assert set(witness) == {"trial", "budget", "t", "output_norm",
                                "bound", "ratio"}
        assert witness["ratio"] > 1.0 - 0.9999

    def test_direct_prefix_truncation_also_bounded(self):
        cfg = small_config()
        basis = build_basis(cfg.seq_len, cfg.capacity)
        p = init_model_params(cfg).blocks[0].layer
        report = bibo_audit(p, basis, n_trials=30, seed=5, truncation="direct")
        assert report["passed"]

    def test_model_audit_covers_every_block(self):
        cfg = small_config(depth=2)
        basis = build_basis(cfg.seq_len, cfg.capacity)
        params = init_model_params(cfg)
        report = model_bibo_audit(params, cfg, basis, n_trials=10)
        assert [b["block"] for b in report["blocks"]] == [0, 1]
        assert report["passed"]
        assert report["max_ratio"] == max(b["max_ratio"] for b in report["blocks"])

    def test_trained_checkpoint_no_violations(self, trained_copy):
        run, result = trained_copy
        basis = result["basis"]
        report = model_bibo_audit(result["params"], run.model, basis,
                                  n_trials=25)
        assert report["passed"], report


class TestFlopAccounting:
    CFG = dict(seq_len=64, width=16, gate_hidden=16, capacity=32)

    def flop(self, budget, batch=1):
        return layer_flop_count(budget=budget, batch=batch, **self.CFG)

    def test_doubling_budget_less_than_doubles_total(self):
        lo, hi = self.flop(16), self.flop(32)
        assert 1.0 < hi / lo < 2.0

    def test_budget_linear_terms_scale_exactly(self):
        base = self.flop(0)
        assert (self.flop(32) - base) == 2 * (self.flop(16) - base)

    def test_exactly_affine_over_the_budget_grid(self):
        slope = self.flop(3) - self.flop(2)
        for k in (2, 3, 4, 6, 8, 12, 16, 24, 32):
            assert self.flop(k) == self.flop(2) + (k - 2) * slope

    def test_budget_zero_keeps_only_budget_independent_terms(self):
        L, d, dg, cap = (self.CFG["seq_len"], self.CFG["width"],
                         self.CFG["gate_hidden"], self.CFG["capacity"])
        expected = d * L * int(math.log2(L)) + L * (d * d + dg * d + cap * dg)
        assert self.flop(0) == expected

    def test_batch_scales_linearly(self):
        assert self.flop(8, batch=4) == 4 * self.flop(8)

    def test_flop_estimate_wraps_model_config(self):
        cfg = small_config()
        assert flop_estimate(cfg, 3) == layer_flop_count(
            cfg.seq_len, cfg.width, cfg.gate_hidden, cfg.capacity, 3,
        )
        assert flop_estimate(cfg, 3, batch=2) == 2 * flop_estimate(cfg, 3)

    def test_training_cost_ratio_default_grid_is_nine(self):
        grid = (2, 3, 4, 6, 8, 12, 16, 24, 32)
        assert sum(grid) == 107
        assert training_cost_ratio(grid) == 9.0

    def test_training_cost_ratio_equals_grid_size_under_uniform_sampling(self):
        for grid in [(2, 4), (2, 3, 4, 6, 8), (5, 10, 20, 40)]:
            assert training_cost_ratio(grid) == pytest.approx(len(grid))

    def test_training_cost_ratio_rejects_empty(self):
        with pytest.raises(ConfigError):
            training_cost_ratio(())


@pytest.fixture(scope="module")
def tiny_ablation():
    cfg = small_config()
    train = TrainConfig(steps=30, batch_size=8, lr=3e-3, eval_every=30,
                        checkpoint_every=0, seed=7)
    base = RunConfig(model=cfg, train=train, task=copy_task(n_samples=64))
    return base, run_ablation(base)


class TestAblation:
    def test_default_grid_mechanism_toggles(self):
        table = {v.name: (v.gate_enabled, v.budget_dropout, v.truncation)
                 for v in DEFAULT_VARIANTS}
        assert table == {
            "es-ssm": (True, True, "masked-softmax"),
            "base-spectral": (False, False, "direct-prefix"),
            "gate-only": (True, False, "masked-softmax"),
            "dropout-only": (False, True, "direct-prefix"),
        }

    def test_unknown_truncation_rejected(self):
        with pytest.raises(ConfigError, match="truncation"):
            VariantSpec("bad", True, True, "soft-prefix")

    def test_variant_run_applies_only_the_toggles(self):
        base = RunConfig(model=small_config(), task=copy_task())
        for v in DEFAULT_VARIANTS:
            run = variant_run(base, v)
            assert run.model.gate_enabled == v.gate_enabled
            assert run.model.truncation_mode == v.truncation_mode
            assert run.train.budget_dropout == v.budget_dropout
            assert run.task == base.task
            assert dataclasses.replace(
                run.model,
                gate_enabled=base.model.gate_enabled,
                truncation_mode=base.model.truncation_mode,
            ) == base.model

    def test_identical_init_across_variants(self):
        base = RunConfig(model=small_config(), task=copy_task())
        prints = {
            v.name: params_fingerprint(
                init_model_params(variant_run(base, v).model),
                variant_run(base, v).model,
            )
            for v in DEFAULT_VARIANTS
        }
        assert len(set(prints.values())) == 1

    def test_grid_produces_four_runs_plus_reevaluation(self, tiny_ablation):
        _, out = tiny_ablation
        names = [row["name"] for row in out["rows"]]
        assert names == ["es-ssm", "base-spectral", "gate-only",
                         "dropout-only", "es-ssm@direct-prefix"]
        assert out["rows"][-1]["reevaluation"] is True
        assert set(out["table"]) == set(names)

    def test_reevaluation_reuses_the_trained_checkpoint(self, tiny_ablation):
        _, out = tiny_ablation
        es = out["rows"][0]
        reeval = out["rows"][-1]
        assert reeval["params"] is es["params"]  # no fifth training run

    def test_variants_share_one_dataset(self, tiny_ablation):
        _, out = tiny_ablation
        assert out["dataset"] is not None
        for row in out["rows"]:
            assert row["report"].metric_name == "accuracy"

    def test_mismatched_recipes_rejected(self, tiny_ablation):
        base, _ = tiny_ablation
        runs = [variant_run(base, v) for v in DEFAULT_VARIANTS]
        runs[2] = dataclasses.replace(
            runs[2], train=dataclasses.replace(runs[2].train, lr=1e-4)
        )
        with pytest.raises(ConfigError, match="recipe"):
            run_ablation(base, runs=runs)

    def test_toggle_disagreement_rejected(self, tiny_ablation):
        base, _ = tiny_ablation
        runs = [variant_run(base, v) for v in DEFAULT_VARIANTS]
        runs[1] = variant_run(base, DEFAULT_VARIANTS[0])  # wrong toggles
        with pytest.raises(ConfigError):
            run_ablation(base, runs=runs)

    def test_run_count_mismatch_rejected(self, tiny_ablation):
        base, _ = tiny_ablation
        runs = [variant_run(base, v) for v in DEFAULT_VARIANTS[:3]]
        with pytest.raises(ConfigError, match="variants"):
            run_ablation(base, runs=runs)
