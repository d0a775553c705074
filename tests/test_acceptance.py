"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion is one test; the verbose pytest line is its pass/fail
record, and each test also prints one ``CRITERION n: PASS`` line with the
measured numbers (visible with ``pytest -s`` or in captured output).

These run the real training/sweeping pipeline at desk scale; the whole
module takes tens of minutes, dominated by the elasticity and ablation
reproductions (criteria 9 and 10).
"""

import math
import time

import numpy as np

from elastic_ssm.backprop import finite_diff_check, model_loss_fn
from elastic_ssm.basis import build_basis
from elastic_ssm.config import ModelConfig, RunConfig, TaskSpec, TrainConfig
from elastic_ssm.layer import (
    gate_logits,
    layer_flop_count,
    layer_forward,
    masked_softmax,
    rms_rescale,
)
from elastic_ssm.linalg import fft_causal_conv_bank
from elastic_ssm.model import init_model_params
from elastic_ssm.sweep import budget_sweep, model_bibo_audit, run_ablation
from elastic_ssm.tasks import bpb_metric
from elastic_ssm.training import BudgetSampler, derive_seeds, run_training

from _frozen_spectra import REFERENCE_SPECTRA
from oracles import direct_causal_conv, naive_budgeted_layer

GRID = (2, 3, 4, 6, 8, 12, 16, 24, 32)


def report(n, detail):
    print(f"\nCRITERION {n}: PASS — {detail}")


class TestCriterion01SpectralBasis:
    def test_spectrum_decay_and_oracle_agreement(self):
        started = time.monotonic()
        basis = build_basis(1024, 32)
        assert np.all(np.diff(basis.eigenvalues) < 0), \
            "eigenvalues must be strictly decreasing"
        ratio = basis.eigenvalues[-1] / basis.eigenvalues[0]
        assert ratio <= 1e-6, f"sigma_32/sigma_1 = {ratio:.3e} > 1e-6"
        worst = 0.0
        for length, ref in REFERENCE_SPECTRA.items():
            if length > 64:
                continue
            cap = min(length, 32)
            small = build_basis(length, cap)
            expected = np.array(ref["eigenvalues"])[:cap]
            err = np.max(np.abs(small.eigenvalues - expected)) / expected[0]
            worst = max(worst, err)
            assert err <= 1e-8, f"L={length}: oracle gap {err:.3e}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"basis criterion took {elapsed:.1f}s"
        report(1, f"L=1024 decay ratio {ratio:.3e}, oracle gap {worst:.3e} "
                  f"on L<=64, {elapsed:.1f}s")


class TestCriterion02ConvolutionOracle:
    def test_fft_matches_direct_on_200_instances(self):
        started = time.monotonic()
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(200):
            length = int(rng.integers(1, 257))
            filt = rng.normal(size=length)
            signal = rng.normal(size=length)
            direct = direct_causal_conv(filt, signal)
            fast = fft_causal_conv_bank(filt[None], signal[None, :, None], np.ones((1, 1, 1)))[0, :, 0]
            bound = 1e-6 * (1.0 + np.max(np.abs(direct)))
            gap = np.max(np.abs(fast - direct))
            worst = max(worst, gap / bound)
            assert gap <= bound
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        report(2, f"200 instances, worst gap at {worst:.2e} of the "
                  f"tolerance, {elapsed:.1f}s")


class TestCriterion03LayerOracle:
    def test_layer_forward_matches_naive_evaluator(self):
        started = time.monotonic()
        basis = build_basis(16, 6)
        rng = np.random.default_rng(3)
        worst = 0.0
        for draw in range(50):
            cfg = ModelConfig(
                seq_len=16, width=2, gate_hidden=3, capacity=6,
                budget_set=(2, 3, 6), input_kind="real", in_dim=2, out_dim=2,
                depth=1, seed=1000 + draw,
            )
            layer = init_model_params(cfg).blocks[0].layer
            u = rng.normal(size=(16, 2))
            for budget in (2, 3, 6):
                ours = layer_forward(u[None], layer, basis, budget)[0][0]
                ref = naive_budgeted_layer(
                    u, layer.mixing, layer.skip, layer.gate.w_in,
                    layer.gate.b_in, layer.gate.w_out, layer.gate.b_out,
                    layer.gate.eps, basis.eigenvalues, basis.filters, budget,
                )
                gap = np.max(np.abs(ours - ref))
                worst = max(worst, gap)
                assert gap <= 1e-6
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        report(3, f"50 draws x 3 budgets, max abs gap {worst:.3e}, "
                  f"{elapsed:.1f}s")


class TestCriterion04GradientCheck:
    def test_depth_one_and_two_at_budget_extremes(self):
        started = time.monotonic()
        rng = np.random.default_rng(4)
        worst = 0.0
        for depth in (1, 2):
            cfg = ModelConfig(
                seq_len=8, width=4, gate_hidden=4, capacity=6,
                budget_set=(2, 3, 6), input_kind="real", in_dim=3, out_dim=3,
                depth=depth, seed=40 + depth,
            )
            basis = build_basis(cfg.seq_len, cfg.capacity)
            params = init_model_params(cfg)
            inputs = rng.normal(size=(2, 8, 3))
            targets = rng.normal(size=(2, 8, 3))
            for budget in (2, cfg.capacity):
                loss_fn = model_loss_fn(inputs, targets, cfg, basis, budget)
                check = finite_diff_check(
                    loss_fn, params, cfg, n_coords=200, step=1e-5,
                    tolerance=1e-4, seed=7,
                )
                worst = max(worst, check.max_rel_err)
                assert check.passed, check.line()
        elapsed = time.monotonic() - started
        assert elapsed < 120.0
        report(4, f"depth 1 and 2 at K in {{2, 6}}, 200 coords each, "
                  f"max rel err {worst:.3e}, {elapsed:.1f}s")


class TestCriterion05MaskedGradients:
    def test_inactive_channels_get_bitwise_zero_gradient(self):
        cfg = ModelConfig(
            seq_len=16, width=8, gate_hidden=8, capacity=8,
            budget_set=(2, 3, 4, 6, 8), input_kind="real", in_dim=4,
            out_dim=4, depth=1, seed=5,
        )
        basis = build_basis(cfg.seq_len, cfg.capacity)
        params = init_model_params(cfg)
        sampler = BudgetSampler(cfg.budget_set, cfg.capacity, seed=55)
        rng = np.random.default_rng(5)
        shared_norm_floor = np.inf
        for step in range(100):
            budget = sampler.draw(step)
            inputs = rng.normal(size=(2, 16, 4))
            targets = rng.normal(size=(2, 16, 4))
            _, grads = model_loss_fn(inputs, targets, cfg, basis, budget)(params)
            mix = grads["block0.mixing"]
            w_out = grads["block0.gate.w_out"]
            b_out = grads["block0.gate.b_out"]
            assert np.all(mix[budget:] == 0.0), "mixing rows beyond K"
            assert np.all(w_out[budget:] == 0.0), "gate output rows beyond K"
            assert np.all(b_out[budget:] == 0.0), "gate output bias beyond K"
            for shared in ("block0.skip", "block0.gate.w_in",
                           "block0.gate.b_in"):
                norm = float(np.linalg.norm(grads[shared]))
                shared_norm_floor = min(shared_norm_floor, norm)
                assert norm > 0.0, f"{shared} gradient vanished"
        report(5, "100 sampled-budget steps: inactive mixing/gate rows "
                  "bitwise zero, shared-parameter gradient norm floor "
                  f"{shared_norm_floor:.3e}")


class TestCriterion06GateSimplex:
    def test_ten_thousand_weight_vectors_on_the_simplex(self):
        cfg = ModelConfig(
            seq_len=32, width=8, gate_hidden=8, capacity=32,
            budget_set=GRID, input_kind="real", in_dim=8, out_dim=8,
            depth=1, seed=6,
        )
        gate = init_model_params(cfg).blocks[0].layer.gate
        rng = np.random.default_rng(6)
        budgets = list(GRID)
        per = 10_000 // len(budgets) + 1
        checked = 0
        worst_sum = 0.0
        for budget in budgets:
            u = rng.normal(size=(per, cfg.width))
            logits = gate_logits(u, gate)
            alpha = masked_softmax(
                rms_rescale(logits, budget, gate.eps), budget, cfg.capacity
            )
            assert np.all(alpha >= 0.0)
            assert np.all(alpha[:, budget:] == 0.0), "exact zeros beyond K"
            gap = np.max(np.abs(alpha.sum(axis=1) - 1.0))
            worst_sum = max(worst_sum, gap)
            assert gap <= 1e-6
            checked += per
        assert checked >= 10_000
        # equal logits -> exactly uniform weights over the active prefix
        flat = rng.normal()
        for budget in (2, 8, 32):
            scaled = rms_rescale(np.full((4, 32), flat), budget, gate.eps)
            alpha = masked_softmax(scaled, budget, cfg.capacity)
            assert np.max(np.abs(alpha[:, :budget] - 1.0 / budget)) <= 1e-6
        report(6, f"{checked} (input, K) pairs: alpha >= 0, "
                  f"|sum-1| <= {worst_sum:.2e}, exact zeros beyond K, "
                  "equal logits give uniform 1/K")


class TestCriterion07OutputBoundAudit:
    def test_no_violations_on_random_and_trained_checkpoints(self):
        cfg = ModelConfig(
            seq_len=64, width=8, gate_hidden=8, capacity=32, budget_set=GRID,
            input_kind="tokens", vocab_size=6, out_dim=6, depth=1, seed=0,
        )
        basis = build_basis(cfg.seq_len, cfg.capacity)
        checkpoints = []
        for seed in range(5):
            random_cfg = ModelConfig(**{**cfg.to_dict(), "seed": 700 + seed})
            checkpoints.append(("random", init_model_params(random_cfg),
                                random_cfg))
        task = TaskSpec(kind="copy", n_symbols=5, delay=2, n_samples=96,
                        seed=77)
        for seed in range(5):
            seeds = derive_seeds(7000 + seed)
            run = RunConfig(
                model=ModelConfig(**{**cfg.to_dict(), "seed": seeds["init"]}),
                train=TrainConfig(steps=60, batch_size=8, lr=3e-3,
                                  eval_every=60, checkpoint_every=0,
                                  seed=seeds["budget"]),
                task=task,
            )
            result = run_training(run)
            checkpoints.append(("trained", result["params"], run.model))
        total_violations = 0
        worst_ratio = 0.0
        for kind, params, model_cfg in checkpoints:
            audit = model_bibo_audit(
                params, model_cfg, basis, n_trials=100, budgets=GRID, seed=8,
            )
            total_violations += sum(
                len(b["violations"]) for b in audit["blocks"]
            )
            worst_ratio = max(worst_ratio, audit["max_ratio"])
            assert audit["passed"], f"{kind} checkpoint violated the bound"
        report(7, "100 inputs x 9 budgets x (5 random + 5 trained) "
                  f"checkpoints: 0 violations (worst ratio "
                  f"{worst_ratio:.4f})")
        assert total_violations == 0


class TestCriterion08SamplerExpectation:
    def test_million_draw_mean(self):
        sampler = BudgetSampler(GRID, 32, seed=88)
        total = 0
        n = 1_000_000
        for step in range(n):
            total += sampler.draw(step)
        mean = total / n
        target = 107.0 / 9.0
        assert abs(mean - target) <= 0.03, f"mean {mean:.6f}"
        report(8, f"1e6 draws: mean {mean:.6f} vs 107/9 = {target:.6f} "
                  f"(gap {abs(mean - target):.4f} <= 0.03)")


class TestCriterion09DeskScaleElasticity:
    def test_three_seeds_retain_and_degrade_gracefully(self):
        started = time.monotonic()
        per_seed = []
        for root in (101, 202, 303):
            seeds = derive_seeds(root)
            model = ModelConfig(
                seq_len=256, width=64, gate_hidden=32, capacity=32,
                budget_set=GRID, input_kind="real", in_dim=4, out_dim=4,
                depth=2, seed=seeds["init"],
            )
            train = TrainConfig(steps=300, batch_size=8, lr=3e-3,
                                loss="mse", eval_every=300,
                                checkpoint_every=0, seed=seeds["budget"])
            task = TaskSpec(kind="lds-regression", state_dim=8, data_dim=4,
                            n_samples=256, seed=seeds["data"])
            result = run_training(RunConfig(model=model, train=train,
                                            task=task))
            sweep = budget_sweep(result["params"], model, result["basis"],
                                 result["dataset"])
            ret = dict(zip(sweep.budgets, sweep.retention))
            best_small = max(ret[k] for k in (2, 3, 4, 6, 8))
            assert best_small >= 0.98, \
                f"seed {root}: best retention at K<=8 is {best_small:.4f}"
            assert ret[2] < ret[8], \
                f"seed {root}: retention(2)={ret[2]:.4f} !< " \
                f"retention(8)={ret[8]:.4f}"
            per_seed.append((root, best_small, ret[2], ret[8]))
        elapsed = time.monotonic() - started
        assert elapsed < 1800.0, f"elasticity run took {elapsed:.0f}s"
        detail = "; ".join(
            f"seed {root}: max ret(K<=8)={a:.3f}, ret2={b:.3f}<ret8={c:.3f}"
            for root, a, b, c in per_seed
        )
        report(9, f"{detail}; {elapsed:.0f}s < 30 min")


class TestCriterion10DeskScaleAblation:
    def test_mechanisms_beat_plain_truncation_at_small_budgets(self):
        started = time.monotonic()
        es_wins = gate_wins = drop_wins = 0
        margins = []
        for root in (11, 22, 33):
            seeds = derive_seeds(root)
            model = ModelConfig(
                seq_len=32, width=16, gate_hidden=16, capacity=8,
                budget_set=(2, 3, 4, 6, 8), input_kind="tokens",
                vocab_size=10, out_dim=10, depth=1, seed=seeds["init"],
            )
            train = TrainConfig(steps=800, batch_size=16, lr=4e-3,
                                eval_every=800, checkpoint_every=0,
                                seed=seeds["budget"])
            task = TaskSpec(kind="copy", n_symbols=9, delay=4, n_samples=192,
                            seed=seeds["data"])
            out = run_ablation(RunConfig(model=model, train=train, task=task))

            def small_k_mean(row):
                rep = row["report"]
                return float(np.mean([
                    m for k, m in zip(rep.budgets, rep.metric) if k <= 4
                ]))

            means = {row["name"]: small_k_mean(row) for row in out["rows"]}
            es_wins += means["es-ssm"] > means["base-spectral"]
            gate_wins += means["gate-only"] > means["base-spectral"]
            drop_wins += means["dropout-only"] > means["base-spectral"]
            margins.append(means["es-ssm"] - means["base-spectral"])
        elapsed = time.monotonic() - started
        assert es_wins >= 2, f"es-ssm beat base in only {es_wins}/3 seeds"
        assert gate_wins >= 2, f"gate-only beat base in {gate_wins}/3 seeds"
        assert drop_wins >= 2, f"dropout-only beat base in {drop_wins}/3"
        assert elapsed < 7200.0
        report(10, f"small-budget (K<=4) accuracy: es-ssm>base {es_wins}/3 "
                   f"(margins {[round(m, 4) for m in margins]}), gate-only "
                   f"{gate_wins}/3, dropout-only {drop_wins}/3; "
                   f"{elapsed:.0f}s < 2h")


class TestCriterion11FlopLinearityAndWallTime:
    def test_counter_exactly_affine(self):
        base = layer_flop_count(1024, 256, 256, 32, 0)
        unit = layer_flop_count(1024, 256, 256, 32, 1) - base
        for k in GRID:
            assert layer_flop_count(1024, 256, 256, 32, k) == base + k * unit
        report(11, f"counter exactly affine: {base} + K*{unit} across the "
                   "9-budget grid (residual 0)")

    def test_wall_time_speedup_at_reference_geometry(self):
        cfg = ModelConfig(
            seq_len=1024, width=256, gate_hidden=256, capacity=32,
            budget_set=GRID, input_kind="real", in_dim=256, out_dim=256,
            depth=1, seed=11,
        )
        basis = build_basis(cfg.seq_len, cfg.capacity)
        layer = init_model_params(cfg).blocks[0].layer
        u = np.random.default_rng(11).normal(size=(cfg.seq_len, cfg.width))

        def median_time(budget, reps=5):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                layer_forward(u[None], layer, basis, budget)
                times.append(time.perf_counter() - t0)
            return sorted(times)[reps // 2]

        median_time(4, reps=1)  # warm the FFT plan caches
        slow = median_time(32)
        fast = median_time(4)
        speedup = slow / fast
        assert speedup >= 2.0, f"K=32 vs K=4 speedup only {speedup:.2f}x"
        report(11, f"wall time at L=1024 d=256: K=32 {slow * 1e3:.0f} ms vs "
                   f"K=4 {fast * 1e3:.0f} ms -> {speedup:.2f}x >= 2x")


class TestCriterion12MetricIdentities:
    def test_bpb_and_ppl_identities_to_1e12(self):
        rng = np.random.default_rng(12)
        nlls = np.concatenate([
            [0.0, math.log(2.0), math.log(256.0)],
            rng.uniform(0.0, 12.0, size=500),
        ])
        worst_bpb = worst_ppl = 0.0
        for nll in nlls:
            bpb, ppl = bpb_metric(float(nll))
            gap_bpb = abs(bpb - nll / math.log(2.0))
            gap_ppl = abs(ppl - 2.0 ** bpb) / max(ppl, 1.0)
            worst_bpb = max(worst_bpb, gap_bpb)
            worst_ppl = max(worst_ppl, gap_ppl)
            assert gap_bpb <= 1e-12
            assert gap_ppl <= 1e-12
        report(12, f"503 synthetic NLLs: |BPB - NLL/ln2| <= {worst_bpb:.2e},"
                   f" |PPL - 2^BPB|/PPL <= {worst_ppl:.2e}")
