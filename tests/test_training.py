"""Budget sampler, schedule, clipped AdamW, and the training loop."""

import dataclasses
import json
import math
import shutil
import weakref

import numpy as np
import pytest

import elastic_ssm.backprop as backprop_module
import elastic_ssm.training as training_module
from elastic_ssm.backprop import layer_backward
from elastic_ssm.basis import build_basis
from elastic_ssm.config import ModelConfig, Paths, RunConfig, TaskSpec, TrainConfig
from elastic_ssm.errors import ArtifactError, ConfigError, NumericError, StructuralError
from elastic_ssm.model import (
    checkpoint_writer,
    flatten_params,
    init_model_params,
    load_checkpoint,
    param_schema,
    params_fingerprint,
    save_checkpoint,
)
from elastic_ssm.tasks import (
    Dataset,
    build_dataset,
    evaluate_model,
    gen_copy_task,
    required_model_fields,
)
from elastic_ssm.training import (
    BudgetSampler,
    adamw_step,
    clip_global_norm,
    derive_seeds,
    init_optimizer_state,
    load_training_checkpoint,
    lr_at_step,
    optimizer_block_writer,
    optimizer_state_from_block,
    run_training,
    save_training_checkpoint,
    step_mask_plan,
    train_step,
)

DEPLOY_SET = (2, 3, 4, 6, 8, 12, 16, 24, 32)


# ---------------------------------------------------------------------------
# budget sampler
# ---------------------------------------------------------------------------


class TestBudgetSampler:
    def test_draws_stay_in_support(self):
        s = BudgetSampler(DEPLOY_SET, 32, seed=1)
        draws = {s.draw(i) for i in range(2000)}
        assert draws <= set(DEPLOY_SET)
        assert len(draws) == len(DEPLOY_SET)  # every budget appears

    def test_uniform_within_three_sigma(self):
        n = 20_000
        s = BudgetSampler(DEPLOY_SET, 32, seed=2)
        counts = np.zeros(len(DEPLOY_SET), dtype=int)
        index = {k: i for i, k in enumerate(DEPLOY_SET)}
        for i in range(n):
            counts[index[s.draw(i)]] += 1
        p = 1.0 / len(DEPLOY_SET)
        sigma = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)

    def test_mean_matches_support_average(self):
        # the deployment grid averages to 107/9; the empirical mean over a
        # medium sample must sit within 3 sigma of it
        n = 20_000
        s = BudgetSampler(DEPLOY_SET, 32, seed=3)
        draws = np.array([s.draw(i) for i in range(n)], dtype=float)
        expected = 107.0 / 9.0
        sigma_mean = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - expected) <= 3 * sigma_mean

    def test_single_element_set(self):
        s = BudgetSampler((32,), 32, seed=0)
        assert all(s.draw(i) == 32 for i in range(50))

    def test_seed_reproducibility_and_random_access(self):
        a = BudgetSampler(DEPLOY_SET, 32, seed=7)
        b = BudgetSampler(DEPLOY_SET, 32, seed=7)
        seq = [a.draw(i) for i in range(100)]
        # drawing out of order must give the same per-step values
        assert [b.draw(i) for i in reversed(range(100))] == seq[::-1]
        c = BudgetSampler(DEPLOY_SET, 32, seed=8)
        assert [c.draw(i) for i in range(100)] != seq

    def test_budget_one_in_budget_set_rejected(self):
        with pytest.raises(ConfigError, match=r"budgets \[1\] outside \[2, "):
            BudgetSampler((1, 2, 4), 4, seed=0)

    def test_empty_support_rejected(self):
        with pytest.raises(ConfigError):
            BudgetSampler((), 32, seed=0)

    def test_unknown_mode_rejected(self):
        # the grid is the one sampler; a run file asking for another is refused
        with pytest.raises(ConfigError, match="sampler_mode"):
            TrainConfig.from_dict({"sampler_mode": "uniform-over-range"})


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------


class TestSchedule:
    def test_warmup_then_cosine_floor(self):
        train = TrainConfig(steps=100, lr=3e-4, warmup_frac=0.05,
                            final_lr_frac=0.10)
        assert lr_at_step(0, train) == pytest.approx(3e-4 / 5)
        assert lr_at_step(4, train) == pytest.approx(3e-4)
        assert lr_at_step(5, train) == pytest.approx(3e-4)
        assert lr_at_step(99, train) == pytest.approx(3e-5, rel=1e-12)

    def test_monotone_decay_after_warmup(self):
        train = TrainConfig(steps=200, lr=1e-3, warmup_frac=0.1,
                            final_lr_frac=0.05)
        values = [lr_at_step(s, train) for s in range(20, 200)]
        assert all(b <= a + 1e-18 for a, b in zip(values, values[1:]))

    def test_no_warmup(self):
        train = TrainConfig(steps=10, lr=1e-3, warmup_frac=0.0,
                            final_lr_frac=0.5)
        assert lr_at_step(0, train) == pytest.approx(1e-3)
        assert lr_at_step(9, train) == pytest.approx(5e-4)

    def test_out_of_range_step(self):
        train = TrainConfig(steps=10)
        with pytest.raises(ConfigError):
            lr_at_step(10, train)
        with pytest.raises(ConfigError):
            lr_at_step(-1, train)


# ---------------------------------------------------------------------------
# gradient clipping
# ---------------------------------------------------------------------------


def grad_set_with_norm(norm: float, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    raw = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(5,))}
    total = math.sqrt(sum(float(np.vdot(g, g)) for g in raw.values()))
    return {k: g * (norm / total) for k, g in raw.items()}


class TestClipGlobalNorm:
    def test_large_norm_scaled_to_ball(self):
        grads = grad_set_with_norm(10.0)
        clipped, pre = clip_global_norm(grads, 1.0)
        assert pre == pytest.approx(10.0, rel=1e-12)
        new_norm = math.sqrt(sum(float(np.vdot(g, g)) for g in clipped.values()))
        assert abs(new_norm - 1.0) <= 1e-9
        np.testing.assert_allclose(clipped["a"], grads["a"] * 0.1, rtol=1e-12)

    def test_small_norm_unchanged_bitwise(self):
        grads = grad_set_with_norm(0.5)
        clipped, pre = clip_global_norm(grads, 1.0)
        assert pre == pytest.approx(0.5, rel=1e-12)
        assert clipped is grads  # identity, not a copy
        for k in grads:
            assert clipped[k] is grads[k]

    def test_direction_preserved(self):
        grads = grad_set_with_norm(37.0, seed=3)
        clipped, _ = clip_global_norm(grads, 1.0)
        flat_a = np.concatenate([g.ravel() for g in grads.values()])
        flat_b = np.concatenate([clipped[k].ravel() for k in grads])
        cos = float(flat_a @ flat_b / (np.linalg.norm(flat_a) * np.linalg.norm(flat_b)))
        assert abs(cos - 1.0) <= 1e-12

    def test_nan_gradient_rejected(self):
        grads = grad_set_with_norm(1.0)
        grads["a"][0, 0] = np.nan
        with pytest.raises(NumericError):
            clip_global_norm(grads, 1.0)
        grads = grad_set_with_norm(1.0)
        grads["b"][2] = np.inf
        with pytest.raises(NumericError):
            clip_global_norm(grads, 1.0)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def tiny_config(**kw):
    defaults = dict(seq_len=8, width=4, gate_hidden=4, capacity=4, depth=1,
                    budget_set=(2, 4), input_kind="real", in_dim=2, out_dim=3,
                    seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


def zero_grads(config):
    return {spec.name: np.zeros(spec.shape) for spec in param_schema(config)}


class TestAdamW:
    def test_zero_grads_zero_decay_is_identity(self):
        config = tiny_config()
        params = init_model_params(config)
        before = {n: a.copy() for n, a in flatten_params(params, config)}
        state = init_optimizer_state(config)
        train = TrainConfig(weight_decay=0.0)
        adamw_step(params, zero_grads(config), state, config, train, lr_t=1e-3)
        for name, arr in flatten_params(params, config):
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step_scalar_update(self):
        # t=1: m_hat = g, v_hat = g^2 -> update = -lr * g / (|g| + eps)
        config = tiny_config()
        params = init_model_params(config)
        state = init_optimizer_state(config)
        train = TrainConfig(weight_decay=0.0, adam_eps=1e-8)
        g = 0.37
        grads = zero_grads(config)
        grads["readout.b"] = np.full(3, g)
        before = params.readout_b.copy()
        adamw_step(params, grads, state, config, train, lr_t=1e-2)
        expected = before - 1e-2 * g / (abs(g) + 1e-8)
        np.testing.assert_allclose(params.readout_b, expected, rtol=1e-12)

    def test_float32_update_is_float32_arithmetic(self):
        # the same first step written out in float32: float64 moments or
        # bias corrections would round differently
        # (from a zero parameter, so the update's last bits show)
        config = tiny_config(width=16, out_dim=8, precision="float32")
        params = init_model_params(config)
        params.readout_w[:] = 0.0
        state = init_optimizer_state(config)
        train = TrainConfig(weight_decay=0.0)
        g = np.random.default_rng(3).normal(size=(8, 16)).astype(np.float32)
        grads = {name: arr.astype(np.float32) for name, arr in zero_grads(config).items()}
        grads["readout.w"] = g
        adamw_step(params, grads, state, config, train, lr_t=1e-2)
        m_hat = (1 - train.beta1) * g / np.float32(1 - train.beta1)
        v_hat = (1 - train.beta2) * np.square(g) / np.float32(1 - train.beta2)
        expected = 0.0 - 1e-2 * (m_hat / (np.sqrt(v_hat) + train.adam_eps))
        assert state.m["readout.w"].dtype == np.float32
        np.testing.assert_array_equal(params.readout_w, expected)

    def test_decay_only(self):
        config = tiny_config()
        params = init_model_params(config)
        params.readout_w[:] = 2.0
        state = init_optimizer_state(config)
        train = TrainConfig(weight_decay=0.1)
        adamw_step(params, zero_grads(config), state, config, train, lr_t=1e-2)
        np.testing.assert_allclose(params.readout_w, 2.0 * (1 - 1e-2 * 0.1),
                                   rtol=1e-12)

    def test_shape_mismatch(self):
        config = tiny_config()
        params = init_model_params(config)
        state = init_optimizer_state(config)
        grads = zero_grads(config)
        grads["readout.b"] = np.zeros(7)
        with pytest.raises(StructuralError):
            adamw_step(params, grads, state, config, TrainConfig(), lr_t=1e-3)

    def test_quadratic_convergence(self):
        # sanity: the optimizer solves a convex quadratic to 1e-6 in <= 5000
        # steps under the standard schedule
        config = tiny_config(out_dim=6)
        train = TrainConfig(steps=5000, lr=0.05, weight_decay=0.0,
                            warmup_frac=0.0, final_lr_frac=0.1, loss="mse")
        params = init_model_params(config)
        state = init_optimizer_state(config)
        target = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.25])
        curvature = np.array([0.5, 2.0, 1.0, 1.5, 0.7, 1.2])
        for step in range(5000):
            grads = zero_grads(config)
            grads["readout.b"] = curvature * (params.readout_b - target)
            adamw_step(params, grads, state, config, train,
                       lr_at_step(step, train))
        assert np.max(np.abs(params.readout_b - target)) <= 1e-6

    def test_per_row_bias_correction(self):
        # a row active on its first step is corrected with t=1 even when
        # other rows are on their second update
        config = tiny_config()
        train = TrainConfig(weight_decay=0.0, adam_eps=1e-8, beta1=0.9,
                            beta2=0.999)
        params = init_model_params(config)
        state = init_optimizer_state(config)
        name = "block0.mixing"
        g1 = np.zeros((4, 4, 4))
        g1[:2] = 0.5  # only rows 0-1 active (budget 2)
        grads = zero_grads(config)
        grads[name] = g1
        plan = step_mask_plan(config, budget=2)
        before = params.blocks[0].layer.mixing.copy()
        adamw_step(params, grads, state, config, train, lr_t=1e-3, plan=plan)
        np.testing.assert_array_equal(state.counts[name], [1, 1, 0, 0])
        # rows 0-1 moved by the t=1 update, rows 2-3 untouched bitwise
        exp = before.copy()
        exp[:2] -= 1e-3 * 0.5 / (0.5 + 1e-8)
        np.testing.assert_allclose(params.blocks[0].layer.mixing, exp, rtol=1e-12)

        g2 = np.full((4, 4, 4), 0.5)  # all rows active (budget 4)
        grads = zero_grads(config)
        grads[name] = g2
        adamw_step(params, grads, state, config, train, lr_t=1e-3,
                   plan=step_mask_plan(config, budget=4))
        np.testing.assert_array_equal(state.counts[name], [2, 2, 1, 1])
        after = params.blocks[0].layer.mixing
        # fresh rows (t=1): update = lr * g/(|g| + eps) exactly
        np.testing.assert_allclose(
            exp[2:] - after[2:], np.full((2, 4, 4), 1e-3 * 0.5 / (0.5 + 1e-8)),
            rtol=1e-9,
        )
        # veteran rows (t=2) with constant gradient: m_hat = g, v_hat = g^2
        # once more, so the step size matches the fresh rows'
        np.testing.assert_allclose(
            exp[:2] - after[:2], np.full((2, 4, 4), 1e-3 * 0.5 / (0.5 + 1e-8)),
            rtol=1e-9,
        )

    def test_decay_skips_inactive_rows(self):
        config = tiny_config()
        params = init_model_params(config)
        params.blocks[0].layer.mixing[:] = 1.0
        state = init_optimizer_state(config)
        train = TrainConfig(weight_decay=0.1)
        adamw_step(params, zero_grads(config), state, config, train, lr_t=1e-2,
                   plan=step_mask_plan(config, budget=2))
        mixing = params.blocks[0].layer.mixing
        np.testing.assert_array_equal(mixing[2:], 1.0)  # untouched bitwise
        np.testing.assert_allclose(mixing[:2], 1.0 - 1e-3, rtol=1e-12)

    def test_decay_inactive_flag(self):
        # decaying inactive rows is not an option: a run file asking for it
        # is refused, and one carrying the default loads
        with pytest.raises(ConfigError, match="decay_inactive"):
            TrainConfig.from_dict({"decay_inactive": True})
        with pytest.warns(UserWarning, match="decay_inactive"):
            assert TrainConfig.from_dict({"decay_inactive": False}) == TrainConfig()


class TestStepMaskPlan:
    def test_masked_mode(self):
        config = tiny_config(depth=2)
        plan = step_mask_plan(config, budget=3)
        assert plan["block0.mixing"] == 3
        assert plan["block1.gate.w_out"] == 3
        assert plan["block1.gate.b_out"] == 3
        assert plan["block0.gate.w_in"] is None
        assert plan["embed.w"] is None
        assert plan["readout.w"] is None

    def test_direct_mode_gate_rows_all_active(self):
        config = tiny_config(truncation_mode="direct")
        plan = step_mask_plan(config, budget=2)
        assert plan["block0.mixing"] == 2
        assert plan["block0.gate.w_out"] == 4  # full capacity
        assert plan["block0.gate.b_out"] == 4

    def test_gate_disabled_freezes_gate(self):
        config = tiny_config(gate_enabled=False)
        plan = step_mask_plan(config, budget=4)
        assert plan["block0.gate.w_in"] == 0
        assert plan["block0.gate.b_in"] == 0
        assert plan["block0.gate.w_out"] == 0
        assert plan["block0.gate.b_out"] == 0
        assert plan["block0.mixing"] == 4


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------


def copy_setup(seed=0, capacity=4, seq_len=16, budget_set=(2, 4)):
    config = ModelConfig(seq_len=seq_len, width=8, gate_hidden=8,
                         capacity=capacity, depth=1, input_kind="tokens",
                         vocab_size=6, out_dim=6, budget_set=budget_set,
                         seed=seed)
    dataset = gen_copy_task(seed=seed, seq_len=seq_len, n_symbols=5, delay=1,
                            n_samples=32)
    basis = build_basis(seq_len, capacity)
    return config, dataset, basis


class TestTrainStep:
    @pytest.mark.parametrize("kind", ["copy", "lds-regression"])
    def test_float32_step_stays_float32(self, kind, monkeypatch):
        # float64 task data (LDS inputs and targets, the copy task's loss
        # mask) must not lift a float32 model's forward or backward
        task = TaskSpec(kind=kind, n_symbols=5, delay=1, state_dim=2,
                        data_dim=2, n_samples=16)
        config = ModelConfig(seq_len=16, width=8, gate_hidden=8, capacity=4,
                             depth=2, budget_set=(2, 4), precision="float32",
                             **required_model_fields(task))
        dataset = build_dataset(task, config)
        seen = []

        def spy(dout, cache, out=None):
            seen.append((dout.dtype, cache.u.dtype))
            return layer_backward(dout, cache, out=out)

        monkeypatch.setattr(backprop_module, "layer_backward", spy)
        params = init_model_params(config)
        sampler = BudgetSampler((3,), 4, seed=0)
        mask = None if dataset.mask is None else dataset.mask[:4]
        metrics = train_step(params, init_optimizer_state(config),
                             dataset.inputs[:4], dataset.targets[:4], mask,
                             config, TrainConfig(), build_basis(16, 4), sampler, 0)
        assert metrics["budget"] == 3
        assert seen == [(np.float32, np.float32)] * 2
        assert all(arr.dtype == np.float32 for _, arr in flatten_params(params, config))

    def test_fixed_sampler_equals_full_capacity_step(self):
        config, dataset, basis = copy_setup()
        train_a = TrainConfig(budget_dropout=True, weight_decay=0.01, seed=5)
        train_b = TrainConfig(budget_dropout=False, weight_decay=0.01, seed=5)
        sampler_full = BudgetSampler((config.capacity,), config.capacity, seed=5)
        pa = init_model_params(config)
        pb = init_model_params(config)
        sa = init_optimizer_state(config)
        sb = init_optimizer_state(config)
        batch = (dataset.inputs[:8], dataset.targets[:8], dataset.mask[:8])
        ma = train_step(pa, sa, *batch, config, train_a, basis, sampler_full, 0)
        mb = train_step(pb, sb, *batch, config, train_b, basis, sampler_full, 0)
        assert ma["budget"] == mb["budget"] == config.capacity
        assert ma["loss"] == mb["loss"]
        assert params_fingerprint(pa, config) == params_fingerprint(pb, config)

    def test_disjoint_budgets_leave_top_rows_untouched(self):
        # steps at budgets 2 and 3 never touch mixing/gate rows 3..
        config, dataset, basis = copy_setup(budget_set=(2, 3, 4))
        train = TrainConfig(weight_decay=0.01, seed=0)
        params = init_model_params(config)
        state = init_optimizer_state(config)
        frozen = {
            "block0.mixing": params.blocks[0].layer.mixing[3:].copy(),
            "block0.gate.w_out": params.blocks[0].layer.gate.w_out[3:].copy(),
            "block0.gate.b_out": params.blocks[0].layer.gate.b_out[3:].copy(),
        }

        class FixedSampler:
            def __init__(self, seq):
                self.seq = seq

            def draw(self, step):
                return self.seq[step]

        sampler = FixedSampler({0: 2, 1: 3})
        for step in (0, 1):
            train_step(params, state, dataset.inputs[:8], dataset.targets[:8],
                       dataset.mask[:8], config, train, basis, sampler, step)
        np.testing.assert_array_equal(params.blocks[0].layer.mixing[3:],
                                      frozen["block0.mixing"])
        np.testing.assert_array_equal(params.blocks[0].layer.gate.w_out[3:],
                                      frozen["block0.gate.w_out"])
        np.testing.assert_array_equal(params.blocks[0].layer.gate.b_out[3:],
                                      frozen["block0.gate.b_out"])
        # rows below the budgets did move
        assert not np.array_equal(params.blocks[0].layer.mixing[:2],
                                  init_model_params(config).blocks[0].layer.mixing[:2])

    def test_non_finite_loss_raises_before_updating(self):
        config, dataset, basis = copy_setup()
        train = TrainConfig(seed=0)
        params = init_model_params(config)
        params.readout_w[0, 0] = np.nan
        state = init_optimizer_state(config)
        sampler = BudgetSampler((4,), 4, seed=0)
        fingerprint = params_fingerprint(params, config)
        with pytest.raises(NumericError):
            train_step(params, state, dataset.inputs[:4], dataset.targets[:4],
                       dataset.mask[:4], config, train, basis, sampler, 0)
        assert params_fingerprint(params, config) == fingerprint
        assert state.applied == 0

    def test_reported_metrics(self):
        config, dataset, basis = copy_setup()
        train = TrainConfig(seed=1, steps=10)
        params = init_model_params(config)
        state = init_optimizer_state(config)
        sampler = BudgetSampler((2, 4), 4, seed=1)
        m = train_step(params, state, dataset.inputs[:4], dataset.targets[:4],
                       dataset.mask[:4], config, train, basis, sampler, 0)
        assert set(m) == {"loss", "budget", "grad_norm", "lr"}
        assert m["budget"] in (2, 4)
        assert m["lr"] == lr_at_step(0, train)
        assert m["grad_norm"] > 0 and np.isfinite(m["loss"])


# ---------------------------------------------------------------------------
# optimizer-state container
# ---------------------------------------------------------------------------


class TestOptimizerContainer:
    def test_round_trip(self):
        config = tiny_config()
        state = init_optimizer_state(config)
        rng = np.random.default_rng(0)
        for name in state.m:
            state.m[name] = rng.normal(size=state.m[name].shape)
            state.v[name] = np.abs(rng.normal(size=state.v[name].shape))
            state.counts[name] = rng.integers(0, 9, size=state.counts[name].shape)
        state.completed, state.applied, state.skipped = 12, 11, 1
        blob = optimizer_block_writer(state, config).finish()
        back = optimizer_state_from_block(blob, config)
        assert (back.completed, back.applied, back.skipped) == (12, 11, 1)
        for name in state.m:
            np.testing.assert_array_equal(back.m[name], state.m[name])
            np.testing.assert_array_equal(back.v[name], state.v[name])
            np.testing.assert_array_equal(back.counts[name], state.counts[name])

    def test_corruption_detected(self):
        config = tiny_config()
        state = init_optimizer_state(config)
        blob = bytearray(optimizer_block_writer(state, config).finish())
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(ArtifactError):
            optimizer_state_from_block(bytes(blob), config)

    def test_combined_checkpoint_round_trip(self, tmp_path):
        config = tiny_config()
        params = init_model_params(config)
        state = init_optimizer_state(config)
        state.completed = state.applied = 5
        path = tmp_path / "ck.essm"
        save_training_checkpoint(path, params, config, state)
        p2, c2, s2 = load_training_checkpoint(path)
        assert c2.to_dict() == config.to_dict()
        assert params_fingerprint(p2, c2) == params_fingerprint(params, config)
        assert s2.completed == 5

    def test_saved_file_is_the_two_containers(self, tmp_path):
        # the save streams the parts; the file is the same bytes as the blobs
        config = tiny_config()
        params = init_model_params(config)
        state = init_optimizer_state(config)
        rng = np.random.default_rng(1)
        for name in state.m:
            state.m[name] = rng.normal(size=state.m[name].shape)
        state.completed = state.applied = 3
        path = tmp_path / "ck.essm"
        save_training_checkpoint(path, params, config, state)
        expected = (checkpoint_writer(params, config).finish()
                    + optimizer_block_writer(state, config).finish())
        assert path.read_bytes() == expected
        save_checkpoint(path, params, config)
        assert path.read_bytes() == checkpoint_writer(params, config).finish()

    def test_training_checkpoint_decoded_once(self, tmp_path):
        # storage.Reader is the only parser, so the header is read once; each
        # tensor is one fresh, writeable copy of its bytes
        config = tiny_config()
        params = init_model_params(config)
        path = tmp_path / "ck.essm"
        save_training_checkpoint(path, params, config, init_optimizer_state(config))
        p2, _, s2 = load_training_checkpoint(path)
        arrays = [a for _, a in flatten_params(p2, config)]
        arrays += [*s2.m.values(), *s2.v.values(), *s2.counts.values()]
        for arr in arrays:
            assert arr.flags.writeable and arr.flags.owndata

    def test_flipped_optimizer_byte_fails_only_the_resume(self, tmp_path):
        config = tiny_config()
        params = init_model_params(config)
        path = tmp_path / "ck.essm"
        save_training_checkpoint(path, params, config, init_optimizer_state(config))
        raw = bytearray(path.read_bytes())
        span = len(checkpoint_writer(params, config).finish())
        raw[(span + len(raw)) // 2] ^= 0x01  # inside the optimizer block
        path.write_bytes(bytes(raw))
        p2, _ = load_checkpoint(path)
        assert params_fingerprint(p2, config) == params_fingerprint(params, config)
        with pytest.raises(ArtifactError, match="checksum"):
            load_training_checkpoint(path)

    def test_missing_or_empty_file_is_an_artifact_error(self, tmp_path):
        # an empty file cannot be mapped: it reads as no bytes, a truncated file
        path = tmp_path / "ck.essm"
        with pytest.raises(ArtifactError, match="cannot read"):
            load_training_checkpoint(path)
        path.write_bytes(b"")
        with pytest.raises(ArtifactError, match="truncated"):
            load_training_checkpoint(path)

    def test_model_only_checkpoint_cannot_resume(self, tmp_path):
        config = tiny_config()
        params = init_model_params(config)
        path = tmp_path / "model.essm"
        save_checkpoint(path, params, config)
        with pytest.raises(ArtifactError, match="optimizer"):
            load_training_checkpoint(path)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def copy_run(steps=40, seed=0, **train_kw):
    model = ModelConfig(seq_len=16, width=8, gate_hidden=8, capacity=4,
                        depth=1, input_kind="tokens", vocab_size=6, out_dim=6,
                        budget_set=(2, 3, 4), seed=seed)
    train_kw.setdefault("eval_every", 20)
    train_kw.setdefault("batch_size", 8)
    train = TrainConfig(steps=steps, seed=seed, **train_kw)
    task = TaskSpec(kind="copy", n_symbols=5, delay=1, n_samples=64, seed=seed)
    return RunConfig(model=model, train=train, task=task, paths=Paths())


def count_evals(monkeypatch) -> list:
    """Record every evaluate_model call run_training makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("budget"))
        return evaluate_model(*args, **kwargs)

    monkeypatch.setattr(training_module, "evaluate_model", counted)
    return calls


def spy_saved_states(monkeypatch) -> list:
    """Record the live OptimizerState each save_training_checkpoint call
    receives; the last entry is the state the latest run ended with."""
    states = []

    def spied(path, params, config, state):
        save_training_checkpoint(path, params, config, state)
        states.append(state)

    monkeypatch.setattr(training_module, "save_training_checkpoint", spied)
    return states


def assert_resume_reproduces(run, tmp_path, monkeypatch):
    """Pause a run halfway, resume it from its checkpoint, and check the
    parameters and moments match an uninterrupted run bit for bit; returns
    both live optimizer states as their final saves received them."""
    saved = spy_saved_states(monkeypatch)
    straight = run_training(run, checkpoint_path=tmp_path / "straight.essm")
    straight_state = saved[-1]

    ck = tmp_path / "ck.essm"
    paused = run_training(run, checkpoint_path=ck, stop_after=30)
    assert paused["finished"] is False
    assert paused["completed_steps"] == 30
    resumed = run_training(run, resume=ck, checkpoint_path=ck)
    resumed_state = saved[-1]
    assert resumed["finished"] is True
    assert params_fingerprint(resumed["params"], run.model) == \
        params_fingerprint(straight["params"], run.model)
    for name in resumed_state.m:
        np.testing.assert_array_equal(resumed_state.m[name], straight_state.m[name])
        np.testing.assert_array_equal(resumed_state.v[name], straight_state.v[name])
    return straight_state, resumed_state


class TestRunTraining:
    def test_deterministic_trajectory(self, tmp_path):
        run = copy_run()
        a = run_training(run, log_path=tmp_path / "a.jsonl")
        b = run_training(run, log_path=tmp_path / "b.jsonl")
        assert params_fingerprint(a["params"], run.model) == \
            params_fingerprint(b["params"], run.model)
        assert a["log"] == b["log"]

    def test_loss_decreases_on_copy_smoke(self):
        run = copy_run(steps=500, lr=3e-3, eval_every=100)
        result = run_training(run)
        first = result["log"][0]["loss"]
        final = result["log"][-1]["loss"]
        assert final < first * 0.7
        assert result["final_eval"]["accuracy"] > 0.3  # well above 1/5 chance

    def test_resume_reproduces_uninterrupted_trajectory(self, tmp_path, monkeypatch):
        assert_resume_reproduces(copy_run(steps=60), tmp_path, monkeypatch)

    def test_float32_run_resumes_bit_exact_with_float32_moments(self, tmp_path, monkeypatch):
        run = copy_run(steps=60)
        run = dataclasses.replace(run, model=dataclasses.replace(run.model,
                                                                 precision="float32"))
        for state in assert_resume_reproduces(run, tmp_path, monkeypatch):
            for moments in (state.m, state.v):
                assert {a.dtype for a in moments.values()} == {np.dtype(np.float32)}

    def test_cadence_checkpoint_written_once_and_resumable(self, tmp_path, monkeypatch):
        run = copy_run(steps=10, eval_every=5, checkpoint_every=5)
        writes, states = [], []

        def counted(path, params, config, state):
            save_training_checkpoint(path, params, config, state)
            writes.append(state.completed)
            states.append(state)
            shutil.copyfile(path, tmp_path / f"at{state.completed}.essm")

        monkeypatch.setattr(training_module, "save_training_checkpoint", counted)
        straight = run_training(run, checkpoint_path=tmp_path / "straight.essm")
        straight_state = states[-1]
        writes.clear()
        ck = tmp_path / "ck.essm"
        run_training(run, checkpoint_path=ck)
        assert writes == [5, 10]  # the last cadence save is the final state
        writes.clear()
        run_training(run, checkpoint_path=ck, stop_after=5)
        assert writes == [5]

        resumed = run_training(run, resume=tmp_path / "at5.essm",
                               checkpoint_path=tmp_path / "resumed.essm")
        resumed_state = states[-1]
        assert resumed["completed_steps"] == 10
        assert params_fingerprint(resumed["params"], run.model) == \
            params_fingerprint(straight["params"], run.model)
        for name in resumed_state.m:
            np.testing.assert_array_equal(resumed_state.m[name], straight_state.m[name])
            np.testing.assert_array_equal(resumed_state.v[name], straight_state.v[name])

    def test_optimizer_state_freed_when_run_training_returns(self, tmp_path, monkeypatch):
        """The summary holds no optimizer state: once run_training returns,
        the moments live on only in the checkpoint it wrote."""
        refs = []

        def spied(path, params, config, state):
            save_training_checkpoint(path, params, config, state)
            refs.append(weakref.ref(state))

        monkeypatch.setattr(training_module, "save_training_checkpoint", spied)
        result = run_training(copy_run(steps=10), checkpoint_path=tmp_path / "ck.essm")
        assert result["finished"] is True
        assert refs and all(ref() is None for ref in refs)

    def test_resume_config_mismatch_rejected(self, tmp_path):
        run = copy_run(steps=20)
        ck = tmp_path / "ck.essm"
        run_training(run, checkpoint_path=ck, stop_after=10)
        other = copy_run(steps=20, seed=1)  # different init seed
        with pytest.raises(ConfigError, match="config"):
            run_training(other, resume=ck)

    def test_log_records_shape(self, tmp_path):
        log_path = tmp_path / "train.jsonl"
        run = copy_run(steps=40)
        result = run_training(run, log_path=log_path)
        assert [r["step"] for r in result["log"]] == [20, 40]
        for record in result["log"]:
            assert set(record) == {"step", "loss", "budget_histogram",
                                   "grad_norm", "lr", "eval", "skipped"}
            assert all(k in {"2", "3", "4"} for k in record["budget_histogram"])
            assert record["eval"]["metric_name"] == "accuracy"
            assert record["skipped"] == 0
        on_disk = [json.loads(line) for line in
                   log_path.read_text().splitlines()]
        assert on_disk == result["log"]
        total = sum(result["log"][-1]["budget_histogram"].values())
        assert total == 40  # histogram covers every applied step

    def test_fresh_run_starts_its_own_log_and_resume_appends(self, tmp_path):
        log_path, ck = tmp_path / "train.jsonl", tmp_path / "ck.essm"
        run = copy_run(steps=40)

        def logged_steps():
            return [json.loads(line)["step"] for line in log_path.read_text().splitlines()]

        run_training(run, log_path=log_path)
        run_training(run, log_path=log_path)
        assert logged_steps() == [20, 40]
        run_training(run, log_path=log_path, checkpoint_path=ck, stop_after=20)
        assert logged_steps() == [20]
        run_training(run, log_path=log_path, resume=ck)
        assert logged_steps() == [20, 40]

    def test_budget_dropout_off_uses_capacity_only(self):
        run = copy_run(steps=20, budget_dropout=False)
        result = run_training(run)
        assert result["log"][-1]["budget_histogram"] == {"4": 20}

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_abort_when_too_many_steps_skipped(self, tmp_path):
        model = ModelConfig(seq_len=8, width=4, gate_hidden=4, capacity=4,
                            depth=1, input_kind="real", in_dim=2, out_dim=2,
                            budget_set=(2, 4), seed=0)
        train = TrainConfig(steps=50, max_skip_frac=0.1, loss="mse",
                            batch_size=2, eval_every=50)
        task = TaskSpec(kind="lds-regression", data_dim=2, state_dim=2,
                        n_samples=8)
        inputs = np.random.default_rng(0).normal(size=(8, 8, 2))
        huge = np.full((8, 8, 2), 1e200)  # finite, but the squared error overflows
        dataset = Dataset(
            kind="lds-regression", inputs=inputs, targets=huge, mask=None,
            eval_inputs=inputs, eval_targets=huge, eval_mask=None,
            loss="mse", metric_name="mse", higher_better=False,
        )
        run = RunConfig(model=model, train=train, task=task, paths=Paths())
        log_path = tmp_path / "abort.jsonl"
        with pytest.raises(NumericError, match="skipped"):
            run_training(run, dataset=dataset, log_path=log_path)
        # the abort itself is logged with the skip tally
        record = json.loads(log_path.read_text().splitlines()[-1])
        assert record["aborted"] is True
        assert record["skipped"] == 6  # first skip past 10% of 50 steps

    def test_dataset_length_mismatch_rejected(self):
        run = copy_run(steps=10)
        wrong = gen_copy_task(seed=0, seq_len=12, n_symbols=5, delay=1,
                              n_samples=8)
        with pytest.raises(ConfigError, match="seq_len"):
            run_training(run, dataset=wrong)

    def test_loss_must_match_the_task(self, tmp_path, monkeypatch):
        model = ModelConfig(seq_len=8, width=4, gate_hidden=4, capacity=4,
                            depth=1, input_kind="real", in_dim=2, out_dim=2,
                            budget_set=(2, 4), seed=0)
        task = TaskSpec(kind="lds-regression", data_dim=2, state_dim=2,
                        n_samples=8)
        run = RunConfig(model=model, train=TrainConfig(steps=5), task=task,
                        paths=Paths())

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(training_module, "train_step", no_step)
        ck = tmp_path / "ck.essm"
        with pytest.raises(ConfigError, match="'cross-entropy'.*'mse'"):
            run_training(run, checkpoint_path=ck, log_path=tmp_path / "log.jsonl")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ConfigError, match="'mse'.*'cross-entropy'"):
            run_training(copy_run(steps=5, loss="mse"))

    def test_final_eval_reuses_the_last_cadence_eval(self, monkeypatch):
        calls = count_evals(monkeypatch)
        run = copy_run(steps=20, eval_every=20)
        result = run_training(run)
        assert calls == [run.model.capacity]
        assert result["final_eval"] == result["log"][-1]["eval"]

    def test_stop_after_off_cadence_evaluates_afresh(self, tmp_path, monkeypatch):
        calls = count_evals(monkeypatch)
        run = copy_run(steps=20, eval_every=20)
        paused = run_training(run, checkpoint_path=tmp_path / "ck.essm",
                              stop_after=10)
        assert paused["log"] == [] and len(calls) == 1
        assert paused["final_eval"] == evaluate_model(
            paused["params"], run.model, paused["basis"], paused["dataset"],
            budget=run.model.capacity,
        )

    def test_resume_at_the_last_step_evaluates_afresh(self, tmp_path, monkeypatch):
        run = copy_run(steps=20, eval_every=20)
        ck = tmp_path / "ck.essm"
        done = run_training(run, checkpoint_path=ck)
        calls = count_evals(monkeypatch)
        resumed = run_training(run, resume=ck)
        assert resumed["log"] == [] and len(calls) == 1
        assert resumed["final_eval"] == done["final_eval"]

    def test_stop_after_validation(self, tmp_path):
        run = copy_run(steps=20)
        ck = tmp_path / "ck.essm"
        run_training(run, checkpoint_path=ck, stop_after=10)
        with pytest.raises(ConfigError):
            run_training(run, resume=ck, stop_after=10)  # already there


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_seeds(42)
        b = derive_seeds(42)
        assert a == b
        assert set(a) == {"init", "data", "budget"}
        assert len({a["init"], a["data"], a["budget"]}) == 3
        assert derive_seeds(43) != a
