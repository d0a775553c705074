"""Stacked model: init, norms, forward semantics, checkpoint container."""

import hashlib
import inspect

import numpy as np
import pytest

from elastic_ssm import backprop, layer, model, sweep, tasks, training
from elastic_ssm.backprop import model_loss_fn
from elastic_ssm.basis import build_basis
from elastic_ssm.config import ModelConfig
from elastic_ssm.errors import ArtifactError, StructuralError
from elastic_ssm.model import (
    CHECKPOINT_MAGIC,
    checkpoint_writer,
    flatten_params,
    init_model_params,
    layer_norm_forward,
    layer_param_arrays,
    load_checkpoint,
    model_forward,
    param_schema,
    params_fingerprint,
    params_from_arrays,
    rms_norm_forward,
    save_checkpoint,
)
from elastic_ssm.layer import layer_forward
from elastic_ssm.linalg import fft_causal_conv_bank, fft_causal_conv_bank_adjoint
from elastic_ssm.storage import Writer
from elastic_ssm.sweep import budget_sweep, run_ablation
from elastic_ssm.tasks import evaluate_model
from elastic_ssm.training import BudgetSampler


@pytest.fixture(scope="module")
def basis16():
    return build_basis(16, 6)


def small_config(**overrides):
    base = dict(
        width=6, gate_hidden=5, depth=2, seq_len=16, capacity=6,
        budget_set=(2, 3, 6), vocab_size=11, out_dim=11, seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestInit:
    def test_shapes_follow_declaration_order(self):
        cfg = small_config()
        params = init_model_params(cfg)
        for name, arr in flatten_params(params, cfg):
            assert arr.dtype == np.float64, name
        assert [(n, a.shape) for n, a in flatten_params(params, cfg)] == [
            (spec.name, spec.shape) for spec in param_schema(cfg)]

    def test_deterministic_and_seed_sensitive(self):
        cfg = small_config()
        a = flatten_params(init_model_params(cfg), cfg)
        b = flatten_params(init_model_params(cfg), cfg)
        for (_, x), (_, y) in zip(a, b):
            assert np.array_equal(x, y)
        other = flatten_params(init_model_params(small_config(seed=4)), small_config(seed=4))
        assert not np.array_equal(a[0][1], other[0][1])

    def test_structural_zeros_and_ones(self):
        cfg = small_config()
        p = init_model_params(cfg)
        for block in p.blocks:
            assert np.all(block.layer.skip == 0.0)
            assert np.all(block.layer.gate.b_out == 0.0)
            assert np.all(block.norm_gain == 1.0)
            assert np.all(block.norm_bias == 0.0)
        assert np.all(p.final_gain == 1.0)
        assert np.all(p.readout_b == 0.0)

    def test_mixing_variance(self):
        cfg = small_config(width=32, gate_hidden=8, capacity=16, seq_len=16,
                           budget_set=(2, 16), depth=1)
        p = init_model_params(cfg)
        target = 1.0 / (32 * 16)
        measured = float(np.var(p.blocks[0].layer.mixing))
        assert abs(measured - target) < 0.3 * target

    def test_truncated_normal_bounds(self):
        cfg = small_config()
        p = init_model_params(cfg)
        d = cfg.width
        assert np.abs(p.embed_table).max() <= 2.0 / np.sqrt(d) + 1e-12
        for block in p.blocks:
            assert np.abs(block.layer.gate.w_in).max() <= 2.0 / np.sqrt(d) + 1e-12

    def test_fingerprints_frozen(self):
        # CRCs of the initial parameters, recorded before the layout moved
        # into param_schema: names, order, shapes and RNG draws are unchanged
        tokens = small_config()
        real = small_config(input_kind="real", in_dim=3, out_dim=2,
                            norm_kind="rmsnorm", truncation_mode="direct")
        assert params_fingerprint(init_model_params(tokens), tokens) == 3000790072
        assert params_fingerprint(init_model_params(real), real) == 792496724

    def test_params_from_arrays_wraps_without_copying(self):
        cfg = small_config(input_kind="real", in_dim=2, out_dim=3)
        arrays = {s.name: np.zeros(s.shape) for s in param_schema(cfg)}
        params = params_from_arrays(arrays, cfg)
        assert params.embed_table is None
        flat = flatten_params(params, cfg)
        assert [name for name, _ in flat] == list(arrays)
        assert all(arr is arrays[name] for name, arr in flat)

    def test_layer_param_arrays_use_block_names(self):
        cfg = small_config()
        params = init_model_params(cfg)
        local = layer_param_arrays(params.blocks[1].layer)
        named = dict(flatten_params(params, cfg))
        assert list(local) == ["mixing", "skip", "gate.w_in", "gate.b_in",
                               "gate.w_out", "gate.b_out"]
        for name, arr in local.items():
            assert arr is named[f"block1.{name}"]

    def test_float32_precision(self):
        cfg = small_config(precision="float32")
        p = init_model_params(cfg)
        for _, arr in flatten_params(p, cfg):
            assert arr.dtype == np.float32


class TestNorms:
    def test_layernorm_matches_manual(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 7, 5)) * 3 + 1
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)
        out, _ = layer_norm_forward(x, gain, bias)
        mu = x.mean(-1, keepdims=True)
        sd = np.sqrt(x.var(-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(out, (x - mu) / sd * gain + bias, rtol=1e-12)

    def test_layernorm_standardizes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 64)) * 10 + 5
        out, _ = layer_norm_forward(x, np.ones(64), np.zeros(64))
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(-1), 1.0, atol=1e-3)

    def test_rmsnorm_matches_manual(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        gain = rng.normal(size=6)
        bias = rng.normal(size=6)
        out, _ = rms_norm_forward(x, gain, bias)
        r = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(out, x * r * gain + bias, rtol=1e-12)


class TestModelForward:
    def test_output_shapes(self, basis16):
        cfg = small_config()
        p = init_model_params(cfg)
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 11, size=(4, 16))
        out, _ = model_forward(tokens, p, cfg, basis16, budget=3)
        assert out.shape == (4, 16, 11)

    def test_sequence_alone_matches_its_batch_row(self, basis16):
        cfg = small_config()
        p = init_model_params(cfg)
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 11, size=(2, 16))
        batch, _ = model_forward(tokens, p, cfg, basis16, budget=3)
        for b in range(2):
            alone, _ = model_forward(tokens[b:b + 1], p, cfg, basis16, budget=3)
            assert np.array_equal(alone[0], batch[b])

    def test_deterministic(self, basis16):
        cfg = small_config()
        p = init_model_params(cfg)
        tokens = np.arange(16)[None] % 11
        a, _ = model_forward(tokens, p, cfg, basis16, budget=2)
        b, _ = model_forward(tokens, p, cfg, basis16, budget=2)
        assert np.array_equal(a, b)

    def test_vocabulary_overflow_rejected(self, basis16):
        cfg = small_config()
        p = init_model_params(cfg)
        bad = np.full((1, 16), 11)
        with pytest.raises(StructuralError, match="vocabulary"):
            model_forward(bad, p, cfg, basis16, budget=2)
        neg = np.full((1, 16), -1)
        with pytest.raises(StructuralError, match="vocabulary"):
            model_forward(neg, p, cfg, basis16, budget=2)

    def test_non_integer_tokens_rejected(self, basis16):
        cfg = small_config()
        p = init_model_params(cfg)
        with pytest.raises(StructuralError, match="integer"):
            model_forward(np.zeros((1, 16)), p, cfg, basis16, budget=2)

    def test_wrong_length_rejected(self, basis16):
        cfg = small_config()
        p = init_model_params(cfg)
        with pytest.raises(StructuralError):
            model_forward(np.zeros((1, 8), dtype=int), p, cfg, basis16, budget=2)

    def test_basis_mismatch_rejected(self):
        cfg = small_config()
        p = init_model_params(cfg)
        with pytest.raises(StructuralError):
            model_forward(
                np.zeros((1, 16), dtype=int), p, cfg, build_basis(16, 4), budget=2
            )

    def test_real_input_and_mean_pool(self, basis16):
        cfg = small_config(input_kind="real", in_dim=3, out_dim=4, head="mean-pool")
        p = init_model_params(cfg)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 16, 3))
        out, _ = model_forward(x, p, cfg, basis16, budget=3)
        assert out.shape == (2, 4)

    def test_depth_zero_is_embed_norm_readout(self, basis16):
        cfg = small_config(depth=0)
        p = init_model_params(cfg)
        tokens = np.arange(16)[None] % 11
        out, _ = model_forward(tokens, p, cfg, basis16, budget=2)
        x = p.embed_table[tokens]
        normed, _ = layer_norm_forward(x, p.final_gain, p.final_bias)
        np.testing.assert_allclose(out, normed @ p.readout_w.T + p.readout_b, rtol=1e-12)


class TestOneLayout:
    """Sequences come as a batch; an unbatched input is an error, not a
    second layout."""

    @staticmethod
    def calls(basis16):
        filters, mixing = basis16.scaled_filters[:2], np.ones((2, 3, 3))
        tokens, reals = small_config(), small_config(input_kind="real", in_dim=3)
        lp = init_model_params(tokens).blocks[0].layer
        return {
            "conv_bank": lambda: fft_causal_conv_bank(filters, np.ones((16, 3)), mixing),
            "conv_adjoint": lambda: fft_causal_conv_bank_adjoint(
                filters, np.ones((16, 3)), mixing, np.ones((16, 3)),
                dmixing=np.empty_like(mixing)),
            "layer_forward": lambda: layer_forward(np.ones((16, 6)), lp, basis16, 2),
            "model_forward_tokens": lambda: model_forward(
                np.zeros(16, dtype=int), init_model_params(tokens), tokens, basis16, 2),
            "model_forward_reals": lambda: model_forward(
                np.ones((16, 3)), init_model_params(reals), reals, basis16, 2),
        }

    @pytest.mark.parametrize("name", [
        "conv_bank", "conv_adjoint", "layer_forward",
        "model_forward_tokens", "model_forward_reals",
    ])
    def test_unbatched_input_rejected(self, basis16, name):
        with pytest.raises(StructuralError):
            self.calls(basis16)[name]()


class TestForwardModeFromConfig:
    """The budget is the only runtime input; the config picks the mode."""

    @pytest.mark.parametrize("overrides", [
        {}, {"truncation_mode": "direct"}, {"gate_enabled": False},
    ])
    def test_layers_run_in_the_config_mode(self, basis16, overrides):
        cfg = small_config(depth=1, **overrides)
        p = init_model_params(cfg)
        tokens = np.arange(16)[None] % 11
        out, cache = model_forward(tokens, p, cfg, basis16, budget=3)
        (lcache,) = cache.layer_caches
        assert lcache.gate_enabled == cfg.gate_enabled
        assert lcache.truncation == cfg.truncation_mode
        normed, _ = layer_norm_forward(
            p.embed_table[tokens], p.blocks[0].norm_gain, p.blocks[0].norm_bias
        )
        y, _ = layer_forward(normed, p.blocks[0].layer, basis16, 3,
                             gate_enabled=cfg.gate_enabled,
                             truncation=cfg.truncation_mode)
        features, _ = layer_norm_forward(p.embed_table[tokens] + y, p.final_gain, p.final_bias)
        assert np.array_equal(out, features @ p.readout_w.T + p.readout_b)

    def test_no_per_call_mode_switches(self):
        def names(fn):
            return list(inspect.signature(fn).parameters)

        assert names(model_forward) == ["inputs", "params", "config", "basis", "budget"]
        assert names(evaluate_model) == [
            "params", "config", "basis", "dataset", "budget", "split"]
        assert names(budget_sweep) == [
            "params", "config", "basis", "dataset", "budgets", "split"]
        assert names(model_loss_fn) == [
            "inputs", "targets", "config", "basis", "budget", "mask"]
        assert names(run_ablation) == ["base", "variants", "budgets", "out_dir"]
        assert names(BudgetSampler) == ["mode", "budget_set", "capacity", "seed"]
        assert names(layer_forward) == [
            "u", "p", "basis", "budget", "gate_enabled", "truncation"]

    def test_only_the_layer_and_its_audit_take_a_mode(self):
        takes_mode, hidden = set(), []
        for mod in (backprop, layer, model, sweep, tasks, training):
            for name, fn in vars(mod).items():
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                params = inspect.signature(fn).parameters.values()
                if any(q.name in ("gate_enabled", "truncation") for q in params):
                    takes_mode.add(name)
                hidden += [f"{name}({q.name})" for q in params
                           if q.name.startswith("_") or q.kind is q.VAR_KEYWORD]
        # live_logits is the layer's rule for which gate logits a mode reads
        assert takes_mode == {"layer_forward", "live_logits", "bibo_audit", "bibo_constant"}
        assert hidden == []


class TestCheckpoint:
    def test_bitwise_round_trip(self, basis16, tmp_path):
        cfg = small_config()
        p = init_model_params(cfg)
        path = tmp_path / "model.essm"
        save_checkpoint(path, p, cfg)
        p2, cfg2 = load_checkpoint(path, basis=basis16)
        assert cfg2 == cfg
        for (n1, a), (n2, b) in zip(flatten_params(p, cfg), flatten_params(p2, cfg2)):
            assert n1 == n2
            assert np.array_equal(a, b), n1

    def test_save_is_deterministic(self, tmp_path):
        cfg = small_config()
        p = init_model_params(cfg)
        assert checkpoint_writer(p, cfg).finish() == checkpoint_writer(p, cfg).finish()

    def test_bytes_match_the_recorded_format(self):
        # pins the v1 byte layout: header, canonical JSON, tensors, CRC
        cfg = ModelConfig(seq_len=8, width=4, gate_hidden=4, capacity=4, depth=1,
                          budget_set=(2, 4), input_kind="real", in_dim=2,
                          out_dim=3, seed=0)
        blob = checkpoint_writer(init_model_params(cfg), cfg).finish()
        assert hashlib.sha256(blob).hexdigest() == (
            "a846b7b0e6e114315668a64c1dce2da2bc6fc27b2495d1f4723c35f171aac106"
        )

    def test_corrupted_payload_rejected(self, tmp_path):
        cfg = small_config()
        p = init_model_params(cfg)
        path = tmp_path / "model.essm"
        save_checkpoint(path, p, cfg)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="checksum"):
            load_checkpoint(path)

    def test_invalid_stored_config_rejected_as_artifact(self, tmp_path):
        # the config JSON still parses, but names no precision
        cfg = small_config()
        path = tmp_path / "model.essm"
        save_checkpoint(path, init_model_params(cfg), cfg)
        path.write_bytes(path.read_bytes().replace(b'"float64"', b'"float6x"'))
        with pytest.raises(ArtifactError, match="precision"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        cfg = small_config()
        p = init_model_params(cfg)
        path = tmp_path / "model.essm"
        save_checkpoint(path, p, cfg)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ArtifactError):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "model.essm"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ArtifactError):
            load_checkpoint(path)

    def test_basis_compatibility_enforced(self, tmp_path):
        cfg = small_config()
        p = init_model_params(cfg)
        path = tmp_path / "model.essm"
        save_checkpoint(path, p, cfg)
        with pytest.raises(ArtifactError, match="basis"):
            load_checkpoint(path, basis=build_basis(16, 4))

    def test_trailing_bytes_tolerated(self, tmp_path):
        # training checkpoints append an optimizer block after the container
        cfg = small_config()
        p = init_model_params(cfg)
        path = tmp_path / "model.essm"
        blob = checkpoint_writer(p, cfg).finish()
        path.write_bytes(blob + b"OPTSTATE-PLACEHOLDER")
        p2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg

    def test_loaded_params_own_their_memory(self, tmp_path):
        # the file is mapped while it is read; no tensor may keep a view of it
        cfg = small_config()
        path = tmp_path / "model.essm"
        save_checkpoint(path, init_model_params(cfg), cfg)
        p2, cfg2 = load_checkpoint(path)
        for name, arr in flatten_params(p2, cfg2):
            assert arr.flags.owndata and arr.flags.writeable, name

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "model.essm"
        path.write_bytes(b"")
        with pytest.raises(ArtifactError, match="truncated"):
            load_checkpoint(path)

    def test_blob_with_removed_gate_input_key_loads(self, tmp_path):
        # the container as written while ModelConfig still had gate_input
        cfg = small_config()
        p = init_model_params(cfg)
        w = Writer(CHECKPOINT_MAGIC)
        w.u32(1)
        w.json_block({**cfg.to_dict(), "gate_input": "normalized"})
        for _, arr in flatten_params(p, cfg):
            w.array(arr, cfg.precision)
        path = tmp_path / "old.essm"
        path.write_bytes(w.finish())
        with pytest.warns(UserWarning, match="gate_input"):
            p2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert params_fingerprint(p2, cfg2) == params_fingerprint(p, cfg)

    def test_fingerprint_detects_mutation(self):
        cfg = small_config()
        p = init_model_params(cfg)
        before = params_fingerprint(p, cfg)
        assert params_fingerprint(p, cfg) == before
        p.readout_w[0, 0] += 1e-9
        assert params_fingerprint(p, cfg) != before
