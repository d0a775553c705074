"""Stacked model: init, norms, forward semantics, checkpoint container."""

import numpy as np
import pytest

from elastic_ssm.basis import build_basis
from elastic_ssm.config import ModelConfig
from elastic_ssm.errors import ArtifactError, StructuralError
from elastic_ssm.model import (
    CHECKPOINT_MAGIC,
    checkpoint_bytes,
    flatten_params,
    init_model_params,
    layer_norm_forward,
    layer_param_arrays,
    load_checkpoint,
    model_forward,
    param_order,
    param_schema,
    params_fingerprint,
    params_from_arrays,
    rms_norm_forward,
    save_checkpoint,
)
from elastic_ssm.storage import Writer


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
        assert [(n, a.shape) for n, a in flatten_params(params, cfg)] == param_order(cfg)

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
        out, cache = model_forward(tokens, p, cfg, basis16, budget=3)
        assert out.shape == (4, 16, 11)
        assert cache.flops > 0

    def test_single_sequence_squeeze(self, basis16):
        cfg = small_config()
        p = init_model_params(cfg)
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 11, size=(2, 16))
        batch, _ = model_forward(tokens, p, cfg, basis16, budget=3)
        single, _ = model_forward(tokens[0], p, cfg, basis16, budget=3)
        assert np.array_equal(single, batch[0])

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

    def test_flops_sum_over_blocks(self, basis16):
        cfg = small_config()
        p = init_model_params(cfg)
        tokens = np.zeros((3, 16), dtype=int)
        _, cache = model_forward(tokens, p, cfg, basis16, budget=3)
        assert cache.flops == sum(lc.flops for lc in cache.layer_caches)


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
        assert checkpoint_bytes(p, cfg) == checkpoint_bytes(p, cfg)

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
        blob = checkpoint_bytes(p, cfg)
        path.write_bytes(blob + b"OPTSTATE-PLACEHOLDER")
        p2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg

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
