"""Analytic gradients: losses, layer/model backward, finite-difference checks."""

import numpy as np
import pytest

import elastic_ssm.backprop as backprop_module
from elastic_ssm.backprop import (
    finite_diff_check,
    layer_backward,
    mean_squared_error,
    model_backward,
    model_loss_fn,
    norm_backward,
    softmax_cross_entropy,
)
from elastic_ssm.basis import build_basis
from elastic_ssm.config import ModelConfig
from elastic_ssm.errors import NumericError, StructuralError
from elastic_ssm.layer import layer_forward
from elastic_ssm.model import (
    flatten_params,
    init_model_params,
    layer_norm_forward,
    model_forward,
    rms_norm_forward,
)
from test_layer import random_layer_params


@pytest.fixture(scope="module")
def basis16():
    return build_basis(16, 6)


@pytest.fixture(scope="module")
def basis8():
    return build_basis(8, 6)


def tiny_config(**overrides):
    base = dict(
        width=4, gate_hidden=4, depth=1, seq_len=8, capacity=6,
        budget_set=(2, 3, 6), vocab_size=7, out_dim=7, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestSoftmaxCrossEntropy:
    def test_matches_manual_nll(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 5, 4))
        targets = rng.integers(0, 4, size=(3, 5))
        loss, _ = softmax_cross_entropy(logits, targets)
        manual = 0.0
        for b in range(3):
            for t in range(5):
                z = logits[b, t]
                manual += -(z[targets[b, t]] - np.log(np.exp(z).sum()))
        np.testing.assert_allclose(loss, manual / 15, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 3, 4))
        targets = rng.integers(0, 4, size=(2, 3))
        _, grad = softmax_cross_entropy(logits, targets)
        h = 1e-6
        for idx in np.ndindex(logits.shape):
            lp = logits.copy(); lp[idx] += h
            lm = logits.copy(); lm[idx] -= h
            fd = (softmax_cross_entropy(lp, targets)[0]
                  - softmax_cross_entropy(lm, targets)[0]) / (2 * h)
            assert abs(fd - grad[idx]) < 1e-8

    def test_mask_excludes_positions(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 6, 5))
        targets = rng.integers(0, 5, size=(2, 6))
        mask = np.zeros((2, 6), dtype=bool)
        mask[:, 3:] = True
        loss, grad = softmax_cross_entropy(logits, targets, mask)
        # changing a masked-out target must not move the loss
        tampered = targets.copy()
        tampered[:, 0] = (targets[:, 0] + 1) % 5
        loss2, _ = softmax_cross_entropy(logits, tampered, mask)
        assert loss == loss2
        assert np.all(grad[:, :3] == 0.0)

    def test_huge_logits_stable(self):
        logits = np.array([[1e4, 1e4 - 3.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_empty_mask_rejected(self):
        with pytest.raises(StructuralError):
            softmax_cross_entropy(
                np.zeros((1, 2, 3)), np.zeros((1, 2), dtype=int),
                np.zeros((1, 2), dtype=bool),
            )


class TestMeanSquaredError:
    def test_value_and_gradient(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(2, 4, 3))
        target = rng.normal(size=(2, 4, 3))
        loss, grad = mean_squared_error(pred, target)
        np.testing.assert_allclose(loss, np.mean((pred - target) ** 2), rtol=1e-12)
        np.testing.assert_allclose(grad, 2 * (pred - target) / pred.size, rtol=1e-12)

    def test_masked_average(self):
        pred = np.ones((1, 4, 2))
        target = np.zeros((1, 4, 2))
        mask = np.array([[True, True, False, False]])
        loss, grad = mean_squared_error(pred, target, mask)
        assert loss == pytest.approx(1.0)
        assert np.all(grad[0, 2:] == 0.0)


class TestNormBackward:
    @pytest.mark.parametrize("forward", [layer_norm_forward, rms_norm_forward])
    def test_matches_finite_differences(self, forward):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 5))
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)
        upstream = rng.normal(size=(2, 3, 5))

        def loss_of(xv, gv, bv):
            out, _ = forward(xv, gv, bv)
            return float(np.sum(out * upstream))

        _, cache = forward(x, gain, bias)
        dx, dgain, dbias = norm_backward(upstream, cache)
        h = 1e-6
        for idx in [(0, 1, 2), (1, 0, 4), (0, 2, 0)]:
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fd = (loss_of(xp, gain, bias) - loss_of(xm, gain, bias)) / (2 * h)
            np.testing.assert_allclose(dx[idx], fd, rtol=1e-6, atol=1e-9)
        for j in range(5):
            gp = gain.copy(); gp[j] += h
            gm = gain.copy(); gm[j] -= h
            fd = (loss_of(x, gp, bias) - loss_of(x, gm, bias)) / (2 * h)
            np.testing.assert_allclose(dgain[j], fd, rtol=1e-6, atol=1e-9)
            bp = bias.copy(); bp[j] += h
            bm = bias.copy(); bm[j] -= h
            fd = (loss_of(x, gain, bp) - loss_of(x, gain, bm)) / (2 * h)
            np.testing.assert_allclose(dbias[j], fd, rtol=1e-6, atol=1e-9)


class TestLayerBackward:
    @pytest.mark.parametrize("mode,gate_on,budget", [
        ("masked", True, 3),
        ("masked", True, 6),
        ("direct", True, 3),
        ("masked", False, 3),
    ])
    def test_finite_differences(self, basis16, mode, gate_on, budget):
        rng = np.random.default_rng(5)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(2, 16, 3))
        upstream = rng.normal(size=(2, 16, 3))

        def scalar_loss():
            out, _ = layer_forward(
                u, p, basis16, budget, gate_enabled=gate_on, truncation=mode
            )
            return float(np.sum(out * upstream))

        out, cache = layer_forward(
            u, p, basis16, budget, gate_enabled=gate_on, truncation=mode
        )
        du, grads = layer_backward(upstream, cache)
        h = 1e-6
        tensors = {
            "mixing": p.mixing, "skip": p.skip,
            "gate.w_in": p.gate.w_in, "gate.b_in": p.gate.b_in,
            "gate.w_out": p.gate.w_out, "gate.b_out": p.gate.b_out,
        }
        for name, arr in tensors.items():
            flat = arr.reshape(-1)
            for pick in range(0, flat.size, max(1, flat.size // 6)):
                orig = flat[pick]
                flat[pick] = orig + h
                lp = scalar_loss()
                flat[pick] = orig - h
                lm = scalar_loss()
                flat[pick] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[name].reshape(-1)[pick]
                assert abs(fd - an) < 1e-6 * max(1.0, abs(fd)), (name, pick)
        uflat = u.reshape(-1)
        for pick in range(0, uflat.size, max(1, uflat.size // 8)):
            orig = uflat[pick]
            uflat[pick] = orig + h
            lp = scalar_loss()
            uflat[pick] = orig - h
            lm = scalar_loss()
            uflat[pick] = orig
            fd = (lp - lm) / (2 * h)
            an = du.reshape(-1)[pick]
            assert abs(fd - an) < 1e-6 * max(1.0, abs(fd)), ("input", pick)

    def test_finite_differences_on_the_fft_path(self, basis16, fft_path):
        # every gradcheck runs at L <= 16, where the bank convolves directly
        self.test_finite_differences(basis16, "masked", True, 3)

    def test_masked_mode_inactive_rows_bitwise_zero(self, basis16):
        rng = np.random.default_rng(6)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(2, 16, 3))
        _, cache = layer_forward(u, p, basis16, budget=3, truncation="masked")
        _, grads = layer_backward(rng.normal(size=(2, 16, 3)), cache)
        assert np.array_equal(grads["mixing"][3:], np.zeros((3, 3, 3)))
        assert np.array_equal(grads["gate.w_out"][3:], np.zeros((3, 4)))
        assert np.array_equal(grads["gate.b_out"][3:], np.zeros(3))
        # active rows are live
        assert np.abs(grads["mixing"][:3]).max() > 0
        assert np.abs(grads["gate.w_out"][:3]).max() > 0

    def test_direct_mode_gate_rows_all_live(self, basis16):
        rng = np.random.default_rng(7)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(2, 16, 3))
        _, cache = layer_forward(u, p, basis16, budget=3, truncation="direct")
        _, grads = layer_backward(rng.normal(size=(2, 16, 3)), cache)
        # full-capacity softmax routes gradient into every gate row...
        assert np.abs(grads["gate.w_out"][3:]).max() > 0
        # ...but the mixing rows beyond the budget still never participate
        assert np.array_equal(grads["mixing"][3:], np.zeros((3, 3, 3)))

    def test_gate_disabled_gate_grads_zero(self, basis16):
        rng = np.random.default_rng(8)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(1, 16, 3))
        _, cache = layer_forward(u, p, basis16, budget=3, gate_enabled=False)
        _, grads = layer_backward(rng.normal(size=(1, 16, 3)), cache)
        for name in ("gate.w_in", "gate.b_in", "gate.w_out", "gate.b_out"):
            assert np.all(grads[name] == 0.0)
        assert np.abs(grads["mixing"][:3]).max() > 0


class TestModelGradcheck:
    def test_token_model_masked(self, basis8):
        cfg = tiny_config()
        params = init_model_params(cfg)
        rng = np.random.default_rng(9)
        tokens = rng.integers(0, 7, size=(2, 8))
        targets = rng.integers(0, 7, size=(2, 8))
        for budget in (2, 6):
            fn = model_loss_fn(tokens, targets, cfg, basis8, budget)
            report = finite_diff_check(fn, params, cfg, n_coords=80, seed=10)
            assert report.passed, report.line()
            assert report.max_rel_err < 1e-4

    def test_depth_two_real_regression(self, basis8):
        cfg = tiny_config(depth=2, input_kind="real", in_dim=2, out_dim=3)
        params = init_model_params(cfg)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 8, 2))
        y = rng.normal(size=(2, 8, 3))
        fn = model_loss_fn(x, y, cfg, basis8, 3)
        report = finite_diff_check(fn, params, cfg, n_coords=100, seed=12)
        assert report.passed, report.line()

    def test_direct_truncation_and_mean_pool(self, basis8):
        cfg = tiny_config(truncation_mode="direct", head="mean-pool",
                          input_kind="real", in_dim=2, out_dim=3,
                          norm_kind="rmsnorm")
        params = init_model_params(cfg)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 8, 2))
        y = rng.normal(size=(3, 3))
        fn = model_loss_fn(x, y, cfg, basis8, 3)
        report = finite_diff_check(fn, params, cfg, n_coords=80, seed=14)
        assert report.passed, report.line()

    def test_masked_ce_gradcheck(self, basis8):
        cfg = tiny_config()
        params = init_model_params(cfg)
        rng = np.random.default_rng(15)
        tokens = rng.integers(0, 7, size=(2, 8))
        targets = rng.integers(0, 7, size=(2, 8))
        mask = np.zeros((2, 8), dtype=bool)
        mask[:, 4:] = True
        fn = model_loss_fn(tokens, targets, cfg, basis8, 3, mask=mask)
        report = finite_diff_check(fn, params, cfg, n_coords=60, seed=16)
        assert report.passed, report.line()

    def test_inactive_rows_bitwise_zero_through_model(self, basis8):
        cfg = tiny_config(depth=2)
        params = init_model_params(cfg)
        rng = np.random.default_rng(17)
        tokens = rng.integers(0, 7, size=(2, 8))
        out, cache = model_forward(tokens, params, cfg, basis8, budget=3)
        targets = rng.integers(0, 7, size=(2, 8))
        loss, dout = softmax_cross_entropy(out, targets)
        grads = model_backward(dout, cache)
        for i in range(2):
            assert np.all(grads[f"block{i}.mixing"][3:] == 0.0)
            assert np.all(grads[f"block{i}.gate.w_out"][3:] == 0.0)
            assert np.all(grads[f"block{i}.gate.b_out"][3:] == 0.0)

    def test_corrupted_backward_fails_the_check(self, basis8):
        cfg = tiny_config()
        params = init_model_params(cfg)
        rng = np.random.default_rng(18)
        tokens = rng.integers(0, 7, size=(2, 8))
        targets = rng.integers(0, 7, size=(2, 8))
        honest = model_loss_fn(tokens, targets, cfg, basis8, 3)

        def corrupted(p):
            loss, grads = honest(p)
            grads = dict(grads)
            grads["readout.w"] = grads["readout.w"] * 1.02
            return loss, grads

        report = finite_diff_check(corrupted, params, cfg, n_coords=80, seed=19)
        assert not report.passed

    def test_every_tensor_probed(self, basis8):
        cfg = tiny_config(depth=2)
        params = init_model_params(cfg)
        n_tensors = len(flatten_params(params, cfg))
        rng = np.random.default_rng(20)
        tokens = rng.integers(0, 7, size=(1, 8))
        targets = rng.integers(0, 7, size=(1, 8))
        fn = model_loss_fn(tokens, targets, cfg, basis8, 2)
        with pytest.raises(StructuralError, match="span"):
            finite_diff_check(fn, params, cfg, n_coords=n_tensors - 1)

    def test_float32_rejected(self, basis8):
        cfg = tiny_config(precision="float32")
        params = init_model_params(cfg)
        rng = np.random.default_rng(21)
        tokens = rng.integers(0, 7, size=(1, 8))
        targets = rng.integers(0, 7, size=(1, 8))
        fn = model_loss_fn(tokens, targets, cfg, basis8, 2)
        with pytest.raises(NumericError, match="float64"):
            finite_diff_check(fn, params, cfg, n_coords=60)

    @pytest.mark.parametrize("budget", [3, 6])
    def test_float32_stays_float32_and_tracks_float64(self, basis8, budget):
        cfg32 = tiny_config(depth=2, precision="float32")
        cfg64 = tiny_config(depth=2)
        p32 = init_model_params(cfg32)
        p64 = init_model_params(cfg64)
        for (_, a32), (_, a64) in zip(flatten_params(p32, cfg32), flatten_params(p64, cfg64)):
            a64[...] = a32  # the same starting point in both precisions
        rng = np.random.default_rng(24)
        tokens = rng.integers(0, 7, size=(2, 8))
        targets = rng.integers(0, 7, size=(2, 8))
        runs = {}
        for cfg, params in ((cfg32, p32), (cfg64, p64)):
            out, cache = model_forward(tokens, params, cfg, basis8, budget)
            _, dout = softmax_cross_entropy(out, targets)
            runs[cfg.precision] = {"out": out, **model_backward(dout, cache)}
        for name, want in runs["float64"].items():
            got = runs["float32"][name]
            assert got.dtype == np.float32, name
            scale = max(float(np.max(np.abs(want))), 1e-30)
            assert np.max(np.abs(got - want)) <= 1e-5 * scale, name

    def test_report_line_format(self, basis8):
        cfg = tiny_config()
        params = init_model_params(cfg)
        rng = np.random.default_rng(22)
        tokens = rng.integers(0, 7, size=(1, 8))
        targets = rng.integers(0, 7, size=(1, 8))
        fn = model_loss_fn(tokens, targets, cfg, basis8, 2)
        report = finite_diff_check(fn, params, cfg, n_coords=40, seed=23)
        text = report.line()
        assert "gradcheck" in text and "max relative error" in text
        assert ("PASS" if report.passed else "FAIL") in text


# ---------------------------------------------------------------------------
# weight gradients: one GEMM per site, checked against the einsum definitions
# ---------------------------------------------------------------------------


def einsum_weight_grad(a, b, out):
    """The definition of every weight-gradient site: ``out[i, j]`` is the sum
    over the leading axes of ``a[..., i] * b[..., j]``."""
    lead = "abcdefgh"[: a.ndim - 1]
    out[...] = np.einsum(f"{lead}i,{lead}j->ij", a, b)


def backward_both_ways(monkeypatch, backward):
    """``backward()``'s gradients through the GEMM helper and through the
    einsum definitions, and the output shapes of the helper's calls."""
    gemm, calls = backprop_module._weight_grad, []

    def counted(a, b, out):
        calls.append(out.shape)
        gemm(a, b, out=out)

    monkeypatch.setattr(backprop_module, "_weight_grad", counted)
    fast = backward()
    monkeypatch.setattr(backprop_module, "_weight_grad", einsum_weight_grad)
    return fast, backward(), calls


def assert_rel_close(got, want, rtol):
    for name, ref in want.items():
        assert got[name].dtype == ref.dtype, name
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.max(np.abs(got[name] - ref)) <= rtol * scale, name
        # inactive rows are zero on both sides, bitwise
        assert np.array_equal(got[name] == 0.0, ref == 0.0), name


class TestWeightGradients:
    @pytest.mark.parametrize("mode,gate_on", [
        ("masked", True), ("direct", True), ("masked", False),
    ])
    @pytest.mark.parametrize("contiguous", [True, False])
    def test_layer_backward_matches_einsum(self, basis16, monkeypatch, mode,
                                           gate_on, contiguous):
        rng = np.random.default_rng(31)
        p = random_layer_params(rng, width=5, gate_hidden=4, capacity=6)
        u = rng.normal(size=(3, 16, 5))
        _, cache = layer_forward(u, p, basis16, 3, gate_enabled=gate_on,
                                 truncation=mode)
        upstream = rng.normal(size=(3, 5, 16)).transpose(0, 2, 1)
        if contiguous:
            upstream = np.ascontiguousarray(upstream)
        fast, slow, calls = backward_both_ways(
            monkeypatch, lambda: layer_backward(upstream, cache))
        assert len(calls) == (3 if gate_on else 1)  # skip, gate.w_out, gate.w_in
        np.testing.assert_allclose(fast[0], slow[0], rtol=1e-12, atol=0)
        assert_rel_close(fast[1], slow[1], 1e-12)

    @pytest.mark.parametrize("kind,head,gate_on,mode", [
        ("tokens", "per-step", True, "masked"),
        ("tokens", "mean-pool", True, "direct"),
        ("real", "per-step", True, "direct"),
        ("real", "mean-pool", False, "masked"),
    ])
    def test_model_backward_matches_einsum(self, basis8, monkeypatch, kind, head,
                                           gate_on, mode):
        extra = {} if kind == "tokens" else dict(input_kind="real", in_dim=2, out_dim=3)
        cfg = tiny_config(depth=2, head=head, gate_enabled=gate_on,
                          truncation_mode=mode, **extra)
        params = init_model_params(cfg)
        rng = np.random.default_rng(32)
        x = (rng.integers(0, 7, size=(3, 8)) if kind == "tokens"
             else rng.normal(size=(3, 8, 2)))
        out, cache = model_forward(x, params, cfg, basis8, 3)
        # a non-contiguous upstream gradient, as a transposed view
        dout = rng.normal(size=out.shape[::-1]).T
        assert not dout.flags.c_contiguous
        fast, slow, calls = backward_both_ways(
            monkeypatch, lambda: model_backward(dout, cache))
        per_layer = 3 if gate_on else 1
        assert len(calls) == 2 * per_layer + (1 if kind == "tokens" else 2)
        assert_rel_close(fast, slow, 1e-12)

    def test_float32_stays_float32(self, basis8, monkeypatch):
        cfg = tiny_config(depth=2, input_kind="real", in_dim=2, out_dim=3,
                          precision="float32")
        params = init_model_params(cfg)
        rng = np.random.default_rng(33)
        out, cache = model_forward(rng.normal(size=(3, 8, 2)).astype(np.float32),
                                   params, cfg, basis8, 3)
        dout = rng.normal(size=out.shape).astype(np.float32)
        fast, slow, _ = backward_both_ways(monkeypatch, lambda: model_backward(dout, cache))
        assert all(g.dtype == np.float32 for g in fast.values())
        assert_rel_close(fast, slow, 1e-5)
