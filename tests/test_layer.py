"""Gated budgeted layer: gate arithmetic, forward semantics, invariants."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from elastic_ssm.backprop import gelu_grad, layer_backward
from elastic_ssm.basis import build_basis
from elastic_ssm.errors import BudgetError, StructuralError
from elastic_ssm.layer import (
    GateParams,
    LayerParams,
    gate_logits,
    gelu,
    layer_flop_count,
    layer_forward,
    masked_softmax,
    rms_rescale,
)
from elastic_ssm.linalg import fft_causal_conv_bank

from oracles import naive_budgeted_layer, scalar_gelu

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def basis16():
    return build_basis(16, 6)


def random_layer_params(rng, width, gate_hidden, capacity, eps=1e-6):
    return LayerParams(
        mixing=rng.normal(size=(capacity, width, width)),
        skip=rng.normal(size=(width, width)),
        gate=GateParams(
            w_in=rng.normal(size=(gate_hidden, width)),
            b_in=rng.normal(size=gate_hidden),
            w_out=rng.normal(size=(capacity, gate_hidden)),
            b_out=rng.normal(size=capacity),
            eps=eps,
        ),
    )


class TestGelu:
    def test_value_at_one(self):
        assert gelu(1.0) == pytest.approx(0.8413447, abs=1e-7)

    def test_zero_and_symmetry(self):
        assert gelu(0.0) == 0.0
        # x * Phi(x) satisfies gelu(x) - gelu(-x) = x
        x = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(gelu(x) - gelu(-x), x, atol=1e-14)

    def test_matches_scalar_oracle(self):
        xs = np.linspace(-5.0, 5.0, 101)
        expected = [scalar_gelu(float(x)) for x in xs]
        # two independent erf implementations agree to a couple of ulps
        np.testing.assert_allclose(gelu(xs), expected, rtol=5e-14, atol=1e-300)

    def test_grad_matches_finite_differences(self):
        xs = np.linspace(-3.0, 3.0, 25)
        h = 1e-6
        fd = (gelu(xs + h) - gelu(xs - h)) / (2 * h)
        np.testing.assert_allclose(gelu_grad(xs), fd, atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cached_erf_term_gives_the_same_bits(self, dtype):
        # the forward keeps erf(x / sqrt 2) and the backward reuses it; both
        # must equal the one-expression forms bit for bit
        x = np.linspace(-6.0, 6.0, 1001).astype(dtype)
        term = erf(x * INV_SQRT2)
        assert np.array_equal(gelu(x, term), x * 0.5 * (1.0 + erf(x * INV_SQRT2)))
        assert np.array_equal(gelu(x, term), gelu(x))
        want = 0.5 * (1.0 + erf(x * INV_SQRT2)) + x * (
            np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi)))
        assert np.array_equal(gelu_grad(x), want)
        assert np.array_equal(gelu_grad(x, term), want)
        assert gelu_grad(x, term).dtype == dtype


class TestRmsRescale:
    def test_worked_example(self):
        # norm of (3, 4) is 5; sqrt(2)/(5 + eps) * (3, 4)
        out = rms_rescale(np.array([3.0, 4.0]), budget=2, eps=1e-6)
        np.testing.assert_allclose(out, [0.8485, 1.1314], atol=1e-4)
        np.testing.assert_allclose(
            out, np.array([3.0, 4.0]) * math.sqrt(2) / (5 + 1e-6), rtol=1e-15
        )

    def test_reads_only_active_prefix(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(4, 7, 6))
        out = rms_rescale(s, budget=3, eps=1e-6)
        assert out.shape == (4, 7, 3)
        tampered = s.copy()
        tampered[..., 3:] = 1e9
        assert np.array_equal(rms_rescale(tampered, budget=3, eps=1e-6), out)

    def test_zero_input_is_zero(self):
        out = rms_rescale(np.zeros(5), budget=5, eps=1e-6)
        assert np.array_equal(out, np.zeros(5))

    def test_result_norm_saturates_at_sqrt_budget(self):
        # ||z|| = sqrt(K) * n / (n + eps) < sqrt(K)
        rng = np.random.default_rng(1)
        s = rng.normal(size=(100, 8)) * 100
        norms = np.linalg.norm(rms_rescale(s, budget=8, eps=1e-6), axis=-1)
        assert np.all(norms < math.sqrt(8))
        assert np.all(norms > math.sqrt(8) * 0.999)

    def test_budget_bounds(self):
        with pytest.raises(StructuralError):
            rms_rescale(np.zeros(4), budget=0, eps=1e-6)
        with pytest.raises(StructuralError):
            rms_rescale(np.zeros(4), budget=5, eps=1e-6)


class TestMaskedSoftmax:
    def test_worked_example(self):
        out = masked_softmax(np.array([math.log(2.0), 0.0]), budget=2, capacity=6)
        np.testing.assert_allclose(out[:2], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)
        assert np.array_equal(out[2:], np.zeros(4))

    def test_exact_zeros_beyond_budget(self):
        rng = np.random.default_rng(2)
        out = masked_softmax(rng.normal(size=(5, 9, 4)), budget=4, capacity=12)
        zeros = out[..., 4:]
        assert zeros.shape == (5, 9, 8)
        assert np.all(zeros == 0.0)

    def test_simplex(self):
        rng = np.random.default_rng(3)
        out = masked_softmax(rng.normal(size=(50, 3)) * 5, budget=3, capacity=8)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-12)
        assert np.all(out >= 0.0)

    def test_overflow_safe(self):
        out = masked_softmax(np.array([1e4, 1e4 - 5.0]), budget=2, capacity=2)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-12)


class TestGateLogits:
    def test_matches_manual_computation(self):
        rng = np.random.default_rng(4)
        g = GateParams(
            w_in=rng.normal(size=(5, 3)),
            b_in=rng.normal(size=5),
            w_out=rng.normal(size=(7, 5)),
            b_out=rng.normal(size=7),
        )
        u = rng.normal(size=3)
        hidden = np.array([scalar_gelu(float(g.w_in[i] @ u + g.b_in[i])) for i in range(5)])
        expected = g.w_out @ hidden + g.b_out
        np.testing.assert_allclose(gate_logits(u, g), expected, rtol=1e-12)

    def test_batched_matches_per_timestep(self):
        rng = np.random.default_rng(5)
        g = GateParams(
            w_in=rng.normal(size=(4, 3)),
            b_in=rng.normal(size=4),
            w_out=rng.normal(size=(6, 4)),
            b_out=rng.normal(size=6),
        )
        u = rng.normal(size=(2, 9, 3))
        out = gate_logits(u, g)
        assert out.shape == (2, 9, 6)
        for b in range(2):
            for t in range(9):
                np.testing.assert_allclose(
                    out[b, t], gate_logits(u[b, t], g), rtol=1e-12
                )

    def test_width_mismatch(self):
        g = GateParams(
            w_in=np.zeros((4, 3)), b_in=np.zeros(4),
            w_out=np.zeros((6, 4)), b_out=np.zeros(6),
        )
        with pytest.raises(StructuralError):
            gate_logits(np.zeros(5), g)


class TestLayerForward:
    def test_matches_naive_evaluator(self, basis16):
        rng = np.random.default_rng(42)
        for draw in range(50):
            p = random_layer_params(rng, width=2, gate_hidden=3, capacity=6)
            u = rng.normal(size=(16, 2))
            budget = (2, 3, 6)[draw % 3]
            out = layer_forward(u[None], p, basis16, budget)[0][0]
            expected = naive_budgeted_layer(
                u, p.mixing, p.skip, p.gate.w_in, p.gate.b_in,
                p.gate.w_out, p.gate.b_out, p.gate.eps,
                basis16.eigenvalues, basis16.filters, budget,
            )
            np.testing.assert_allclose(out, expected, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_keeps_the_one_expression_gelu(self, basis16, dtype):
        # the cache holds erf(pre / sqrt 2) in place of the hidden layer; the
        # output and logits stay those of x * 0.5 * (1 + erf(x / sqrt 2))
        rng = np.random.default_rng(43)
        p = random_layer_params(rng, width=4, gate_hidden=5, capacity=6)
        p = dataclasses.replace(
            p, mixing=p.mixing.astype(dtype), skip=p.skip.astype(dtype),
            gate=GateParams(*(a.astype(dtype) for a in (
                p.gate.w_in, p.gate.b_in, p.gate.w_out, p.gate.b_out))))
        u = rng.normal(size=(3, 16, 4)).astype(dtype)
        out, cache = layer_forward(u, p, basis16, budget=3)
        pre = u @ p.gate.w_in.T + p.gate.b_in
        hidden = pre * 0.5 * (1.0 + erf(pre * INV_SQRT2))
        logits = hidden @ p.gate.w_out.T + p.gate.b_out
        weights = masked_softmax(rms_rescale(logits, 3, p.gate.eps), 3, 6)[..., :3]
        want = fft_causal_conv_bank(basis16.scaled_filters[:3], u, p.mixing[:3], weights)
        want += u @ p.skip.T
        assert out.dtype == dtype
        assert np.array_equal(cache.gelu_erf, erf(pre * INV_SQRT2))
        assert np.array_equal(cache.logits, logits)
        assert np.array_equal(out, want)

    def test_weights_form_simplex(self, basis16):
        rng = np.random.default_rng(6)
        p = random_layer_params(rng, width=4, gate_hidden=5, capacity=6)
        u = rng.normal(size=(3, 16, 4))
        _, cache = layer_forward(u, p, basis16, budget=3)
        np.testing.assert_allclose(cache.weights.sum(axis=-1), 1.0, rtol=1e-12)
        assert np.all(cache.weights >= 0.0)

    def test_masked_forward_ignores_inactive_parameter_rows(self, basis16):
        rng = np.random.default_rng(7)
        p = random_layer_params(rng, width=4, gate_hidden=5, capacity=6)
        u = rng.normal(size=(1, 16, 4))
        out, _ = layer_forward(u, p, basis16, budget=3, truncation="masked")
        p.mixing[3:] = rng.normal(size=(3, 4, 4)) * 100
        p.gate.w_out[3:] = rng.normal(size=(3, 5)) * 100
        p.gate.b_out[3:] = 1e6
        out2, _ = layer_forward(u, p, basis16, budget=3, truncation="masked")
        assert np.array_equal(out, out2)

    def test_direct_forward_does_read_inactive_gate_rows(self, basis16):
        rng = np.random.default_rng(8)
        p = random_layer_params(rng, width=4, gate_hidden=5, capacity=6)
        u = rng.normal(size=(1, 16, 4))
        out, _ = layer_forward(u, p, basis16, budget=3, truncation="direct")
        p.gate.b_out[3:] += 5.0  # shifts the full-capacity softmax
        out2, _ = layer_forward(u, p, basis16, budget=3, truncation="direct")
        assert not np.allclose(out, out2)

    def test_masked_equals_direct_at_full_capacity(self, basis16):
        rng = np.random.default_rng(9)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(2, 16, 3))
        masked, _ = layer_forward(u, p, basis16, budget=6, truncation="masked")
        direct, _ = layer_forward(u, p, basis16, budget=6, truncation="direct")
        assert np.array_equal(masked, direct)

    def test_direct_mode_drops_mass_without_renormalizing(self, basis16):
        rng = np.random.default_rng(10)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(1, 16, 3))
        _, cache = layer_forward(u, p, basis16, budget=3, truncation="direct")
        sums = cache.weights.sum(axis=-1)
        assert np.all(sums < 1.0)
        np.testing.assert_allclose(
            cache.weights, cache.weights_full[..., :3], rtol=0, atol=0
        )

    def test_gate_disabled_unit_weights(self, basis16):
        rng = np.random.default_rng(11)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(1, 16, 3))
        out, cache = layer_forward(u, p, basis16, budget=3, gate_enabled=False)
        assert cache.weights is None  # unit weights are implied, never stored
        expected = u @ p.skip.T
        for k in range(3):
            # one channel through a unit mixing matrix: filter_k convolved with u
            feat = fft_causal_conv_bank(basis16.scaled_filters[k:k + 1], u, np.eye(3)[None])
            expected = expected + feat[0] @ p.mixing[k].T
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode", [
        {}, {"truncation": "direct"}, {"gate_enabled": False},
    ])
    def test_cache_holds_only_per_timestep_arrays(self, basis16, mode):
        # nothing K-sized outlives the call: the backward recomputes features
        rng = np.random.default_rng(14)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(2, 16, 3))
        _, cache = layer_forward(u, p, basis16, budget=3, **mode)
        arrays = {f.name: getattr(cache, f.name) for f in dataclasses.fields(cache)
                  if isinstance(getattr(cache, f.name), np.ndarray)}
        assert "u" in arrays
        assert ("weights" in arrays) == mode.get("gate_enabled", True)
        for name, arr in arrays.items():
            assert arr.shape[:2] == (2, 16), name

    @pytest.mark.parametrize("mode", [{}, {"gate_enabled": False}])
    def test_peaks_do_not_grow_with_the_budget(self, mode):
        # B*L = 2*K*d at K=32: the (K, d, d) mixing gradient is half of one
        # (B, L, d) array, where (B, K, d, L) features would be K of them
        basis = build_basis(512, 32)
        rng = np.random.default_rng(15)
        p = random_layer_params(rng, width=64, gate_hidden=16, capacity=32)
        u = rng.normal(size=(8, 512, 64))

        def peaks(budget):
            tracemalloc.start()
            try:
                out, cache = layer_forward(u, p, basis, budget, **mode)
                forward = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                layer_backward(np.ones_like(out), cache)
                return forward, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for small, large in zip(peaks(4), peaks(32)):
            assert large <= 1.25 * small

    def test_causality(self, basis16):
        rng = np.random.default_rng(12)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(1, 16, 3))
        out, _ = layer_forward(u, p, basis16, budget=3)
        u2 = u.copy()
        u2[0, 9:] += rng.normal(size=(7, 3))
        out2, _ = layer_forward(u2, p, basis16, budget=3)
        scale = np.abs(out[0, :9]).max()
        np.testing.assert_allclose(out2[0, :9], out[0, :9], atol=1e-9 * (1 + scale))

    def test_single_matches_batch(self, basis16):
        rng = np.random.default_rng(13)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(3, 16, 3))
        batched, _ = layer_forward(u, p, basis16, budget=2)
        for b in range(3):
            single, _ = layer_forward(u[b:b + 1], p, basis16, budget=2)
            assert np.array_equal(single[0], batched[b])

    def test_budget_one_rejected_with_dedicated_message(self, basis16):
        rng = np.random.default_rng(14)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(1, 16, 3))
        with pytest.raises(BudgetError, match="budget 1"):
            layer_forward(u, p, basis16, budget=1)

    def test_budget_bounds_rejected(self, basis16):
        rng = np.random.default_rng(15)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        u = rng.normal(size=(1, 16, 3))
        for bad in (0, -2, 7):
            with pytest.raises(BudgetError):
                layer_forward(u, p, basis16, budget=bad)

    def test_shape_mismatches_rejected(self, basis16):
        rng = np.random.default_rng(16)
        p = random_layer_params(rng, width=3, gate_hidden=4, capacity=6)
        with pytest.raises(StructuralError):  # wrong length
            layer_forward(rng.normal(size=(1, 8, 3)), p, basis16, budget=2)
        with pytest.raises(StructuralError):  # wrong width
            layer_forward(rng.normal(size=(1, 16, 5)), p, basis16, budget=2)
        p5 = random_layer_params(rng, width=3, gate_hidden=4, capacity=5)
        with pytest.raises(StructuralError):  # capacity mismatch with basis
            layer_forward(rng.normal(size=(1, 16, 3)), p5, basis16, budget=2)


class TestLayerFlopCount:
    def test_formula(self):
        L, d, dg, cap, K, B = 256, 64, 16, 32, 8, 3
        log2l = 8
        expected = B * (K + 1) * d * L * log2l + B * L * (
            K * d * d + d * d + dg * d + cap * dg + K
        )
        assert layer_flop_count(L, d, dg, cap, K, batch=B) == expected

    def test_exactly_affine_in_budget(self):
        budgets = [2, 3, 4, 6, 8, 12, 16, 24, 32]
        counts = [layer_flop_count(1024, 256, 64, 32, k) for k in budgets]
        slopes = {
            (counts[i + 1] - counts[i]) // (budgets[i + 1] - budgets[i])
            for i in range(len(budgets) - 1)
        }
        assert len(slopes) == 1  # one exact integer slope: affine in K
        rema = {
            (counts[i + 1] - counts[i]) % (budgets[i + 1] - budgets[i])
            for i in range(len(budgets) - 1)
        }
        assert rema == {0}

    def test_integer_exact_for_power_of_two_lengths(self):
        assert isinstance(layer_flop_count(64, 8, 4, 32, 4), int)
        assert isinstance(layer_flop_count(1024, 256, 64, 32, 32), int)

    def test_monotone_in_budget(self):
        counts = [layer_flop_count(128, 16, 8, 32, k) for k in range(2, 33)]
        assert all(b > a for a, b in zip(counts, counts[1:]))
