"""Kernels: causal convolution and the spectral branch."""

import tracemalloc

import numpy as np
import pytest

from elastic_ssm import linalg
from elastic_ssm.errors import StructuralError
from elastic_ssm.linalg import (
    _bank_spectra,
    fft_causal_conv_bank,
    fft_causal_conv_bank_adjoint,
    next_pow2,
)

from oracles import direct_causal_conv, scalar_causal_conv


class TestDirectCausalConv:
    def test_identity_filter(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(9, 3))
        f = np.zeros(9)
        f[0] = 1.0
        np.testing.assert_allclose(direct_causal_conv(f, s), s)

    def test_unit_delay(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(6, 2))
        f = np.zeros(6)
        f[1] = 1.0
        out = direct_causal_conv(f, s)
        np.testing.assert_allclose(out[0], 0.0)
        np.testing.assert_allclose(out[1:], s[:-1])

    def test_hand_expansion(self):
        out = direct_causal_conv([1.0, 1.0, 1.0, 0.0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(out, [1.0, 3.0, 6.0, 9.0])

    def test_matches_scalar_loops(self):
        rng = np.random.default_rng(2)
        for length in (1, 2, 5, 12):
            f = rng.normal(size=length)
            s = rng.normal(size=(length, 3))
            np.testing.assert_allclose(
                direct_causal_conv(f, s), scalar_causal_conv(f, s), atol=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            direct_causal_conv(np.ones(4), np.ones((5, 2)))


def one_hot_mixing(num: int, width: int) -> np.ndarray:
    """(K, K*d, d) mixing stack that puts channel k in output columns k*d..k*d+d."""
    return np.eye(num * width).reshape(num, width, num * width).transpose(0, 2, 1)


def bank_channels(filters, signal):
    """Every filter convolved with every sequence, (B, K, L, d), from one bank call."""
    num, (batch, length, width) = len(filters), signal.shape
    out = fft_causal_conv_bank(filters, signal, one_hot_mixing(num, width))
    return out.reshape(batch, length, num, width).transpose(0, 2, 1, 3)


def conv_one(filt, signal):
    """One filter against one (L, d) sequence: the bank at K = B = 1, as (L, d)."""
    signal = np.asarray(signal)
    return fft_causal_conv_bank(np.asarray(filt)[None], signal[None],
                                np.eye(signal.shape[1])[None])[0]


class BankContract:
    """What the spectral branch promises on either path; each subclass runs
    it on one.  The lengths here are short, so the direct path is the
    default."""

    def test_matches_direct_on_200_random_instances(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            length = int(rng.integers(1, 65))
            d = int(rng.integers(1, 4))
            f = rng.normal(size=length)
            s = rng.normal(size=(length, d))
            got = conv_one(f, s)
            want = direct_causal_conv(f, s)
            bound = 1e-6 * (1.0 + np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= bound, f"trial {trial}"

    def test_degenerate_length_one(self):
        out = conv_one(np.array([2.5]), np.array([[3.0]]))
        np.testing.assert_allclose(out, [[7.5]])

    def test_zero_signal(self):
        out = conv_one(np.ones(8), np.zeros((8, 2)))
        np.testing.assert_allclose(out, 0.0)

    def test_causality_perturbation(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=16)
        s = rng.normal(size=(16, 2))
        base_fft = conv_one(f, s)
        base_direct = direct_causal_conv(f, s)
        t0 = 9
        s2 = s.copy()
        s2[t0] += 5.0
        np.testing.assert_allclose(conv_one(f, s2)[:t0], base_fft[:t0], atol=1e-12)
        np.testing.assert_allclose(
            direct_causal_conv(f, s2)[:t0], base_direct[:t0], atol=0
        )

    def test_bank_matches_single_filter_calls(self):
        rng = np.random.default_rng(5)
        filters = rng.normal(size=(4, 10))
        s = rng.normal(size=(1, 10, 3))
        bank = bank_channels(filters, s)
        for k in range(4):
            np.testing.assert_allclose(bank[0, k], conv_one(filters[k], s[0]), atol=1e-12)

    def test_bank_batched_matches_loop(self):
        rng = np.random.default_rng(6)
        filters = rng.normal(size=(3, 7))
        s = rng.normal(size=(5, 7, 2))
        batched = bank_channels(filters, s)
        assert batched.shape == (5, 3, 7, 2)
        for b in range(5):
            alone = bank_channels(filters, s[b:b + 1])
            np.testing.assert_allclose(batched[b], alone[0])

    def test_adjoint_dot_product_identity(self):
        # the bank is linear in the signal, the mixing stack and the weights
        # separately: <bank(x, M, w), y> equals the inner product of each of
        # them with its adjoint gradient
        rng = np.random.default_rng(8)
        filters = rng.normal(size=(3, 9))
        x = rng.normal(size=(2, 9, 2))
        mixing = rng.normal(size=(3, 4, 2))
        weights = rng.normal(size=(2, 9, 3))
        y = rng.normal(size=(2, 9, 4))
        lhs = float(np.sum(fft_causal_conv_bank(filters, x, mixing, weights) * y))
        dmixing = np.empty_like(mixing)
        dx, dweights = fft_causal_conv_bank_adjoint(filters, x, mixing, y, weights,
                                                    dmixing=dmixing)
        for operand, grad in ((x, dx), (mixing, dmixing), (weights, dweights)):
            np.testing.assert_allclose(lhs, float(np.sum(operand * grad)), rtol=1e-10)
        dx_unit, none = fft_causal_conv_bank_adjoint(filters, x, mixing, y,
                                                     dmixing=np.empty_like(mixing))
        assert none is None
        np.testing.assert_allclose(
            float(np.sum(fft_causal_conv_bank(filters, x, mixing) * y)),
            float(np.sum(x * dx_unit)), rtol=1e-10)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_adjoint_writes_the_mixing_gradient_into_a_given_array(self, batch):
        rng = np.random.default_rng(10)
        filters = rng.normal(size=(3, 9))
        x = rng.normal(size=(batch, 9, 2))
        mixing = rng.normal(size=(3, 4, 2))
        weights = rng.normal(size=(batch, 9, 3))
        y = rng.normal(size=(batch, 9, 4))
        stack = np.full((5, 4, 2), 7.0)  # rows past the three channels stay as they are
        fft_causal_conv_bank_adjoint(filters, x, mixing, y, weights, dmixing=stack[:3])
        # dmixing[k] = sum_b grad[b]^T @ (weights[b, :, k] * (filters[k] ∗ x[b]))
        z = np.stack([direct_causal_conv(filters[k], x[b]) * weights[b, :, k, None]
                      for b in range(batch) for k in range(3)]).reshape(batch, 3, 9, 2)
        np.testing.assert_allclose(stack[:3], np.einsum("ble,bkld->ked", y, z),
                                   rtol=1e-10, atol=1e-12)
        assert np.all(stack[3:] == 7.0)
        with pytest.raises(StructuralError):
            fft_causal_conv_bank_adjoint(filters, x, mixing, y, dmixing=stack)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bank_output_is_a_fresh_array_of_the_signal_dtype(self, dtype):
        rng = np.random.default_rng(9)
        s = rng.normal(size=(2, 16, 3)).astype(dtype)
        out = fft_causal_conv_bank(rng.normal(size=(4, 16)), s,
                                   rng.normal(size=(4, 5, 3)).astype(dtype))
        assert out.shape == (2, 16, 5)
        assert out.dtype == dtype
        assert out.flags.c_contiguous and out.base is None


class TestFftCausalConv(BankContract):
    pytestmark = pytest.mark.usefixtures("fft_path")

    def test_matches_direct_on_criterion_two_instances(self):
        # acceptance criterion 2's draw (L <= 256), which by default runs the
        # direct path
        rng = np.random.default_rng(2)
        for trial in range(200):
            length = int(rng.integers(1, 257))
            filt = rng.normal(size=length)
            signal = rng.normal(size=length)
            want = direct_causal_conv(filt, signal)
            got = conv_one(filt, signal[:, None])[:, 0]
            bound = 1e-6 * (1.0 + np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= bound, f"trial {trial}"

    @pytest.mark.parametrize("dtype, spectrum", [(np.float32, np.complex64),
                                                 (np.float64, np.complex128)])
    def test_filter_spectra_take_the_signal_precision(self, dtype, spectrum):
        # float64 filters against a float32 signal transform in complex64
        rng = np.random.default_rng(12)
        s = rng.normal(size=(2, 16, 3)).astype(dtype)
        f_hat, s_hat, _ = _bank_spectra(rng.normal(size=(4, 16)), s)
        assert f_hat.dtype == s_hat.dtype == spectrum

    @pytest.mark.parametrize("weighted", [True, False])
    def test_adjoint_peak_is_the_buffers_its_docstring_lists(self, weighted):
        # a (B, d, nf) spectrum (1 MiB here) is larger than the slack, which
        # covers numpy's ufunc buffers (np.getbufsize() elements for each of
        # up to three operands) and the Python objects
        batch, length, width, num, out_width = 4, 1024, 16, 4, 8
        n, nf = 2048, 1025
        rng = np.random.default_rng(13)
        filters = rng.normal(size=(num, length))
        x = rng.normal(size=(batch, length, width))
        mixing = rng.normal(size=(num, out_width, width))
        weights = rng.normal(size=(batch, length, num)) if weighted else None
        grad = rng.normal(size=(batch, length, out_width))
        dmixing = np.empty_like(mixing)
        listed = 8 * (batch * width * n  # padded signal, z_k, dsignal
                      + 2 * num * nf  # filter spectra
                      + 3 * 2 * batch * width * nf  # signal spectrum, product, sum
                      + batch * width * length  # dz_k
                      + batch * out_width * width  # per-sequence mixing products
                      + (batch * num * length if weighted else 0))  # dweights
        tracemalloc.start()
        try:
            fft_causal_conv_bank_adjoint(filters, x, mixing, grad, weights, dmixing=dmixing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert listed <= peak <= listed + 4 * 16 * np.getbufsize(), peak - listed


class TestToeplitzPath(BankContract):
    @pytest.mark.parametrize("weighted", [True, False])
    def test_adjoint_peak_is_the_buffers_its_docstring_lists(self, weighted):
        # T_k (512 KiB) and each (B, L, d) buffer (1 MiB) are at least the
        # slack, which covers numpy's ufunc buffers and the Python objects
        batch, length, width, num, out_width = 8, 256, 64, 4, 8
        rng = np.random.default_rng(13)
        filters = rng.normal(size=(num, length))
        x = rng.normal(size=(batch, length, width))
        mixing = rng.normal(size=(num, out_width, width))
        weights = rng.normal(size=(batch, length, num)) if weighted else None
        grad = rng.normal(size=(batch, length, out_width))
        dmixing = np.empty_like(mixing)
        listed = 8 * (num * (2 * length - 1)  # padded bank
                      + length * length  # T_k
                      + 3 * batch * length * width  # channel, dz_k, dsignal
                      + (batch * num * length if weighted else 0))  # dweights
        tracemalloc.start()
        try:
            fft_causal_conv_bank_adjoint(filters, x, mixing, grad, weights, dmixing=dmixing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert listed <= peak <= listed + 4 * 16 * np.getbufsize(), peak - listed


class TestPathSelection:
    @pytest.mark.parametrize("length, direct", [(linalg.DIRECT_MAX_LEN, True),
                                                (linalg.DIRECT_MAX_LEN + 1, False)])
    def test_the_paths_agree_on_either_side_of_the_rule(self, monkeypatch, length,
                                                        direct):
        rng = np.random.default_rng(14)
        filters = rng.normal(size=(3, length))
        x = rng.normal(size=(2, length, 4))
        mixing = rng.normal(size=(3, 5, 4))
        weights = rng.normal(size=(2, length, 3))
        grad = rng.normal(size=(2, length, 5))

        def run():
            dmixing = np.empty_like(mixing)
            return (fft_causal_conv_bank(filters, x, mixing, weights),
                    *fft_causal_conv_bank_adjoint(filters, x, mixing, grad, weights,
                                                  dmixing=dmixing), dmixing)

        ran = []
        for name in ("_direct_channels", "_fft_channels"):
            def spy(*args, _name=name, _kernel=getattr(linalg, name)):
                ran.append(_name)
                return _kernel(*args)
            monkeypatch.setattr(linalg, name, spy)
        chosen = run()
        assert ran == 2 * ["_direct_channels" if direct else "_fft_channels"]
        # the other path, by moving the rule across this length
        monkeypatch.setattr(linalg, "DIRECT_MAX_LEN", length - 1 if direct else length)
        ran.clear()
        other = run()
        assert ran == 2 * ["_fft_channels" if direct else "_direct_channels"]
        for a, b in zip(chosen, other):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.max(np.abs(b)))


class TestNextPow2:
    def test_values(self):
        assert [next_pow2(n) for n in (1, 2, 3, 5, 8, 9, 1023)] == [
            1, 2, 4, 8, 8, 16, 1024,
        ]

    def test_rejects_zero(self):
        with pytest.raises(StructuralError):
            next_pow2(0)
