"""Kernels: symmetric eigendecomposition, causal convolution."""

import numpy as np
import pytest

from elastic_ssm.errors import StructuralError
from elastic_ssm.linalg import (
    fft_causal_conv,
    fft_causal_conv_bank,
    fft_causal_conv_bank_adjoint,
    next_pow2,
    symmetric_eig,
)

from _frozen_spectra import REFERENCE_SPECTRA
from oracles import direct_causal_conv, scalar_causal_conv


class TestSymmetricEig:
    def test_identity_2x2(self):
        w, v = symmetric_eig(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])
        np.testing.assert_allclose(v @ v.T, np.eye(2), atol=1e-14)
        # sign rule: the largest-magnitude entry of each column is positive
        for col in v.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_diagonal_case(self):
        w, v = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0  # eigenvalue 3 -> axis 0
        expected[2, 1] = 1.0  # eigenvalue 2 -> axis 2
        expected[1, 2] = 1.0  # eigenvalue 1 -> axis 1
        np.testing.assert_allclose(v, expected, atol=1e-14)

    def test_moment_matrix_l8_matches_frozen_oracle(self):
        from elastic_ssm.basis import hankel_matrix

        w, _ = symmetric_eig(hankel_matrix(8))
        ref = np.array(REFERENCE_SPECTRA[8]["eigenvalues"])
        assert np.all(np.diff(w) < 0), "spectrum must be strictly decreasing"
        np.testing.assert_allclose(w, ref, atol=1e-8 * ref[0])

    def test_eigen_residual_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for n in (3, 8, 17):
            base = rng.normal(size=(n, n))
            a = base @ base.T  # symmetric PSD
            w, v = symmetric_eig(a)
            residual = a @ v - v * w[None, :]
            assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8 * max(w[0], 1e-300)
            gram = v.T @ v
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-8

    def test_sign_convention_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            base = rng.normal(size=(6, 6))
            _, v = symmetric_eig(base + base.T)
            for col in v.T:
                idx = np.argmax(np.abs(col))
                assert col[idx] > 0
                # ties (if any) must resolve to the lowest index
                ties = np.flatnonzero(np.abs(col) == np.abs(col[idx]))
                assert ties[0] == idx

    def test_rejects_nonsquare(self):
        with pytest.raises(StructuralError):
            symmetric_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [2.1, 1.0]])
        with pytest.raises(StructuralError):
            symmetric_eig(a)

    def test_rejects_nonfinite(self):
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(StructuralError):
            symmetric_eig(a)


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


class TestFftCausalConv:
    def test_matches_direct_on_200_random_instances(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            length = int(rng.integers(1, 65))
            d = int(rng.integers(1, 4))
            f = rng.normal(size=length)
            s = rng.normal(size=(length, d))
            got = fft_causal_conv(f, s)
            want = direct_causal_conv(f, s)
            bound = 1e-6 * (1.0 + np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= bound, f"trial {trial}"

    def test_degenerate_length_one(self):
        out = fft_causal_conv(np.array([2.5]), np.array([[3.0]]))
        np.testing.assert_allclose(out, [[7.5]])

    def test_zero_signal(self):
        out = fft_causal_conv(np.ones(8), np.zeros((8, 2)))
        np.testing.assert_allclose(out, 0.0)

    def test_causality_perturbation(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=16)
        s = rng.normal(size=(16, 2))
        base_fft = fft_causal_conv(f, s)
        base_direct = direct_causal_conv(f, s)
        t0 = 9
        s2 = s.copy()
        s2[t0] += 5.0
        np.testing.assert_allclose(fft_causal_conv(f, s2)[:t0], base_fft[:t0], atol=1e-12)
        np.testing.assert_allclose(
            direct_causal_conv(f, s2)[:t0], base_direct[:t0], atol=0
        )

    def test_bank_matches_single_filter_calls(self):
        rng = np.random.default_rng(5)
        filters = rng.normal(size=(4, 10))
        s = rng.normal(size=(10, 3))
        bank = fft_causal_conv_bank(filters, s)
        for k in range(4):
            np.testing.assert_allclose(bank[k], fft_causal_conv(filters[k], s), atol=1e-12)

    def test_bank_batched_matches_loop(self):
        rng = np.random.default_rng(6)
        filters = rng.normal(size=(3, 7))
        s = rng.normal(size=(5, 7, 2))
        batched = fft_causal_conv_bank(filters, s)
        assert batched.shape == (5, 3, 7, 2)
        for b in range(5):
            np.testing.assert_allclose(batched[b], fft_causal_conv_bank(filters, s[b]))

    def test_adjoint_dot_product_identity(self):
        # <conv(f, x), y> == <x, adjoint(f, y)> for every filter in the bank
        rng = np.random.default_rng(8)
        filters = rng.normal(size=(3, 9))
        x = rng.normal(size=(9, 2))
        y = rng.normal(size=(3, 9, 2))
        fwd = fft_causal_conv_bank(filters, x)
        lhs = float(np.sum(fwd * y))
        rhs = float(np.sum(x * fft_causal_conv_bank_adjoint(filters, y)))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestNextPow2:
    def test_values(self):
        assert [next_pow2(n) for n in (1, 2, 3, 5, 8, 9, 1023)] == [
            1, 2, 4, 8, 8, 16, 1024,
        ]

    def test_rejects_zero(self):
        with pytest.raises(StructuralError):
            next_pow2(0)
