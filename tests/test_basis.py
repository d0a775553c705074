"""Spectral filter bank: moment matrix, eigenpair extraction, serialization."""

import os

import numpy as np
import pytest

from elastic_ssm.basis import (
    FORMAT_VERSION,
    MAGIC,
    SpectralBasis,
    basis_cache_path,
    build_basis,
    get_or_build_basis,
    hankel_matrix,
    load_basis,
    save_basis,
    scale_filters,
    validate_basis,
)
from elastic_ssm.errors import ArtifactError, StructuralError
from elastic_ssm.storage import Writer

from _frozen_spectra import REFERENCE_SPECTRA
from oracles import quadrature_moment_entry


class TestHankelMatrix:
    def test_corner_entries_match_quadrature(self):
        z = hankel_matrix(4)
        # closed forms: n=2 -> 2/6, n=3 -> 2/24
        np.testing.assert_allclose(z[0, 0], 1.0 / 3.0, atol=1e-15)
        np.testing.assert_allclose(z[0, 1], 1.0 / 12.0, atol=1e-15)
        np.testing.assert_allclose(z[1, 0], 1.0 / 12.0, atol=1e-15)
        assert abs(z[0, 0] - quadrature_moment_entry(1, 1)) <= 1e-12
        assert abs(z[0, 1] - quadrature_moment_entry(1, 2)) <= 1e-12

    def test_full_grid_matches_quadrature(self):
        z = hankel_matrix(12)
        for i in range(12):
            for j in range(i, 12):
                assert abs(z[i, j] - quadrature_moment_entry(i + 1, j + 1)) <= 1e-12

    def test_smallest_case(self):
        np.testing.assert_allclose(hankel_matrix(1), [[1.0 / 3.0]])

    def test_rejects_zero_length(self):
        with pytest.raises(StructuralError):
            hankel_matrix(0)

    def test_symmetric(self):
        z = hankel_matrix(20)
        np.testing.assert_array_equal(z, z.T)


class TestBuildBasis:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eigenvalues_match_frozen_oracle(self):
        # 60-digit-arithmetic oracle, comparison relative to the top
        # eigenvalue (tail magnitudes sit far below double resolution)
        for length, ref in REFERENCE_SPECTRA.items():
            capacity = min(length, 32)
            basis = build_basis(length, capacity)
            expected = np.array(ref["eigenvalues"])[:capacity]
            assert np.max(np.abs(basis.eigenvalues - expected)) <= 1e-8 * expected[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eigenvectors_match_frozen_oracle_where_conditioned(self):
        # entrywise agreement is only well-posed while sigma_k >= 1e-6 *
        # sigma_1 (perturbation ~ eps * sigma_1 / gap); all ranks are covered
        # by the residual check in validate_basis
        for length, ref in REFERENCE_SPECTRA.items():
            basis = build_basis(length, min(length, 32))
            vals = np.array(ref["eigenvalues"])
            for k, vec in enumerate(ref["vectors"]):
                if k >= basis.capacity or vals[k] < 1e-6 * vals[0]:
                    continue
                np.testing.assert_allclose(
                    basis.filters[k], np.array(vec), atol=1e-8,
                    err_msg=f"L={length}, rank {k}",
                )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_oracle_residuals(self):
        for length in (8, 32, 64):
            basis = build_basis(length, min(length, 32))
            z = hankel_matrix(length)
            ref = np.array(REFERENCE_SPECTRA[length]["eigenvalues"])[: basis.capacity]
            residual = z @ basis.filters.T - basis.filters.T * ref[None, :]
            assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8 * ref[0]

    def test_strictly_decreasing_at_l256(self):
        basis = build_basis(256, 32)
        assert np.all(np.diff(basis.eigenvalues) < 0)

    def test_full_spectrum_small_case(self):
        basis = build_basis(4, 4)
        z = hankel_matrix(4)
        residual = z @ basis.filters.T - basis.filters.T * basis.eigenvalues[None, :]
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8 * basis.eigenvalues[0]

    def test_rejects_capacity_above_length(self):
        with pytest.raises(StructuralError):
            build_basis(16, 17)

    def test_unit_norm_filters(self):
        basis = build_basis(64, 16)
        np.testing.assert_allclose(
            np.linalg.norm(basis.filters, axis=1), 1.0, atol=1e-10
        )

    def test_scaled_filters_consistent(self):
        basis = build_basis(32, 8)
        quarter = basis.eigenvalues**0.25
        np.testing.assert_allclose(
            basis.scaled_filters, quarter[:, None] * basis.filters, rtol=1e-12
        )

    def test_bit_identical_across_runs(self):
        a = build_basis(48, 12)
        b = build_basis(48, 12)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.filters, b.filters)
        np.testing.assert_array_equal(a.scaled_filters, b.scaled_filters)

    def test_projection_residual_nonincreasing_in_budget(self):
        # impulse response of a random stable scalar system projected onto
        # growing filter prefixes: residual must not increase with K
        rng = np.random.default_rng(123)
        basis = build_basis(64, 16)
        for _ in range(5):
            a = rng.uniform(-0.99, 0.99)
            g = a ** np.arange(64)
            coeffs = basis.filters @ g
            total = float(g @ g)
            residuals = [
                total - float(coeffs[: k + 1] @ coeffs[: k + 1])
                for k in range(16)
            ]
            diffs = np.diff(residuals)
            assert np.all(diffs <= 1e-12 * max(total, 1.0))


class TestScaleFilters:
    def test_nonpositive_eigenvalue_warns_and_zeroes(self):
        filters = np.ones((2, 4)) / 2.0
        with pytest.warns(RuntimeWarning):
            scaled = scale_filters(np.array([1.0, 0.0]), filters)
        np.testing.assert_allclose(scaled[0], filters[0])
        np.testing.assert_array_equal(scaled[1], np.zeros(4))

    def test_underflow_safe_quarter_power(self):
        # sigma far below the double underflow threshold for sigma**4
        tiny = 1e-290
        scaled = scale_filters(np.array([tiny]), np.ones((1, 3)))
        np.testing.assert_allclose(scaled[0], tiny**0.25, rtol=1e-12)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        basis = build_basis(32, 8)
        path = tmp_path / "bank.essb"
        save_basis(basis, path)
        loaded = load_basis(path)
        np.testing.assert_array_equal(loaded.eigenvalues, basis.eigenvalues)
        np.testing.assert_array_equal(loaded.filters, basis.filters)
        np.testing.assert_array_equal(loaded.scaled_filters, basis.scaled_filters)
        assert (loaded.seq_len, loaded.capacity) == (32, 8)

    def test_corrupted_checksum_rejected(self, tmp_path):
        basis = build_basis(16, 4)
        path = tmp_path / "bank.essb"
        save_basis(basis, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError):
            load_basis(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bank.essb"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ArtifactError):
            load_basis(path)

    def test_truncated_file_rejected(self, tmp_path):
        basis = build_basis(16, 4)
        path = tmp_path / "bank.essb"
        save_basis(basis, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ArtifactError):
            load_basis(path)

    @pytest.mark.parametrize("seq_len, capacity", [(2**63, 4), (16, 2**31)])
    def test_huge_header_is_a_truncated_payload(self, tmp_path, seq_len, capacity):
        # a valid CRC over a header whose tensor sizes overflow int64
        basis = build_basis(16, 4)
        w = Writer(MAGIC).u32(FORMAT_VERSION).u64(seq_len).u32(capacity)
        w.array(basis.eigenvalues, "float64").array(basis.filters, "float64")
        path = tmp_path / "bank.essb"
        path.write_bytes(w.finish())
        with pytest.raises(ArtifactError, match="truncated"):
            load_basis(path)

    def test_header_mismatch_with_request(self, tmp_path):
        basis = build_basis(32, 8)
        path = tmp_path / "bank.essb"
        save_basis(basis, path)
        with pytest.raises(ArtifactError):
            load_basis(path, expect_seq_len=256)
        with pytest.raises(ArtifactError):
            load_basis(path, expect_capacity=16)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        basis1, hit1 = get_or_build_basis(24, 6, cache_dir=tmp_path)
        assert not hit1
        assert os.path.exists(basis_cache_path(24, 6, cache_dir=tmp_path))
        basis2, hit2 = get_or_build_basis(24, 6, cache_dir=tmp_path)
        assert hit2
        np.testing.assert_array_equal(basis1.filters, basis2.filters)

    def test_env_var_controls_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ESSM_CACHE_DIR", str(tmp_path / "via-env"))
        _, hit = get_or_build_basis(12, 3)
        assert not hit
        assert os.path.exists(basis_cache_path(12, 3))
        assert str(tmp_path / "via-env") in basis_cache_path(12, 3)

    def test_corrupt_cache_rebuilt(self, tmp_path):
        get_or_build_basis(12, 3, cache_dir=tmp_path)
        path = basis_cache_path(12, 3, cache_dir=tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(30)
            fh.write(b"\xff\xff")
        basis, hit = get_or_build_basis(12, 3, cache_dir=tmp_path)
        assert not hit
        validate_basis(basis)

    def test_different_keys_different_files(self, tmp_path):
        a = basis_cache_path(64, 8, cache_dir=tmp_path)
        b = basis_cache_path(64, 16, cache_dir=tmp_path)
        c = basis_cache_path(128, 8, cache_dir=tmp_path)
        assert len({a, b, c}) == 3


class TestValidateBasis:
    def test_detects_broken_monotonicity(self):
        basis = build_basis(16, 4)
        broken = SpectralBasis(
            seq_len=16,
            capacity=4,
            eigenvalues=basis.eigenvalues[::-1].copy(),
            filters=basis.filters[::-1].copy(),
            scaled_filters=basis.scaled_filters[::-1].copy(),
        )
        from elastic_ssm.errors import NumericError

        with pytest.raises(NumericError):
            validate_basis(broken)

    def test_detects_bad_filter_norm(self):
        basis = build_basis(16, 4)
        bad = SpectralBasis(
            seq_len=16,
            capacity=4,
            eigenvalues=basis.eigenvalues.copy(),
            filters=basis.filters * 1.5,
            scaled_filters=basis.scaled_filters * 1.5,
        )
        from elastic_ssm.errors import NumericError

        with pytest.raises(NumericError):
            validate_basis(bad)
