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

    def test_pairs_are_the_moment_matrix_eigenpairs_in_descending_order(self):
        # every pair of the full solve, in descending order, up to each
        # filter's sign
        for length in (1, 2, 6):
            basis = build_basis(length, length)
            w, v = np.linalg.eigh(hankel_matrix(length))
            np.testing.assert_array_equal(basis.eigenvalues, w[::-1])
            np.testing.assert_allclose(np.abs(basis.filters), np.abs(v[:, ::-1].T),
                                       atol=1e-14)

    def test_l2_pairs_are_orthonormal_and_signed(self):
        basis = build_basis(2, 2)
        w, _ = np.linalg.eigh(hankel_matrix(2))
        np.testing.assert_array_equal(basis.eigenvalues, w[::-1])
        np.testing.assert_allclose(basis.filters @ basis.filters.T, np.eye(2), atol=1e-14)
        # sign rule: the largest-magnitude entry of each filter is positive
        for filt in basis.filters:
            assert filt[np.argmax(np.abs(filt))] > 0

    def test_l8_full_spectrum_matches_frozen_oracle(self):
        basis = build_basis(8, 8)
        ref = np.array(REFERENCE_SPECTRA[8]["eigenvalues"])
        assert np.all(np.diff(basis.eigenvalues) < 0), "spectrum must be strictly decreasing"
        np.testing.assert_allclose(basis.eigenvalues, ref, atol=1e-8 * ref[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_residual_and_orthonormality_over_the_full_spectrum(self):
        for length in (3, 8, 17):
            basis = build_basis(length, length)
            z = hankel_matrix(length)
            residual = z @ basis.filters.T - basis.filters.T * basis.eigenvalues[None, :]
            assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8 * basis.eigenvalues[0]
            gram = basis.filters @ basis.filters.T
            assert np.max(np.abs(gram - np.eye(length))) <= 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sign_convention(self):
        # the largest-|entry| of each filter is positive, ties to the lowest index
        for seq_len, capacity in ((2, 2), (16, 16), (32, 32), (48, 12), (256, 32)):
            for filt in build_basis(seq_len, capacity).filters:
                idx = np.argmax(np.abs(filt))
                assert filt[idx] > 0
                ties = np.flatnonzero(np.abs(filt) == np.abs(filt[idx]))
                assert ties[0] == idx

    def test_nonpositive_tail_warns_once_and_is_zeroed(self):
        with pytest.warns(RuntimeWarning, match=r"ranks \[24, 25, 26, 27, 28, 29, 30, 31\]") as rec:
            basis = build_basis(32, 32)
        assert len(rec) == 1
        assert np.all(basis.eigenvalues[24:] == 0.0) and np.all(basis.eigenvalues[:24] > 0.0)
        np.testing.assert_array_equal(basis.scaled_filters[24:], 0.0)

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
    @pytest.mark.filterwarnings("error")
    def test_nonpositive_eigenvalue_zeroes_silently(self):
        # build_basis warns once about the ranks; scaling itself is silent
        filters = np.ones((2, 4)) / 2.0
        scaled = scale_filters(np.array([1.0, 0.0]), filters)
        np.testing.assert_allclose(scaled[0], filters[0])
        np.testing.assert_array_equal(scaled[1], np.zeros(4))

    def test_underflow_safe_quarter_power(self):
        # sigma far below the double underflow threshold for sigma**4
        tiny = 1e-290
        scaled = scale_filters(np.array([tiny]), np.ones((1, 3)))
        np.testing.assert_allclose(scaled[0], tiny**0.25, rtol=1e-12)


class TestSpectralBasis:
    def test_shape_and_scaled_filters_derive_from_the_two_arrays(self):
        built = build_basis(32, 8)
        basis = SpectralBasis(built.eigenvalues, built.filters)
        assert (basis.seq_len, basis.capacity) == (32, 8)
        np.testing.assert_array_equal(basis.scaled_filters, built.scaled_filters)
        np.testing.assert_array_equal(
            basis.scaled_filters, scale_filters(built.eigenvalues, built.filters))

    @pytest.mark.parametrize("eigenvalues, filters", [
        (np.ones(3), np.ones((4, 16))),
        (np.ones((4, 1)), np.ones((4, 16))),
        (np.ones(4), np.ones(16)),
    ])
    def test_mismatched_arrays_rejected(self, eigenvalues, filters):
        with pytest.raises(StructuralError):
            SpectralBasis(eigenvalues, filters)


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

    def test_loaded_arrays_own_their_memory(self, tmp_path):
        # the file is mapped while it is read; no array may keep a view of it
        path = tmp_path / "bank.essb"
        save_basis(build_basis(32, 8), path)
        loaded = load_basis(path)
        for arr in (loaded.eigenvalues, loaded.filters, loaded.scaled_filters):
            assert arr.flags.owndata and arr.flags.writeable

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bank.essb"
        path.write_bytes(b"")
        with pytest.raises(ArtifactError, match="truncated"):
            load_basis(path)

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
        broken = SpectralBasis(basis.eigenvalues[::-1].copy(), basis.filters[::-1].copy())
        from elastic_ssm.errors import NumericError

        with pytest.raises(NumericError):
            validate_basis(broken)

    def test_detects_bad_filter_norm(self):
        basis = build_basis(16, 4)
        bad = SpectralBasis(basis.eigenvalues.copy(), basis.filters * 1.5)
        from elastic_ssm.errors import NumericError

        with pytest.raises(NumericError):
            validate_basis(bad)
