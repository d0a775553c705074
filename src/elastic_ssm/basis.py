"""Fixed spectral filter bank from the Hankel operator of the causal kernel.

The bank is data-independent: entry ``Z[i, j]`` of the underlying symmetric
matrix is the moment integral ``int_0^1 (b - 1)^2 b^(i+j-2) db`` (1-indexed),
which expands to the closed form ``2 / (n^3 - n)`` with ``n = i + j``.  Its
spectrum decays extremely fast, so a small number of top eigenvectors spans
the impulse responses of stable linear systems to high accuracy.  The filter
at rank ``k`` is the k-th eigenvector; the layer consumes the filters
pre-scaled by ``eigenvalue ** (1/4)``.

Bases are cached on disk keyed by (seq_len, capacity, format version); see
:func:`get_or_build_basis`.
"""

from __future__ import annotations

import logging
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ArtifactError, NumericError, StructuralError
from .linalg import symmetric_eig
from .storage import Reader, Writer, atomic_write

__all__ = [
    "SpectralBasis",
    "basis_cache_path",
    "build_basis",
    "default_cache_dir",
    "get_or_build_basis",
    "hankel_matrix",
    "load_basis",
    "save_basis",
    "scale_filters",
    "validate_basis",
]

logger = logging.getLogger(__name__)

MAGIC = b"ESSB"
FORMAT_VERSION = 1

#: Environment variable that overrides the basis cache directory.
CACHE_DIR_ENV = "ESSM_CACHE_DIR"

RESIDUAL_RTOL = 1e-8  # eigen residual, relative to the largest eigenvalue
ORTHO_ATOL = 1e-8  # max |<f_i, f_j> - delta_ij|
UNIT_NORM_ATOL = 1e-10
SCALED_RTOL = 1e-12


def hankel_matrix(seq_len: int) -> np.ndarray:
    """The symmetric PSD moment matrix, entry (i, j) = 2/(n^3 - n), n = i+j+2
    for 0-indexed i, j."""
    if seq_len < 1:
        raise StructuralError(f"hankel_matrix needs seq_len >= 1, got {seq_len}")
    idx = np.arange(1, seq_len + 1, dtype=np.float64)
    n = idx[:, None] + idx[None, :]  # 1-indexed i + j
    return 2.0 / (n**3 - n)


def scale_filters(eigenvalues: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Scale each filter by eigenvalue**(1/4), computed as exp(ln(sigma)/4)
    to survive extreme underflow; nonpositive eigenvalues produce a zero
    filter and a RuntimeWarning."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    quarter = np.zeros_like(eigenvalues)
    positive = eigenvalues > 0.0
    quarter[positive] = np.exp(np.log(eigenvalues[positive]) / 4.0)
    if not np.all(positive):
        bad = np.flatnonzero(~positive)
        warnings.warn(
            f"{bad.size} eigenvalue(s) <= 0 at ranks {bad.tolist()}; their "
            "scaled filters are set to zero",
            RuntimeWarning,
            stacklevel=2,
        )
    return quarter[:, None] * filters


@dataclass(frozen=True)
class SpectralBasis:
    """Ordered top-``capacity`` eigenpairs of the length-``seq_len`` Hankel
    matrix.

    ``filters`` is filter-major ``(capacity, seq_len)`` with unit-norm rows;
    ``scaled_filters[k] = eigenvalues[k]**(1/4) * filters[k]``.
    """

    seq_len: int
    capacity: int
    eigenvalues: np.ndarray = field(repr=False)
    filters: np.ndarray = field(repr=False)
    scaled_filters: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.eigenvalues.shape != (self.capacity,):
            raise StructuralError(
                f"eigenvalues shape {self.eigenvalues.shape} != ({self.capacity},)"
            )
        if self.filters.shape != (self.capacity, self.seq_len):
            raise StructuralError(
                f"filters shape {self.filters.shape} != "
                f"({self.capacity}, {self.seq_len})"
            )
        if self.scaled_filters.shape != self.filters.shape:
            raise StructuralError("scaled_filters shape mismatch")


def build_basis(seq_len: int, capacity: int) -> SpectralBasis:
    """Construct the top-``capacity`` spectral filter bank for ``seq_len``.

    Raises StructuralError when capacity is outside [1, seq_len].
    """
    if seq_len < 1:
        raise StructuralError(f"seq_len must be >= 1, got {seq_len}")
    if not (1 <= capacity <= seq_len):
        raise StructuralError(
            f"capacity must satisfy 1 <= capacity <= seq_len, got "
            f"capacity={capacity}, seq_len={seq_len}"
        )
    z = hankel_matrix(seq_len)
    eigenvalues, vectors = symmetric_eig(z)
    top_vals = eigenvalues[:capacity].copy()
    if np.any(top_vals < 0.0):
        # Roundoff can push the numerically-zero tail slightly negative;
        # the matrix itself is PSD.
        warnings.warn(
            "clamping tiny negative tail eigenvalues of the PSD moment "
            "matrix to zero",
            RuntimeWarning,
            stacklevel=2,
        )
        top_vals = np.maximum(top_vals, 0.0)
    filters = np.ascontiguousarray(vectors[:, :capacity].T)
    scaled = scale_filters(top_vals, filters)
    basis = SpectralBasis(
        seq_len=seq_len,
        capacity=capacity,
        eigenvalues=top_vals,
        filters=filters,
        scaled_filters=scaled,
    )
    validate_basis(basis, z=z)
    return basis


def validate_basis(basis: SpectralBasis, z: np.ndarray | None = None) -> None:
    """Check the basis invariants; raise NumericError on any failure.

    Checks: monotone nonincreasing nonnegative eigenvalues, unit filter
    norms, eigen residuals relative to the top eigenvalue, pairwise
    orthonormality, and scaled-filter consistency.
    """
    ev = basis.eigenvalues
    if np.any(ev < 0.0):
        raise NumericError("negative eigenvalue in basis")
    if np.any(np.diff(ev) > 0.0):
        raise NumericError("eigenvalues are not monotonically nonincreasing")
    norms = np.linalg.norm(basis.filters, axis=1)
    if np.max(np.abs(norms - 1.0)) > UNIT_NORM_ATOL:
        raise NumericError(
            f"filter norms deviate from 1 by {np.max(np.abs(norms - 1.0)):.3e}"
        )
    if z is None:
        z = hankel_matrix(basis.seq_len)
    top = float(ev[0]) if ev.size else 0.0
    residual = z @ basis.filters.T - basis.filters.T * ev[None, :]
    worst = float(np.max(np.linalg.norm(residual, axis=0))) if ev.size else 0.0
    if worst > RESIDUAL_RTOL * max(top, np.finfo(np.float64).tiny):
        raise NumericError(
            f"eigen residual {worst:.3e} exceeds {RESIDUAL_RTOL:.0e} * "
            f"sigma_1 = {RESIDUAL_RTOL * top:.3e}"
        )
    gram = basis.filters @ basis.filters.T
    ortho_err = float(np.max(np.abs(gram - np.eye(basis.capacity))))
    if ortho_err > ORTHO_ATOL:
        raise NumericError(f"filters not orthonormal: max error {ortho_err:.3e}")
    expected = scale_filters(basis.eigenvalues, basis.filters)
    scale = np.maximum(np.abs(expected), 1.0)
    err = float(np.max(np.abs(expected - basis.scaled_filters) / scale))
    if err > SCALED_RTOL:
        raise NumericError(f"scaled_filters inconsistent: max error {err:.3e}")


# ---------------------------------------------------------------------------
# serialization and cache
# ---------------------------------------------------------------------------


def save_basis(basis: SpectralBasis, path: str | os.PathLike) -> None:
    """Write the bank in the "ESSB" container (atomically)."""
    w = Writer(MAGIC)
    w.u32(FORMAT_VERSION)
    w.u64(basis.seq_len)
    w.u32(basis.capacity)
    w.array(basis.eigenvalues, "float64")
    w.array(basis.filters, "float64")
    atomic_write(path, w.parts())


def load_basis(
    path: str | os.PathLike,
    expect_seq_len: int | None = None,
    expect_capacity: int | None = None,
) -> SpectralBasis:
    """Read an "ESSB" file; validates magic, version, checksum, and shape.

    When ``expect_seq_len``/``expect_capacity`` are given, a header that
    disagrees raises ArtifactError rather than silently returning a bank
    built for different dimensions.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    r = Reader(data, MAGIC, what=f"basis file {os.fspath(path)!r}")
    r.expect_version(FORMAT_VERSION)
    seq_len = r.u64()
    capacity = r.u32()
    if expect_seq_len is not None and seq_len != expect_seq_len:
        raise ArtifactError(
            f"basis header seq_len={seq_len} does not match requested "
            f"seq_len={expect_seq_len}"
        )
    if expect_capacity is not None and capacity != expect_capacity:
        raise ArtifactError(
            f"basis header capacity={capacity} does not match requested "
            f"capacity={expect_capacity}"
        )
    eigenvalues = r.array((capacity,), "float64")
    filters = r.array((capacity, seq_len), "float64")
    r.expect_end()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scaled = scale_filters(eigenvalues, filters)
    return SpectralBasis(
        seq_len=seq_len,
        capacity=capacity,
        eigenvalues=eigenvalues,
        filters=filters,
        scaled_filters=scaled,
    )


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "elastic-ssm")


def basis_cache_path(
    seq_len: int, capacity: int, cache_dir: str | os.PathLike | None = None
) -> str:
    """Cache file path named by its key: (seq_len, capacity, format version)."""
    root = os.fspath(cache_dir) if cache_dir is not None else default_cache_dir()
    return os.path.join(root, f"basis-L{seq_len}-K{capacity}-v{FORMAT_VERSION}.essb")


def get_or_build_basis(
    seq_len: int,
    capacity: int,
    cache_dir: str | os.PathLike | None = None,
) -> tuple[SpectralBasis, bool]:
    """Load the bank from cache or build and cache it.

    Returns ``(basis, cache_hit)``.  A corrupt cache file is rebuilt in
    place (with a log warning) rather than failing the run.
    """
    path = basis_cache_path(seq_len, capacity, cache_dir)
    if os.path.exists(path):
        try:
            basis = load_basis(path, expect_seq_len=seq_len, expect_capacity=capacity)
            logger.info("basis cache hit: %s", path)
            return basis, True
        except ArtifactError as exc:
            logger.warning("ignoring corrupt basis cache %s (%s); rebuilding", path, exc)
    basis = build_basis(seq_len, capacity)
    save_basis(basis, path)
    logger.info("basis cache write: %s", path)
    return basis, False
