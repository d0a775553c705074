"""Dense linear-algebra kernels: symmetric eigendecomposition with a fixed
sign convention and FFT causal convolution (single filter, filter bank, and
the bank's adjoint).

Array conventions used throughout the package:

* a *matrix* is a 2-D C-order ``float`` ndarray,
* a *sequence* is an ``(L, d)`` array (time-major), with an optional leading
  batch axis ``(B, L, d)``,
* a *filter vector* is a length-``L`` 1-D array.

Causal convolution is defined as ``out[t] = sum_{tau=0..t} f[tau] * s[t-tau]``
(0-indexed): the tap at lag zero participates, and ``out[t]`` never reads
``s[t']`` for ``t' > t``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, StructuralError

__all__ = [
    "fft_causal_conv",
    "fft_causal_conv_bank",
    "fft_causal_conv_bank_adjoint",
    "next_pow2",
    "symmetric_eig",
]

#: Relative asymmetry tolerated by :func:`symmetric_eig`.
SYMMETRY_RTOL = 1e-12


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise StructuralError(f"{name} contains non-finite values")
    return arr


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise StructuralError(f"next_pow2 needs n >= 1, got {n}")
    return 1 << (int(n) - 1).bit_length()


# ---------------------------------------------------------------------------
# symmetric eigendecomposition
# ---------------------------------------------------------------------------


def symmetric_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as matching columns.  Each eigenvector
    is sign-normalized so its largest-magnitude entry is positive, ties
    broken toward the lowest index, which makes the output deterministic
    and platform-comparable.

    Raises:
        StructuralError: if ``m`` is not square, not finite, or asymmetric
            beyond ``1e-12`` relative to its largest entry.
        ConvergenceError: if the underlying eigensolver fails.
    """
    a = _as_float_array(m, "matrix").astype(np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"symmetric_eig needs a square matrix, got {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > SYMMETRY_RTOL * max(scale, np.finfo(np.float64).tiny):
        raise StructuralError(
            f"matrix is asymmetric: max|A - A^T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max|A| = {SYMMETRY_RTOL * scale:.3e}"
        )
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    # ascending -> descending
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # sign convention: largest-|entry| positive, ties -> lowest index
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    v *= signs
    return w, v


# ---------------------------------------------------------------------------
# causal convolution
# ---------------------------------------------------------------------------


def _check_conv_args(filt, signal) -> tuple[np.ndarray, np.ndarray]:
    f = _as_float_array(filt, "filter")
    s = _as_float_array(signal, "signal")
    if f.ndim != 1:
        raise StructuralError(f"filter must be 1-D, got shape {f.shape}")
    if s.ndim < 1 or s.ndim > 3:
        raise StructuralError(f"signal must be 1-D, 2-D, or 3-D, got {s.shape}")
    length_axis = 0 if s.ndim == 1 else (0 if s.ndim == 2 else 1)
    if s.shape[length_axis] != f.shape[0]:
        raise StructuralError(
            f"filter length {f.shape[0]} does not match signal length "
            f"{s.shape[length_axis]}"
        )
    return f, s


def fft_causal_conv(filt, signal) -> np.ndarray:
    """Causal convolution via FFT.

    Both operands are zero-padded to the next power of two >= 2L-1, so the
    circular convolution theorem yields the exact linear convolution, then
    the result is truncated back to length L.
    """
    f, s = _check_conv_args(filt, signal)
    if s.ndim == 1:
        return fft_causal_conv_bank(f[None, :], s[:, None])[0, :, 0]
    if s.ndim == 2:
        return fft_causal_conv_bank(f[None, :], s)[0]
    return fft_causal_conv_bank(f[None, :], s)[:, 0]


def fft_causal_conv_bank(filters, signal) -> np.ndarray:
    """Convolve a bank of filters against every feature column at once.

    Args:
        filters: ``(K, L)`` array, filter-major.
        signal:  ``(L, d)`` or ``(B, L, d)`` array.

    Returns:
        ``(K, L, d)`` or ``(B, K, L, d)`` array where slot ``k`` holds the
        causal convolution of ``filters[k]`` against the signal.
    """
    f = _as_float_array(filters, "filters")
    s = _as_float_array(signal, "signal")
    if f.ndim != 2:
        raise StructuralError(f"filter bank must be 2-D, got {f.shape}")
    batched = s.ndim == 3
    if not batched:
        if s.ndim != 2:
            raise StructuralError(f"signal must be (L, d) or (B, L, d), got {s.shape}")
        s = s[None]
    length = s.shape[1]
    if f.shape[1] != length:
        raise StructuralError(
            f"filter length {f.shape[1]} does not match signal length {length}"
        )
    n = next_pow2(2 * length - 1)
    f_hat = np.fft.rfft(f, n=n, axis=1)  # (K, nf)
    s_hat = np.fft.rfft(s, n=n, axis=1)  # (B, nf, d)
    prod = s_hat[:, None, :, :] * f_hat[None, :, :, None]  # (B, K, nf, d)
    full = np.fft.irfft(prod, n=n, axis=2)[:, :, :length, :]
    out = full.astype(s.dtype, copy=False)
    return out if batched else out[0]


def fft_causal_conv_bank_adjoint(filters, grad_features) -> np.ndarray:
    """Adjoint of :func:`fft_causal_conv_bank` with respect to the signal.

    Given upstream gradients for the per-filter features, accumulates
    ``dsignal[t] = sum_k sum_{t' >= t} filters[k][t' - t] * grad[k][t']``
    (causal cross-correlation, summed over the bank).

    Args:
        filters: ``(K, L)``.
        grad_features: ``(K, L, d)`` or ``(B, K, L, d)``.

    Returns:
        ``(L, d)`` or ``(B, L, d)``.
    """
    f = _as_float_array(filters, "filters")
    g = np.asarray(grad_features)
    batched = g.ndim == 4
    if not batched:
        g = g[None]
    length = f.shape[1]
    if g.shape[1] != f.shape[0] or g.shape[2] != length:
        raise StructuralError(
            f"grad_features shape {g.shape[1:]} does not match filter bank "
            f"{f.shape}"
        )
    n = next_pow2(2 * length - 1)
    f_hat = np.fft.rfft(f, n=n, axis=1)  # (K, nf)
    g_hat = np.fft.rfft(g, n=n, axis=2)  # (B, K, nf, d)
    prod = np.conj(f_hat)[None, :, :, None] * g_hat  # (B, K, nf, d)
    acc = np.fft.irfft(prod.sum(axis=1), n=n, axis=1)[:, :length, :]
    out = acc.astype(g.dtype, copy=False)
    return out if batched else out[0]
