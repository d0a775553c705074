"""Dense linear-algebra kernels: symmetric eigendecomposition with a fixed
sign convention and FFT causal convolution of a filter bank, plus the
bank's adjoint.

Array conventions used throughout the package:

* a *matrix* is a 2-D C-order ``float`` ndarray,
* sequences always come as a batch ``(B, L, d)`` (time-major within each
  sequence); one sequence ``x`` is passed as ``x[None]``,
* a *filter bank* is a ``(K, L)`` array, one length-``L`` filter per row,
* *features* are ``(B, K, d, L)``: time last, so FFTs run along a contiguous axis.

Causal convolution is defined as ``out[t] = sum_{tau=0..t} f[tau] * s[t-tau]``
(0-indexed): the tap at lag zero participates, and ``out[t]`` never reads
``s[t']`` for ``t' > t``.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .errors import ConvergenceError, StructuralError

__all__ = [
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


def fft_causal_conv_bank(filters, signal) -> np.ndarray:
    """Convolve a bank of filters against every feature column at once.

    Both operands are zero-padded to the next power of two >= 2L-1, so the
    circular convolution theorem yields the exact linear convolution, then
    the result is truncated back to length L.  The signal and the filters
    are transformed once; the product and its inverse transform run one
    filter at a time, so no ``(B, K, d, 2L)`` intermediate exists and the
    peak stays near the output's own size.

    Args:
        filters: ``(K, L)`` array, filter-major.
        signal:  ``(B, L, d)`` array.

    Returns:
        ``(B, K, d, L)`` in the signal's dtype, C-contiguous, a fresh array
        the caller owns: slot ``[b, k]`` is ``filters[k]`` convolved with
        sequence ``b``.
    """
    f = _as_float_array(filters, "filters")
    s = _as_float_array(signal, "signal")
    if f.ndim != 2:
        raise StructuralError(f"filter bank must be 2-D, got {f.shape}")
    if s.ndim != 3:
        raise StructuralError(f"signal must be (B, L, d), got {s.shape}")
    length = s.shape[1]
    if f.shape[1] != length:
        raise StructuralError(
            f"filter length {f.shape[1]} does not match signal length {length}"
        )
    n = next_pow2(2 * length - 1)
    f_hat = scipy.fft.rfft(f, n=n, axis=-1)  # (K, nf)
    s_hat = scipy.fft.rfft(np.swapaxes(s, 1, 2), n=n, axis=-1)  # (B, d, nf)
    out = np.empty((s.shape[0], f.shape[0], s.shape[2], length), dtype=s.dtype)
    for k, f_k in enumerate(f_hat):
        out[:, k] = scipy.fft.irfft(s_hat * f_k, n=n, axis=-1, overwrite_x=True)[..., :length]
    return out


def fft_causal_conv_bank_adjoint(filters, grad_features) -> np.ndarray:
    """Adjoint of :func:`fft_causal_conv_bank` with respect to the signal.

    Given upstream gradients for the per-filter features, accumulates
    ``dsignal[b, t] = sum_k sum_{t' >= t} filters[k][t' - t] * grad[b, k][t']``
    (causal cross-correlation, summed over the bank).  The spectra of the
    channels are accumulated one at a time into one ``(B, d, nf)`` sum, so
    the only transform of ``d`` rows per sequence is the final inverse.

    Args:
        filters: ``(K, L)``.
        grad_features: ``(B, K, d, L)``, time last.

    Returns:
        ``(B, L, d)``.
    """
    f = _as_float_array(filters, "filters")
    g = np.asarray(grad_features)
    num, length = f.shape
    if g.ndim != 4 or g.shape[1] != num or g.shape[3] != length:
        raise StructuralError(
            f"grad_features must be (B, {num}, d, {length}) for filter "
            f"bank {f.shape}, got {g.shape}"
        )
    n = next_pow2(2 * length - 1)
    f_hat = scipy.fft.rfft(f, n=n, axis=-1)  # (K, nf)
    # (B, d, nf): sum_k conj(F_k) * rfft(g[:, k]), added in bank order from zero
    acc = np.zeros((g.shape[0], g.shape[2], f_hat.shape[1]),
                   dtype=np.result_type(g.dtype, np.complex64))
    for k, f_k in enumerate(np.conj(f_hat)):
        g_hat = scipy.fft.rfft(g[:, k], n=n, axis=-1)
        g_hat *= f_k
        acc += g_hat
    acc = scipy.fft.irfft(acc, n=n, axis=-1, overwrite_x=True)
    return np.swapaxes(acc[..., :length], 1, 2).astype(g.dtype, copy=False)
