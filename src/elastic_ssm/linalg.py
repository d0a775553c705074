"""The layer's spectral branch: FFT causal convolution with a filter bank,
weighted and mixed channel by channel, and its adjoint.

Array conventions used throughout the package:

* a *matrix* is a 2-D C-order ``float`` ndarray,
* sequences always come as a batch ``(B, L, d)`` (time-major within each
  sequence); one sequence ``x`` is passed as ``x[None]``,
* a *filter bank* is a ``(K, L)`` array, one length-``L`` filter per row,
  transformed in the signal's precision,
* one channel's convolution is ``(B, d, L)``, time last for the FFTs, and is
  consumed where it is made: no ``(B, K, d, L)`` array exists.

Causal convolution is defined as ``out[t] = sum_{tau=0..t} f[tau] * s[t-tau]``
(0-indexed): the tap at lag zero participates, and ``out[t]`` never reads
``s[t']`` for ``t' > t``.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np
import scipy.fft

from .errors import StructuralError

__all__ = [
    "fft_causal_conv_bank",
    "fft_causal_conv_bank_adjoint",
    "next_pow2",
]


# Pin glibc's malloc thresholds (mmap 32 MiB, trim 64 MiB) at the values its
# dynamic rule reaches once a 32 MiB block is freed.  A layer's arrays are a
# few MiB, so from the 128 KiB default every call hands its memory back and
# faults it in again: 5222 minor faults per forward at the desk geometry,
# K=2, against 13 with these values.
_libc = ctypes.CDLL(None) if os.name == "posix" else None
if hasattr(_libc, "mallopt"):
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


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


def _bank_spectra(filters, signal, mixing, weights):
    """Checked signal and mixing, weights as (B, K, L), both spectra, padded length."""
    f = _as_float_array(filters, "filters")
    s = _as_float_array(signal, "signal")
    if f.ndim != 2 or len(f) == 0 or s.ndim != 3 or f.shape[1] != s.shape[1]:
        raise StructuralError(
            f"need a (K, L) filter bank with K >= 1 and a (B, L, d) signal, "
            f"got {f.shape} and {s.shape}"
        )
    n = next_pow2(2 * s.shape[1] - 1)
    f_hat = scipy.fft.rfft(f.astype(s.dtype, copy=False), n=n, axis=-1)
    s_hat = scipy.fft.rfft(np.swapaxes(s, 1, 2), n=n, axis=-1)
    w_t = None if weights is None else np.swapaxes(weights, 1, 2)
    return s, np.asarray(mixing), w_t, f_hat, s_hat, n


def _channels(f_hat, s_hat, n: int, length: int, dtype):
    """Yield k, F_k and ``filters[k] ∗ signal`` as ``(B, d, L)``: every channel
    reuses two buffers (numpy.fft takes ``out=``, scipy.fft does not), and
    ``z_k`` may be weighted in place until the next one is drawn."""
    product = np.empty(s_hat.shape, dtype=np.result_type(s_hat, f_hat))
    z = np.empty(s_hat.shape[:2] + (n,), dtype=dtype)
    for k, f_k in enumerate(f_hat):
        np.fft.irfft(np.multiply(s_hat, f_k, out=product), n=n, axis=-1, out=z)
        yield k, f_k, z[..., :length]


def fft_causal_conv_bank(filters, signal, mixing, weights=None) -> np.ndarray:
    """The spectral branch: ``sum_k mixing[k] @ (weights[..., k] * (filters[k] ∗ signal))``.

    ``filters`` is ``(K, L)``, K >= 1, ``signal`` ``(B, L, d)``, ``mixing``
    ``(K, e, d)``, ``weights`` ``(B, L, K)`` or None for unit weights (no
    weighting pass).  Returns a fresh ``(B, L, e)`` array in the signal's
    dtype, which weighting and mixing run in.  ``∗`` is causal convolution,
    exact by zero-padding to the next power of two >= 2L-1.  Each channel
    is inverse transformed, weighted in place and mixed into one
    accumulator, so the peak does not grow with K.
    """
    s, mixing, w_t, f_hat, s_hat, n = _bank_spectra(filters, signal, mixing, weights)
    out = np.empty(s.shape[:2] + mixing.shape[1:2], dtype=s.dtype)
    buf = np.empty_like(out)
    for k, _, z in _channels(f_hat, s_hat, n, s.shape[1], s.dtype):
        if w_t is not None:
            z *= w_t[:, k, None, :]
        # (L, e) = z^T @ mixing[k]^T per sequence; the first channel starts the sum
        np.matmul(np.swapaxes(z, 1, 2), mixing[k].T, out=buf if k else out)
        if k:
            out += buf
    return out


def fft_causal_conv_bank_adjoint(filters, signal, mixing, grad, weights=None, *,
                                 dmixing):
    """Adjoint of :func:`fft_causal_conv_bank` for ``grad`` ``(B, L, e)``:
    ``(dsignal, dweights)``, dweights None when ``weights`` is.  The mixing
    gradient is written into ``dmixing``, a ``(K, e, d)`` array.

    Per channel: recompute ``z_k``, take ``dz_k = mixing[k]^T @ grad`` and
    ``dweights[..., k] = <dz_k, z_k>``, weight both, take ``dmixing[k] =
    sum_b grad @ z_k^T`` and add ``conj(F_k) * rfft(dz_k)`` into one
    ``(B, d, nf)`` spectrum, whose inverse is ``dsignal``.
    """
    s, mixing, w_t, f_hat, s_hat, n = _bank_spectra(filters, signal, mixing, weights)
    batch, length, width = s.shape
    grad_t = np.swapaxes(grad, 1, 2)  # (B, e, L)
    if dmixing.shape != mixing.shape:
        raise StructuralError(
            f"dmixing is {dmixing.shape}, the mixing stack {mixing.shape}"
        )
    # one channel's per-sequence products grad[b] @ z_k[b]^T, summed into
    # dmixing[k].  A loop over sequences would hold no (B, e, d) buffer, but
    # runs 4x slower at B=16, L=32, d=16
    per_seq = np.empty((batch,) + mixing.shape[1:], dtype=dmixing.dtype)
    dweights = None if w_t is None else np.empty(w_t.shape, dtype=s.dtype)  # (B, K, L)
    dz = np.empty((batch, width, length), dtype=s.dtype)
    dz_hat = np.empty(s_hat.shape, dtype=np.result_type(s.dtype, np.complex64))
    acc = np.zeros_like(dz_hat)  # sum_k conj(F_k) * rfft(dz_k), in bank order from zero
    for k, f_k, z in _channels(f_hat, s_hat, n, length, s.dtype):
        np.matmul(mixing[k].T, grad_t, out=dz)
        if w_t is not None:
            np.einsum("bdl,bdl->bl", dz, z, out=dweights[:, k])
            z *= w_t[:, k, None, :]
            dz *= w_t[:, k, None, :]
        np.matmul(grad_t, np.swapaxes(z, 1, 2), out=per_seq).sum(axis=0, out=dmixing[k])
        np.fft.rfft(dz, n=n, axis=-1, out=dz_hat)
        dz_hat *= np.conj(f_k)
        acc += dz_hat
    acc = scipy.fft.irfft(acc, n=n, axis=-1, overwrite_x=True)[..., :length]
    dsignal = np.swapaxes(acc, 1, 2).astype(s.dtype, copy=False)
    return dsignal, None if dweights is None else np.swapaxes(dweights, 1, 2)
