"""The layer's spectral branch: causal convolution with a filter bank,
weighted and mixed channel by channel, and its adjoint.

The convolution takes one of two exact paths, chosen by the sequence length
alone (:func:`convolves_directly`): up to ``DIRECT_MAX_LEN`` steps each
channel is one lower-triangular Toeplitz matrix product per sequence, which
BLAS runs; longer sequences go through ``numpy.fft``, zero-padded so the
circular convolution is the causal one.

Array conventions used throughout the package:

* a *matrix* is a 2-D C-order ``float`` ndarray,
* sequences always come as a batch ``(B, L, d)`` (time-major within each
  sequence); one sequence ``x`` is passed as ``x[None]``,
* a *filter bank* is a ``(K, L)`` array, one length-``L`` filter per row,
  applied in the signal's precision,
* one channel's convolution is ``(B, L, d)`` (on the FFT path a view of a
  time-last buffer) and is consumed where it is made: no ``(B, K, d, L)``
  array exists.

Causal convolution is defined as ``out[t] = sum_{tau=0..t} f[tau] * s[t-tau]``
(0-indexed): the tap at lag zero participates, and ``out[t]`` never reads
``s[t']`` for ``t' > t``.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import StructuralError

__all__ = [
    "DIRECT_MAX_LEN",
    "convolves_directly",
    "fft_causal_conv_bank",
    "fft_causal_conv_bank_adjoint",
    "next_pow2",
]

#: Longest sequence the bank convolves directly.  Up to this length a
#: channel's Toeplitz product beats its transforms: the crossover sits
#: between 256 and 512 steps (``BENCH_direct_conv.json``).
DIRECT_MAX_LEN = 256


# Pin glibc's malloc thresholds (mmap 32 MiB, trim 64 MiB) at the values its
# dynamic rule reaches once a 32 MiB block is freed.  A layer's arrays are a
# few MiB, so from the 128 KiB default every call hands its memory back and
# faults it in again: a layer forward at K=2 took 4079 minor faults at
# L=1024, d=64, B=8 (the FFT path) and 1379 at the desk geometry (the direct
# path), against none with these values.
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


def _checked(filters, signal, mixing):
    """The filter bank and the signal as finite float arrays of matching
    length, and the mixing stack as an array."""
    f = _as_float_array(filters, "filters")
    s = _as_float_array(signal, "signal")
    if f.ndim != 2 or len(f) == 0 or s.ndim != 3 or f.shape[1] != s.shape[1]:
        raise StructuralError(
            f"need a (K, L) filter bank with K >= 1 and a (B, L, d) signal, "
            f"got {f.shape} and {s.shape}"
        )
    return f, s, np.asarray(mixing)


def convolves_directly(length: int) -> bool:
    """Whether the bank convolves length-``length`` sequences as Toeplitz
    products (the direct path) rather than by FFT."""
    return length <= DIRECT_MAX_LEN


def _direct_channels(f, s, z):
    """Yield k, T_k and ``filters[k] ∗ signal`` computed into ``z``, a
    ``(B, L, d)`` buffer, as ``T_k @ signal``, one GEMM per sequence.  T_k is
    filter k's ``(L, L)`` lower-triangular Toeplitz matrix, copied per channel
    into one buffer from windows over the reversed bank, zero-padded to
    ``(K, 2L - 1)`` in the signal's dtype; both are the caller's to overwrite
    until the next channel is drawn."""
    num, length = f.shape
    padded = np.zeros((num, 2 * length - 1), dtype=s.dtype)
    padded[:, :length] = f[:, ::-1]
    # windows[k, a, c] = padded[k, a + c], so row L-1-t is f_k[t], ..., f_k[0], 0, ...
    windows = sliding_window_view(padded, length, axis=-1)
    toeplitz = np.empty((length, length), dtype=s.dtype)
    for k in range(num):
        np.copyto(toeplitz, windows[k, ::-1])  # T_k[t, tau] = f_k[t - tau], tau <= t
        np.matmul(toeplitz, s, out=z)
        yield k, toeplitz, z


def _bank_spectra(f, s):
    """The filter and signal spectra, and the signal copied once, time last,
    into a zero-tailed ``(B, d, n)`` buffer, n the padded length; the caller
    may reuse it."""
    batch, length, width = s.shape
    n = next_pow2(2 * length - 1)
    padded = np.empty((batch, width, n), dtype=s.dtype)
    padded[..., :length] = np.swapaxes(s, 1, 2)
    padded[..., length:] = 0.0
    # At the default norm numpy.fft runs a float32 rfft in float64, through
    # two casting copies; norm="forward" passes its 1/n in the signal's
    # precision.  The filter spectra carry the n back: both scalings are
    # exact for a power of two, so every product is the unscaled one.
    f_hat = np.fft.rfft(n * f.astype(s.dtype, copy=False), n=n, axis=-1)
    s_hat = np.fft.rfft(padded, axis=-1, norm="forward")
    return f_hat, s_hat, padded


def _fft_channels(f_hat, s_hat, product, padded, length: int):
    """Yield k, F_k and ``filters[k] ∗ signal`` as a ``(B, L, d)`` view of
    ``padded``: each channel's spectrum is formed in ``product`` and inverse
    transformed into ``padded``, and both are the caller's to overwrite until
    the next channel is drawn."""
    for k, f_k in enumerate(f_hat):
        np.fft.irfft(np.multiply(s_hat, f_k, out=product), n=padded.shape[-1], axis=-1,
                     out=padded)
        yield k, f_k, np.swapaxes(padded[..., :length], 1, 2)


def fft_causal_conv_bank(filters, signal, mixing, weights=None) -> np.ndarray:
    """The spectral branch: ``sum_k mixing[k] @ (weights[..., k] * (filters[k] ∗ signal))``.

    ``filters`` is ``(K, L)``, K >= 1, ``signal`` ``(B, L, d)``, ``mixing``
    ``(K, e, d)``, ``weights`` ``(B, L, K)`` or None for unit weights (no
    weighting pass).  Returns a fresh ``(B, L, e)`` array in the signal's
    dtype, which the convolution, weighting and mixing run in.  ``∗`` is
    causal convolution.  Each channel is convolved, weighted in place and
    mixed into one accumulator, so the peak does not grow with K.

    The convolution takes one of two exact paths by the sequence length
    (:func:`convolves_directly`):

    * L <= ``DIRECT_MAX_LEN``: ``T_k @ signal`` per sequence, T_k filter k's
      lower-triangular Toeplitz matrix.  Buffers: the ``(K, 2L - 1)`` padded
      bank, one ``(L, L)`` T_k, and one ``(B, L, d)`` channel.
    * longer: FFTs zero-padded to the next power of two n >= 2L-1.  Buffers,
      with nf = n/2 + 1: the ``(B, d, n)`` padded signal, which then takes
      each channel's inverse transform; the ``(K, nf)`` filter spectra; two
      ``(B, d, nf)`` spectra, the signal's and one channel's product.

    Both paths add the ``(B, L, e)`` output and one ``(B, L, e)`` channel term.
    """
    f, s, mixing = _checked(filters, signal, mixing)
    if convolves_directly(s.shape[1]):
        channels = _direct_channels(f, s, np.empty_like(s))
    else:
        f_hat, s_hat, padded = _bank_spectra(f, s)
        channels = _fft_channels(f_hat, s_hat, np.empty_like(s_hat), padded, s.shape[1])
    out = np.empty(s.shape[:2] + mixing.shape[1:2], dtype=s.dtype)
    buf = np.empty_like(out)
    for k, _, z in channels:
        if weights is not None:
            z *= weights[..., k, None]
        # (L, e) = z @ mixing[k]^T per sequence; the first channel starts the sum
        np.matmul(z, mixing[k].T, out=buf if k else out)
        if k:
            out += buf
    return out


def fft_causal_conv_bank_adjoint(filters, signal, mixing, grad, weights=None, *,
                                 dmixing):
    """Adjoint of :func:`fft_causal_conv_bank` for ``grad`` ``(B, L, e)``:
    ``(dsignal, dweights)``, dweights None when ``weights`` is.  The mixing
    gradient is written into ``dmixing``, a ``(K, e, d)`` array.

    Per channel: recompute ``z_k`` on the forward's path, take ``dz_k =
    grad @ mixing[k]`` and ``dweights[..., k] = <dz_k, z_k>``, weight both,
    take ``dmixing[k] = sum_b grad^T @ z_k`` and add the transposed
    convolution of ``dz_k`` into ``dsignal``.  Both paths hold the ``(B, K,
    L)`` ``dweights`` when weighted; the rest is the path's own:

    * direct: ``dz_k`` and ``dmixing[k]`` are each one GEMM over the B·L
      positions, and ``T_k^T @ dz_k`` is added into ``dsignal``.  Buffers:
      the forward's padded bank, T_k and channel (which takes each
      ``T_k^T @ dz_k``), ``dz_k`` and ``dsignal``, each ``(B, L, d)``.
    * FFT: ``conj(F_k) * rfft(dz_k)`` is added into one ``(B, d, nf)``
      spectrum, whose inverse is ``dsignal``.  Buffers, with n and nf as in
      the forward: the ``(B, d, n)`` padded signal, which takes each ``z_k``
      and at the end the inverse of the sum, so ``dsignal`` is a ``(B, L,
      d)`` view of it; the ``(K, nf)`` filter spectra; three ``(B, d, nf)``
      spectra, the signal's, one channel's product (which then takes
      ``rfft(dz_k)``) and the sum; ``dz_k`` as ``(B, d, L)``; and the
      ``(B, e, d)`` per-sequence mixing products.
    """
    f, s, mixing = _checked(filters, signal, mixing)
    if dmixing.shape != mixing.shape:
        raise StructuralError(
            f"dmixing is {dmixing.shape}, the mixing stack {mixing.shape}"
        )
    batch, length, _ = s.shape
    dweights = None if weights is None else np.empty((batch, len(f), length), dtype=s.dtype)
    adjoint = _direct_adjoint if convolves_directly(length) else _fft_adjoint
    dsignal = adjoint(f, s, mixing, np.asarray(grad), weights, dmixing, dweights)
    return dsignal, None if dweights is None else np.swapaxes(dweights, 1, 2)


def _direct_adjoint(f, s, mixing, grad, weights, dmixing, dweights):
    positions, width = s.shape[0] * s.shape[1], s.shape[2]
    grad_2d = grad.reshape(positions, -1)  # (B·L, e)
    z, dz, dsignal = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    z_2d, dz_2d = z.reshape(positions, width), dz.reshape(positions, width)
    for k, toeplitz, _ in _direct_channels(f, s, z):
        np.matmul(grad_2d, mixing[k], out=dz_2d)
        if weights is not None:
            np.einsum("bld,bld->bl", dz, z, out=dweights[:, k])
            z *= weights[..., k, None]
            dz *= weights[..., k, None]
        np.matmul(grad_2d.T, z_2d, out=dmixing[k])
        # z is spent: it takes T_k^T @ dz_k; the first channel starts the sum
        np.matmul(toeplitz.T, dz, out=z if k else dsignal)
        if k:
            dsignal += z
    return dsignal


def _fft_adjoint(f, s, mixing, grad, weights, dmixing, dweights):
    batch, length, width = s.shape
    f_hat, s_hat, padded = _bank_spectra(f, s)
    n = padded.shape[-1]
    grad_t = np.swapaxes(grad, 1, 2)  # (B, e, L)
    # one channel's per-sequence products grad[b]^T @ z_k[b], summed into
    # dmixing[k].  A loop over sequences would hold no (B, e, d) buffer, but
    # runs 4x slower at B=16, L=32, d=16
    per_seq = np.empty((batch,) + mixing.shape[1:], dtype=dmixing.dtype)
    dz = np.empty((batch, width, length), dtype=s.dtype)
    product = np.empty_like(s_hat)
    acc = np.zeros_like(s_hat)  # sum_k conj(F_k) * rfft(dz_k), in bank order from zero
    for k, f_k, z in _fft_channels(f_hat, s_hat, product, padded, length):
        np.matmul(mixing[k].T, grad_t, out=dz)
        if weights is not None:
            np.einsum("bdl,bld->bl", dz, z, out=dweights[:, k])
            z *= weights[..., k, None]
            dz *= weights[:, None, :, k]
        np.matmul(grad_t, z, out=per_seq).sum(axis=0, out=dmixing[k])
        np.fft.rfft(dz, n=n, axis=-1, norm="forward", out=product)
        product *= np.conj(f_k)
        acc += product
    np.fft.irfft(acc, n=n, axis=-1, out=padded)
    return np.swapaxes(padded[..., :length], 1, 2)
