"""The gated budgeted spectral layer.

Forward map at runtime budget K (a prefix of the ``capacity`` channels):

    y(t) = skip @ u(t)
         + sum_{k<K} weight_k(t) * eigenvalue_k^(1/4) * mixing_k @ (filter_k * u)(t)

where ``*`` is causal convolution against the fixed spectral filters and the
per-timestep weights come from a small MLP gate: logits for all channels,
RMS rescale of the first K logits (sqrt(K) / (norm + eps)), then a masked
softmax that assigns exactly zero to channels beyond the budget.

Inputs and outputs are batches ``(B, L, d)``; pass one sequence ``u`` as
``u[None]``.  The budget must pass ``config.check_budgets``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import erf

from .basis import SpectralBasis
from .config import check_budgets
from .errors import StructuralError
from .linalg import fft_causal_conv_bank

__all__ = [
    "GateParams",
    "LayerParams",
    "LayerCache",
    "gate_logits",
    "gelu",
    "layer_flop_count",
    "layer_forward",
    "live_logits",
    "masked_softmax",
    "rms_rescale",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gelu(x: np.ndarray, erf_term: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact Gaussian-CDF GELU: x * Phi(x), Phi(x) = (1 + erf(x / sqrt 2)) / 2.

    ``erf_term`` is ``erf(x / sqrt 2)`` when the caller already holds it;
    the default computes it, for standalone use.
    """
    x = np.asarray(x)
    if erf_term is None:
        erf_term = erf(x * _INV_SQRT2)
    return x * 0.5 * (1.0 + erf_term)


@dataclass
class GateParams:
    """Two-layer MLP emitting one logit per spectral channel.

    ``w_in``: (gate_hidden, width); ``b_in``: (gate_hidden,);
    ``w_out``: (capacity, gate_hidden); ``b_out``: (capacity,).
    ``eps`` stabilizes the RMS rescale of active logits.
    """

    w_in: np.ndarray
    b_in: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    eps: float = 1e-6

    def __post_init__(self):
        if self.eps <= 0:
            raise StructuralError(f"gate eps must be positive, got {self.eps}")
        dg, _ = self.w_in.shape
        cap, dg2 = self.w_out.shape
        if self.b_in.shape != (dg,) or dg2 != dg or self.b_out.shape != (cap,):
            raise StructuralError(
                f"inconsistent gate shapes: w_in {self.w_in.shape}, "
                f"b_in {self.b_in.shape}, w_out {self.w_out.shape}, "
                f"b_out {self.b_out.shape}"
            )

    @property
    def capacity(self) -> int:
        return self.w_out.shape[0]


@dataclass
class LayerParams:
    """Per-layer learnable tensors.

    ``mixing``: (capacity, width, width) stack of per-channel mixing
    matrices; ``skip``: (width, width); plus the gate MLP.
    """

    mixing: np.ndarray
    skip: np.ndarray
    gate: GateParams

    def __post_init__(self):
        if self.mixing.ndim != 3 or self.mixing.shape[1] != self.mixing.shape[2]:
            raise StructuralError(
                f"mixing must be (capacity, width, width), got {self.mixing.shape}"
            )
        if self.skip.shape != self.mixing.shape[1:]:
            raise StructuralError(
                f"skip shape {self.skip.shape} does not match width "
                f"{self.mixing.shape[1]}"
            )
        if self.gate.capacity != self.mixing.shape[0]:
            raise StructuralError(
                f"gate emits {self.gate.capacity} logits but mixing holds "
                f"{self.mixing.shape[0]} channels"
            )

    @property
    def capacity(self) -> int:
        return self.mixing.shape[0]

    @property
    def width(self) -> int:
        return self.mixing.shape[1]


def _gate_mlp(u: np.ndarray, g: GateParams):
    """(pre-activation, its GELU's erf term, logits) of the gate MLP on (..., d)
    input; the backward rebuilds the hidden layer from the first two."""
    pre = u @ g.w_in.T + g.b_in
    erf_term = erf(pre * _INV_SQRT2)
    return pre, erf_term, gelu(pre, erf_term) @ g.w_out.T + g.b_out


def gate_logits(u, g: GateParams) -> np.ndarray:
    """Logits for every spectral channel: w_out @ GELU(w_in @ u + b_in) + b_out.

    ``u`` may be a single d-vector or any (..., d) stack; the gate applies
    per timestep (one batched matrix product, no loop).
    """
    u = np.asarray(u)
    if u.shape[-1] != g.w_in.shape[1]:
        raise StructuralError(
            f"gate expects width {g.w_in.shape[1]}, got input with "
            f"trailing dim {u.shape[-1]}"
        )
    return _gate_mlp(u, g)[2]


def rms_rescale(s, budget: int, eps: float) -> np.ndarray:
    """Scale the first ``budget`` logits by sqrt(budget)/(their norm + eps).

    Only the active prefix is read; the result has trailing dim ``budget``.
    """
    s = np.asarray(s)
    if budget < 1 or budget > s.shape[-1]:
        raise StructuralError(
            f"budget {budget} outside [1, {s.shape[-1]}] for rms_rescale"
        )
    active = s[..., :budget]
    norm = np.linalg.norm(active, axis=-1, keepdims=True)
    return active * (math.sqrt(budget) / (norm + eps))


def live_logits(truncation: str, budget: int, capacity: int) -> int:
    """How many leading gate logits the weights at ``budget`` read: masked
    truncation renormalizes over the first ``budget``, direct over all
    ``capacity`` (then keeps the first ``budget`` weights unrenormalized)."""
    return budget if truncation == "masked" else capacity


def masked_softmax(scaled, budget: int, capacity: int) -> np.ndarray:
    """Softmax over the active prefix, exact zeros beyond it.

    ``scaled`` carries the ``budget`` active entries in its trailing dim;
    the result has trailing dim ``capacity`` with entries k >= budget
    exactly 0.0 and the active entries summing to 1.
    """
    scaled = np.asarray(scaled)
    if scaled.shape[-1] != budget:
        raise StructuralError(
            f"masked_softmax expects {budget} active logits, got "
            f"{scaled.shape[-1]}"
        )
    peak = np.max(scaled, axis=-1, keepdims=True)
    exp = np.exp(scaled - peak)
    active = exp / np.sum(exp, axis=-1, keepdims=True)
    out = np.zeros(scaled.shape[:-1] + (capacity,), dtype=scaled.dtype)
    out[..., :budget] = active
    return out


def layer_flop_count(
    seq_len: int,
    width: int,
    gate_hidden: int,
    capacity: int,
    budget: int,
    batch: int = 1,
) -> int:
    """Nominal FLOPs of one layer forward at the given budget.

    Terms: (budget+1) FFT convolutions at d*L*log2(L) each (budget feature
    channels plus the input transform), and per timestep: budget mixing
    products (d^2), the skip product (d^2), the gate MLP (d_g*d in,
    capacity*d_g out), and the budget-sized softmax/weighting work.
    The count is exactly affine in the budget.  It is the FFT path's nominal
    count; sequences of at most ``linalg.DIRECT_MAX_LEN`` steps take the
    direct path, which spends L^2*d multiply-adds per channel and sequence
    on its Toeplitz product in place of the FFT term, so its cost is affine
    in the budget too.
    """
    # log2(L), an exact int when L is a power of two
    log2l = seq_len.bit_length() - 1 if seq_len & (seq_len - 1) == 0 else math.log2(seq_len)
    fft_term = batch * (budget + 1) * width * seq_len * log2l
    per_step = batch * seq_len * (
        budget * width * width
        + width * width
        + gate_hidden * width
        + capacity * gate_hidden
        + budget
    )
    total = fft_term + per_step
    return int(total) if isinstance(log2l, int) else total


@dataclass
class LayerCache:
    """Forward activations for the backward pass, each (B, L, ...); the
    backward recomputes the spectral channels from ``u``, one at a time, and
    the gate's hidden layer from ``pre`` and ``gelu_erf``.  With the gate
    disabled every gate array is ``None``: each active channel has unit
    weight, and nothing holds those ones."""

    u: np.ndarray  # (B, L, d) layer input
    budget: int
    gate_enabled: bool
    truncation: str
    pre: Optional[np.ndarray]  # (B, L, d_g) gate pre-activations
    gelu_erf: Optional[np.ndarray]  # (B, L, d_g) erf(pre / sqrt 2), the GELU's erf term
    logits: Optional[np.ndarray]  # (B, L, capacity) gate logits
    weights: Optional[np.ndarray]  # (B, L, K) active mixture weights
    weights_full: Optional[np.ndarray]  # (B, L, capacity) gate output, zero past K when masked
    params: LayerParams = field(repr=False)
    basis: SpectralBasis = field(repr=False)


def layer_forward(
    u,
    p: LayerParams,
    basis: SpectralBasis,
    budget: int,
    gate_enabled: bool = True,
    truncation: str = "masked",
) -> tuple[np.ndarray, LayerCache]:
    """Run the budgeted layer; returns (output, cache).

    ``truncation="masked"`` renormalizes over the active prefix (the gate's
    masked softmax).  ``truncation="direct"`` computes full-capacity weights
    and simply drops channels beyond the budget without renormalizing.
    With ``gate_enabled=False`` every active channel gets unit weight.
    """
    u = np.asarray(u)
    if u.ndim != 3:
        raise StructuralError(f"layer input must be (B, L, d), got {u.shape}")
    _, length, width = u.shape
    if basis.seq_len != length:
        raise StructuralError(
            f"basis is built for seq_len {basis.seq_len}, input has length {length}"
        )
    if p.capacity != basis.capacity:
        raise StructuralError(
            f"params hold {p.capacity} channels, basis {basis.capacity}"
        )
    if p.width != width:
        raise StructuralError(f"params width {p.width}, input width {width}")
    if truncation not in ("masked", "direct"):
        raise StructuralError(f"unknown truncation mode {truncation!r}")
    (budget,) = check_budgets((budget,), p.capacity)

    # gate off: every weight is 1, left as None so the bank skips the weighting pass
    pre = gelu_erf = logits = weights_full = weights = None
    if gate_enabled:
        pre, gelu_erf, logits = _gate_mlp(u, p.gate)  # logits: (B, L, capacity)
        active = live_logits(truncation, budget, p.capacity)
        scaled = rms_rescale(logits, active, p.gate.eps)
        weights_full = masked_softmax(scaled, active, p.capacity)
        weights = weights_full[..., :budget]  # (B, L, K)

    out = fft_causal_conv_bank(basis.scaled_filters[:budget], u, p.mixing[:budget], weights)
    out += u @ p.skip.T

    cache = LayerCache(
        u=u,
        budget=budget,
        gate_enabled=gate_enabled,
        truncation=truncation,
        pre=pre,
        gelu_erf=gelu_erf,
        logits=logits,
        weights=weights,
        weights_full=weights_full,
        params=p,
        basis=basis,
    )
    return out, cache
