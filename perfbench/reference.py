"""An independent NumPy reference for the model's forward map.

It evaluates the model at chosen timesteps straight from the definitions:
causal sums written out term by term over the filters scaled by
``eigenvalue ** (1/4)``, the gate MLP with the exact GELU, the RMS rescale of
the active logits, the softmax over the active prefix, the residual blocks,
the norms and the readout.  It shares no code with the package's FFT path,
gate or norms; it reads only the parameters, the config and the basis.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

#: LayerNorm/RMSNorm variance stabiliser of the model (``model.NORM_EPS``).
NORM_EPS = 1e-5


def _norm(x: np.ndarray, gain, bias, kind: str) -> np.ndarray:
    if kind == "layernorm":
        centred = x - x.mean(axis=-1, keepdims=True)
        var = (centred * centred).mean(axis=-1, keepdims=True)
        return centred / np.sqrt(var + NORM_EPS) * gain + bias
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + NORM_EPS) * gain + bias


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def quarter_scaled_filters(eigenvalues: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """filters[k] * eigenvalues[k] ** (1/4); a channel with eigenvalue <= 0 is zero."""
    scale = np.where(eigenvalues > 0.0, np.maximum(eigenvalues, 0.0) ** 0.25, 0.0)
    return scale[:, None] * filters


def causal_sums(filters: np.ndarray, u: np.ndarray, times) -> np.ndarray:
    """out[k, i] = sum_{tau=0..t} filters[k, tau] * u[t - tau] for t = times[i].

    ``filters`` is (K, L) and ``u`` is (L, d); the result is (K, len(times), d).
    """
    out = np.empty((filters.shape[0], len(times), u.shape[1]))
    for i, t in enumerate(times):
        # filters[:, t::-1] lists filters[k, t], ..., filters[k, 0], the
        # taps that meet u[0], ..., u[t]
        out[:, i] = filters[:, t::-1] @ u[: t + 1]
    return out


def _layer_at(u: np.ndarray, times, layer, scaled: np.ndarray, budget: int) -> np.ndarray:
    """The budgeted layer's output at ``times`` for one (L, d) input."""
    feats = causal_sums(scaled[:budget], u, times)  # (K, n, d)
    x = u[list(times)]
    logits = _gelu(x @ layer.gate.w_in.T + layer.gate.b_in) @ layer.gate.w_out.T
    active = (logits + layer.gate.b_out)[:, :budget]
    norm = np.sqrt(np.sum(active * active, axis=-1, keepdims=True))
    z = active * math.sqrt(budget) / (norm + layer.gate.eps)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)  # (n, K)
    out = x @ layer.skip.T
    for k in range(budget):
        out += weights[:, k : k + 1] * (feats[k] @ layer.mixing[k].T)
    return out


def reference_outputs(sequence, params, config, basis, budget: int, times) -> np.ndarray:
    """Model outputs at ``times`` for one sequence, shaped (len(times), out_dim).

    ``sequence`` is a token vector (L,) or a real array (L, in_dim).  Only a
    per-step head with the gate on and masked truncation is supported.
    """
    if (config.head, config.gate_enabled, config.truncation_mode) != ("per-step", True, "masked"):
        raise ValueError("the reference evaluates gated, masked, per-step models only")
    times = sorted(int(t) for t in times)
    horizon = times[-1] + 1
    seq = np.asarray(sequence)[:horizon]
    if config.input_kind == "tokens":
        x = params.embed_table[seq]
    else:
        x = seq @ params.embed_w.T + params.embed_b
    scaled = quarter_scaled_filters(basis.eigenvalues, basis.filters)
    for i, block in enumerate(params.blocks):
        normed = _norm(x, block.norm_gain, block.norm_bias, config.norm_kind)
        if i + 1 < len(params.blocks):
            # a later block reads this block's output at every t <= horizon
            x = x + _layer_at(normed, range(horizon), block.layer, scaled, budget)
        else:
            x = x[times] + _layer_at(normed, times, block.layer, scaled, budget)
    if not params.blocks:
        x = x[times]
    features = _norm(x, params.final_gain, params.final_bias, config.norm_kind)
    return features @ params.readout_w.T + params.readout_b
