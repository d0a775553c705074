"""Analytic reverse-mode gradients for the budgeted layer and full model.

Everything is hand-derived against the forward code in ``layer.py`` and
``model.py``; no autograd framework is involved.  Key Jacobians:

* softmax:          ds = w * (dw - <dw, w>)
* RMS rescale:      z = a * c(n), c = sqrt(K)/(n + eps), n = ||a||
                    da = c * dz - sqrt(K) * <dz, a> * a / (n * (n + eps)^2)
* GELU:             d/dx [x * Phi(x)] = Phi(x) + x * phi(x), with Phi(x)
                    from the erf term the forward keeps (``LayerCache.gelu_erf``),
                    which also rebuilds the gate's hidden layer
* causal conv bank: adjoint is causal correlation with the same filters

Every weight gradient (skip, gate, readout, embedding projection) is a sum
over the B*L positions of an outer product; it is formed as one GEMM over the
flattened positions (``_weight_grad``), which BLAS runs, where ``np.einsum``
without ``optimize`` runs its own loops.

Budget masking: at runtime budget K, rows k >= K of the mixing stack and
of the gate's output layer are untouched by the forward pass, and the
gradient arrays here are allocated as zeros with only the first K rows
written, so inactive rows come back bitwise zero (not merely tiny).

The gradient set is a plain dict mapping the parameter names of
``model.param_schema`` to arrays of matching shape, with every parameter
present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erf

from .errors import NumericError, StructuralError
from .layer import GateParams, LayerCache, LayerParams, gelu, live_logits
from .linalg import fft_causal_conv_bank_adjoint
from .model import (
    ModelCache,
    flatten_params,
    layer_param_arrays,
    model_forward,
    param_schema,
    params_from_arrays,
)

__all__ = [
    "GradCheckReport",
    "finite_diff_check",
    "gelu_grad",
    "layer_backward",
    "mean_squared_error",
    "model_backward",
    "norm_backward",
    "softmax_cross_entropy",
]


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# losses (value + gradient in one pass)
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits, targets, mask=None):
    """Mean negative log-likelihood over (optionally masked) positions.

    ``logits``: (..., V); ``targets``: integer (...,); ``mask``: optional
    boolean (...,) — False positions contribute nothing and receive zero
    gradient.  Returns (loss, dlogits), the gradient in the logits' dtype.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise StructuralError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.shape[:-1]}"
        )
    peak = logits.max(axis=-1, keepdims=True)
    shifted = logits - peak
    logz = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    logp = shifted - logz
    nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]

    onehot_grad = np.exp(logp)  # the probabilities, less one at each target below
    np.put_along_axis(
        onehot_grad,
        targets[..., None],
        np.take_along_axis(onehot_grad, targets[..., None], axis=-1) - 1.0,
        axis=-1,
    )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != targets.shape:
            raise StructuralError(
                f"mask shape {mask.shape} does not match targets {targets.shape}"
            )
        count = int(mask.sum())
        if count == 0:
            raise StructuralError("loss mask excludes every position")
        loss = float(np.sum(nll * mask) / count)
        dlogits = onehot_grad * (mask[..., None] / count).astype(logits.dtype, copy=False)
    else:
        count = nll.size
        loss = float(nll.mean())
        dlogits = onehot_grad / count
    return loss, dlogits


def mean_squared_error(pred, target, mask=None):
    """Mean of squared residuals over (optionally masked) elements.

    ``mask`` is per position (pred shape without the channel axis); the
    average runs over unmasked elements.  Returns (loss, dpred), the
    gradient in the predictions' dtype.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if target.shape != pred.shape:
        raise StructuralError(
            f"target shape {target.shape} does not match predictions {pred.shape}"
        )
    resid = pred - target
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != pred.shape[:-1]:
            raise StructuralError(
                f"mask shape {mask.shape} does not match positions "
                f"{pred.shape[:-1]}"
            )
        count = int(mask.sum()) * pred.shape[-1]
        if count == 0:
            raise StructuralError("loss mask excludes every position")
        loss = float(np.sum(resid * resid * mask[..., None]) / count)
        dpred = resid * (2.0 * mask[..., None] / count)
    else:
        loss = float(np.mean(resid * resid))
        dpred = resid * (2.0 / resid.size)
    # float64 targets must not lift a float32 model's backward
    return loss, dpred.astype(pred.dtype, copy=False)


# ---------------------------------------------------------------------------
# layer backward
# ---------------------------------------------------------------------------


def gelu_grad(x: np.ndarray, erf_term: Optional[np.ndarray] = None) -> np.ndarray:
    """d/dx [x * Phi(x)] = Phi(x) + x * phi(x).

    ``erf_term`` is ``erf(x / sqrt 2)`` when the caller already holds it, as
    ``LayerCache.gelu_erf`` does for the gate's pre-activations; the default
    computes it, for standalone use.
    """
    x = np.asarray(x)
    if erf_term is None:
        erf_term = erf(x * _INV_SQRT2)
    cdf = 0.5 * (1.0 + erf_term)
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return cdf + x * pdf


def _weight_grad(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[i, j] = sum over leading axes of a[..., i] * b[..., j]``, as one
    GEMM over the flattened leading axes (BLAS, where ``np.einsum`` is not)."""
    np.matmul(a.reshape(-1, a.shape[-1]).T, b.reshape(-1, b.shape[-1]), out=out)


def _softmax_vjp(w, dw):
    """ds for s -> w = softmax(s): w * (dw - sum_j dw_j w_j)."""
    inner = np.sum(dw * w, axis=-1, keepdims=True)
    return w * (dw - inner)


def _rms_rescale_vjp(a, eps, dz):
    """da for a -> z = a * sqrt(K)/(||a|| + eps)."""
    n = np.linalg.norm(a, axis=-1, keepdims=True)
    root_k = math.sqrt(a.shape[-1])
    c = root_k / (n + eps)
    inner = np.sum(dz * a, axis=-1, keepdims=True)
    n_safe = np.where(n > 0.0, n, 1.0)
    correction = np.where(
        n > 0.0, root_k * inner / (n_safe * (n + eps) ** 2), 0.0
    )
    return c * dz - correction * a


def _zeros_like_layer(p: LayerParams) -> LayerParams:
    z, g = np.zeros_like, p.gate
    gate = GateParams(z(g.w_in), z(g.b_in), z(g.w_out), z(g.b_out), g.eps)
    return LayerParams(z(p.mixing), z(p.skip), gate)


def layer_backward(
    dout, cache: LayerCache, out: Optional[LayerParams] = None
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients of one layer; returns (dinput, grads).

    ``grads`` maps the layer's parameter names to gradient arrays, written
    into ``out`` (zeros shaped like the parameters) when given.  In masked
    mode and with the gate disabled, rows >= budget of the mixing stack and
    the gate's output layer are bitwise zero.  Direct-mode truncation routes
    gradient through the full-capacity softmax, so every gate row is live
    there (mixing rows >= budget stay zero: the forward never reads them).
    The spectral gradients come from one adjoint call, which recomputes the
    channels from ``cache.u`` one at a time, so no pass holds all K at once,
    and writes the mixing gradient straight into its rows of ``grads``.
    """
    p = cache.params
    budget = cache.budget
    dout = np.asarray(dout)
    if dout.shape != cache.u.shape:
        raise StructuralError(
            f"upstream gradient shape {dout.shape} does not match layer "
            f"output {cache.u.shape}"
        )
    g = _zeros_like_layer(p) if out is None else out

    # out = u @ skip^T + the spectral branch, as the forward computes it
    _weight_grad(dout, cache.u, out=g.skip)
    dspectral, dweights = fft_causal_conv_bank_adjoint(
        cache.basis.scaled_filters[:budget], cache.u, p.mixing[:budget], dout,
        cache.weights, dmixing=g.mixing[:budget],
    )
    du = dout @ p.skip + dspectral

    if cache.gate_enabled:
        # the forward's softmax ran over the first `active` logits
        active = live_logits(cache.truncation, budget, p.capacity)
        dsoft = np.zeros(dweights.shape[:-1] + (active,), dtype=dweights.dtype)
        dsoft[..., :budget] = dweights
        dscaled = _softmax_vjp(cache.weights_full[..., :active], dsoft)
        dactive = _rms_rescale_vjp(cache.logits[..., :active], p.gate.eps, dscaled)
        # gate rows >= active read no gradient, so theirs stays 0.0
        hidden = gelu(cache.pre, cache.gelu_erf)
        _weight_grad(dactive, hidden, out=g.gate.w_out[:active])
        g.gate.b_out[:active] = dactive.sum(axis=(0, 1))

        dhidden = dactive @ p.gate.w_out[:active]
        dpre = dhidden * gelu_grad(cache.pre, cache.gelu_erf)
        _weight_grad(dpre, cache.u, out=g.gate.w_in)
        g.gate.b_in[...] = dpre.sum(axis=(0, 1))
        du += dpre @ p.gate.w_in

    return du, layer_param_arrays(g)


# ---------------------------------------------------------------------------
# normalization backward
# ---------------------------------------------------------------------------


def norm_backward(dout, ncache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dgain, dbias) for either normalization kind."""
    if ncache["kind"] == "layernorm":
        xhat, inv_std, gain = ncache["xhat"], ncache["inv_std"], ncache["gain"]
        dgain = np.sum(dout * xhat, axis=tuple(range(dout.ndim - 1)))
        dbias = np.sum(dout, axis=tuple(range(dout.ndim - 1)))
        dxhat = dout * gain
        mean_d = dxhat.mean(axis=-1, keepdims=True)
        mean_dx = np.mean(dxhat * xhat, axis=-1, keepdims=True)
        dx = inv_std * (dxhat - mean_d - xhat * mean_dx)
        return dx, dgain, dbias
    if ncache["kind"] == "rmsnorm":
        x, inv_rms, gain = ncache["x"], ncache["inv_rms"], ncache["gain"]
        width = x.shape[-1]
        dgain = np.sum(dout * x * inv_rms, axis=tuple(range(dout.ndim - 1)))
        dbias = np.sum(dout, axis=tuple(range(dout.ndim - 1)))
        h = dout * gain
        inner = np.sum(h * x, axis=-1, keepdims=True)
        dx = inv_rms * h - (inv_rms**3 / width) * x * inner
        return dx, dgain, dbias
    raise StructuralError(f"unknown norm kind {ncache['kind']!r}")


# ---------------------------------------------------------------------------
# full model backward
# ---------------------------------------------------------------------------


def model_backward(dout, cache: ModelCache) -> dict[str, np.ndarray]:
    """Gradient of a scalar loss wrt every parameter, as {name: array}.

    ``dout`` is the loss gradient at the model output, shaped like the
    forward result: (B, L, out) per-step, (B, out) mean-pool.
    """
    config = cache.config
    params = cache.params
    dout = np.asarray(dout)

    grads = {
        spec.name: np.zeros(spec.shape, dtype=np.dtype(config.precision))
        for spec in param_schema(config)
    }
    g = params_from_arrays(grads, config)  # the same arrays, by attribute

    feats = cache.features
    per_step = config.head == "per-step"
    expected = (feats.shape[:2] if per_step else feats.shape[:1]) + (config.out_dim,)
    if dout.shape != expected:
        raise StructuralError(
            f"output gradient shape {dout.shape} does not match {expected}"
        )
    if per_step:
        _weight_grad(dout, feats, out=g.readout_w)
        g.readout_b[...] = dout.sum(axis=(0, 1))
        dfeat = dout @ params.readout_w
    else:  # mean-pool
        _weight_grad(dout, feats.mean(axis=1), out=g.readout_w)
        g.readout_b[...] = dout.sum(axis=0)
        dpooled = dout @ params.readout_w
        dfeat = np.repeat(dpooled[:, None, :] / feats.shape[1], feats.shape[1], axis=1)

    dx, dgain, dbias = norm_backward(dfeat, cache.final_cache)
    g.final_gain[...] = dgain
    g.final_bias[...] = dbias

    for i in reversed(range(config.depth)):
        block = g.blocks[i]
        # residual: x_{i+1} = x_i + layer(norm(x_i))
        dnormed, _ = layer_backward(dx, cache.layer_caches[i], out=block.layer)
        dx_norm, dgain, dbias = norm_backward(dnormed, cache.norm_caches[i])
        block.norm_gain[...] = dgain
        block.norm_bias[...] = dbias
        dx = dx + dx_norm

    if config.input_kind == "tokens":
        flat_ids = cache.inputs.reshape(-1)
        np.add.at(g.embed_table, flat_ids, dx.reshape(-1, config.width))
    else:
        _weight_grad(dx, cache.inputs, out=g.embed_w)
        g.embed_b[...] = dx.sum(axis=(0, 1))
    return grads


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    n_coords: int
    max_rel_err: float
    worst_param: str
    worst_index: tuple[int, ...]
    tolerance: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"gradcheck {status}: {self.n_coords} coordinates, "
            f"max relative error {self.max_rel_err:.3e} at "
            f"{self.worst_param}{list(self.worst_index)} "
            f"(tolerance {self.tolerance:.1e})"
        )


def finite_diff_check(
    loss_fn,
    params,
    config,
    n_coords: int = 200,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    ``loss_fn(params) -> (loss, grads)`` must be deterministic.  Coordinates
    are sampled so every parameter tensor is probed at least once, with the
    remainder spread proportionally to tensor size.  Relative error uses a
    denominator floor of 1e-6.  Requires float64 parameters — anything
    coarser cannot support h=1e-5 central differences.
    """
    flat = flatten_params(params, config)
    for name, arr in flat:
        if arr.dtype != np.float64:
            raise NumericError(
                f"finite differences need float64 parameters; {name} is "
                f"{arr.dtype}"
            )
    if n_coords < len(flat):
        raise StructuralError(
            f"{n_coords} coordinates cannot span {len(flat)} tensors"
        )
    rng = np.random.default_rng(seed)
    coords: list[tuple[int, tuple[int, ...]]] = []
    for ti, (_, arr) in enumerate(flat):
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        coords.append((ti, idx))
    sizes = np.array([arr.size for _, arr in flat], dtype=np.float64)
    probs = sizes / sizes.sum()
    extra = rng.choice(len(flat), size=n_coords - len(flat), p=probs)
    for ti in extra:
        arr = flat[ti][1]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        coords.append((int(ti), idx))

    _, analytic = loss_fn(params)
    max_rel = -1.0
    worst = (flat[0][0], coords[0][1])
    for ti, idx in coords:
        name, arr = flat[ti]
        original = arr[idx]
        arr[idx] = original + step
        loss_plus, _ = loss_fn(params)
        arr[idx] = original - step
        loss_minus, _ = loss_fn(params)
        arr[idx] = original
        fd = (loss_plus - loss_minus) / (2.0 * step)
        an = float(analytic[name][idx])
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
        if rel > max_rel:
            max_rel = rel
            worst = (name, idx)
    return GradCheckReport(
        n_coords=len(coords),
        max_rel_err=float(max_rel),
        worst_param=worst[0],
        worst_index=tuple(int(i) for i in worst[1]),
        tolerance=tolerance,
        passed=bool(max_rel <= tolerance),
    )


def model_loss_fn(inputs, targets, config, basis, budget, mask=None):
    """Build a deterministic ``loss_fn(params)`` for gradcheck/training.

    The loss follows the targets: cross-entropy for integer targets, mean
    squared error otherwise, which is each task's ``Dataset.loss``
    (``run_training`` checks that ``TrainConfig.loss`` names the same one).
    """
    targets = np.asarray(targets)
    loss_of = (softmax_cross_entropy if np.issubdtype(targets.dtype, np.integer)
               else mean_squared_error)

    def loss_fn(params):
        out, cache = model_forward(inputs, params, config, basis, budget)
        loss, dout = loss_of(out, targets, mask)
        return loss, model_backward(dout, cache)

    return loss_fn
