"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from the mathematical definitions,
avoiding the code paths of the package under test: convolution as scalar
loops, the moment-matrix entries by adaptive quadrature, singular values by
a hand-rolled one-sided Jacobi sweep, the budgeted layer as a per-timestep
loop, and the linear state-space teacher as a literal recurrence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from elastic_ssm.errors import StructuralError


# ---------------------------------------------------------------------------
# causal convolution, scalar loops
# ---------------------------------------------------------------------------


def scalar_causal_conv(filt, signal):
    """Literal double loop over out[t] = sum_{tau=0..t} f[tau] s[t-tau]."""
    f = [float(x) for x in filt]
    s = np.asarray(signal, dtype=np.float64)
    one_d = s.ndim == 1
    if one_d:
        s = s[:, None]
    length, d = s.shape
    out = np.zeros((length, d))
    for t in range(length):
        for tau in range(t + 1):
            for c in range(d):
                out[t, c] += f[tau] * s[t - tau, c]
    return out[:, 0] if one_d else out


def direct_causal_conv(filt, signal) -> np.ndarray:
    """Causal convolution by the literal definitional sum (O(L^2)).

    ``signal`` may be ``(L,)``, ``(L, d)``, or ``(B, L, d)``; feature columns
    are convolved independently.  This is the reference semantics against
    which the FFT path is validated.
    """
    f = np.asarray(filt, dtype=np.float64)
    s = np.asarray(signal, dtype=np.float64)
    if f.ndim != 1 or not 1 <= s.ndim <= 3:
        raise StructuralError(f"need a 1-D filter and a 1-3-D signal, got {f.shape}, {s.shape}")
    squeeze_to = s.ndim
    if s.ndim == 1:
        s = s[None, :, None]
    elif s.ndim == 2:
        s = s[None]
    b, length, d = s.shape
    if length != f.shape[0]:
        raise StructuralError(
            f"filter length {f.shape[0]} does not match signal length {length}"
        )
    out = np.zeros_like(s)
    for t in range(length):
        # out[:, t] = sum_{tau=0..t} f[tau] * s[:, t - tau]
        out[:, t, :] = np.einsum("j,bjd->bd", f[: t + 1][::-1], s[:, : t + 1, :])
    if squeeze_to == 1:
        return out[0, :, 0]
    if squeeze_to == 2:
        return out[0]
    return out


# ---------------------------------------------------------------------------
# moment-matrix entries by adaptive quadrature
# ---------------------------------------------------------------------------


def quadrature_moment_entry(i: int, j: int) -> float:
    """Entry (i, j), 1-indexed: integral over [0,1] of (b-1)^2 b^(i+j-2)."""
    power = i + j - 2
    value, abserr = quad(lambda b: (b - 1.0) ** 2 * b**power, 0.0, 1.0,
                         epsabs=1e-14, epsrel=1e-14)
    assert abserr < 1e-12
    return value


# ---------------------------------------------------------------------------
# one-sided Jacobi SVD (singular values only)
# ---------------------------------------------------------------------------


def jacobi_singular_values(m, sweeps: int = 60, tol: float = 1e-14):
    """Singular values of a real matrix by one-sided Jacobi rotations.

    Orthogonalizes the columns of a working copy; singular values are the
    resulting column norms. Completely independent of LAPACK.
    """
    a = np.array(m, dtype=np.float64, copy=True)
    if a.shape[0] < a.shape[1]:
        a = a.T.copy()
    n = a.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = float(a[:, p] @ a[:, p])
                aqq = float(a[:, q] @ a[:, q])
                apq = float(a[:, p] @ a[:, q])
                if abs(apq) <= tol * math.sqrt(app * aqq) or apq == 0.0:
                    continue
                off = max(off, abs(apq))
                zeta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                col_p = a[:, p].copy()
                a[:, p] = c * col_p - s * a[:, q]
                a[:, q] = s * col_p + c * a[:, q]
        if off == 0.0:
            break
    values = np.linalg.norm(a, axis=0)
    return np.sort(values)[::-1]


# ---------------------------------------------------------------------------
# GELU / gating helpers (scalar closed forms)
# ---------------------------------------------------------------------------


def scalar_gelu(x: float) -> float:
    """Exact Gaussian-CDF GELU via math.erf."""
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# naive budgeted-layer evaluator (per-timestep loops, direct convolution)
# ---------------------------------------------------------------------------


def naive_budgeted_layer(u, mixing, skip, w_in, b_in, w_out, b_out, eps,
                         eigenvalues, filters, budget):
    """Reference forward for the gated budgeted layer, from the definitions.

    Per timestep: two-layer gate MLP with exact GELU, scaling of the first
    ``budget`` logits by sqrt(budget)/(norm + eps), softmax over the active
    prefix, and the output sum skip @ u(t) + sum_k weight_k * sigma_k^(1/4)
    * mixing_k @ (filter_k * u)(t) with the convolution done by scalar loops.

    Shapes: u (L, d); mixing (capacity, d, d); filters (capacity, L).
    """
    u = np.asarray(u, dtype=np.float64)
    length, d = u.shape
    capacity = len(eigenvalues)
    quarter = [math.exp(math.log(ev) / 4.0) if ev > 0 else 0.0 for ev in eigenvalues]
    feats = []
    for k in range(budget):
        cols = np.stack(
            [scalar_causal_conv(filters[k], u[:, c]) for c in range(d)], axis=1
        )
        feats.append(cols)
    out = np.zeros_like(u)
    for t in range(length):
        hidden = [
            scalar_gelu(float(w_in[g] @ u[t] + b_in[g])) for g in range(len(b_in))
        ]
        logits = [
            float(np.asarray(w_out[k]) @ np.asarray(hidden) + b_out[k])
            for k in range(capacity)
        ]
        active = logits[:budget]
        norm = math.sqrt(sum(x * x for x in active))
        scaled = [x * math.sqrt(budget) / (norm + eps) for x in active]
        peak = max(scaled)
        exp = [math.exp(x - peak) for x in scaled]
        total = sum(exp)
        weights = [e / total for e in exp]
        acc = skip @ u[t]
        for k in range(budget):
            acc = acc + weights[k] * quarter[k] * (mixing[k] @ feats[k][t])
        out[t] = acc
    return out


# ---------------------------------------------------------------------------
# linear state-space teacher by literal recurrence
# ---------------------------------------------------------------------------


def recurrent_lds_unroll(a, b, c, d, u):
    """y(t) = C x(t) + D u(t) with x(t) = A x(t-1) + B u(t), x(0) = 0.

    ``u`` is (L, d_in); returns (L, d_out).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    x = np.zeros(a.shape[0])
    out = np.zeros((u.shape[0], c.shape[0]))
    for t in range(u.shape[0]):
        x = a @ x + b @ u[t]
        out[t] = c @ x + d @ u[t]
    return out


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def max_row_norm(seq) -> float:
    """max over t of the Euclidean norm of row t."""
    s = np.asarray(seq, dtype=np.float64)
    return float(np.max(np.linalg.norm(s, axis=-1)))
