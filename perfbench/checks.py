"""Correctness checks made on every benchmark run.

Each check compares the program's outputs with a computation made apart from
it (the closed-form Hankel matrix, SciPy's eigensolver, the reference in
``reference.py``, the benchmark's own metrics) or with a property the method
must have.  A check returns ``(ok, detail)``; ``run_checks`` runs them all.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

import elastic_ssm.layer as layer
import elastic_ssm.model as model

from .reference import reference_outputs

BASIS_RESIDUAL_RTOL = 1e-8  # eigen residual per channel, relative to sigma_1
BASIS_ORTHO_ATOL = 1e-8  # max |<f_i, f_j> - delta_ij|
EIGENVALUE_RTOL = 1e-12  # against scipy.linalg.eigh, relative to sigma_1
REFERENCE_RTOL = 1e-8  # model_forward against the reference, relative to max|y|
# An FFT convolution transforms the whole sequence, so inputs after t move
# outputs up to t by rounding error (about 1e-15 relative); a causality fault
# that reads a later input moves them by the size of the signal.
CAUSAL_RTOL = 1e-12
SIMPLEX_ATOL = 1e-12
METRIC_RTOL = 1e-12


def _rel(err: float, scale: float) -> float:
    return err / max(1.0, scale)


def check_basis(basis) -> tuple[bool, str]:
    """(a) Eigenpairs of the benchmark's own closed-form Hankel matrix."""
    length, cap = basis.seq_len, basis.capacity
    idx = np.arange(length, dtype=np.float64)
    n = idx[:, None] + idx[None, :] + 2.0  # 1-indexed i + j
    z = 2.0 / (n**3 - n)
    vals, vecs = basis.eigenvalues, basis.filters
    sigma1 = float(vals[0])
    residual = float(np.max(np.linalg.norm(z @ vecs.T - vecs.T * vals, axis=0)))
    ortho = float(np.max(np.abs(vecs @ vecs.T - np.eye(cap))))
    top = scipy.linalg.eigh(z, eigvals_only=True,
                            subset_by_index=[length - cap, length - 1])[::-1]
    rank = int(np.sum(top > length * np.finfo(np.float64).eps * top[0]))
    eig_err = float(np.max(np.abs(vals[:rank] - top[:rank])))
    ok = (residual <= BASIS_RESIDUAL_RTOL * sigma1 and ortho <= BASIS_ORTHO_ATOL
          and eig_err <= EIGENVALUE_RTOL * sigma1)
    return ok, (f"residual {residual / sigma1:.1e} sigma_1, orthonormality {ortho:.1e}, "
                f"eigenvalues {eig_err / sigma1:.1e} sigma_1 off scipy on {rank} "
                f"channels above the numerical rank")


def check_reference(outputs, inputs, params, config, basis, budget, times, rows):
    """(b) ``outputs`` (B, L, out) match the reference at ``times`` for ``rows``;
    returns (ok, worst relative gap)."""
    worst = 0.0
    for row in rows:
        ref = reference_outputs(inputs[row], params, config, basis, budget, times)
        got = outputs[row][sorted(times)]
        worst = max(worst, _rel(float(np.max(np.abs(got - ref))), float(np.max(np.abs(ref)))))
    return worst <= REFERENCE_RTOL, worst


def check_causality(params, config, basis, sequence, t: int, rng) -> tuple[bool, str]:
    """(c) Changing inputs after ``t`` leaves outputs up to ``t`` unchanged,
    and does change a later output."""
    changed = np.array(sequence, copy=True)
    if config.input_kind == "tokens":
        shift = rng.integers(1, config.vocab_size, size=changed[t + 1:].shape)
        changed[t + 1:] = (changed[t + 1:] + shift) % config.vocab_size
    else:
        changed[t + 1:] += rng.normal(size=changed[t + 1:].shape)
    both = np.stack([np.asarray(sequence), changed])
    out, _ = model.model_forward(both, params, config, basis, config.capacity)
    scale = float(np.max(np.abs(out[0])))
    leak = _rel(float(np.max(np.abs(out[0, : t + 1] - out[1, : t + 1]))), scale)
    later = float(np.max(np.abs(out[0, t + 1:] - out[1, t + 1:])))
    ok = leak <= CAUSAL_RTOL and later > 0.0
    return ok, f"outputs up to t={t} move by {leak:.1e} relative; later outputs by {later:.1e}"


def check_gate_simplex(cache) -> tuple[bool, float]:
    """(d) Active gate weights are nonnegative and sum to one per timestep;
    returns (ok, worst |sum - 1|)."""
    worst, negative = 0.0, False
    for lc in cache.layer_caches:
        worst = max(worst, float(np.max(np.abs(lc.weights.sum(axis=-1) - 1.0))))
        negative |= bool(np.any(lc.weights < 0.0))
    return worst <= SIMPLEX_ATOL and not negative, worst


def check_untouched_rows(trained, initial, config, max_budget: int) -> tuple[bool, str]:
    """(e) Rows at or beyond the largest sampled budget keep their initial bits."""
    names = (".mixing", ".gate.w_out", ".gate.b_out")
    init = dict(model.flatten_params(initial, config))
    rows = 0
    for name, arr in model.flatten_params(trained, config):
        if name.endswith(names):
            if arr[max_budget:].tobytes() != init[name][max_budget:].tobytes():
                return False, f"{name} rows >= {max_budget} changed"
            rows += arr.shape[0] - max_budget
    return True, f"{rows} rows at or beyond budget {max_budget} bit-identical"


def _task_loss(outputs, targets, mask) -> float:
    """MSE for real targets, mean NLL over unmasked positions for tokens."""
    if mask is None:
        return float(np.mean((outputs - targets) ** 2))
    z = outputs - outputs.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    return float(nll[mask].mean())


def check_loss_drop(setup, trained) -> tuple[bool, str]:
    """(f) Training lowers the loss on a fixed training batch at full capacity.

    The training log's window means are too noisy for this at a benchmark's
    length: batch and budget change every step.
    """
    cfg, ds = setup.config, setup.dataset
    rows = slice(0, setup.workload.batch)
    mask = None if ds.mask is None else ds.mask[rows]

    def loss(params):
        out, _ = model.model_forward(ds.inputs[rows], params, cfg, setup.basis, cfg.capacity)
        return _task_loss(out, ds.targets[rows], mask)

    before, after = loss(setup.initial_params), loss(trained)
    return after < before, f"loss {before:.4g} -> {after:.4g} ({after / before:.3f}x)"


def check_roundtrip(loaded, trained, config) -> tuple[bool, str]:
    """(g) The reloaded checkpoint equals the trained parameters bitwise."""
    a = model.flatten_params(loaded, config)
    b = model.flatten_params(trained, config)
    same = all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(a, b))
    return same and len(a) == len(b), f"{len(a)} tensors compared"


def own_metric(outputs, dataset) -> float:
    """The swept metric recomputed from ``model_forward`` outputs."""
    if dataset.metric_name == "mse":
        return _task_loss(outputs, dataset.eval_targets, None)
    hits = (np.argmax(outputs, axis=-1) == dataset.eval_targets) & dataset.eval_mask
    return int(hits.sum()) / int(dataset.eval_mask.sum())


def check_sweep(reports, own: dict[int, float], capacity: int) -> tuple[bool, str]:
    """(h) Retention at full capacity is exactly 1, every swept metric equals
    the benchmark's own, and repeated sweeps agree exactly."""
    report = reports[0]
    if any(r != report for r in reports[1:]):
        return False, "repeated sweeps disagree"
    if report.budgets[-1] != capacity or report.retention[-1] != 1.0:
        return False, f"retention at K={report.budgets[-1]} is {report.retention[-1]!r}"
    worst = max(abs(m - own[k]) / max(abs(own[k]), 1e-300)
                for k, m in zip(report.budgets, report.metric))
    return worst <= METRIC_RTOL, f"{len(reports)} sweeps; max relative metric gap {worst:.1e}"


def check_flops_affine(config, batch: int) -> tuple[bool, str]:
    """(i) ``layer_flop_count`` is exactly affine in the budget."""
    counts = [layer.layer_flop_count(config.seq_len, config.width, config.gate_hidden,
                                     config.capacity, k, batch)
              for k in range(2, config.capacity + 1)]
    steps = {b - a for a, b in zip(counts, counts[1:])}
    return len(steps) == 1, f"{len(counts)} budgets, increments {sorted(steps)[:3]}"


def run_checks(setup, outcome, rng) -> list[tuple[str, bool, str]]:
    """Every check on one lifecycle's results; returns (name, ok, detail)."""
    cfg, ds, basis = setup.config, setup.dataset, setup.basis
    params = outcome.params
    results = [("a basis", *check_basis(basis))]

    times = sorted({0, cfg.seq_len - 1, *rng.integers(1, cfg.seq_len - 1, size=2).tolist()})
    rows = sorted({0, ds.n_eval - 1})
    own, gaps, sums = {}, {}, {}
    for k in outcome.reports[0].budgets:
        out, cache = model.model_forward(ds.eval_inputs, params, cfg, basis, k)
        own[k] = own_metric(out, ds)
        gaps[k] = check_reference(out, ds.eval_inputs, params, cfg, basis, k, times, rows)
        sums[k] = check_gate_simplex(cache)
        del out, cache
    for tag, per_k, what in (("b reference", gaps, f"relative gap at t={times}"),
                             ("d gate simplex", sums, "|sum - 1|")):
        bad = [k for k, (ok, _) in per_k.items() if not ok]
        worst = max(v for _, v in per_k.values())
        results.append((tag, not bad, f"{len(per_k)} budgets, worst {what} {worst:.1e}"
                        + (f"; fails at K={bad}" if bad else "")))

    t = int(rng.integers(0, cfg.seq_len - 1))
    results.append(("c causality", *check_causality(params, cfg, basis, ds.eval_inputs[0], t, rng)))
    results.append(("e untouched rows", *check_untouched_rows(
        params, setup.initial_params, cfg, max(outcome.sampled_budgets))))
    if setup.workload.loss_drop:
        results.append(("f loss drop", *check_loss_drop(setup, params)))
    results.append(("g checkpoint", *check_roundtrip(outcome.loaded_params, params, cfg)))
    results.append(("h sweep", *check_sweep(outcome.reports, own, cfg.capacity)))
    results.append(("i flops affine", *check_flops_affine(cfg, setup.workload.batch)))
    return results
