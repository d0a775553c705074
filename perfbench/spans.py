"""Spans around the package's public functions, recorded from outside it.

A :class:`Tracer` replaces a function's binding in each module that looks
it up at call time (for instance ``elastic_ssm.training.train_step``, which
``run_training`` calls) with a wrapper that records a span: name, budget,
start, end and parent.  Nothing in the package changes: leaving
:meth:`installed` restores every binding.  Spans stay in memory until :meth:`dump` writes
them, and :func:`self_times` reduces them to per-name totals and self time
(duration minus the time covered by child spans).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

import elastic_ssm.backprop as backprop
import elastic_ssm.basis as basis
import elastic_ssm.layer as layer
import elastic_ssm.model as model
import elastic_ssm.sweep as sweep
import elastic_ssm.tasks as tasks
import elastic_ssm.training as training


def _arg(pos: int, key: str):
    def get(args, kwargs):
        return kwargs[key] if key in kwargs else args[pos]
    return get


# model_forward(inputs, params, config, basis, budget) and
# evaluate_model(params, config, basis, dataset, budget)
_BUDGET_ARG = _arg(4, "budget")
_LAYER_BUDGET = _arg(3, "budget")  # layer_forward(u, p, basis, budget)
_FILTERS = _arg(0, "filters")
_CACHE = _arg(1, "cache")  # layer_backward(dout, cache), model_backward(dout, cache)


def _bank_size(args, kwargs):
    return _FILTERS(args, kwargs).shape[0]


def _cache_budget(args, kwargs):
    return _CACHE(args, kwargs).budget


#: (module, attribute, span name, how to read the budget from the call).
#: A function is patched in every module whose code calls it, because
#: ``from .x import f`` binds ``f`` once per importing module.
PATCH_POINTS: tuple[tuple[object, str, str, Optional[Callable]], ...] = (
    (basis, "build_basis", "basis.build", None),
    (tasks, "build_dataset", "tasks.build_dataset", None),
    (model, "init_model_params", "model.init", None),
    (training, "init_model_params", "model.init", None),
    (training, "train_step", "training.step", None),
    (training, "clip_global_norm", "training.clip", None),
    (training, "adamw_step", "training.adamw", None),
    (training, "step_mask_plan", "training.mask_plan", None),
    (training, "save_training_checkpoint", "training.checkpoint_save", None),
    (training, "evaluate_model", "tasks.evaluate", _BUDGET_ARG),
    (sweep, "evaluate_model", "tasks.evaluate", _BUDGET_ARG),
    (sweep, "params_fingerprint", "model.fingerprint", None),
    (model, "load_checkpoint", "model.checkpoint_load", None),
    (model, "model_forward", "model.forward", _BUDGET_ARG),
    (tasks, "model_forward", "model.forward", _BUDGET_ARG),
    (backprop, "model_forward", "model.forward", _BUDGET_ARG),
    (model, "layer_forward", "layer.forward", _LAYER_BUDGET),
    (layer, "fft_causal_conv_bank", "linalg.conv_bank", _bank_size),
    (backprop, "model_backward", "backprop.model_backward", _cache_budget),
    (backprop, "layer_backward", "backprop.layer_backward", _cache_budget),
    (backprop, "fft_causal_conv_bank_adjoint", "linalg.conv_adjoint", _bank_size),
)


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, budget: Optional[int] = None):
        sid = len(self.spans)
        record = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "budget": budget,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str, budget_of: Optional[Callable]):
        def traced(*args, **kwargs):
            budget = None if budget_of is None else int(budget_of(args, kwargs))
            with self.span(name, budget):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every patch point to a traced wrapper; restore on exit."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, budget_of in PATCH_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, budget_of))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def dump(self, path: str | os.PathLike, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "spans": self.spans}, fh)


def _roots(spans: list[dict]) -> dict[int, str]:
    roots: dict[int, str] = {}
    for s in spans:  # a parent is always recorded before its children
        roots[s["id"]] = s["name"] if s["parent"] is None else roots[s["parent"]]
    return roots


def durations_by_key(spans: list[dict]) -> dict[tuple, list[float]]:
    """Span durations in seconds keyed by (top-level span, name, budget);
    the key with budget ``None`` collects every budget."""
    roots = _roots(spans)
    out: dict[tuple, list[float]] = defaultdict(list)
    for s in spans:
        dur = (s["end_ns"] - s["start_ns"]) * 1e-9
        out[(roots[s["id"]], s["name"], None)].append(dur)
        if s["budget"] is not None:
            out[(roots[s["id"]], s["name"], s["budget"])].append(dur)
    return out


def self_times(spans: list[dict]) -> list[dict]:
    """Per (top-level span, name): calls, total ms and self ms, largest first."""
    roots = _roots(spans)
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    table: dict[tuple[str, str], dict] = {}
    for s in spans:
        row = table.setdefault(
            (roots[s["id"]], s["name"]),
            {"root": roots[s["id"]], "name": s["name"], "calls": 0,
             "total_ms": 0.0, "self_ms": 0.0},
        )
        dur = s["end_ns"] - s["start_ns"]
        row["calls"] += 1
        row["total_ms"] += dur * 1e-6
        row["self_ms"] += (dur - child_ns[s["id"]]) * 1e-6
    return sorted(table.values(), key=lambda r: (r["root"], -r["self_ms"]))
