"""Budget sweeps, retention thresholds, stability audits, FLOP accounting.

One trained checkpoint is evaluated across the whole budget grid with no
parameter changes; the report records the metric per budget, retention
relative to full capacity, and the two operating points the curves are
read by: the sweet spot (smallest budget keeping >= 98% of the
full-capacity score) and the collapse boundary (smallest budget keeping
>= 90%).  The module also audits the layer's bounded-input bounded-output
guarantee and accounts FLOPs with an exactly budget-affine formula.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .basis import SpectralBasis
from .config import ModelConfig, RunConfig, check_budgets
from .errors import ConfigError, NumericError, StructuralError
from .layer import LayerParams, layer_flop_count, layer_forward
from .model import ModelParams, params_fingerprint
from .tasks import Dataset, evaluate_model
from .training import run_training

__all__ = [
    "DEFAULT_VARIANTS",
    "SweepReport",
    "VariantSpec",
    "bibo_audit",
    "budget_sweep",
    "flop_estimate",
    "model_bibo_audit",
    "run_ablation",
]

SWEET_SPOT_RETENTION = 0.98
COLLAPSE_RETENTION = 0.90


# ---------------------------------------------------------------------------
# sweep report
# ---------------------------------------------------------------------------


def _retention(budgets: Sequence[int], metric: Sequence[float], metric_name: str,
               higher_better: bool) -> list[float]:
    """Each budget's metric relative to the last, full capacity's, oriented
    so that 1 is as good as full capacity.  A non-finite metric raises
    NumericError naming its budgets, and so does a ratio with a zero
    denominator."""
    bad = [f"K={k} ({m})" for k, m in zip(budgets, metric) if not np.isfinite(m)]
    if bad:
        raise NumericError(f"{metric_name} is not finite at {', '.join(bad)}")
    full = metric[-1]
    out = []
    for k, m in zip(budgets, metric):
        if m == full:
            out.append(1.0)  # covers full capacity itself, exactly
            continue
        if (full if higher_better else m) == 0:
            raise NumericError(
                f"retention at K={k} is undefined: {metric_name} is {m} there "
                f"and {full} at full capacity K={budgets[-1]}"
            )
        out.append(m / full if higher_better else full / m)
    return out


def _smallest_qualifying(budgets, retention, threshold) -> int:
    """Smallest budget whose retention meets the threshold; on a
    non-monotone curve too (the curve is flagged, not smoothed)."""
    for k, r in zip(budgets, retention):
        if r >= threshold:
            return int(k)
    return int(budgets[-1])  # full capacity always retains exactly 1


@dataclass(frozen=True)
class SweepReport:
    """Metric-vs-budget curve for one checkpoint, plus derived landmarks."""

    budgets: tuple[int, ...]
    metric: tuple[float, ...]
    metric_name: str
    orientation: str  # "higher-better" | "lower-better"
    retention: tuple[float, ...]
    full_metric: float
    sweet_spot: int
    collapse_boundary: int
    non_monotone: bool

    def to_json_dict(self) -> dict:
        flags = ["non-monotone"] if self.non_monotone else []
        return {
            "budgets": list(self.budgets),
            "metric": list(self.metric),
            "metric_name": self.metric_name,
            "retention": list(self.retention),
            "orientation": self.orientation,
            "sweet_spot": self.sweet_spot,
            "collapse_boundary": self.collapse_boundary,
            "full_metric": self.full_metric,
            "flags": flags,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("budget,metric,retention\n")
        for k, m, r in zip(self.budgets, self.metric, self.retention):
            buf.write(f"{k},{m!r},{r!r}\n")
        return buf.getvalue()


def budget_sweep(
    params: ModelParams,
    config: ModelConfig,
    basis: SpectralBasis,
    dataset: Dataset,
    budgets: Optional[Sequence[int]] = None,
    split: str = "eval",
) -> SweepReport:
    """Evaluate one checkpoint at every budget; derive the retention curve.

    Budgets must pass ``check_budgets`` and include full capacity (retention
    is relative to it); both are checked before any evaluation.  The
    checkpoint is read-only: a parameter fingerprint is checked before and
    after the sweep.  The model runs in its config's gate and truncation
    mode; sweep another mode with a replaced config, e.g.
    ``dataclasses.replace(config, truncation_mode="direct")``.
    """
    if budgets is None:
        budgets = config.budget_set
    budgets = tuple(sorted(check_budgets(budgets, config.capacity)))
    if len(set(budgets)) != len(budgets):
        raise ConfigError(f"duplicate budgets in {budgets}")
    if config.capacity not in budgets:
        raise ConfigError(
            f"budgets {budgets} must include full capacity "
            f"{config.capacity}: retention is undefined without it"
        )
    before = params_fingerprint(params, config)
    results = {
        k: evaluate_model(params, config, basis, dataset, budget=k, split=split)
        for k in budgets
    }
    after = params_fingerprint(params, config)
    if before != after:
        raise StructuralError("sweep mutated the checkpoint parameters")

    metric = tuple(float(results[k]["metric"]) for k in budgets)
    higher = bool(results[budgets[0]]["higher_better"])
    metric_name = str(results[budgets[0]]["metric_name"])
    retention = _retention(budgets, metric, metric_name, higher)
    non_monotone = any(b < a for a, b in zip(retention, retention[1:]))
    return SweepReport(
        budgets=budgets,
        metric=metric,
        metric_name=metric_name,
        orientation="higher-better" if higher else "lower-better",
        retention=tuple(retention),
        full_metric=metric[-1],
        sweet_spot=_smallest_qualifying(budgets, retention, SWEET_SPOT_RETENTION),
        collapse_boundary=_smallest_qualifying(budgets, retention, COLLAPSE_RETENTION),
        non_monotone=non_monotone,
    )


# ---------------------------------------------------------------------------
# bounded-input bounded-output audit
# ---------------------------------------------------------------------------


def bibo_constant(p: LayerParams, basis: SpectralBasis, gate_enabled: bool = True) -> dict:
    """The layer's output bound per unit of input sup-norm.

    constant = ||skip||_op + conv_term, from the per-channel terms
    c_k = ||M_k||_op * ||scaled_filters[k]||_1 (the filters the layer
    convolves with).  With the gate on, the weights at each step lie on or
    under the simplex, so conv_term = max_k c_k; with it off, every active
    channel has weight 1, so conv_term = sum_k c_k, which covers every
    budget.  The operator norms are exact (largest singular values), so the
    constant is an upper bound.
    """
    skip_term = float(np.linalg.norm(p.skip, 2))
    conv_terms = [
        float(np.linalg.norm(p.mixing[k], 2))
        * float(np.sum(np.abs(basis.scaled_filters[k])))
        for k in range(p.capacity)
    ]
    conv_term = max(conv_terms) if gate_enabled else sum(conv_terms)
    return {
        "constant": skip_term + conv_term,
        "skip_term": skip_term,
        "conv_term": conv_term,
        "per_channel": conv_terms,
    }


def bibo_audit(
    p: LayerParams,
    basis: SpectralBasis,
    n_trials: int = 100,
    input_bound: float = 1.0,
    budgets: Optional[Sequence[int]] = None,
    seed: int = 0,
    truncation: str = "masked",
    rel_slack: float = 1e-9,
    gate_enabled: bool = True,
) -> dict:
    """Check every output against the layer's input-output bound.

    Runs ``n_trials`` random inputs scaled so max_t ||u(t)||_2 equals
    ``input_bound``, forwards the layer in the given gate and truncation
    mode at every budget, and asserts ||y(t)||_2 <= constant * input_bound
    at every step, with the constant of :func:`bibo_constant` for that gate
    mode.  A violation is reported with its witness (trial, budget, t,
    ratio).  The budgets pass ``check_budgets`` before any trial runs.
    """
    if budgets is None:
        budgets = range(2, p.capacity + 1)
    budgets = check_budgets(budgets, p.capacity)
    terms = bibo_constant(p, basis, gate_enabled)
    bound = terms["constant"] * input_bound
    rng = np.random.default_rng(seed)
    violations = []
    max_ratio = 0.0
    for trial in range(n_trials):
        u = rng.normal(size=(basis.seq_len, p.width))
        sup = float(np.max(np.linalg.norm(u, axis=1)))
        if sup == 0.0:
            continue
        u = u * (input_bound / sup)
        for k in budgets:
            out, _ = layer_forward(u[None], p, basis, k, gate_enabled=gate_enabled,
                                   truncation=truncation)
            norms = np.linalg.norm(out[0], axis=1)
            ratio = float(np.max(norms) / bound) if bound > 0 else float(
                np.max(norms) > 0
            )
            max_ratio = max(max_ratio, ratio)
            if ratio > 1.0 + rel_slack:
                t = int(np.argmax(norms))
                violations.append({
                    "trial": trial,
                    "budget": int(k),
                    "t": t,
                    "output_norm": float(norms[t]),
                    "bound": float(bound),
                    "ratio": ratio,
                })
    return {
        "constant": float(terms["constant"]),
        "skip_term": float(terms["skip_term"]),
        "conv_term": float(terms["conv_term"]),
        "input_bound": float(input_bound),
        "n_trials": int(n_trials),
        "budgets": list(budgets),
        "max_ratio": float(max_ratio),
        "violations": violations,
        "passed": not violations,
    }


def model_bibo_audit(
    params: ModelParams,
    config: ModelConfig,
    basis: SpectralBasis,
    n_trials: int = 100,
    input_bound: float = 1.0,
    budgets: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> dict:
    """Per-block audit of a whole model's layers, in the config's gate and
    truncation mode; passes iff every block does."""
    blocks = []
    for i, block in enumerate(params.blocks):
        report = bibo_audit(
            block.layer, basis, n_trials=n_trials, input_bound=input_bound,
            budgets=budgets, seed=seed + i, truncation=config.truncation_mode,
            gate_enabled=config.gate_enabled,
        )
        report["block"] = i
        blocks.append(report)
    return {
        "blocks": blocks,
        "passed": all(b["passed"] for b in blocks),
        "max_ratio": max((b["max_ratio"] for b in blocks), default=0.0),
    }


# ---------------------------------------------------------------------------
# FLOP accounting
# ---------------------------------------------------------------------------


def flop_estimate(config: ModelConfig, budget: int, batch: int = 1) -> int:
    """Nominal per-layer forward FLOPs at one budget (exactly affine in it)."""
    return layer_flop_count(
        config.seq_len, config.width, config.gate_hidden, config.capacity,
        budget, batch=batch,
    )


# ---------------------------------------------------------------------------
# ablation variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariantSpec:
    """One row of the ablation grid: which mechanisms are switched on."""

    name: str
    gate_enabled: bool
    budget_dropout: bool
    truncation_mode: str  # a ModelConfig.truncation_mode: "masked" | "direct"


DEFAULT_VARIANTS = (
    VariantSpec("es-ssm", gate_enabled=True, budget_dropout=True, truncation_mode="masked"),
    VariantSpec("base-spectral", gate_enabled=False, budget_dropout=False,
                truncation_mode="direct"),
    VariantSpec("gate-only", gate_enabled=True, budget_dropout=False, truncation_mode="masked"),
    VariantSpec("dropout-only", gate_enabled=False, budget_dropout=True,
                truncation_mode="direct"),
)


def variant_run(base: RunConfig, variant: VariantSpec) -> RunConfig:
    """The base recipe with exactly the variant's three toggles applied."""
    model = replace(
        base.model,
        gate_enabled=variant.gate_enabled,
        truncation_mode=variant.truncation_mode,
    )
    train = replace(base.train, budget_dropout=variant.budget_dropout)
    return RunConfig(model=model, train=train, task=base.task, paths=base.paths)


def run_ablation(
    base: RunConfig,
    variants: Sequence[VariantSpec] = DEFAULT_VARIANTS,
    budgets: Optional[Sequence[int]] = None,
    out_dir: str | os.PathLike | None = None,
) -> dict:
    """Train every variant under one recipe and sweep each across budgets.

    All variants share the data, seeds, and optimization recipe; they
    differ only in the gate flag, the budget-dropout flag, and the
    truncation mode (:func:`variant_run`).  A gated budget-dropout
    variant's checkpoint is additionally swept under direct truncation (no
    extra training), as the row ``<name>@direct``, to isolate the masked
    softmax's renormalization.
    """
    rows, reevaluations = [], []
    shared_dataset = None
    for variant in variants:
        run = variant_run(base, variant)
        ck = None
        if out_dir is not None:
            ck = os.path.join(os.fspath(out_dir), f"{variant.name}.essm")
        result = run_training(run, dataset=shared_dataset, checkpoint_path=ck)
        shared_dataset = result["dataset"]
        sweeps = [(variant.name, run.model, rows)]
        if variant.gate_enabled and variant.budget_dropout and variant.truncation_mode == "masked":
            direct = replace(run.model, truncation_mode="direct")
            sweeps.append((f"{variant.name}@direct", direct, reevaluations))
        for name, model, into in sweeps:
            into.append({
                "name": name,
                "variant": variant,
                "run": run,
                "params": result["params"],
                "basis": result["basis"],
                "report": budget_sweep(result["params"], model, result["basis"],
                                       shared_dataset, budgets=budgets),
                "final_eval": result["final_eval"],
                "reevaluation": into is reevaluations,
            })
    rows += reevaluations
    return {"rows": rows, "dataset": shared_dataset}
