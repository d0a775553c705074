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

import copy
import io
import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .basis import SpectralBasis
from .config import ModelConfig, RunConfig
from .errors import ConfigError, StructuralError
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
    "find_collapse_boundary",
    "find_sweet_spot",
    "flop_estimate",
    "model_bibo_audit",
    "run_ablation",
    "training_cost_ratio",
]

SWEET_SPOT_RETENTION = 0.98
COLLAPSE_RETENTION = 0.90


# ---------------------------------------------------------------------------
# sweep report
# ---------------------------------------------------------------------------


def _retention(metric: Sequence[float], full: float, higher_better: bool) -> list[float]:
    out = []
    for m in metric:
        if m == full:
            out.append(1.0)  # covers full capacity itself, exactly
        elif higher_better:
            out.append(m / full)
        else:
            out.append(full / m)
    return out


def _smallest_qualifying(budgets, retention, threshold) -> int:
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

    def to_tsv(self) -> str:
        """Plot data: budget and metric, tab-separated."""
        lines = ["budget\tmetric"]
        lines += [f"{k}\t{m!r}" for k, m in zip(self.budgets, self.metric)]
        return "\n".join(lines) + "\n"


def find_sweet_spot(report: SweepReport, threshold: float = SWEET_SPOT_RETENTION) -> int:
    """Smallest budget whose retention meets the threshold.

    Full capacity retains exactly 1, so the scan always terminates there.
    On a non-monotone curve this is still the smallest qualifying budget
    (the curve is reported with a flag, not smoothed).
    """
    return _smallest_qualifying(report.budgets, report.retention, threshold)


def find_collapse_boundary(report: SweepReport, threshold: float = COLLAPSE_RETENTION) -> int:
    """Smallest budget retaining at least the collapse threshold (90%)."""
    return _smallest_qualifying(report.budgets, report.retention, threshold)


def budget_sweep(
    params: ModelParams,
    config: ModelConfig,
    basis: SpectralBasis,
    dataset: Dataset,
    budgets: Optional[Sequence[int]] = None,
    split: str = "eval",
    batch_size: int = 64,
    gate_enabled: Optional[bool] = None,
    truncation: Optional[str] = None,
) -> SweepReport:
    """Evaluate one checkpoint at every budget; derive the retention curve.

    Budgets must include full capacity (retention is relative to it).  The
    checkpoint is read-only: a parameter fingerprint is checked before and
    after the sweep.
    """
    if budgets is None:
        budgets = config.budget_set
    budgets = tuple(sorted(int(k) for k in budgets))
    if len(set(budgets)) != len(budgets):
        raise ConfigError(f"duplicate budgets in {budgets}")
    if config.capacity not in budgets:
        raise ConfigError(
            f"budgets {budgets} must include full capacity "
            f"{config.capacity}: retention is undefined without it"
        )
    before = params_fingerprint(params, config)
    results = {
        k: evaluate_model(
            params, config, basis, dataset, budget=k, split=split,
            batch_size=batch_size, gate_enabled=gate_enabled,
            truncation=truncation,
        )
        for k in budgets
    }
    after = params_fingerprint(params, config)
    if before != after:
        raise StructuralError("sweep mutated the checkpoint parameters")

    metric = tuple(float(results[k]["metric"]) for k in budgets)
    higher = bool(results[budgets[0]]["higher_better"])
    full_metric = metric[-1]
    retention = _retention(metric, full_metric, higher)
    non_monotone = any(b < a for a, b in zip(retention, retention[1:]))
    return SweepReport(
        budgets=budgets,
        metric=metric,
        metric_name=str(results[budgets[0]]["metric_name"]),
        orientation="higher-better" if higher else "lower-better",
        retention=tuple(retention),
        full_metric=full_metric,
        sweet_spot=_smallest_qualifying(budgets, retention, SWEET_SPOT_RETENTION),
        collapse_boundary=_smallest_qualifying(budgets, retention, COLLAPSE_RETENTION),
        non_monotone=non_monotone,
    )


# ---------------------------------------------------------------------------
# bounded-input bounded-output audit
# ---------------------------------------------------------------------------


def bibo_constant(p: LayerParams, basis: SpectralBasis) -> dict:
    """The layer's output bound per unit of input sup-norm.

    constant = ||skip||_op + max_k sigma_k^(1/4) * ||M_k||_op * ||Phi_k||_1,
    with the filter 1-norm taken over the unscaled filters (the quarter
    power enters as an explicit factor, not baked into the filter).  The
    operator norms are exact (largest singular values), so the constant is
    an upper bound.
    """
    skip_term = float(np.linalg.norm(p.skip, 2))
    quarter = basis.eigenvalues ** 0.25
    conv_terms = [
        quarter[k]
        * float(np.linalg.norm(p.mixing[k], 2))
        * float(np.sum(np.abs(basis.filters[k])))
        for k in range(p.capacity)
    ]
    conv_term = max(conv_terms)
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
) -> dict:
    """Check every output against the layer's input-output bound.

    Runs ``n_trials`` random inputs scaled so max_t ||u(t)||_2 equals
    ``input_bound``, forwards the gated layer at every budget, and asserts
    ||y(t)||_2 <= constant * input_bound at every step.  The bound assumes
    the gate's weights lie on (or under) the simplex, so the audit always
    runs with the gate enabled; both truncation modes qualify (masked
    renormalizes onto the simplex, direct drops mass below it).  A
    violation is reported with its witness (trial, budget, t, ratio).
    """
    if budgets is None:
        budgets = range(2, basis.capacity + 1)
    budgets = tuple(int(k) for k in budgets)
    terms = bibo_constant(p, basis)
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
            out, _ = layer_forward(u, p, basis, k, gate_enabled=True,
                                   truncation=truncation)
            norms = np.linalg.norm(out, axis=1)
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
    """Per-block audit of a whole model's layers; passes iff every block does."""
    blocks = []
    for i, block in enumerate(params.blocks):
        report = bibo_audit(
            block.layer, basis, n_trials=n_trials, input_bound=input_bound,
            budgets=budgets, seed=seed + i,
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


def training_cost_ratio(budget_set: Sequence[int]) -> float:
    """Spectral-branch cost of per-budget retraining vs one dropout run.

    Separate trainings cost proportional to sum(K); a single budget-dropout
    run with uniform sampling costs E[K] per step, so the ratio is
    sum(K)/mean(K) = the number of budgets (9 for the default grid).
    """
    budgets = [int(k) for k in budget_set]
    if not budgets:
        raise ConfigError("budget set is empty")
    return float(sum(budgets) / np.mean(budgets))


# ---------------------------------------------------------------------------
# ablation variants
# ---------------------------------------------------------------------------

_TRUNCATION_NAMES = {"masked-softmax": "masked", "direct-prefix": "direct"}


@dataclass(frozen=True)
class VariantSpec:
    """One row of the ablation grid: which mechanisms are switched on."""

    name: str
    gate_enabled: bool
    budget_dropout: bool
    truncation: str  # "masked-softmax" | "direct-prefix"

    def __post_init__(self):
        if self.truncation not in _TRUNCATION_NAMES:
            raise ConfigError(
                f"truncation must be one of {sorted(_TRUNCATION_NAMES)}, "
                f"got {self.truncation!r}"
            )

    @property
    def truncation_mode(self) -> str:
        return _TRUNCATION_NAMES[self.truncation]


DEFAULT_VARIANTS = (
    VariantSpec("es-ssm", gate_enabled=True, budget_dropout=True,
                truncation="masked-softmax"),
    VariantSpec("base-spectral", gate_enabled=False, budget_dropout=False,
                truncation="direct-prefix"),
    VariantSpec("gate-only", gate_enabled=True, budget_dropout=False,
                truncation="masked-softmax"),
    VariantSpec("dropout-only", gate_enabled=False, budget_dropout=True,
                truncation="direct-prefix"),
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


def _recipe_fingerprint(run: RunConfig) -> dict:
    """The run document with the three ablation toggles normalized away."""
    doc = copy.deepcopy(run.to_dict())
    doc["model"]["gate_enabled"] = None
    doc["model"]["truncation_mode"] = None
    doc["train"]["budget_dropout"] = None
    return doc


def run_ablation(
    base: RunConfig,
    variants: Sequence[VariantSpec] = DEFAULT_VARIANTS,
    budgets: Optional[Sequence[int]] = None,
    runs: Optional[Sequence[RunConfig]] = None,
    include_direct_reeval: bool = True,
    out_dir: str | os.PathLike | None = None,
) -> dict:
    """Train every variant under one recipe and sweep each across budgets.

    All variants share the data, seeds, and optimization recipe; they
    differ only in the gate flag, the budget-dropout flag, and the
    truncation mode.  Supplying explicit per-variant ``runs`` is allowed
    for resuming orchestration, but they must equal the base recipe up to
    those three toggles.  When the grid contains a gated budget-dropout
    variant, its checkpoint is additionally re-evaluated under
    direct-prefix truncation (no extra training) to isolate the masked
    softmax's renormalization.
    """
    if runs is None:
        runs = [variant_run(base, v) for v in variants]
    else:
        runs = list(runs)
        if len(runs) != len(variants):
            raise ConfigError(
                f"{len(variants)} variants but {len(runs)} run configs"
            )
        base_doc = _recipe_fingerprint(base)
        for v, r in zip(variants, runs):
            if _recipe_fingerprint(r) != base_doc:
                raise ConfigError(
                    f"variant {v.name!r} run config differs from the base "
                    "recipe beyond the gate/dropout/truncation toggles"
                )
            if (
                r.model.gate_enabled != v.gate_enabled
                or r.model.truncation_mode != v.truncation_mode
                or r.train.budget_dropout != v.budget_dropout
            ):
                raise ConfigError(
                    f"variant {v.name!r} run config toggles disagree with "
                    "its VariantSpec"
                )

    rows = []
    reeval_rows = []
    shared_dataset = None
    for variant, run in zip(variants, runs):
        ck = None
        if out_dir is not None:
            ck = os.path.join(os.fspath(out_dir), f"{variant.name}.essm")
        result = run_training(run, dataset=shared_dataset, checkpoint_path=ck)
        if shared_dataset is None:
            shared_dataset = result["dataset"]
        report = budget_sweep(
            result["params"], run.model, result["basis"], shared_dataset,
            budgets=budgets,
        )
        rows.append({
            "name": variant.name,
            "variant": variant,
            "run": run,
            "params": result["params"],
            "basis": result["basis"],
            "report": report,
            "final_eval": result["final_eval"],
        })
        if (
            include_direct_reeval
            and variant.gate_enabled
            and variant.budget_dropout
            and variant.truncation == "masked-softmax"
        ):
            direct_report = budget_sweep(
                result["params"], run.model, result["basis"], shared_dataset,
                budgets=budgets, truncation="direct",
            )
            reeval_rows.append({
                "name": f"{variant.name}@direct-prefix",
                "variant": variant,
                "run": run,
                "params": result["params"],
                "basis": result["basis"],
                "report": direct_report,
                "final_eval": result["final_eval"],
                "reevaluation": True,
            })
    rows.extend(reeval_rows)
    return {
        "rows": rows,
        "dataset": shared_dataset,
        "table": {
            row["name"]: dict(zip(row["report"].budgets, row["report"].metric))
            for row in rows
        },
    }
