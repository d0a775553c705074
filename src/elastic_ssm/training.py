"""Budget-dropout training: sampler, schedule, clipped AdamW, loop, resume.

Each optimization step samples a budget K_train, runs the layer stack at
that budget, and updates parameters with gradient-clipped AdamW.  Channels
beyond K_train receive structurally zero gradients, so the optimizer keeps
per-row moment statistics and bias-correction counts: a row's Adam state
advances only on steps where that row was active, and (by default) weight
decay skips inactive rows as well.

Randomness is counter-based (Philox keyed by seed, counter = step index),
so any step's budget and batch are computable without replaying history —
resuming from a checkpoint reproduces the uninterrupted trajectory bit for
bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .backprop import model_loss_fn
from .basis import SpectralBasis, get_or_build_basis
from .config import ModelConfig, RunConfig, TrainConfig
from .errors import ArtifactError, ConfigError, NumericError, StructuralError
from .model import (
    ModelParams,
    checkpoint_writer,
    flatten_params,
    init_model_params,
    param_schema,
    params_from_checkpoint,
)
from .storage import Reader, Writer, atomic_write, map_file
from .tasks import Dataset, build_dataset, evaluate_model

__all__ = [
    "OPTIMIZER_MAGIC",
    "OPTIMIZER_VERSION",
    "BudgetSampler",
    "OptimizerState",
    "TrainLog",
    "adamw_step",
    "clip_global_norm",
    "derive_seeds",
    "init_optimizer_state",
    "load_training_checkpoint",
    "lr_at_step",
    "run_training",
    "save_training_checkpoint",
    "step_mask_plan",
    "train_step",
]

OPTIMIZER_MAGIC = b"ESOS"
OPTIMIZER_VERSION = 1


def derive_seeds(root_seed: int) -> dict[str, int]:
    """Split one root seed into independent per-subsystem seeds.

    Keys: "init" (parameter draws), "data" (dataset generation), "budget"
    (budget sampling + batch order).  Uses SeedSequence spawning so the
    streams are statistically independent, not offsets of each other.
    """
    children = np.random.SeedSequence(root_seed).spawn(3)
    words = [int(c.generate_state(1, np.uint64)[0]) for c in children]
    return {"init": words[0], "data": words[1], "budget": words[2]}


# ---------------------------------------------------------------------------
# budget sampler
# ---------------------------------------------------------------------------


class BudgetSampler:
    """Uniform budget draws, deterministic in (seed, step index).

    ``mode`` is "uniform-over-budget-set" (the deployment grid) or
    "uniform-over-range" (all integers 2..capacity).  Budgets of 1 are
    outside both supports, and a budget set that holds one is rejected: a
    single-channel model cannot normalize its gate meaningfully, and the
    deployment grid starts at 2.
    """

    def __init__(self, mode: str, budget_set: tuple[int, ...], capacity: int, seed: int):
        if mode == "uniform-over-budget-set":
            support = tuple(int(k) for k in budget_set)
        elif mode == "uniform-over-range":
            support = tuple(range(2, capacity + 1))
        else:
            raise ConfigError(f"unknown sampler mode {mode!r}")
        if not support:
            raise ConfigError(
                f"budget sampler support is empty (mode={mode!r}, "
                f"budget_set={budget_set}, capacity={capacity})"
            )
        bad = [k for k in support if not 2 <= k <= capacity]
        if bad:
            raise ConfigError(f"budgets {bad} outside [2, capacity={capacity}]")
        self.mode = mode
        self.support = support
        self.capacity = capacity
        self.seed = int(seed)

    def draw(self, step: int) -> int:
        """The budget for optimization step ``step`` (random access)."""
        rng = np.random.Generator(np.random.Philox(key=self.seed, counter=int(step)))
        return int(self.support[rng.integers(len(self.support))])

    def expected_budget(self) -> float:
        return float(np.mean(self.support))


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------


def lr_at_step(step: int, train: TrainConfig) -> float:
    """Linear warmup to the peak rate, then cosine decay to the floor.

    Warmup covers ``round(warmup_frac * steps)`` steps, climbing linearly
    so the first step already trains at lr/warmup.  The cosine leg lands
    exactly on ``final_lr_frac * lr`` at the last step.
    """
    if not 0 <= step < train.steps:
        raise ConfigError(f"step {step} outside [0, {train.steps})")
    warmup = int(round(train.warmup_frac * train.steps))
    if step < warmup:
        return train.lr * (step + 1) / warmup
    floor = train.final_lr_frac * train.lr
    span = train.steps - 1 - warmup
    if span <= 0:
        return train.lr
    progress = (step - warmup) / span
    return floor + (train.lr - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# gradient clipping
# ---------------------------------------------------------------------------


def clip_global_norm(
    grads: dict[str, np.ndarray], clip_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale the whole gradient set onto the clip ball; report the raw norm.

    Below the threshold the input dict is returned unchanged (same arrays,
    bitwise identical).  Above it, every tensor is scaled by the same
    factor, preserving direction.  Non-finite gradients raise NumericError
    so the caller can skip (and count) the step.
    """
    if clip_norm <= 0:
        raise ConfigError(f"clip_norm must be positive, got {clip_norm}")
    total = 0.0
    for name, g in grads.items():
        s = float(np.vdot(g, g))
        if not np.isfinite(s):
            raise NumericError(f"non-finite gradient in {name}")
        total += s
    norm = math.sqrt(total)
    if not np.isfinite(norm):
        raise NumericError("non-finite global gradient norm")
    if norm <= clip_norm:
        return grads, norm
    scale = clip_norm / norm
    return {name: g * scale for name, g in grads.items()}, norm


# ---------------------------------------------------------------------------
# AdamW with per-row moment bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam moments plus per-row activity counts.

    ``counts[name]`` has one entry per leading-axis row of the parameter;
    a row's entry is the number of optimization steps in which that row
    was structurally active.  Bias correction uses these per-row counts,
    so a channel that has only seen 10 updates is corrected like a
    10-step-old parameter regardless of the global step number.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    counts: dict[str, np.ndarray]
    completed: int = 0  # train_step invocations (applied + skipped)
    applied: int = 0
    skipped: int = 0


def init_optimizer_state(config: ModelConfig) -> OptimizerState:
    schema = param_schema(config)
    return OptimizerState(
        m={s.name: np.zeros(s.shape) for s in schema},
        v={s.name: np.zeros(s.shape) for s in schema},
        counts={s.name: np.zeros(s.shape[0], dtype=np.int64) for s in schema},
    )


def step_mask_plan(config: ModelConfig, budget: int) -> dict[str, Optional[int]]:
    """How many leading-axis rows of each parameter are active this step.

    ``None`` means the whole tensor participates.  An integer k means only
    rows [:k] receive gradient/moment/decay updates, per each tensor's row
    rule in ``model.param_schema``: mixing tensors are active up to the
    sampled budget, gate output rows follow the gate's truncation mode, and
    a disabled gate freezes all four gate tensors.
    """
    return {s.name: s.active_rows(config, budget) for s in param_schema(config)}


def adamw_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    config: ModelConfig,
    train: TrainConfig,
    lr_t: float,
    plan: Optional[dict[str, Optional[int]]] = None,
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    update = lr * (m_hat / (sqrt(v_hat) + eps) + wd * p) on active rows;
    eps sits outside the square root.  Inactive rows keep parameters,
    moments, and counts untouched (decay included, unless
    ``train.decay_inactive`` asks for decay everywhere).
    """
    b1, b2, eps, wd = train.beta1, train.beta2, train.adam_eps, train.weight_decay
    for name, p in flatten_params(params, config):
        g = grads[name]
        if g.shape != p.shape:
            raise StructuralError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name}"
            )
        k = None if plan is None else plan.get(name)
        rows = slice(None) if k is None else slice(0, k)
        if train.decay_inactive and wd > 0:
            p -= lr_t * wd * p  # every row, ignoring the activity mask
        if k == 0:
            continue
        state.counts[name][rows] += 1
        t = state.counts[name][rows].reshape((-1,) + (1,) * (p.ndim - 1))
        m, v = state.m[name], state.v[name]
        m[rows] = b1 * m[rows] + (1 - b1) * g[rows]
        v[rows] = b2 * v[rows] + (1 - b2) * np.square(g[rows])
        m_hat = m[rows] / (1.0 - b1 ** t)
        v_hat = v[rows] / (1.0 - b2 ** t)
        step_dir = m_hat / (np.sqrt(v_hat) + eps)
        if wd > 0 and not train.decay_inactive:
            step_dir = step_dir + wd * p[rows]
        p[rows] -= lr_t * step_dir
    state.applied += 1
    state.completed += 1


# ---------------------------------------------------------------------------
# one optimization step
# ---------------------------------------------------------------------------


def train_step(
    params: ModelParams,
    state: OptimizerState,
    inputs: np.ndarray,
    targets: np.ndarray,
    mask: Optional[np.ndarray],
    config: ModelConfig,
    train: TrainConfig,
    basis: SpectralBasis,
    sampler: BudgetSampler,
    step: int,
) -> dict:
    """Sample a budget, forward/backward at it, clip, update; report metrics.

    The same sampled budget governs the forward pass, the backward pass,
    and the optimizer's row-activity plan.  A non-finite loss or gradient
    raises NumericError *before* any parameter or moment is touched, so a
    skipped step leaves the trajectory exactly where it was.
    """
    budget = sampler.draw(step) if train.budget_dropout else config.capacity
    lr_t = lr_at_step(step, train)
    loss_fn = model_loss_fn(inputs, targets, config, basis, budget, mask=mask)
    loss, grads = loss_fn(params)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss} at step {step}")
    grads, grad_norm = clip_global_norm(grads, train.clip_norm)
    adamw_step(params, grads, state, config, train, lr_t,
               plan=step_mask_plan(config, budget))
    return {
        "loss": float(loss),
        "budget": int(budget),
        "grad_norm": float(grad_norm),
        "lr": float(lr_t),
    }


# ---------------------------------------------------------------------------
# optimizer-state container (appended after the model checkpoint)
# ---------------------------------------------------------------------------


def optimizer_block_writer(state: OptimizerState, config: ModelConfig) -> Writer:
    """The optimizer container, holding views of the moment arrays."""
    w = Writer(OPTIMIZER_MAGIC)
    w.u32(OPTIMIZER_VERSION)
    w.u64(state.completed)
    w.u64(state.applied)
    w.u64(state.skipped)
    for spec in param_schema(config):
        w.array(state.m[spec.name], "float64")
        w.array(state.v[spec.name], "float64")
        w.array(state.counts[spec.name], "int64")
    return w


def optimizer_state_from_block(data: bytes | memoryview, config: ModelConfig) -> OptimizerState:
    r = Reader(data, OPTIMIZER_MAGIC, what="optimizer state")
    r.expect_version(OPTIMIZER_VERSION)
    completed, applied, skipped = r.u64(), r.u64(), r.u64()
    m, v, counts = {}, {}, {}
    for spec in param_schema(config):
        m[spec.name] = r.array(spec.shape, "float64")
        v[spec.name] = r.array(spec.shape, "float64")
        counts[spec.name] = r.array(spec.shape[:1], "int64")
    r.expect_end()
    return OptimizerState(m=m, v=v, counts=counts, completed=completed,
                          applied=applied, skipped=skipped)


def save_training_checkpoint(
    path: str | os.PathLike,
    params: ModelParams,
    config: ModelConfig,
    state: OptimizerState,
) -> None:
    """Model container with the optimizer block appended after it, streamed
    to the file part by part."""
    parts = checkpoint_writer(params, config).parts()
    atomic_write(path, parts + optimizer_block_writer(state, config).parts())


def load_training_checkpoint(
    path: str | os.PathLike,
) -> tuple[ModelParams, ModelConfig, OptimizerState]:
    try:
        data = map_file(path)
    except OSError as exc:
        raise ArtifactError(f"cannot read checkpoint {os.fspath(path)!r}: {exc}") from exc
    params, config, span = params_from_checkpoint(data, what=f"checkpoint {os.fspath(path)!r}")
    if len(data) <= span:
        raise ArtifactError(
            f"checkpoint {os.fspath(path)!r} has no optimizer block; "
            "it cannot resume training (it can still be evaluated)"
        )
    state = optimizer_state_from_block(memoryview(data)[span:], config)
    return params, config, state


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainLog:
    """Accumulates per-cadence records and writes them as JSON lines."""

    path: Optional[str] = None
    records: list = field(default_factory=list)

    def emit(self, record: dict) -> None:
        self.records.append(record)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _batch_key(seed: int) -> np.ndarray:
    # independent Philox key for batch order, derived from the budget seed's
    # sibling stream so batches and budgets never share draws
    return np.random.SeedSequence(seed).spawn(2)[1].generate_state(2, np.uint64)


def run_training(
    run: RunConfig,
    dataset: Optional[Dataset] = None,
    resume: str | os.PathLike | None = None,
    log_path: str | os.PathLike | None = None,
    checkpoint_path: str | os.PathLike | None = None,
    stop_after: Optional[int] = None,
) -> dict:
    """Train per the run document; return a summary dict.

    Writes (when paths are given) a JSONL training log with one record per
    eval cadence — {"step", "loss", "budget_histogram", "grad_norm", "lr",
    "eval"} — and a combined model+optimizer checkpoint.  ``resume`` picks
    up from such a checkpoint and reproduces the uninterrupted trajectory
    bit for bit.  ``stop_after`` pauses the run once that many total steps
    are complete (checkpointing first), for interruptible jobs.  Aborts
    with NumericError if more than ``train.max_skip_frac`` of all steps
    were skipped for non-finite losses/gradients.
    """
    model_cfg, train_cfg = run.model, run.train
    basis, _ = get_or_build_basis(
        model_cfg.seq_len, model_cfg.capacity, run.paths.cache_dir
    )
    if dataset is None:
        dataset = build_dataset(run.task, model_cfg)
    if dataset.seq_len != model_cfg.seq_len:
        raise ConfigError(
            f"dataset sequence length {dataset.seq_len} != model seq_len "
            f"{model_cfg.seq_len}"
        )
    if train_cfg.loss != dataset.loss:
        raise ConfigError(
            f"train.loss is {train_cfg.loss!r} but the {dataset.kind!r} task "
            f"trains with {dataset.loss!r}; set train.loss to {dataset.loss!r}"
        )

    sampler = BudgetSampler(
        train_cfg.sampler_mode, model_cfg.budget_set, model_cfg.capacity,
        seed=train_cfg.seed,
    )
    batch_key = _batch_key(train_cfg.seed)

    if resume is not None:
        params, saved_cfg, state = load_training_checkpoint(resume)
        if saved_cfg.to_dict() != model_cfg.to_dict():
            raise ConfigError(
                "checkpoint model config does not match the run config; "
                "refusing to resume across architectures"
            )
        start_step = state.completed
        if start_step > train_cfg.steps:
            raise ConfigError(
                f"checkpoint has completed {start_step} steps, more than the "
                f"configured {train_cfg.steps}"
            )
    else:
        params = init_model_params(model_cfg)
        state = init_optimizer_state(model_cfg)
        start_step = 0

    log = TrainLog(path=None if log_path is None else os.fspath(log_path))
    histogram: dict[int, int] = {}
    window_losses: list[float] = []
    last = {"grad_norm": float("nan"), "lr": float("nan"), "loss": float("nan")}
    max_skips = train_cfg.max_skip_frac * train_cfg.steps
    final_eval = None  # a cadence eval of the current parameters, if any
    saved_at = None  # steps completed when the cadence last saved, if it has

    end_step = train_cfg.steps
    if stop_after is not None:
        if stop_after <= start_step:
            raise ConfigError(
                f"stop_after={stop_after} is not beyond the {start_step} "
                "steps already completed"
            )
        end_step = min(end_step, stop_after)

    def record(step: int, loss: Optional[float], evaluation: Optional[dict]) -> dict:
        """The log record after ``step``, as one cadence or the abort writes it."""
        return {
            "step": step + 1,
            "loss": loss,
            "budget_histogram": {str(k): histogram[k] for k in sorted(histogram)},
            "grad_norm": last["grad_norm"],
            "lr": last["lr"],
            "eval": evaluation,
            "skipped": state.skipped,
        }

    n_train = dataset.n_train
    for step in range(start_step, end_step):
        rng = np.random.Generator(np.random.Philox(key=batch_key, counter=step))
        idx = rng.integers(0, n_train, size=train_cfg.batch_size)
        batch_mask = None if dataset.mask is None else dataset.mask[idx]
        try:
            metrics = train_step(
                params, state, dataset.inputs[idx], dataset.targets[idx],
                batch_mask, model_cfg, train_cfg, basis, sampler, step,
            )
        except NumericError:
            state.skipped += 1
            state.completed += 1
            if state.skipped > max_skips:
                log.emit({**record(step, None, None), "aborted": True})
                raise NumericError(
                    f"{state.skipped} of {state.completed} steps skipped for "
                    f"non-finite values (limit {max_skips:.0f}); aborting"
                )
            continue
        histogram[metrics["budget"]] = histogram.get(metrics["budget"], 0) + 1
        window_losses.append(metrics["loss"])
        last = metrics
        final_eval = None  # the update just applied outdates any earlier eval
        if (step + 1) % train_cfg.eval_every == 0 or step + 1 == train_cfg.steps:
            final_eval = evaluate_model(
                params, model_cfg, basis, dataset, budget=model_cfg.capacity,
            )
            loss = float(np.mean(window_losses)) if window_losses else None
            log.emit(record(step, loss, final_eval))
            window_losses = []
        if (
            checkpoint_path is not None
            and train_cfg.checkpoint_every
            and (step + 1) % train_cfg.checkpoint_every == 0
        ):
            save_training_checkpoint(checkpoint_path, params, model_cfg, state)
            saved_at = state.completed

    # the cadence may just have written this very state
    if checkpoint_path is not None and saved_at != state.completed:
        save_training_checkpoint(checkpoint_path, params, model_cfg, state)

    if final_eval is None:
        final_eval = evaluate_model(
            params, model_cfg, basis, dataset, budget=model_cfg.capacity,
        )
    return {
        "params": params,
        "state": state,
        "basis": basis,
        "dataset": dataset,
        "final_eval": final_eval,
        "log": log.records,
        "steps_applied": state.applied,
        "steps_skipped": state.skipped,
        "completed_steps": state.completed,
        "finished": state.completed >= train_cfg.steps,
    }
