"""Model / training / run configuration with strict schema validation.

Configs are plain dataclasses that round-trip through canonical JSON.
Parsing rejects unknown keys (with a pointer to the offending key) so a
typo in a run file fails loudly before any compute happens.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .errors import BudgetError, ConfigError

__all__ = [
    "ModelConfig",
    "TaskSpec",
    "TrainConfig",
    "RunConfig",
    "RUN_CONFIG_VERSION",
    "DEFAULT_BUDGET_SET",
    "check_budgets",
]

RUN_CONFIG_VERSION = 1

#: Deployment budget grid; the capacity itself is always the last element.
DEFAULT_BUDGET_SET = (2, 3, 4, 6, 8, 12, 16, 24, 32)

NORM_KINDS = ("layernorm", "rmsnorm")
INPUT_KINDS = ("tokens", "real")
HEAD_KINDS = ("per-step", "mean-pool")
TRUNCATION_MODES = ("masked", "direct")
PRECISIONS = ("float64", "float32")
LOSS_KINDS = ("cross-entropy", "mse")
TASK_KINDS = ("lds-regression", "copy", "byte-lm")


def check_budgets(budgets, capacity: int) -> tuple[int, ...]:
    """The budget rule: a nonempty list of integers K with 2 <= K <= capacity.

    Returns the budgets as a tuple of ints; raises BudgetError otherwise.
    """
    try:
        ks = tuple(map(operator.index, budgets))
    except TypeError:
        raise BudgetError(f"budgets must be a list of integers, got {budgets!r}") from None
    if not ks:
        raise BudgetError("the budget list is empty")
    bad = [k for k in ks if not 2 <= k <= capacity]
    if bad:
        raise BudgetError(
            f"budgets {bad} outside [2, capacity={capacity}]"
            + ("; budget 1 is excluded: single-channel inference is not part "
               "of the supported budget grid" if 1 in bad else "")
        )
    return ks


#: Keys that files written by earlier versions carry, per config class, each
#: with its one legal value: the behaviour the code has without the key.
_REMOVED_KEYS = {
    "ModelConfig": {"gate_input": "normalized"},
    "TrainConfig": {"sampler_mode": "uniform-over-budget-set", "decay_inactive": False},
}


def _from_dict(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    kwargs = dict(data)
    for key, legal in _REMOVED_KEYS.get(cls.__name__, {}).items():
        if key in kwargs:
            _require(kwargs.pop(key) == legal, f"{where}: {key} supports only {legal!r}")
            warnings.warn(f"{where}: ignoring the removed key {key!r}", stacklevel=3)
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    for f in fields(cls):
        if f.name in kwargs and isinstance(kwargs[f.name], list):
            kwargs[f.name] = tuple(kwargs[f.name])
    try:
        obj = cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return obj


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``capacity`` is the number of spectral channels the model owns; a
    runtime budget selects a prefix of them.  The gate reads the normalized
    (post pre-norm) layer input.
    """

    width: int = 256
    gate_hidden: int = 64
    depth: int = 8
    seq_len: int = 256
    capacity: int = 32
    budget_set: tuple[int, ...] = DEFAULT_BUDGET_SET
    norm_kind: str = "layernorm"
    input_kind: str = "tokens"
    vocab_size: int = 256
    in_dim: int = 1
    out_dim: int = 256
    head: str = "per-step"
    gate_enabled: bool = True
    truncation_mode: str = "masked"
    gate_eps: float = 1e-6
    precision: str = "float64"
    seed: int = 0

    def __post_init__(self):
        _require(self.width >= 1, f"width must be >= 1, got {self.width}")
        _require(self.gate_hidden >= 1, f"gate_hidden must be >= 1, got {self.gate_hidden}")
        _require(self.depth >= 0, f"depth must be >= 0, got {self.depth}")
        _require(self.seq_len >= 1, f"seq_len must be >= 1, got {self.seq_len}")
        _require(
            2 <= self.capacity <= self.seq_len,
            f"capacity must satisfy 2 <= capacity <= seq_len, got "
            f"capacity={self.capacity}, seq_len={self.seq_len}",
        )
        # a tuple keeps the config hashable (model.param_schema caches on it)
        object.__setattr__(self, "budget_set", check_budgets(self.budget_set, self.capacity))
        _require(
            tuple(sorted(set(self.budget_set))) == self.budget_set,
            f"budget_set must be strictly increasing, got {self.budget_set}",
        )
        _require(self.norm_kind in NORM_KINDS, f"norm_kind must be one of {NORM_KINDS}")
        _require(self.input_kind in INPUT_KINDS, f"input_kind must be one of {INPUT_KINDS}")
        _require(self.head in HEAD_KINDS, f"head must be one of {HEAD_KINDS}")
        _require(
            self.truncation_mode in TRUNCATION_MODES,
            f"truncation_mode must be one of {TRUNCATION_MODES}",
        )
        _require(self.gate_eps > 0, "gate_eps must be positive")
        _require(self.precision in PRECISIONS, f"precision must be one of {PRECISIONS}")
        if self.input_kind == "tokens":
            _require(self.vocab_size >= 2, "vocab_size must be >= 2 for token input")
        else:
            _require(self.in_dim >= 1, "in_dim must be >= 1 for real input")
        _require(self.out_dim >= 1, "out_dim must be >= 1")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["budget_set"] = list(self.budget_set)
        return d

    @classmethod
    def from_dict(cls, data: dict, where: str = "model") -> "ModelConfig":
        return _from_dict(cls, data, where)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters for budget-dropout training."""

    batch_size: int = 16
    steps: int = 1000
    lr: float = 3e-4
    warmup_frac: float = 0.05
    final_lr_frac: float = 0.10
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0
    budget_dropout: bool = True
    loss: str = "cross-entropy"
    eval_every: int = 100
    checkpoint_every: int = 0
    max_skip_frac: float = 0.10
    seed: int = 0

    def __post_init__(self):
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.steps >= 1, "steps must be >= 1")
        _require(self.lr > 0, "lr must be positive")
        _require(0.0 <= self.warmup_frac < 1.0, "warmup_frac must be in [0, 1)")
        _require(0.0 <= self.final_lr_frac <= 1.0, "final_lr_frac must be in [0, 1]")
        _require(self.weight_decay >= 0, "weight_decay must be >= 0")
        _require(0.0 <= self.beta1 < 1.0, "beta1 must be in [0, 1)")
        _require(0.0 <= self.beta2 < 1.0, "beta2 must be in [0, 1)")
        _require(self.adam_eps > 0, "adam_eps must be positive")
        _require(self.clip_norm > 0, "clip_norm must be positive")
        _require(self.loss in LOSS_KINDS, f"loss must be one of {LOSS_KINDS}")
        _require(self.eval_every >= 1, "eval_every must be >= 1")
        _require(self.checkpoint_every >= 0, "checkpoint_every must be >= 0")
        _require(0.0 <= self.max_skip_frac <= 1.0, "max_skip_frac must be in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict, where: str = "train") -> "TrainConfig":
        return _from_dict(cls, data, where)


@dataclass(frozen=True)
class TaskSpec:
    """What data the run trains/evaluates on."""

    kind: str = "copy"
    n_samples: int = 512
    # copy task
    n_symbols: int = 8
    delay: int = 4
    # linear state-space teacher
    state_dim: int = 8
    data_dim: int = 4
    rho_max: float = 0.95
    # byte language modeling
    corpus: str | None = None
    seed: int = 0

    def __post_init__(self):
        _require(self.kind in TASK_KINDS, f"task kind must be one of {TASK_KINDS}")
        _require(self.n_samples >= 2, "n_samples must be >= 2")
        _require(self.n_symbols >= 2, "n_symbols must be >= 2")
        _require(self.delay >= 0, "delay must be >= 0")
        _require(self.state_dim >= 1, "state_dim must be >= 1")
        _require(self.data_dim >= 1, "data_dim must be >= 1")
        _require(0.0 < self.rho_max < 1.0, "rho_max must lie in (0, 1)")
        if self.kind == "byte-lm":
            _require(self.corpus is not None, "byte-lm task needs a corpus path")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict, where: str = "task") -> "TaskSpec":
        return _from_dict(cls, data, where)


@dataclass(frozen=True)
class Paths:
    cache_dir: str | None = None
    out_dir: str = "runs/default"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict, where: str = "paths") -> "Paths":
        return _from_dict(cls, data, where)


@dataclass(frozen=True)
class RunConfig:
    """The resolved, versioned document a run is fully determined by."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    task: TaskSpec = field(default_factory=TaskSpec)
    paths: Paths = field(default_factory=Paths)
    version: int = RUN_CONFIG_VERSION

    def __post_init__(self):
        _require(
            self.version == RUN_CONFIG_VERSION,
            f"unsupported config version {self.version} "
            f"(this build reads version {RUN_CONFIG_VERSION})",
        )

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "model": self.model.to_dict(),
            "train": self.train.to_dict(),
            "task": self.task.to_dict(),
            "paths": self.paths.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "config") -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected a JSON object")
        known = {"version", "model", "train", "task", "paths"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
        return cls(
            version=data.get("version", RUN_CONFIG_VERSION),
            model=ModelConfig.from_dict(data.get("model", {}), f"{where}.model"),
            train=TrainConfig.from_dict(data.get("train", {}), f"{where}.train"),
            task=TaskSpec.from_dict(data.get("task", {}), f"{where}.task"),
            paths=Paths.from_dict(data.get("paths", {}), f"{where}.paths"),
        )
