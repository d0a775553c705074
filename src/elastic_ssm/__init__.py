"""Elastic spectral state-space sequence models with budgeted inference.

A numpy/scipy implementation of a gated spectral SSM layer whose inference
cost is an elastic runtime knob: the layer mixes a fixed bank of spectral
filters (eigenvectors of a Hankel moment matrix) and can run with any prefix
of that bank.  Budget-dropout training makes one set of weights serve every
budget.  The package covers basis construction, the gated budgeted layer,
analytic backprop with a finite-difference harness, budget-dropout training,
synthetic tasks, truncation sweeps with stability/cost audits, and the
``essm`` command line.
"""

from .backprop import finite_diff_check, model_backward, model_loss_fn
from .basis import (
    SpectralBasis,
    build_basis,
    get_or_build_basis,
    hankel_matrix,
    load_basis,
    save_basis,
)
from .config import ModelConfig, Paths, RunConfig, TaskSpec, TrainConfig
from .errors import (
    ArtifactError,
    AuditError,
    BudgetError,
    ConfigError,
    ConvergenceError,
    EssmError,
    NumericError,
    StructuralError,
)
from .layer import (
    LayerParams,
    layer_flop_count,
    layer_forward,
    masked_softmax,
)
from .model import (
    ModelParams,
    init_model_params,
    load_checkpoint,
    model_forward,
    params_fingerprint,
    save_checkpoint,
)
from .sweep import (
    DEFAULT_VARIANTS,
    SweepReport,
    VariantSpec,
    bibo_audit,
    budget_sweep,
    flop_estimate,
    model_bibo_audit,
    run_ablation,
)
from .tasks import Dataset, build_dataset, evaluate_model
from .training import (
    BudgetSampler,
    derive_seeds,
    load_training_checkpoint,
    run_training,
    save_training_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "ArtifactError",
    "AuditError",
    "BudgetError",
    "BudgetSampler",
    "ConfigError",
    "ConvergenceError",
    "DEFAULT_VARIANTS",
    "Dataset",
    "EssmError",
    "LayerParams",
    "ModelConfig",
    "ModelParams",
    "NumericError",
    "Paths",
    "RunConfig",
    "SpectralBasis",
    "StructuralError",
    "SweepReport",
    "TaskSpec",
    "TrainConfig",
    "VariantSpec",
    "bibo_audit",
    "budget_sweep",
    "build_basis",
    "build_dataset",
    "derive_seeds",
    "evaluate_model",
    "finite_diff_check",
    "flop_estimate",
    "get_or_build_basis",
    "hankel_matrix",
    "init_model_params",
    "layer_flop_count",
    "layer_forward",
    "load_basis",
    "load_checkpoint",
    "load_training_checkpoint",
    "masked_softmax",
    "model_backward",
    "model_bibo_audit",
    "model_forward",
    "model_loss_fn",
    "params_fingerprint",
    "run_ablation",
    "run_training",
    "save_basis",
    "save_checkpoint",
    "save_training_checkpoint",
]
