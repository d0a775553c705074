"""The benchmark's workloads: geometry, task, run sizes and why each exists.

Every workload runs the same lifecycle (set-up, budget-dropout training,
checkpoint, budget sweep, budgeted inference); they differ in which modules
dominate the time.  ``--seed`` feeds the data and the parameter
initialisation.  The budget sampler's seed is fixed per workload: it decides
which budgets the training steps run at, hence how much work a run does,
and a run must do the same work whatever the data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict  # ModelConfig fields; the seed comes from --seed
    task: dict  # TaskSpec fields; the seed comes from --seed
    train: dict  # TrainConfig fields apart from the seed and eval_every
    sampler_seed: int  # TrainConfig.seed: fixes sampled budgets and batch order
    n_eval: int  # eval sequences kept from the generated eval split
    loss_drop: bool  # check (f): training lowers the loss on a fixed training batch
    sweeps_per_round: int  # load + budget_sweep repetitions per lifecycle round
    infer_per_sweep: tuple[int, int]  # model_forward calls after each sweep at K=2, full K

    @property
    def batch(self) -> int:
        return int(self.train["batch_size"])

    @property
    def capacity(self) -> int:
        return int(self.model["capacity"])

    @property
    def seq_len(self) -> int:
        return int(self.model["seq_len"])


_LDS_MODEL = dict(input_kind="real", in_dim=4, out_dim=4)
_LDS_TASK = dict(kind="lds-regression", state_dim=8, data_dim=4)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="desk-lds",
            why="criterion-9 geometry (L=256, d=64, depth 2, B=8): training-heavy, "
            "einsum mixing, FFT bank and adjoint and backprop dominate",
            model=dict(seq_len=256, width=64, gate_hidden=32, capacity=32, depth=2,
                       **_LDS_MODEL),
            task=dict(n_samples=64, **_LDS_TASK),
            # a short, brisk run (criterion 9 trains 300 steps at 3e-3), long
            # enough for check (f).  Seed 58 draws budgets (24, 2, 6, 8, 12,
            # 24, 2, 2), mean 10, which leaves rows 24..31 for check (e)
            train=dict(steps=8, batch_size=8, lr=3e-2, loss="mse"),
            sampler_seed=58,
            n_eval=8,
            loss_drop=True,
            sweeps_per_round=2,
            infer_per_sweep=(8, 2),
        ),
        Workload(
            name="ref-1024",
            why="criterion-11 reference geometry (L=1024, d=256, B=1): inference-heavy, "
            "full-K layer_forward, the 1024x1024 eigh and the features tensor dominate",
            # the grid of the per-module budgets keeps one sweep near 3 s
            model=dict(seq_len=1024, width=256, gate_hidden=256, capacity=32, depth=1,
                       budget_set=(2, 4, 8, 16, 32), **_LDS_MODEL),
            task=dict(n_samples=8, **_LDS_TASK),
            # seed 0 draws budgets (2, 8), which leaves rows 8..31 untouched,
            # so check (e) has rows to compare
            train=dict(steps=2, batch_size=1, lr=3e-3, loss="mse"),
            sampler_seed=0,
            n_eval=1,
            loss_drop=False,
            sweeps_per_round=1,
            infer_per_sweep=(8, 1),
        ),
        Workload(
            name="copy-small",
            why="criterion-10 geometry (tokens, L=32, d=16, capacity 8, B=16): tiny "
            "kernels, so per-call Python overhead dominates",
            model=dict(seq_len=32, width=16, gate_hidden=16, capacity=8, depth=1,
                       budget_set=(2, 3, 4, 6, 8), input_kind="tokens",
                       vocab_size=10, out_dim=10),
            task=dict(kind="copy", n_symbols=9, delay=4, n_samples=192),
            train=dict(steps=150, batch_size=16, lr=4e-3),
            sampler_seed=0,
            n_eval=16,
            loss_drop=True,
            sweeps_per_round=50,
            infer_per_sweep=(2, 2),
        ),
    )
}


def toy(workload: Workload) -> Workload:
    """A seconds-long version of a workload's code path, for the tests."""
    model = dict(workload.model, seq_len=16, width=8, gate_hidden=4, capacity=8,
                 budget_set=(2, 4, 8))
    task = dict(workload.task, n_samples=32)
    train = dict(workload.train, steps=20, batch_size=min(workload.batch, 4))
    return replace(workload, model=model, task=task, train=train,
                   n_eval=min(workload.n_eval, 4))
