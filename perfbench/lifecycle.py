"""The elastic lifecycle the benchmark times, and its metrics.

One run of a workload: set up (basis into a fresh cache, dataset,
initial parameters), train with budget dropout through ``run_training``
(the path ``essm train`` runs, checkpoint included), then load the
checkpoint and sweep every budget of the grid (what ``essm sweep`` does),
then serve ``model_forward`` at K=2 and at full capacity on a fixed eval
batch.  The run repeats whole rounds of that lifecycle until its seconds
are spent; see :func:`run_lifecycle`.

The traced run adds spans (``spans.py``): it alternates untraced and traced
one-round passes of the lifecycle, the difference being the tracing
overhead, then probes each module's public functions at every budget label.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import elastic_ssm.backprop as backprop
import elastic_ssm.basis as basis_mod
import elastic_ssm.layer as layer
import elastic_ssm.model as model
import elastic_ssm.sweep as sweep
import elastic_ssm.tasks as tasks
import elastic_ssm.training as training
from elastic_ssm.config import ModelConfig, Paths, RunConfig, TaskSpec, TrainConfig

from .checks import run_checks
from .spans import Tracer, durations_by_key, self_times
from .workloads import Workload

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
MIN_ROUNDS = 2
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_tok_s": "tokens/s",
    "sweep_s": "s",
    "infer_tok_s_k2": "tokens/s",
    "infer_tok_s_kfull": "tokens/s",
    "peak_rss_mb": "MB",
}

#: Per-budget timings from the traced run's probes: metric prefix -> span name.
PROBED = {
    "linalg.conv_bank_ms": "linalg.conv_bank",
    "layer.forward_ms": "layer.forward",
    "layer.gate_ms": "layer.gate",
    "model.forward_ms": "model.forward",
    "linalg.conv_adjoint_ms": "linalg.conv_adjoint",
    "backprop.layer_backward_ms": "backprop.layer_backward",
    "backprop.model_backward_ms": "backprop.model_backward",
}

#: Per-call timings of the traced lifecycle: metric -> (phase, span name).
LIFECYCLE_MS = {
    "training.step_ms": ("train", "training.step"),
    "training.clip_ms": ("train", "training.clip"),
    "training.adamw_ms": ("train", "training.adamw"),
    "training.mask_plan_ms": ("train", "training.mask_plan"),
    "training.checkpoint_save_ms": ("train", "training.checkpoint_save"),
    "model.checkpoint_load_ms": ("sweep", "model.checkpoint_load"),
    "model.fingerprint_ms": ("sweep", "model.fingerprint"),
}

def budget_labels(capacity: int) -> dict[str, int]:
    """Metric label -> budget.  Half and full capacity are named as such so
    that every workload reports every label (at capacity 8, ``khalf`` is
    K=4 and ``kfull`` is K=8)."""
    return {"k2": 2, "k4": 4, "k8": 8, "khalf": capacity // 2, "kfull": capacity}


def now() -> float:
    return time.perf_counter()


@dataclass
class Setup:
    workload: Workload
    run: RunConfig
    basis: object
    dataset: object
    initial_params: object

    @property
    def config(self) -> ModelConfig:
        return self.run.model


def make_run(workload: Workload, seed: int, cache_dir: str) -> RunConfig:
    seeds = training.derive_seeds(seed)
    return RunConfig(
        model=ModelConfig(**workload.model, seed=seeds["init"]),
        train=TrainConfig(**workload.train, seed=workload.sampler_seed,
                          eval_every=workload.train["steps"]),
        task=TaskSpec(**workload.task, seed=seeds["data"]),
        paths=Paths(cache_dir=cache_dir),
    )


def set_up(workload: Workload, seed: int, cache_dir: str) -> Setup:
    """Build the basis into ``cache_dir``, the dataset and the initial model."""
    run = make_run(workload, seed, cache_dir)
    bank, _ = basis_mod.get_or_build_basis(run.model.seq_len, run.model.capacity, cache_dir)
    full = tasks.build_dataset(run.task, run.model)
    n = workload.n_eval
    dataset = dataclasses.replace(
        full, eval_inputs=full.eval_inputs[:n], eval_targets=full.eval_targets[:n],
        eval_mask=None if full.eval_mask is None else full.eval_mask[:n],
    )
    params = model.init_model_params(run.model)
    return Setup(workload, run, bank, dataset, params)


def time_setup(workload: Workload, seed: int, workdir: str, toy: bool) -> list[float]:
    """Seconds from process start to the end of set-up, one fresh process
    and cache directory per sample."""
    samples = []
    for i in range(SETUP_SAMPLES):
        cache = os.path.join(workdir, f"setup-cache-{i}")
        cmd = [sys.executable, RUN_PY, "--workload", workload.name, "--seed", str(seed),
               "--setup-only", cache] + (["--toy"] if toy else [])
        start = now()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = now() - start
            proc.communicate(timeout=300)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
        samples.append(elapsed)
        shutil.rmtree(cache)
    return samples


@dataclass
class Outcome:
    params: object
    loaded_params: object
    sampled_budgets: list[int]
    rounds: int
    steps: int  # training steps over all rounds
    skipped: int
    train_s: list[float]  # one run_training per round
    sweep_s: list[float]
    reports: list
    infer_s: dict[int, list[float]]
    peak_rss_mb: float
    checkpoint_mb: float

    @property
    def attempted(self) -> int:
        return (self.steps + len(self.reports) * len(self.reports[0].budgets)
                + sum(len(v) for v in self.infer_s.values()))


def run_lifecycle(setup: Setup, workdir: str, seconds: float, tag: str,
                  min_rounds: int, tracer: Tracer | None = None) -> Outcome:
    """Whole rounds of the lifecycle until ``seconds`` are spent.

    A round trains from scratch through ``run_training`` (checkpoint
    written), then loads the checkpoint and sweeps the grid, each sweep
    followed by forwards at K=2 and at full capacity.  Every round does the same work, and spreading
    each operation over the whole run averages out the machine's drift in
    speed, which is large over a few seconds and small over half a minute.
    """
    def phase(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    w, cfg, bank, ds = setup.workload, setup.config, setup.basis, setup.dataset
    ckpt = os.path.join(workdir, f"{tag}.essm")
    batch = ds.eval_inputs[: w.batch]
    train_s, sweep_s, reports = [], [], []
    infer_s = {2: [], cfg.capacity: []}
    start, rounds, steps, skipped = now(), 0, 0, 0
    # a round starts while it would end no later than half a round past the
    # deadline, so a run measures ``seconds`` on average
    while rounds < min_rounds or now() + 0.5 * (now() - start) / rounds <= start + seconds:
        log_path = os.path.join(workdir, f"{tag}-{rounds}.jsonl")
        t = now()
        with phase("train"):
            result = training.run_training(setup.run, dataset=ds, checkpoint_path=ckpt,
                                           log_path=log_path)
        train_s.append(now() - t)
        steps += result["completed_steps"]
        skipped += result["steps_skipped"]
        for _ in range(w.sweeps_per_round):
            t = now()
            with phase("sweep"):
                loaded, loaded_cfg = model.load_checkpoint(ckpt, bank)
                reports.append(sweep.budget_sweep(loaded, loaded_cfg, bank, ds))
            sweep_s.append(now() - t)
            with phase("infer"):
                for i in range(max(w.infer_per_sweep)):
                    for (k, times), n in zip(infer_s.items(), w.infer_per_sweep):
                        if i < n:
                            t = now()
                            model.model_forward(batch, loaded, loaded_cfg, bank, k)
                            times.append(now() - t)
        rounds += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    histogram = result["log"][-1]["budget_histogram"]
    sampled = [int(k) for k, n in histogram.items() for _ in range(n)]
    return Outcome(
        params=result["params"], loaded_params=loaded,
        sampled_budgets=sampled, rounds=rounds, steps=steps, skipped=skipped,
        train_s=train_s, sweep_s=sweep_s, reports=reports, infer_s=infer_s,
        peak_rss_mb=peak, checkpoint_mb=os.path.getsize(ckpt) / 2**20,
    )


def end_to_end(setup: Setup, outcome: Outcome, setup_s: list[float]) -> dict[str, float]:
    """Throughputs are work over summed time, and ``sweep_s`` is a mean: the
    machine's speed switches between levels every few seconds, and a median
    of calls jumps between those levels where a time-weighted mean does not."""
    w = setup.workload
    tokens = w.batch * w.seq_len
    return {
        "setup_s": statistics.median(setup_s),
        "train_tok_s": outcome.steps * tokens / sum(outcome.train_s),
        "sweep_s": statistics.fmean(outcome.sweep_s),
        "infer_tok_s_k2": tokens * len(outcome.infer_s[2]) / sum(outcome.infer_s[2]),
        "infer_tok_s_kfull": tokens * len(outcome.infer_s[w.capacity])
        / sum(outcome.infer_s[w.capacity]),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def _loss_gradient(out, ds, rows: slice):
    if ds.loss == "cross-entropy":
        return backprop.softmax_cross_entropy(out, ds.eval_targets[rows],
                                              ds.eval_mask[rows])[1]
    return backprop.mean_squared_error(out, ds.eval_targets[rows])[1]


def probe(setup: Setup, params, tracer: Tracer, seconds: float) -> int:
    """Forward, gate helpers and backward at every labelled budget on the
    eval batch, in rounds until ``seconds`` pass; returns the round count."""
    cfg, bank, ds = setup.config, setup.basis, setup.dataset
    rows = slice(0, setup.workload.batch)
    x = ds.eval_inputs[rows]
    gate = params.blocks[0].layer.gate
    budgets = sorted(set(budget_labels(cfg.capacity).values()))
    end, rounds = now() + seconds, 0
    while rounds == 0 or now() < end:
        for k in budgets:
            with tracer.span("probe", k):
                out, cache = model.model_forward(x, params, cfg, bank, k)
                # layer_forward computes its gate inline, so the public
                # helpers stand in for it on the same normalized input
                with tracer.span("layer.gate", k):
                    logits = layer.gate_logits(cache.layer_caches[0].u, gate)
                    layer.masked_softmax(layer.rms_rescale(logits, k, gate.eps), k,
                                         cfg.capacity)
                backprop.model_backward(_loss_gradient(out, ds, rows), cache)
            del out, cache
        rounds += 1
    return rounds


def per_layer(setup: Setup, tracer: Tracer, plain: list[Outcome],
              traced: list[Outcome]) -> dict[str, tuple]:
    """Per-module metrics as name -> (value, unit), from one-round passes."""
    cfg, w = setup.config, setup.workload
    spans = durations_by_key(tracer.spans)

    def median(*keys):
        return statistics.median([d for key in keys for d in spans[key]])

    out = {
        "basis.build_s": (median(("setup", "basis.build", None)), "s"),
        "tasks.build_dataset_s": (median(("setup", "tasks.build_dataset", None)), "s"),
        "model.init_ms": (1e3 * median(("setup", "model.init", None),
                                       ("train", "model.init", None)), "ms"),
    }
    for label, k in budget_labels(cfg.capacity).items():
        for metric, name in PROBED.items():
            out[f"{metric}.{label}"] = (1e3 * median(("probe", name, k)), "ms")
        out[f"tasks.evaluate_ms.{label}"] = (1e3 * median(("sweep", "tasks.evaluate", k)), "ms")
        out[f"layer.flops.{label}"] = (layer.layer_flop_count(
            cfg.seq_len, cfg.width, cfg.gate_hidden, cfg.capacity, k, w.batch), "FLOP")
        out[f"layer.features_mb.{label}"] = (w.batch * k * cfg.seq_len * cfg.width * 8 / 2**20,
                                             "MB")
    for metric, (root, name) in LIFECYCLE_MS.items():
        out[metric] = (1e3 * median((root, name, None)), "ms")
    last = traced[-1]
    out["model.checkpoint_mb"] = (last.checkpoint_mb, "MB")
    out["training.steps"] = (last.steps, "count")
    out["training.mean_budget"] = (float(np.mean(last.sampled_budgets)), "count")

    def times(passes: list[Outcome]) -> dict[str, float]:
        def med(pick):
            return statistics.median([t for o in passes for t in pick(o)])
        return {"train": med(lambda o: o.train_s), "sweep": med(lambda o: o.sweep_s),
                "infer_k2": med(lambda o: o.infer_s[2]),
                "infer_kfull": med(lambda o: o.infer_s[cfg.capacity])}

    a, b = times(plain), times(traced)
    for key, base in a.items():
        out[f"trace.overhead_pct.{key}"] = (100.0 * (b[key] - base) / base, "%")
    return out


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: str, toy: bool = False) -> dict:
    """One benchmark run; returns the result object the command prints."""
    workdir = os.path.join(out_dir, f"work-{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    rng = np.random.default_rng(seed)
    try:
        if not trace:
            setup_s = time_setup(workload, seed, workdir, toy)
            setup = set_up(workload, seed, os.path.join(workdir, "cache"))
            outcome = run_lifecycle(setup, workdir, seconds, "run", MIN_ROUNDS)
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(setup, outcome, setup_s).items()}
        else:
            tracer = Tracer()
            with tracer.installed(), tracer.span("setup"):
                setup = set_up(workload, seed, os.path.join(workdir, "cache"))
            # untraced and traced rounds alternate, so the machine's drift
            # falls on both sides of the overhead comparison
            plain, traced = [], []
            end = now() + 2 * seconds / 3
            while not traced or now() < end:
                plain.append(run_lifecycle(setup, workdir, 0.0, "plain", 1))
                with tracer.installed():
                    traced.append(run_lifecycle(setup, workdir, 0.0, "traced", 1, tracer))
            outcome = traced[-1]
            with tracer.installed():
                rounds = probe(setup, outcome.params, tracer, seconds / 3)
            metrics = per_layer(setup, tracer, plain, traced)
            table = self_times(tracer.spans)
            tracer.dump(os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json"),
                        {"workload": workload.name, "seed": seed, "probe_rounds": rounds,
                         "self_times": table})
        checks = run_checks(setup, outcome, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs = [outcome] if not trace else plain + traced
    return {"metrics": metrics, "checks": checks, "self_times": table if trace else [],
            "attempted": sum(o.attempted for o in runs), "failed": sum(o.skipped for o in runs)}

