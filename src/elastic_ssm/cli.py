"""Command-line driver tying the pipeline together.

Subcommands: ``basis``, ``train``, ``sweep``, ``gradcheck``, ``audit``,
``ablate``, ``flops``.  Every command is deterministic given its config and
seed, writes its fully resolved configuration next to its outputs, and
exits with a stable code: 0 success, 2 config error, 3 artifact mismatch
or IO failure, 4 numeric failure, 5 assertion/audit failure.

Precedence for any setting: command-line flag > config file > built-in
default.  The environment variable ``ESSM_CACHE_DIR`` relocates the basis
cache when no explicit cache directory is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .backprop import finite_diff_check, model_loss_fn
from .basis import basis_cache_path, get_or_build_basis
from .config import DEFAULT_BUDGET_SET, ModelConfig, RunConfig, check_budgets
from .errors import ArtifactError, AuditError, ConfigError, EssmError, exit_code_for
from .model import init_model_params, load_checkpoint
from .sweep import (
    DEFAULT_VARIANTS,
    budget_sweep,
    flop_estimate,
    model_bibo_audit,
    run_ablation,
)
from .tasks import build_dataset
from .training import derive_seeds, run_training

__all__ = ["main"]

logger = logging.getLogger("elastic_ssm")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def parse_budget_list(
    text: str | None, capacity: int, default: tuple[int, ...] | None = None,
) -> tuple[int, ...] | None:
    """Parse '2,3,4' into a budget tuple checked by ``check_budgets``;
    ``default`` when no list was given (``text`` is None)."""
    if text is None:
        return default
    try:
        budgets = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(
            f"budgets must be comma-separated integers, got {text!r}"
        ) from None
    return check_budgets(budgets, capacity)


def load_run_config(path: str) -> RunConfig:
    """Read and schema-validate a run document before any compute."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return RunConfig.from_dict(doc, where=os.fspath(path))


def apply_seed_split(run: RunConfig, root_seed: int) -> RunConfig:
    """Split one root seed into independent per-subsystem seeds.

    init -> model, data -> task, budget/batch -> trainer, so each subsystem
    is reproducible on its own.
    """
    seeds = derive_seeds(root_seed)
    return dataclasses.replace(
        run,
        model=dataclasses.replace(run.model, seed=seeds["init"]),
        task=dataclasses.replace(run.task, seed=seeds["data"]),
        train=dataclasses.replace(run.train, seed=seeds["budget"]),
    )


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def write_resolved_config(out_dir: Path, run: RunConfig) -> Path:
    path = out_dir / "config.json"
    write_json(path, run.to_dict())
    return path


def _print(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def cmd_basis(args) -> int:
    cache_dir = args.out
    path = basis_cache_path(args.seq_len, args.capacity, cache_dir)
    existed = os.path.exists(path)
    basis, cache_hit = get_or_build_basis(args.seq_len, args.capacity, cache_dir)
    ev = basis.eigenvalues
    _print(f"basis file: {path} ({'cache hit' if cache_hit else 'built'})")
    _print(
        f"seq_len={basis.seq_len} capacity={basis.capacity} "
        f"sigma_1={ev[0]:.6e} sigma_K={ev[-1]:.6e} "
        f"decay_ratio={ev[-1] / ev[0]:.3e}"
    )
    if existed and not cache_hit:
        _print("note: existing cache file was unreadable and was rebuilt")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_overrides(run: RunConfig, args) -> RunConfig:
    train_kw = {}
    if args.steps is not None:
        train_kw["steps"] = args.steps
    if args.lr is not None:
        train_kw["lr"] = args.lr
    if args.batch_size is not None:
        train_kw["batch_size"] = args.batch_size
    if train_kw:
        run = dataclasses.replace(
            run, train=dataclasses.replace(run.train, **train_kw)
        )
    if args.out is not None:
        run = dataclasses.replace(
            run, paths=dataclasses.replace(run.paths, out_dir=args.out)
        )
    if args.seed is not None:
        run = apply_seed_split(run, args.seed)
    return run


def cmd_train(args) -> int:
    run = _train_overrides(load_run_config(args.config), args)
    out_dir = Path(run.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = write_resolved_config(out_dir, run)
    _print(f"resolved config: {config_path}")
    checkpoint = out_dir / "checkpoint.essm"
    log_path = out_dir / "train_log.jsonl"
    result = run_training(
        run,
        resume=args.resume,
        log_path=log_path,
        checkpoint_path=checkpoint,
        stop_after=args.stop_after,
    )
    final = result["final_eval"]
    _print(
        f"{'finished' if result['finished'] else 'paused'} at step "
        f"{result['completed_steps']}/{run.train.steps} "
        f"(applied {result['steps_applied']}, skipped {result['steps_skipped']})"
    )
    _print(
        f"final {final['metric_name']}={final['metric']:.6f} "
        f"loss={final['loss']:.6f}"
    )
    _print(f"checkpoint: {checkpoint}")
    _print(f"training log: {log_path}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_run_config(args) -> RunConfig:
    """The task/paths context for a sweep: --config, else the resolved
    config written next to the checkpoint by the training run."""
    if args.config is not None:
        return load_run_config(args.config)
    sibling = Path(args.checkpoint).parent / "config.json"
    if sibling.exists():
        return load_run_config(str(sibling))
    raise ConfigError(
        "sweep needs the task context: pass --config FILE or keep the "
        "resolved config.json next to the checkpoint"
    )


def cmd_sweep(args) -> int:
    params, model_cfg = load_checkpoint(args.checkpoint)
    budgets = parse_budget_list(args.budgets, model_cfg.capacity, model_cfg.budget_set)
    run = _sweep_run_config(args)
    if run.model.to_dict() != model_cfg.to_dict():
        raise ArtifactError(
            "run config's model section disagrees with the checkpoint's "
            "embedded model config; sweep refuses to guess which one is "
            "authoritative"
        )
    basis, _ = get_or_build_basis(
        model_cfg.seq_len, model_cfg.capacity, run.paths.cache_dir
    )
    dataset = build_dataset(run.task, model_cfg)
    report = budget_sweep(
        params, model_cfg, basis, dataset, budgets=budgets, split=args.split,
    )
    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    # under its own name so a sweep into the training directory never
    # clobbers the training run's resolved config
    write_json(out_dir / "sweep_config.json", run.to_dict())
    write_json(out_dir / "sweep.json", report.to_json_dict())
    (out_dir / "sweep.csv").write_text(report.to_csv(), encoding="utf-8")
    for k, m, r in zip(report.budgets, report.metric, report.retention):
        _print(f"K={k:<4d} {report.metric_name}={m:.6f} retention={r:.4f}")
    _print(
        f"orientation={report.orientation} sweet_spot={report.sweet_spot} "
        f"collapse_boundary={report.collapse_boundary}"
        + (" [non-monotone]" if report.non_monotone else "")
    )
    _print(f"reports: {out_dir / 'sweep.json'} (.csv)")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _model_config_from_flags(args, **overrides) -> ModelConfig:
    kw = dict(
        seq_len=args.seq_len,
        width=args.width,
        gate_hidden=args.gate_hidden,
        capacity=args.capacity,
        input_kind="real",
        in_dim=3,
        out_dim=3,
        vocab_size=None,
        budget_set=tuple(k for k in DEFAULT_BUDGET_SET if k <= args.capacity),
    )
    kw.update(overrides)
    return ModelConfig(**kw)


def cmd_gradcheck(args) -> int:
    config = _model_config_from_flags(args, depth=args.depth, seed=args.seed)
    budgets = parse_budget_list(args.budgets, config.capacity, (2, config.capacity))
    basis, _ = get_or_build_basis(config.seq_len, config.capacity, args.cache_dir)
    params = init_model_params(config)
    rng = np.random.default_rng(config.seed + 1)
    inputs = rng.normal(size=(2, config.seq_len, config.in_dim))
    targets = rng.normal(size=(2, config.seq_len, config.out_dim))
    rows = []
    failed = []
    for k in budgets:
        loss_fn = model_loss_fn(inputs, targets, config, basis, k)
        report = finite_diff_check(
            loss_fn, params, config, n_coords=args.coords, step=args.step,
            tolerance=args.tolerance, seed=config.seed,
        )
        _print(f"K={k}: {report.line()}")
        rows.append({
            "budget": k,
            "n_coords": report.n_coords,
            "max_rel_err": report.max_rel_err,
            "worst_param": report.worst_param,
            "tolerance": report.tolerance,
            "passed": report.passed,
        })
        if not report.passed:
            failed.append(k)
    if args.out:
        out_dir = Path(args.out)
        write_json(out_dir / "gradcheck.json", {
            "model": config.to_dict(), "results": rows,
        })
        _print(f"report: {out_dir / 'gradcheck.json'}")
    if failed:
        raise AuditError(
            f"gradient check failed at budgets {failed} "
            f"(tolerance {args.tolerance})"
        )
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def cmd_audit(args) -> int:
    if args.checkpoint is not None:
        params, config = load_checkpoint(args.checkpoint)
        source = f"checkpoint {args.checkpoint}"
    else:
        config = _model_config_from_flags(args, depth=args.depth, seed=args.seed)
        params = init_model_params(config)
        source = f"random initialization (seed {config.seed})"
    budgets = parse_budget_list(args.budgets, config.capacity)
    basis, _ = get_or_build_basis(config.seq_len, config.capacity, args.cache_dir)
    report = model_bibo_audit(
        params, config, basis, n_trials=args.trials,
        input_bound=args.input_bound, budgets=budgets, seed=args.seed,
    )
    _print(f"auditing {source}")
    for block in report["blocks"]:
        _print(
            f"block {block['block']}: constant={block['constant']:.6f} "
            f"max_ratio={block['max_ratio']:.6f} "
            f"violations={len(block['violations'])}"
        )
    if args.out:
        out_dir = Path(args.out)
        write_json(out_dir / "audit.json", report)
        _print(f"report: {out_dir / 'audit.json'}")
    if not report["passed"]:
        worst = max(
            (v for b in report["blocks"] for v in b["violations"]),
            key=lambda v: v["ratio"],
        )
        raise AuditError(
            "output bound violated: "
            f"block witness trial={worst['trial']} budget={worst['budget']} "
            f"t={worst['t']} ratio={worst['ratio']:.6f}"
        )
    _print(f"PASS: zero violations over {args.trials} trials "
           f"(max ratio {report['max_ratio']:.6f})")
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def cmd_ablate(args) -> int:
    base = load_run_config(args.config)
    if args.seed is not None:
        base = apply_seed_split(base, args.seed)
    budgets = parse_budget_list(args.budgets, base.model.capacity)
    out_dir = Path(args.out) if args.out else Path(base.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out_dir, base)
    result = run_ablation(base, budgets=budgets, out_dir=out_dir)
    table = {}
    for row in result["rows"]:
        report = row["report"]
        table[row["name"]] = report.to_json_dict()
        ks = " ".join(
            f"K={k}:{m:.6f}" for k, m in zip(report.budgets, report.metric)
        )
        _print(f"{row['name']:<24s} {report.metric_name}  {ks}")
        (out_dir / f"{row['name']}.csv").write_text(
            report.to_csv(), encoding="utf-8"
        )
    write_json(out_dir / "ablation.json", {
        "variants": [dataclasses.asdict(v) for v in DEFAULT_VARIANTS],
        "table": table,
    })
    _print(f"reports: {out_dir / 'ablation.json'} (+ per-variant .csv)")
    return 0


# ---------------------------------------------------------------------------
# flops
# ---------------------------------------------------------------------------


def cmd_flops(args) -> int:
    config = _model_config_from_flags(args)
    budgets = parse_budget_list(args.budgets, config.capacity, config.budget_set)
    base = flop_estimate(config, 0, batch=args.batch)
    counts = {k: flop_estimate(config, k, batch=args.batch) for k in budgets}
    slope = (
        flop_estimate(config, 2, batch=args.batch) - base
    ) // 2
    payload = {
        "seq_len": config.seq_len,
        "width": config.width,
        "gate_hidden": config.gate_hidden,
        "capacity": config.capacity,
        "batch": args.batch,
        "budgets": list(budgets),
        "flops": {str(k): counts[k] for k in budgets},
        "budget_independent": base,
        "per_budget_unit": slope,
        "expected_budget": float(np.mean(budgets)),
        "training_cost_ratio": float(len(budgets)),  # sum(K) / E[K] under uniform sampling
    }
    for k in budgets:
        _print(f"K={k:<4d} flops={counts[k]}")
    _print(
        f"affine: {base} + K*{slope}; "
        f"E[K]={payload['expected_budget']:.4f}; "
        f"per-budget retraining costs {payload['training_cost_ratio']:.2f}x "
        f"one budget-dropout run (spectral branch)"
    )
    if args.out:
        write_json(Path(args.out), payload)
        _print(f"report: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_geometry_flags(p: argparse.ArgumentParser, *, seq_len, width,
                        gate_hidden, capacity) -> None:
    p.add_argument("--seq-len", type=int, default=seq_len)
    p.add_argument("--width", type=int, default=width)
    p.add_argument("--gate-hidden", type=int, default=gate_hidden)
    p.add_argument("--capacity", type=int, default=capacity)


def _add_tiny_model_flags(p: argparse.ArgumentParser, **geometry) -> None:
    _add_geometry_flags(p, **geometry)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir", default=None,
                   help="basis cache directory (default: ESSM_CACHE_DIR or "
                        "~/.cache/elastic-ssm)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essm",
        description="Elastic spectral state-space models: build, train, "
                    "sweep, and audit budgeted sequence models.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="build or load the cached filter bank")
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--capacity", type=int, required=True)
    p.add_argument("--out", default=None,
                   help="cache directory (default: ESSM_CACHE_DIR or "
                        "~/.cache/elastic-ssm)")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="root seed, split into init/data/budget seeds")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--resume", default=None,
                   help="training checkpoint to continue from")
    p.add_argument("--stop-after", type=int, default=None,
                   help="pause once this many total steps are complete")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="evaluate a checkpoint across budgets")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None,
                   help="run config for the task (default: config.json next "
                        "to the checkpoint)")
    p.add_argument("--budgets", default=None,
                   help="comma-separated budgets (default: the model's "
                        "budget set)")
    p.add_argument("--split", choices=("train", "eval"), default="eval")
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck",
                       help="analytic vs finite-difference gradients")
    _add_tiny_model_flags(p, seq_len=8, width=4, gate_hidden=4, capacity=6)
    p.add_argument("--budgets", default=None,
                   help="budgets to check (default: 2 and the capacity)")
    p.add_argument("--coords", type=int, default=200)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("audit", help="check the output-norm bound")
    p.add_argument("--checkpoint", default=None,
                   help="audit this checkpoint (default: a random "
                        "initialization from the model flags)")
    _add_tiny_model_flags(p, seq_len=32, width=8, gate_hidden=8, capacity=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--input-bound", type=float, default=1.0)
    p.add_argument("--budgets", default=None,
                   help="budgets to audit (default: 2..capacity)")
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ablate",
                       help="train and sweep the mechanism-toggle variants")
    p.add_argument("--config", required=True, help="base run config JSON")
    p.add_argument("--budgets", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="root seed, split into init/data/budget seeds")
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("flops", help="per-layer FLOP accounting by budget")
    _add_geometry_flags(p, seq_len=1024, width=256, gate_hidden=256,
                        capacity=32)
    p.add_argument("--budgets", default=None,
                   help="budgets to tabulate (default: the standard grid "
                        "up to the capacity)")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_flops)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except EssmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
