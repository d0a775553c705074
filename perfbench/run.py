"""Elastic-lifecycle benchmark: one command, every metric by name and unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-lds --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the traced
run and prints the per-module metrics, a self-time table, and writes the
spans to ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 when every correctness check passes, 1 when one fails, and 2 when the
package cannot be imported from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_blas_threads() -> None:
    """At most one BLAS thread per core this process may run on, at most 2."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(min(2, cores)))


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="run the workload's code path at a toy geometry (for tests)")
    ap.add_argument("--setup-only", metavar="CACHE_DIR",
                    help="set up into CACHE_DIR, print 'ready' and exit (one setup_s sample)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    _limit_blas_threads()
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    args = _parse(argv)
    try:
        import elastic_ssm
    except ImportError as exc:
        print(f"cannot import elastic_ssm from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(elastic_ssm.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"elastic_ssm imported from {elastic_ssm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    from perfbench import lifecycle
    from perfbench.workloads import WORKLOADS, toy

    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = toy(workload)
    if args.setup_only:
        lifecycle.set_up(workload, args.seed, args.setup_only)
        print("ready", flush=True)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    result = lifecycle.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                    OUT_DIR, toy=args.toy)
    if result["self_times"]:
        print(f"{'phase':<7} {'span':<26} {'calls':>7} {'total ms':>11} {'self ms':>11}")
    for row in result["self_times"]:
        print(f"{row['root']:<7} {row['name']:<26} {row['calls']:>7} "
              f"{row['total_ms']:>11.2f} {row['self_ms']:>11.2f}")
    for name, ok, detail in result["checks"]:
        print(f"check {name:<18} {'ok  ' if ok else 'FAIL'} {detail}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    correct = all(ok for _, ok, _ in result["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
