"""Tests of the benchmark itself, at toy geometries that run in seconds.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, lifecycle
from perfbench.workloads import WORKLOADS, toy

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_names_the_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"] for m in spec["end_to_end"]} == set(lifecycle.END_TO_END_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_toy_run_prints_exactly_the_listed_metrics(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == listed
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_corrupted_output_fails_the_reference_check(tmp_path):
    workload = toy(WORKLOADS["desk-lds"])
    setup = lifecycle.set_up(workload, 7, str(tmp_path))
    cfg, ds, params = setup.config, setup.dataset, setup.initial_params
    out, _ = lifecycle.model.model_forward(ds.eval_inputs, params, cfg, setup.basis, 4)
    times, rows = [0, 5, cfg.seq_len - 1], [0]
    args = (ds.eval_inputs, params, cfg, setup.basis, 4, times, rows)
    ok, gap = checks.check_reference(out, *args)
    assert ok and gap < 1e-12
    corrupted = out.copy()
    corrupted[0, 5, 0] += 1e-6 * np.max(np.abs(out))
    assert not checks.check_reference(corrupted, *args)[0]


def test_reference_catches_a_wrong_budget(tmp_path):
    workload = toy(WORKLOADS["copy-small"])
    setup = lifecycle.set_up(workload, 8, str(tmp_path))
    cfg, ds, params = setup.config, setup.dataset, setup.initial_params
    out, _ = lifecycle.model.model_forward(ds.eval_inputs, params, cfg, setup.basis, 2)
    ok, _ = checks.check_reference(out, ds.eval_inputs, params, cfg, setup.basis, 4,
                                   [3, cfg.seq_len - 1], [0])
    assert not ok


def test_without_the_package_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "desk-lds", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
