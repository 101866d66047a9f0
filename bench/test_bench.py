"""Tests of the benchmark itself, at the tiny size preset.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import tracer
import workloads

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=REPO):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@lru_cache(maxsize=None)
def _result(workload: str, trace: int, corrupt: bool = False) -> dict:
    args = ["--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    proc = _run(*args, *(["--corrupt"] if corrupt else []))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if section == "end_to_end":
            assert got["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_raises_failed_ratio(workload):
    result = _result(workload, 1, corrupt=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["failed_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["census", "compare"])
def test_wrappers_catch_the_solver_calls(workload):
    m = {k: v["value"] for k, v in _result(workload, 1)["metrics"].items()}
    per_class = [k for k in m if k.startswith("norms.norm_numeric.busy_s.")]
    assert sum(m[k] for k in per_class) >= 0.8 * m["trace.wall_s"]
    calls = sum(m[k] for k in m if k.startswith("norms.norm_numeric.calls."))
    assert calls == m["norms.norm_numeric.calls"] > 0


def test_census_leaves_the_tracked_artifact_alone():
    artifact = REPO / workloads.CENSUS_ARTIFACT
    before = hashlib.sha256(artifact.read_bytes()).hexdigest()
    assert _result("census", 0)["correct"]
    assert hashlib.sha256(artifact.read_bytes()).hexdigest() == before


def test_census_gate_accepts_the_artifact_and_catches_a_missing_row():
    path = REPO / workloads.CENSUS_ARTIFACT
    text = path.read_text(encoding="utf-8")
    check = workloads._check_census(0, 1000, path)
    check(text.encode(), 2)
    lines = text.splitlines(keepends=True)
    first = next(ln for ln in lines if ln.startswith("violation,3,"))
    summary = next(ln for ln in lines if ln.startswith("summary,3,"))
    cells = summary.split(",")
    cells[5] = str(int(cells[5]) - 1)
    tampered = text.replace(first, "", 1).replace(summary, ",".join(cells), 1)
    with pytest.raises(workloads.GateError, match="differ from"):
        check(tampered.encode(), 2)


def test_refuses_to_run_without_the_program():
    bare = REPO / ".bench_test" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(REPO / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", "figures", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(REPO / ".bench_test")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children_and_busy_counts_outermost_spans():
    spans = [
        [0, -1, "cli.main", 0.0, 10.0, None, None],
        [1, 0, "bounds.compare_state_independent", 1.0, 6.0, None, None],
        [2, 1, "norms.norm_numeric", 2.0, 5.0, None, (3, 2.0, 3.0)],
        [3, 0, "norms.norm", 6.0, 9.0, None, None],
        [4, 3, "norms.norm_numeric", 6.5, 8.5, ["SolverFailureError", 7], (2, 3.0, 1.5)],
        [5, 3, "norms.norm_closed_form", 6.0, 6.5, None, None],
    ]
    spans[3][5] = ["SolverFailureError", 7]
    m = tracer.layer_metrics(spans, 10.0, 9.5, 0)
    assert m["bounds.compare_state_independent.self_s"] == 2.0
    assert m["norms.norm_numeric.calls.mu_star.d3"] == 1
    assert m["norms.norm_numeric.calls.theorem.d2"] == 1
    assert m["norms.norm_numeric.busy_s"] == 5.0
    assert m["norms.norm.closed_hit_ratio"] == 0.0
    assert m["norms.errors"] == 1
    assert m["cli.main.busy_s"] == 10.0
    assert m["trace.overhead_s"] == 0.5
