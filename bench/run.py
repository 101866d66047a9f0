"""entrobound benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload census --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off; ``--trace 1`` prints the per-layer metrics from a traced run
plus an untraced reference run.  The program runs from ``src`` in fresh
worker interpreters (``bench/worker.py``), single-threaded.  Scratch files
go to ``.bench_work/`` and are removed on exit.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record.  Exit status: 0 with a result, 1 if the benchmark could not run,
2 if there is no ``src/entrobound`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 7
#: Every run must finish well inside the 180 s a run is allowed.
DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("ENTROBOUND_SEED", None)
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def _probe(env: dict, deadline: float) -> float:
    """Seconds from spawning an interpreter until entrobound.cli is imported."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), "--probe"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=_remaining(deadline))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe timed out") from None
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.decode(errors='replace')[-2000:]}")
    return elapsed


def _worker(env: dict, work: Path, args: list, deadline: float) -> dict:
    log = work / "worker.log"
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--work-dir", str(work)]
    try:
        with open(log, "wb") as f:
            proc = subprocess.run(cmd, env=env, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    with open(work / "result.json", encoding="utf-8") as f:
        return json.load(f)


def _spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", corrupt: bool = False) -> tuple:
    """Run the benchmark once; returns (result, run record)."""
    if not (Path.cwd() / "src" / "entrobound" / "__init__.py").is_file():
        raise FileNotFoundError("no src/entrobound under the current directory")
    spec = _spec()
    deadline = time.monotonic() + DEADLINE_S
    env = _worker_env()
    root = Path(".bench_work")
    root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root))
    try:
        _probe(env, deadline)  # warm-up: writes bytecode caches, fills the file cache
        setups = [] if trace else [_probe(env, deadline) for _ in range(SETUP_PROBES)]
        base = ["--workload", workload, "--seed", str(seed), "--size", size]
        if corrupt:
            base.append("--corrupt")
        if trace:
            plain = _worker(env, work, base, deadline)
            traced = _worker(env, work, base + ["--trace"], deadline)
            with open(work / "spans.json", encoding="utf-8") as f:
                spans = json.load(f)
            reps = plain["reps"] + traced["reps"]
            last = traced["reps"][0]
            values = tracer.layer_metrics(
                spans, last["wall_s"], plain["reps"][0]["wall_s"],
                sum(c["bytes"] for c in last["commands"]))
            run = traced
            wanted = spec["per_layer"]
        else:
            run = _worker(env, work, base + ["--seconds", str(seconds)], deadline)
            reps = run["reps"]
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(r["wall_s"] for r in reps),
                "peak_rss_mb": run["peak_rss_mb"],
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # another run still uses it
    outcomes = [c for r in reps for c in r["commands"]]
    failed = sum(1 for c in outcomes if c["error"] is not None)
    values["failed_ratio"] = failed / len(outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "nproc": len(os.sched_getaffinity(0)), "python": run["python"], "numpy": run["numpy"],
        "thread_env": {name: env[name] for name in THREAD_ENV},
        "setup_s_probes": setups, "wall_s_reps": [r["wall_s"] for r in reps],
        "errors": sorted({f"{c['label']}: {c['error']}" for c in outcomes if c["error"]}),
    }
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one entrobound benchmark workload.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement budget; the workload repeats while it fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="input-size preset; 'tiny' is for the benchmark's own tests")
    p.add_argument("--corrupt", action="store_true",
                   help="drop the last line of every CSV before its gate (tests the gate)")
    args = p.parse_args(argv)
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.size, args.corrupt)
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for line in record["errors"]:
        print(f"bench: failed: {line}", file=sys.stderr)
    print("# run record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
