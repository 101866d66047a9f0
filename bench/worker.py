"""Run one workload's commands through ``entrobound.cli.main`` in this process.

Started by ``bench/run.py`` in a fresh interpreter with ``src`` on
``PYTHONPATH``.  With ``--probe`` it only imports the CLI and reports
readiness (the set-up measurement).  Otherwise it repeats the workload
until ``--seconds`` would be exceeded (at least once), gates every CSV,
and writes ``result.json`` (and ``spans.json`` when traced) into
``--work-dir``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _import_cli():
    from entrobound import cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"bench: entrobound was imported from {cli.__file__}, not from {src}")
    return cli


def _run_rep(cli, cmds, work: Path, corrupt: bool) -> dict:
    """One pass over the commands; the timed part is the cli.main calls only."""
    wall, results = 0.0, []
    for cmd in cmds:
        out = work / f"{cmd.label}.csv"
        t0 = time.perf_counter()
        try:
            rc = cli.main([*cmd.argv, "--out", str(out)])
        except (Exception, SystemExit) as exc:  # a failed command, not a crash
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None if rc in cmd.ok_codes else f"exit code {rc}"
        wall += time.perf_counter() - t0
        size = 0
        if error is None:
            try:
                data = out.read_bytes()
                size = len(data)
                if corrupt:
                    data = data[: data.rstrip(b"\n").rfind(b"\n") + 1]
                cmd.check(data, rc)
            except Exception as exc:  # any gate or parse error fails this command
                error = f"{type(exc).__name__}: {exc}"
        out.unlink(missing_ok=True)
        results.append({"label": cmd.label, "rc": rc, "bytes": size, "error": error})
    return {"wall_s": wall, "commands": results}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--work-dir", type=Path)
    args = p.parse_args(argv)

    cli = _import_cli()
    if args.probe:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    import numpy as np
    import tracer
    import workloads

    cmds = workloads.commands(args.workload, args.seed, args.size)
    trace = tracer.Tracer() if args.trace else None
    if trace is not None:
        tracer.install(trace)
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(_run_rep(cli, cmds, args.work_dir, args.corrupt))
        longest = max(r["wall_s"] for r in reps)
        if time.perf_counter() - start + longest > args.seconds:
            break
    result = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if trace is not None:
        with open(args.work_dir / "spans.json", "w", encoding="utf-8") as f:
            json.dump(trace.spans, f)
    with open(args.work_dir / "result.json", "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
