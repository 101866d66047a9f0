"""Pin the sha256 of each compare and figures CSV for a range of seeds.

Usage (from the repository root, with the program that defines the
expected output checked out):

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 bench/pin.py --seeds 0-23

Each CSV must pass its structural gate before it is pinned.  Commands that
take no seed are pinned under "*".  Rewrites bench/expected.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import workloads
from entrobound import cli


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-23", help="inclusive range, e.g. 0-23")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    pins = {}
    Path(".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_work") as tmp:
        out = Path(tmp) / "out.csv"
        for workload in ("compare", "figures"):
            for seed in range(lo, hi + 1):
                for cmd in workloads.commands(workload, seed, pins={}):
                    key = str(seed) if "--seed" in cmd.argv else "*"
                    if key in pins.get(workload, {}).get(cmd.label, {}):
                        continue
                    rc = cli.main([*cmd.argv, "--out", str(out)])
                    data = out.read_bytes()
                    if rc not in cmd.ok_codes:
                        sys.exit(f"{cmd.label} seed {seed}: exit code {rc}")
                    cmd.check(data, rc)
                    digest = hashlib.sha256(data).hexdigest()
                    pins.setdefault(workload, {}).setdefault(cmd.label, {})[key] = digest
                    print(workload, cmd.label, key, digest[:12], flush=True)
    with open(workloads.HERE / "expected.json", "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
