"""Benchmark workloads: the CLI commands each one runs, and their correctness gates.

A workload is a fixed list of ``entrobound`` commands built from a seed and
a size preset.  Every command writes one CSV; its gate parses the bytes and
checks them against facts that do not come from the solver under test
(recomputed witnesses, closed forms, theorems at d = 2) and, where one is
pinned in ``expected.json``, against a sha256.  A gate raises
:class:`GateError` with a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
#: Golden census output at seed 0 (1000 samples), tracked by the test suite.
CENSUS_ARTIFACT = Path("tests/artifacts/equality_regime_counterexamples.csv")

CENSUS_DIMS = (2, 3, 4)
COMPARE_DIMS = (2, 3, 4, 8, 12)
WERNER_PHIS = (-1.0, -0.5, -0.1)
#: README's `norm` example matrix: the qubit rotation by pi/6.
README_THETA = "0.5235987755982988"
ENVELOPE_POINTS = 101

SIZES = {
    "full": {
        "census_samples": 16,
        "compare_samples": 200,
        "region_samples": 2000, "profile_grid": 200, "sweep": 101,
        "werner_grid": 50, "randomness_points": 11,
    },
    "tiny": {
        "census_samples": 2,
        "compare_samples": 3,
        "region_samples": 40, "profile_grid": 20, "sweep": 5,
        "werner_grid": 4, "randomness_points": 3,
    },
}

WORKLOADS = ("census", "compare", "figures")

_PROVENANCE = re.compile(r"# entrobound \S+ seed=(\S+) config=[0-9a-f]{12}")


class GateError(Exception):
    """A command's output failed its correctness gate."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check applied to the CSV it writes."""

    label: str
    argv: tuple
    ok_codes: tuple
    check: object  # callable(data: bytes, rc: int) -> None, raises GateError


def _load_pins() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as f:
        return json.load(f)


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise GateError(reason)


def _parse(data: bytes, seed, header: str) -> list:
    """Split a CSV into rows of cells after checking provenance and header."""
    text = data.decode("utf-8")
    _require(text.endswith("\n"), "output does not end with a newline")
    lines = text[:-1].split("\n")
    _require(len(lines) >= 2, "output has no header")
    m = _PROVENANCE.fullmatch(lines[0])
    _require(m is not None, f"bad provenance line {lines[0][:80]!r}")
    _require(m.group(1) == str(seed), f"provenance seed {m.group(1)} != {seed}")
    _require(lines[1] == header, f"header {lines[1][:80]!r} != {header!r}")
    return [line.split(",") for line in lines[2:]]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _pnorm(x: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(x.max())
    return float((x**p).sum() ** (1.0 / p))


def _floats(cell: str) -> np.ndarray:
    return np.array([float(v) for v in cell.split(";")])


def _pinned(pins: dict, label: str, seed, data: bytes) -> None:
    table = pins.get(label, {})
    want = table.get("*", table.get(str(seed)))
    if want is not None:
        got = hashlib.sha256(data).hexdigest()
        _require(got == want, f"sha256 {got[:12]} != pinned {want[:12]}")


def _check_census(seed, samples: int, artifact: Path | None):
    header = ("kind,d,sample,samples,evals,violations,mu,lam,sigma2,numeric,"
              "conjectured,excess,matrix,witness")

    def check(data: bytes, rc: int) -> None:
        rows = _parse(data, seed, header)
        summary = [r for r in rows if r[0] == "summary"]
        found = [r for r in rows if r[0] == "violation"]
        _require(len(summary) + len(found) == len(rows), "unknown row kind")
        _require([int(r[1]) for r in summary] == list(CENSUS_DIMS),
                 "summary rows do not list d = 2, 3, 4")
        per_d = {d: 0 for d in CENSUS_DIMS}
        for r in found:
            d, k = int(r[1]), int(r[2])
            mu, lam, sigma2 = float(r[6]), float(r[7]), float(r[8])
            numeric, conjectured, excess = float(r[9]), float(r[10]), float(r[11])
            c = _floats(r[12]).reshape(d, d)
            x = _floats(r[13])
            _require(0 <= k < samples, f"sample index {k} out of range")
            _require(c.min() >= 0.0 and x.min() >= 0.0, "negative matrix or witness")
            _require(np.abs(c.sum(axis=0) - 1).max() < 1e-9
                     and np.abs(c.sum(axis=1) - 1).max() < 1e-9,
                     "counterexample matrix is not doubly stochastic")
            sv = np.linalg.svd(c, compute_uv=False)
            _require(_close(sigma2, float(sv[1]), 1e-9), "sigma2 does not match the matrix")
            _require((1 - mu) * (1 - lam) >= mu * lam * sigma2**2 - 1e-9,
                     "counterexample lies outside the conjectured region")
            r_exp = math.inf if mu == 0.0 else 1.0 / mu
            s_exp = math.inf if lam == 1.0 else 1.0 / (1.0 - lam)
            ratio = _pnorm(c @ x, s_exp) / _pnorm(x, r_exp)
            _require(_close(ratio, numeric, 1e-9), "witness does not replay the norm")
            _require(_close(conjectured, float(d) ** ((1 - lam) - mu), 1e-10),
                     "conjectured value is not d^(1/s - 1/r)")
            _require(excess > 1e-7 and abs(excess - (numeric - conjectured)) < 1e-10,
                     "excess is not numeric - conjectured > 1e-7")
            per_d[d] += 1
        for r in summary:
            d = int(r[1])
            _require(int(r[3]) == samples, f"d={d}: samples {r[3]} != {samples}")
            _require(21 * samples <= int(r[4]) <= 121 * samples,
                     f"d={d}: evals {r[4]} outside the weight lattice")
            _require(int(r[5]) == per_d[d], f"d={d}: summary counts {r[5]} violations, "
                     f"rows hold {per_d[d]}")
        _require(per_d[2] == 0, "counterexample at d = 2, where the region is a theorem")
        _require(rc == (2 if found else 0), f"exit code {rc} with {len(found)} violations")
        if artifact is not None:
            golden = artifact.read_text(encoding="utf-8").split("\n")
            want = [line for line in golden
                    if line.startswith("violation,") and int(line.split(",")[2]) < samples]
            got = [",".join(r) for r in found]
            _require(got == want, f"violation rows differ from {artifact} "
                     f"({len(got)} rows vs {len(want)})")

    return check


def _check_compare(seed, samples: int, pins: dict):
    header = "d,samples,pct_ours_best,conjecture_fallbacks"

    def check(data: bytes, rc: int) -> None:
        rows = _parse(data, seed, header)
        _require([int(r[0]) for r in rows] == list(COMPARE_DIMS), "rows do not list the dims")
        for d, n, pct, fallbacks in rows:
            _require(int(n) == samples, f"d={d}: samples {n} != {samples}")
            wins = float(pct) * samples / 100.0
            _require(abs(wins - round(wins)) < 1e-6 and 0 <= wins <= samples,
                     f"d={d}: percentage {pct} is not a count out of {samples}")
            _require(0 <= int(fallbacks) <= samples, f"d={d}: fallbacks {fallbacks}")
        _require(int(rows[0][3]) == 0, "fallback at d = 2, where mu* equality is a theorem")
        _pinned(pins, "fig-compare-random", seed, data)

    return check


def _check_region(seed, samples: int, pins: dict):
    def check(data: bytes, rc: int) -> None:
        rows = _parse(data, seed, "kind,s_rho,h_sum")
        kinds = [r[0] for r in rows]
        n = samples + 1
        _require(kinds == ["sample"] * n + ["mu_line"] * ENVELOPE_POINTS
                 + ["envelope"] * ENVELOPE_POINTS, "row kinds or counts are wrong")
        vals = np.array([[float(r[1]), float(r[2])] for r in rows])
        s, h = vals[:n, 0], vals[:n, 1]
        mu_level = vals[n, 1]
        _require(np.all(vals[n:n + ENVELOPE_POINTS, 1] == mu_level), "mu_line is not flat")
        _require(s.min() >= -1e-12 and s.max() <= 1 + 1e-9 and h.max() <= 2 + 1e-9,
                 "entropies outside [0, log d]")
        _require(np.all(h >= s + mu_level - 1e-9),
                 "a sample violates H(X) + H(Y) >= S - log c1")
        _require(abs(s[-1] - 1) < 1e-9 and abs(h[-1] - 2) < 1e-9,
                 "maximally mixed point is not (1, 2)")
        line_s = vals[n:n + ENVELOPE_POINTS, 0]
        _require(np.allclose(line_s, np.linspace(0.0, 1.0, ENVELOPE_POINTS), atol=1e-12),
                 "mu_line entropy grid is wrong")
        _pinned(pins, "fig-region", seed, data)

    return check


def _check_profile(grid: int, pins: dict):
    def check(data: bytes, rc: int) -> None:
        rows = _parse(data, "-", "mu,log_norm,mub_line,kmu_level")
        vals = np.array([[float(x) for x in r] for r in rows])
        _require(vals.shape == (grid, 4), f"expected {grid} rows of 4 values")
        mu = vals[:, 0]
        _require(np.allclose(mu, np.linspace(0.5, 1.0, grid), atol=1e-12), "mu grid is wrong")
        _require(np.allclose(vals[:, 2], 1 - 2 * mu, atol=1e-11), "constant-matrix line is wrong")
        _require(np.allclose(vals[:, 3], math.log2(0.75), atol=1e-11),
                 "largest-overlap level is not log2(cos^2(pi/6))")
        _require(np.all(vals[:, 1] >= vals[:, 2] - 1e-7), "profile drops below the MUB line")
        _pinned(pins, "fig-norm-profile", "-", data)

    return check


def _check_sweep(n: int, pins: dict):
    header = "theta,c1,c2,ours,bccrr,rpz2,ours_at_least,conjecture_ok"

    def check(data: bytes, rc: int) -> None:
        rows = _parse(data, "-", header)
        _require(len(rows) == n, f"expected {n} rows")
        for r in rows:
            th, c1, c2, ours, bccrr, rpz2 = (float(x) for x in r[:6])
            _require(r[6] in ("0", "1") and r[7] == "1", "flags are not 0/1 or conjecture fails at d = 2")
            cos2 = math.cos(th) ** 2
            big_c = (1 + math.sqrt(c1)) / 2
            _require(_close(c1, cos2, 1e-11) and _close(c2, cos2, 1e-11), "c1, c2 are not cos^2")
            _require(_close(bccrr, -math.log2(c1), 1e-10), "bccrr constant is wrong")
            _require(_close(rpz2, -math.log2(c1 * big_c**2 + c2 * (1 - big_c**2)), 1e-10),
                     "rpz2 constant is wrong")
            _require(abs(ours - (1 - abs(math.cos(2 * th)))) < 1e-9,
                     "ours is not (1 - sigma2) log 2")
            margin = ours - max(bccrr, rpz2)
            _require(abs(margin) < 1e-9 or (r[6] == "1") == (margin > 0),
                     "ours_at_least flag is wrong")
        thetas = np.array([float(r[0]) for r in rows])
        _require(np.allclose(thetas, np.linspace(0.0, math.pi / 4, n), atol=1e-12), "theta grid is wrong")
        _pinned(pins, "fig-compare-sweep", "-", data)

    return check


def _check_werner(grid: int, pins: dict):
    def check(data: bytes, rc: int) -> None:
        rows = _parse(data, "-", "theta_a,theta_b,phi,detected")
        _require(len(rows) == len(WERNER_PHIS) * grid * grid, "wrong number of rows")
        axis = np.linspace(0.0, math.pi / 4, grid)
        for i, r in enumerate(rows):
            a, b = divmod(i % (grid * grid), grid)
            _require(abs(float(r[0]) - axis[a]) < 1e-12 and abs(float(r[1]) - axis[b]) < 1e-12
                     and float(r[2]) == WERNER_PHIS[i // (grid * grid)] and r[3] in ("0", "1"),
                     f"row {i} is malformed")
        _pinned(pins, "werner", "-", data)

    return check


def _check_randomness(points: int, pins: dict):
    def check(data: bytes, rc: int) -> None:
        rows = _parse(data, "-", "h_x,h_y,bound_numeric,bound_analytic,flag")
        _require(len(rows) == points * points, "wrong number of rows")
        axis = np.linspace(0.0, 1.0, points)
        for i, r in enumerate(rows):
            hx, hy = axis[i // points], axis[i % points]
            _require(abs(float(r[0]) - hx) < 1e-12 and abs(float(r[1]) - hy) < 1e-12,
                     f"row {i} is off the entropy lattice")
            _require(math.isfinite(float(r[2])), f"row {i}: numeric bound is not finite")
            _require((r[3] == "" and r[4] == "") or (math.isfinite(float(r[3])) and r[4] in ("0", "1")),
                     f"row {i}: analytic columns are malformed")
        _pinned(pins, "randomness", "-", data)

    return check


def commands(workload: str, seed: int, size: str = "full", pins: dict | None = None) -> list:
    """The commands of one workload at ``seed``; ``size`` picks a preset of SIZES.

    ``pins`` maps command label to {seed or "*": sha256}; by default the
    pins of ``expected.json`` apply to the full size and none to the others.
    """
    z = SIZES[size]
    if pins is None:
        pins = _load_pins().get(workload, {}) if size == "full" else {}
    s = str(seed)
    if workload == "census":
        n = z["census_samples"]
        artifact = CENSUS_ARTIFACT if seed == 0 else None
        return [Command("conjecture-fuzz",
                        ("conjecture-fuzz", "--dims", "2,3,4", "--grid", "11",
                         "--samples", str(n), "--seed", s),
                        (0, 2), _check_census(seed, n, artifact))]
    if workload == "compare":
        n = z["compare_samples"]
        return [Command("fig-compare-random",
                        ("fig-compare", "--random", "--dims", "2,3,4,8,12",
                         "--samples", str(n), "--seed", s),
                        (0,), _check_compare(seed, n, pins))]
    if workload == "figures":
        return [
            Command("fig-region",
                    ("fig-region", "--d", "2", "--samples", str(z["region_samples"]), "--seed", s),
                    (0,), _check_region(seed, z["region_samples"], pins)),
            Command("fig-norm-profile", ("fig-norm-profile", "--grid", str(z["profile_grid"])),
                    (0,), _check_profile(z["profile_grid"], pins)),
            Command("fig-compare-sweep", ("fig-compare", "--sweep", str(z["sweep"])),
                    (0,), _check_sweep(z["sweep"], pins)),
            Command("werner", ("werner", "--phi=-1,-0.5,-0.1", "--grid", str(z["werner_grid"])),
                    (0,), _check_werner(z["werner_grid"], pins)),
            Command("randomness",
                    ("randomness", "--rotation", README_THETA,
                     "--points", str(z["randomness_points"])),
                    (0,), _check_randomness(z["randomness_points"], pins)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
