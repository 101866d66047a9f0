"""Seeded experiment engines with deterministic tabular output.

Each ``run_*`` function performs one desk-scale study end to end and
returns a :class:`Table` — header, rows, the exact configuration that
produced them, and summary statistics.  :func:`write_table` serializes a
table as CSV with a provenance comment line; identical configurations
yield byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .applications import (
    deficits_from_entropies,
    randomness_bound_analytic,
    randomness_bound_numeric,
    werner_detection_scan,
)
from .bounds import compare_state_independent, default_envelope_grid, envelope_curve
from .errors import NormConsistencyError
from .norms import (
    SolverOptions,
    WeightTriple,
    _exponents,
    _numeric_many,
    feasible_weight_grid,
    mu_star,
    norm,
    norm_mub,
)
from .overlap import _as_overlap, build_overlap, rotation_overlap_2d, from_unitary
from .qmath import (
    LogBase,
    basis_measurement,
    fourier_measurement,
    haar_random_unitary,
    rotated_measurement_2d,
    _check_states,
    _entropies,
    _outcome_entropies,
    _random_states,
)

#: Default solver options for the heavy random sweeps; a small restart
#: bank keeps the full runs in the minutes range while the structured
#: starts (all-ones plus every basis vector) still anchor the search.
COMPARE_RANDOM_OPTS = SolverOptions(restarts=8)
FUZZ_OPTS = SolverOptions(restarts=2)

_REGION_THETA_DEFAULT = math.radians(17.0)
# States scored per NumPy pass of fig-region: bounds the stacks of one pass
# (at d = 12, 1024 states x 144 complex entries take 2.4 MB each).
_REGION_CHUNK = 1024


@dataclass(frozen=True)
class Table:
    """One experiment's output.

    Attributes:
        header: column names.
        rows: data rows; cells are numbers or preformatted strings.
        config: the full parameter set that produced the rows; hashed
            into the provenance line.
        stats: derived summary values (not serialized).
    """

    header: tuple
    rows: tuple
    config: dict
    stats: dict = field(default_factory=dict)


def config_hash(config: dict) -> str:
    """Short stable digest of a configuration dictionary."""
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def _flat17(a) -> str:
    """Row-major full-precision serialization for counterexample cells."""
    return ";".join(format(float(x), ".17g") for x in np.asarray(a, dtype=float).ravel())


def write_table(table: Table, stream) -> None:
    """Write a table as CSV: provenance comment, header row, data rows."""
    seed = table.config.get("seed", "-")
    stream.write(f"# entrobound {__version__} seed={seed} config={config_hash(table.config)}\n")
    stream.write(",".join(table.header) + "\n")
    for row in table.rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _opts_config(opts: SolverOptions) -> dict:
    return {
        "restarts": opts.restarts,
        "max_iterations": opts.max_iterations,
        "tolerance": opts.tolerance,
        "solver_seed": opts.seed,
    }


def norm_report(c, w: WeightTriple | None = None, opts: SolverOptions | None = None,
                base: LogBase = LogBase.TWO, *, r=None, s=None) -> dict:
    """Evaluate one norm at (r, s) or a weight triple and package it for JSON output.

    The reported exponents are those solved at: (r, s) as given, or the triple's.
    """
    r, s = _exponents(r, s, w)
    res = norm(c, opts=opts, base=base, r=r, s=s)

    def _num(v):  # strict JSON has no infinities
        return float(v) if np.isfinite(v) else ("-inf" if v < 0.0 else "inf")

    return {
        "r": _num(r),
        "s": _num(s),
        "value": float(res.value),
        "log_value": _num(res.log_value),
        "log_base": base.name,
        "method": res.method.value,
        "certified_bounds": [_num(b) for b in res.certified_bounds],
        "witness": [float(x) for x in res.witness],
    }


def run_fig_region(d: int = 2, theta: float | None = None, samples: int = 10_000,
                   seed: int = 0, n_env: int = 101, weight_grid=None,
                   opts: SolverOptions | None = None,
                   base: LogBase = LogBase.TWO) -> Table:
    """Sample the (S, H_X + H_Y) region against the envelope of weighted bounds.

    Measurements are the standard basis against a rotated basis (d = 2)
    or the Fourier basis (d > 2, ``theta`` must be omitted).  Emits the
    random-state cloud, the flat largest-overlap line, and the envelope
    over equal-weight triples; every sample is checked to sit above the
    envelope within 1e-8.  A maximally mixed sample is appended
    deterministically after the random cloud.  States are drawn and
    scored in stacks of up to 1024, with the stream, state checks and
    bits of per-state ``random_density_matrix``, ``von_neumann_entropy``
    and ``shannon_entropy(measurement_distribution(...))``.

    Raises:
        NormConsistencyError: if any sampled state lands below the envelope.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if n_env < 2:
        raise ValueError(f"need at least two envelope points, got {n_env}")
    opts = opts or SolverOptions()
    x = basis_measurement(d)
    if d == 2:
        th = _REGION_THETA_DEFAULT if theta is None else float(theta)
        y = rotated_measurement_2d(th)
    else:
        if theta is not None:
            raise ValueError("theta only applies to d = 2; omit it for larger d")
        th = None
        y = fourier_measurement(d)
    c = build_overlap(x, y)
    log_d = float(base.log(d))

    rng = np.random.default_rng(seed)
    randoms = (_random_states(rng, min(_REGION_CHUNK, samples - i), d)
               for i in range(0, samples, _REGION_CHUNK))
    mixed = np.asarray(np.eye(d) / d, dtype=complex)[None]
    s_vals, h_sums = [], []
    for m in itertools.chain(randoms, [mixed]):
        s_vals.append(_entropies(_check_states(m), base))
        h_sums.append(_outcome_entropies(m, x.projectors, base)
                      + _outcome_entropies(m, y.projectors, base))
    s_vals, h_sums = np.concatenate(s_vals), np.concatenate(h_sums)

    triples = list(weight_grid) if weight_grid is not None else default_envelope_grid()
    s_grid = np.linspace(0.0, log_d, n_env)
    _, env_all = envelope_curve(c, np.concatenate([s_grid, s_vals]),
                                weight_grid=triples, opts=opts, base=base)
    env_grid, env_samples = env_all[:n_env], env_all[n_env:]
    margins = h_sums - env_samples
    if margins.min() < -1e-8:
        k = int(np.argmin(margins))
        raise NormConsistencyError(
            f"sample {k} lies {-margins[k]:.3e} below the envelope at S={s_vals[k]!r}"
        )
    mu_level = float(-base.log(c.max_entry))

    rows = [("sample", float(s), float(h)) for s, h in zip(s_vals, h_sums)]
    rows += [("mu_line", float(s), mu_level) for s in s_grid]
    rows += [("envelope", float(s), float(e)) for s, e in zip(s_grid, env_grid)]
    config = {
        "cmd": "fig-region", "d": d, "theta": th, "samples": samples,
        "seed": seed, "n_env": n_env, "n_triples": len(triples),
        "base": base.name, **_opts_config(opts),
    }
    stats = {
        "min_margin": float(margins.min()),
        "env_at_zero": float(env_grid[0]),
        "mu_level": mu_level,
        "mixed_point": (float(s_vals[-1]), float(h_sums[-1])),
    }
    return Table(("kind", "s_rho", "h_sum"), tuple(rows), config, stats)


def run_norm_profile(theta: float = math.pi / 6, grid: int = 200,
                     opts: SolverOptions | None = None,
                     base: LogBase = LogBase.TWO) -> Table:
    """Sweep the equal-weight norm profile of a rotated-basis overlap matrix.

    For mu = lambda over [1/2, 1] emits the numeric log-norm, the
    constant-matrix line (1 - 2 mu) log 2, and the largest-overlap level
    log(max entry).  Verifies agreement with the constant-matrix line up
    to the critical weight mu* = 1/(1 + sigma2) within 1e-7, that the
    profile never drops below that line, and that a strict excess
    appears past mu* + 0.03.

    Raises:
        NormConsistencyError: if the profile violates any of the checks.
    """
    if grid < 2:
        raise ValueError(f"need at least two grid points, got {grid}")
    opts = opts or SolverOptions()
    c = rotation_overlap_2d(theta)
    sigma2 = min(float(c.sigma2), 1.0)
    ms = mu_star(sigma2)
    kmu_level = float(base.log(c.max_entry))
    ln2 = float(base.log(2.0))

    rows = []
    max_equal_dev = 0.0
    min_excess_beyond = np.inf
    mus = np.linspace(0.5, 1.0, grid)
    triples = [WeightTriple(1.0, float(mu), float(mu)) for mu in mus]
    solved = _numeric_many(c, [(w.r, w.s) for w in triples], opts=opts, base=base)
    for mu, res in zip(mus, solved):
        mub_line = (1.0 - 2.0 * mu) * ln2
        excess = res.log_value - mub_line
        if excess < -1e-7:
            raise NormConsistencyError(
                f"profile at mu={mu!r} is {-excess:.3e} below the constant-matrix line"
            )
        if mu <= ms + 1e-12:
            max_equal_dev = max(max_equal_dev, abs(excess))
            if abs(excess) > 1e-7:
                raise NormConsistencyError(
                    f"profile at mu={mu!r} deviates {excess:.3e} inside the equality regime"
                )
        elif mu >= ms + 0.03:
            min_excess_beyond = min(min_excess_beyond, excess)
            if excess <= 1e-7:
                raise NormConsistencyError(
                    f"profile at mu={mu!r} shows no excess past the critical weight"
                )
        rows.append((float(mu), float(res.log_value), float(mub_line), kmu_level))
    config = {
        "cmd": "fig-norm-profile", "theta": float(theta), "grid": grid,
        "base": base.name, **_opts_config(opts),
    }
    stats = {
        "mu_star": float(ms),
        "sigma2": sigma2,
        "max_equal_dev": float(max_equal_dev),
        "min_excess_beyond": float(min_excess_beyond),
    }
    return Table(("mu", "log_norm", "mub_line", "kmu_level"), tuple(rows), config, stats)


def run_compare_sweep(n_theta: int = 101, opts: SolverOptions | None = None,
                      base: LogBase = LogBase.TWO) -> Table:
    """State-independent constants of the three bounds over a rotation sweep."""
    if n_theta < 2:
        raise ValueError(f"need at least two angles, got {n_theta}")
    opts = opts or SolverOptions()
    rows = []
    for theta in np.linspace(0.0, math.pi / 4, n_theta):
        c = rotation_overlap_2d(float(theta))
        row = compare_state_independent(c, opts=opts, base=base,
                                        on_violation="use_numeric")
        rows.append((float(theta), row.c1, row.c2, row.ours, row.bccrr, row.rpz2,
                     row.ours_at_least, row.conjecture_ok))
    config = {
        "cmd": "fig-compare", "mode": "sweep", "n_theta": n_theta,
        "base": base.name, **_opts_config(opts),
    }
    header = ("theta", "c1", "c2", "ours", "bccrr", "rpz2",
              "ours_at_least", "conjecture_ok")
    return Table(header, tuple(rows), config)


def run_compare_random(dims=tuple(range(2, 13)), samples: int = 1000,
                       seed: int = 0, opts: SolverOptions | None = None,
                       base: LogBase = LogBase.TWO) -> Table:
    """Percentage of random unistochastic matrices where ours beats both bounds.

    Per dimension, draws Haar unitaries, squares their moduli, and counts
    how often the second-singular-value constant is at least as large as
    the largest-overlap and second-overlap constants.  Rows also report
    how many evaluations fell back to the numeric norm because the
    conjectured closed form failed verification.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 2:
        raise ValueError(f"dimensions must all be >= 2, got {dims}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    opts = opts or COMPARE_RANDOM_OPTS
    rows = []
    pct = {}
    for d in dims:
        rng = np.random.default_rng([seed, d])
        best = 0
        fallbacks = 0
        for _ in range(samples):
            c = from_unitary(haar_random_unitary(d, rng))
            row = compare_state_independent(c, opts=opts, base=base,
                                            on_violation="use_numeric")
            best += int(row.ours_at_least)
            fallbacks += int(not row.conjecture_ok)
        pct[d] = 100.0 * best / samples
        rows.append((d, samples, pct[d], fallbacks))
    config = {
        "cmd": "fig-compare", "mode": "random", "dims": list(dims),
        "samples": samples, "seed": seed, "base": base.name, **_opts_config(opts),
    }
    header = ("d", "samples", "pct_ours_best", "conjecture_fallbacks")
    return Table(header, tuple(rows), config, {"pct": pct})


def run_werner_masks(phis=(-1.0, -0.5, -0.1), grid: int = 50,
                     base: LogBase = LogBase.TWO) -> Table:
    """Detection masks of the analytic witness for two-qubit Werner states.

    Scans measurement angles (theta_a, theta_b) over [0, pi/4]^2 for each
    Werner parameter and records where entanglement is certified.
    """
    if grid < 2:
        raise ValueError(f"need at least two angles per axis, got {grid}")
    phis = tuple(float(p) for p in phis)
    axis = np.linspace(0.0, math.pi / 4, grid)
    pairs = [(float(a), float(b)) for a in axis for b in axis]
    rows = []
    counts = {}
    corner = {}
    for phi in phis:
        detected = werner_detection_scan(phi, pairs, base)
        for (a, b), hit in zip(pairs, detected):
            rows.append((a, b, phi, bool(hit)))
        counts[phi] = int(np.sum(detected))
        corner[phi] = bool(detected[-1])
    config = {
        "cmd": "werner", "phis": list(phis), "grid": grid, "base": base.name,
    }
    stats = {"counts": counts, "corner": corner}
    return Table(("theta_a", "theta_b", "phi", "detected"), tuple(rows), config, stats)


def run_conjecture_fuzz(dims=(2, 3, 4), samples: int = 1000, grid: int = 11,
                        seed: int = 0, opts: SolverOptions | None = None,
                        base: LogBase = LogBase.TWO,
                        excess_tol: float = 1e-7) -> Table:
    """Fuzz the extended equality regime on Haar-unistochastic matrices.

    Tests whether the norm equals the constant-matrix closed form
    d**(1/s - 1/r) inside the region (1 - mu)(1 - lambda) >= mu lambda
    sigma2^2.  The equality is a theorem for d = 2, so a d = 2 violation
    would be a solver fault.  For d >= 3 it is refuted: the seed-0 run at
    dims (2, 3, 4), 1000 samples, grid 11 finds counterexamples at d = 3
    and d = 4 and is tracked byte for byte in
    ``tests/artifacts/equality_regime_counterexamples.csv``.  Lattice
    points with mu + lambda <= 1 (s <= r) take the proven closed form,
    so their excess is exactly 0; every other point runs the multistart
    ascent.  Each numeric value is attained by its witness vector, so it
    is a lower bound on the norm; any excess beyond ``excess_tol`` is a
    genuine counterexample and is emitted with the full-precision matrix
    and witness vector.

    Returns:
        Table with per-dimension summary rows followed by one row per
        counterexample; ``stats["violations"]`` counts them.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 2:
        raise ValueError(f"dimensions must all be >= 2, got {dims}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    opts = opts or FUZZ_OPTS
    summary_rows = []
    violation_rows = []
    max_excess_all = 0.0
    for d in dims:
        rng = np.random.default_rng([seed, d])
        evals = 0
        violations = 0
        max_excess = 0.0
        for k in range(samples):
            c = from_unitary(haar_random_unitary(d, rng))
            sigma2 = min(float(c.sigma2), 1.0)
            for mu, lam in feasible_weight_grid(sigma2, grid):
                w = WeightTriple(1.0, lam, mu)
                res = norm(c, w, opts=opts, base=base)
                conjectured = norm_mub(d, w.r, w.s)
                excess = res.value - conjectured
                evals += 1
                if excess > excess_tol:
                    violations += 1
                    max_excess = max(max_excess, excess)
                    violation_rows.append((
                        "violation", d, k, "", "", "", mu, lam, sigma2,
                        res.value, conjectured, excess, _flat17(c.matrix),
                        _flat17(res.witness),
                    ))
        summary_rows.append((
            "summary", d, "", samples, evals, violations, "", "", "", "", "",
            max_excess, "", "",
        ))
        max_excess_all = max(max_excess_all, max_excess)
    config = {
        "cmd": "conjecture-fuzz", "dims": list(dims), "samples": samples,
        "grid": grid, "seed": seed, "base": base.name,
        "excess_tol": excess_tol, **_opts_config(opts),
    }
    header = ("kind", "d", "sample", "samples", "evals", "violations",
              "mu", "lam", "sigma2", "numeric", "conjectured", "excess",
              "matrix", "witness")
    stats = {"violations": len(violation_rows), "max_excess": max_excess_all}
    return Table(header, tuple(summary_rows + violation_rows), config, stats)


def run_randomness_sweep(c, points: int = 11, weight_grid_n: int = 21,
                         opts: SolverOptions | None = None,
                         base: LogBase = LogBase.TWO) -> Table:
    """Tabulate numeric and analytic randomness bounds over an entropy lattice.

    Sweeps observed entropies (H_X, H_Y) over [0, log d]^2.  The numeric
    column is one :func:`randomness_bound_numeric` call over a weight
    lattice and the whole entropy mesh; the analytic column is the
    closed-form optimum where it applies (delta_X <= delta_Y), with the
    flag column marking values that rely on the extended equality regime.
    """
    if points < 2:
        raise ValueError(f"need at least two lattice points per axis, got {points}")
    if weight_grid_n < 2:
        raise ValueError(f"need at least two weights per axis, got {weight_grid_n}")
    c = _as_overlap(c)
    d = c.matrix.shape[0]
    if c.matrix.shape[0] != c.matrix.shape[1]:
        raise ValueError("randomness sweep requires a square overlap matrix")
    opts = opts or SolverOptions()
    sigma2 = min(float(c.sigma2), 1.0)
    log_d = float(base.log(d))

    axis = np.linspace(0.0, 1.0, weight_grid_n)  # (mu, lambda) lattice
    h_axis = np.linspace(0.0, log_d, points)
    numerics = randomness_bound_numeric(h_axis[:, None], h_axis, c, itertools.product(axis, axis),
                                        opts=opts, base=base)

    rows = []
    for (h_x, h_y), numeric in zip(itertools.product(h_axis, h_axis), numerics.flat):
        try:
            rb = randomness_bound_analytic(
                deficits_from_entropies(float(h_x), float(h_y), d, base), sigma2)
            analytic, flag = float(rb.value), int(rb.conjectured)
        except ValueError:
            analytic, flag = "", ""
        rows.append((float(h_x), float(h_y), float(numeric), analytic, flag))
    config = {
        "cmd": "randomness", "d": d, "sigma2": sigma2, "points": points,
        "weight_grid_n": weight_grid_n, "source": c.source, "base": base.name,
        **_opts_config(opts),
    }
    header = ("h_x", "h_y", "bound_numeric", "bound_analytic", "flag")
    return Table(header, tuple(rows), config)
