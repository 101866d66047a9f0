"""Seeded experiment engines with deterministic tabular output.

Each ``run_*`` function performs one desk-scale study end to end and
returns a :class:`Table` — header, rows, the exact configuration that
produced them, and summary statistics.  :func:`write_table` serializes a
table as CSV with a provenance comment line; identical configurations
yield byte-identical files.  Every integer an engine records in its
configuration is a plain int: a bool, a float or another non-integer is
refused with a ``ValueError`` that names the parameter.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .applications import (
    deficits_from_entropies,
    randomness_bound_analytic,
    randomness_bound_numeric,
    _werner_scan,
)
from .bounds import (
    _bccrr_constant,
    _compare_many,
    default_envelope_grid,
    envelope_curve,
)
from .certify import _equality_proven, _in_region, _weight_lattice, mu_star
from .errors import NormConsistencyError
from .norms import (
    SolverOptions,
    WeightTriple,
    _exponents,
    _numeric_many,
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
    _as_int,
    _check_square,
    _check_states,
    _count,
    _entropies,
    _ginibre,
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
    if isinstance(v, (bool, np.bool_)):
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


def _check_dims(dims) -> tuple:
    """``dims`` as a tuple of ints, each at least 2 and none repeated."""
    dims = tuple(_as_int(d, "dimension") for d in dims)
    if not dims or min(dims) < 2:
        raise ValueError(f"dimensions must all be >= 2, got {dims}")
    if len(set(dims)) < len(dims):
        raise ValueError(f"dimensions must not repeat, got {dims}")
    return dims


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
    and ``shannon_entropy(measurement_distribution(...))``.  The config
    records a ``weight_grid``'s triples when one is passed.

    Raises:
        ValueError: for a ``d`` below 2, a negative ``seed``, or a ``d``,
            ``seed``, ``samples`` or ``n_env`` that is not an integer.
        NormConsistencyError: if any sampled state lands below the envelope.
    """
    d, seed = _count(d, "d", 2), _count(seed, "seed", 0)
    samples, n_env = _count(samples, "samples", 1), _count(n_env, "n_env", 2)
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
            f"sample {k} lies {-margins[k]:.3e} below the envelope at S={float(s_vals[k])!r}"
        )
    mu_level = float(_bccrr_constant(c, base))

    rows = [("sample", float(s), float(h)) for s, h in zip(s_vals, h_sums)]
    rows += [("mu_line", float(s), mu_level) for s in s_grid]
    rows += [("envelope", float(s), float(e)) for s, e in zip(s_grid, env_grid)]
    config = {
        "cmd": "fig-region", "d": d, "theta": th, "samples": samples,
        "seed": seed, "n_env": n_env, "n_triples": len(triples),
        "base": base.name, **_opts_config(opts),
    }
    if weight_grid is not None:
        config["triples"] = [[w.alpha, w.lam, w.mu] for w in triples]
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
    grid = _count(grid, "grid", 2)
    opts = opts or SolverOptions()
    c = rotation_overlap_2d(theta)
    sigma2 = c.sigma2
    ms = mu_star(sigma2)
    kmu_level = -float(_bccrr_constant(c, base))
    ln2 = float(base.log(2.0))

    rows = []
    max_equal_dev = 0.0
    min_excess_beyond = np.inf
    weights = [(mu, WeightTriple(1.0, float(mu), float(mu))) for mu in np.linspace(0.5, 1.0, grid)]
    for mu, res in _numeric_many([(mu, (c, w.r, w.s)) for mu, w in weights], opts, base):
        mub_line = (1.0 - 2.0 * mu) * ln2
        excess = res.log_value - mub_line
        if excess < -1e-7:
            raise NormConsistencyError(
                f"profile at mu={float(mu)!r} is {-excess:.3e} below the constant-matrix line"
            )
        if mu <= ms + 1e-12:
            max_equal_dev = max(max_equal_dev, abs(excess))
            if abs(excess) > 1e-7:
                raise NormConsistencyError(
                    f"profile at mu={float(mu)!r} deviates {excess:.3e} inside the equality regime"
                )
        elif mu >= ms + 0.03:
            min_excess_beyond = min(min_excess_beyond, excess)
            if excess <= 1e-7:
                raise NormConsistencyError(
                    f"profile at mu={float(mu)!r} shows no excess past the critical weight"
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
    n_theta = _count(n_theta, "n_theta", 2)
    opts = opts or SolverOptions()
    thetas = np.linspace(0.0, math.pi / 4, n_theta).tolist()
    compared = _compare_many(((theta, rotation_overlap_2d(theta)) for theta in thetas), opts,
                             base, on_violation="use_numeric")
    rows = [(theta, row.c1, row.c2, row.ours, row.bccrr, row.rpz2, row.ours_at_least,
             row.conjecture_ok) for theta, row in compared]
    config = {
        "cmd": "fig-compare", "mode": "sweep", "n_theta": n_theta,
        "base": base.name, **_opts_config(opts),
    }
    header = ("theta", "c1", "c2", "ours", "bccrr", "rpz2",
              "ours_at_least", "conjecture_ok")
    return Table(header, tuple(rows), config)


def _workers(samples: int) -> int:
    """Shares of a compare run: the CPUs this process may run on, at most ``samples``.

    One where the platform cannot fork, and where this process runs other
    threads: a forked child gets a copy of any lock they hold, never released.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, samples)


def _haar_draws(d: int, samples: int, rng, share: int = 0, shares: int = 1):
    """``(j, overlap of Haar draw j)`` for the draws j = share (mod shares) of ``rng``'s stream.

    The one walk of a seeded engine's ``default_rng([seed, d])`` stream of
    ``samples`` Haar unitaries, lazily and in order.  Another share's draw
    is skipped by drawing only its Ginibre matrix, so every draw keeps its
    place in the stream.
    """
    for j in range(samples):
        if j % shares == share:
            yield j, from_unitary(haar_random_unitary(d, rng))
        else:
            _ginibre(rng, d)


def _compare_share(dims: tuple, samples: int, seed: int, opts: SolverOptions, base: LogBase,
                   share: int, shares: int) -> tuple:
    """``(wins, fallbacks, failure)`` of the draws j = share (mod shares) of every dimension.

    Walks each dimension's ``_haar_draws`` stream, in ``dims`` order, and
    solves its own draws in one ``bounds._compare_many`` pass.  ``wins``
    and ``fallbacks`` map each d to its counts.  ``failure`` is None, or
    ``(index, exception)`` for the first draw the pass fails on, where
    draw j of the a-th dimension has index a * samples + j: the pass
    stops there, and the exception is returned, not raised.
    """
    wins, fallbacks = dict.fromkeys(dims, 0), dict.fromkeys(dims, 0)
    draws = ((d, c) for d in dims
             for _, c in _haar_draws(d, samples, np.random.default_rng([seed, d]), share, shares))
    # The pass yields its rows, and raises, in draw order.
    indices = (a * samples + j for a in range(len(dims)) for j in range(share, samples, shares))
    try:
        for (d, row), _ in zip(_compare_many(draws, opts, base, on_violation="use_numeric"),
                               indices):
            wins[d] += int(row.ours_at_least)
            fallbacks[d] += int(not row.conjecture_ok)
    except Exception as exc:  # the caller raises the run's first failure
        return wins, fallbacks, (next(indices), exc)
    return wins, fallbacks, None


def run_compare_random(dims=tuple(range(2, 13)), samples: int = 1000,
                       seed: int = 0, opts: SolverOptions | None = COMPARE_RANDOM_OPTS,
                       base: LogBase = LogBase.TWO) -> Table:
    """Percentage of random unistochastic matrices where ours beats both bounds.

    Per dimension, draws Haar unitaries, squares their moduli, and counts
    how often the second-singular-value constant is at least as large as
    the largest-overlap and second-overlap constants.  Rows also report
    how many evaluations fell back to the numeric norm because the
    conjectured closed form failed verification.  Each dimension draws
    from its own ``default_rng([seed, d])``.

    The draws are dealt to K shares, K the number of CPUs in this
    process's affinity mask, at most ``samples`` (one where the platform
    cannot fork or this process runs other threads): share i takes the
    samples j = i (mod K) of every dimension.  This process solves share
    0 and K - 1 forked processes the rest; all are joined before the call
    returns or raises, and with K = 1 no process is started.  Each share draws its matrices lazily
    into one ``bounds._compare_many`` pass, each labelled with its d: they
    ride through the pass's one read-ahead window, proven d = 2 rows
    included, and its mu* problems share one refilling ascent stack, so a
    process's memory does not grow with ``samples`` for any order of
    ``dims``.  Each row has the bits of ``compare_state_independent`` on
    its own matrix, so the table is the same for every K; a failure is
    the one of the first draw that fails, as one process raises it.

    Raises:
        ValueError: for an empty ``dims``, a d that is not an integer or is
            below 2, a repeated d, a ``samples`` or ``seed`` that is not an
            integer, no samples, or a negative seed.
    """
    dims, samples, seed = _check_dims(dims), _count(samples, "samples", 1), _count(seed, "seed", 0)
    opts = opts or COMPARE_RANDOM_OPTS
    shares = _workers(samples)
    if shares == 1:
        found = [_compare_share(dims, samples, seed, opts, base, 0, 1)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Leaving the block joins every child, after a failure too.
        with ProcessPoolExecutor(shares - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_compare_share, dims, samples, seed, opts, base, i, shares)
                       for i in range(1, shares)]
            found = [_compare_share(dims, samples, seed, opts, base, 0, shares)]
            found += [f.result() for f in futures]
    failures = [failure for _, _, failure in found if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    best = {d: sum(wins[d] for wins, _, _ in found) for d in dims}
    fallbacks = {d: sum(fb[d] for _, fb, _ in found) for d in dims}
    pct = {d: 100.0 * best[d] / samples for d in dims}
    rows = [(d, samples, pct[d], fallbacks[d]) for d in dims]
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
    Werner parameter and records where entanglement is certified.  Every
    phi is scored in one scan, which builds and checks each product
    projector once; each phi's rows are its ``werner_detection_scan``.
    """
    grid = _count(grid, "grid", 2)
    phis = tuple(float(p) for p in phis)
    axis = np.linspace(0.0, math.pi / 4, grid)
    pairs = [(float(a), float(b)) for a in axis for b in axis]
    detected = _werner_scan(phis, pairs, base)
    rows = [(a, b, phi, bool(hit)) for phi, hits in zip(phis, detected)
            for (a, b), hit in zip(pairs, hits)]
    config = {
        "cmd": "werner", "phis": list(phis), "grid": grid, "base": base.name,
    }
    stats = {"counts": {phi: int(np.sum(hits)) for phi, hits in zip(phis, detected)},
             "corner": {phi: bool(hits[-1]) for phi, hits in zip(phis, detected)}}
    return Table(("theta_a", "theta_b", "phi", "detected"), tuple(rows), config, stats)


def _fuzz_lattice(d: int, samples: int, grid: int, rng, counts: dict):
    """(sample k, matrix, sigma2, weights) at each open census lattice point, drawn lazily in order.

    The matrices are ``_haar_draws(d, samples, rng)``, and the points
    those of ``feasible_weight_grid``, in its order.  A point where
    ``certify._equality_proven`` holds has excess exactly 0, so it is not
    yielded; ``counts["evals"]`` tallies every point and
    ``counts["proven"]`` those.  No open point of a Haar draw has a
    closed form, so each goes to the solver.  Each matrix's region and
    certificate masks are one NumPy pass with the float expressions of the
    per-point tests, so only open points become ``WeightTriple``s.
    """
    mu, lam = _weight_lattice(grid)
    with np.errstate(divide="ignore"):  # mu = 0 and lambda = 1 give the triples' inf
        r, s = 1.0 / mu, 1.0 / (1.0 - lam)
    for k, c in _haar_draws(d, samples, rng):
        sigma2 = c.sigma2
        inside = _in_region(mu, lam, sigma2)
        open_ = inside & ~_equality_proven(c, r, s)
        evals, n_open = int(np.count_nonzero(inside)), int(np.count_nonzero(open_))
        counts["evals"] += evals
        counts["proven"] += evals - n_open
        for m, l in zip(mu[open_].tolist(), lam[open_].tolist()):
            yield k, c, sigma2, WeightTriple(1.0, l, m)


def run_conjecture_fuzz(dims=(2, 3, 4), samples: int = 1000, grid: int = 11,
                        seed: int = 0, opts: SolverOptions | None = FUZZ_OPTS,
                        base: LogBase = LogBase.TWO,
                        excess_tol: float = 1e-7) -> Table:
    """Fuzz the extended equality regime on Haar-unistochastic matrices.

    Tests whether the norm equals the constant-matrix closed form
    d**(1/s - 1/r) inside the region (1 - mu)(1 - lambda) >= mu lambda
    sigma2^2.  The equality is a theorem for d = 2, so a d = 2 violation
    would be a solver fault.  For d >= 3 it is refuted: the seed-0 run at
    dims (2, 3, 4), 1000 samples, grid 11 finds counterexamples at d = 3
    and d = 4 and is tracked byte for byte in
    ``tests/artifacts/equality_regime_counterexamples.csv``.  Equality is
    proven at every d on the sub-region
    kappa^2 lambda mu < (1 - lambda)(1 - mu), kappa the Birkhoff
    contraction coefficient (``OverlapMatrix.birkhoff_contraction``), and
    at mu + lambda <= 1 (s <= r); ``certify._equality_proven`` decides.
    Such a point has excess exactly 0: it is counted in ``evals`` but not
    solved.  At d = 2 kappa = sigma2, so no point is solved there.  Each
    dimension draws from its own ``default_rng([seed, d])`` stream
    (``_haar_draws``), lazily and in ``dims`` order, and the open points
    of every dimension's samples, each carrying its sample, matrix and
    weights, stream through one ``norms._numeric_many`` pass: no open
    point of a Haar draw has a closed form, so the pass solves them all
    in one refilling ascent stack, with the bits of per-point ``norm``
    calls; memory does not grow with ``samples``.  Each numeric value is
    attained by its witness vector, so it is a lower bound on the norm;
    any excess beyond ``excess_tol`` is a genuine counterexample and is
    emitted with the full-precision matrix and witness vector.

    Returns:
        Table with per-dimension summary rows followed by one row per
        counterexample; ``stats["violations"]`` counts them, and
        ``stats["proven"]`` and ``stats["solved"]`` map each d to its
        points settled by a theorem and by the solver, which add up to
        the summary row's ``evals``.  The summary rows' ``violations``
        and ``max_excess``, ``stats["solved"]`` and ``stats["max_excess"]``
        are derived from the lattice counts and the counterexample rows.

    Raises:
        ValueError: for an empty ``dims``, a d that is not an integer or is
            below 2, a repeated d, a ``samples``, ``grid`` or ``seed`` that
            is not an integer, no samples, a negative seed, a grid below 2,
            or an ``excess_tol`` that is not finite and >= 0.
    """
    dims, samples, seed = _check_dims(dims), _count(samples, "samples", 1), _count(seed, "seed", 0)
    if not (math.isfinite(excess_tol) and excess_tol >= 0.0):
        raise ValueError(f"excess_tol must be finite and >= 0, got {excess_tol}")
    opts = opts or FUZZ_OPTS
    counts = {d: {"evals": 0, "proven": 0} for d in dims}
    points = itertools.chain.from_iterable(
        _fuzz_lattice(d, samples, grid, np.random.default_rng([seed, d]), counts[d]) for d in dims)
    violation_rows = []
    for (k, c, sigma2, w), res in _numeric_many(
            (((k, c, sigma2, w), (c, w.r, w.s)) for k, c, sigma2, w in points), opts, base):
        d = c.matrix.shape[0]
        conjectured = norm_mub(d, w.r, w.s)
        excess = res.value - conjectured
        if excess > excess_tol:
            violation_rows.append((
                "violation", d, k, "", "", "", w.mu, w.lam, sigma2,
                res.value, conjectured, excess, _flat17(c.matrix),
                _flat17(res.witness),
            ))
    # Cells 1 and 11 of a counterexample row are its d and its excess.
    excesses = {d: [row[11] for row in violation_rows if row[1] == d] for d in dims}
    summary_rows = [("summary", d, "", samples, counts[d]["evals"], len(excesses[d]), "", "", "",
                     "", "", max(excesses[d], default=0.0), "", "") for d in dims]
    config = {
        "cmd": "conjecture-fuzz", "dims": list(dims), "samples": samples,
        # A plain int for the hash; _weight_lattice has refused a grid that is not an integer.
        "grid": int(grid), "seed": seed, "base": base.name,
        "excess_tol": excess_tol, **_opts_config(opts),
    }
    header = ("kind", "d", "sample", "samples", "evals", "violations",
              "mu", "lam", "sigma2", "numeric", "conjectured", "excess",
              "matrix", "witness")
    stats = {"violations": len(violation_rows),
             "max_excess": max((row[11] for row in violation_rows), default=0.0),
             "proven": {d: counts[d]["proven"] for d in dims},
             "solved": {d: counts[d]["evals"] - counts[d]["proven"] for d in dims}}
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
    The region theorem speaks only of a doubly stochastic ``c``; for any
    other matrix every analytic and flag cell is blank.

    Raises:
        DimensionMismatchError: if ``c`` is not a square matrix.
    """
    points, weight_grid_n = _count(points, "points", 2), _count(weight_grid_n, "weight_grid_n", 2)
    c = _as_overlap(c)
    d = _check_square(c.matrix).shape[0]
    opts = opts or SolverOptions()
    sigma2 = c.sigma2
    log_d = float(base.log(d))

    h_axis = np.linspace(0.0, log_d, points)
    numerics = randomness_bound_numeric(h_axis[:, None], h_axis, c,
                                        zip(*_weight_lattice(weight_grid_n)), opts=opts, base=base)

    stochastic = c.is_doubly_stochastic()
    rows = []
    for (h_x, h_y), numeric in zip(itertools.product(h_axis, h_axis), numerics.flat):
        analytic, flag = "", ""
        if stochastic:
            with contextlib.suppress(ValueError):  # gamma > 1, or the degenerate sigma2 = 1
                rb = randomness_bound_analytic(
                    deficits_from_entropies(float(h_x), float(h_y), d, base), sigma2)
                analytic, flag = float(rb.value), int(rb.conjectured)
        rows.append((float(h_x), float(h_y), float(numeric), analytic, flag))
    config = {
        "cmd": "randomness", "d": d, "sigma2": sigma2, "points": points,
        "weight_grid_n": weight_grid_n, "source": c.source, "base": base.name,
        **_opts_config(opts),
    }
    header = ("h_x", "h_y", "bound_numeric", "bound_analytic", "flag")
    return Table(header, tuple(rows), config)
