"""Weighted entropic uncertainty bounds built on overlap-matrix norms.

The central estimate: for weights 0 <= lambda, mu <= alpha <= 1 and
measurements with overlap matrix C,

    lambda H(X) + mu H(Y) >= alpha S(rho) - alpha log ||C||_{r->s},

with r = alpha/mu and s = alpha/(alpha - lambda).  This module exposes
the additive constant, full bound reports, comparisons against the
largest-overlap and second-overlap state-independent bounds, and the
envelope over a family of weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import _check_sigma2, _equality_proven, mu_star
from .errors import ConjectureViolationError
from .norms import (
    NormMethod,
    SolverOptions,
    WeightTriple,
    _agrees_with_closed_form,
    _norm_many,
    _numeric_many,
    norm,
    norm_mub,
)
from .overlap import _as_overlap, build_overlap
from .qmath import (
    DensityMatrix,
    LogBase,
    ProjectiveMeasurement,
    _count,
    measurement_distribution,
    shannon_entropy,
    von_neumann_entropy,
)

# The package's one slack on a measured entropy in [0, log d] and on a deficit log d - H >= 0.
_DEFICIT_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the weighted uncertainty bound.

    ``rhs`` is a bound where ``norm_method`` is a closed form.  With
    ``NUMERIC_MULTISTART`` it is an estimate: the solver's norm is a lower
    bound on the norm, so the constant taken from it can overstate the
    true one.  ``gap = lhs - rhs`` is nonnegative up to numerical noise
    (-1e-8) for a bound, and not proven so for an estimate.
    """

    lhs: float
    rhs: float
    gap: float
    c_value: float
    norm_method: NormMethod
    weights: WeightTriple


@dataclass(frozen=True)
class ComparisonRow:
    """State-independent constants of three bounds for one overlap matrix."""

    c1: float
    c2: float
    c_rpz: float
    ours: float
    bccrr: float
    rpz2: float
    ours_at_least: bool
    conjecture_ok: bool


def c_lower_bound(c, w: WeightTriple, opts: SolverOptions | None = None,
                  base: LogBase = LogBase.TWO) -> float:
    """Additive constant -alpha log ||C||_{r->s}; zero when alpha = 0.

    The constant of a bound where ``norm`` gives a closed form.  Where the
    solver supplies the norm, its value is a lower bound on the norm, so
    the constant is an estimate that can overstate the true one.
    """
    if w.alpha == 0.0:
        return 0.0
    return _constant(w, norm(c, w, opts=opts, base=base).log_value)


def _constant(w: WeightTriple, log_norm: float) -> float:
    """The additive constant -alpha log ||C||_{r->s} from the norm's log."""
    return -w.alpha * log_norm


def evaluate_eur(rho: DensityMatrix, x: ProjectiveMeasurement,
                 y: ProjectiveMeasurement, w: WeightTriple,
                 opts: SolverOptions | None = None,
                 base: LogBase = LogBase.TWO) -> BoundReport:
    """Evaluate lambda H(X) + mu H(Y) against alpha S(rho) + c for one state.

    The report's ``rhs`` is a bound or, where the solver supplies the
    norm, an estimate: see :class:`BoundReport`.
    """
    h_x = shannon_entropy(measurement_distribution(rho, x), base)
    h_y = shannon_entropy(measurement_distribution(rho, y), base)
    lhs = w.lam * h_x + w.mu * h_y
    if w.alpha == 0.0:
        c_val, method = 0.0, NormMethod.CLOSED_S_LE_R
    else:
        res = norm(build_overlap(x, y), w, opts=opts, base=base)
        c_val, method = _constant(w, res.log_value), res.method
    rhs = w.alpha * von_neumann_entropy(rho, base) + c_val
    return BoundReport(lhs, rhs, lhs - rhs, c_val, method, w)


def qudit_eur_rhs(sigma2: float, d: int, s_rho: float,
                  base: LogBase = LogBase.TWO) -> float:
    """Conjectured qudit bound (1 + sigma2) S + (1 - sigma2) log d.

    Valid whenever the extended equality regime holds at the optimal
    equal weights; exact for sigma2 = 0 and sigma2 = 1.  That regime is
    the norm equality ||C||_{r->s} = d**(1/s - 1/r) at mu*, on the
    region's boundary: a theorem only at d = 2, and refuted at d >= 3 for
    the matrices the package samples (``fig-compare --random --dims 3
    --samples 200 --seed 1`` finds the solver above the closed form in
    181 of 200 rows; ``tests/artifacts/equality_regime_counterexamples.csv``
    lists 729 counterexamples inside the region).

    Raises:
        ValueError: if ``sigma2`` lies outside [0, 1], ``d`` is not an
            integer >= 1, or ``s_rho`` lies outside [0, log d].
    """
    _check_sigma2(sigma2)
    log_d = base.log(_count(d, "d", 1))
    _check_entropy_range(log_d, s_rho=s_rho)
    return (1.0 + sigma2) * s_rho + (1.0 - sigma2) * log_d


def _bccrr_constant(c, base: LogBase) -> float:
    """The largest-overlap constant -log c1 of the OverlapMatrix ``c``; the one log of c1."""
    return -base.log(c.max_entry)


def _rpz2_constant(c, base: LogBase) -> tuple:
    """(c1, c2, C, -log[c1 C^2 + c2 (1 - C^2)]) of the OverlapMatrix ``c``.

    c1 and c2 are its two largest entries, counted with multiplicity.

    Raises:
        ValueError: if the matrix has a single entry, and so no c2.
    """
    if c.matrix.size < 2:
        raise ValueError(f"the second-overlap bound needs two entries, got shape {c.shape}")
    c2, c1 = np.partition(c.matrix.ravel(), -2)[-2:].tolist()
    big_c = (1.0 + np.sqrt(c1)) / 2.0
    return c1, c2, big_c, -base.log(c1 * big_c**2 + c2 * (1.0 - big_c**2))


def bccrr_rhs(c, s_rho: float, base: LogBase = LogBase.TWO) -> float:
    """Largest-overlap bound S - log c1.

    Raises:
        ValueError: if ``s_rho`` is not finite.
    """
    _check_entropies(s_rho=s_rho)
    return s_rho + _bccrr_constant(_as_overlap(c), base)


def rpz2_rhs(c, s_rho: float, base: LogBase = LogBase.TWO) -> float:
    """Second-overlap bound S - log[c1 C^2 + c2 (1 - C^2)], C = (1 + sqrt(c1))/2.

    c1 and c2 are the two largest entries of the overlap matrix, counted
    with multiplicity.

    Raises:
        ValueError: if ``s_rho`` is not finite, or the matrix is 1 x 1.
    """
    _check_entropies(s_rho=s_rho)
    return s_rho + _rpz2_constant(_as_overlap(c), base)[3]


def compare_state_independent(c, opts: SolverOptions | None = None,
                              base: LogBase = LogBase.TWO,
                              on_violation: str = "raise") -> ComparisonRow:
    """State-independent constants of ours, largest-overlap, second-overlap.

    Ours evaluates the conjectured (1 - sigma2) log d at the optimal
    equal weights mu = lambda = 1/(1 + sigma2).  For a 2x2 doubly
    stochastic C the value at that point is proven, not searched: the
    norm equals 2^(1/s - 1/r) on the whole closed region, mu* included
    (two-point hypercontractivity: Bonami 1970; Beckner, Ann. Math. 102,
    1975), so no solver runs and ``conjecture_ok`` is True.  For any
    other C, before reporting, the conjectured norm value at that point
    is verified against the numeric solver within 1e-7.  If the solver
    finds a strictly larger norm the behaviour depends on
    ``on_violation``: ``"raise"`` aborts, while ``"use_numeric"``
    reports -(1 + sigma2) log of the solver's value and marks the row
    ``conjecture_ok=False``.  The solver's value is attained
    by its witness, so it is only a lower bound on the norm, and the
    constant taken from it can overstate the true constant: it is not a
    certified bound on the constant.

    Raises:
        ConjectureViolationError: if the numeric norm exceeds the
            conjectured closed form at the optimal weights and
            ``on_violation`` is ``"raise"``.
    """
    return next(_compare_many([(None, c)], opts, base, on_violation))[1]


def _compare_setup(item, c) -> tuple:
    """One comparison input, checked, as a ``_numeric_many`` pair.

    The item is ``(item, c, sigma2, mu* weights)``; the problem is the norm
    at mu*, or None where ``certify._equality_proven`` holds (every 2 x 2
    doubly stochastic ``c``, by the d = 2 theorem): a theorem gives that
    norm, so no solver runs.
    """
    c = _as_overlap(c)
    m = c.matrix
    if m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError(f"comparison requires a square overlap matrix with d >= 2, got {m.shape}")
    sigma2 = c.sigma2
    ms = mu_star(sigma2)
    w = WeightTriple(1.0, ms, ms)
    return (item, c, sigma2, w), None if _equality_proven(c, w.r, w.s) else (c, w.r, w.s)


def _compare_many(pairs, opts: SolverOptions | None = None, base: LogBase = LogBase.TWO,
                  on_violation: str = "raise"):
    """Yield ``(item, compare_state_independent(c, opts, base, on_violation))`` per ``(item, c)``.

    One ``_numeric_many`` pass, in input order: each pair's problem at mu*
    goes to the solver, and a proven d = 2 row rides through the pass in
    its item, with no problem, so every pair counts toward the pass's
    read-ahead window.  Rows, solver errors and
    ``ConjectureViolationError`` come out in input order; an input that
    would be rejected before solving is rejected as it is read.
    """
    if on_violation not in ("raise", "use_numeric"):
        raise ValueError(f"unknown on_violation mode {on_violation!r}")
    setups = (_compare_setup(item, c) for item, c in pairs)
    for (item, c, sigma2, w), numeric in _numeric_many(setups, opts, base):
        if numeric is not None:
            _agrees_with_closed_form(c, w.r, w.s, numeric, base)
        d = c.matrix.shape[0]
        conjectured = norm_mub(d, w=w)
        conjecture_ok = numeric is None or (
            numeric.value <= conjectured + 1e-7 * max(1.0, conjectured))
        if conjecture_ok:
            ours = (1.0 - sigma2) * base.log(d)
        elif on_violation == "raise":
            raise ConjectureViolationError(
                f"norm at optimal weights is {numeric.value!r}, conjectured {conjectured!r}"
            )
        else:
            ours = -(1.0 + sigma2) * numeric.log_value
        bccrr = _bccrr_constant(c, base)
        c1, c2, big_c, rpz2 = _rpz2_constant(c, base)
        flag = ours >= max(bccrr, rpz2) - 1e-12
        yield item, ComparisonRow(c1, c2, float(big_c), float(ours), float(bccrr),
                                  float(rpz2), bool(flag), bool(conjecture_ok))


def entropy_upper_bound(h_x: float, h_y: float, c, grid=None,
                        opts: SolverOptions | None = None,
                        base: LogBase = LogBase.TWO) -> float:
    """Upper estimate of S(rho) from measured entropies: min over a weight grid.

    Each grid point (lambda, mu) with alpha = 1 contributes
    lambda h_x + mu h_y - c_lower_bound; the mutually-unbiased corner
    (1, 1) is always added, so the result never exceeds the plain
    largest-overlap value.  All points are solved in one ``_norm_many`` pass.
    The result is a certified upper bound only where every norm it uses is
    a closed form.  A numeric norm is the solver's value, a lower bound on
    the norm, so a value that rests on one is an estimate.

    Args:
        grid: iterable of (lambda, mu) pairs; defaults to the corner only.

    Raises:
        ValueError: if ``h_x`` or ``h_y`` is not finite.
    """
    _check_entropies(h_x=h_x, h_y=h_y)
    pairs = [(1.0, 1.0)] + ([] if grid is None else list(grid))
    triples = [WeightTriple(1.0, float(l), float(m)) for l, m in pairs]
    lam, mu, log_norms = _solve_weights(c, triples, opts, base)
    # - c_lower_bound = -(-alpha * log_norm) = log_norm exactly, at alpha = 1.
    return float(np.min(lam * h_x + mu * h_y + log_norms))


def _solve_weights(c, triples: list, opts: SolverOptions | None, base: LogBase) -> np.ndarray:
    """Rows lambda, mu and log-norm over ``triples``, in order, from one ``_norm_many`` pass."""
    c = _as_overlap(c)
    return np.array([(w.lam, w.mu, res.log_value) for w, res in
                     _norm_many([(w, (c, w.r, w.s)) for w in triples], opts, base)]).T


def _check_entropies(**entropies) -> None:
    """Raise ValueError unless every entry of each named entropy (a float or an array) is finite."""
    for name, h in entropies.items():
        h = np.asarray(h, dtype=float)
        bad = ~np.isfinite(h)
        if bad.any():
            raise ValueError(f"{name} must be finite, got {h[bad].flat[0]}")


def _check_entropy_range(log_d: float, **entropies) -> None:
    """Raise ValueError unless each named entropy (a float) lies in [0, log d] within 1e-9."""
    for name, h in entropies.items():
        if not -_DEFICIT_TOL <= h <= log_d + _DEFICIT_TOL:
            raise ValueError(f"{name} = {h} outside [0, log d]")


def default_envelope_grid(n_alpha: int = 11, n_lam: int = 11) -> list:
    """Triples with lambda = mu in (0, alpha], lattice over both axes.

    Raises:
        ValueError: unless ``n_alpha`` and ``n_lam`` are integers >= 2.
    """
    alphas = np.linspace(0.0, 1.0, _count(n_alpha, "n_alpha", 2))[1:]
    ts = np.linspace(0.0, 1.0, _count(n_lam, "n_lam", 2))[1:]
    return [WeightTriple(float(a), float(t * a), float(t * a)) for a in alphas for t in ts]


def envelope_curve(c, s_grid, weight_grid=None,
                   opts: SolverOptions | None = None,
                   base: LogBase = LogBase.TWO):
    """Best lower estimate of H(X) + H(Y) over equal-weight triples, per entropy value.

    For each S in ``s_grid`` returns max over the grid of
    (alpha S + c_lower_bound) / lambda.  A value is a certified bound only
    where every norm it uses is a closed form; where the solver supplies a
    norm, its constant is an estimate (see :func:`c_lower_bound`).

    Args:
        weight_grid: iterable of WeightTriple with lam == mu > 0;
            defaults to :func:`default_envelope_grid`.

    Returns:
        Tuple (S values, envelope values) as float arrays.
    """
    s_vals = np.asarray(s_grid, dtype=float)
    triples = list(weight_grid) if weight_grid is not None else default_envelope_grid()
    if not triples:
        raise ValueError("weight grid is empty")
    for w in triples:
        if w.lam != w.mu or w.lam == 0.0:
            raise ValueError(f"envelope grid needs lambda = mu > 0, got {w}")
    env = np.full(s_vals.shape, -np.inf)
    for w, log_norm in zip(triples, _solve_weights(c, triples, opts, base)[2]):
        env = np.maximum(env, (w.alpha * s_vals + _constant(w, log_norm)) / w.lam)
    return s_vals, env
