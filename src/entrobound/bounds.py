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

from .errors import ConjectureViolationError
from .norms import (
    NormMethod,
    SolverOptions,
    WeightTriple,
    _norm_many,
    mu_star,
    norm,
    norm_mub,
    norm_numeric,
)
from .overlap import _as_overlap, build_overlap
from .qmath import (
    DensityMatrix,
    LogBase,
    ProjectiveMeasurement,
    measurement_distribution,
    shannon_entropy,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the weighted uncertainty bound.

    ``gap = lhs - rhs`` is nonnegative up to numerical noise (-1e-8).
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
    """Additive constant -alpha log ||C||_{r->s}; zero when alpha = 0."""
    if w.alpha == 0.0:
        return 0.0
    res = norm(c, w, opts=opts, base=base)
    return -w.alpha * res.log_value


def evaluate_eur(rho: DensityMatrix, x: ProjectiveMeasurement,
                 y: ProjectiveMeasurement, w: WeightTriple,
                 opts: SolverOptions | None = None,
                 base: LogBase = LogBase.TWO) -> BoundReport:
    """Evaluate lambda H(X) + mu H(Y) against alpha S(rho) + c for one state."""
    h_x = shannon_entropy(measurement_distribution(rho, x), base)
    h_y = shannon_entropy(measurement_distribution(rho, y), base)
    lhs = w.lam * h_x + w.mu * h_y
    if w.alpha == 0.0:
        c_val, method = 0.0, NormMethod.CLOSED_S_LE_R
    else:
        res = norm(build_overlap(x, y), w, opts=opts, base=base)
        c_val, method = -w.alpha * res.log_value, res.method
    rhs = w.alpha * von_neumann_entropy(rho, base) + c_val
    return BoundReport(lhs, rhs, lhs - rhs, c_val, method, w)


def qudit_eur_rhs(sigma2: float, d: int, s_rho: float,
                  base: LogBase = LogBase.TWO) -> float:
    """Conjectured qudit bound (1 + sigma2) S + (1 - sigma2) log d.

    Valid whenever the extended equality regime holds at the optimal
    equal weights; exact for sigma2 = 0 and sigma2 = 1.
    """
    if not 0.0 <= sigma2 <= 1.0:
        raise ValueError(f"sigma2 must lie in [0, 1], got {sigma2}")
    log_d = base.log(d)
    if not -1e-9 <= s_rho <= log_d + 1e-9:
        raise ValueError(f"entropy {s_rho} outside [0, log d]")
    return (1.0 + sigma2) * s_rho + (1.0 - sigma2) * log_d


def _entries_desc(c) -> np.ndarray:
    return np.sort(_as_overlap(c).matrix.ravel())[::-1]


def _bccrr_constant(ent: np.ndarray, base: LogBase) -> float:
    """-log c1 from the entries in descending order."""
    return -base.log(float(ent[0]))


def _rpz2_constant(ent: np.ndarray, base: LogBase) -> tuple:
    """(c1, c2, C, -log[c1 C^2 + c2 (1 - C^2)]) from the entries in descending order."""
    c1, c2 = float(ent[0]), float(ent[1])
    big_c = (1.0 + np.sqrt(c1)) / 2.0
    return c1, c2, big_c, -base.log(c1 * big_c**2 + c2 * (1.0 - big_c**2))


def bccrr_rhs(c, s_rho: float, base: LogBase = LogBase.TWO) -> float:
    """Largest-overlap bound S - log c1."""
    return s_rho + _bccrr_constant(_entries_desc(c), base)


def rpz2_rhs(c, s_rho: float, base: LogBase = LogBase.TWO) -> float:
    """Second-overlap bound S - log[c1 C^2 + c2 (1 - C^2)], C = (1 + sqrt(c1))/2.

    c1 and c2 are the two largest entries of the overlap matrix, counted
    with multiplicity.
    """
    return s_rho + _rpz2_constant(_entries_desc(c), base)[3]


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
    if on_violation not in ("raise", "use_numeric"):
        raise ValueError(f"unknown on_violation mode {on_violation!r}")
    c = _as_overlap(c)
    m = c.matrix
    if m.shape[0] != m.shape[1]:
        raise ValueError("comparison requires a square overlap matrix")
    d = m.shape[0]
    sigma2 = min(c.sigma2, 1.0)
    ms = mu_star(sigma2)
    w = WeightTriple(1.0, ms, ms)
    conjectured = norm_mub(d, w=w)
    if d == 2 and c.is_doubly_stochastic():
        conjecture_ok = True  # the d = 2 theorem above
    else:
        numeric = norm_numeric(c, w=w, opts=opts, base=base)
        conjecture_ok = numeric.value <= conjectured + 1e-7 * max(1.0, conjectured)
    if conjecture_ok:
        ours = (1.0 - sigma2) * base.log(d)
    elif on_violation == "raise":
        raise ConjectureViolationError(
            f"norm at optimal weights is {numeric.value!r}, conjectured {conjectured!r}"
        )
    else:
        ours = -(1.0 + sigma2) * base.log(numeric.value)
    ent = _entries_desc(c)
    bccrr = _bccrr_constant(ent, base)
    c1, c2, big_c, rpz2 = _rpz2_constant(ent, base)
    flag = ours >= max(bccrr, rpz2) - 1e-12
    return ComparisonRow(c1, c2, float(big_c), float(ours), float(bccrr),
                         float(rpz2), bool(flag), bool(conjecture_ok))


def entropy_upper_bound(h_x: float, h_y: float, c, grid=None,
                        opts: SolverOptions | None = None,
                        base: LogBase = LogBase.TWO) -> float:
    """Upper bound on S(rho) from measured entropies: min over a weight grid.

    Each grid point (lambda, mu) with alpha = 1 contributes
    lambda h_x + mu h_y - c_lower_bound; the mutually-unbiased corner
    (1, 1) is always added, so the result never exceeds the plain
    largest-overlap value.  All points are solved in one ``_norm_many`` pass.

    Args:
        grid: iterable of (lambda, mu) pairs; defaults to the corner only.
    """
    pairs = [(1.0, 1.0)] + ([] if grid is None else list(grid))
    triples = [WeightTriple(1.0, float(l), float(m)) for l, m in pairs]
    log_norms = np.array([res.log_value for res in _norm_many(c, triples, opts, base)])
    lam, mu = np.array([(w.lam, w.mu) for w in triples]).T
    # - c_lower_bound = -(-alpha * log_norm) = log_norm exactly, at alpha = 1.
    return float(np.min(lam * h_x + mu * h_y + log_norms))


def default_envelope_grid(n_alpha: int = 11, n_lam: int = 11) -> list:
    """Triples with lambda = mu in (0, alpha], lattice over both axes."""
    grid = []
    for a in np.linspace(0.0, 1.0, n_alpha)[1:]:
        for t in np.linspace(0.0, 1.0, n_lam)[1:]:
            grid.append(WeightTriple(float(a), float(t * a), float(t * a)))
    return grid


def envelope_curve(c, s_grid, weight_grid=None,
                   opts: SolverOptions | None = None,
                   base: LogBase = LogBase.TWO):
    """Best bound on H(X) + H(Y) over equal-weight triples, per entropy value.

    For each S in ``s_grid`` returns max over the grid of
    (alpha S + c_lower_bound) / lambda.

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
    for w, res in zip(triples, _norm_many(c, triples, opts=opts, base=base)):
        c_val = -w.alpha * res.log_value  # c_lower_bound; alpha >= lambda > 0
        env = np.maximum(env, (w.alpha * s_vals + c_val) / w.lam)
    return s_vals, env
