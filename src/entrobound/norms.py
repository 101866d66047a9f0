"""r -> s operator norms of nonnegative matrices over the positive orthant.

For a doubly stochastic matrix C the norm ||C||_{r->s} admits closed
forms in several regimes (constant matrix, permutation matrix, s <= r,
and the r=1, s=inf corner).  Outside those regimes the norm is computed
by a multistart nonlinear power iteration.
Weighted entropic bounds use the exponents r = alpha/mu and
s = alpha/(alpha - lambda).

Engines that need many norms of one matrix (a weight lattice, a profile)
solve their numeric problems together: ``_stacked_ascent`` runs the power
step of ``_multistart_ascent`` on a ``(P, n, k)`` stack, one slice per
problem, and drops each problem from the stack once it stops.  A stacked
result has the bits of the single-problem one as long as every problem
keeps its own start bank as one slice (a stacked ``matmul`` equals the
per-slice product, but widening a bank with more columns moves the bits)
and no exponent in the stack is one at which NumPy's ``x ** e`` takes a
scalar fast path (-1, 1/2, 2); ``_numeric_many`` sends every other
problem to ``norm_numeric``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# Loaded with the package, not lazily by its first caller: every ascent seeds its starts.
from numpy.random import default_rng

from .errors import NormConsistencyError, SolverFailureError
from .overlap import _as_overlap
from .qmath import LogBase


@dataclass(frozen=True)
class WeightTriple:
    """Entropy weights (alpha, lambda, mu) with 0 <= lambda, mu <= alpha <= 1.

    Derived norm exponents: r = alpha/mu (infinite when mu = 0) and
    s = alpha/(alpha - lambda) (infinite when lambda = alpha).
    """

    alpha: float
    lam: float
    mu: float

    def __post_init__(self):
        a, l, m = self.alpha, self.lam, self.mu
        if not (0.0 <= l <= a <= 1.0 and 0.0 <= m <= a):
            raise ValueError(
                f"need 0 <= lambda, mu <= alpha <= 1, got alpha={a}, lambda={l}, mu={m}"
            )

    @property
    def r(self) -> float:
        return math.inf if self.mu == 0.0 else self.alpha / self.mu

    @property
    def s(self) -> float:
        return math.inf if self.lam == self.alpha else self.alpha / (self.alpha - self.lam)


@dataclass(frozen=True)
class SolverOptions:
    """Options for the multistart power iteration."""

    restarts: int = 64
    max_iterations: int = 10_000
    tolerance: float = 1e-11
    seed: int = 0


class NormMethod(str, enum.Enum):
    CLOSED_MUB = "closed_mub"
    CLOSED_IDENTITY = "closed_identity"
    CLOSED_S_LE_R = "closed_s_le_r"
    CLOSED_KMU = "closed_kmu"
    NUMERIC_MULTISTART = "numeric_multistart"


@dataclass(frozen=True)
class NormResult:
    """A computed r -> s norm.

    Attributes:
        value: the norm itself (base independent).
        log_value: logarithm of the value in the requested base.
        witness: maximizing nonnegative vector with unit r-norm.
        method: how the value was obtained.
        certified_bounds: (lower, upper) sandwich from the constant and
            permutation matrices; (0, inf) when no certificate applies.
    """

    value: float
    log_value: float
    witness: np.ndarray
    method: NormMethod
    certified_bounds: tuple


def _exponents(r=None, s=None, w: WeightTriple | None = None):
    if w is not None:
        if r is not None or s is not None:
            raise ValueError("pass either (r, s) or w, not both")
        return w.r, w.s
    if r is None or s is None:
        raise ValueError("pass either (r, s) or w")
    r, s = float(r), float(s)
    if not (r >= 1.0 and s >= 1.0):  # NaN fails both comparisons
        raise ValueError(f"exponents must be >= 1, got r={r}, s={s}")
    return r, s


def _scale_columns(v: np.ndarray) -> tuple:
    """(column maxima, v divided by them); all-zero columns stay as they are.

    Columns run down axis 0 of a 1-D (one column) or 2-D ``v`` and down
    axis 1 of a ``(P, n, k)`` stack, whose maxima keep that axis so they
    broadcast.  The zero guard is taken only when some maximum is not
    positive; indexing at ``argmin`` stands in for ``.min()``, which costs
    several times more on arrays this short.
    """
    if v.ndim == 3:
        vmax = np.maximum.reduce(v, axis=1, keepdims=True)
        low = vmax.min()
    else:
        vmax = np.maximum.reduce(v, axis=0)
        low = vmax if vmax.ndim == 0 else vmax[vmax.argmin()]
    if low > 0.0:
        return vmax, v / vmax
    return vmax, v / np.where(vmax > 0.0, vmax, 1.0)


def _column_sums(v: np.ndarray) -> np.ndarray:
    """Sums down the columns, laid out as in ``_scale_columns``."""
    if v.ndim == 3:
        return np.add.reduce(v, axis=1, keepdims=True)
    return np.add.reduce(v, axis=0)


def _scaled_pnorm(v: np.ndarray, p) -> tuple:
    """(p-norms of the columns of nonnegative ``v``, ``v`` over its column maxima).

    Scaling by the maximum keeps large finite p from overflowing.  The
    ascent kernel carries the scaled matrix into its next step, so this is
    the one definition of the objective's norm: its bits are pinned.  For
    a stack, ``p`` may be a ``(P, 1, 1)`` array of per-problem exponents.
    """
    vmax, scaled = _scale_columns(v)
    return vmax * _column_sums(scaled**p) ** (1.0 / p), scaled


def _pnorm(x: np.ndarray, p: float) -> np.ndarray:
    """p-norms of the columns of nonnegative ``x``, stable for large p."""
    if math.isinf(p):
        return x.max(axis=0)
    return _scaled_pnorm(x, p)[0]


def _ratio(c: np.ndarray, v: np.ndarray, r: float, s: float) -> float:
    """Objective ||C v||_s / ||v||_r for a single vector."""
    return float(_pnorm(c @ v, s) / _pnorm(v, r))


def norm_mub(d: int, r=None, s=None, w: WeightTriple | None = None) -> float:
    """Closed-form norm d**(1/s - 1/r) of the constant overlap matrix."""
    r, s = _exponents(r, s, w)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    inv_s = 0.0 if math.isinf(s) else 1.0 / s
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    return float(d) ** (inv_s - inv_r)


def norm_identity(d: int, r=None, s=None, w: WeightTriple | None = None) -> float:
    """Closed-form norm of the identity: d**(1/s - 1/r) if r >= s, else 1."""
    r, s = _exponents(r, s, w)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return norm_mub(d, r, s) if r >= s else 1.0


def mu_star(sigma2: float) -> float:
    """Largest equal weight mu = lambda inside the region: 1 / (1 + sigma2).

    Up to this weight the closed form d**(1/s - 1/r) is proven exact for
    d = 2 (two-point Bonami-Beckner).  For d >= 3 the equality up to mu*
    is refuted: the tracked census artifact
    ``tests/artifacts/equality_regime_counterexamples.csv`` holds
    replayable counterexamples.
    """
    if not 0.0 <= sigma2 <= 1.0:
        raise ValueError(f"sigma2 must lie in [0, 1], got {sigma2}")
    return 1.0 / (1.0 + sigma2)


def conjecture_region_contains(mu: float, lam: float, sigma2: float) -> bool:
    """Whether (mu, lambda) satisfies (1 - mu)(1 - lambda) >= mu lambda sigma2^2.

    The region is where the norm at exponents r = 1/mu, s = 1/(1 - lambda)
    was conjectured to equal the constant-matrix value d**(1/s - 1/r).
    For mu + lambda <= 1 (s <= r) that equality is a theorem at every d,
    and for d = 2 it holds on the whole region (two-point
    Bonami-Beckner).  For d >= 3 it is false in general: the census
    artifact ``tests/artifacts/equality_regime_counterexamples.csv``
    lists points inside the region whose witnesses exceed the closed
    form.  Membership here therefore proves equality only when d = 2 or
    mu + lambda <= 1.  The cross-multiplied form stays finite at mu = 1
    or lambda = 1, and mu = 0 or lambda = 0 is always inside.
    """
    if not (0.0 <= mu <= 1.0 and 0.0 <= lam <= 1.0):
        raise ValueError(f"weights must lie in [0, 1], got mu={mu}, lambda={lam}")
    if not 0.0 <= sigma2 <= 1.0:
        raise ValueError(f"sigma2 must lie in [0, 1], got {sigma2}")
    return (1.0 - mu) * (1.0 - lam) >= mu * lam * sigma2**2 - 1e-12


@lru_cache(maxsize=None)
def _complement_basis(d: int) -> np.ndarray:
    """Orthonormal basis (d x (d-1)) of the complement of the all-ones vector."""
    cols = np.column_stack([np.ones(d), np.eye(d)[:, : d - 1]])
    q, _ = np.linalg.qr(cols)
    return q[:, 1:]


def hessian_spectrum_at_ones(c, mu: float, lam: float) -> np.ndarray:
    """Eigenvalues of (1-mu)(1-lam) I - mu lam C^T C on the complement of ones.

    The uniform vector is a critical point of the norm objective for any
    doubly stochastic C; these eigenvalues decide whether it is a local
    maximum (all nonnegative) or develops an unstable direction.

    Returns:
        Ascending eigenvalues, length d - 1.
    """
    c = _as_overlap(c)
    if not c.is_doubly_stochastic():
        raise ValueError("matrix must be square doubly stochastic")
    m = c.matrix
    d = m.shape[0]
    q = _complement_basis(d)
    h = (1.0 - mu) * (1.0 - lam) * np.eye(d) - mu * lam * (m.T @ m)
    return np.linalg.eigvalsh(q.T @ h @ q)


def scan_2d_objective(theta: float, mu: float, lam: float, grid: int):
    """Scan the qubit norm objective along x = (1, z), z in [0, 1].

    For the rotation overlap at angle ``theta`` the full maximization
    reduces to one variable; by symmetry z and 1/z give the same value,
    so the unit interval covers everything.

    Args:
        theta: rotation angle in (0, pi/4].
        mu, lam: weights with 0 < mu <= 1 and 0 <= lam < 1.
        grid: number of scan points, >= 2.

    Returns:
        Tuple of arrays (z, f(z)/f(1)); the last point is z = 1.
    """
    if not 0.0 < theta <= math.pi / 4 + 1e-12:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta}")
    if not (0.0 < mu <= 1.0 and 0.0 <= lam < 1.0):
        raise ValueError(f"need 0 < mu <= 1 and 0 <= lambda < 1, got {mu}, {lam}")
    if grid < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid}")
    w = WeightTriple(1.0, lam, mu)
    t2 = math.tan(theta) ** 2
    z = np.linspace(0.0, 1.0, grid)
    num = _pnorm(np.stack([1.0 + z * t2, z + t2]), w.s)  # ||C (1, z)||_s / cos^2 theta
    den = _pnorm(np.stack([np.ones(grid), z]), w.r)  # ||(1, z)||_r
    f = math.cos(theta) ** 2 * num / den
    return z, f / f[-1]


def norm_closed_form(c, r=None, s=None, w: WeightTriple | None = None,
                     base: LogBase = LogBase.TWO) -> NormResult | None:
    """Closed-form norm of a doubly stochastic matrix, or None.

    Covered regimes: s <= r (any doubly stochastic matrix), the
    r = 1, s = inf corner (largest entry), the constant matrix, and
    permutation matrices.  Returns None otherwise, or when
    ``OverlapMatrix.is_doubly_stochastic`` is False at its default tolerance.
    """
    r, s = _exponents(r, s, w)
    c = _as_overlap(c)
    if not c.is_doubly_stochastic():
        return None
    m = c.matrix
    d = m.shape[0]
    if s <= r:
        value = norm_mub(d, r, s)
        witness = _uniform_unit_r(d, r)
        return _result(value, witness, NormMethod.CLOSED_S_LE_R, d, r, s, base)
    if r == 1.0 and math.isinf(s):
        flat = int(np.argmax(m))
        j = flat % d
        witness = np.zeros(d)
        witness[j] = 1.0
        return _result(float(m.max()), witness, NormMethod.CLOSED_KMU, d, r, s, base)
    if c._is_constant:
        return _result(norm_mub(d, r, s), _uniform_unit_r(d, r),
                       NormMethod.CLOSED_MUB, d, r, s, base)
    if c._is_permutation:
        value = norm_identity(d, r, s)
        witness = _uniform_unit_r(d, r) if r >= s else np.eye(d)[0]
        return _result(value, witness, NormMethod.CLOSED_IDENTITY, d, r, s, base)
    return None


def _unit_r(v: np.ndarray, r: float) -> np.ndarray:
    return v / _pnorm(v, r)


def _uniform_unit_r(d: int, r: float) -> np.ndarray:
    """``_unit_r(np.ones(d), r)`` without the reductions: 1**r = 1 and d ones sum to d."""
    return np.full(d, 1.0 / float(d) ** (1.0 / r))


def _result(value, witness, method, d, r, s, base) -> NormResult:
    bounds = (norm_mub(d, r, s), norm_identity(d, r, s))
    log_value = base.log(value) if value > 0.0 else -math.inf
    return NormResult(float(value), float(log_value), witness, method, bounds)


#: Both ascent loops stop after _STALL_STEPS steps in a row of relative growth <= _STALL_RTOL.
_STALL_STEPS, _STALL_RTOL = 60, 1e-13

#: Exponents at which NumPy's ``x ** e`` takes a scalar fast path whose
#: bits differ from those of the same exponent in an array.
_POW_FAST_PATHS = (-1.0, 0.5, 2.0)


def _start_bank(n: int, opts: SolverOptions) -> np.ndarray:
    """Starts of every ascent, as columns: all-ones, the basis, seeded randoms."""
    starts = [np.ones((n, 1)), np.eye(n)]
    if opts.restarts > 0:
        starts.append(default_rng(opts.seed).standard_exponential((n, opts.restarts)))
    return np.concatenate(starts, axis=1)


def _power_step(m, mt, x, f, yn, e, tol, best_f, best_x, converged):
    """One power step from unit-r points ``x`` with values ``f`` and scaled images ``yn``.

    Returns the new points, values and scaled images, and updates the
    best values and points seen and the convergence mask in place.
    ``x`` is ``(n, k)`` with scalar exponents ``e`` = (s - 1, 1/(r - 1),
    r, 1/r, s), or a ``(P, n, k)`` stack with ``(P, 1, 1)`` exponent arrays.
    """
    s_minus_1, inv_r_minus_1, r, inv_r, s = e
    xn = _scale_columns(mt @ yn**s_minus_1)[1] ** inv_r_minus_1
    nrm = _column_sums(xn**r) ** inv_r
    dead = nrm <= 0.0
    if np.count_nonzero(dead):
        xn = np.where(dead, x, xn)
        nrm = np.where(dead, 1.0, nrm)
    xn = xn / nrm
    fn, yn = _scaled_pnorm(m @ xn, s)
    rel = np.abs(fn - f) / np.maximum(fn, 1e-300)
    converged |= rel < tol
    improved = fn > best_f
    np.copyto(best_f, fn, where=improved)
    np.copyto(best_x, xn, where=improved)
    return xn, fn, yn


def _multistart_ascent(m, r, s, opts):
    """Vectorized power iteration over a bank of starts; returns best point.

    The objective is ``_scaled_pnorm``, the body of ``_pnorm``, and the
    loop keeps the scaled ``m @ x`` it returns: that is the normalised
    vector the next step starts from.  A new point is ``mt @ yn**(s - 1)``
    divided by its column maxima and raised to 1/(r - 1), so every nonzero
    column has a maximum of exactly 1.0 (x / x = 1 and 1 ** p = 1) and its
    r-norm is the plain sum of powers; an all-zero column sums to 0 and
    keeps its previous point.  There is no line search: by Hoelder's
    inequality a step cannot lower the objective in exact arithmetic
    (Boyd 1974), so a drop is rounding, and ``best_x`` keeps the best
    point seen.

    This is the single-problem loop; ``_stacked_ascent`` runs the same
    ``_power_step`` and stop rules on many problems at once and returns
    the same bits when each problem keeps this start bank as its own
    slice (never widened with other problems' columns) and no exponent
    in the stack is a NumPy fast-path power (see ``_stackable``).
    """
    x = _start_bank(m.shape[1], opts)
    x = x / _pnorm(x, r)
    mt = m.T
    e = (s - 1.0, 1.0 / (r - 1.0), r, 1.0 / r, s)
    tol = opts.tolerance
    f, yn = _scaled_pnorm(m @ x, s)
    best_f, best_x = f.copy(), x.copy()
    converged = np.zeros(x.shape[1], dtype=bool)
    stall, last_best = 0, best_f[best_f.argmax()]
    for _ in range(opts.max_iterations):
        x, f, yn = _power_step(m, mt, x, f, yn, e, tol, best_f, best_x, converged)
        # Indexing at argmin/argmax stands in for .all() and .max(): on
        # arrays this short it costs a fraction of the reduction's overhead.
        if converged[converged.argmin()]:
            break
        top = best_f[best_f.argmax()]
        if top <= last_best * (1.0 + _STALL_RTOL):
            stall += 1
            if stall >= _STALL_STEPS:
                break
        else:
            stall = 0
        last_best = top
    else:
        if not converged.any():
            raise _no_convergence(best_f, best_x)
    return _best_start(best_f, best_x)


def _best_start(best_f, best_x) -> np.ndarray:
    """The best point of an ascent whose starts are the columns of ``best_x``."""
    return best_x[:, int(np.argmax(best_f))]


def _no_convergence(best_f, best_x) -> SolverFailureError:
    """The failure of an ascent none of whose starts converged."""
    j = int(np.argmax(best_f))
    return SolverFailureError(
        "no start of the power iteration converged",
        best_value=float(best_f[j]),
        best_point=best_x[:, j],
    )


def _stacked_ascent(m, exps, opts) -> list:
    """``_multistart_ascent(m, r, s, opts)`` for every (r, s) in ``exps`` at once.

    Each problem is one slice of a ``(P, n, k)`` stack with its own start
    bank, convergence mask, ``_STALL_STEPS`` stall counter and best points; a
    problem leaves the stack at the step at which its single-problem loop
    would stop.  Returns, per problem in order, the witness or the
    ``SolverFailureError`` the single-problem loop would raise.
    """
    p = len(exps)
    r = np.array([e[0] for e in exps]).reshape(p, 1, 1)
    s = np.array([e[1] for e in exps]).reshape(p, 1, 1)
    x0 = _start_bank(m.shape[1], opts)
    x = x0 / _scaled_pnorm(np.broadcast_to(x0, (p,) + x0.shape), r)[0]
    mt = m.T
    e = [s - 1.0, 1.0 / (r - 1.0), r, 1.0 / r, s]
    tol = opts.tolerance
    f, yn = _scaled_pnorm(m @ x, s)
    best_f, best_x = f.copy(), x.copy()
    converged = np.zeros(f.shape, dtype=bool)
    stall = np.zeros(p, dtype=int)
    last_best = best_f.max(axis=(1, 2))
    live = np.arange(p)  # input position of each slice
    out = [None] * p
    for _ in range(opts.max_iterations):
        x, f, yn = _power_step(m, mt, x, f, yn, e, tol, best_f, best_x, converged)
        top = best_f.max(axis=(1, 2))
        stall = np.where(top <= last_best * (1.0 + _STALL_RTOL), stall + 1, 0)
        last_best = top
        done = converged.all(axis=(1, 2)) | (stall >= _STALL_STEPS)
        if done.any():
            for i in np.flatnonzero(done):
                out[live[i]] = _best_start(best_f[i, 0], best_x[i])
            keep = ~done
            if not keep.any():
                return out
            live, x, yn, f, best_f, best_x, converged, stall, last_best = (
                a[keep] for a in (live, x, yn, f, best_f, best_x, converged, stall, last_best))
            e = [a[keep] for a in e]
    for i, j in enumerate(live):  # stopped by the iteration cap
        finish = _best_start if converged[i].any() else _no_convergence
        out[j] = finish(best_f[i, 0], best_x[i])
    return out


def _stackable(r: float, s: float) -> bool:
    """Whether the problem (r, s) keeps its single-problem bits in a stack.

    Boundary exponents take their exact reductions in ``norm_numeric``.
    Every power the ascent takes must avoid ``_POW_FAST_PATHS``, which
    NumPy applies to a scalar exponent but not to an exponent array.
    """
    if not (1.0 < r < math.inf and 1.0 < s < math.inf):
        return False
    powers = (s - 1.0, 1.0 / (r - 1.0), r, s, 1.0 / r, 1.0 / s)
    return not any(e in _POW_FAST_PATHS for e in powers)


def norm_numeric(c, r=None, s=None, w: WeightTriple | None = None,
                 opts: SolverOptions | None = None,
                 base: LogBase = LogBase.TWO) -> NormResult:
    """Numerically maximize ||C x||_s / ||x||_r over the nonnegative orthant.

    Interior exponents use a multistart power iteration (starts: the
    all-ones vector, every standard basis vector, and ``opts.restarts``
    seeded random positive vectors).  Boundary exponents
    reduce exactly: r = 1 picks the best column, s = inf the best row
    (via its Hoelder dual vector), r = inf the all-ones vector, and
    s = 1 the dual of the column sums.

    The result is checked against the closed form when one applies and,
    for doubly stochastic input, against the certified sandwich between
    the constant-matrix and identity values.

    Raises:
        SolverFailureError: if no start converges within max_iterations.
        NormConsistencyError: if a certified check fails.
    """
    r, s = _exponents(r, s, w)
    c = _as_overlap(c)
    m = c.matrix
    opts = opts or SolverOptions()
    n = m.shape[1]
    if r == 1.0:
        col = _pnorm(m, s)
        j = int(np.argmax(col))
        witness = np.zeros(n)
        witness[j] = 1.0
        value = float(col[j])
    elif math.isinf(r):
        witness = np.ones(n)
        value = float(_pnorm(m @ witness, s))
    elif math.isinf(s):
        rstar = r / (r - 1.0)
        rows = _pnorm(m.T, rstar)
        i = int(np.argmax(rows))
        witness = _unit_r(m[i] ** (rstar - 1.0), r) if rows[i] > 0.0 else np.eye(n)[0]
        value = _ratio(m, witness, r, s)
    elif s == 1.0:
        rstar = r / (r - 1.0)
        sums = m.sum(axis=0)
        witness = _unit_r(sums ** (rstar - 1.0), r) if sums.max() > 0.0 else np.eye(n)[0]
        value = _ratio(m, witness, r, s)
    else:
        witness = _multistart_ascent(m, r, s, opts)
        value = _ratio(m, witness, r, s)
    return _numeric_result(c, r, s, witness, value, base)


def _numeric_result(c, r, s, witness, value, base) -> NormResult:
    """Check a numeric value against what is certified and package it."""
    m = c.matrix
    if c.is_doubly_stochastic():
        d = m.shape[0]
        lo, hi = norm_mub(d, r, s), norm_identity(d, r, s)
        if not (lo - 1e-9 <= value <= hi + 1e-9):
            raise NormConsistencyError(
                f"numeric norm {value!r} escapes certified bounds [{lo!r}, {hi!r}]"
            )
        closed = norm_closed_form(c, r, s, base=base)
        if closed is not None and abs(value - closed.value) > 1e-7 * max(1.0, closed.value):
            raise NormConsistencyError(
                f"numeric norm {value!r} disagrees with closed form {closed.value!r}"
            )
        bounds = (lo, hi)
    else:
        bounds = (0.0, math.inf)
    log_value = base.log(value) if value > 0.0 else -math.inf
    return NormResult(value, float(log_value), witness,
                      NormMethod.NUMERIC_MULTISTART, bounds)


def _numeric_many(c, exps, opts: SolverOptions | None = None,
                  base: LogBase = LogBase.TWO):
    """Yield ``norm_numeric(c, r, s, opts=opts, base=base)`` for each (r, s), in order.

    When two or more problems are ``_stackable`` they are solved in one
    ``_stacked_ascent`` before the first result is yielded; every other
    problem goes to ``norm_numeric`` when its turn comes.  Results and
    errors come out in input order, with the bits, messages and values of
    the per-problem calls.
    """
    c = _as_overlap(c)
    opts = opts or SolverOptions()
    exps = [_exponents(r, s) for r, s in exps]
    stack = [i for i, (r, s) in enumerate(exps) if _stackable(r, s)]
    solved = {}
    if len(stack) > 1:
        solved = dict(zip(stack, _stacked_ascent(c.matrix, [exps[i] for i in stack], opts)))
    for i, (r, s) in enumerate(exps):
        if i not in solved:
            yield norm_numeric(c, r, s, opts=opts, base=base)
            continue
        witness = solved[i]
        if isinstance(witness, SolverFailureError):
            raise witness
        yield _numeric_result(c, r, s, witness, _ratio(c.matrix, witness, r, s), base)


def norm(c, w: WeightTriple | None = None, opts: SolverOptions | None = None,
         base: LogBase = LogBase.TWO, *, r=None, s=None) -> NormResult:
    """Norm at exponents (r, s) or a weight triple's: closed form if available, else numeric."""
    r, s = _exponents(r, s, w)
    c = _as_overlap(c)  # validated once for both paths
    closed = norm_closed_form(c, r, s, base=base)
    if closed is not None:
        return closed
    return norm_numeric(c, r, s, opts=opts, base=base)


def _norm_many(c, weights, opts: SolverOptions | None = None,
               base: LogBase = LogBase.TWO):
    """Yield ``norm(c, w, opts, base)`` for each triple, numeric misses via ``_numeric_many``."""
    c = _as_overlap(c)
    closed = [norm_closed_form(c, w=w, base=base) for w in weights]
    numeric = _numeric_many(c, [(w.r, w.s) for w, cl in zip(weights, closed) if cl is None],
                            opts, base)
    for cl in closed:
        yield cl if cl is not None else next(numeric)


def feasible_weight_grid(sigma2: float, n: int = 21) -> list:
    """Lattice points (mu, lambda) in [0, 1]^2 inside the conjectured region."""
    if n < 2:
        raise ValueError(f"grid must have at least 2 points per axis, got {n}")
    axis = np.linspace(0.0, 1.0, n)
    return [
        (float(mu), float(lam))
        for mu in axis
        for lam in axis
        if conjecture_region_contains(float(mu), float(lam), sigma2)
    ]
