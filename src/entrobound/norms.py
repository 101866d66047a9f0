"""r -> s operator norms of nonnegative matrices over the positive orthant.

For a doubly stochastic matrix C the norm ||C||_{r->s} admits closed
forms in several regimes (constant matrix, permutation matrix, s <= r,
and the r=1, s=inf corner).  Outside those regimes the norm is computed
by a multistart nonlinear power iteration.
Weighted entropic bounds use the exponents r = alpha/mu and
s = alpha/(alpha - lambda).

Every numeric problem is a ``(matrix, r, s)`` triple, and every many-norm
engine passes ``(item, problem)`` pairs to ``_numeric_many``, the one
in-order pipeline: it reads pairs lazily, at most ``_WINDOW_PROBLEMS``
ahead of its ``(item, result)`` output, and sends interior problems into
``_stacked_ascent``, the one ascent loop: one stack of at most
``_STACK_FLOATS`` start-bank floats, a dict of arrays whose fields
``_admit`` names, that takes problems into the slots finished ones free,
across matrix shapes fitted to the stack's (``_fit``).  A pair whose
problem is None carries its answer in its item (``_norm_many``'s closed
forms, ``bounds._compare_many``'s proven rows) and holds its place in the
same order.  Each problem gets the bits it gets alone; ``norm_numeric``
and ``norm`` are one-pair passes.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# Loaded with the package, not lazily by its first caller: every ascent seeds its starts.
from numpy.random import default_rng

from .certify import _stackable
from .errors import NormConsistencyError, SolverFailureError
from .overlap import _as_overlap
from .qmath import LogBase, _count


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

    def __post_init__(self):
        # Plain Python numbers: a NumPy scalar is not JSON, and configs are hashed as JSON.
        for name, least in (("restarts", 0), ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, least))
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, numbers.Real):
            raise ValueError(f"tolerance must be a real number, got {self.tolerance!r}")
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


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


def _rows_first(v: np.ndarray) -> np.ndarray:
    """A ``(P, n, k)`` stack as a C-contiguous ``(n, P, k)`` array.

    NumPy reduces over the first axis of that copy several times faster
    than over the short middle axis of the stack, and in the same order:
    row by row, so a sum has the same bits (the stack's k is at least 2).
    """
    return np.ascontiguousarray(v.transpose(1, 0, 2))


def _scale_columns(v: np.ndarray) -> tuple:
    """(column maxima, v divided by them); all-zero columns stay as they are.

    Columns run down axis 0 of a 1-D (one column) or 2-D ``v`` and down
    axis 1 of a ``(P, n, k)`` stack, whose maxima keep that axis so they
    broadcast.  The zero guard is taken only when some maximum is not
    positive; indexing at ``argmin`` stands in for ``.min()``, which costs
    several times more on arrays this short.
    """
    if v.ndim == 3:
        vmax = np.maximum.reduce(_rows_first(v))[:, None]
    else:
        vmax = np.maximum.reduce(v, axis=0)
    low = vmax.ravel()[vmax.argmin()]
    if low > 0.0:
        return vmax, v / vmax
    return vmax, v / np.where(vmax > 0.0, vmax, 1.0)


def _column_sums(v: np.ndarray) -> np.ndarray:
    """Sums down the columns, laid out as in ``_scale_columns``."""
    if v.ndim == 3:
        return np.add.reduce(_rows_first(v))[:, None]
    return np.add.reduce(v, axis=0)


def _power(x: np.ndarray, e) -> np.ndarray:
    """``x ** e`` for a number or a ``_slot`` of per-problem exponents.

    A slot's fast-path problems are overwritten with the power of their
    scalar exponent, so each problem gets the bits its exponent gives alone.
    """
    if not isinstance(e, tuple):
        return x**e
    values, masks = e
    y = x**values
    for v, mask in masks:
        np.copyto(y, x**v, where=mask)
    return y


def _scaled_pnorm(v: np.ndarray, p, inv_p) -> tuple:
    """(p-norms of the columns of nonnegative ``v``, ``v`` over its column maxima).

    Scaling by the maximum keeps large finite p from overflowing.  The
    ascent kernel carries the scaled matrix into its next step, so this is
    the one definition of the objective's norm: its bits are pinned.
    ``inv_p`` is 1/p; for a stack, both may be ``_slot``s of per-problem
    exponents.
    """
    vmax, scaled = _scale_columns(v)
    return vmax * _power(_column_sums(_power(scaled, p)), inv_p), scaled


def _pnorm(x: np.ndarray, p: float) -> np.ndarray:
    """p-norms of the columns of nonnegative ``x``, stable for large p."""
    if math.isinf(p):
        return x.max(axis=0)
    return _scaled_pnorm(x, p, 1.0 / p)[0]


def _ratio(c: np.ndarray, v: np.ndarray, r: float, s: float) -> float:
    """Objective ||C v||_s / ||v||_r for a single vector."""
    return float(_pnorm(c @ v, s) / _pnorm(v, r))


def norm_mub(d: int, r=None, s=None, w: WeightTriple | None = None) -> float:
    """Closed-form norm d**(1/s - 1/r) of the constant overlap matrix."""
    r, s = _exponents(r, s, w)
    d = _count(d, "dimension", 1)
    inv_s = 0.0 if math.isinf(s) else 1.0 / s
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    return float(d) ** (inv_s - inv_r)


def norm_identity(d: int, r=None, s=None, w: WeightTriple | None = None) -> float:
    """Closed-form norm of the identity: d**(1/s - 1/r) if r >= s, else 1."""
    r, s = _exponents(r, s, w)
    d = _count(d, "dimension", 1)
    return norm_mub(d, r, s) if r >= s else 1.0


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
    grid = _count(grid, "grid", 2)
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
    if c._is_permutation:  # s > r here, where the identity's norm is 1
        return _result(1.0, np.eye(d)[0], NormMethod.CLOSED_IDENTITY, d, r, s, base)
    return None


def _unit_r(v: np.ndarray, r: float) -> np.ndarray:
    return v / _pnorm(v, r)


def _uniform_unit_r(d: int, r: float) -> np.ndarray:
    """``_unit_r(np.ones(d), r)`` without the reductions: 1**r = 1 and d ones sum to d."""
    return np.full(d, 1.0 / float(d) ** (1.0 / r))


def _log_norm(value: float, base: LogBase) -> float:
    """The log of a norm value in ``base``; -inf for a zero norm."""
    return float(base.log(value)) if value > 0.0 else -math.inf


def _result(value, witness, method, d, r, s, base) -> NormResult:
    bounds = (norm_mub(d, r, s), norm_identity(d, r, s))
    return NormResult(float(value), _log_norm(value, base), witness, method, bounds)


#: The ascent stops after _STALL_STEPS steps in a row of relative growth <= _STALL_RTOL.
_STALL_STEPS, _STALL_RTOL = 60, 1e-13

#: Exponents at which NumPy's ``x ** e`` takes a fast path (reciprocal,
#: sqrt, square) for a scalar or size-1 exponent but not for a larger
#: exponent array; the fast path's bits differ from the general power's.
#: A stack that mixes them with other exponents masks them (``_slot``).
_POW_FAST_PATHS = (-1.0, 0.5, 2.0)

#: Most start-bank floats in the ascent stack, n * (1 + n + restarts) per
#: problem at the stack's padded column count n: 128 KiB per ``(P, n, k)``
#: array (455 problems at d = 3 with 8 restarts, 65 at d = 12).  A larger
#: matrix shape joins the stack once the live problems, padded to it, hold
#: at most 1/_GROW_SHARE of these floats, so padding costs arithmetic only
#: in a tail.
_STACK_FLOATS = 2**14
_GROW_SHARE = 10

#: ``_numeric_many`` reads ahead of its results while fewer than
#: _WINDOW_PROBLEMS pairs, problem-less ones included, are read and not yet
#: yielded, so a slow problem at the head of one dimension does not stall
#: the next dimensions' reads.  The count bounds the matrices and Python
#: objects each pending pair holds along an engine's pipeline (about
#: 0.7 kB in the census).
_WINDOW_PROBLEMS = 1024


def _pad(a: np.ndarray, rows: int, width: int) -> np.ndarray:
    """``a`` (..., n, k) fitted to (..., rows, width): cut, then zero rows and copies of column 0.

    Zero rows leave every product, maximum and sum of a point unchanged,
    and a copy of the all-ones start column evolves exactly as that column
    does, so it changes no result; a cut drops only such padding.
    """
    a = a[..., :rows, :width]
    n, k = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (rows, width), a.dtype)
    out[..., :n, :k] = a
    out[..., :n, k:] = a[..., :1]
    return out


def _best_start(best_f, best_x) -> np.ndarray:
    """The best point of an ascent whose starts are the columns of ``best_x``.

    A copy: a view would keep the whole of ``best_x`` alive, and in a stack
    that is the stack's copy from the step at which the problem left it.
    """
    return best_x[:, int(np.argmax(best_f))].copy()


def _no_convergence(best_f, best_x) -> SolverFailureError:
    """The failure of an ascent none of whose starts converged."""
    j = int(np.argmax(best_f))
    return SolverFailureError(
        "no start of the power iteration converged",
        best_value=float(best_f[j]),
        best_point=best_x[:, j].copy(),
    )


def _slot(a: np.ndarray):
    """One exponent of every problem in a stack, for ``_power``.

    A float if every problem shares it, else ``(values, masks)``: the
    ``(P, 1, 1)`` exponents and, for each ``_POW_FAST_PATHS`` value that
    some problems hold, ``(value, (P, 1, 1) mask of those problems)``.
    """
    first = float(a[0])
    if (a == first).all():
        return first
    masks = [(v, m.reshape(-1, 1, 1)) for v in _POW_FAST_PATHS if (m := a == v).any()]
    return a.reshape(-1, 1, 1), masks


def _slot_keep(e, keep: np.ndarray):
    """The slot ``e`` of the problems ``keep`` selects; a mask that selects none is dropped."""
    if not isinstance(e, tuple):
        return e
    values, masks = e
    masks = [(v, m) for v, m in ((v, m[keep]) for v, m in masks) if np.count_nonzero(m)]
    return values[keep], masks


@lru_cache(maxsize=64)
def _start_bank(n: int, cols: int, opts: SolverOptions) -> np.ndarray:
    """Starts of an n-column ascent (all-ones, the basis, seeded randoms) in a stack's shape.

    The starts are the columns, padded to ``(cols, 1 + cols + restarts)`` as in ``_pad``.
    Read-only: every admission of the shape shares it.
    """
    starts = [np.ones((n, 1)), np.eye(n)]
    if opts.restarts > 0:
        starts.append(default_rng(opts.seed).standard_exponential((n, opts.restarts)))
    bank = _pad(np.concatenate(starts, axis=1), cols, 1 + cols + opts.restarts)
    bank.flags.writeable = False
    return bank


def _admit(st: dict, batch: list, step: int, rows: int, cols: int, opts: SolverOptions) -> dict:
    """The stack state ``st`` with the ``(key, matrix, r, s)`` problems of ``batch`` appended.

    The state is ``_stacked_ascent``'s dict of arrays, ``{}`` when empty,
    with one leading entry per live problem in admission order: ``keys``
    (the feed's), ``dims`` (the matrix's own shape), ``exps`` (s - 1,
    1/(r - 1), r, 1/r, s and 1/s), ``admitted`` (the step its steps count
    from), ``stall`` and ``last_best`` (steps in a row without growth of
    the best objective, and that objective); the ``(rows, cols)`` matrix
    ``m``; the current and best points ``x`` and ``best_x``, one column per
    start at ``(cols, width)`` with width 1 + cols + restarts; the scaled
    ``m @ x``, ``yn``, at ``(rows, width)``; and ``f``, ``best_f`` and
    ``converged`` at ``(1, width)``.  Each new matrix and start bank is
    padded to that shape; the new problems take their first objective
    values here.
    """
    keys, mats, r, s = zip(*batch)
    m = np.zeros((len(mats), rows, cols))
    for slice_, mat in zip(m, mats):
        slice_[: mat.shape[0], : mat.shape[1]] = mat
    x0 = np.stack([_start_bank(mat.shape[1], cols, opts) for mat in mats])
    r, s = np.array(r), np.array(s)
    x = x0 / _scaled_pnorm(x0, _slot(r), _slot(1.0 / r))[0]
    f, yn = _scaled_pnorm(m @ x, _slot(s), _slot(1.0 / s))
    new = dict(keys=np.array(keys), dims=np.array([mat.shape for mat in mats]),
               exps=np.stack([s - 1.0, 1.0 / (r - 1.0), r, 1.0 / r, s, 1.0 / s], axis=1),
               admitted=np.full(len(mats), step), stall=np.zeros(len(mats), dtype=int),
               last_best=f.max(axis=(1, 2)), m=m, x=x, yn=yn, f=f, best_f=f.copy(),
               best_x=x.copy(), converged=np.zeros(f.shape, dtype=bool))
    return {k: np.concatenate((st[k], a)) for k, a in new.items()} if st else new


def _stacked_ascent(feed, opts):
    """Multistart power iteration of every problem ``feed`` gives, in one refilling stack.

    ``feed`` yields ``(key, matrix, r, s)`` per problem, or None while it
    has none to give; it is asked again after the next step.  Problems
    enter the stack in that order, into the slots that stopped problems
    free, up to ``_STACK_FLOATS`` start-bank floats.  The stack has one
    padded shape (``_pad``): a smaller matrix gets zero rows and columns,
    its points zero rows, and its start bank copies of its all-ones start
    column.  A larger shape enters once the live problems, padded to it,
    hold at most 1/_GROW_SHARE of those floats, and the stack is cut back
    to the largest live shape as problems leave.  The state is the dict of
    arrays ``_admit`` names, one slice per problem with its own start bank,
    convergence mask, ``_STALL_STEPS`` stall counter, best points and
    ``opts.max_iterations`` steps counted from its admission; each turn
    reads the problem count and shape from it.  After each step, and each
    turn with an empty stack, yields the ``(key, result)`` pairs of the
    problems that stopped: the best point, cut to the problem's own
    length, or the ``SolverFailureError`` of an ascent none of whose starts
    converged within its steps.

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

    A problem gets the same bits in any stack, alone included: a stacked
    ``matmul`` equals the per-slice product, zero padding adds only exact
    zeros to its sums, a copy of the all-ones column never beats the
    column it copies, and each of the six exponents s - 1, 1/(r - 1), r,
    1/r, s and 1/s is a ``_slot``: a scalar where every problem shares it,
    so NumPy takes the fast paths of ``_POW_FAST_PATHS`` exactly where a
    lone problem would, and otherwise an array whose fast-path problems
    ``_power`` overwrites with their scalar power.
    """
    restarts, tol, max_steps = opts.restarts, opts.tolerance, opts.max_iterations
    step, st, e, waiting, exhausted = 0, {}, [], None, False
    while True:
        p = len(st["keys"]) if st else 0
        rows, cols = st["m"].shape[1:] if st else (0, 0)
        batch = []
        while not exhausted:
            if waiting is None:
                try:
                    waiting = next(feed)
                except StopIteration:
                    exhausted = True
                    break
                if waiting is None:
                    break
            grown = (max(rows, waiting[1].shape[0]), max(cols, waiting[1].shape[1]))
            if grown != (rows, cols):
                if batch or p * grown[1] * (1 + grown[1] + restarts) > _STACK_FLOATS // _GROW_SHARE:
                    break
                if p:
                    st = _fit(st, *grown, opts)
                rows, cols = grown
            if p + len(batch) >= max(1, _STACK_FLOATS // (cols * (1 + cols + restarts))):
                break
            batch.append(waiting)
            waiting = None
        if batch:
            st = _admit(st, batch, step, rows, cols, opts)
            e = [_slot(a) for a in st["exps"].T]
        elif not p:
            yield ()
            if exhausted:
                return
            continue
        s_minus_1, inv_r_minus_1, r, inv_r, s, inv_s = e
        xn = _power(_scale_columns(np.swapaxes(st["m"], -1, -2) @ _power(st["yn"], s_minus_1))[1],
                    inv_r_minus_1)
        nrm = _power(_column_sums(_power(xn, r)), inv_r)
        dead = nrm <= 0.0
        if np.count_nonzero(dead):
            xn = np.where(dead, st["x"], xn)
            nrm = np.where(dead, 1.0, nrm)
        xn /= nrm  # in place: the unnormalised points do not outlive the step
        fn, yn = _scaled_pnorm(st["m"] @ xn, s, inv_s)
        st["converged"] |= np.abs(fn - st["f"]) / np.maximum(fn, 1e-300) < tol
        improved = fn > st["best_f"]
        np.copyto(st["best_f"], fn, where=improved)
        np.copyto(st["best_x"], xn, where=improved)
        # Bookkeeping in ufunc reductions and count_nonzero: their method
        # forms cost several times more on arrays this short.
        top = np.maximum.reduce(st["best_f"], axis=(1, 2))
        stall = (st["stall"] + 1) * (top <= st["last_best"] * (1.0 + _STALL_RTOL))
        st.update(x=xn, yn=yn, f=fn, stall=stall, last_best=top)
        step += 1
        done = np.logical_and.reduce(st["converged"], axis=(1, 2)) | (stall >= _STALL_STEPS)
        # Stack order is admission order, so the oldest problem reaches its cap first.
        admitted = st["admitted"]
        leave = done | (admitted == step - max_steps) if step == admitted[0] + max_steps else done
        if not np.count_nonzero(leave):
            yield ()
            continue
        retired = []
        for i in np.flatnonzero(leave).tolist():
            finish = _best_start if done[i] or st["converged"][i].any() else _no_convergence
            best = finish(st["best_f"][i, 0], st["best_x"][i, : st["dims"][i, 1]])
            retired.append((int(st["keys"][i]), best))
        keep = ~leave
        e = [_slot_keep(a, keep) for a in e]
        st = {k: a[keep] for k, a in st.items()} if len(retired) < len(keep) else {}
        if st and (top_shape := tuple(st["dims"].max(axis=0).tolist())) != st["m"].shape[1:]:
            st = _fit(st, *top_shape, opts)
        yield retired


def _fit(st: dict, rows: int, cols: int, opts: SolverOptions) -> dict:
    """The stack state ``st`` cut or padded as in ``_pad``; matrices take zero columns."""
    width = 1 + cols + opts.restarts
    m = st["m"][:, :rows, :cols]
    m = np.pad(m, ((0, 0), (0, rows - m.shape[1]), (0, cols - m.shape[2])))
    points = {"x": cols, "best_x": cols, "yn": rows, "f": 1, "best_f": 1, "converged": 1}
    return {**st, "m": m, **{k: _pad(st[k], n, width) for k, n in points.items()}}


def _boundary_norm(m: np.ndarray, r: float, s: float) -> tuple:
    """(witness, value) at boundary exponents, by their exact reductions.

    r = 1 picks the best column, s = inf the best row (via its Hoelder
    dual vector), r = inf the all-ones vector, and s = 1 the dual of the
    column sums.
    """
    n = m.shape[1]
    if r == 1.0:
        col = _pnorm(m, s)
        j = int(np.argmax(col))
        witness = np.zeros(n)
        witness[j] = 1.0
        return witness, float(col[j])
    if math.isinf(r):
        witness = np.ones(n)
        return witness, float(_pnorm(m @ witness, s))
    rstar = r / (r - 1.0)
    if math.isinf(s):
        rows = _pnorm(m.T, rstar)
        i = int(np.argmax(rows))
        witness = _unit_r(m[i] ** (rstar - 1.0), r) if rows[i] > 0.0 else np.eye(n)[0]
    else:  # s == 1
        sums = m.sum(axis=0)
        witness = _unit_r(sums ** (rstar - 1.0), r) if sums.max() > 0.0 else np.eye(n)[0]
    return witness, _ratio(m, witness, r, s)


def norm_numeric(c, r=None, s=None, w: WeightTriple | None = None,
                 opts: SolverOptions | None = None,
                 base: LogBase = LogBase.TWO) -> NormResult:
    """Numerically maximize ||C x||_s / ||x||_r over the nonnegative orthant.

    Interior exponents use a multistart power iteration (starts: the
    all-ones vector, every standard basis vector, and ``opts.restarts``
    seeded random positive vectors).  Boundary exponents
    reduce exactly: r = 1 picks the best column, s = inf the best row
    (via its Hoelder dual vector), r = inf the all-ones vector, and
    s = 1 the dual of the column sums.  This is the one-problem case of
    ``_numeric_many``.

    The result is checked against the closed form when one applies and,
    for doubly stochastic input, against the certified sandwich between
    the constant-matrix and identity values.

    Raises:
        SolverFailureError: if no start converges within max_iterations.
        NormConsistencyError: if a certified check fails.
    """
    r, s = _exponents(r, s, w)
    c = _as_overlap(c)
    _, res = next(_numeric_many([(None, (c, r, s))], opts, base))
    return _agrees_with_closed_form(c, r, s, res, base)


def _agrees_with_closed_form(c, r, s, res: NormResult, base) -> NormResult:
    """``res``, a numeric norm of ``c`` at (r, s), once it matches the closed form if one applies.

    ``_norm_many`` solves only closed-form misses, so it skips this check.
    """
    closed = norm_closed_form(c, r, s, base=base)
    if closed is not None and abs(res.value - closed.value) > 1e-7 * max(1.0, closed.value):
        raise NormConsistencyError(
            f"numeric norm {res.value!r} disagrees with closed form {closed.value!r}"
        )
    return res


def _numeric_result(c, r, s, witness, value, base) -> NormResult:
    """Check a numeric value against the certified sandwich and package it."""
    if not c.is_doubly_stochastic():
        return NormResult(value, _log_norm(value, base), witness,
                          NormMethod.NUMERIC_MULTISTART, (0.0, math.inf))
    res = _result(value, witness, NormMethod.NUMERIC_MULTISTART, c.matrix.shape[0], r, s, base)
    lo, hi = res.certified_bounds
    if not (lo - 1e-9 <= value <= hi + 1e-9):
        raise NormConsistencyError(
            f"numeric norm {value!r} escapes certified bounds [{lo!r}, {hi!r}]"
        )
    return res


def _numeric_many(pairs, opts: SolverOptions | None = None,
                  base: LogBase = LogBase.TWO):
    """Yield ``(item, result)`` for each ``(item, problem)`` pair, in input order.

    The one in-order pipeline over the one ``_stacked_ascent`` stack.  A
    problem is a ``(c, r, s)`` triple, solved as ``norm_numeric`` solves
    it, or None: its result is None, and the item carries what the caller
    needs.  Pairs are read lazily, as the stack has room for them: a
    boundary problem is solved as it is read, an interior one goes to the
    stack, and a None is answered as it is read.  Results come out in
    input order with the bits, messages and values they get when solved
    alone, each witness its own copy of its problem's length.  Reading
    stops while ``_WINDOW_PROBLEMS`` pairs, None included, are read and
    not yet yielded, so a slow problem holds up reading, not memory.
    The results are checked against the certified sandwich but not against
    the closed form: callers that may pass closed-form problems run
    ``_agrees_with_closed_form`` on them.
    """
    opts = opts or SolverOptions()
    pending = deque()  # (key, item, checked problem or None) of each pair read and not yet yielded
    solved = {}  # key -> None, best point, SolverFailureError or boundary (witness, value)

    def feed():
        for key, (item, problem) in enumerate(pairs):
            if problem is not None:
                c, (r, s) = _as_overlap(problem[0]), _exponents(*problem[1:])
                problem = c, r, s
            pending.append((key, item, problem))
            if problem is None:
                solved[key] = None
            elif _stackable(r, s):
                yield key, c.matrix, r, s
            else:
                solved[key] = _boundary_norm(c.matrix, r, s)
            while len(pending) >= _WINDOW_PROBLEMS:
                yield None

    for retired in _stacked_ascent(feed(), opts):
        solved.update(retired)
        while pending and pending[0][0] in solved:
            key, item, problem = pending.popleft()
            out = solved.pop(key)
            if isinstance(out, SolverFailureError):
                raise out
            if problem is not None:
                c, r, s = problem
                if not isinstance(out, tuple):  # the stack's best point
                    out = out, _ratio(c.matrix, out, r, s)
                out = _numeric_result(c, r, s, *out, base)
            yield item, out


def norm(c, w: WeightTriple | None = None, opts: SolverOptions | None = None,
         base: LogBase = LogBase.TWO, *, r=None, s=None) -> NormResult:
    """Norm at exponents (r, s) or a weight triple's: closed form if available, else numeric."""
    return next(_norm_many([(None, (c, *_exponents(r, s, w)))], opts, base))[1]


def _norm_many(pairs, opts: SolverOptions | None = None,
               base: LogBase = LogBase.TWO):
    """Yield ``(item, norm(c, opts=opts, base=base, r=r, s=s))`` for each ``(item, (c, r, s))``.

    One ``_numeric_many`` pass, in input order.  Pairs are read lazily,
    and each matrix is validated once for both paths: a closed-form hit
    rides through the pass in its item, with no problem, and a miss goes
    to the solver.  Every pair counts toward the pass's read-ahead window.
    """
    checked = ((item, (_as_overlap(c), r, s)) for item, (c, r, s) in pairs)
    dispatched = (((item, closed), p if closed is None else None)
                  for item, p in checked for closed in [norm_closed_form(*p, base=base)])
    for (item, closed), res in _numeric_many(dispatched, opts, base):
        yield item, closed if res is None else res
