"""Applications of the weighted bounds: randomness, entanglement, eavesdroppers.

Throughout, entropy deficits are measured against the maximum
log d = log(d_a * d_b) of the joint measurement, and gamma denotes
sqrt(delta_x / delta_y).  Analytic expressions that rely on the
conjectured extension of the equality regime carry a ``conjectured``
flag; clamped-weight branches are exact.

The interior branch rests on the norm equality
||C||_{r->s} = d**(1/s - 1/r) on the boundary of the region
(1 - mu)(1 - lambda) >= mu lambda sigma2^2, at the optimal weights.
That equality is a theorem only at d = 2 (two-point Bonami-Beckner).
At d >= 3 the package's own runs refute it for the matrices they
sample: ``fig-compare --random --dims 3 --samples 200 --seed 1`` finds
the solver beating the closed form at mu* in 181 of 200 rows, and the
census artifact ``tests/artifacts/equality_regime_counterexamples.csv``
lists 729 counterexamples inside the region.  The ``conjectured`` flag
does not tell these cases apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _DEFICIT_TOL, _check_entropies, _check_entropy_range, _solve_weights
from .certify import _check_sigma2
from .errors import DegenerateCaseError
from .norms import SolverOptions, WeightTriple, norm
from .overlap import OverlapMatrix, _check_theta
from .qmath import (
    DensityMatrix,
    LogBase,
    basis_measurement,
    partial_trace,
    rotated_measurement_2d,
    von_neumann_entropy,
    _count,
    _product_entropies,
)

# Angle pairs scored per NumPy pass of the Werner scan: bounds its projector
# stack (256 x 4 x 4 x 4 complex, 256 KiB) and the temporaries built from it.
_SCAN_CHUNK = 256


@dataclass(frozen=True)
class EntropyDeficits:
    """Deficits delta = log d - H for the two measured entropies.

    gamma = sqrt(delta_x / delta_y), with the degenerate conventions
    gamma = 1 when both deficits vanish and gamma = inf when only
    delta_y does.
    """

    delta_x: float
    delta_y: float

    def __post_init__(self):
        for name in ("delta_x", "delta_y"):
            object.__setattr__(self, name, float(_checked_deficit(name, getattr(self, name))))

    @property
    def gamma(self) -> float:
        return float(_gamma(self.delta_x, self.delta_y))


def _checked_deficit(name: str, v):
    """Deficit ``v`` (a float or an array) clipped at zero, once every entry is checked.

    No entry may be NaN or below -1e-9, nor infinite: a deficit log d - H
    is at most log d.
    """
    v = np.asarray(v, dtype=float)
    bad = ~(v >= -_DEFICIT_TOL)
    if np.count_nonzero(bad):
        raise ValueError(f"{name} is negative or NaN: {v[bad].flat[0]}")
    if np.count_nonzero(v == math.inf):
        raise ValueError(f"{name} must be finite, got inf")
    return np.maximum(v, 0.0)


def _gamma(dx, dy):
    """sqrt(dx / dy) elementwise: 1 where both deficits vanish, inf where only dy does."""
    dx, dy = np.asarray(dx, dtype=float), np.asarray(dy, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dy == 0.0, np.where(dx == 0.0, 1.0, np.inf), np.sqrt(dx / dy))


def deficits_from_entropies(h_x: float, h_y: float, d: int,
                            base: LogBase = LogBase.TWO) -> EntropyDeficits:
    """Build deficits log d - H from measured entropies.

    Raises:
        ValueError: if ``d`` is not an integer >= 1, or a deficit is NaN,
            infinite or below -1e-9.
    """
    log_d = base.log(_count(d, "d", 1))
    return EntropyDeficits(log_d - h_x, log_d - h_y)


@dataclass(frozen=True)
class RandomnessBound:
    """Certified extractable-randomness rate with provenance."""

    value: float
    conjectured: bool
    branch: str

    def __float__(self):
        return self.value


def randomness_bound_numeric(h_x, h_y, c, grid,
                             opts: SolverOptions | None = None,
                             base: LogBase = LogBase.TWO):
    """Maximize (1 - lambda) H(X) - mu H(Y) - log||C||_{1/mu -> 1/(1-lambda)}.

    Args:
        h_x, h_y: floats, or arrays that broadcast together.
        grid: iterable of (mu, lambda) pairs in [0, 1]^2, solved in one pass.

    Returns:
        The best value over the grid, per entropy pair; a float for float
        entropies.  It is a certified lower bound on H(X|E) only where
        every norm it uses is a closed form.  A numeric norm is the
        solver's value, a lower bound on the norm, so a value that rests
        on one is an estimate.

    Raises:
        ValueError: if an entropy is not finite, or the grid is empty.
    """
    _check_entropies(h_x=h_x, h_y=h_y)
    triples = [WeightTriple(1.0, float(l), float(m)) for m, l in grid]
    if not triples:
        raise ValueError("weight grid is empty")
    lam, mu, log_norms = _solve_weights(c, triples, opts, base)
    h_x, h_y = np.broadcast_arrays(np.asarray(h_x, dtype=float), np.asarray(h_y, dtype=float))
    best = np.empty(h_x.shape)
    for i in np.ndindex(h_x.shape[:-1]):  # a table per row of entropies bounds peak memory
        x, y = h_x[i][..., None], h_y[i][..., None]
        best[i] = np.max((1.0 - lam) * x - mu * y - log_norms, axis=-1)
    return float(best) if best.ndim == 0 else best


def randomness_bound_analytic(deficits: EntropyDeficits, sigma2: float) -> RandomnessBound:
    """Closed-form optimum of the randomness bound over the equality region.

    Requires gamma <= 1 (swap the roles of X and Y otherwise).  For
    gamma >= sigma2 the optimum sits on the region boundary and equals
    (sqrt(delta_y) - sigma2 sqrt(delta_x))^2 / (1 - sigma2^2); below
    that, the clamped weights (mu, lambda) = (1, 0) give the exact value
    delta_y - delta_x.  The boundary value rests on the norm equality on
    the region's boundary, a theorem only at d = 2 and refuted at d >= 3
    for the matrices the package samples (see the module docstring).

    Raises:
        DegenerateCaseError: for sigma2 = 1.
        ValueError: if gamma > 1.
    """
    _check_usable_sigma2(sigma2)
    dx, dy = deficits.delta_x, deficits.delta_y
    if deficits.gamma > 1.0 + 1e-12:
        raise ValueError("gamma > 1: swap the measurements so delta_x <= delta_y")
    if sigma2 == 0.0:  # delta_y exactly, which the interior formula rounds
        return RandomnessBound(dy, False, "interior")
    if _clamps(deficits.gamma, sigma2)[0]:
        return RandomnessBound(dy - dx, False, "clamped")
    value = (math.sqrt(dy) - sigma2 * math.sqrt(dx)) ** 2 / (1.0 - sigma2**2)
    return RandomnessBound(float(value), True, "interior")


def optimal_weights(gamma: float, sigma2: float) -> tuple:
    """Weights (mu, lambda) maximizing lambda delta_x + mu delta_y on the region.

    Interior solution ((1 - sigma2 gamma), (1 - sigma2/gamma)) / (1 - sigma2^2),
    clamped to (1, 0) below gamma = sigma2 and (0, 1) above gamma = 1/sigma2.
    The output satisfies the region inequality within 1e-12.

    Raises:
        DegenerateCaseError: for sigma2 = 1.
    """
    if not gamma >= 0.0:  # NaN included
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    _check_usable_sigma2(sigma2)
    mu, lam = _optimal_weights(gamma, sigma2)
    return (float(mu), float(lam))


def _check_usable_sigma2(sigma2: float) -> None:
    """Raise ValueError unless sigma2 lies in [0, 1], and DegenerateCaseError at sigma2 = 1."""
    _check_sigma2(sigma2)
    if sigma2 == 1.0:
        raise DegenerateCaseError("sigma2 = 1 leaves no usable weights")


def _clamps(gamma, sigma2) -> tuple:
    """Where the optimal weights clamp: masks (low, high) of gamma below sigma2 and above 1/sigma2.

    Both are False at sigma2 = 0, where the weights are (1, 1).  Elementwise
    for arrays.
    """
    live = sigma2 > 0.0
    with np.errstate(divide="ignore"):
        return live & (gamma < sigma2), live & (gamma > np.divide(1.0, sigma2))


def _square(x):
    """x**2 with the bits of Python's float power (libm ``pow``).

    NumPy's ``x ** 2`` multiplies, which differs in the last bit for about
    one input in 1,200; ``float_power`` calls ``pow``.
    """
    return np.float_power(x, 2)


def _optimal_weights(gamma, sigma2):
    """(mu, lambda) of :func:`optimal_weights`, elementwise, for 0 <= sigma2 < 1."""
    gamma, sigma2 = np.asarray(gamma, dtype=float), np.asarray(sigma2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = 1.0 - _square(sigma2)
        # Rounding at the clamp thresholds can overshoot [0, 1] by one ulp.
        mu = np.clip((1.0 - sigma2 * gamma) / den, 0.0, 1.0)
        lam = np.clip((1.0 - sigma2 / gamma) / den, 0.0, 1.0)
    low, high = _clamps(gamma, sigma2)
    unbiased = sigma2 == 0.0
    mu = np.where(unbiased | low, 1.0, np.where(high, 0.0, mu))
    lam = np.where(unbiased, 1.0, np.where(low, 0.0, np.where(high, 1.0, lam)))
    return mu, lam


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of an entanglement witness; truthy iff entanglement is certified."""

    detected: bool
    conjectured: bool
    mu: float
    lam: float

    def __bool__(self):
        return self.detected


def entanglement_witness_general(h_xab: float, h_yab: float,
                                 c_a: OverlapMatrix, c_b: OverlapMatrix,
                                 s_max: float, mu: float, lam: float,
                                 opts: SolverOptions | None = None,
                                 base: LogBase = LogBase.TWO) -> bool:
    """Norm-based witness: separable states obey the bound, violation detects.

    Returns True iff lambda H(X_AB) + mu H(Y_AB) drops below
    S_max - log(||C_A|| * ||C_B||) at exponents 1/mu -> 1/(1 - lambda).

    Raises:
        ValueError: if ``h_xab``, ``h_yab`` or ``s_max`` is not finite.
    """
    _check_entropies(h_xab=h_xab, h_yab=h_yab, s_max=s_max)
    w = WeightTriple(1.0, lam, mu)
    log_norms = norm(c_a, w, opts=opts, base=base).log_value
    log_norms += norm(c_b, w, opts=opts, base=base).log_value
    return bool(lam * h_xab + mu * h_yab < s_max - log_norms)


def entanglement_witness_analytic(h_xab: float, h_yab: float, d: int,
                                  sigma2: float, s_max: float,
                                  base: LogBase = LogBase.TWO) -> WitnessResult:
    """Witness with optimal weights from the conjectured equality region.

    sigma2 is the larger of the two local second singular values; the
    degenerate sigma2 = 1 never certifies.  Interior gamma evaluates the
    closed-form criterion

        H_X + H_Y < (1-sigma2^2) S_max + (1+sigma2^2) log d
                    - 2 sigma2 sqrt(delta_x delta_y),

    and the clamped branches test the single-deficit conditions exactly.
    The interior criterion rests on the norm equality on the region's
    boundary, a theorem only at d = 2 and refuted at d >= 3 for the
    matrices the package samples (see the module docstring).

    Raises:
        ValueError: if ``h_xab``, ``h_yab`` or ``s_max`` is not finite, ``d``
            is not an integer >= 1, or (for sigma2 < 1) a deficit is below -1e-9.
    """
    _check_entropies(h_xab=h_xab, h_yab=h_yab, s_max=s_max)
    detected, conjectured, mu, lam = _witness(h_xab, h_yab, _count(d, "d", 1), sigma2,
                                              s_max, base)
    return WitnessResult(bool(detected), bool(conjectured), float(mu), float(lam))


def _witness(h_x: float, h_y, d: int, sigma2, s_max: float, base: LogBase) -> tuple:
    """:func:`entanglement_witness_analytic` elementwise over arrays ``h_y`` and ``sigma2``.

    ``h_x`` and ``s_max`` are floats.  Returns arrays (detected,
    conjectured, mu, lam) with the bits of the scalar results; log d is
    computed once.
    """
    h_y, sigma2 = np.broadcast_arrays(np.asarray(h_y, dtype=float),
                                      np.asarray(sigma2, dtype=float))
    _check_sigma2(sigma2)
    # sigma2 = 1 never certifies, and its entropies are not checked.
    live = sigma2 < 1.0
    log_d = base.log(d)
    dx = _checked_deficit("delta_x", np.where(live, log_d - h_x, 0.0))
    dy = _checked_deficit("delta_y", np.where(live, log_d - h_y, 0.0))
    gamma = _gamma(dx, dy)
    mu, lam = _optimal_weights(gamma, sigma2)
    clamped = np.logical_or(*_clamps(gamma, sigma2))
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = _square(sigma2)
        rhs = (1.0 - sq) * s_max + (1.0 + sq) * log_d - 2.0 * sigma2 * np.sqrt(dx * dy)
        detected = np.where(clamped, lam * dx + mu * dy > log_d - s_max, h_x + h_y < rhs)
    conjectured = ~clamped & (sigma2 > 0.0)
    return (detected & live, conjectured & live,
            np.where(live, mu, np.nan), np.where(live, lam, np.nan))


def werner_state(d: int, phi: float) -> DensityMatrix:
    """Two-qudit Werner state with swap expectation Tr(W V) = phi.

    W = [(d - phi) I + (d phi - 1) V] / (d (d^2 - 1)); entangled exactly
    for phi < 0.
    """
    d = _count(d, "local dimension", 2)
    if not -1.0 <= phi <= 1.0:
        raise ValueError(f"phi must lie in [-1, 1], got {phi}")
    eye = np.eye(d * d)
    swap = eye.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    w = ((d - phi) * eye + (d * phi - 1.0) * swap) / (d * (d * d - 1.0))
    return DensityMatrix(w)


def werner_detection_scan(phi: float, theta_pairs,
                          base: LogBase = LogBase.TWO) -> np.ndarray:
    """Analytic-witness verdicts for two-qubit Werner states, one per angle pair.

    X measures both qubits in the standard basis; Y rotates qubit A by
    theta_a and qubit B by theta_b, giving sigma2 = max(cos 2 theta_a,
    cos 2 theta_b).  S_max comes from the reduced state.  H(X) and the
    H(Y) of batches of angle pairs come from one body, with the bits of
    ``shannon_entropy(measurement_distribution(w, tensor_measurement(...)))``
    per pair; each distribution keeps its own checks.  The rotations are
    checked as they are built, and their products are not checked again.
    The witness scores every pair in one pass with the verdicts of
    :func:`entanglement_witness_analytic`.  This is the one-phi case of
    the scan ``run_werner_masks`` makes over all its phi.

    Args:
        phi: Werner parameter in [-1, 1].
        theta_pairs: iterable of (theta_a, theta_b), each in [0, pi/4], as
            ``rotation_overlap_2d`` takes it.

    Returns:
        Boolean array, True where entanglement is certified.

    Raises:
        ValueError: for a phi outside [-1, 1], or an angle outside
            [0, pi/4]; the error names theta_a or theta_b.
    """
    return _werner_scan([phi], theta_pairs, base)[0]


def _werner_scan(phis, theta_pairs, base: LogBase) -> np.ndarray:
    """:func:`werner_detection_scan` of each phi, shape (len(phis), pairs), in one scan.

    The product projectors do not depend on phi, so H(X) is one call for
    every phi, and each chunk of angle pairs builds its products once and
    scores them against every phi's state.  Each basis and rotation is
    checked once, as it is built; each phi's distributions keep their own
    checks, and its row has the bits of its own scan.
    """
    states = [werner_state(2, phi) for phi in phis]
    pairs = np.array([(float(ta), float(tb)) for ta, tb in theta_pairs]).reshape(-1, 2)
    _check_theta(pairs[:, 0], "theta_a")
    _check_theta(pairs[:, 1], "theta_b")
    angles, which = np.unique(pairs, return_inverse=True)
    which = which.reshape(pairs.shape)
    rotations = np.array([rotated_measurement_2d(t).projectors for t in angles],
                         dtype=complex).reshape(-1, 2, 2, 2)
    m = np.array([w.matrix for w in states]).reshape(-1, 4, 4)
    z = basis_measurement(2).projectors[None]
    h_x = _product_entropies(m, z, z, base)[:, 0].tolist()
    h_y = np.empty((len(states), len(pairs)))
    for i in range(0, len(pairs), _SCAN_CHUNK):
        a, b = which[i:i + _SCAN_CHUNK].T
        h_y[:, i:i + _SCAN_CHUNK] = _product_entropies(m, rotations[a], rotations[b], base)
    # libm cos, as per pair; |cos 2 theta| is sigma2 of the rotation up to pi/4 + 1e-12.
    cos2 = np.array([abs(math.cos(2.0 * t)) for t in angles.tolist()])
    sigma2 = np.maximum(cos2[which[:, 0]], cos2[which[:, 1]])
    detected = np.empty(h_y.shape, dtype=bool)
    for k, w in enumerate(states):
        s_max = max(von_neumann_entropy(partial_trace(w, (2, 2), keep), base) for keep in (0, 1))
        detected[k] = _witness(h_x[k], h_y[k], 4, sigma2, s_max, base)[0]
    return detected


def eavesdropper_entropy_bound(h_x: float, h_y: float, d_a: int, d_b: int,
                               sigma2: float, base: LogBase = LogBase.TWO) -> float:
    """Upper bound on the eavesdropper entropy S(E) for product measurements.

    Interior gamma evaluates

        [H_X + H_Y + 2 sigma2 sqrt(delta_x delta_y)
         - (1 + sigma2^2) log(d_a d_b)] / (1 - sigma2^2),

    while gamma outside [sigma2, 1/sigma2] clamps the weights and yields
    the exact single-entropy bounds H_Y or H_X.  The interior value rests
    on the norm equality on the region's boundary, a theorem only at
    d = 2 and refuted at d >= 3 for the matrices the package samples (see
    the module docstring).

    Raises:
        DegenerateCaseError: for sigma2 = 1.
        ValueError: if ``d_a`` or ``d_b`` is not an integer >= 1, or an
            entropy lies outside [0, log(d_a d_b)].
    """
    _check_usable_sigma2(sigma2)
    d = _count(d_a, "d_a", 1) * _count(d_b, "d_b", 1)
    log_d = base.log(d)
    _check_entropy_range(log_d, h_x=h_x, h_y=h_y)
    dd = deficits_from_entropies(h_x, h_y, d, base)
    low, high = _clamps(dd.gamma, sigma2)
    if low or high:
        return float(h_y if low else h_x)
    value = (h_x + h_y + 2.0 * sigma2 * math.sqrt(dd.delta_x * dd.delta_y)
             - (1.0 + sigma2**2) * log_d) / (1.0 - sigma2**2)
    return float(value)
