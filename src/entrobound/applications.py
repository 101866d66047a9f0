"""Applications of the weighted bounds: randomness, entanglement, eavesdroppers.

Throughout, entropy deficits are measured against the maximum
log d = log(d_a * d_b) of the joint measurement, and gamma denotes
sqrt(delta_x / delta_y).  Analytic expressions that rely on the
conjectured extension of the equality regime carry a ``conjectured``
flag; clamped-weight branches are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCaseError
from .norms import SolverOptions, WeightTriple, norm
from .overlap import OverlapMatrix
from .qmath import (
    DensityMatrix,
    LogBase,
    basis_measurement,
    measurement_distribution,
    partial_trace,
    rotated_measurement_2d,
    shannon_entropy,
    tensor_measurement,
    von_neumann_entropy,
    _product_entropies,
)

_DEFICIT_TOL = 1e-9
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
        for name, v in (("delta_x", self.delta_x), ("delta_y", self.delta_y)):
            if v < -_DEFICIT_TOL:
                raise ValueError(f"{name} is negative: {v}")
        object.__setattr__(self, "delta_x", max(self.delta_x, 0.0))
        object.__setattr__(self, "delta_y", max(self.delta_y, 0.0))

    @property
    def gamma(self) -> float:
        if self.delta_y == 0.0:
            return 1.0 if self.delta_x == 0.0 else math.inf
        return math.sqrt(self.delta_x / self.delta_y)


def deficits_from_entropies(h_x: float, h_y: float, d: int,
                            base: LogBase = LogBase.TWO) -> EntropyDeficits:
    """Build deficits log d - H from measured entropies."""
    log_d = base.log(d)
    return EntropyDeficits(log_d - h_x, log_d - h_y)


@dataclass(frozen=True)
class RandomnessBound:
    """Certified extractable-randomness rate with provenance."""

    value: float
    conjectured: bool
    branch: str

    def __float__(self):
        return self.value


def randomness_bound_numeric(h_x: float, h_y: float, c, grid,
                             opts: SolverOptions | None = None,
                             base: LogBase = LogBase.TWO) -> float:
    """Maximize (1 - lambda) H(X) - mu H(Y) - log||C||_{1/mu -> 1/(1-lambda)}.

    Args:
        grid: iterable of (mu, lambda) pairs in [0, 1]^2.

    Returns:
        The best lower bound on the conditional entropy H(X|E) over the grid.
    """
    pairs = [(float(m), float(l)) for m, l in grid]
    if not pairs:
        raise ValueError("weight grid is empty")
    best = -np.inf
    for mu, lam in pairs:
        w = WeightTriple(1.0, lam, mu)
        res = norm(c, w, opts=opts, base=base)
        best = max(best, (1.0 - lam) * h_x - mu * h_y - res.log_value)
    return float(best)


def randomness_bound_analytic(deficits: EntropyDeficits, sigma2: float) -> RandomnessBound:
    """Closed-form optimum of the randomness bound over the equality region.

    Requires gamma <= 1 (swap the roles of X and Y otherwise).  For
    gamma >= sigma2 the optimum sits on the region boundary and equals
    (sqrt(delta_y) - sigma2 sqrt(delta_x))^2 / (1 - sigma2^2); below
    that, the clamped weights (mu, lambda) = (1, 0) give the exact value
    delta_y - delta_x.

    Raises:
        DegenerateCaseError: for sigma2 = 1.
        ValueError: if gamma > 1.
    """
    if not 0.0 <= sigma2 <= 1.0:
        raise ValueError(f"sigma2 must lie in [0, 1], got {sigma2}")
    if sigma2 == 1.0:
        raise DegenerateCaseError("sigma2 = 1 leaves no usable weights")
    dx, dy = deficits.delta_x, deficits.delta_y
    if deficits.gamma > 1.0 + 1e-12:
        raise ValueError("gamma > 1: swap the measurements so delta_x <= delta_y")
    if sigma2 == 0.0:
        return RandomnessBound(dy, False, "interior")
    if deficits.gamma < sigma2:
        return RandomnessBound(dy - dx, False, "clamped")
    value = (math.sqrt(dy) - sigma2 * math.sqrt(dx)) ** 2 / (1.0 - sigma2**2)
    return RandomnessBound(float(value), True, "interior")


def optimal_weights(gamma: float, sigma2: float) -> tuple:
    """Weights (mu, lambda) maximizing lambda delta_x + mu delta_y on the region.

    Interior solution ((1 - sigma2 gamma), (1 - sigma2/gamma)) / (1 - sigma2^2),
    clamped to (1, 0) for gamma < sigma2 and (0, 1) for gamma > 1/sigma2.
    The output satisfies the region inequality within 1e-12.

    Raises:
        DegenerateCaseError: for sigma2 = 1.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if not 0.0 <= sigma2 <= 1.0:
        raise ValueError(f"sigma2 must lie in [0, 1], got {sigma2}")
    if sigma2 == 1.0:
        raise DegenerateCaseError("sigma2 = 1 leaves no usable weights")
    if sigma2 == 0.0:
        return (1.0, 1.0)
    if gamma < sigma2:
        return (1.0, 0.0)
    if gamma > 1.0 / sigma2:
        return (0.0, 1.0)
    den = 1.0 - sigma2**2
    mu = (1.0 - sigma2 * gamma) / den
    lam = (1.0 - sigma2 / gamma) / den
    # Rounding at the clamp thresholds can overshoot [0, 1] by one ulp.
    return (min(max(mu, 0.0), 1.0), min(max(lam, 0.0), 1.0))


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
    """
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
    """
    if not 0.0 <= sigma2 <= 1.0:
        raise ValueError(f"sigma2 must lie in [0, 1], got {sigma2}")
    if sigma2 == 1.0:
        return WitnessResult(False, False, math.nan, math.nan)
    dd = deficits_from_entropies(h_xab, h_yab, d, base)
    gamma = dd.gamma
    mu, lam = optimal_weights(gamma, sigma2)
    log_d = base.log(d)
    if sigma2 > 0.0 and (gamma < sigma2 or gamma > 1.0 / sigma2):
        detected = lam * dd.delta_x + mu * dd.delta_y > log_d - s_max
        return WitnessResult(bool(detected), False, mu, lam)
    rhs = ((1.0 - sigma2**2) * s_max + (1.0 + sigma2**2) * log_d
           - 2.0 * sigma2 * math.sqrt(dd.delta_x * dd.delta_y))
    detected = h_xab + h_yab < rhs
    return WitnessResult(bool(detected), sigma2 > 0.0, mu, lam)


def werner_state(d: int, phi: float) -> DensityMatrix:
    """Two-qudit Werner state with swap expectation Tr(W V) = phi.

    W = [(d - phi) I + (d phi - 1) V] / (d (d^2 - 1)); entangled exactly
    for phi < 0.
    """
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
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
    cos 2 theta_b).  S_max comes from the reduced state.  The Y entropies
    are computed in batches of angle pairs, with the same checks and the
    same bits as ``shannon_entropy(measurement_distribution(w,
    tensor_measurement(...)))`` per pair.

    Args:
        phi: Werner parameter in [-1, 1].
        theta_pairs: iterable of (theta_a, theta_b), each in [0, pi/4].

    Returns:
        Boolean array, True where entanglement is certified.
    """
    w = werner_state(2, phi)
    x_meas = tensor_measurement(basis_measurement(2), basis_measurement(2))
    h_x = shannon_entropy(measurement_distribution(w, x_meas), base)
    s_max = max(
        von_neumann_entropy(partial_trace(w, (2, 2), 0), base),
        von_neumann_entropy(partial_trace(w, (2, 2), 1), base),
    )
    pairs = np.array([(float(ta), float(tb)) for ta, tb in theta_pairs]).reshape(-1, 2)
    angles, which = np.unique(pairs, return_inverse=True)
    which = which.reshape(pairs.shape)
    rotations = np.array([rotated_measurement_2d(t).projectors for t in angles],
                         dtype=complex).reshape(-1, 2, 2, 2)
    h_y = np.empty(len(pairs))
    for i in range(0, len(pairs), _SCAN_CHUNK):
        a, b = which[i:i + _SCAN_CHUNK].T
        h_y[i:i + _SCAN_CHUNK] = _product_entropies(w, rotations[a], rotations[b], base)
    out = []
    for (ta, tb), hy in zip(pairs.tolist(), h_y.tolist()):
        sigma2 = max(math.cos(2.0 * ta), math.cos(2.0 * tb))
        out.append(bool(entanglement_witness_analytic(h_x, hy, 4, sigma2, s_max, base)))
    return np.array(out, dtype=bool)


def eavesdropper_entropy_bound(h_x: float, h_y: float, d_a: int, d_b: int,
                               sigma2: float, base: LogBase = LogBase.TWO) -> float:
    """Upper bound on the eavesdropper entropy S(E) for product measurements.

    Interior gamma evaluates

        [H_X + H_Y + 2 sigma2 sqrt(delta_x delta_y)
         - (1 + sigma2^2) log(d_a d_b)] / (1 - sigma2^2),

    while gamma outside [sigma2, 1/sigma2] clamps the weights and yields
    the exact single-entropy bounds H_Y or H_X.

    Raises:
        DegenerateCaseError: for sigma2 = 1.
    """
    if not 0.0 <= sigma2 <= 1.0:
        raise ValueError(f"sigma2 must lie in [0, 1], got {sigma2}")
    if sigma2 == 1.0:
        raise DegenerateCaseError("sigma2 = 1 leaves no usable weights")
    d = d_a * d_b
    log_d = base.log(d)
    for name, h in (("h_x", h_x), ("h_y", h_y)):
        if not -_DEFICIT_TOL <= h <= log_d + _DEFICIT_TOL:
            raise ValueError(f"{name} = {h} outside [0, log d]")
    dd = deficits_from_entropies(h_x, h_y, d, base)
    gamma = dd.gamma
    if sigma2 > 0.0:
        if gamma < sigma2:
            return float(h_y)
        if gamma > 1.0 / sigma2:
            return float(h_x)
    value = (h_x + h_y + 2.0 * sigma2 * math.sqrt(dd.delta_x * dd.delta_y)
             - (1.0 + sigma2**2) * log_d) / (1.0 - sigma2**2)
    return float(value)
