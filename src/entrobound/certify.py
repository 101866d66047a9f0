"""Where the constant-matrix value d**(1/s - 1/r) of ||C||_{r->s} is proven.

For a doubly stochastic overlap C that value is the norm when s <= r, on
the whole closed region (1 - mu)(1 - lambda) >= mu lambda sigma2^2 at
d = 2 (two-point Bonami-Beckner), and on the Birkhoff-Hopf sub-region
kappa^2 lambda mu < (1 - lambda)(1 - mu) at every d.  Elsewhere in the
region it was only conjectured, and for d >= 3 the census refutes it.
This module holds those tests (``_equality_proven``), the region and its
critical weight mu*, the curvature test at the all-ones vector, and the
test of which exponents the ascent solves (``_stackable``).  It imports
nothing from ``norms``, which imports ``_stackable`` from it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .overlap import _as_overlap
from .qmath import _as_int


def _check_sigma2(sigma2) -> None:
    """Raise ValueError unless sigma2 lies in [0, 1]; an array names its first entry outside."""
    if isinstance(sigma2, np.ndarray):
        outside = sigma2[~((0.0 <= sigma2) & (sigma2 <= 1.0))]
        sigma2 = outside.flat[0] if outside.size else 0.0
    if not 0.0 <= sigma2 <= 1.0:
        raise ValueError(f"sigma2 must lie in [0, 1], got {sigma2}")


def mu_star(sigma2: float) -> float:
    """Largest equal weight mu = lambda inside the region: 1 / (1 + sigma2).

    Up to this weight the closed form d**(1/s - 1/r) is proven exact for
    d = 2 (two-point Bonami-Beckner).  For d >= 3 the equality up to mu*
    is refuted: the tracked census artifact
    ``tests/artifacts/equality_regime_counterexamples.csv`` holds
    replayable counterexamples.
    """
    _check_sigma2(sigma2)
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
    mu + lambda <= 1, or, at every d, on the sub-region
    kappa^2 lambda mu < (1 - lambda)(1 - mu) with kappa >= sigma2 the
    Birkhoff contraction coefficient (``OverlapMatrix.birkhoff_contraction``;
    see ``_equality_proven``).  The cross-multiplied form stays finite at
    mu = 1 or lambda = 1, and mu = 0 or lambda = 0 is always inside.
    """
    _check_weights(mu, lam)
    _check_sigma2(sigma2)
    return bool(_in_region(mu, lam, sigma2))


def _check_weights(mu, lam) -> None:
    """Raise ValueError unless both weights lie in [0, 1]; NaN included."""
    if not (0.0 <= mu <= 1.0 and 0.0 <= lam <= 1.0):
        raise ValueError(f"weights must lie in [0, 1], got mu={mu}, lambda={lam}")


def _in_region(mu, lam, sigma2):
    """The inequality of ``conjecture_region_contains``, unchecked; elementwise for arrays."""
    return (1.0 - mu) * (1.0 - lam) >= mu * lam * sigma2**2 - 1e-12


def _weight_lattice(n: int) -> tuple:
    """(mu, lambda) arrays of the n x n lattice on [0, 1]^2, mu the slow axis."""
    n = _as_int(n, "grid")
    if n < 2:
        raise ValueError(f"grid must have at least 2 points per axis, got {n}")
    axis = np.linspace(0.0, 1.0, n)
    return np.repeat(axis, n), np.tile(axis, n)


def feasible_weight_grid(sigma2: float, n: int = 21) -> list:
    """Lattice points (mu, lambda) in [0, 1]^2 inside the conjectured region."""
    mu, lam = _weight_lattice(n)
    _check_sigma2(sigma2)
    inside = _in_region(mu, lam, sigma2)
    return list(zip(mu[inside].tolist(), lam[inside].tolist()))


def _stackable(r, s):
    """Whether (r, s) is interior, solved by the ascent; boundary exponents reduce exactly.

    Elementwise for arrays.
    """
    return (1.0 < r) & (r < math.inf) & (1.0 < s) & (s < math.inf)


def _equality_proven(c, r, s):
    """Whether a theorem proves ||C||_{r->s} = d**(1/s - 1/r) for the OverlapMatrix ``c``.

    True for a doubly stochastic ``c`` when s <= r (the test of
    ``norms.norm_closed_form``'s CLOSED_S_LE_R), or when 1 < r, s < inf and
    kappa**2 (s - 1) < r - 1, kappa = ``c.birkhoff_contraction``: then the
    power map x -> (C^T (C x)**(s - 1))**(1/(r - 1)) is a strict
    contraction in Hilbert's projective metric, so its fixed point, the
    uniform vector, is the unique positive maximiser (Bushell 1973;
    Gautier, Tudisco & Hein 2021).  In weights that is
    kappa**2 lambda mu < (1 - lambda)(1 - mu).  For a 2 x 2 ``c``, where
    kappa = sigma2, that test is instead the closed region of
    ``conjecture_region_contains`` at mu = 1/r, lambda = 1 - 1/s, boundary
    exponents and mu* = 1/(1 + sigma2) included (two-point hypercontractivity:
    Bonami 1970; Beckner, Ann. Math. 102, 1975); the 1e-12 slack of
    ``_in_region`` absorbs the rounding of mu*, r and s.  The census and
    ``bounds._compare_setup`` ask: neither ``norm`` nor
    ``norm_closed_form`` returns the value on this ground.  Elementwise
    for arrays ``r`` and ``s``; the product is taken only where s is
    finite, so kappa = 0 with s = inf makes no NaN.
    """
    if c.shape == (2, 2):
        return c.is_doubly_stochastic() & ((s <= r) | _in_region(1.0 / r, 1.0 - 1.0 / s, c.sigma2))
    interior = _stackable(r, s)
    contracts = c.birkhoff_contraction**2 * (np.where(interior, s, 1.0) - 1.0) < r - 1.0
    return c.is_doubly_stochastic() & ((s <= r) | (interior & contracts))


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

    Raises:
        ValueError: if a weight is outside [0, 1], or ``c`` is not square
            doubly stochastic.
    """
    _check_weights(mu, lam)
    c = _as_overlap(c)
    if not c.is_doubly_stochastic():
        raise ValueError("matrix must be square doubly stochastic")
    m = c.matrix
    d = m.shape[0]
    q = _complement_basis(d)
    h = (1.0 - mu) * (1.0 - lam) * np.eye(d) - mu * lam * (m.T @ m)
    return np.linalg.eigvalsh(q.T @ h @ q)
