"""Entropies, density matrices, projective measurements and random ensembles.

All entropic quantities take a :class:`LogBase` argument and default to
base two, so entropies are reported in bits unless stated otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDistributionError,
    InvalidStateError,
)

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_TOL = 1e-10
_DIST_TOL = 1e-12
_PROJ_TOL = 1e-10


class LogBase(enum.Enum):
    """Logarithm base used for entropies and norm logarithms."""

    TWO = 2.0
    NATURAL = math.e

    @property
    def ln(self) -> float:
        """Natural logarithm of the base."""
        return math.log(self.value)

    def log(self, x):
        """Logarithm of ``x`` in this base."""
        return np.log(x) / self.ln

    def exp(self, x):
        """Inverse of :meth:`log`, i.e. ``base ** x``."""
        return np.exp(np.asarray(x, dtype=float) * self.ln)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state.

    Args:
        matrix: square complex matrix, Hermitian within 1e-12, unit trace
            within 1e-12, eigenvalues above -1e-10.  The state keeps a
            read-only copy.

    Raises:
        DimensionMismatchError: if the matrix is not square.
        InvalidStateError: if any of the other state invariants fails.
    """

    matrix: np.ndarray
    # Spectrum clipped to [0, 1], computed once by the validation.
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _check_square(np.array(self.matrix, dtype=complex))
        object.__setattr__(self, "_spectrum", _check_states(m))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order, clipped to [0, 1]."""
        return self._spectrum.copy()


def _check_square(m: np.ndarray) -> np.ndarray:
    """``m`` itself, once it is checked to be a square matrix.

    Raises:
        DimensionMismatchError: unless ``m`` is two-dimensional with equal sides.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_states(m: np.ndarray) -> np.ndarray:
    """Spectrum of each state of a stack ``m`` of shape (..., d, d), clipped to [0, 1].

    Each state gets its own verdict, as if checked alone: Hermitian within
    1e-12, unit trace within 1e-12, eigenvalues above -1e-10.  The first
    failing state is reported, with its first failing check in that order.

    Raises:
        InvalidStateError: if any check fails.
    """
    herm = np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1)) > _HERMITIAN_TOL
    tr = np.trace(m, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > _TRACE_TOL
    w = np.linalg.eigvalsh(m)
    neg = w.min(axis=-1) < -_EIG_TOL
    bad = herm | off | neg
    if np.count_nonzero(bad):
        first = tuple(np.argwhere(bad)[0])
        if herm[first]:
            raise InvalidStateError("matrix is not Hermitian within 1e-12")
        if off[first]:
            raise InvalidStateError(f"trace is {float(tr[first])!r}, not 1 within 1e-12")
        raise InvalidStateError("matrix has an eigenvalue below -1e-10")
    return np.clip(w, 0.0, 1.0)


def _check_projectors(p: np.ndarray) -> None:
    """Check each projector set of a stack ``p`` of shape (..., n, d, d).

    Every projector must be Hermitian and idempotent within 1e-10, and each
    set must sum to the identity within 1e-10.  The first failing projector
    of the first failing set is reported, Hermiticity before idempotence.

    Raises:
        InvalidStateError: if any check fails.
    """
    herm = np.abs(p - np.swapaxes(p, -1, -2).conj()).max(axis=(-2, -1)) > _PROJ_TOL
    idem = np.abs(p @ p - p).max(axis=(-2, -1)) > _PROJ_TOL
    bad = herm | idem
    if np.count_nonzero(bad):
        first = tuple(np.argwhere(bad)[0])
        what = "Hermitian" if herm[first] else "idempotent"
        raise InvalidStateError(f"projector {first[-1]} is not {what}")
    off = np.abs(p.sum(axis=-3) - np.eye(p.shape[-1])).max(axis=(-2, -1))
    if np.count_nonzero(off > _PROJ_TOL):
        raise InvalidStateError("projectors do not sum to the identity")


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A finite projective measurement on a d-dimensional system.

    Args:
        projectors: array of shape (n, d, d); Hermitian projectors summing
            to the identity within 1e-10.
        labels: optional outcome labels, defaults to "0", "1", ...
    """

    projectors: np.ndarray
    labels: tuple = field(default=None)

    def __post_init__(self):
        p = np.asarray(self.projectors, dtype=complex)
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise DimensionMismatchError(
                f"expected projectors of shape (n, d, d), got {p.shape}"
            )
        _check_projectors(p)
        object.__setattr__(self, "projectors", p)
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(str(k) for k in range(p.shape[0])))
        elif len(self.labels) != p.shape[0]:
            raise DimensionMismatchError("one label per projector required")

    @property
    def n_outcomes(self) -> int:
        return self.projectors.shape[0]

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    def ranks(self) -> np.ndarray:
        """Projector ranks, i.e. rounded traces."""
        return np.rint(np.einsum("kii->k", self.projectors).real).astype(int)


def _as_int(value, name: str) -> int:
    """``value`` as a plain int; a bool or a non-integer is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _count(value, name: str, least: int) -> int:
    """``value`` as a plain int of at least ``least``; the error names the parameter."""
    value = _as_int(value, name)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def basis_measurement(d: int) -> ProjectiveMeasurement:
    """Computational (standard) basis measurement in dimension ``d``."""
    d = _count(d, "dimension", 1)
    eye = np.eye(d, dtype=complex)
    return ProjectiveMeasurement(np.einsum("ki,kj->kij", eye, eye.conj()))


def _check_unitary(u) -> np.ndarray:
    """``u`` as a complex array, checked to be a unitary within 1e-10."""
    u = _check_square(np.asarray(u, dtype=complex))
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-10:
        raise InvalidStateError("matrix is not unitary within 1e-10")
    return u


def measurement_from_unitary(u: np.ndarray) -> ProjectiveMeasurement:
    """Rank-1 measurement onto the columns of a unitary ``u``.

    Args:
        u: unitary matrix whose columns are the measured basis vectors.

    Raises:
        DimensionMismatchError: if ``u`` is not a square matrix.
        InvalidStateError: if ``u`` is not unitary within 1e-10.
    """
    u = _check_unitary(u)
    return ProjectiveMeasurement(np.einsum("ik,jk->kij", u, u.conj()))


def rotated_measurement_2d(theta: float) -> ProjectiveMeasurement:
    """Qubit basis rotated by ``theta``: {(cos t, sin t), (-sin t, cos t)}."""
    c, s = math.cos(theta), math.sin(theta)
    return measurement_from_unitary(np.array([[c, -s], [s, c]]))


def fourier_measurement(d: int) -> ProjectiveMeasurement:
    """Discrete-Fourier basis measurement, mutually unbiased with the standard one."""
    d = _count(d, "dimension", 1)
    k = np.arange(d)
    u = np.exp(2j * np.pi * np.outer(k, k) / d) / math.sqrt(d)
    return measurement_from_unitary(u)


def tensor_measurement(a: ProjectiveMeasurement, b: ProjectiveMeasurement) -> ProjectiveMeasurement:
    """Product measurement with projectors P_i (x) Q_j, outcomes in row-major order."""
    labels = tuple(f"{la},{lb}" for la in a.labels for lb in b.labels)
    return ProjectiveMeasurement(_tensor_projectors(a.projectors, b.projectors), labels)


def _tensor_projectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projectors P_i (x) Q_j, row-major in (i, j), of stacks a (..., n, d, d), b (..., m, e, e).

    Each entry is a single product, so a stack gives the same bits as its slices.
    """
    *lead, n, d, _ = a.shape
    m, e = b.shape[-3], b.shape[-1]
    proj = np.einsum("...iab,...jcd->...ijacbd", a, b)
    return proj.reshape(*lead, n * m, d * e, d * e)


def partial_trace(rho: DensityMatrix, dims: tuple, keep: int) -> DensityMatrix:
    """Reduced state of a bipartite system.

    Args:
        rho: state on a system of dimension dims[0] * dims[1].
        dims: local dimensions (d_a, d_b).
        keep: 0 to keep the first factor, 1 the second.

    Raises:
        ValueError: unless ``dims`` holds two integers >= 1 and ``keep``
            is the integer 0 or 1.
        DimensionMismatchError: if d_a * d_b is not the dimension of ``rho``.
    """
    if len(dims) != 2:
        raise ValueError(f"dims must be a pair (d_a, d_b), got {dims}")
    da, db = (_count(n, "dims", 1) for n in dims)
    if da * db != rho.dim:
        raise DimensionMismatchError(f"dims {dims} incompatible with {rho.dim}")
    t = rho.matrix.reshape(da, db, da, db)
    keep = _as_int(keep, "keep")
    if keep == 0:
        return DensityMatrix(np.einsum("ikjk->ij", t))
    if keep == 1:
        return DensityMatrix(np.einsum("kikj->ij", t))
    raise ValueError(f"keep must be 0 or 1, got {keep}")


def _check_distributions(p: np.ndarray) -> np.ndarray:
    """``p`` with tiny negatives clipped to zero, once each row (last axis) is checked.

    Each row gets its own verdict, as if checked alone.

    Raises:
        InvalidDistributionError: if an entry is below -1e-12 or a row does
            not sum to 1 within 1e-10.
    """
    bad = p.min(axis=-1) < -_DIST_TOL
    if np.count_nonzero(bad):
        raise InvalidDistributionError(f"negative entry {float(p[bad].min())!r} beyond tolerance")
    sums = p.sum(axis=-1)
    bad = np.abs(sums - 1.0) > 1e-10
    if np.count_nonzero(bad):
        raise InvalidDistributionError(f"entries sum to {float(sums[bad].flat[0])!r}, not 1")
    return np.maximum(p, 0.0)


def _entropies(p: np.ndarray, base: LogBase) -> np.ndarray:
    """-sum p log p over the positive entries of each row (last axis) of ``p``, in ``base`` units.

    A row's positive entries are summed on their own and in order, never
    with zero terms standing in for the rest: NumPy sums nine or more
    entries in pairwise blocks, so where a zero sits would move the bits.
    Rows are therefore grouped by their count of positive entries.
    """
    pos = p > 0.0
    if np.count_nonzero(pos) == p.size:
        return -(p * np.log(p)).sum(axis=-1) / base.ln
    rows, pos = p.reshape(-1, p.shape[-1]), pos.reshape(-1, p.shape[-1])
    counts = pos.sum(axis=1)
    out = np.empty(len(rows))
    for m in set(counts.tolist()):
        sel = counts == m
        kept = rows[sel][pos[sel]].reshape(-1, m)
        out[sel] = -(kept * np.log(kept)).sum(axis=1) / base.ln
    return out.reshape(p.shape[:-1])


def shannon_entropy(p, base: LogBase = LogBase.TWO) -> float:
    """Shannon entropy of a probability vector.

    Args:
        p: probability vector; entries >= -1e-12 (tiny negatives are clipped)
            and summing to 1.
        base: logarithm base, default base two.

    Returns:
        Entropy in units of the chosen base; zero terms contribute zero.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise InvalidDistributionError(f"expected a vector, got shape {p.shape}")
    return float(_entropies(_check_distributions(p), base))


def von_neumann_entropy(rho: DensityMatrix, base: LogBase = LogBase.TWO) -> float:
    """Von Neumann entropy of a density matrix via its eigenvalues."""
    return float(_entropies(rho._spectrum, base))


def measurement_distribution(rho: DensityMatrix, meas: ProjectiveMeasurement) -> np.ndarray:
    """Outcome distribution p_k = Tr(rho P_k) of a projective measurement.

    Tiny negative probabilities (above -1e-10) are clipped to zero; the
    vector is not rescaled otherwise.

    Raises:
        DimensionMismatchError: if state and measurement dimensions differ.
    """
    return _distributions(rho.matrix, meas.projectors)


def _distributions(m: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """p_k = Tr(rho P_k) of states (..., d, d) and projector sets (..., n, d, d).

    The leading axes of the two stacks broadcast against each other.  Tiny
    negatives (above -1e-10) are clipped to zero; each distribution gets
    its own verdict, as if computed alone.
    """
    if m.shape[-1] != projectors.shape[-1]:
        raise DimensionMismatchError(
            f"state dimension {m.shape[-1]} != measurement dimension {projectors.shape[-1]}"
        )
    p = np.einsum("...kij,...ji->...k", projectors, m).real
    bad = p.min(axis=-1) < -_EIG_TOL
    if np.count_nonzero(bad):
        raise InvalidDistributionError(f"probability {float(p[bad].min())!r} below -1e-10")
    return np.maximum(p, 0.0)  # the ufunc np.clip(p, 0.0, None) runs, without its overhead


def _outcome_entropies(m: np.ndarray, projectors: np.ndarray, base: LogBase) -> np.ndarray:
    """Shannon entropy of each outcome distribution of :func:`_distributions`.

    Each entry runs the checks and has the bits of ``shannon_entropy(
    measurement_distribution(rho, meas), base)``.
    """
    return _entropies(_check_distributions(_distributions(m, projectors)), base)


def _product_entropies(m: np.ndarray, a: np.ndarray, b: np.ndarray,
                       base: LogBase) -> np.ndarray:
    """Shannon entropy of each product measurement a[k] (x) b[k] on each state of ``m``.

    ``m`` is a state (d, d) or a stack of states (..., d, d); ``a`` and
    ``b`` are stacks of projector sets, shape (p, n, d, d), and the result
    has shape (..., p).  The factors must be the projectors of
    :class:`ProjectiveMeasurement` objects, which were checked when they
    were built; their products are built once for every state and not
    checked again.  Each distribution keeps its own checks, and each entry
    has the bits of ``shannon_entropy(measurement_distribution(rho,
    tensor_measurement(A_k, B_k)), base)``.
    """
    return _outcome_entropies(m[..., None, :, :], _tensor_projectors(a, b), base)


def haar_random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed random unitary via phase-corrected QR of a Ginibre matrix.

    Args:
        d: dimension, an integer >= 1.
        seed: integer seed >= 0 or a numpy Generator.
    """
    d = _count(d, "dimension", 1)
    q, r = np.linalg.qr(_ginibre(_generator(seed), d))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def _generator(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed that is not a Generator must be a count >= 0."""
    if not isinstance(seed, np.random.Generator):
        seed = _count(seed, "seed", 0)
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    """The d x d complex Ginibre matrix ``haar_random_unitary`` draws: all its use of ``rng``."""
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_density_matrix(d: int, seed) -> DensityMatrix:
    """Hilbert-Schmidt distributed random state, G G^dag normalized."""
    d = _count(d, "dimension", 1)
    return DensityMatrix(_random_states(_generator(seed), 1, d)[0])


def _random_states(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Stack of ``n`` unchecked states G G^dag / Tr, shape (n, d, d).

    Draws the same stream, in the same order, as ``n`` calls of
    :func:`random_density_matrix`, and each state has the same bits.
    """
    g = rng.standard_normal((n, 2, d, d))
    g = g[:, 0] + 1j * g[:, 1]
    m = g @ np.swapaxes(g.conj(), -1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def _check_hermitian(lind) -> np.ndarray:
    """``lind`` as a complex array, checked to be a Hermitian operator within 1e-10."""
    lind = _check_square(np.asarray(lind, dtype=complex))
    if np.abs(lind - lind.conj().T).max() > 1e-10:
        raise InvalidStateError("operator is not Hermitian within 1e-10")
    return lind


def gibbs_gap(rho: DensityMatrix, lind: np.ndarray, base: LogBase = LogBase.TWO) -> float:
    """Free-energy style gap Tr(rho L) - [S(rho) - log Tr(base^-L)].

    The gap is nonnegative up to numerical noise and vanishes exactly for
    the Gibbs state rho = base^-L / Tr(base^-L).

    Args:
        rho: density matrix.
        lind: Hermitian operator L in the same dimension.
        base: logarithm base; the matrix exponential uses the same base.

    Raises:
        InvalidStateError: if ``lind`` is not Hermitian within 1e-10.
        DimensionMismatchError: if ``lind`` is not square or does not match ``rho``.
    """
    lind = _check_hermitian(lind)
    if lind.shape != rho.matrix.shape:
        raise DimensionMismatchError(
            f"operator shape {lind.shape} != state shape {rho.matrix.shape}"
        )
    energy = float(np.einsum("ij,ji->", rho.matrix, lind).real)
    w = np.linalg.eigvalsh(lind)
    exponents = -w * base.ln
    top = exponents.max()
    log_z = float(top + np.log(np.exp(exponents - top).sum())) / base.ln
    return energy - (von_neumann_entropy(rho, base) - log_z)


def gibbs_state(lind: np.ndarray, base: LogBase = LogBase.TWO) -> DensityMatrix:
    """Gibbs state base^-L / Tr(base^-L) of a Hermitian operator.

    Raises:
        DimensionMismatchError: if ``lind`` is not a square matrix.
        InvalidStateError: if ``lind`` is not Hermitian within 1e-10.
    """
    w, v = np.linalg.eigh(_check_hermitian(lind))
    weights = np.exp(-(w - w.min()) * base.ln)
    weights /= weights.sum()
    return DensityMatrix((v * weights) @ v.conj().T)
