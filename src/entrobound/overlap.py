"""Overlap matrices of measurement pairs and their singular structure.

The overlap matrix of two projective measurements X, Y has entries
Tr(X_i Y_j).  For a pair of rank-1 measurements it is doubly stochastic,
and unistochastic when both bases are related by a unitary.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError
from .qmath import ProjectiveMeasurement, _check_unitary, _count

# The package's one doubly-stochastic tolerance, on the largest |row or column sum - 1|.
_DS_TOL = 1e-10


class OverlapMatrix:
    """A nonnegative overlap matrix with cached singular values.

    Attributes:
        matrix: nonnegative float array of shape (n_x, n_y), read-only.
        singular_values: descending singular values, computed on first use.
        birkhoff_contraction: Birkhoff contraction coefficient, computed on
            first use.
        source: short description of how the matrix was built, e.g.
            "mub(3)", "rotation_2d(0.5236)", "from_unitary".

    Raises:
        DimensionMismatchError: if the input is not two-dimensional or
            has a zero-length axis.
        InvalidStateError: if an entry is not finite or is below -1e-12.
    """

    def __init__(self, matrix, source: str = "from_projectors"):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or not m.size:
            raise DimensionMismatchError(f"expected a nonempty matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidStateError("overlap entries must be finite")
        if m.min() < -1e-12:
            raise InvalidStateError(f"overlap entry {float(m.min())!r} below -1e-12")
        self.matrix = np.clip(m, 0.0, None)
        self.matrix.setflags(write=False)
        self.source = source

    @functools.cached_property
    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def dim(self) -> int:
        """Row count; equals the dimension for square rank-1 overlaps."""
        return self.matrix.shape[0]

    @property
    def sigma2(self) -> float:
        """Second largest singular value (0.0 for 1x1 matrices).

        Values below 1e-12 are snapped to zero: the leading singular
        value of a doubly stochastic matrix is 1, so anything under the
        SVD noise floor signals an exactly unbiased pair.  For a doubly
        stochastic matrix sigma2 <= 1 is a theorem, so a value above 1,
        which only SVD rounding reads, is capped at 1; any other matrix
        keeps its raw value.
        """
        s = self.singular_values
        val = float(s[1]) if s.size > 1 else 0.0
        if val < 1e-12:
            return 0.0
        return 1.0 if val > 1.0 and self.is_doubly_stochastic() else val

    @property
    def max_entry(self) -> float:
        """The largest entry c1."""
        return float(self.matrix.max())

    @functools.cached_property
    def birkhoff_contraction(self) -> float:
        """Birkhoff contraction coefficient kappa = tanh(Delta / 4) in Hilbert's projective metric.

        Delta is the projective diameter: the largest log(C_ik C_jl / (C_il C_jk))
        over row pairs (i, j) and column pairs (k, l), taken in one pass
        over the d**3 ratios C_ik / C_il.  kappa is 1.0 when an entry is 0,
        and the transpose has the same kappa (Bushell 1973).
        """
        m = self.matrix
        if m.min() <= 0.0:
            return 1.0
        high = (m[:, :, None] / m[:, None, :]).max(axis=0)  # max_i C_ik / C_il
        return math.tanh(math.log((high * high.T).max()) / 4.0)

    @functools.cached_property
    def _sum_error(self) -> float:
        """Largest |row or column sum - 1| of the read-only matrix; inf unless square."""
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            return math.inf
        sums = np.concatenate((m.sum(axis=0), m.sum(axis=1)))
        return float(np.abs(sums - 1.0).max())

    @functools.cached_property
    def _is_constant(self) -> bool:
        """Whether every entry is 1/d within 1e-12, d the row count."""
        m = self.matrix
        return bool(np.abs(m - 1.0 / m.shape[0]).max() <= 1e-12)

    @functools.cached_property
    def _is_permutation(self) -> bool:
        """Whether every entry is an integer within 1e-12: a permutation, if doubly stochastic."""
        m = self.matrix
        return bool(np.abs(m - np.rint(m)).max() <= 1e-12)

    def is_doubly_stochastic(self, tol: float = _DS_TOL) -> bool:
        """Whether every row and column sums to 1 within ``tol``; False unless square."""
        return self._sum_error <= tol

    def __repr__(self):
        return f"OverlapMatrix(shape={self.shape}, source={self.source!r})"


def _as_overlap(c) -> OverlapMatrix:
    """``c`` itself if it is an OverlapMatrix, else ``c`` validated as one."""
    return c if isinstance(c, OverlapMatrix) else OverlapMatrix(c)


def build_overlap(x: ProjectiveMeasurement, y: ProjectiveMeasurement) -> OverlapMatrix:
    """Overlap matrix Tr(X_i Y_j) of two measurements on the same system.

    For rank-1 pairs the result is checked to be doubly stochastic, with
    the package's one tolerance (see :meth:`OverlapMatrix.is_doubly_stochastic`).

    Raises:
        DimensionMismatchError: if the measurements act on different dimensions.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimensions differ: {x.dim} vs {y.dim}")
    c = np.einsum("iab,jba->ij", x.projectors, y.projectors).real
    out = OverlapMatrix(c, source="from_projectors")
    if (x.ranks() == 1).all() and (y.ranks() == 1).all():
        if not out.is_doubly_stochastic():
            raise InvalidStateError("rank-1 overlap is not doubly stochastic")
    return out


def from_unitary(u: np.ndarray) -> OverlapMatrix:
    """Unistochastic overlap |u_ij|^2 of a change-of-basis unitary.

    Raises:
        DimensionMismatchError: if ``u`` is not a square matrix.
        InvalidStateError: if ``u`` is not unitary within 1e-10.
    """
    return OverlapMatrix(np.abs(_check_unitary(u)) ** 2, source="from_unitary")


def _check_theta(theta, name: str = "theta") -> None:
    """Raise ValueError unless each angle (a float or an array) lies in [0, pi/4 + 1e-12]."""
    theta = np.asarray(theta, dtype=float)
    outside = theta[~((0.0 <= theta) & (theta <= math.pi / 4 + 1e-12))]
    if outside.size:
        raise ValueError(f"{name} must lie in [0, pi/4], got {outside.flat[0]}")


def rotation_overlap_2d(theta: float) -> OverlapMatrix:
    """Qubit overlap [[cos^2 t, sin^2 t], [sin^2 t, cos^2 t]].

    Args:
        theta: rotation angle in [0, pi/4]; 0 gives the identity and
            pi/4 the mutually unbiased pair.
    """
    _check_theta(theta)
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    return OverlapMatrix([[c2, s2], [s2, c2]], source=f"rotation_2d({theta:.6g})")


def mub_overlap(d: int) -> OverlapMatrix:
    """Overlap of a mutually unbiased pair: the constant matrix 1/d."""
    d = _count(d, "dimension", 1)
    return OverlapMatrix(np.full((d, d), 1.0 / d), source=f"mub({d})")


def identity_overlap(d: int) -> OverlapMatrix:
    """Overlap of a measurement with itself: the identity matrix."""
    d = _count(d, "dimension", 1)
    return OverlapMatrix(np.eye(d), source=f"identity({d})")


def tensor_overlap(a: OverlapMatrix, b: OverlapMatrix) -> OverlapMatrix:
    """Kronecker product overlap of a product measurement pair."""
    return OverlapMatrix(np.kron(a.matrix, b.matrix), source="tensor")


def second_singular_value(c) -> float:
    """Second largest singular value of an overlap matrix or plain array."""
    return _as_overlap(c).sigma2


def to_text(c: OverlapMatrix) -> str:
    """Serialize as plain text: one row per line, entries separated by spaces."""
    lines = [" ".join(f"{v:.17g}" for v in row) for row in c.matrix]
    return "\n".join(lines) + "\n"


def from_text(text: str, source: str = "from_text") -> OverlapMatrix:
    """Parse the plain-text format written by :func:`to_text`.

    Blank lines and lines starting with '#' are ignored.
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([float(tok) for tok in line.split()])
    if not rows:
        raise ValueError("no matrix rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DimensionMismatchError(f"ragged rows with lengths {sorted(widths)}")
    return OverlapMatrix(np.array(rows), source=source)
