"""Tests for weighted r -> s operator norms of overlap matrices."""

import math

import numpy as np
import pytest

from entrobound import (
    DimensionMismatchError,
    InvalidStateError,
    NormMethod,
    OverlapMatrix,
    SolverFailureError,
    SolverOptions,
    WeightTriple,
    bccrr_rhs,
    compare_state_independent,
    conjecture_region_contains,
    default_envelope_grid,
    feasible_weight_grid,
    from_unitary,
    hessian_spectrum_at_ones,
    identity_overlap,
    mu_star,
    mub_overlap,
    norm,
    norm_closed_form,
    norm_identity,
    norm_mub,
    norm_numeric,
    norms,
    qmath,
    rotation_overlap_2d,
    scan_2d_objective,
    second_singular_value,
)
SEED = 43


def _p(x, p):
    """Reference p-norm for nonnegative data, p in [1, inf]."""
    x = np.asarray(x, dtype=float)
    if math.isinf(p):
        return float(x.max())
    return float(np.sum(x**p) ** (1.0 / p))


def _ratio(m, v, r, s):
    return _p(np.asarray(m) @ np.asarray(v), s) / _p(v, r)


def _scan_2x2(m, r, s, points=200_001):
    """Exhaustive section scan of ||M x||_s / ||x||_r over nonnegative x.

    Any nonnegative qubit-sized vector is a positive multiple of (1, z)
    or (z, 1) with z in [0, 1], so two dense scans bracket the true norm
    up to grid resolution.
    """
    m = np.asarray(m, dtype=float)
    z = np.linspace(0.0, 1.0, points)
    best = 0.0
    for x0, x1 in ((np.ones_like(z), z), (z, np.ones_like(z))):
        num = (
            (m[0, 0] * x0 + m[0, 1] * x1) ** s + (m[1, 0] * x0 + m[1, 1] * x1) ** s
        ) ** (1.0 / s)
        den = (x0**r + x1**r) ** (1.0 / r)
        best = max(best, float(np.max(num / den)))
    return best


def _random_ds_overlap(d, rng):
    return from_unitary(qmath.haar_random_unitary(d, rng))


# ---------------------------------------------------------------------------
# weight triple conventions


def test_weight_triple_exponents():
    assert WeightTriple(1.0, 1.0, 1.0).r == 1.0
    assert math.isinf(WeightTriple(1.0, 1.0, 1.0).s)
    w = WeightTriple(1.0, 0.0, 1.0)
    assert (w.r, w.s) == (1.0, 1.0)
    w = WeightTriple(0.8, 0.4, 0.2)
    assert w.r == pytest.approx(4.0, rel=1e-15)
    assert w.s == pytest.approx(2.0, rel=1e-15)
    w = WeightTriple(1.0, 0.0, 0.0)
    assert math.isinf(w.r) and w.s == 1.0
    w = WeightTriple(0.0, 0.0, 0.0)
    assert math.isinf(w.r) and math.isinf(w.s)


def test_weight_triple_rejects_bad_ranges():
    for bad in [(1.0, 1.2, 0.5), (0.5, 0.6, 0.1), (1.0, 0.5, -0.1),
                (1.2, 1.0, 1.0), (0.5, 0.2, 0.6), (-0.1, 0.0, 0.0)]:
        with pytest.raises(ValueError):
            WeightTriple(*bad)


def test_exponent_argument_validation():
    with pytest.raises(ValueError):
        norm_mub(3, r=2.0, s=3.0, w=WeightTriple(1.0, 0.5, 0.5))
    with pytest.raises(ValueError):
        norm_mub(3)
    with pytest.raises(ValueError):
        norm_mub(3, r=0.5, s=2.0)
    with pytest.raises(ValueError):
        norm_mub(0, r=2.0, s=3.0)


_NAN_EXPONENT_CALLS = {
    "norm_mub": lambda r, s: norm_mub(2, r, s),
    "norm_identity": lambda r, s: norm_identity(2, r, s),
    "norm_closed_form": lambda r, s: norm_closed_form(rotation_overlap_2d(0.5), r, s),
    "norm_numeric": lambda r, s: norm_numeric(rotation_overlap_2d(0.5), r, s),
}


@pytest.mark.parametrize("r, s", [(math.nan, 2.0), (2.0, math.nan)])
@pytest.mark.parametrize("name", sorted(_NAN_EXPONENT_CALLS))
def test_nan_exponent_is_rejected(name, r, s):
    # Every comparison with NaN is False, so a check written as "r < 1"
    # lets NaN through to a nan value, a None, or the iteration cap.
    with pytest.raises(ValueError, match="exponents must be >= 1"):
        _NAN_EXPONENT_CALLS[name](r, s)


# ---------------------------------------------------------------------------
# closed forms


def test_constant_matrix_norm_values():
    assert norm_mub(4, r=1.0, s=math.inf) == 0.25
    assert norm_mub(2, r=2.0, s=2.0) == 1.0
    assert norm_mub(3, r=1.0, s=1.0) == 1.0
    # d**(1/s - 1/r) with r = 1, s = 2.
    assert norm_mub(9, r=1.0, s=2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    w = WeightTriple(1.0, 0.25, 0.5)  # r = 2, s = 4/3
    assert norm_mub(16, w=w) == pytest.approx(16.0 ** (0.75 - 0.5), rel=1e-14)


def test_identity_norm_values():
    # r >= s contracts like the constant matrix, r < s saturates at 1.
    assert norm_identity(5, r=3.0, s=2.0) == pytest.approx(5.0 ** (0.5 - 1.0 / 3.0), rel=1e-14)
    assert norm_identity(5, r=2.0, s=3.0) == 1.0
    assert norm_identity(7, r=2.0, s=2.0) == 1.0
    assert norm_identity(3, r=1.0, s=math.inf) == 1.0


def test_closed_form_dispatch_methods():
    res = norm(mub_overlap(3), WeightTriple(1.0, 0.9, 0.9))
    assert res.method is NormMethod.CLOSED_MUB
    assert res.value == pytest.approx(3.0 ** (-0.8), rel=1e-12)

    res = norm(identity_overlap(3), WeightTriple(1.0, 0.9, 0.9))
    assert res.method is NormMethod.CLOSED_IDENTITY
    assert res.value == 1.0

    rng = np.random.default_rng(SEED)
    c = _random_ds_overlap(4, rng)
    res = norm(c, WeightTriple(1.0, 0.3, 0.6))  # s = 1/0.7 <= r = 1/0.6
    assert res.method is NormMethod.CLOSED_S_LE_R
    assert res.value == pytest.approx(4.0**0.1, rel=1e-12)

    res = norm(rotation_overlap_2d(0.3), WeightTriple(1.0, 1.0, 1.0))
    assert res.method is NormMethod.CLOSED_KMU
    assert res.value == math.cos(0.3) ** 2

    # A matrix that is not doubly stochastic has no closed form here.
    assert norm_closed_form(np.array([[1.0, 2.0], [3.0, 4.0]]), r=3.0, s=2.0) is None
    res = norm(c, WeightTriple(1.0, 0.8, 0.7), opts=SolverOptions(restarts=8))
    assert res.method is NormMethod.NUMERIC_MULTISTART


def test_closed_form_matches_numeric_when_both_apply():
    rng = np.random.default_rng(SEED + 1)
    opts = SolverOptions(restarts=8)
    for d in (2, 3, 5):
        c = _random_ds_overlap(d, rng)
        for r, s in [(2.0, 1.5), (3.0, 3.0), (1.5, 1.0)]:
            closed = norm_closed_form(c, r=r, s=s)
            assert closed is not None
            numeric = norm_numeric(c, r=r, s=s, opts=opts)
            assert numeric.value == pytest.approx(closed.value, rel=1e-9)


# ---------------------------------------------------------------------------
# boundary exponents reduce to exact formulas


def _nonneg_3x3():
    return np.array([[0.2, 1.1, 0.0], [0.7, 0.3, 2.0], [0.1, 0.9, 0.4]])


def test_r_one_picks_best_column():
    m = _nonneg_3x3()
    res = norm_numeric(m, r=1.0, s=2.5)
    expected = max(_p(m[:, j], 2.5) for j in range(3))
    assert res.value == pytest.approx(expected, rel=1e-13)
    assert _ratio(m, res.witness, 1.0, 2.5) == pytest.approx(res.value, rel=1e-10)


def test_s_inf_picks_best_row_via_duality():
    m = _nonneg_3x3()
    r = 1.8
    res = norm_numeric(m, r=r, s=math.inf)
    rstar = r / (r - 1.0)
    expected = max(_p(m[i, :], rstar) for i in range(3))
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert _ratio(m, res.witness, r, math.inf) == pytest.approx(res.value, rel=1e-10)


def test_r_inf_uses_all_ones():
    m = _nonneg_3x3()
    res = norm_numeric(m, r=math.inf, s=2.2)
    assert res.value == pytest.approx(_p(m @ np.ones(3), 2.2), rel=1e-13)
    assert _ratio(m, res.witness, math.inf, 2.2) == pytest.approx(res.value, rel=1e-10)


def test_s_one_is_dual_norm_of_column_sums():
    m = _nonneg_3x3()
    r = 3.0
    res = norm_numeric(m, r=r, s=1.0)
    rstar = r / (r - 1.0)
    assert res.value == pytest.approx(_p(m.sum(axis=0), rstar), rel=1e-12)
    assert _ratio(m, res.witness, r, 1.0) == pytest.approx(res.value, rel=1e-10)


def test_boundary_rules_dominate_random_sampling():
    rng = np.random.default_rng(SEED + 2)
    m = _nonneg_3x3()
    samples = rng.dirichlet(np.ones(3), size=2000).T
    for r, s in [(1.0, 2.5), (1.8, math.inf), (math.inf, 2.2), (3.0, 1.0)]:
        value = norm_numeric(m, r=r, s=s).value
        num = np.array([_p(col, s) for col in (m @ samples).T])
        den = np.array([_p(col, r) for col in samples.T])
        assert float(np.max(num / den)) <= value + 1e-12


def test_kmu_corner_is_exactly_the_largest_entry():
    rng = np.random.default_rng(SEED + 3)
    mats = [mub_overlap(4), identity_overlap(3), rotation_overlap_2d(0.3),
            rotation_overlap_2d(math.pi / 6), _random_ds_overlap(5, rng)]
    for c in mats:
        res = norm_numeric(c, r=1.0, s=math.inf)
        assert res.value == c.max_entry  # bitwise


# ---------------------------------------------------------------------------
# interior exponents against an independent dense scan (d = 2)


def test_interior_norm_matches_dense_scan_qubit():
    opts = SolverOptions(restarts=8)
    cases = [
        (math.pi / 6, 0.85, 0.85),  # beyond the equality threshold
        (math.pi / 6, 0.6, 0.6),    # inside: constant-matrix value
        (0.2, 0.85, 0.85),
        (0.5, 0.3, 0.8),            # asymmetric weights
    ]
    for theta, mu, lam in cases:
        c = rotation_overlap_2d(theta)
        r, s = 1.0 / mu, 1.0 / (1.0 - lam)
        res = norm_numeric(c, r=r, s=s, opts=opts)
        oracle = _scan_2x2(c.matrix, r, s)
        assert res.value == pytest.approx(oracle, abs=5e-7)
        assert _ratio(c.matrix, res.witness, r, s) == pytest.approx(res.value, rel=1e-10)
        assert res.certified_bounds[0] - 1e-9 <= res.value <= res.certified_bounds[1] + 1e-9


def test_interior_norm_matches_dense_scan_general_matrix():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    res = norm_numeric(m, r=1.7, s=2.3, opts=SolverOptions(restarts=8))
    assert res.value == pytest.approx(_scan_2x2(m, 1.7, 2.3), abs=5e-6)
    assert res.certified_bounds == (0.0, math.inf)


def test_numeric_sandwich_for_random_doubly_stochastic():
    rng = np.random.default_rng(SEED + 4)
    opts = SolverOptions(restarts=6)
    for d in (2, 3, 4, 5):
        c = _random_ds_overlap(d, rng)
        for _ in range(3):
            mu, lam = rng.uniform(0.05, 0.95, size=2)
            r, s = 1.0 / mu, 1.0 / (1.0 - lam)
            res = norm_numeric(c, r=r, s=s, opts=opts)
            lo, hi = norm_mub(d, r, s), norm_identity(d, r, s)
            assert res.certified_bounds == (lo, hi)
            assert lo - 1e-9 <= res.value <= hi + 1e-9
            assert _ratio(c.matrix, res.witness, r, s) == pytest.approx(res.value, rel=1e-10)


def test_solver_failure_reports_best_attempt():
    opts = SolverOptions(restarts=2, max_iterations=1, tolerance=1e-18)
    with pytest.raises(SolverFailureError) as excinfo:
        norm_numeric(np.array([[1.0, 2.0], [3.0, 4.0]]), r=1.7, s=2.3, opts=opts)
    err = excinfo.value
    assert err.best_value is not None and err.best_value > 0.0
    assert err.best_point is not None and len(err.best_point) == 2


#: Sparse, badly scaled inputs on which a step of the ascent drops the
#: objective by rounding, with the value an ascent that ran a golden-section
#: line search after each such drop found (restarts=4), as float.hex.
_ROUNDING_DROP_CASES = [
    ([[0.5, 1e-3], [7.0, 1e3]], 5.0, 3.0, "0x1.f4cf4b01ff2d0p+9"),
    ([[1.0, 1e3, 0.5], [1e3, 3.0, 0.0], [0.0, 0.0, 3.0]], 1.5, 3.0, "0x1.f400004eb82aep+9"),
    ([[0.0, 0.0, 0.0], [1e-6, 0.0, 1e6], [1e6, 0.0, 0.0]], 7.5, 5.0, "0x1.ff5fc3ee269f2p+19"),
    ([[1e-3, 0.0], [1e3, 1e-6], [1.0, 1e3]], 2.0, 3.0, "0x1.f40010651a75dp+9"),
    ([[7.0, 1e3, 1e-6], [1e-3, 0.5, 3.0]], 1.5, 3.0, "0x1.f40003bf726a2p+9"),
    ([[1e6, 0.0], [1e-3, 1e-6], [1e6, 1e6], [0.0, 1e6]], 1.25, 1.5, "0x1.9093d47bbf6acp+20"),
]


@pytest.mark.parametrize("m, r, s, value", _ROUNDING_DROP_CASES,
                         ids=[f"{len(c[0])}x{len(c[0][0])}-r{c[1]}-s{c[2]}"
                              for c in _ROUNDING_DROP_CASES])
def test_rounding_drops_need_no_line_search(m, r, s, value):
    # By Hoelder a power step cannot lower the objective in exact
    # arithmetic; keeping the best point seen is all a drop needs.
    res = norm_numeric(m, r, s, opts=SolverOptions(restarts=4))  # converges: no SolverFailureError
    assert res.value == pytest.approx(float.fromhex(value), rel=1e-14, abs=0.0)
    assert _ratio(m, res.witness, r, s) == pytest.approx(res.value, rel=1e-12, abs=0.0)


#: Witnesses of norm_numeric at mu* = 1 / (1 + sigma2) with 8 restarts, for
#: from_unitary(haar_random_unitary(d, default_rng([0, d]))), as float.hex.
_MU_STAR_WITNESSES = {
    3: ["0x1.14aa61a8baaf8p-2", "0x1.3596b0dd25a5cp-2", "0x1.ba30d3a4b0d70p-1"],
    8: ["0x1.3267b18fb83ccp-5", "0x1.23860a2e8bb79p-4", "0x1.24cad46fe2d26p-4",
        "0x1.203836d50d324p-6", "0x1.d9f6850901b06p-3", "0x1.40f0e0711ed25p-3",
        "0x1.53936892e5b65p-6", "0x1.aebb600e38f5ep-1"],
    12: ["0x1.41ea254465088p-4", "0x1.ecb832aff491ap-5", "0x1.e924975ca6192p-5",
         "0x1.f5ead02ec0d86p-3", "0x1.22e30c29cdae1p-3", "0x1.25da65f5dd6abp-4",
         "0x1.40be3792df9dcp-4", "0x1.7528a3fe323e5p-2", "0x1.0ba801a719b83p-4",
         "0x1.f17f33fe5508ep-2", "0x1.0b95504435d34p-4", "0x1.e237c87b2af9fp-3"],
}


@pytest.mark.parametrize("d", sorted(_MU_STAR_WITNESSES))
def test_mu_star_witness_is_pinned_bit_for_bit(d):
    """The ascent kernel's float operations, and their order, stay fixed.

    A change that reorders or fuses any step of the power iteration moves
    the last bits of these witnesses, and with them the counterexample
    census and the pinned comparison CSVs.
    """
    c = from_unitary(qmath.haar_random_unitary(d, np.random.default_rng([0, d])))
    ms = mu_star(min(second_singular_value(c), 1.0))
    r, s = 1.0 / ms, 1.0 / (1.0 - ms)
    res = norm_numeric(c, r, s, opts=SolverOptions(restarts=8))
    assert [float(v).hex() for v in res.witness] == _MU_STAR_WITNESSES[d]


@pytest.mark.parametrize("r, s", [(1.5, 3.0), (2.0, 4.0)])
def test_zero_column_and_zero_image_keep_the_ascent_finite(r, s):
    # The e2 start maps to y = 0, so the ascent takes its zero-maximum
    # guards and keeps e2 as a dead column; the e1 start gives the norm.
    m = [[0.6, 0.0], [0.4, 0.0]]
    with np.errstate(divide="raise", invalid="raise"):  # no 0/0 on the way
        res = norm_numeric(m, r, s)
    assert res.value == pytest.approx(_p([0.6, 0.4], s), abs=1e-12)
    assert res.witness.tolist() == [1.0, 0.0]
    assert res.certified_bounds == (0.0, math.inf)


# ---------------------------------------------------------------------------
# stacked solves: one ascent for many problems of one matrix


def _same_bits(a, b):
    """Two NormResults with the same bits in every field."""
    return (a.witness.tobytes() == b.witness.tobytes() and a.witness.shape == b.witness.shape
            and float(a.value).hex() == float(b.value).hex()
            and float(a.log_value).hex() == float(b.log_value).hex()
            and a.method == b.method and a.certified_bounds == b.certified_bounds)


def _counting_ascent(monkeypatch):
    """Record the (r, s) of every single-problem ascent."""
    calls = []
    ascent = norms._multistart_ascent

    def counting(m, r, s, opts):
        calls.append((r, s))
        return ascent(m, r, s, opts)

    monkeypatch.setattr(norms, "_multistart_ascent", counting)
    return calls


def _fast_path(r, s):
    """Interior (r, s) at which the ascent takes a NumPy fast-path power."""
    if not (1.0 < r < math.inf and 1.0 < s < math.inf):
        return False
    powers = (s - 1.0, 1.0 / (r - 1.0), r, s, 1.0 / r, 1.0 / s)
    return any(p in (-1.0, 0.5, 2.0) for p in powers)


def test_stacked_profile_solves_match_norm_numeric_bit_for_bit(monkeypatch):
    # fig-norm-profile's list: 198 of 200 points share one stack; mu = 1/2
    # (r = s = 2) and mu = 1 (r = 1, s = inf) take the public path.
    c = rotation_overlap_2d(math.pi / 6)
    triples = [WeightTriple(1.0, float(mu), float(mu)) for mu in np.linspace(0.5, 1.0, 200)]
    points = [(w.r, w.s) for w in triples]
    want = [norm_numeric(c, r, s) for r, s in points]
    calls = _counting_ascent(monkeypatch)
    got = list(norms._numeric_many(c, points))
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    assert calls == [(2.0, 2.0)]
    assert sum(norms._stackable(r, s) for r, s in points) == 198


@pytest.mark.parametrize("engine", ["randomness", "envelope"])
def test_stacked_weight_lattices_match_norm_bit_for_bit(monkeypatch, engine):
    # The randomness sweep's 21 x 21 lattice and fig-region's default
    # envelope grid, at theta = pi/6: closed forms where they apply, the
    # numeric misses in one stack, fast-path exponents one at a time.
    c = rotation_overlap_2d(math.pi / 6)
    axis = np.linspace(0.0, 1.0, 21)
    triples = ([WeightTriple(1.0, float(lam), float(mu)) for mu in axis for lam in axis]
               if engine == "randomness" else default_envelope_grid())
    want = [norm(c, w) for w in triples]
    misses = [(w.r, w.s) for w in triples if norm_closed_form(c, w=w) is None]
    calls = _counting_ascent(monkeypatch)
    got = list(norms._norm_many(c, triples))
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    stacked = [p for p in misses if norms._stackable(*p)]
    assert len(stacked) == {"randomness": 164, "envelope": 40}[engine]
    assert calls == [p for p in misses if _fast_path(*p)]


@pytest.mark.parametrize("restarts", [2, 8])
def test_stacked_d3_lattice_matches_norm_numeric_bit_for_bit(restarts):
    c = from_unitary(qmath.haar_random_unitary(3, np.random.default_rng([0, 3])))
    sigma2 = min(second_singular_value(c), 1.0)
    points = [(1.0 / mu, 1.0 / (1.0 - lam))
              for mu, lam in feasible_weight_grid(sigma2, 21)
              if 0.0 < mu < 1.0 and 0.0 < lam < 1.0 and mu + lam > 1.0]
    opts = SolverOptions(restarts=restarts)
    want = [norm_numeric(c, r, s, opts=opts) for r, s in points]
    got = list(norms._numeric_many(c, points, opts=opts))
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    assert sum(norms._stackable(r, s) for r, s in points) == 23


def test_half_weights_take_the_single_problem_path(monkeypatch):
    # mu = 1/2 gives r = 2 and lambda = 1/2 gives s = 2: NumPy squares a
    # scalar exponent 2 by a fast path whose bits an exponent array lacks.
    c = rotation_overlap_2d(math.pi / 6)
    points = [(2.0, 1.0 / (1.0 - lam)) for lam in (0.55, 0.6, 0.7, 0.8)]
    points += [(1.0 / mu, 2.0) for mu in (0.55, 0.6, 0.7)]
    points += [(1.0 / 0.6, 1.0 / 0.3), (1.0 / 0.7, 1.0 / 0.25)]  # stackable
    want = [norm_numeric(c, r, s) for r, s in points]
    calls = _counting_ascent(monkeypatch)
    got = list(norms._numeric_many(c, points))
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert calls == points[:7]
    assert [norms._stackable(r, s) for r, s in points] == [False] * 7 + [True] * 2


def test_stacked_dead_column_stays_finite_and_matches():
    # Every start of e2 maps to y = 0 in every slice, so the stack takes
    # the zero-maximum guards and the dead-column path.
    m = [[0.6, 0.0], [0.4, 0.0]]
    points = [(1.5, 3.0), (1.7, 2.5), (3.0, 4.0), (1.25, 1.75)]
    with np.errstate(divide="raise", invalid="raise"):
        want = [norm_numeric(m, r, s) for r, s in points]
        got = list(norms._numeric_many(m, points))
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert all(res.witness.tolist() == [1.0, 0.0] for res in got)


@pytest.mark.parametrize("points", [
    [(1.0, 3.0), (1.1, 1.1), (6.0, 7.0), (1.3, 1.7), (1.5, 3.0), (4.0, 1.1)],
    [(1.1, 1.1), (1.5, 3.0), (1.3, 1.7), (6.0, 7.0), (2.5, 2.5)],
], ids=["stacked-first", "single-first"])
def test_stacked_failure_is_the_first_in_input_order(points):
    # With 3 iterations some problems converge and some do not; the first
    # failure in input order is raised, after the results before it.
    m = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 1.0], [0.2, 1.0, 2.0]])
    opts = SolverOptions(restarts=2, max_iterations=3)
    want = []
    with pytest.raises(SolverFailureError) as single:
        for r, s in points:
            want.append(norm_numeric(m, r, s, opts=opts))
    got = []
    with pytest.raises(SolverFailureError) as stacked:
        for res in norms._numeric_many(m, points, opts=opts):
            got.append(res)
    assert len(got) == len(want) >= 1
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    a, b = stacked.value, single.value
    assert str(a) == str(b)
    assert float(a.best_value).hex() == float(b.best_value).hex()
    assert a.best_point.tobytes() == b.best_point.tobytes()


def test_norm_takes_exponents_or_a_weight_triple():
    c = rotation_overlap_2d(math.pi / 6)
    assert _same_bits(norm(c, r=1.5, s=3.0), norm_numeric(c, 1.5, 3.0))
    assert _same_bits(norm(c, r=3.0, s=1.5), norm_closed_form(c, 3.0, 1.5))
    w = WeightTriple(1.0, 0.7, 0.6)
    assert _same_bits(norm(c, r=w.r, s=w.s), norm(c, w))
    for bad in [dict(), dict(r=1.5), dict(w=w, r=1.5, s=3.0)]:
        with pytest.raises(ValueError):
            norm(c, **bad)


@pytest.mark.parametrize("d", [2, 3, 4, 12])
def test_closed_form_bits_match_for_an_overlap_matrix_and_its_array(d):
    # An OverlapMatrix answers the doubly stochastic check from its cached
    # sum error, a plain array recomputes it; the s <= r witness is built
    # without reductions and must still be the normalised all-ones vector.
    c = from_unitary(qmath.haar_random_unitary(d, np.random.default_rng([1, d])))
    ones = np.ones(d)
    for r, s in [(3.0, 1.5), (2.0, 2.0), (7.5, 1.0), (1.1, 1.05), (math.inf, 2.0)]:
        a, b = norm_closed_form(c, r, s), norm_closed_form(c.matrix.tolist(), r, s)
        assert (a.value, a.log_value, a.method, a.certified_bounds) == (
            b.value, b.log_value, b.method, b.certified_bounds)
        unit = ones if math.isinf(r) else ones / (ones**r).sum() ** (1.0 / r)
        assert a.witness.tobytes() == b.witness.tobytes() == unit.tobytes()
    assert norm_closed_form(c, 1.5, 3.0) is None
    assert norm_closed_form(OverlapMatrix(0.9 * c.matrix), 3.0, 1.5) is None
    assert norm_closed_form(OverlapMatrix(c.matrix[:, 1:]), 3.0, 1.5) is None


_VALIDATING = {
    "OverlapMatrix": OverlapMatrix,
    "norm": lambda c: norm(c, WeightTriple(1.0, 0.5, 0.5)),
    "norm_closed_form": lambda c: norm_closed_form(c, 2.0, 1.5),
    "norm_numeric": lambda c: norm_numeric(c, 1.5, 2.0),
    "hessian_spectrum_at_ones": lambda c: hessian_spectrum_at_ones(c, 0.5, 0.5),
    "second_singular_value": second_singular_value,
    "bccrr_rhs": lambda c: bccrr_rhs(c, 0.0),
    "compare_state_independent": compare_state_independent,
}


@pytest.mark.parametrize("name", sorted(_VALIDATING))
def test_one_validator_rejects_malformed_matrices_everywhere(name):
    # Every entry point validates through OverlapMatrix, so each malformed
    # input raises the same error type wherever it enters.
    call = _VALIDATING[name]
    with pytest.raises(DimensionMismatchError):
        call([0.5, 0.5])
    with pytest.raises(InvalidStateError):
        call([[1.0 + 1e-6, -1e-6], [-1e-6, 1.0 + 1e-6]])


def test_one_doubly_stochastic_tolerance():
    # Sums off by 5e-9: every check must give the same verdict.
    m = [[0.5 + 5e-9, 0.5], [0.5, 0.5 - 5e-9]]
    assert not OverlapMatrix(m).is_doubly_stochastic()
    assert norm_closed_form(m, 2.0, 1.5) is None
    assert norm_closed_form(OverlapMatrix(m), 2.0, 1.5) is None
    with pytest.raises(ValueError):
        hessian_spectrum_at_ones(m, 0.5, 0.5)
    assert norm_numeric(m, 2.0, 1.5).certified_bounds == (0.0, math.inf)


# ---------------------------------------------------------------------------
# objective curvature at the uniform vector


def test_hessian_spectrum_known_values():
    eigs = hessian_spectrum_at_ones(mub_overlap(3), 0.9, 0.9)
    assert np.allclose(eigs, [0.01, 0.01], atol=1e-9)

    eigs = hessian_spectrum_at_ones(rotation_overlap_2d(math.pi / 6), 2.0 / 3.0, 2.0 / 3.0)
    assert eigs.shape == (1,)
    assert abs(eigs[0]) <= 1e-9  # marginal direction exactly at the threshold

    eigs = hessian_spectrum_at_ones(identity_overlap(3), 0.6, 0.6)
    assert np.allclose(eigs, [-0.2, -0.2], atol=1e-9)


def test_hessian_minimum_matches_condition_value():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        c = _random_ds_overlap(d, rng)
        mu, lam = rng.uniform(0.0, 1.0, size=2)
        eigs = hessian_spectrum_at_ones(c, mu, lam)
        s2 = second_singular_value(c)
        cond = (1.0 - mu) * (1.0 - lam) - mu * lam * s2**2
        assert eigs.min() == pytest.approx(cond, abs=1e-9)


def test_hessian_rejects_non_doubly_stochastic():
    with pytest.raises(ValueError):
        hessian_spectrum_at_ones(np.array([[1.0, 2.0], [3.0, 4.0]]), 0.5, 0.5)


# ---------------------------------------------------------------------------
# conjectured equality region


def test_mu_star_values():
    assert mu_star(0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert mu_star(0.0) == 1.0
    assert mu_star(1.0) == 0.5
    with pytest.raises(ValueError):
        mu_star(-0.1)
    with pytest.raises(ValueError):
        mu_star(1.1)


def test_conjecture_region_examples():
    assert conjecture_region_contains(0.5, 0.5, 1.0)  # boundary case
    assert conjecture_region_contains(0.9, 0.0, 1.0)
    assert conjecture_region_contains(0.0, 1.0, 1.0)
    assert conjecture_region_contains(1.0, 1.0, 0.0)
    assert not conjecture_region_contains(1.0, 1.0, 0.5)
    assert not conjecture_region_contains(0.72, 0.72, 0.5)
    ms = mu_star(0.5)
    assert conjecture_region_contains(ms, ms, 0.5)
    with pytest.raises(ValueError):
        conjecture_region_contains(1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        conjecture_region_contains(0.5, 0.5, 1.5)


def test_feasible_weight_grid_contents():
    pts = feasible_weight_grid(0.5, n=11)
    assert (0.0, 0.0) in pts and (1.0, 0.0) in pts and (0.0, 1.0) in pts
    for mu, lam in pts:
        assert 0.0 <= mu <= 1.0 and 0.0 <= lam <= 1.0
        assert conjecture_region_contains(mu, lam, 0.5)
    # sigma2 = 0 keeps the whole lattice.
    assert len(feasible_weight_grid(0.0, n=3)) == 9
    with pytest.raises(ValueError):
        feasible_weight_grid(0.5, n=1)


def test_scan_2d_objective_profile():
    ms = mu_star(0.5)
    z, f = scan_2d_objective(math.pi / 6, ms, ms, 2001)
    assert z[0] == 0.0 and z[-1] == 1.0 and f[-1] == 1.0
    assert float(f.max()) <= 1.0 + 1e-9  # uniform point still optimal here

    z, f = scan_2d_objective(math.pi / 6, 0.9, 0.9, 2001)
    assert float(f.max()) > 1.0 + 1e-4  # uniform point loses beyond the threshold

    # The normalized scan agrees with the independent dense scan.
    r, s = 1.0 / 0.9, 10.0
    _, fine = scan_2d_objective(math.pi / 6, 0.9, 0.9, 200_001)
    oracle = _scan_2x2(rotation_overlap_2d(math.pi / 6).matrix, r, s)
    assert float(fine.max()) * norm_mub(2, r=r, s=s) == pytest.approx(oracle, abs=1e-9)

    for bad in [(0.0, 0.5, 0.5, 10), (1.0, 0.5, 0.5, 10), (math.pi / 6, 0.0, 0.5, 10),
                (math.pi / 6, 0.5, 1.0, 10), (math.pi / 6, 0.5, 0.5, 1)]:
        with pytest.raises(ValueError):
            scan_2d_objective(*bad)


# float.hex of scan_2d_objective values, recorded when the scan wrote its
# own exponents and p-norms; (pi/4, 1, 0) has a value one ulp above 1.
SCAN_BITS = [
    ((0.5235987755982988, 0.9, 0.9, 5),
     ["0x1.4e4abf5c3e4fcp+0", "0x1.3024df07714c9p+0", "0x1.15df40b6be2cap+0",
      "0x1.052a6d5e41b6bp+0", "0x1.0000000000000p+0"]),
    ((0.3, 0.5, 0.2, 6),
     ["0x1.8ba13e5ba29f8p-1", "0x1.baa67882fe4a9p-1", "0x1.de0d840faf189p-1",
      "0x1.f35df6a67ce2ep-1", "0x1.fd6760aaa01fdp-1", "0x1.0000000000000p+0"]),
    ((0.7853981633974483, 1.0, 0.0, 4),
     ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000001p+0",
      "0x1.0000000000000p+0"]),
    ((0.1, 0.35, 0.8, 5),
     ["0x1.1937ff85d19a1p+0", "0x1.1822fa2a6c1a4p+0", "0x1.0fece9d141256p+0",
      "0x1.04905984830fbp+0", "0x1.0000000000000p+0"]),
]


@pytest.mark.parametrize("args, bits", SCAN_BITS)
def test_scan_2d_objective_keeps_its_recorded_bits(args, bits):
    _, f = scan_2d_objective(*args)
    assert [float(v).hex() for v in f] == bits


def test_norm_at_degenerate_weight_triple():
    # alpha = 0 sends both exponents to infinity; doubly stochastic input
    # then has unit norm via the all-ones vector.
    res = norm(mub_overlap(3), WeightTriple(0.0, 0.0, 0.0))
    assert res.value == 1.0


def test_log_value_tracks_requested_base():
    from entrobound import LogBase

    c = mub_overlap(4)
    two = norm(c, WeightTriple(1.0, 1.0, 1.0), base=LogBase.TWO)
    nat = norm(c, WeightTriple(1.0, 1.0, 1.0), base=LogBase.NATURAL)
    assert two.log_value == pytest.approx(-2.0, abs=1e-12)
    assert nat.log_value == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)
