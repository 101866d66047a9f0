"""Tests for weighted r -> s operator norms of overlap matrices."""

import math

import numpy as np
import pytest

from entrobound import (
    DimensionMismatchError,
    InvalidStateError,
    NormConsistencyError,
    NormMethod,
    NormResult,
    OverlapMatrix,
    SolverFailureError,
    SolverOptions,
    WeightTriple,
    bccrr_rhs,
    compare_state_independent,
    conjecture_region_contains,
    default_envelope_grid,
    experiments,
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


@pytest.mark.parametrize("bad", [
    dict(restarts=-1), dict(max_iterations=0), dict(max_iterations=-5),
    dict(tolerance=0.0), dict(tolerance=-1.0), dict(tolerance=math.nan),
    dict(tolerance=math.inf), dict(seed=-1),
])
def test_solver_options_reject_values_the_solver_cannot_run(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        SolverOptions(**bad)
    SolverOptions(restarts=0, max_iterations=1, tolerance=1e-18)


@pytest.mark.parametrize("field", ["restarts", "max_iterations", "seed"])
def test_solver_options_take_only_integer_counts_and_seeds(field):
    # A float or a bool would fail only inside the first solve's NumPy call.
    for bad in (2.5, 3.0, True, np.float64(1.5), "4", None):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
            SolverOptions(**{field: bad})
    opts = SolverOptions(**{field: np.int64(40)})
    assert getattr(opts, field) == 40 and type(getattr(opts, field)) is int
    assert norm_numeric(rotation_overlap_2d(0.4), 1.5, 2.5, opts=opts).value > 0.0


def test_solver_options_take_a_real_tolerance_and_store_a_float():
    # A bool or a NumPy float used to be stored as given, and a config
    # holding it could not be hashed; a string failed with a TypeError.
    for bad in (True, False, np.bool_(True), "1e-11", None, 1e-11j):
        with pytest.raises(ValueError, match="tolerance must be a real number, got"):
            SolverOptions(tolerance=bad)
    for good in (np.float32(1e-11), np.float64(1e-9), 1e-11, 1):
        opts = SolverOptions(tolerance=good)
        assert type(opts.tolerance) is float and opts.tolerance == float(good)
        assert len(experiments.config_hash(experiments._opts_config(opts))) == 12


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
# stacked solves: one ascent for many (matrix, r, s) problems


def _same_bits(a, b):
    """Two NormResults with the same bits in every field."""
    return (a.witness.tobytes() == b.witness.tobytes() and a.witness.shape == b.witness.shape
            and float(a.value).hex() == float(b.value).hex()
            and float(a.log_value).hex() == float(b.log_value).hex()
            and a.method == b.method and a.certified_bounds == b.certified_bounds)


def _fast_path(r, s):
    """Interior (r, s) at which the ascent takes a NumPy fast-path power."""
    if not (1.0 < r < math.inf and 1.0 < s < math.inf):
        return False
    powers = (s - 1.0, 1.0 / (r - 1.0), r, s, 1.0 / r, 1.0 / s)
    return any(p in (-1.0, 0.5, 2.0) for p in powers)


def test_stacked_profile_solves_match_norm_numeric_bit_for_bit(stacks):
    # fig-norm-profile's list: the stack holds at most 2**14 // 134 = 122
    # problems and takes the rest as problems leave it.  mu = 1/2 (r = s =
    # 2, fast-path powers) enters first, and mu = 1 (r = 1, s = inf)
    # reduces exactly.
    c = rotation_overlap_2d(math.pi / 6)
    triples = [WeightTriple(1.0, float(mu), float(mu)) for mu in np.linspace(0.5, 1.0, 200)]
    points = [(w.r, w.s) for w in triples]
    want = [norm_numeric(c, r, s) for r, s in points]
    stacks.clear()
    got = [res for _, res in norms._numeric_many([(None, (c, r, s)) for r, s in points])]
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    assert [p for _, exps in stacks for p in exps] == points[:199]
    assert [len(exps) for _, exps in stacks] == [122, 6, 5, 6, 11, 8, 8, 6, 14, 13]
    assert {m.shape[1:] for m, _ in stacks} == {(2, 2)} and stacks.peak == 122


@pytest.mark.parametrize("engine", ["randomness", "envelope"])
def test_stacked_weight_lattices_match_norm_bit_for_bit(stacks, engine):
    # The randomness sweep's 21 x 21 lattice and fig-region's default
    # envelope grid, at theta = pi/6: closed forms where they apply, the
    # numeric misses' interior points in one stack of at most 122 that
    # takes them in order as problems leave it (boundary exponents reduce
    # as they are read), fast-path exponents (mu = 1/2: r = 2; lambda =
    # 1/2: s = 2) included.
    c = rotation_overlap_2d(math.pi / 6)
    axis = np.linspace(0.0, 1.0, 21)
    triples = ([WeightTriple(1.0, float(lam), float(mu)) for mu in axis for lam in axis]
               if engine == "randomness" else default_envelope_grid())
    want = [norm(c, w) for w in triples]
    misses = [(w.r, w.s) for w in triples if norm_closed_form(c, w=w) is None]
    stacks.clear()
    got = [res for _, res in norms._norm_many([(None, (c, w.r, w.s)) for w in triples])]
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    assert [p for _, exps in stacks for p in exps] == [p for p in misses if norms._stackable(*p)]
    assert [len(exps) for _, exps in stacks] == {
        "randomness": [122, 2, 3, 4, 3, 1, 3, 13, 3, 14, 4, 10], "envelope": [40]}[engine]
    assert stacks.peak == {"randomness": 122, "envelope": 40}[engine]


@pytest.mark.parametrize("restarts", [2, 8])
def test_stacked_d3_lattice_matches_norm_numeric_bit_for_bit(stacks, restarts):
    c = from_unitary(qmath.haar_random_unitary(3, np.random.default_rng([0, 3])))
    sigma2 = min(second_singular_value(c), 1.0)
    points = [(1.0 / mu, 1.0 / (1.0 - lam))
              for mu, lam in feasible_weight_grid(sigma2, 21)
              if 0.0 < mu < 1.0 and 0.0 < lam < 1.0 and mu + lam > 1.0]
    opts = SolverOptions(restarts=restarts)
    want = [norm_numeric(c, r, s, opts=opts) for r, s in points]
    stacks.clear()
    got = [res for _, res in norms._numeric_many([(None, (c, r, s)) for r, s in points],
                                                 opts=opts)]
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    plain = [p for p in points if not _fast_path(*p)]
    assert len(plain) == 23 < len(points)
    assert [exps for _, exps in stacks] == [points]


def test_half_weights_share_one_stack_with_plain_points(stacks):
    # mu = 1/2 gives r = 2 and lambda = 1/2 gives s = 2: NumPy squares a
    # scalar exponent 2 by a fast path whose bits an exponent array lacks,
    # so the stack overwrites those problems' powers with the scalar's.
    c = rotation_overlap_2d(math.pi / 6)
    points = [(2.0, 1.0 / (1.0 - lam)) for lam in (0.55, 0.6, 0.7, 0.8)]
    points += [(1.0 / mu, 2.0) for mu in (0.55, 0.6, 0.7)]
    points += [(1.0 / 0.6, 1.0 / 0.3), (1.0 / 0.7, 1.0 / 0.25)]  # no fast path
    want = [norm_numeric(c, r, s) for r, s in points]
    stacks.clear()
    got = [res for _, res in norms._numeric_many([(None, (c, r, s)) for r, s in points])]
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert [exps for _, exps in stacks] == [points]
    assert [_fast_path(r, s) for r, s in points] == [True] * 7 + [False] * 2


#: Lone norm_numeric results as the former single-problem ascent loop gave
#: them, with 8 restarts on the Haar qutrit of seed [0, 3]: an interior
#: point, r = 2 and s = 2 (fast-path powers) -> (value, log2 value, witness).
LONE_SOLVE_BITS = {
    (1.0 / 0.6, 1.0 / (1.0 - 0.7)): (
        "0x1.a812eca2f1d08p-1", "-0x1.165a16c8d593ep-2",
        ["0x1.d861c4691c0e1p-6", "0x1.ef49b7d382956p-5", "0x1.fc4c123a6f0b4p-1"]),
    (2.0, 1.0 / (1.0 - 0.7)): (
        "0x1.ade25e61ee35fp-1", "-0x1.023f8cac693e4p-2",
        ["0x1.09130c669c2c2p-3", "0x1.7b143c94cc304p-3", "0x1.f2c507d54bed3p-1"]),
    (1.0 / 0.7, 2.0): (
        "0x1.af45598c14e8dp-1", "-0x1.fafb34067baf3p-3",
        ["0x1.122fd1595711fp-5", "0x1.a73cea48638b8p-5", "0x1.f7f98f1701fd6p-1"]),
}


@pytest.mark.parametrize("point", list(LONE_SOLVE_BITS), ids=["interior", "r=2", "s=2"])
def test_lone_solves_keep_their_recorded_bits(point):
    c = from_unitary(qmath.haar_random_unitary(3, np.random.default_rng([0, 3])))
    res = norm_numeric(c, *point, opts=SolverOptions(restarts=8))
    value, log_value, witness = LONE_SOLVE_BITS[point]
    assert res.value.hex() == value
    assert res.log_value.hex() == log_value
    assert [float(v).hex() for v in res.witness] == witness


def test_lone_solver_failure_keeps_its_recorded_bits():
    m = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 1.0], [0.2, 1.0, 2.0]])
    with pytest.raises(SolverFailureError, match="no start of the power iteration converged") as exc:
        norm_numeric(m, 1.3, 1.7, opts=SolverOptions(restarts=2, max_iterations=3))
    assert exc.value.best_value.hex() == "0x1.445abdc4f5308p+2"
    assert [float(v).hex() for v in exc.value.best_point] == [
        "0x1.c56e739b67568p-3", "0x1.c3395207f129ap-1", "0x1.f17c978783b9ap-6"]


def test_one_stack_mixes_every_fast_path_power_bit_for_bit(stacks):
    # r and s in {1.5, 2, 3} put each fast-path value an exponent slot can
    # hold into it: 2 and 1/2 into s - 1 and 1/(r - 1), 2 into r and s, 1/2
    # into 1/r and 1/s; 1.7 and 2.6 take no fast path.  A Haar matrix and a
    # matrix that is not doubly stochastic share one stack, and every
    # problem keeps the bits of its lone solve.
    rng = np.random.default_rng(SEED)
    cs = [from_unitary(qmath.haar_random_unitary(3, rng)), rng.uniform(0.1, 1.0, (3, 3))]
    exps = (1.5, 2.0, 3.0, 1.7, 2.6)
    problems = [(c, r, s) for c in cs for r in exps for s in exps]
    opts = SolverOptions(restarts=3)
    want = [norm_numeric(c, r, s, opts=opts) for c, r, s in problems]
    stacks.clear()
    got = [res for _, res in norms._numeric_many([(None, p) for p in problems], opts=opts)]
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    assert [exps for _, exps in stacks] == [[(r, s) for _, r, s in problems]]
    r, s = np.array([(r, s) for _, r, s in problems]).T
    slots = [norms._slot(a) for a in (s - 1.0, 1.0 / (r - 1.0), r, 1.0 / r, s, 1.0 / s)]
    assert [[v for v, _ in masks] for _, masks in slots] == [
        [0.5, 2.0], [0.5, 2.0], [2.0], [0.5], [2.0], [0.5]]


def test_numpy_power_fast_paths_take_scalar_exponents_only():
    # The ascent passes an exponent shared by a whole stack as a scalar so
    # that NumPy takes the fast path a lone problem takes; exponents that
    # differ across a stack form a (P, 1, 1) array, which must not.
    x = np.random.default_rng(0).uniform(0.01, 3.0, (4, 3, 7))
    fast = {-1.0: np.reciprocal, 0.5: np.sqrt, 2.0: np.square}
    assert sorted(fast) == sorted(norms._POW_FAST_PATHS)
    for e, op in fast.items():
        want = op(x).tobytes()
        assert (x**e).tobytes() == want
        assert (x ** np.array([e])).tobytes() == want
        assert (x ** np.full((1, 1, 1), e)).tobytes() == want
        assert (x ** np.full((4, 1, 1), e)).tobytes() != want
    for e in (1.0 / 3.0, 1.5, 1.7, 3.0):  # no fast path: scalar and array agree
        assert (x**e).tobytes() == (x ** np.full((4, 1, 1), e)).tobytes()


def test_stacked_dead_column_stays_finite_and_matches():
    # Every start of e2 maps to y = 0 in every slice, so the stack takes
    # the zero-maximum guards and the dead-column path.
    m = [[0.6, 0.0], [0.4, 0.0]]
    points = [(1.5, 3.0), (1.7, 2.5), (3.0, 4.0), (1.25, 1.75)]
    with np.errstate(divide="raise", invalid="raise"):
        want = [norm_numeric(m, r, s) for r, s in points]
        got = [res for _, res in norms._numeric_many([(None, (m, r, s)) for r, s in points])]
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
        for _, res in norms._numeric_many([(None, (m, r, s)) for r, s in points], opts=opts):
            got.append(res)
    assert len(got) == len(want) >= 1
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    a, b = stacked.value, single.value
    assert str(a) == str(b)
    assert float(a.best_value).hex() == float(b.best_value).hex()
    assert a.best_point.tobytes() == b.best_point.tobytes()


def _mu_star_problems(d, seed, samples):
    """(c, r, s) problems of Haar-unistochastic matrices at their mu* weights."""
    rng = np.random.default_rng([seed, d])
    cs = [from_unitary(qmath.haar_random_unitary(d, rng)) for _ in range(samples)]
    ws = [WeightTriple(1.0, mu_star(min(c.sigma2, 1.0)), mu_star(min(c.sigma2, 1.0)))
          for c in cs]
    return [(c, w.r, w.s) for c, w in zip(cs, ws)]


@pytest.mark.parametrize("d, samples", [(3, 12), (4, 12), (8, 8), (12, 70)])
def test_per_problem_matrices_match_norm_numeric_bit_for_bit(stacks, d, samples):
    # compare's mu* problems, one matrix each.  At d = 12 the stack holds
    # at most 2**14 // 252 = 65 problems, so the last 5 of 70 enter
    # together as problems leave it.  The last problem sits at r = 2, a
    # fast-path power, and shares the stack.
    opts = SolverOptions(restarts=8)
    problems = _mu_star_problems(d, 1, samples)
    problems[-1] = (problems[-1][0], 2.0, 3.0)
    want = [norm_numeric(c, r, s, opts=opts) for c, r, s in problems]
    stacks.clear()
    got = [res for _, res in norms._numeric_many([(None, p) for p in problems], opts=opts)]
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    cap = norms._STACK_FLOATS // (d * (d + 1 + opts.restarts))
    sizes = [samples] if samples <= cap else [cap, samples - cap]
    assert [(m.shape, len(exps)) for m, exps in stacks] == [((n, d, d), n) for n in sizes]
    assert stacks[-1][1][-1] == (2.0, 3.0) and stacks.peak == min(samples, cap)


def test_per_problem_failure_is_the_first_in_input_order():
    # Three iterations leave the ascents on the full random matrices
    # unconverged, while those on the rank-one ones converge; the first
    # failure in input order is raised, after the results before it.
    rng = np.random.default_rng(5)
    full = [rng.uniform(0.1, 2.0, (4, 4)) for _ in range(2)]
    rank1 = [np.outer(rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 4)) for _ in range(2)]
    cs = [rank1[0], full[0], rank1[1], full[1], full[0]]
    points = [(6.0, 7.0), (1.3, 1.7), (1.3, 1.7), (6.0, 7.0), (1.1, 1.1)]
    assert all(norms._stackable(r, s) for r, s in points)
    opts = SolverOptions(restarts=2, max_iterations=3)
    outcomes = []
    for c, (r, s) in zip(cs, points):
        try:
            outcomes.append(norm_numeric(c, r, s, opts=opts))
        except SolverFailureError as exc:
            outcomes.append(exc)
    first = next(i for i, o in enumerate(outcomes) if isinstance(o, SolverFailureError))
    assert any(isinstance(o, NormResult) for o in outcomes[first + 1:])
    got = []
    with pytest.raises(SolverFailureError) as stacked:
        for _, res in norms._numeric_many([(None, (c, r, s)) for c, (r, s) in zip(cs, points)],
                                          opts=opts):
            got.append(res)
    assert len(got) == first
    assert all(_same_bits(a, b) for a, b in zip(got, outcomes))
    a, b = stacked.value, outcomes[first]
    assert str(a) == str(b)
    assert float(a.best_value).hex() == float(b.best_value).hex()
    assert a.best_point.tobytes() == b.best_point.tobytes()


def test_late_admission_gets_its_own_iteration_cap(monkeypatch, stacks):
    # A stack of two: the rank-one problem converges within a few steps,
    # and the last problem enters as it leaves, while the second is still
    # live.  Five steps of its own leave the last one unconverged, as
    # alone; a cap counted from the stack's first step would stop it
    # sooner, with another best point.
    rng = np.random.default_rng(5)
    full = [rng.uniform(0.1, 2.0, (4, 4)) for _ in range(2)]
    rank1 = [np.outer(rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 4)) for _ in range(2)]
    problems = [(rank1[0], 6.0, 7.0), (full[0], 1.3, 1.7), (full[1], 6.0, 7.0)]
    opts = SolverOptions(restarts=2, max_iterations=5)
    want = [norm_numeric(c, r, s, opts=opts) for c, r, s in problems[:2]]
    with pytest.raises(SolverFailureError) as alone:
        norm_numeric(*problems[2], opts=opts)
    monkeypatch.setattr(norms, "_STACK_FLOATS", 2 * 4 * (4 + 1 + opts.restarts))
    stacks.clear()
    got = []
    with pytest.raises(SolverFailureError) as stacked:
        for _, res in norms._numeric_many([(None, p) for p in problems], opts=opts):
            got.append(res)
    assert len(got) == 2 and all(_same_bits(a, b) for a, b in zip(got, want))
    assert [exps for _, exps in stacks] == [[(6.0, 7.0), (1.3, 1.7)], [(6.0, 7.0)]]
    assert stacks.peak == 2
    a, b = stacked.value, alone.value
    assert str(a) == str(b)
    assert float(a.best_value).hex() == float(b.best_value).hex()
    assert a.best_point.tobytes() == b.best_point.tobytes()


def _mixed_shape_problems():
    """mu* problems at d = 3, 4, 8 and 12, rectangular matrices, r = 2, s = 2 and r = 1."""
    rng = np.random.default_rng(SEED)
    rect = [(rng.uniform(0.1, 1.0, shape), 1.5, 3.0) for shape in [(3, 2), (2, 3), (4, 2)]]
    p3, p4, p8, p12 = (_mu_star_problems(d, 1, 3) for d in (3, 4, 8, 12))
    return (p3[:2] + rect[:2] + p4[:2] + [(p4[2][0], 2.0, 3.0)] + p8[:2]
            + [(p3[2][0], 1.0, 3.0)] + p12 + [rect[2]] + p8[2:] + [(p3[0][0], 1.7, 2.0)])


def test_one_stack_mixes_matrix_shapes_bit_for_bit(stacks):
    # Shapes rise from 3 x 3 (with 3 x 2 and 2 x 3) to 4 x 4 and 8 x 8 in
    # one padded stack; 12 x 12 waits until at most 2**14 // 10 // 252 = 6
    # problems are live, and then 4 x 2, 8 x 8 and 3 x 3 follow it in.  The
    # r = 1 problem reduces exactly as it is read.  Every problem keeps the
    # bits of its lone solve, and its witness is its own copy of its own
    # length.
    problems = _mixed_shape_problems()
    opts = SolverOptions(restarts=8)
    want = [norm_numeric(c, r, s, opts=opts) for c, r, s in problems]
    stacks.clear()
    got = [res for _, res in norms._numeric_many([(None, p) for p in problems], opts=opts)]
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    for res, (c, _, _) in zip(got, problems):
        assert res.witness.shape == (norms._as_overlap(c).matrix.shape[1],)
        assert res.witness.base is None and res.witness.flags.owndata
    stacked = [(r, s) for _, r, s in problems if norms._stackable(r, s)]
    assert [exps for _, exps in stacks] == [stacked[:4], stacked[4:7], stacked[7:9], stacked[9:]]
    assert [m.shape[1:] for m, _ in stacks] == [(3, 3), (4, 4), (8, 8), (12, 12)]
    assert stacks.peak == 12


def test_the_stack_schedule_takes_its_recorded_turns(turns):
    # The turns at the production constants (_STACK_FLOATS, _GROW_SHARE,
    # _WINDOW_PROBLEMS) and engine options.  Any change to when problems
    # enter or leave the stack moves them: _GROW_SHARE = 5 takes compare to
    # 2,734 turns and the census to 335, and _WINDOW_PROBLEMS = 64 takes
    # them to 7,694 and 891.  A change that moves them on purpose records
    # them anew.  Each pass is read to its end, so each takes one trailing
    # empty turn, in the counts (356 and 3,745 without it).  The census was
    # 650 turns while it made one pass per dimension: its d = 4 problems now
    # join the stack while the d = 3 ones still run.
    experiments.run_conjecture_fuzz(dims=(2, 3, 4), samples=16, seed=1)
    census, turns.count = turns.count, 0
    experiments.run_compare_random(dims=(3, 4, 8, 12), samples=60, seed=2)
    assert (census, turns.count) == (357, 3746)


def test_stacked_witness_owns_its_data():
    # A view would keep the stack's whole best-point array alive.
    problems = _mu_star_problems(3, 1, 5)
    for _, res in norms._numeric_many([(None, p) for p in problems]):
        assert res.witness.base is None and res.witness.flags.owndata
    assert norm_numeric(*problems[0]).witness.base is None


def _lattice_problems(d, samples, grid=11):
    """The census's (c, r, s) problems: every lattice point of ``samples`` Haar draws."""
    rng = np.random.default_rng([1, d])
    problems = []
    for _ in range(samples):
        c = from_unitary(qmath.haar_random_unitary(d, rng))
        problems += [(c, w.r, w.s) for w in (WeightTriple(1.0, lam, mu) for mu, lam in
                                             feasible_weight_grid(min(c.sigma2, 1.0), grid))]
    return problems


@pytest.mark.parametrize("samples", [3, 6])
def test_norm_stream_reads_a_constant_window_of_misses_ahead(monkeypatch, stacks, samples):
    # With a stack of four problems, the matrices' lattices take many
    # admissions.  After each result, the input read but not yet answered
    # holds at most nine closed-form misses, whatever the number of
    # samples: the four in the stack, one waiting to enter it, and those
    # that finished behind an older one.  It ends at a miss or at the end
    # of the input: the hits after a miss are read as they are answered.
    opts = SolverOptions(restarts=2)
    problems = _lattice_problems(3, samples)
    want = [norm(c, opts=opts, r=r, s=s) for c, r, s in problems]
    misses = [norm_closed_form(c, r, s) is None for c, r, s in problems]
    monkeypatch.setattr(norms, "_STACK_FLOATS", 4 * 3 * (3 + 1 + opts.restarts))
    stacks.clear()
    read = [0]

    def feed():
        for problem in problems:
            read[0] += 1
            yield None, problem

    got, ahead = [], []
    for _, res in norms._norm_many(feed(), opts):
        got.append(res)
        ahead.append(sum(misses[len(got):read[0]]))
        assert read[0] in (len(got), len(problems)) or misses[read[0] - 1]
    assert len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    assert max(ahead) == 9
    assert stacks.peak == 4 and len(stacks) > sum(misses) // 4 > 10


def test_read_ahead_stops_at_the_problem_window(monkeypatch):
    # The boundary problems behind a slow mu* problem are solved as they are
    # read, so only the window stops reading before the first result.
    monkeypatch.setattr(norms, "_WINDOW_PROBLEMS", 5)
    c, r, s = _mu_star_problems(3, 1, 1)[0]
    problems = [(c, r, s)] + [(c, 1.0, s)] * 200
    read = [0]

    def feed():
        for problem in problems:
            read[0] += 1
            yield None, problem

    results = norms._numeric_many(feed())
    next(results)
    assert read[0] == 5
    assert len(list(results)) == 200 and read[0] == 201


def test_norm_stream_counts_closed_form_hits_toward_the_window():
    # The hits behind a slow mu* miss ride through the solver's pass in
    # input order, so the default window stops reading them before the
    # first result, not the end of the input.
    c, r, s = _mu_star_problems(3, 1, 1)[0]
    hit = norm_closed_form(c, 2.0, 1.5)
    assert hit is not None and norm_closed_form(c, r, s) is None
    problems = [(c, r, s)] + [(c, 2.0, 1.5)] * 5000
    read = [0]

    def feed():
        for problem in problems:
            read[0] += 1
            yield None, problem

    results = norms._norm_many(feed())
    next(results)
    assert read[0] == norms._WINDOW_PROBLEMS == 1024
    rest = [res for _, res in results]
    assert len(rest) == 5000 and read[0] == 5001
    assert all(_same_bits(res, hit) for res in rest)


def test_norm_stream_dispatches_each_problem_once(monkeypatch):
    # A closed-form miss goes to the solver without a second closed-form check.
    calls = []
    closed_form = norms.norm_closed_form

    def counting(*args, **kwargs):
        calls.append(args)
        return closed_form(*args, **kwargs)

    problems = _lattice_problems(3, 2)
    opts = SolverOptions(restarts=2)
    want = [norm(c, opts=opts, r=r, s=s) for c, r, s in problems]
    monkeypatch.setattr(norms, "norm_closed_form", counting)
    got = [res for _, res in norms._norm_many([(None, p) for p in problems], opts)]
    assert len(calls) == len(problems)
    assert all(_same_bits(a, b) for a, b in zip(got, want))


def test_numeric_norm_checks_a_poor_witness(monkeypatch):
    # A stand-in ascent returns a poor witness.  On a 3-cycle at r = 1.5,
    # s = 3 the all-ones vector attains the constant-matrix value, inside
    # the certified sandwich but below the closed form 1; on the constant
    # matrix e_1 attains 3**(-2/3), below the sandwich.
    def returning(witness):
        def ascent(feed, opts):
            yield [(key, witness.copy()) for key, *_ in feed]

        monkeypatch.setattr(norms, "_stacked_ascent", ascent)

    returning(np.ones(3))
    with pytest.raises(NormConsistencyError, match="disagrees with closed form"):
        norm_numeric(OverlapMatrix(np.eye(3)[[1, 2, 0]]), 1.5, 3.0)
    returning(np.eye(3)[0])
    with pytest.raises(NormConsistencyError, match="escapes certified bounds"):
        norm_numeric(mub_overlap(3), 1.5, 3.0)


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


def test_sigma2_check_names_the_first_entry_outside_the_unit_interval():
    norms._check_sigma2(np.array([[0.0, 0.5], [1.0, 0.25]]))
    for bad, first in [(np.array([0.5, 1.5, -1.0]), "1.5"), (np.array([[0.2], [np.nan]]), "nan"),
                       (np.array(-0.25), "-0.25"), (-0.5, "-0.5"), (math.nan, "nan")]:
        with pytest.raises(ValueError, match=f"sigma2 must lie in \\[0, 1\\], got {first}$"):
            norms._check_sigma2(bad)


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


# ---------------------------------------------------------------------------
# Birkhoff-Hopf certificate of the equality


@pytest.mark.parametrize("theta", [0.0, 0.1, math.pi / 8, math.pi / 6, 0.7, math.pi / 4])
def test_birkhoff_contraction_is_sigma2_for_the_qubit_rotation(theta):
    c = rotation_overlap_2d(theta)
    assert abs(c.birkhoff_contraction - c.sigma2) <= 1e-12


def test_birkhoff_contraction_bounds_sigma2_and_certifies_no_mu_star():
    # sigma2^2 = lambda_2(C^T C) <= kappa(C^T C) <= kappa^2, and at mu* the
    # certificate needs kappa^2 / sigma2^2 < 1; the draws are compare's at seed 1.
    for d in (3, 4, 8, 12):
        rng = np.random.default_rng([1, d])
        for _ in range(200):
            c = from_unitary(qmath.haar_random_unitary(d, rng))
            assert c.birkhoff_contraction >= c.sigma2 - 1e-12
            assert c.birkhoff_contraction == pytest.approx(
                OverlapMatrix(c.matrix.T).birkhoff_contraction, abs=1e-12)
            ms = mu_star(min(c.sigma2, 1.0))
            w = WeightTriple(1.0, ms, ms)
            assert not norms._equality_proven(c, w.r, w.s)


def test_certificate_needs_every_entry_positive():
    cycle = OverlapMatrix(np.roll(np.eye(3), 1, axis=1))
    one_zero = OverlapMatrix([[0.0, 0.5, 0.5], [0.5, 0.25, 0.25], [0.5, 0.25, 0.25]])
    for c in (cycle, one_zero):
        assert c.is_doubly_stochastic() and c.birkhoff_contraction == 1.0
        for mu in np.linspace(0.05, 0.95, 19):
            for lam in np.linspace(0.05, 0.95, 19):
                w = WeightTriple(1.0, float(lam), float(mu))
                assert norms._equality_proven(c, w.r, w.s) == (w.s <= w.r)


def test_certificate_needs_a_doubly_stochastic_matrix():
    c = OverlapMatrix([[0.6, 0.3], [0.3, 0.6]])
    assert c.birkhoff_contraction < 1.0
    assert not norms._equality_proven(c, 2.0, 1.5)
    assert not norms._equality_proven(c, 1.5, 1.6)


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
