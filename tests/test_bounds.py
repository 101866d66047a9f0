"""Tests for the weighted uncertainty bound and its comparisons."""

import math

import numpy as np
import pytest

from entrobound import (
    ConjectureViolationError,
    DensityMatrix,
    LogBase,
    NormConsistencyError,
    SolverOptions,
    WeightTriple,
    basis_measurement,
    bccrr_rhs,
    c_lower_bound,
    compare_state_independent,
    default_envelope_grid,
    entropy_upper_bound,
    envelope_curve,
    evaluate_eur,
    fourier_measurement,
    from_unitary,
    haar_random_unitary,
    identity_overlap,
    measurement_distribution,
    measurement_from_unitary,
    mub_overlap,
    qudit_eur_rhs,
    random_density_matrix,
    rotated_measurement_2d,
    rotation_overlap_2d,
    rpz2_rhs,
    run_compare_random,
    run_compare_sweep,
    shannon_entropy,
    von_neumann_entropy,
)
from entrobound import norms

SEED = 53
FAST = SolverOptions(restarts=8)


# ---------------------------------------------------------------------------
# the additive constant


def test_constant_for_mutually_unbiased_pair():
    assert c_lower_bound(mub_overlap(2), WeightTriple(1.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert c_lower_bound(mub_overlap(4), WeightTriple(1.0, 1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)
    nat = c_lower_bound(mub_overlap(2), WeightTriple(1.0, 1.0, 1.0), base=LogBase.NATURAL)
    assert nat == pytest.approx(math.log(2.0), abs=1e-12)


def test_constant_vanishes_at_zero_alpha():
    assert c_lower_bound(mub_overlap(3), WeightTriple(0.0, 0.0, 0.0)) == 0.0


def test_constant_for_rotation():
    c = rotation_overlap_2d(math.pi / 6)
    val = c_lower_bound(c, WeightTriple(1.0, 1.0, 1.0))
    assert val == pytest.approx(-math.log2(0.75), abs=1e-12)


def test_constant_scales_with_alpha():
    # r and s depend only on the ratios, so halving the triple halves c.
    c = rotation_overlap_2d(math.pi / 6)
    full = c_lower_bound(c, WeightTriple(1.0, 0.6, 0.6), opts=FAST)
    half = c_lower_bound(c, WeightTriple(0.5, 0.3, 0.3), opts=FAST)
    assert half == pytest.approx(0.5 * full, rel=1e-9)


# ---------------------------------------------------------------------------
# the inequality on states


def test_eur_saturates_for_basis_eigenstate():
    x = basis_measurement(2)
    y = fourier_measurement(2)
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    report = evaluate_eur(rho, x, y, WeightTriple(1.0, 1.0, 1.0))
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)
    assert abs(report.gap) <= 1e-12
    assert report.gap == report.lhs - report.rhs
    assert report.c_value == pytest.approx(1.0, abs=1e-12)
    assert report.weights == WeightTriple(1.0, 1.0, 1.0)


def test_eur_holds_on_random_states_and_weights():
    rng = np.random.default_rng(SEED)
    triples = [WeightTriple(1.0, 1.0, 1.0), WeightTriple(1.0, 0.3, 0.7),
               WeightTriple(0.9, 0.2, 0.5), WeightTriple(1.0, 0.0, 1.0)]
    for d in (2, 3):
        x = basis_measurement(d)
        y = fourier_measurement(d)
        z = measurement_from_unitary(haar_random_unitary(d, rng))
        for _ in range(15):
            rho = random_density_matrix(d, rng)
            for w in triples:
                for other in (y, z):
                    report = evaluate_eur(rho, x, other, w, opts=FAST)
                    assert report.gap >= -1e-8


def test_eur_zero_alpha_reduces_to_plain_entropy_sum():
    rng = np.random.default_rng(SEED + 1)
    rho = random_density_matrix(2, rng)
    report = evaluate_eur(rho, basis_measurement(2), fourier_measurement(2),
                          WeightTriple(0.0, 0.0, 0.0))
    assert report.rhs == 0.0
    assert report.gap == report.lhs >= 0.0


# ---------------------------------------------------------------------------
# qudit right-hand side


def test_qudit_rhs_values():
    assert qudit_eur_rhs(0.0, 4, 1.5) == pytest.approx(1.5 + 2.0, abs=1e-12)
    assert qudit_eur_rhs(1.0, 3, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert qudit_eur_rhs(0.5, 2, 1.0) == pytest.approx(2.0, abs=1e-12)
    nat = qudit_eur_rhs(0.5, 2, math.log(2.0), base=LogBase.NATURAL)
    assert nat == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_qudit_rhs_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qudit_eur_rhs(-0.1, 2, 0.5)
    with pytest.raises(ValueError):
        qudit_eur_rhs(1.1, 2, 0.5)
    with pytest.raises(ValueError):
        qudit_eur_rhs(0.5, 2, 1.5)  # above log2(2)
    with pytest.raises(ValueError):
        qudit_eur_rhs(0.5, 2, -0.5)
    # One range check, with one 1e-9 slack, serves this and the eavesdropper bound.
    with pytest.raises(ValueError, match=r"^s_rho = 1\.5 outside \[0, log d\]$"):
        qudit_eur_rhs(0.5, 2, 1.5)
    assert qudit_eur_rhs(0.5, 2, 1.0 + 1e-9) == 1.5 * (1.0 + 1e-9) + 0.5
    assert qudit_eur_rhs(0.5, 2, -1e-9) == 1.5 * -1e-9 + 0.5


# ---------------------------------------------------------------------------
# literature right-hand sides


def test_overlap_rhs_for_equal_top_entries():
    # When the two largest entries coincide the second-entry refinement
    # collapses to the largest-entry bound.
    for c, expected in [(rotation_overlap_2d(math.pi / 6), -math.log2(0.75)),
                        (mub_overlap(4), 2.0)]:
        b = bccrr_rhs(c, 0.7)
        r = rpz2_rhs(c, 0.7)
        assert b == pytest.approx(0.7 + expected, abs=1e-12)
        assert r == pytest.approx(b, abs=1e-12)


def test_second_entry_refinement_never_loses():
    rng = np.random.default_rng(SEED + 2)
    for d in (2, 3, 4):
        for _ in range(10):
            c = from_unitary(haar_random_unitary(d, rng))
            assert rpz2_rhs(c, 0.3) >= bccrr_rhs(c, 0.3) - 1e-12
    # Strict improvement for a generic matrix with distinct top entries.
    c = from_unitary(haar_random_unitary(3, np.random.default_rng(SEED + 3)))
    assert rpz2_rhs(c, 0.0) > bccrr_rhs(c, 0.0) + 1e-6


@pytest.mark.parametrize("rhs", [bccrr_rhs, rpz2_rhs])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_overlap_rhs_refuse_a_non_finite_entropy(rhs, bad):
    # They returned nan or an infinite bound.
    with pytest.raises(ValueError, match=f"^s_rho must be finite, got {bad}$"):
        rhs(rotation_overlap_2d(0.3), bad)


# ---------------------------------------------------------------------------
# state-independent comparison


def test_compare_identity_pair_gives_zero_everywhere():
    row = compare_state_independent(identity_overlap(3), opts=FAST)
    assert row.c1 == 1.0
    assert row.ours == pytest.approx(0.0, abs=1e-9)
    assert row.bccrr == pytest.approx(0.0, abs=1e-12)
    assert row.rpz2 == pytest.approx(0.0, abs=1e-12)
    assert row.ours_at_least and row.conjecture_ok


def test_compare_unbiased_pair_ties_everywhere():
    row = compare_state_independent(rotation_overlap_2d(math.pi / 4), opts=FAST)
    assert row.c1 == pytest.approx(0.5, abs=1e-12)
    assert row.ours == pytest.approx(1.0, abs=1e-9)
    assert row.bccrr == pytest.approx(1.0, abs=1e-12)
    assert row.rpz2 == pytest.approx(1.0, abs=1e-12)
    assert row.ours_at_least and row.conjecture_ok


def test_compare_intermediate_rotation_wins_strictly():
    row = compare_state_independent(rotation_overlap_2d(math.pi / 6), opts=FAST)
    assert row.c1 == pytest.approx(0.75, abs=1e-12)
    assert row.c2 == pytest.approx(0.75, abs=1e-12)
    assert row.ours == pytest.approx(0.5, abs=1e-9)
    assert row.bccrr == pytest.approx(-math.log2(0.75), abs=1e-12)
    assert row.rpz2 == pytest.approx(row.bccrr, abs=1e-12)
    assert row.ours > max(row.bccrr, row.rpz2) + 0.05
    assert row.ours_at_least and row.conjecture_ok


def test_compare_rejects_bad_mode_and_shape():
    from entrobound import OverlapMatrix

    with pytest.raises(ValueError):
        compare_state_independent(rotation_overlap_2d(0.3), on_violation="ignore")
    with pytest.raises(ValueError):
        compare_state_independent(OverlapMatrix(np.full((2, 3), 0.5)))
    # A 1 x 1 matrix has no second entry for the second-overlap bound.
    with pytest.raises(ValueError, match=r"square overlap matrix with d >= 2, got \(1, 1\)$"):
        compare_state_independent(np.array([[1.0]]))


def test_compare_takes_an_array_like_its_overlap_matrix():
    from entrobound import OverlapMatrix

    rng = np.random.default_rng(SEED)
    for c in (rotation_overlap_2d(0.4), from_unitary(haar_random_unitary(3, rng))):
        row = compare_state_independent(c, opts=FAST, on_violation="use_numeric")
        for plain in (np.array(c.matrix), c.matrix.tolist()):
            assert compare_state_independent(plain, opts=FAST, on_violation="use_numeric") == row
        assert compare_state_independent(OverlapMatrix(c.matrix), opts=FAST,
                                         on_violation="use_numeric") == row


def test_compare_runs_the_solver_only_where_no_theorem_applies(stacks):
    def calls():
        return [m.shape[-2:] for m, exps in stacks for _ in exps]

    for theta in (0.0, 0.3, math.pi / 6, math.pi / 4):
        assert compare_state_independent(rotation_overlap_2d(theta), opts=FAST).conjecture_ok
    assert compare_state_independent(np.eye(2)[::-1], opts=FAST).conjecture_ok
    assert calls() == []
    # The engines ask the same theorem: their d = 2 rows start no solve either.
    run_compare_sweep(n_theta=201, opts=FAST)
    run_compare_random(dims=(2,), samples=100, seed=SEED, opts=FAST)
    assert calls() == []
    compare_state_independent(from_unitary(haar_random_unitary(3, np.random.default_rng(SEED))),
                              opts=FAST, on_violation="use_numeric")
    assert calls() == [(3, 3)]
    compare_state_independent([[0.6, 0.3], [0.4, 0.7]], opts=FAST, on_violation="use_numeric")
    assert calls() == [(3, 3), (2, 2)]


def test_compare_checks_its_solve_against_the_closed_form(monkeypatch):
    # For the constant 3 x 3 matrix mu* = 1 puts the solve at r = 1,
    # s = inf, whose closed form is the largest entry 1/3.  A stand-in
    # reduction returns 1/2, inside the certified sandwich [1/3, 1].
    monkeypatch.setattr(norms, "_boundary_norm", lambda m, r, s: (np.eye(3)[0], 0.5))
    with pytest.raises(NormConsistencyError, match="disagrees with closed form"):
        compare_state_independent(mub_overlap(3), opts=FAST)


def test_compare_fallback_on_conjecture_violation():
    # For some qutrit overlaps the numeric norm at the optimal weights
    # exceeds the constant-matrix value; the fallback mode must keep a
    # valid (smaller) constant and mark the row, while the strict mode
    # raises on the same matrix.
    rng = np.random.default_rng([1234, 3])
    violating = None
    for _ in range(10):
        c = from_unitary(haar_random_unitary(3, rng))
        row = compare_state_independent(c, opts=FAST, on_violation="use_numeric")
        assert row.ours <= (1.0 - min(c.sigma2, 1.0)) * math.log2(3.0) + 1e-9
        assert row.ours_at_least == (row.ours >= max(row.bccrr, row.rpz2) - 1e-12)
        if not row.conjecture_ok:
            violating = c
            break
    assert violating is not None
    with pytest.raises(ConjectureViolationError):
        compare_state_independent(violating, opts=FAST, on_violation="raise")


def _compare_each(cs, on_violation):
    """compare_state_independent per matrix: its rows, then the error that stopped it."""
    rows = []
    try:
        for c in cs:
            rows.append(compare_state_independent(c, opts=FAST, on_violation=on_violation))
    except ConjectureViolationError as exc:
        return rows, exc
    return rows, None


def test_compare_many_matches_per_matrix_calls():
    # Mixed dimensions, the d = 2 theorem, a 2 x 2 matrix that is not
    # doubly stochastic, and qutrits whose mu* norm beats the closed form.
    from entrobound import bounds

    rng = np.random.default_rng([1234, 3])
    cs = [from_unitary(haar_random_unitary(d, rng)) for d in (3, 2, 4, 3, 3, 4, 3, 3, 3, 3)]
    cs.insert(4, [[0.6, 0.3], [0.4, 0.7]])
    want, _ = _compare_each(cs, "use_numeric")
    assert not all(row.conjecture_ok for row in want)
    pairs = [(None, c) for c in cs]
    assert [row for _, row in bounds._compare_many(pairs, FAST, on_violation="use_numeric")] == want
    # In strict mode the first violation is raised after the rows before it.
    want, error = _compare_each(cs, "raise")
    got = []
    with pytest.raises(ConjectureViolationError) as raised:
        for _, row in bounds._compare_many(pairs, FAST, on_violation="raise"):
            got.append(row)
    assert got == want and len(want) == 2 and str(raised.value) == str(error)
    with pytest.raises(ValueError):
        list(bounds._compare_many(pairs, FAST, on_violation="ignore"))


# ---------------------------------------------------------------------------
# entropy certification and envelope


def test_entropy_upper_bound_corner():
    val = entropy_upper_bound(0.3, 0.9, mub_overlap(2))
    assert val == pytest.approx(0.2, abs=1e-12)
    assert entropy_upper_bound(0.3, 0.9, mub_overlap(2), grid=[]) == val


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entropy_upper_bound_rejects_non_finite_entropies(bad):
    with pytest.raises(ValueError, match="h_x must be finite"):
        entropy_upper_bound(bad, 0.5, mub_overlap(2))
    with pytest.raises(ValueError, match="h_y must be finite"):
        entropy_upper_bound(0.5, bad, mub_overlap(2), grid=[(0.5, 0.5)])


def test_entropy_upper_bound_improves_with_grid():
    c = rotation_overlap_2d(math.pi / 6)
    small = entropy_upper_bound(0.2, 0.3, c, grid=[(0.5, 0.5)], opts=FAST)
    large = entropy_upper_bound(0.2, 0.3, c, grid=[(0.5, 0.5), (0.3, 0.8)], opts=FAST)
    assert large <= small + 1e-12
    corner_only = entropy_upper_bound(0.2, 0.3, c)
    assert small <= corner_only + 1e-12


def test_entropy_upper_bound_dominates_true_entropy():
    rng = np.random.default_rng(SEED + 4)
    x = basis_measurement(2)
    y = rotated_measurement_2d(math.pi / 6)
    from entrobound import build_overlap

    c = build_overlap(x, y)
    grid = [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.4, 0.6)]
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        h_x = shannon_entropy(measurement_distribution(rho, x))
        h_y = shannon_entropy(measurement_distribution(rho, y))
        bound = entropy_upper_bound(h_x, h_y, c, grid=grid, opts=FAST)
        assert bound >= von_neumann_entropy(rho) - 1e-8


_AXIS21 = np.linspace(0.0, 1.0, 21)
LATTICE21 = [(float(a), float(b)) for a in _AXIS21 for b in _AXIS21]  # (lambda, mu)


def _lattice_matrix(name):
    """(overlap matrix, solver options) of a recorded lattice case."""
    if name == "rot":
        return rotation_overlap_2d(math.pi / 6), None
    haar = haar_random_unitary(3, np.random.default_rng([0, 3]))
    return from_unitary(haar), SolverOptions(restarts=8)


# float.hex of entropy_upper_bound on LATTICE21, recorded when the corner
# and each grid point were solved by their own norm() calls.  Most minima
# sit on numerically solved points.
ENTROPY_UPPER_BITS = {
    ("rot", LogBase.TWO): [
        (0.125, 0.25, "-0x1.01d931e2fdc6ep-3"), (0.125, 0.5, "0x1.8f86c07955ac0p-6"),
        (0.2, 0.6, "0x1.1ae9916298b80p-3"), (0.4, 0.2, "0x1.014c73610e350p-5"),
        (0.55, 0.55, "0x1.91e0c2305f1b0p-2"),
    ],
    ("rot", LogBase.NATURAL): [(0.1, 0.2, "-0x1.e2a952923ce00p-5")],
    ("haar3", LogBase.TWO): [
        (0.2, 0.2, "-0x1.142b3690b8140p-6"), (0.2, 0.4, "0x1.5d40d16761c6ep-4"),
        (0.3, 0.3, "0x1.a76f479caf800p-4"), (0.6, 0.6, "0x1.d45819a51ccc2p-2"),
        (0.95, 0.6, "0x1.308a660255f8bp-1"),
    ],
}


@pytest.mark.parametrize("name, base", list(ENTROPY_UPPER_BITS))
def test_entropy_upper_bound_keeps_its_recorded_bits(name, base):
    c, opts = _lattice_matrix(name)
    for h_x, h_y, bits in ENTROPY_UPPER_BITS[name, base]:
        value = entropy_upper_bound(h_x, h_y, c, grid=LATTICE21, opts=opts, base=base)
        assert isinstance(value, float)
        assert value.hex() == bits, (h_x, h_y)


def test_entropy_upper_bound_stacks_fast_path_points_by_exponent(stacks):
    # The corner and the lattice are solved in one pass.  Its 220 closed-form
    # misses (182 interior) share one stack of at most 122, which takes
    # them in order as problems leave it, those with lambda = 1/2 (s = 2)
    # and mu = 1/2 (r = 2) included.
    value = entropy_upper_bound(0.55, 0.55, rotation_overlap_2d(math.pi / 6), grid=LATTICE21)
    assert value.hex() == "0x1.91e0c2305f1b0p-2"
    assert [len(exps) for _, exps in stacks] == [122, 1, 2, 3, 3, 2, 3, 11, 3, 15, 4, 11, 2]
    assert stacks.peak == 122
    halves = [(sum(r == 2.0 for r, _ in exps), sum(s == 2.0 for _, s in exps))
              for _, exps in stacks]
    # (r = 2, s = 2) points per admission
    assert halves == [(6, 9)] + [(0, 0)] * 5 + [(1, 0), (0, 0), (0, 0), (1, 0), (0, 0), (1, 0),
                                                (0, 0)]


def test_envelope_endpoints():
    c = rotation_overlap_2d(math.pi / 6)
    s_vals, env = envelope_curve(c, [0.0, 1.0], opts=FAST)
    assert np.array_equal(s_vals, [0.0, 1.0])
    # At zero entropy the best-entry corner is in the default grid.
    assert env[0] >= -math.log2(0.75) - 1e-12
    # At maximal entropy the balanced weights reach twice the dimension log.
    assert env[1] == pytest.approx(2.0, abs=1e-9)


def test_envelope_rejects_unequal_weights():
    with pytest.raises(ValueError):
        envelope_curve(mub_overlap(2), [0.5], weight_grid=[WeightTriple(1.0, 0.3, 0.5)])
    with pytest.raises(ValueError):
        envelope_curve(mub_overlap(2), [0.5], weight_grid=[WeightTriple(1.0, 0.0, 0.0)])
    with pytest.raises(ValueError):
        envelope_curve(mub_overlap(2), [0.5], weight_grid=[])


def test_default_envelope_grid_structure():
    grid = default_envelope_grid()
    assert len(grid) == 100
    for w in grid:
        assert w.lam == w.mu > 0.0
        assert 0.0 < w.alpha <= 1.0
