"""Tests for randomness, entanglement-witness, and eavesdropper bounds."""

import math
import struct

import numpy as np
import pytest

from entrobound import (
    DegenerateCaseError,
    DensityMatrix,
    EntropyDeficits,
    LogBase,
    SolverOptions,
    WeightTriple,
    basis_measurement,
    default_envelope_grid,
    deficits_from_entropies,
    eavesdropper_entropy_bound,
    entanglement_witness_analytic,
    entanglement_witness_general,
    feasible_weight_grid,
    fourier_measurement,
    from_unitary,
    haar_random_unitary,
    identity_overlap,
    measurement_distribution,
    mub_overlap,
    norm,
    norm_identity,
    norm_mub,
    optimal_weights,
    partial_trace,
    qudit_eur_rhs,
    random_density_matrix,
    randomness_bound_analytic,
    randomness_bound_numeric,
    rotated_measurement_2d,
    rotation_overlap_2d,
    run_randomness_sweep,
    scan_2d_objective,
    shannon_entropy,
    tensor_measurement,
    tensor_overlap,
    von_neumann_entropy,
    werner_detection_scan,
    werner_state,
)
from entrobound import applications
from entrobound.qmath import _product_entropies

SEED = 61
FAST = SolverOptions(restarts=6)


# ---------------------------------------------------------------------------
# entropy deficits


def test_deficit_gamma_conventions():
    assert EntropyDeficits(0.0, 0.0).gamma == 1.0
    assert math.isinf(EntropyDeficits(0.5, 0.0).gamma)
    assert EntropyDeficits(0.25, 1.0).gamma == 0.5


def test_deficit_clipping_and_validation():
    d = EntropyDeficits(-5e-10, 0.2)
    assert d.delta_x == 0.0 and d.delta_y == 0.2
    with pytest.raises(ValueError):
        EntropyDeficits(-1e-3, 0.2)
    with pytest.raises(ValueError):
        EntropyDeficits(0.2, -1e-3)


def test_deficits_from_entropies():
    d = deficits_from_entropies(1.5, 2.0, 4)
    assert d.delta_x == pytest.approx(0.5, abs=1e-12)
    assert d.delta_y == pytest.approx(0.0, abs=1e-12)
    nat = deficits_from_entropies(math.log(2.0), 0.0, 2, base=LogBase.NATURAL)
    assert nat.delta_x == pytest.approx(0.0, abs=1e-12)
    assert nat.delta_y == pytest.approx(math.log(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# randomness rates


def test_randomness_analytic_unbiased_case_is_exact():
    rb = randomness_bound_analytic(EntropyDeficits(0.125, 0.5), 0.0)
    assert rb.value == 0.5  # bitwise: the full deficit survives
    assert rb.branch == "interior" and not rb.conjectured
    assert float(rb) == rb.value


def test_randomness_analytic_equal_deficits():
    rb = randomness_bound_analytic(EntropyDeficits(0.3, 0.3), 0.5)
    assert rb.value == pytest.approx(0.3 * 0.5 / 1.5, abs=1e-12)
    assert rb.conjectured and rb.branch == "interior"


def test_randomness_analytic_clamped_branch():
    rb = randomness_bound_analytic(EntropyDeficits(0.01, 1.0), 0.5)
    assert rb.value == pytest.approx(0.99, abs=1e-12)
    assert rb.branch == "clamped" and not rb.conjectured


def test_randomness_analytic_rejects_bad_inputs():
    with pytest.raises(ValueError):
        randomness_bound_analytic(EntropyDeficits(1.0, 0.5), 0.5)  # gamma > 1
    with pytest.raises(DegenerateCaseError):
        randomness_bound_analytic(EntropyDeficits(0.1, 0.2), 1.0)
    with pytest.raises(ValueError):
        randomness_bound_analytic(EntropyDeficits(0.1, 0.2), 1.5)


def test_randomness_numeric_unbiased_corner():
    # At weights (mu, lambda) = (1, 1) the bound is log d - H(Y).
    val = randomness_bound_numeric(1.5, 1.7, mub_overlap(4), [(1.0, 1.0)])
    assert val == pytest.approx(2.0 - 1.7, abs=1e-12)
    val = randomness_bound_numeric(2.0, 2.0, mub_overlap(4), [(1.0, 1.0)])
    assert val == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        randomness_bound_numeric(1.0, 1.0, mub_overlap(4), [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_randomness_numeric_rejects_non_finite_entropies(bad):
    c = mub_overlap(2)
    with pytest.raises(ValueError, match="h_x must be finite"):
        randomness_bound_numeric(bad, 0.5, c, [(1.0, 1.0)])
    with pytest.raises(ValueError, match="h_y must be finite"):
        randomness_bound_numeric(0.5, np.array([0.2, bad]), c, [(1.0, 1.0)])


def test_randomness_numeric_matches_clamped_analytic():
    c = rotation_overlap_2d(math.pi / 6)
    grid = feasible_weight_grid(0.5, 11)
    val = randomness_bound_numeric(1.0, 0.9, c, grid, opts=FAST)
    assert val == pytest.approx(0.1, abs=1e-9)


def test_randomness_numeric_matches_analytic_on_random_inputs():
    rng = np.random.default_rng(SEED)
    c = rotation_overlap_2d(math.pi / 6)
    sigma2 = 0.5
    base_grid = feasible_weight_grid(sigma2, 11)
    for _ in range(5):
        h_y = float(rng.uniform(0.0, 1.0))
        h_x = float(rng.uniform(h_y, 1.0))
        dd = deficits_from_entropies(h_x, h_y, 2)
        analytic = randomness_bound_analytic(dd, sigma2)
        grid = base_grid + [optimal_weights(dd.gamma, sigma2)]
        numeric = randomness_bound_numeric(h_x, h_y, c, grid, opts=FAST)
        assert numeric == pytest.approx(analytic.value, abs=1e-6)


# ---------------------------------------------------------------------------
# the numeric randomness bound on a full weight lattice

_AXIS21 = np.linspace(0.0, 1.0, 21)
LATTICE21 = [(float(a), float(b)) for a in _AXIS21 for b in _AXIS21]  # (mu, lambda)


def _lattice_matrix(name):
    """(overlap matrix, solver options) of a recorded lattice case."""
    if name == "rot":
        return rotation_overlap_2d(math.pi / 6), None
    haar = haar_random_unitary(3, np.random.default_rng([0, 3]))
    return from_unitary(haar), SolverOptions(restarts=8)


# float.hex of randomness_bound_numeric on LATTICE21, recorded when each
# grid point was solved by its own norm() call.  The entropy pairs are
# chosen so that most optima sit on numerically solved points.
RANDOMNESS_BITS = {
    ("rot", LogBase.TWO): [
        (0.125, 0.25, "0x1.00ec98f17ee37p-2"), (0.125, 0.5, "0x1.9c1e4fe1aa950p-4"),
        (0.2, 0.6, "0x1.fac020dc03870p-5"), (0.4, 0.2, "0x1.79700b2d77d30p-2"),
        (0.55, 0.55, "0x1.42a4e205a8308p-3"),
    ],
    ("rot", LogBase.NATURAL): [(0.1, 0.2, "0x1.457721715c04dp-3")],
    ("haar3", LogBase.TWO): [
        (0.2, 0.2, "0x1.bc1f006bb09c0p-3"), (0.2, 0.4, "0x1.d5f261cbd16cap-4"),
        (0.3, 0.3, "0x1.92aec2980ea66p-3"), (0.6, 0.6, "0x1.241c998293348p-3"),
        (0.95, 0.6, "0x1.6bb800c820db6p-2"),
    ],
}


@pytest.mark.parametrize("name, base", list(RANDOMNESS_BITS))
def test_randomness_numeric_keeps_its_recorded_bits(name, base):
    c, opts = _lattice_matrix(name)
    for h_x, h_y, bits in RANDOMNESS_BITS[name, base]:
        value = randomness_bound_numeric(h_x, h_y, c, LATTICE21, opts=opts, base=base)
        assert isinstance(value, float)
        assert value.hex() == bits, (h_x, h_y)


def test_randomness_numeric_broadcasts_with_the_bits_of_scalar_calls():
    c = rotation_overlap_2d(math.pi / 6)
    h_x = np.array([[0.0], [0.125], [0.55]])
    h_y = np.array([0.25, 0.5, 0.55, 1.0])
    got = randomness_bound_numeric(h_x, h_y, c, LATTICE21)
    assert got.shape == (3, 4)
    for i, j in np.ndindex(got.shape):
        want = randomness_bound_numeric(float(h_x[i, 0]), float(h_y[j]), c, LATTICE21)
        assert float(got[i, j]).hex() == want.hex(), (i, j)


@pytest.mark.parametrize("base", [LogBase.TWO, LogBase.NATURAL])
def test_sweep_numeric_column_is_randomness_bound_numeric(base):
    c = rotation_overlap_2d(0.3)
    axis = np.linspace(0.0, 1.0, 9)
    grid = [(mu, lam) for mu in axis for lam in axis]
    table = run_randomness_sweep(c, points=4, weight_grid_n=9, base=base)
    assert len(table.rows) == 16
    for h_x, h_y, numeric, _, _ in table.rows:
        want = randomness_bound_numeric(h_x, h_y, c, grid, base=base)
        assert numeric.hex() == want.hex(), (h_x, h_y)


def test_randomness_numeric_stacks_fast_path_points_by_exponent(stacks):
    # The lattice is solved in one pass.  Its 220 closed-form misses (182
    # interior) share one stack of at most 122, which takes them in order
    # as problems leave it, those with mu = 1/2 (r = 2) and lambda = 1/2
    # (s = 2) included.
    value = randomness_bound_numeric(0.55, 0.55, rotation_overlap_2d(math.pi / 6), LATTICE21)
    assert value.hex() == "0x1.42a4e205a8308p-3"
    assert [len(exps) for _, exps in stacks] == [122, 2, 3, 4, 3, 1, 3, 13, 3, 14, 4, 10]
    assert stacks.peak == 122
    halves = [(sum(r == 2.0 for r, _ in exps), sum(s == 2.0 for _, s in exps))
              for _, exps in stacks]
    # (r = 2, s = 2) points per admission
    assert halves == [(9, 6)] + [(0, 0)] * 5 + [(0, 1), (0, 0), (0, 0), (0, 1), (0, 0), (0, 1)]


# ---------------------------------------------------------------------------
# optimal weights


def test_optimal_weights_branches():
    assert optimal_weights(0.7, 0.0) == (1.0, 1.0)
    assert optimal_weights(0.1, 0.5) == (1.0, 0.0)
    assert optimal_weights(3.0, 0.5) == (0.0, 1.0)
    mu, lam = optimal_weights(1.0, 0.5)
    assert mu == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert lam == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_optimal_weights_sit_on_region_boundary():
    for sigma2 in (0.3, 0.5, 0.8):
        for gamma in (sigma2, 0.9, 1.0, 1.1, 1.0 / sigma2):
            mu, lam = optimal_weights(gamma, sigma2)
            assert 0.0 <= mu <= 1.0 and 0.0 <= lam <= 1.0
            slack = (1.0 - mu) * (1.0 - lam) - mu * lam * sigma2**2
            assert abs(slack) <= 1e-12


def test_optimal_weights_beat_feasible_lattice():
    deficits = EntropyDeficits(0.36, 1.0)
    sigma2 = 0.5
    mu, lam = optimal_weights(deficits.gamma, sigma2)
    best = lam * deficits.delta_x + mu * deficits.delta_y
    lattice = max(
        l * deficits.delta_x + m * deficits.delta_y
        for m, l in feasible_weight_grid(sigma2, 101)
    )
    assert best >= lattice - 1e-12
    assert lattice >= best - 1e-3  # the fine lattice gets close


def test_optimal_weights_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimal_weights(-0.1, 0.5)
    with pytest.raises(ValueError):
        optimal_weights(1.0, 1.5)
    with pytest.raises(DegenerateCaseError):
        optimal_weights(1.0, 1.0)


# ---------------------------------------------------------------------------
# entanglement witnesses


def _bell_state():
    k = np.zeros(4)
    k[0] = k[3] = 1.0 / math.sqrt(2.0)
    return DensityMatrix(np.outer(k, k))


def test_witness_flags_bell_state():
    rho = _bell_state()
    x = tensor_measurement(basis_measurement(2), basis_measurement(2))
    y = tensor_measurement(fourier_measurement(2), fourier_measurement(2))
    h_x = shannon_entropy(measurement_distribution(rho, x))
    h_y = shannon_entropy(measurement_distribution(rho, y))
    assert h_x == pytest.approx(1.0, abs=1e-9)
    assert h_y == pytest.approx(1.0, abs=1e-9)
    s_max = max(
        von_neumann_entropy(partial_trace(rho, (2, 2), 0)),
        von_neumann_entropy(partial_trace(rho, (2, 2), 1)),
    )
    assert entanglement_witness_general(
        h_x, h_y, mub_overlap(2), mub_overlap(2), s_max, 1.0, 1.0
    )
    verdict = entanglement_witness_analytic(h_x, h_y, 4, 0.0, s_max)
    assert verdict.detected and not verdict.conjectured
    assert (verdict.mu, verdict.lam) == (1.0, 1.0)
    assert bool(verdict)


def test_witness_passes_innocent_states():
    # The maximally mixed state and a pure product state stay unflagged.
    assert not entanglement_witness_analytic(2.0, 2.0, 4, 0.0, 1.0)
    assert not entanglement_witness_analytic(0.0, 2.0, 4, 0.0, 0.0)
    # sigma2 = 1 never certifies anything.
    verdict = entanglement_witness_analytic(0.0, 0.0, 4, 1.0, 0.0)
    assert not verdict and math.isnan(verdict.mu)


def _scalar_witness(h_x, h_y, d, sigma2, s_max, base):
    """The witness in Python floats, as it read before it took arrays: (detected, conj, mu, lam)."""
    if sigma2 == 1.0:
        return False, False, math.nan, math.nan
    log_d = math.log(d) / base.ln
    dx, dy = max(log_d - h_x, 0.0), max(log_d - h_y, 0.0)
    gamma = (1.0 if dx == 0.0 else math.inf) if dy == 0.0 else math.sqrt(dx / dy)
    if sigma2 == 0.0:
        mu, lam = 1.0, 1.0
    elif gamma < sigma2:
        mu, lam = 1.0, 0.0
    elif gamma > 1.0 / sigma2:
        mu, lam = 0.0, 1.0
    else:
        den = 1.0 - sigma2**2
        mu = min(max((1.0 - sigma2 * gamma) / den, 0.0), 1.0)
        lam = min(max((1.0 - sigma2 / gamma) / den, 0.0), 1.0)
    if sigma2 > 0.0 and (gamma < sigma2 or gamma > 1.0 / sigma2):
        return lam * dx + mu * dy > log_d - s_max, False, mu, lam
    rhs = ((1.0 - sigma2**2) * s_max + (1.0 + sigma2**2) * log_d
           - 2.0 * sigma2 * math.sqrt(dx * dy))
    return h_x + h_y < rhs, sigma2 > 0.0, mu, lam


def _fbits(x):
    return struct.pack("<d", x)


def _clamp_edges(h_x, h_y, base):
    """(h_y, sigma2, kind) at the witness's clamp boundaries, d = 4: sigma2 = 0, and
    sigma2 = gamma ("low") or 1.0 / sigma2 = gamma ("high") exactly, where a float allows."""
    edges = []
    for h in h_y.tolist():
        gamma = deficits_from_entropies(h_x, h, 4, base).gamma
        edges.append((h, 0.0, "zero"))
        if 0.0 < gamma <= 1.0:
            edges.append((h, gamma, "low"))
        elif 1.0 < gamma < math.inf:
            near = (1.0 / gamma, math.nextafter(1.0 / gamma, 0.0), math.nextafter(1.0 / gamma, 1.0))
            edges += [(h, t, "high") for t in near if 1.0 / t == gamma][:1]
    return edges


@pytest.mark.parametrize("base", [LogBase.TWO, LogBase.NATURAL])
def test_witness_body_has_the_bits_of_the_scalar_formula(base):
    """One array body serves the scalar witness and the scan, with Python-float bits."""
    rng = np.random.default_rng(SEED + 7)
    log_d = math.log(4) / base.ln
    sigma2 = rng.random(2000)
    sigma2[::5] = rng.choice([0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0], size=400)
    h_y = rng.random(2000) * log_d
    h_y[::7] = log_d
    h_y[1::9] = log_d + 5e-10
    kinds = set()
    for h_x, s_max in ((0.3 * log_d, 0.2), (log_d, 0.5), (0.0, 0.0), (log_d + 5e-10, 1.0)):
        edges = _clamp_edges(h_x, h_y[:60], base)
        kinds.update(kind for _, _, kind in edges)
        h_y_k = np.concatenate([h_y, [h for h, _, _ in edges]])
        sigma2_k = np.concatenate([sigma2, [t for _, t, _ in edges]])
        _check_witness_bits(h_x, h_y_k, sigma2_k, s_max, base)
    assert kinds == {"zero", "low", "high"}


def _check_witness_bits(h_x, h_y, sigma2, s_max, base):
    """The array witness, the scalar one and the optimal weights against ``_scalar_witness``."""
    det, conj, mu, lam = applications._witness(h_x, h_y, 4, sigma2, s_max, base)
    for k in range(len(h_y)):
        ref = _scalar_witness(h_x, float(h_y[k]), 4, float(sigma2[k]), s_max, base)
        one = entanglement_witness_analytic(h_x, float(h_y[k]), 4, float(sigma2[k]),
                                            s_max, base)
        assert (bool(det[k]), bool(conj[k])) == ref[:2] == (one.detected, one.conjectured)
        for got, want in ((mu[k], ref[2]), (lam[k], ref[3]), (one.mu, ref[2]),
                          (one.lam, ref[3])):
            assert _fbits(got) == _fbits(want)
        if 0.0 < sigma2[k] < 1.0:
            gamma = deficits_from_entropies(h_x, float(h_y[k]), 4, base).gamma
            weights = optimal_weights(gamma, float(sigma2[k]))
            if not (gamma < sigma2[k] or gamma > 1.0 / sigma2[k]):
                assert tuple(map(_fbits, weights)) == (_fbits(ref[2]), _fbits(ref[3]))


def test_analytic_applications_refuse_nan_entropies():
    nan = math.nan
    c = rotation_overlap_2d(0.3)
    with pytest.raises(ValueError, match="^delta_x is negative or NaN: nan$"):
        EntropyDeficits(nan, 0.5)
    with pytest.raises(ValueError, match="^delta_y is negative or NaN: nan$"):
        deficits_from_entropies(1.0, nan, 4)
    with pytest.raises(ValueError, match="^gamma must be nonnegative, got nan$"):
        optimal_weights(nan, 0.5)
    for args, name in (((nan, 0.5, 1.0), "h_xab"), ((0.5, nan, 1.0), "h_yab"),
                       ((0.5, 0.5, nan), "s_max")):
        h_xab, h_yab, s_max = args
        with pytest.raises(ValueError, match=f"^{name} must be finite, got nan$"):
            entanglement_witness_analytic(h_xab, h_yab, 2, 0.5, s_max)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got nan$"):
            entanglement_witness_general(h_xab, h_yab, c, c, s_max, 0.5, 0.5, opts=FAST)
    with pytest.raises(ValueError, match="^delta_y is negative or NaN: nan$"):
        applications._witness(1.0, np.array([1.0, nan]), 4, np.array([0.5, 0.5]), 0.0,
                              LogBase.TWO)


def test_analytic_applications_refuse_infinite_deficits():
    # An infinite deficit was certified as an infinite randomness rate.
    with pytest.raises(ValueError, match="^delta_y must be finite, got inf$"):
        randomness_bound_analytic(EntropyDeficits(0.5, math.inf), 0.5)
    with pytest.raises(ValueError, match="^delta_x must be finite, got inf$"):
        deficits_from_entropies(-math.inf, 1.0, 4)
    with pytest.raises(ValueError, match="^delta_y must be finite, got inf$"):
        applications._checked_deficit("delta_y", np.array([0.5, math.inf]))


# The clamp boundaries with sigma2 = 1/2: deficits (1/8, 1/2) give gamma = 1/2
# exactly and (1/2, 1/8) give gamma = 2; entropies are in bits at d = 4
# (log d = 2).  Each sigma2 is also taken one ulp above and below.
_UP, _DOWN = math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)
RANDOMNESS_EDGES = {  # (delta_x, delta_y, sigma2): (value, conjectured, branch)
    (0.125, 0.5, 0.5): ("0x1.8000000000001p-2", True, "interior"),
    (0.125, 0.5, _UP): ("0x1.8000000000000p-2", False, "clamped"),
    (0.125, 0.5, _DOWN): ("0x1.8000000000001p-2", True, "interior"),
    (0.125, 0.5, 0.0): ("0x1.0000000000000p-1", False, "interior"),
    (0.5, 0.5, 0.0): ("0x1.0000000000000p-1", False, "interior"),
}
EAVESDROPPER_EDGES = {  # (h_x, h_y, sigma2) at d_a = d_b = 2: S(E) bound
    (1.875, 1.5, 0.5): "0x1.8000000000000p+0",
    (1.875, 1.5, _UP): "0x1.8000000000000p+0",
    (1.875, 1.5, _DOWN): "0x1.8000000000000p+0",
    (1.5, 1.875, 0.5): "0x1.8000000000000p+0",
    (1.5, 1.875, _UP): "0x1.8000000000000p+0",
    (1.5, 1.875, _DOWN): "0x1.8000000000000p+0",
    (1.5, 1.875, 0.0): "0x1.6000000000000p+0",
    (1.875, 1.5, 0.0): "0x1.6000000000000p+0",
}
WEIGHT_EDGES = {  # (gamma, sigma2): (mu, lambda)
    (0.5, 0.5): ("0x1.0000000000000p+0", "0x0.0p+0"),
    (0.5, _UP): ("0x1.0000000000000p+0", "0x0.0p+0"),
    (0.5, _DOWN): ("0x1.0000000000000p+0", "0x1.5555555555555p-53"),
    (2.0, 0.5): ("0x0.0p+0", "0x1.0000000000000p+0"),
    (2.0, _UP): ("0x0.0p+0", "0x1.0000000000000p+0"),
    (2.0, _DOWN): ("0x1.5555555555555p-53", "0x1.0000000000000p+0"),
    (0.7, 0.0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (0.0, 0.0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (math.inf, 0.0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (0.0, 0.5): ("0x1.0000000000000p+0", "0x0.0p+0"),
    (math.inf, 0.5): ("0x0.0p+0", "0x1.0000000000000p+0"),
}
WITNESS_EDGES = {  # (h_x, h_y, sigma2, s_max) at d = 4: (detected, conjectured, mu, lambda)
    (1.875, 1.5, 0.5, 1.75): (True, True, "0x1.0000000000000p+0", "0x0.0p+0"),
    (1.875, 1.5, _UP, 1.75): (True, False, "0x1.0000000000000p+0", "0x0.0p+0"),
    (1.5, 1.875, 0.5, 1.75): (True, True, "0x0.0p+0", "0x1.0000000000000p+0"),
    (1.5, 1.875, _UP, 1.75): (True, False, "0x0.0p+0", "0x1.0000000000000p+0"),
    (1.5, 1.875, 0.0, 1.75): (True, False, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (1.875, 1.5, 0.5, 1.5): (False, True, "0x1.0000000000000p+0", "0x0.0p+0"),
    (1.875, 1.5, _UP, 1.5): (False, False, "0x1.0000000000000p+0", "0x0.0p+0"),
}


def test_clamp_boundaries_keep_their_recorded_bits():
    for (dx, dy, sigma2), (value, conjectured, branch) in RANDOMNESS_EDGES.items():
        rb = randomness_bound_analytic(EntropyDeficits(dx, dy), sigma2)
        assert (rb.value.hex(), rb.conjectured, rb.branch) == (value, conjectured, branch)
    for (h_x, h_y, sigma2), value in EAVESDROPPER_EDGES.items():
        assert eavesdropper_entropy_bound(h_x, h_y, 2, 2, sigma2).hex() == value
    for (gamma, sigma2), weights in WEIGHT_EDGES.items():
        assert tuple(w.hex() for w in optimal_weights(gamma, sigma2)) == weights
    for (h_x, h_y, sigma2, s_max), want in WITNESS_EDGES.items():
        got = entanglement_witness_analytic(h_x, h_y, 4, sigma2, s_max)
        assert (got.detected, got.conjectured, got.mu.hex(), got.lam.hex()) == want


def test_square_has_the_bits_of_python_float_power():
    x = np.random.default_rng(SEED).random(200_000)
    assert [v**2 for v in x.tolist()] == applications._square(x).tolist()


def test_witness_rejects_what_the_scalar_rejects():
    with pytest.raises(ValueError, match="sigma2 must lie in"):
        applications._witness(1.0, np.array([1.0, 1.0]), 4, np.array([0.5, 1.5]), 0.0, LogBase.TWO)
    with pytest.raises(ValueError, match="delta_y is negative"):
        applications._witness(1.0, np.array([1.0, 2.1]), 4, np.array([0.5, 0.5]), 0.0, LogBase.TWO)
    # sigma2 = 1 never certifies, so its entropies are not checked, as in the scalar form.
    det, *_ = applications._witness(1.0, np.array([1.0, 2.1]), 4, np.array([0.5, 1.0]), 0.0,
                                    LogBase.TWO)
    assert det.tolist() == [False, False]
    assert not entanglement_witness_analytic(1.0, 2.1, 4, 1.0, 0.0)


def _random_separable_qubit_pair(rng):
    n = int(rng.integers(1, 9))
    weights = rng.dirichlet(np.ones(n))
    m = np.zeros((4, 4), dtype=complex)
    for wgt in weights:
        ka = haar_random_unitary(2, rng)[:, 0]
        kb = haar_random_unitary(2, rng)[:, 0]
        k = np.kron(ka, kb)
        m += wgt * np.outer(k, k.conj())
    return DensityMatrix(m)


def test_witness_never_flags_separable_states():
    rng = np.random.default_rng(SEED + 1)
    x = tensor_measurement(basis_measurement(2), basis_measurement(2))
    for _ in range(60):
        rho = _random_separable_qubit_pair(rng)
        ta, tb = rng.uniform(0.05, math.pi / 4, size=2)
        y = tensor_measurement(rotated_measurement_2d(ta), rotated_measurement_2d(tb))
        h_x = shannon_entropy(measurement_distribution(rho, x))
        h_y = shannon_entropy(measurement_distribution(rho, y))
        s_max = max(
            von_neumann_entropy(partial_trace(rho, (2, 2), 0)),
            von_neumann_entropy(partial_trace(rho, (2, 2), 1)),
        )
        sigma2 = max(math.cos(2.0 * ta), math.cos(2.0 * tb))
        dd = deficits_from_entropies(h_x, h_y, 4)
        assert not entanglement_witness_analytic(h_x, h_y, 4, sigma2, s_max)
        mu, lam = optimal_weights(dd.gamma, sigma2)
        assert not entanglement_witness_general(
            h_x, h_y, rotation_overlap_2d(ta), rotation_overlap_2d(tb),
            s_max, mu, lam, opts=FAST,
        )


# ---------------------------------------------------------------------------
# Werner states


def _swap_matrix(d):
    v = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            v[i * d + j, j * d + i] = 1.0
    return v


def test_werner_state_spectrum():
    for d in (2, 3):
        v = _swap_matrix(d)
        eye = np.eye(d * d)
        p_sym, p_anti = (eye + v) / 2.0, (eye - v) / 2.0
        for phi in (-1.0, -0.3, 0.5):
            w = werner_state(d, phi).matrix.real
            lam_sym = (1.0 + phi) / (d * (d + 1.0))
            lam_anti = (1.0 - phi) / (d * (d - 1.0))
            assert np.allclose(w @ p_sym, lam_sym * p_sym, atol=1e-10)
            assert np.allclose(w @ p_anti, lam_anti * p_anti, atol=1e-10)
            assert np.trace(w @ v) == pytest.approx(phi, abs=1e-10)


def test_werner_state_special_points():
    for d in (2, 3):
        w = werner_state(d, 1.0 / d)
        assert np.allclose(w.matrix, np.eye(d * d) / (d * d), atol=1e-12)
        for keep in (0, 1):
            red = partial_trace(werner_state(d, -0.7), (d, d), keep)
            assert np.allclose(red.matrix, np.eye(d) / d, atol=1e-12)


def test_werner_state_rejects_bad_inputs():
    with pytest.raises(ValueError):
        werner_state(1, 0.0)
    with pytest.raises(ValueError):
        werner_state(2, 1.2)
    with pytest.raises(ValueError):
        werner_state(2, -1.2)


# A count argument of each public function, as an array of its result.
def _fields(result) -> np.ndarray:
    return np.array([float(v) for v in vars(result).values()])


_COUNT_ARGUMENTS = {
    "scan_2d_objective-grid": lambda n: np.array(scan_2d_objective(math.pi / 6, 0.6, 0.5, n)),
    "feasible_weight_grid-n": lambda n: np.array(feasible_weight_grid(0.5, n)),
    "werner_state-d": lambda n: werner_state(n, -0.5).matrix,
    "qudit_eur_rhs-d": lambda n: np.array(qudit_eur_rhs(0.5, n, 1.0)),
    "deficits_from_entropies-d": lambda n: _fields(deficits_from_entropies(1.0, 1.5, n)),
    "eavesdropper_entropy_bound-d_a": lambda n: np.array(
        eavesdropper_entropy_bound(1.5, 1.6, n, 2, 0.5)),
    "eavesdropper_entropy_bound-d_b": lambda n: np.array(
        eavesdropper_entropy_bound(1.5, 1.6, 2, n, 0.5)),
    "entanglement_witness_analytic-d": lambda n: _fields(
        entanglement_witness_analytic(1.0, 1.2, n, 0.5, 0.5)),
    "default_envelope_grid-n_alpha": lambda n: np.array(
        [(w.alpha, w.lam, w.mu) for w in default_envelope_grid(n, 3)]),
    "default_envelope_grid-n_lam": lambda n: np.array(
        [(w.alpha, w.lam, w.mu) for w in default_envelope_grid(3, n)]),
    # The eight constructors and closed forms that take a dimension.
    "basis_measurement-d": lambda n: basis_measurement(n).projectors,
    "fourier_measurement-d": lambda n: fourier_measurement(n).projectors,
    "haar_random_unitary-d": lambda n: haar_random_unitary(n, 0),
    "random_density_matrix-d": lambda n: random_density_matrix(n, 0).matrix,
    "mub_overlap-d": lambda n: mub_overlap(n).matrix,
    "identity_overlap-d": lambda n: identity_overlap(n).matrix,
    "norm_mub-d": lambda n: np.array(norm_mub(n, 2.0, 3.0)),
    "norm_identity-d": lambda n: np.array(norm_identity(n, 2.0, 3.0)),
    "partial_trace-dims": lambda n: partial_trace(DensityMatrix(np.eye(9) / 9), (n, 3), 0).matrix,
}


@pytest.mark.parametrize("value", [2.5, True, np.int64(3)], ids=["float", "bool", "int64"])
@pytest.mark.parametrize("case", _COUNT_ARGUMENTS)
def test_counts_refuse_a_value_that_is_not_an_integer(case, value):
    # 2.5 raised NumPy's TypeError, or was computed with (norm_mub gave 0.858,
    # the eavesdropper bound a negative entropy), and True was refused with a
    # size message or taken as 1.
    call = _COUNT_ARGUMENTS[case]
    if isinstance(value, np.integer):
        assert call(value).tobytes() == call(3).tobytes()
    else:
        with pytest.raises(ValueError, match=rf"must be an integer, got {value!r}$"):
            call(value)


def test_werner_detection_scan_verdicts():
    out = werner_detection_scan(-1.0, [(math.pi / 4, math.pi / 4), (0.0, 0.3), (0.0, math.pi / 4)])
    assert out.dtype == bool and out.shape == (3,)
    assert out[0]          # most entangled state, unbiased local bases
    assert not out[1] and not out[2]  # theta = 0 makes sigma2 = 1
    assert not werner_detection_scan(0.5, [(math.pi / 4, math.pi / 4)])[0]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


# Phi* = -0.669916 to six places: the corner flips there (see test_acceptance).
@pytest.mark.parametrize("base", [LogBase.TWO, LogBase.NATURAL])
@pytest.mark.parametrize("phi", [-1.0, -0.5, -0.1, -0.669916 - 1e-6, -0.669916 + 1e-6])
def test_werner_scan_matches_the_per_pair_path_bit_for_bit(monkeypatch, phi, base):
    """The batched scan hands the witness the per-pair H(Y) and sigma2, bits and all."""
    axis = np.linspace(0.0, math.pi / 4, 50)
    pairs = [(float(a), float(b)) for a in axis for b in axis]  # ten chunks
    seen = []
    witness = applications._witness

    def recording(h_x, h_y, d, sigma2, s_max, base):
        seen.append((h_x, np.array(h_y), np.array(sigma2), s_max))
        return witness(h_x, h_y, d, sigma2, s_max, base)

    monkeypatch.setattr(applications, "_witness", recording)
    got = werner_detection_scan(phi, pairs, base)
    monkeypatch.undo()
    assert len(seen) == 1 and seen[0][1].shape == seen[0][2].shape == (len(pairs),)
    w = werner_state(2, phi)
    x = tensor_measurement(basis_measurement(2), basis_measurement(2))
    h_x = shannon_entropy(measurement_distribution(w, x), base)
    s_max = von_neumann_entropy(partial_trace(w, (2, 2), 0), base)
    h_y, sigma2, expected = [], [], []
    for ta, tb in pairs:
        y = tensor_measurement(rotated_measurement_2d(ta), rotated_measurement_2d(tb))
        h_y.append(shannon_entropy(measurement_distribution(w, y), base))
        sigma2.append(max(math.cos(2.0 * ta), math.cos(2.0 * tb)))
        expected.append(bool(entanglement_witness_analytic(h_x, h_y[-1], 4, sigma2[-1],
                                                           s_max, base)))
    assert (_bits(seen[0][1]) == _bits(h_y)).all()
    assert (_bits(seen[0][2]) == _bits(sigma2)).all()
    assert seen[0][0] == h_x and seen[0][3] == s_max
    assert got.tolist() == expected


# H(Y) of the per-pair path before the scan was batched, as float.hex, at the
# pairs (0, 0), (pi/16, 0.3) and (pi/4, pi/4).
WERNER_H_Y_PINS = {
    (-1.0, LogBase.TWO): ("0x1.0000000000000p+0", "0x1.15ded579ca193p+0", "0x1.0000000000000p+0"),
    (-1.0, LogBase.NATURAL): ("0x1.62e42fefa39efp-1", "0x1.8135d1b08fc2ep-1",
                              "0x1.62e42fefa39efp-1"),
    (-0.5, LogBase.TWO): ("0x1.a667de92a57acp+0", "0x1.aa94b6737b2eep+0", "0x1.a667de92a57acp+0"),
    (-0.5, LogBase.NATURAL): ("0x1.24ca12b0bf1fap+0", "0x1.27aef04f6715dp+0",
                              "0x1.24ca12b0bf1fap+0"),
}


@pytest.mark.parametrize("phi, base", sorted(WERNER_H_Y_PINS, key=str))
def test_werner_scan_entropies_are_pinned(monkeypatch, phi, base):
    seen = []
    witness = applications._witness

    def recording(h_x, h_y, *rest):
        seen.extend(v.hex() for v in np.asarray(h_y).tolist())
        return witness(h_x, h_y, *rest)

    monkeypatch.setattr(applications, "_witness", recording)
    werner_detection_scan(phi, [(0.0, 0.0), (math.pi / 16, 0.3), (math.pi / 4, math.pi / 4)], base)
    assert tuple(seen) == WERNER_H_Y_PINS[phi, base]


@pytest.mark.parametrize("pair, name, angle", [
    ((1.5, 0.7), "theta_a", 1.5),   # max(cos 2 theta) is 0.170; the pair's overlap has 0.990
    ((1.4, 1.2), "theta_a", 1.4),   # max(cos 2 theta) is -0.737
    ((0.3, -0.1), "theta_b", -0.1),
    ((0.3, math.nan), "theta_b", math.nan),
])
def test_werner_scan_refuses_angles_outside_the_rotation_range(pair, name, angle):
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, pi/4\], got {angle}$"):
        werner_detection_scan(-1.0, [(0.2, 0.3), pair])
    with pytest.raises(ValueError, match=rf"^theta must lie in \[0, pi/4\], got {angle}$"):
        rotation_overlap_2d(angle if name == "theta_b" else pair[0])


def test_werner_scan_takes_the_angles_rotation_overlap_takes(monkeypatch):
    # Up to pi/4 + 1e-12, as rotation_overlap_2d; past pi/4, cos 2 theta is
    # slightly negative, and the rotation's sigma2 is its magnitude.
    edge = math.pi / 4 + 5e-13
    seen = []
    witness = applications._witness

    def recording(h_x, h_y, d, sigma2, s_max, base):
        seen.append(np.array(sigma2))
        return witness(h_x, h_y, d, sigma2, s_max, base)

    monkeypatch.setattr(applications, "_witness", recording)
    assert werner_detection_scan(-1.0, [(edge, edge), (edge, 0.3)]).tolist() == [True, False]
    # The overlap snaps a sigma2 below 1e-12 to 0; the scan keeps |cos 2 theta|.
    want = [rotation_overlap_2d(edge).sigma2, rotation_overlap_2d(0.3).sigma2]
    assert seen[0] == pytest.approx(want, abs=2e-12)
    assert seen[0][0] > 0.0


def test_werner_scan_handles_unsorted_repeated_angles_across_chunks():
    rng = np.random.default_rng(SEED)
    angles = rng.uniform(0.0, math.pi / 4, 40)
    pairs = [(float(a), float(b)) for a, b in rng.choice(angles, (700, 2))]
    w = werner_state(2, -0.8)
    a = np.array([rotated_measurement_2d(ta).projectors for ta, _ in pairs])
    b = np.array([rotated_measurement_2d(tb).projectors for _, tb in pairs])
    batched = _product_entropies(w.matrix, a, b, LogBase.TWO)
    per_pair = [shannon_entropy(measurement_distribution(w, tensor_measurement(
        rotated_measurement_2d(ta), rotated_measurement_2d(tb)))) for ta, tb in pairs]
    assert (_bits(batched) == _bits(per_pair)).all()
    scan = werner_detection_scan(-0.8, pairs)
    assert scan.tolist() == [bool(werner_detection_scan(-0.8, [p])[0]) for p in pairs]
    assert werner_detection_scan(-0.8, []).shape == (0,)


# ---------------------------------------------------------------------------
# eavesdropper entropy


def test_eavesdropper_unbiased_and_mixed_points():
    assert eavesdropper_entropy_bound(1.3, 1.7, 2, 2, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert eavesdropper_entropy_bound(2.0, 2.0, 2, 2, 0.5) == pytest.approx(2.0, abs=1e-12)


def test_eavesdropper_clamped_branches_are_exact():
    assert eavesdropper_entropy_bound(2.0, 1.0, 2, 2, 0.5) == 1.0
    assert eavesdropper_entropy_bound(1.0, 2.0, 2, 2, 0.5) == 1.0


def test_eavesdropper_rejects_bad_inputs():
    with pytest.raises(ValueError):
        eavesdropper_entropy_bound(2.5, 1.0, 2, 2, 0.5)
    with pytest.raises(ValueError):
        eavesdropper_entropy_bound(-0.5, 1.0, 2, 2, 0.5)
    with pytest.raises(DegenerateCaseError):
        eavesdropper_entropy_bound(1.0, 1.0, 2, 2, 1.0)
    with pytest.raises(ValueError):
        eavesdropper_entropy_bound(1.0, 1.0, 2, 2, 1.5)
    with pytest.raises(ValueError, match=r"^h_y = 2\.5 outside \[0, log d\]$"):
        eavesdropper_entropy_bound(1.0, 2.5, 2, 2, 0.5)


def test_eavesdropper_matches_weight_grid_minimum():
    # Independent oracle: minimize lambda H_X + mu H_Y + log||C_AB|| over
    # region weights (plus the claimed optimum) for a product of rotations.
    c_ab = tensor_overlap(rotation_overlap_2d(0.4), rotation_overlap_2d(0.6))
    sigma2 = max(math.cos(0.8), math.cos(1.2))
    assert c_ab.sigma2 == pytest.approx(sigma2, abs=1e-12)
    base_grid = feasible_weight_grid(sigma2, 11)
    for h_x, h_y in [(1.5, 1.5), (1.55, 1.45), (1.2, 1.1)]:
        dd = deficits_from_entropies(h_x, h_y, 4)
        grid = base_grid + [optimal_weights(dd.gamma, sigma2)]
        oracle = min(
            lam * h_x + mu * h_y + norm(c_ab, WeightTriple(1.0, lam, mu), opts=FAST).log_value
            for mu, lam in grid
        )
        value = eavesdropper_entropy_bound(h_x, h_y, 2, 2, sigma2)
        assert value == pytest.approx(oracle, abs=1e-6)
