"""State, measurement, entropy, and Gibbs-gap primitives."""

import math

import numpy as np
import pytest

from entrobound import (
    DensityMatrix,
    LogBase,
    ProjectiveMeasurement,
    basis_measurement,
    fourier_measurement,
    gibbs_gap,
    gibbs_state,
    haar_random_unitary,
    measurement_distribution,
    measurement_from_unitary,
    partial_trace,
    random_density_matrix,
    rotated_measurement_2d,
    shannon_entropy,
    tensor_measurement,
    von_neumann_entropy,
)
from entrobound import (
    from_unitary,
    identity_overlap,
    mub_overlap,
    norm_identity,
    norm_mub,
    run_randomness_sweep,
)
from entrobound.errors import DimensionMismatchError, InvalidDistributionError, InvalidStateError
from entrobound.qmath import (
    _check_projectors,
    _check_states,
    _entropies,
    _product_entropies,
    _random_states,
)

# Frozen oracle: H([3/4, 1/4]) = 2 - (3/4) log2 3, computed by hand.
H_THREE_QUARTERS = 2.0 - 0.75 * math.log2(3.0)


def test_shannon_entropy_frozen_value():
    assert abs(shannon_entropy([0.75, 0.25]) - H_THREE_QUARTERS) < 1e-12
    nats = shannon_entropy([0.75, 0.25], LogBase.NATURAL)
    assert abs(nats - H_THREE_QUARTERS * math.log(2.0)) < 1e-12


def test_shannon_entropy_extremes():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    for d in (2, 3, 7):
        assert abs(shannon_entropy(np.full(d, 1.0 / d)) - math.log2(d)) < 1e-12


def test_shannon_entropy_rejects_bad_distributions():
    # Under NumPy 2 the messages said "np.float64(1.1)" and "np.float64(-0.2)".
    with pytest.raises(InvalidDistributionError, match=r"^entries sum to 1\.1, not 1$"):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(InvalidDistributionError, match=r"^negative entry -0\.2 beyond tolerance$"):
        shannon_entropy([1.2, -0.2])
    with pytest.raises(InvalidDistributionError, match=r"^expected a vector, got shape \(2, 2\)$"):
        shannon_entropy(np.eye(2) / 2)


def test_log_base_exp_inverts_log():
    assert LogBase.TWO.exp(3.0) == pytest.approx(8.0, rel=1e-15)
    for base in LogBase:
        assert base.exp(base.log(2.5)) == pytest.approx(2.5, rel=1e-15)


def test_density_matrix_validation():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(2))
    rho = DensityMatrix(np.eye(3) / 3)
    assert rho.dim == 3
    assert abs(rho.eigenvalues().sum() - 1.0) < 1e-12
    with pytest.raises(DimensionMismatchError,
                       match=r"^expected a square matrix, got shape \(3,\)$"):
        DensityMatrix(np.ones(3) / 3)


NON_SQUARE = np.zeros((2, 3))


@pytest.mark.parametrize("refuse", [
    DensityMatrix,
    measurement_from_unitary,
    from_unitary,
    gibbs_state,
    lambda m: gibbs_gap(DensityMatrix(np.eye(2) / 2), m),
    run_randomness_sweep,
], ids=["DensityMatrix", "measurement_from_unitary", "from_unitary", "gibbs_state", "gibbs_gap",
        "run_randomness_sweep"])
def test_a_matrix_that_is_not_square_is_refused_alike_everywhere(refuse):
    # DensityMatrix raised InvalidStateError, the sweep a plain ValueError, and
    # the unitary and Hermitian checks said "got (2, 3)".
    with pytest.raises(DimensionMismatchError,
                       match=r"^expected a square matrix, got shape \(2, 3\)$"):
        refuse(NON_SQUARE)


def test_von_neumann_entropy_pure_and_mixed():
    pure = np.zeros((3, 3))
    pure[0, 0] = 1.0
    assert von_neumann_entropy(DensityMatrix(pure)) < 1e-12
    assert abs(von_neumann_entropy(DensityMatrix(np.eye(4) / 4)) - 2.0) < 1e-12


def test_von_neumann_entropy_unitary_invariance():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(4, rng)
    u = haar_random_unitary(4, rng)
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
    assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


def test_measurement_constructors_are_valid():
    for meas in (basis_measurement(3), fourier_measurement(4),
                 rotated_measurement_2d(0.3),
                 measurement_from_unitary(haar_random_unitary(3, 5))):
        p = meas.projectors
        ident = p.sum(axis=0)
        assert np.allclose(ident, np.eye(p.shape[1]), atol=1e-10)
        for proj in p:
            assert np.allclose(proj, proj.conj().T, atol=1e-10)
            assert np.allclose(proj @ proj, proj, atol=1e-10)


def test_measurement_rejects_incomplete_projectors():
    p = np.zeros((1, 2, 2))
    p[0, 0, 0] = 1.0
    with pytest.raises(InvalidStateError):
        ProjectiveMeasurement(p)
    with pytest.raises(DimensionMismatchError,
                       match=r"^expected projectors of shape \(n, d, d\), got \(2, 2\)$"):
        ProjectiveMeasurement(np.eye(2))
    with pytest.raises(DimensionMismatchError, match="^one label per projector required$"):
        ProjectiveMeasurement(basis_measurement(2).projectors, labels=("up",))
    with pytest.raises(InvalidStateError, match="^matrix is not unitary within 1e-10$"):
        measurement_from_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_measurement_counts_its_outcomes():
    assert basis_measurement(3).n_outcomes == 3
    assert tensor_measurement(basis_measurement(2), fourier_measurement(3)).n_outcomes == 6


def test_measurement_distribution_uniform_on_mixed():
    rho = DensityMatrix(np.eye(5) / 5)
    meas = measurement_from_unitary(haar_random_unitary(5, 7))
    assert np.allclose(measurement_distribution(rho, meas), 0.2, atol=1e-10)


def test_measurement_distribution_refuses_a_mismatch_and_a_negative_probability():
    with pytest.raises(DimensionMismatchError,
                       match="^state dimension 2 != measurement dimension 3$"):
        measurement_distribution(DensityMatrix(np.eye(2) / 2), basis_measurement(3))
    # Two eigenvalues of -9e-11 each pass the state's -1e-10 check, but a
    # rank-2 projector onto both sees a probability of -1.8e-10.
    rho = DensityMatrix(np.diag([1.0 + 1.8e-10, -9e-11, -9e-11]))
    meas = ProjectiveMeasurement(np.array([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]))
    with pytest.raises(InvalidDistributionError) as excinfo:
        measurement_distribution(rho, meas)
    assert str(excinfo.value) == "probability -1.8e-10 below -1e-10"


def test_rotated_measurement_matches_hand_distribution():
    theta = 0.37
    pure = np.zeros((2, 2))
    pure[0, 0] = 1.0
    p = measurement_distribution(DensityMatrix(pure), rotated_measurement_2d(theta))
    assert abs(p[0] - math.cos(theta) ** 2) < 1e-12
    assert abs(p[1] - math.sin(theta) ** 2) < 1e-12


def test_haar_unitary_statistics():
    rng = np.random.default_rng(11)
    first = []
    for _ in range(300):
        u = haar_random_unitary(3, rng)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
        first.append(abs(u[0, 0]) ** 2)
    # E|u_00|^2 = 1/d for the Haar measure.
    assert abs(np.mean(first) - 1.0 / 3.0) < 0.02


def test_random_density_matrix_is_valid_state():
    rng = np.random.default_rng(13)
    for d in (2, 3, 6):
        rho = random_density_matrix(d, rng)
        m = rho.matrix
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.trace(m).real - 1.0) < 1e-12
        assert rho.eigenvalues().min() > -1e-12


@pytest.mark.parametrize("draw", [haar_random_unitary, random_density_matrix])
@pytest.mark.parametrize("seed, message", [(-1, "must be >= 0, got -1"),
                                           (np.int64(-7), "must be >= 0, got -7"),
                                           (True, "must be an integer, got True"),
                                           (1.5, "must be an integer, got 1.5")])
def test_random_draws_refuse_a_negative_seed_by_name(draw, seed, message):
    # NumPy's own refusals read "expected non-negative integer" and, for 1.5, a TypeError;
    # True drew as seed 1.
    with pytest.raises(ValueError, match=rf"^seed {message}$"):
        draw(3, seed)


def test_tensor_measurement_product_distribution():
    x = rotated_measurement_2d(0.4)
    y = basis_measurement(2)
    rng = np.random.default_rng(17)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(2, rng)
    joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
    p = measurement_distribution(joint, tensor_measurement(x, y))
    expected = np.outer(measurement_distribution(rho_a, x),
                        measurement_distribution(rho_b, y)).ravel()
    assert np.allclose(p, expected, atol=1e-12)


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(19)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(3, rng)
    joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
    assert np.allclose(partial_trace(joint, (2, 3), 0).matrix, rho_a.matrix, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), 1).matrix, rho_b.matrix, atol=1e-12)
    with pytest.raises(DimensionMismatchError, match=r"^dims \(3, 3\) incompatible with 6$"):
        partial_trace(joint, (3, 3), 0)
    # Any other length raised the interpreter's unpacking error, which does not name dims.
    for dims, shown in (((2, 3, 1), r"\(2, 3, 1\)"), ((6,), r"\(6,\)")):
        with pytest.raises(ValueError, match=rf"^dims must be a pair \(d_a, d_b\), got {shown}$"):
            partial_trace(joint, dims, 0)


def test_partial_trace_refuses_a_keep_that_is_not_zero_or_one():
    # True and 1.0 were both taken as 1.
    rho = DensityMatrix(np.eye(4) / 4)
    for keep in (True, 1.0):
        with pytest.raises(ValueError, match=rf"^keep must be an integer, got {keep!r}$"):
            partial_trace(rho, (2, 2), keep)
    with pytest.raises(ValueError, match="^keep must be 0 or 1, got 2$"):
        partial_trace(rho, (2, 2), 2)
    assert (partial_trace(rho, (2, 2), np.int64(1)).matrix
            == partial_trace(rho, (2, 2), 1).matrix).all()


def test_gibbs_gap_nonnegative_on_random_sweep():
    rng = np.random.default_rng(23)
    worst = np.inf
    for d in (2, 3, 4):
        for _ in range(50):
            rho = random_density_matrix(d, rng)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            lind = (g + g.conj().T) / 2
            worst = min(worst, gibbs_gap(rho, lind))
    assert worst >= -1e-9


def test_gibbs_gap_vanishes_at_thermal_state():
    rng = np.random.default_rng(29)
    for base in (LogBase.TWO, LogBase.NATURAL):
        for d in (2, 4):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            lind = (g + g.conj().T) / 2
            rho = gibbs_state(lind, base)
            assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
            assert abs(gibbs_gap(rho, lind, base)) < 1e-12


def test_gibbs_gap_rejects_non_hermitian_operator():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(InvalidStateError):
        gibbs_gap(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError,
                       match=r"^operator shape \(3, 3\) != state shape \(2, 2\)$"):
        gibbs_gap(rho, np.eye(3))


def test_gibbs_state_rejects_non_hermitian_operator():
    # The eigensolver read only the lower triangle: this L gave the maximally mixed state.
    with pytest.raises(InvalidStateError, match="^operator is not Hermitian within 1e-10$"):
        gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _raised(fn, *args):
    with pytest.raises(Exception) as excinfo:
        fn(*args)
    return type(excinfo.value), str(excinfo.value)


def _broken_sets():
    """A valid 4x4 product measurement and three sets that each break one check."""
    good = tensor_measurement(rotated_measurement_2d(0.3), rotated_measurement_2d(0.7)).projectors
    non_hermitian = good.copy()
    non_hermitian[2, 0, 1] += 1e-6j
    non_idempotent = good.copy()
    non_idempotent[1] *= 1.01
    incomplete = good.copy()
    incomplete[3] = 0.0
    return good, (non_hermitian, non_idempotent, incomplete)


def test_projector_stack_raises_like_projective_measurement():
    good, broken = _broken_sets()
    messages = ("projector 2 is not Hermitian", "projector 1 is not idempotent",
                "projectors do not sum to the identity")
    for bad, message in zip(broken, messages):
        expected = _raised(ProjectiveMeasurement, bad)
        assert expected == (InvalidStateError, message)
        for at in (0, 3, 5):
            stack = np.array([good] * 6)
            stack[at] = bad
            assert _raised(_check_projectors, stack) == expected
    _check_projectors(np.array([good] * 6))


def test_state_stack_raises_like_density_matrix():
    good = random_density_matrix(3, np.random.default_rng(11)).matrix
    non_hermitian = good.copy()
    non_hermitian[0, 1] += 1e-6j
    off_trace = good * (1.0 + 1e-9)
    w, v = np.linalg.eigh(good)
    shift = w[0] + 1e-6  # moves the smallest eigenvalue to -1e-6, keeping the trace
    negative = (v * (w + np.array([-shift, 0.0, shift]))) @ v.conj().T
    messages = ("matrix is not Hermitian within 1e-12",
                f"trace is {float(np.trace(off_trace).real)!r}, not 1 within 1e-12",
                "matrix has an eigenvalue below -1e-10")
    for bad, message in zip((non_hermitian, off_trace, negative), messages):
        expected = _raised(DensityMatrix, bad)
        assert expected == (InvalidStateError, message)
        for at in (0, 3, 5):
            stack = np.array([good] * 6)
            stack[at] = bad
            assert _raised(_check_states, stack) == expected
    spectra = _check_states(np.array([good] * 6))
    assert (spectra == DensityMatrix(good).eigenvalues()).all()


def test_density_matrix_keeps_its_validated_spectrum():
    m = np.diag([0.75, 0.25]).astype(complex)
    rho = DensityMatrix(m)
    m[0, 0] = 5.0
    assert rho.matrix[0, 0] == 0.75
    assert not rho.matrix.flags.writeable
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0
    assert rho.eigenvalues().tolist() == [0.25, 0.75]
    assert von_neumann_entropy(rho) == shannon_entropy([0.25, 0.75])


def test_state_stack_reports_the_first_failing_state_first():
    good = np.eye(2, dtype=complex) / 2
    off_trace = np.eye(2, dtype=complex)
    non_hermitian = good + np.array([[0.0, 1e-6j], [0.0, 0.0]])
    stack = np.array([good, off_trace, non_hermitian])
    assert _raised(_check_states, stack) == _raised(DensityMatrix, off_trace)


def test_random_states_draw_the_stream_of_random_density_matrix():
    for d in (1, 2, 5):
        one_by_one = np.random.default_rng(d)
        expected = np.array([random_density_matrix(d, one_by_one).matrix for _ in range(9)])
        stacked = np.random.default_rng(d)
        got = np.concatenate([_random_states(stacked, n, d) for n in (4, 1, 4)])
        assert (got.view(np.int64) == expected.view(np.int64)).all()
        assert one_by_one.random() == stacked.random()


def test_product_entropies_of_the_maximally_mixed_state_are_two_bits():
    # The factors were checked when their measurements were built; the
    # products are not checked again.
    rho = DensityMatrix(np.eye(4) / 4)
    a = np.array([rotated_measurement_2d(t).projectors for t in (0.1, 0.2, 0.3)])
    b = a[::-1].copy()
    assert np.allclose(_product_entropies(rho.matrix, a, b, LogBase.TWO), 2.0, atol=1e-12)


@pytest.mark.parametrize("n", [9, 10, 16, 17, 33])
def test_shannon_entropy_keeps_its_bits_from_nine_entries(n):
    """Zero entries are dropped, not summed as zeros: NumPy sums 9+ entries pairwise."""
    rng = np.random.default_rng(n)
    rows = []
    for zeros in range(n - 1):
        p = rng.random(n)
        p[rng.choice(n, zeros, replace=False)] = 0.0
        rows.append(p / p.sum())
    for base in (LogBase.TWO, LogBase.NATURAL):
        reference = []
        for p in rows:
            pos = p[p > 0.0]
            reference.append(float(-(pos * np.log(pos)).sum() / base.ln))
            assert shannon_entropy(p, base).hex() == reference[-1].hex()
        batched = _entropies(np.array(rows), base)
        assert [float(h).hex() for h in batched] == [h.hex() for h in reference]


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("make", [
    basis_measurement,
    fourier_measurement,
    lambda d: haar_random_unitary(d, 0),
    lambda d: random_density_matrix(d, 0),
    mub_overlap,
    identity_overlap,
    lambda d: norm_mub(d, 2.0, 3.0),
    lambda d: norm_identity(d, 2.0, 3.0),
], ids=["basis", "fourier", "haar", "density", "mub_overlap", "identity_overlap",
        "norm_mub", "norm_identity"])
def test_constructors_reject_dimensions_below_one(make, d):
    with pytest.raises(ValueError, match=f"^dimension must be >= 1, got {d}$"):
        make(d)
