"""Overlap-matrix construction, properties, and serialization."""

import math
import re

import numpy as np
import pytest

from entrobound import (
    OverlapMatrix,
    ProjectiveMeasurement,
    basis_measurement,
    build_overlap,
    from_text,
    from_unitary,
    haar_random_unitary,
    identity_overlap,
    measurement_from_unitary,
    mub_overlap,
    rotation_overlap_2d,
    second_singular_value,
    tensor_overlap,
    to_text,
)
from entrobound.errors import DimensionMismatchError, InvalidStateError


def test_build_overlap_is_doubly_stochastic_for_rank_one_pairs():
    rng = np.random.default_rng(31)
    for d in (2, 3, 5):
        x = measurement_from_unitary(haar_random_unitary(d, rng))
        y = measurement_from_unitary(haar_random_unitary(d, rng))
        c = build_overlap(x, y)
        assert c.is_doubly_stochastic()
        m = c.matrix
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-10)
        assert m.min() >= 0.0


def test_from_unitary_matches_measurement_overlap():
    rng = np.random.default_rng(37)
    for d in (2, 4):
        u = haar_random_unitary(d, rng)
        direct = from_unitary(u)
        via_meas = build_overlap(basis_measurement(d), measurement_from_unitary(u))
        assert np.allclose(direct.matrix, via_meas.matrix, atol=1e-12)


def test_rotation_overlap_entries_and_sigma2():
    theta = math.pi / 6
    c = rotation_overlap_2d(theta)
    assert abs(c.max_entry - 0.75) < 1e-15
    # Singular values of the 2x2 rotation overlap are {1, cos 2 theta}.
    assert abs(c.sigma2 - 0.5) < 1e-12
    with pytest.raises(ValueError):
        rotation_overlap_2d(1.0)  # beyond pi/4
    with pytest.raises(ValueError):
        rotation_overlap_2d(-0.1)


def test_special_matrices():
    c = mub_overlap(4)
    assert np.allclose(c.matrix, 0.25, atol=0)
    assert c.sigma2 < 1e-12
    c = identity_overlap(3)
    assert np.allclose(c.matrix, np.eye(3), atol=0)
    assert abs(c.sigma2 - 1.0) < 1e-12
    assert repr(c) == "OverlapMatrix(shape=(3, 3), source='identity(3)')"


def test_tensor_overlap_sigma2_is_max_factor_value():
    a = rotation_overlap_2d(math.pi / 8)
    b = rotation_overlap_2d(math.pi / 6)
    t = tensor_overlap(a, b)
    assert t.matrix.shape == (4, 4)
    assert t.is_doubly_stochastic()
    # Singular values multiply under the tensor product; the second
    # largest is therefore max(cos 2 theta_a, cos 2 theta_b).
    expected = max(math.cos(math.pi / 4), math.cos(math.pi / 3))
    assert abs(t.sigma2 - expected) < 1e-12


def test_sigma2_of_a_doubly_stochastic_matrix_is_capped_at_one():
    # There sigma2 <= 1 is a theorem; the SVD read 1.0000000000000002 here.
    t = tensor_overlap(rotation_overlap_2d(0.0), rotation_overlap_2d(0.028282828282828285))
    assert t.is_doubly_stochastic()
    assert t.sigma2 == 1.0
    assert second_singular_value(t) == 1.0


def test_sigma2_of_a_matrix_that_is_not_doubly_stochastic_is_raw():
    assert OverlapMatrix([[2.0, 0.0], [0.0, 2.0]]).sigma2 == 2.0


def test_second_singular_value_known_matrix():
    assert abs(second_singular_value(np.eye(3)) - 1.0) < 1e-12
    assert second_singular_value(np.full((3, 3), 1.0 / 3.0)) < 1e-12


def test_overlap_rejects_negative_entries():
    # Under NumPy 2 the message said "np.float64(-0.1)".
    with pytest.raises(InvalidStateError, match=r"^overlap entry -0\.1 below -1e-12$"):
        OverlapMatrix(np.array([[1.1, -0.1], [-0.1, 1.1]]))


@pytest.mark.parametrize("shape", [(2, 0), (0, 3), (0, 0)])
def test_overlap_rejects_a_zero_length_axis_naming_the_shape(shape):
    with pytest.raises(DimensionMismatchError, match=re.escape(f"got shape {shape}")):
        OverlapMatrix(np.zeros(shape))


def test_is_doubly_stochastic_flags_non_ds():
    c = OverlapMatrix(np.array([[0.9, 0.0], [0.0, 0.9]]))
    assert not c.is_doubly_stochastic()


def test_serialization_roundtrip_is_bitwise():
    rng = np.random.default_rng(41)
    c = from_unitary(haar_random_unitary(4, rng))
    text = to_text(c)
    back = from_text(text)
    assert np.array_equal(back.matrix, c.matrix)


def test_from_text_skips_comments_and_blanks():
    text = "# a comment\n\n0.75 0.25\n0.25 0.75\n"
    c = from_text(text)
    assert np.allclose(c.matrix, [[0.75, 0.25], [0.25, 0.75]], atol=0)


def test_from_text_rejects_no_rows_and_ragged_rows():
    with pytest.raises(ValueError, match="^no matrix rows found$"):
        from_text("# only a comment\n\n")
    with pytest.raises(DimensionMismatchError, match=r"^ragged rows with lengths \[1, 2\]$"):
        from_text("0.5 0.5\n1.0\n")


def test_build_overlap_rejects_differing_dimensions():
    with pytest.raises(DimensionMismatchError, match="^dimensions differ: 2 vs 3$"):
        build_overlap(basis_measurement(2), basis_measurement(3))


def test_build_overlap_rejects_a_rank_one_pair_that_is_not_doubly_stochastic():
    # Each projector passes its own 1e-10 checks, but the overlap's row sums
    # add both slacks: 1 + 1.8e-10 is past the doubly-stochastic tolerance.
    x = ProjectiveMeasurement(basis_measurement(2).projectors * (1.0 + 0.9e-10))
    with pytest.raises(InvalidStateError, match="^rank-1 overlap is not doubly stochastic$"):
        build_overlap(x, x)
