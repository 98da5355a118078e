import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.lattice import MAX_DIMENSION, LatticeBox, _guard_box, _sum_squares, as_multi_index


def test_enumerate_lex_order_d2_n1():
    box = LatticeBox(2, 1)
    expected = [
        (-1, -1), (-1, 0), (-1, 1),
        (0, -1), (0, 0), (0, 1),
        (1, -1), (1, 0), (1, 1),
    ]
    assert [tuple(p) for p in box.enumerate()] == expected


def test_cardinality_and_side():
    assert LatticeBox(2, 1).cardinality == 9
    assert LatticeBox(2, 4).cardinality == 81
    assert LatticeBox(3, 2).cardinality == 125
    assert LatticeBox(3, 2).side == 5


def test_linear_index_specific_points():
    box = LatticeBox(2, 1)
    assert box.linear_index((0, 0)) == 4
    assert box.linear_index((-1, -1)) == 0
    assert box.linear_index((1, 1)) == 8


def test_linear_index_inverts_enumeration():
    for d, radius in ((2, 2), (3, 1)):
        box = LatticeBox(d, radius)
        for i, pt in enumerate(box.enumerate()):
            assert box.linear_index(pt) == i


def test_linear_indices_vectorized_matches_scalar():
    box = LatticeBox(2, 3)
    pts = box.enumerate()
    assert np.array_equal(box.linear_indices(pts), np.arange(box.cardinality))


def test_linear_index_outside_raises():
    box = LatticeBox(2, 1)
    with pytest.raises(IndexError):
        box.linear_index((2, 0))
    with pytest.raises(IndexError):
        box.linear_index((0, 0, 0))
    with pytest.raises(IndexError):
        box.linear_indices(np.array([[0, 2]]))


def test_index_errors_name_the_point():
    # linear_index is the one-point case of linear_indices: same rule, same words
    box = LatticeBox(2, 1)
    for call in (lambda: box.linear_index((0, 2)), lambda: box.linear_indices([[1, 1], [0, 2]])):
        with pytest.raises(IndexError, match=r"^lattice point \(0, 2\) outside box of radius 1$"):
            call()
    for call in (lambda: box.linear_index((0, 0, 1)), lambda: box.linear_indices([[0, 0, 1]])):
        with pytest.raises(IndexError, match=r"^lattice point \(0, 0, 1\) has dimension 3, box has d=2$"):
            call()
    with pytest.raises(IndexError, match=r"^expected an \(n, 2\) array of points, got shape \(0, 3\)$"):
        box.linear_indices(np.zeros((0, 3), dtype=np.int64))


def test_contains():
    box = LatticeBox(2, 1)
    assert box.contains((1, -1))
    assert not box.contains((2, 0))
    with pytest.raises(ValueError, match=r"^lattice point \(0, 0, 0\) has dimension 3, box has d=2$"):
        box.contains((0, 0, 0))


def test_negation_permutation():
    for d, radius in ((2, 1), (2, 3), (3, 1)):
        box = LatticeBox(d, radius)
        perm = box.linear_indices(-box.enumerate())
        assert np.array_equal(box.enumerate()[perm], -box.enumerate())
        # negation reverses the canonical order, which every caller relies on
        assert np.array_equal(perm, np.arange(box.cardinality)[::-1])


def test_center_index_is_origin():
    for d, radius in ((2, 1), (2, 4), (3, 2)):
        box = LatticeBox(d, radius)
        assert tuple(box.enumerate()[box.center_index()]) == (0,) * d


def test_enumeration_read_only():
    box = LatticeBox(2, 1)
    with pytest.raises(ValueError):
        box.enumerate()[0, 0] = 5


def test_as_multi_index_rejects_non_integers():
    with pytest.raises((TypeError, ValueError)):
        as_multi_index((0.5, 1.0))
    assert np.array_equal(as_multi_index((1.0, -2.0)), np.array([1, -2]))
    # bools are not integers; an int64 array passes as it is, uncopied
    with pytest.raises(ValueError, match="multi-index entries must be integers"):
        as_multi_index(np.array([True, False]))
    arr = np.array([1, -2])
    assert as_multi_index(arr) is arr
    # the point array of linear_indices follows the same rule
    box = LatticeBox(2, 1)
    for bad in ([[0.5, 0.0]], np.array([[True, False]]), [[np.nan, 0.0]]):
        with pytest.raises(ValueError, match="lattice point entries must be integers"):
            box.linear_indices(bad)
    assert box.linear_indices([[1.0, 0.0]]).tolist() == [box.linear_index((1, 0))]


def test_invalid_box_parameters():
    with pytest.raises(ValueError):
        LatticeBox(0, 1)
    with pytest.raises(ValueError):
        LatticeBox(2, -1)
    for d, radius in ((True, 1), (2, False), (2.5, 1), (2, 1.5), ("2", 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            LatticeBox(d, radius)
    # integral floats and numpy integers are stored as plain ints
    box = LatticeBox(2.0, np.int64(1))
    assert (type(box.d), type(box.radius)) == (int, int)
    assert box == LatticeBox(2, 1) and box.cardinality == 9
    # an int too long to print is named by its bit length
    huge = 10**5000
    with pytest.raises(ValueError, match="dimension must be .*, got an integer of 16610 bits"):
        LatticeBox(-huge, 1)
    with pytest.raises(ValueError, match="radius must be .*, got an integer of 16610 bits"):
        LatticeBox(2, -huge)
    with pytest.raises(ValueError, match="got a list holding an integer too long to print"):
        as_multi_index([huge, 0])
    with pytest.raises(ValueError, match=r"\(2N\+1\)\^d = an integer of 33222 bits exceeds"):
        _guard_box(2, huge)


def test_box_dimension_above_the_maximum_is_refused_at_once():
    # a box of huge dimension used to be built, and its enumerate() spent
    # seconds on (2N+1)^d before numpy refused more than 64 axes
    assert LatticeBox(MAX_DIMENSION, 0).cardinality == 1
    for d in (MAX_DIMENSION + 1, 10**7, 10**5000):
        shown = "an integer of 16610 bits" if d == 10**5000 else str(d)
        message = rf"^dimension must be at most {MAX_DIMENSION}, got {shown}$"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            LatticeBox(d, 1)
        assert time.perf_counter() - start < 0.5


def test_shells_count_the_points_of_each_squared_norm():
    radii = {1: (0, 3), 2: (0, 1, 3, 7), 3: (0, 1, 2, 4), 4: (1, 2, 3), 5: (1, 2)}
    for d in radii:
        for radius in radii[d]:
            box = LatticeBox(d, radius)
            pts = box.enumerate()
            tally = np.bincount(np.einsum("ij,ij->i", pts, pts))
            norms, counts = box.shells()
            assert norms.dtype == counts.dtype == np.int64
            assert np.array_equal(norms, np.flatnonzero(tally)), (d, radius)
            assert np.array_equal(counts, tally[norms]), (d, radius)
            assert counts.sum() == box.cardinality


@settings(max_examples=60)
@given(
    d=st.integers(min_value=1, max_value=3),
    radius=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_linear_index_roundtrip_property(d, radius, data):
    box = LatticeBox(d, radius)
    pt = np.array([data.draw(st.integers(-radius, radius)) for _ in range(d)])
    i = box.linear_index(pt)
    assert 0 <= i < box.cardinality
    assert np.array_equal(box.enumerate()[i], pt)


def test_sum_squares_matches_vdot_in_place():
    rng = np.random.default_rng(11)
    for shape in ((16, 1089), (37, 441), (3, 3), (1, 7)):
        scale = np.exp(rng.uniform(-20.0, 20.0, shape))  # forty orders of magnitude
        real = rng.standard_normal(shape) * scale
        for a in (real, real + 1j * rng.standard_normal(shape) * scale):
            want = np.vdot(a, a).real
            for block in (a, np.asfortranarray(a), a.T, np.asfortranarray(a).T):
                assert abs(_sum_squares(block) - want) <= 1e-14 * want
                tracemalloc.start()
                try:
                    _sum_squares(block)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4096, (shape, a.dtype, peak)  # a copy of (16, 1089) is 279 kB
    assert _sum_squares(np.zeros((0, 3))) == 0.0
    assert _sum_squares(np.array([3.0, 4.0])) == 25.0
    assert _sum_squares(np.array([3 + 4j, 1j])) == 26.0


def test_sum_squares_carries_nan_and_inf():
    assert np.isnan(_sum_squares(np.array([1.0, np.nan, np.inf])))
    assert np.isnan(_sum_squares(np.array([complex(np.inf, np.nan)])))
    assert _sum_squares(np.array([1.0, -np.inf])) == np.inf
    assert _sum_squares(np.array([[1.0, complex(1.0, np.inf)]]).T) == np.inf
    assert _sum_squares(np.array([1e200, 1.0])) == np.inf  # overflow, as with vdot
