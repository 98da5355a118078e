import numpy as np
import pytest

from nctorus.algebra import TorusElement, l2_norm, laplacian, monomial, mult_matrix, random_element
from nctorus.lattice import LatticeBox
from nctorus.multipliers import apply_multiplier, bessel_weights, riesz_weights, sobolev_norm


def test_bessel_values_d2_n1():
    # (1+|n|^2)^(-1) over the 9 points of the d=2 radius-1 box
    box = LatticeBox(2, 1)
    vals = bessel_weights(-2.0, box)
    expected = [1 / 3, 1 / 2, 1 / 3, 1 / 2, 1.0, 1 / 2, 1 / 3, 1 / 2, 1 / 3]
    assert np.allclose(vals, expected, atol=1e-15)


def test_bessel_zero_order_is_identity(red2, rng):
    x = random_element(red2, LatticeBox(2, 2), rng)
    y = apply_multiplier(bessel_weights(0.0, x.box), x)
    assert np.array_equal(y.coeffs, x.coeffs)


def test_bessel_orders_compose(red2, rng):
    box = LatticeBox(2, 2)
    x = random_element(red2, box, rng)
    ab = apply_multiplier(bessel_weights(1.2, box), apply_multiplier(bessel_weights(0.8, box), x))
    direct = apply_multiplier(bessel_weights(2.0, box), x)
    assert np.allclose(ab.coeffs, direct.coeffs, rtol=1e-13)


def test_bessel_inverse_roundtrip(red2, rng):
    box = LatticeBox(2, 3)
    x = random_element(red2, box, rng)
    lifted = apply_multiplier(bessel_weights(2.5, box), x)
    back = apply_multiplier(bessel_weights(-2.5, box), lifted)
    assert np.allclose(back.coeffs, x.coeffs, rtol=1e-12)


def test_riesz_vanishes_at_origin():
    box = LatticeBox(2, 1)
    vals = riesz_weights(1.5, box)
    assert vals[box.center_index()] == 0.0
    assert vals[box.linear_index((1, 0))] == pytest.approx(1.0)
    assert vals[box.linear_index((1, 1))] == pytest.approx(2 ** 0.75)


def test_riesz_negative_order_is_pseudo_inverse():
    box = LatticeBox(2, 2)
    plus = riesz_weights(1.0, box)
    minus = riesz_weights(-1.0, box)
    prod = plus * minus
    origin = box.center_index()
    assert prod[origin] == 0.0
    mask = np.arange(box.cardinality) != origin
    assert np.allclose(prod[mask], 1.0, rtol=1e-13)


def test_laplacian_is_riesz_squared(red2, rng):
    x = random_element(red2, LatticeBox(2, 2), rng)
    lhs = laplacian(x)
    rhs = (-4.0 * np.pi**2) * apply_multiplier(riesz_weights(2.0, x.box), x)
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


def test_weights_apply_like_multiplier(red2, rng):
    # the weights are the multiplier's diagonal: scaling the rows of an
    # operator matrix applies the multiplier after it, the columns before
    box = LatticeBox(2, 2)
    x = random_element(red2, box, rng)
    a = mult_matrix(random_element(red2, box, rng), box)
    vals = bessel_weights(1.3, box)
    assert vals.dtype == np.float64 and vals.shape == (box.cardinality,)
    direct = apply_multiplier(vals, x)
    assert np.allclose(vals * x.coeffs, direct.coeffs, rtol=1e-14)
    after = apply_multiplier(vals, TorusElement(x.theta, box, a @ x.coeffs))
    assert np.allclose((vals[:, None] * a) @ x.coeffs, after.coeffs, rtol=1e-14)
    before = a @ direct.coeffs
    assert np.allclose((a * vals[None, :]) @ x.coeffs, before, rtol=1e-14)


def test_sobolev_norm_direct_sum(red2, rng):
    x = random_element(red2, LatticeBox(2, 2), rng)
    pts = x.box.enumerate()
    nsq = np.einsum("ij,ij->i", pts, pts)
    for alpha in (1.0, 2.0):
        direct = np.sqrt(np.sum((1.0 + nsq) ** alpha * np.abs(x.coeffs) ** 2))
        assert sobolev_norm(x, alpha) == pytest.approx(direct, rel=1e-13)
    assert sobolev_norm(x, 0.0) == pytest.approx(l2_norm(x), rel=1e-14)


def test_sobolev_norm_monotone_in_order(red2, rng):
    x = random_element(red2, LatticeBox(2, 2), rng)
    assert sobolev_norm(x, 1.0) <= sobolev_norm(x, 2.0)


def test_sobolev_norm_finite_where_squares_overflow(red2, rng):
    # the weights reach 3^500 ~ 4e238 on the radius-1 box: finite, but
    # their squares are not; the norm comes out finite, with no warning
    x = random_element(red2, LatticeBox(2, 1), rng)
    w = bessel_weights(1000.0, x.box)
    top = w.max()
    reference = top * np.linalg.norm(x.coeffs * (w / top))
    assert np.isfinite(reference)
    assert sobolev_norm(x, 1000.0) == pytest.approx(reference, rel=1e-14)


def test_strongly_negative_orders_stay_finite():
    # underflowing symbol values flush to zero instead of denormal noise
    box = LatticeBox(2, 30)
    vals = bessel_weights(-700.0, box)
    assert np.all(np.isfinite(vals))
    assert vals[box.center_index()] == 1.0
    assert vals[box.linear_index((30, 30))] == 0.0
    # the most negative order overflows the log-space product to -inf
    vals = bessel_weights(-np.finfo(float).max, LatticeBox(2, 2))
    assert vals[LatticeBox(2, 2).center_index()] == 1.0
    assert np.count_nonzero(vals) == 1


def test_non_finite_symbol_names_the_point(red2, rng):
    # an overflowing Bessel weight is named, not returned as inf
    box = LatticeBox(2, 3)
    named = r"symbol 'bessel\(1000\)' is not finite at lattice point \(-3, -3\)"
    with pytest.raises(ValueError, match=named):
        bessel_weights(1000.0, box)
    with pytest.raises(ValueError, match=named):
        sobolev_norm(random_element(red2, box, rng), 1000.0)
    # the largest order overflows order * log base too; only the error reports it
    top = np.finfo(float).max
    for weights, name in ((bessel_weights, "bessel"), (riesz_weights, "riesz")):
        with pytest.raises(ValueError, match=rf"'{name}\(1\.79769e\+308\)' is not finite .* \(-2, -2\)"):
            weights(top, LatticeBox(2, 2))
