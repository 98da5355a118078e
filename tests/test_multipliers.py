import numpy as np
import pytest

from nctorus.algebra import TorusElement, l2_norm, laplacian, monomial, mult_matrix, random_element
from nctorus.lattice import LatticeBox
from nctorus.multipliers import (
    SymbolFunction,
    apply_multiplier,
    bessel_symbol,
    multiplier_values,
    riesz_symbol,
    sobolev_norm,
)


def test_bessel_values_d2_n1():
    # (1+|n|^2)^(-1) over the 9 points of the d=2 radius-1 box
    box = LatticeBox(2, 1)
    vals = np.real(bessel_symbol(-2.0).values_on(box))
    expected = [1 / 3, 1 / 2, 1 / 3, 1 / 2, 1.0, 1 / 2, 1 / 3, 1 / 2, 1 / 3]
    assert np.allclose(vals, expected, atol=1e-15)


def test_bessel_zero_order_is_identity(red2, rng):
    x = random_element(red2, LatticeBox(2, 2), rng)
    y = apply_multiplier(bessel_symbol(0.0), x)
    assert np.array_equal(y.coeffs, x.coeffs)


def test_bessel_orders_compose(red2, rng):
    x = random_element(red2, LatticeBox(2, 2), rng)
    ab = apply_multiplier(bessel_symbol(1.2), apply_multiplier(bessel_symbol(0.8), x))
    direct = apply_multiplier(bessel_symbol(2.0), x)
    assert np.allclose(ab.coeffs, direct.coeffs, rtol=1e-13)


def test_bessel_inverse_roundtrip(red2, rng):
    x = random_element(red2, LatticeBox(2, 3), rng)
    back = apply_multiplier(bessel_symbol(-2.5), apply_multiplier(bessel_symbol(2.5), x))
    assert np.allclose(back.coeffs, x.coeffs, rtol=1e-12)


def test_riesz_vanishes_at_origin():
    box = LatticeBox(2, 1)
    vals = np.real(riesz_symbol(1.5).values_on(box))
    assert vals[box.center_index()] == 0.0
    assert vals[box.linear_index((1, 0))] == pytest.approx(1.0)
    assert vals[box.linear_index((1, 1))] == pytest.approx(2 ** 0.75)


def test_riesz_negative_order_is_pseudo_inverse():
    box = LatticeBox(2, 2)
    plus = np.real(riesz_symbol(1.0).values_on(box))
    minus = np.real(riesz_symbol(-1.0).values_on(box))
    prod = plus * minus
    origin = box.center_index()
    assert prod[origin] == 0.0
    mask = np.arange(box.cardinality) != origin
    assert np.allclose(prod[mask], 1.0, rtol=1e-13)


def test_laplacian_is_riesz_squared(red2, rng):
    x = random_element(red2, LatticeBox(2, 2), rng)
    lhs = laplacian(x)
    rhs = (-4.0 * np.pi**2) * apply_multiplier(riesz_symbol(2.0), x)
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


def test_multiplier_values_are_symbol_values():
    box = LatticeBox(2, 1)
    vals = multiplier_values(bessel_symbol(-2.0), box)
    assert vals.shape == (box.cardinality,)
    assert np.allclose(vals, bessel_symbol(-2.0).values_on(box))


def test_multiplier_values_apply_like_multiplier(red2, rng):
    # the values are the multiplier's diagonal: scaling the rows of an
    # operator matrix applies the multiplier after it, the columns before
    box = LatticeBox(2, 2)
    x = random_element(red2, box, rng)
    a = mult_matrix(random_element(red2, box, rng), box)
    symbol = bessel_symbol(1.3)
    vals = multiplier_values(symbol, box)
    direct = apply_multiplier(symbol, x)
    assert np.allclose(vals * x.coeffs, direct.coeffs, rtol=1e-14)
    after = apply_multiplier(symbol, TorusElement(x.theta, box, a @ x.coeffs))
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
    w = np.real(multiplier_values(bessel_symbol(1000.0), x.box))
    top = w.max()
    reference = top * np.linalg.norm(x.coeffs * (w / top))
    assert np.isfinite(reference)
    assert sobolev_norm(x, 1000.0) == pytest.approx(reference, rel=1e-14)


def test_strongly_negative_orders_stay_finite():
    # underflowing symbol values flush to zero instead of denormal noise
    box = LatticeBox(2, 30)
    vals = np.real(bessel_symbol(-700.0).values_on(box))
    assert np.all(np.isfinite(vals))
    assert vals[box.center_index()] == 1.0
    assert vals[box.linear_index((30, 30))] == 0.0


def test_non_finite_symbol_names_the_point(red2, rng):
    def bad(pts):
        out = np.ones(len(pts))
        hit = np.all(pts == np.array([1, 0]), axis=1)
        out[hit] = np.inf
        return out

    symbol = SymbolFunction("bad", bad)
    x = random_element(red2, LatticeBox(2, 1), rng)
    with pytest.raises(ValueError, match=r"not finite at lattice point \(1, 0\)"):
        apply_multiplier(symbol, x)
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        multiplier_values(symbol, LatticeBox(2, 1))
    # an overflowing Bessel weight is named too, not returned as inf
    x3 = random_element(red2, LatticeBox(2, 3), rng)
    with pytest.raises(ValueError, match=r"'bessel\(1000\)' is not finite at lattice point \(-3, -3\)"):
        sobolev_norm(x3, 1000.0)


def test_symbol_shape_mismatch_rejected():
    symbol = SymbolFunction("short", lambda pts: np.ones(3))
    with pytest.raises(ValueError, match="returned 3 values"):
        symbol.values_on(LatticeBox(2, 1))
