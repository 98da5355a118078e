import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from nctorus import kernels
from nctorus.algebra import (
    TorusElement,
    involution,
    l2_norm,
    monomial,
    random_element,
    trace,
    twisted_convolve,
    unit,
)
from nctorus.cocycle import ReducedTheta, phase_pairs, random_theta, reduce_theta, sigma, zero_theta
from nctorus.experiments import ExperimentConfig, _factor_one
from nctorus.kernels import (
    KernelRows,
    NCKernel,
    _assembling,
    _lift_rows,
    _lifted_extremes,
    _matrix_rows,
    _random_rows,
    apply_kernel,
    bessel_kernel,
    flip_adjoint,
    identity_gaps,
    kernel_matrix,
    mixed_sobolev_norm,
    op_multiply,
    random_kernel,
    schwartz_coefficients,
    sobolev_lift,
)
from nctorus.lattice import _BLOCK_ENTRIES, LatticeBox, _row_blocks
from nctorus.multipliers import apply_multiplier, bessel_weights, riesz_weights, sobolev_norm
from nctorus.reference import apply_kernel_definitional, convolve_coefficients, tensor_multiply


def test_op_multiply_reverses_generators(theta2, red2):
    # U_k . U_j = exp(-2 pi i theta_kj) (U_j . U_k) under the reversed product
    box = LatticeBox(2, 1)
    uk = monomial(red2, (0, 1), box)
    uj = monomial(red2, (1, 0), box)
    lhs = op_multiply(uk, uj)
    rhs = op_multiply(uj, uk)
    phase = np.exp(-2j * np.pi * theta2.entries[1, 0])
    assert np.allclose(lhs.coeffs, phase * rhs.coeffs, atol=1e-14)


def test_op_multiply_unit_neutral(red2, rng):
    a = random_element(red2, LatticeBox(2, 2), rng)
    one = unit(red2, LatticeBox(2, 0))
    assert np.allclose(op_multiply(a, one).coeffs, a.coeffs, atol=1e-15)


def test_op_multiply_is_negated_twist_convolution(red2, rng):
    # entrywise equality with the convolution twisted by the transposed
    # reduction, which presents the negated deformation matrix
    box = LatticeBox(2, 2)
    a = random_element(red2, box, rng)
    b = random_element(red2, box, rng)
    prod = op_multiply(a, b)
    _, ref = convolve_coefficients(red2.entries.T, box, a.coeffs, box, b.coeffs)
    assert np.allclose(prod.coeffs, ref, atol=1e-13)


def test_op_multiply_gauge_form_of_negated_twist(red2, rng):
    # the canonical lower-triangular reduction of the negated matrix gives
    # the same product only through the diagonal phase gauge
    # f |-> sigma(m,-m) f(m); the raw products differ
    box = LatticeBox(2, 1)
    a = random_element(red2, box, rng)
    b = random_element(red2, box, rng)
    neg = ReducedTheta(-red2.entries)

    def gauge(x, target_theta):
        pts = x.box.enumerate()
        phases = phase_pairs(red2.entries, pts, -pts)
        from nctorus.algebra import TorusElement

        return TorusElement(target_theta, x.box, x.coeffs * phases)

    prod = op_multiply(a, b)
    via_gauge = twisted_convolve(gauge(a, neg), gauge(b, neg))
    assert np.allclose(gauge(prod, neg).coeffs, via_gauge.coeffs, atol=1e-13)

    # without the gauge the raw negated-reduction convolution differs
    from nctorus.algebra import TorusElement

    raw = twisted_convolve(
        TorusElement(neg, box, a.coeffs), TorusElement(neg, box, b.coeffs)
    )
    assert not np.allclose(prod.coeffs, raw.coeffs, atol=1e-8)


def test_apply_kernel_monomial_phases_cancel(rng):
    # k = U^m0 (x) (U^n0)*, x = U^n0  ->  U^m0
    for trial in range(5):
        theta = reduce_theta(random_theta(2, rng))
        box = LatticeBox(2, 2)
        m0 = rng.integers(-2, 3, size=2)
        n0 = rng.integers(-2, 3, size=2)
        star_phase = np.conj(sigma(theta, n0, -n0))
        coeffs = np.zeros((box.cardinality, box.cardinality), dtype=complex)
        coeffs[box.linear_index(m0), box.linear_index(-n0)] = star_phase
        k = NCKernel(theta, box, coeffs)
        x = monomial(theta, n0, box)
        out = apply_kernel(k, x)
        expected = monomial(theta, m0, box)
        assert np.allclose(out.coeffs, expected.coeffs, atol=1e-13)


def test_apply_kernel_rank_one_projection(red2, rng):
    # k = unit (x) unit projects onto the trace
    box = LatticeBox(2, 1)
    coeffs = np.zeros((box.cardinality, box.cardinality), dtype=complex)
    c = box.center_index()
    coeffs[c, c] = 1.0
    k = NCKernel(red2, box, coeffs)
    x = random_element(red2, box, rng)
    out = apply_kernel(k, x)
    assert out.coefficient((0, 0)) == pytest.approx(trace(x))
    assert np.count_nonzero(np.abs(out.coeffs) > 1e-15) <= 1


def test_apply_kernel_matches_definitional_oracle(rng):
    for trial in range(6):
        theta = reduce_theta(random_theta(2, rng))
        k = random_kernel(theta, 1, 0.7, 0.3, int(rng.integers(0, 2**31)))
        x = random_element(theta, LatticeBox(2, 1), rng)
        fast = apply_kernel(k, x)
        slow = apply_kernel_definitional(k, x)
        assert fast.box == slow.box
        assert np.allclose(fast.coeffs, slow.coeffs, atol=1e-12)


def _monomial_triple(radius1, radius2, p, q):
    """(leg1, leg2, coeffs) of U^p (x) U^q on legs of the given radii."""
    leg1, leg2 = LatticeBox(2, radius1), LatticeBox(2, radius2)
    coeffs = np.zeros((leg1.cardinality, leg2.cardinality), dtype=complex)
    coeffs[leg1.linear_index(p), leg2.linear_index(q)] = 1.0
    return leg1, leg2, coeffs


def test_tensor_multiply_product_law_on_unequal_legs(rng):
    # (U^a (x) U^b)(U^c (x) U^e) = sigma(a,c) sigma(e,b) U^{a+c} (x) U^{e+b},
    # the second leg reversed; the product lives on the Minkowski-sum boxes.
    # Legs (0, 1) make the second-leg phase sigma(e, b) nontrivial
    theta = reduce_theta(random_theta(2, rng))
    for (r1, r2), (r3, r4) in (((1, 2), (2, 0)), ((1, 2), (0, 1))):
        for _ in range(8):
            a, b, c, e = (rng.integers(-r, r + 1, size=2) for r in (r1, r2, r3, r4))
            leg1, leg2, coeffs = tensor_multiply(
                theta, _monomial_triple(r1, r2, a, b), _monomial_triple(r3, r4, c, e)
            )
            assert (leg1, leg2) == (LatticeBox(2, r1 + r3), LatticeBox(2, r2 + r4))
            want = np.zeros((leg1.cardinality, leg2.cardinality), dtype=complex)
            want[leg1.linear_index(a + c), leg2.linear_index(e + b)] = (
                sigma(theta, a, c) * sigma(theta, e, b)
            )
            assert np.allclose(coeffs, want, rtol=0.0, atol=1e-14)


def test_apply_kernel_bessel_equals_multiplier(red2, rng):
    box = LatticeBox(2, 3)
    x = random_element(red2, box, rng)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        k = bessel_kernel(alpha, box, red2)
        via_kernel = apply_kernel(k, x)
        via_symbol = apply_multiplier(bessel_weights(-alpha, box), x)
        assert np.allclose(via_kernel.coeffs, via_symbol.coeffs, atol=1e-13)


def test_apply_kernel_embeds_smaller_argument(red2, rng):
    k = random_kernel(red2, 2, 0.5, 0.5, 3)
    x = random_element(red2, LatticeBox(2, 1), rng)
    out = apply_kernel(k, x)
    assert out.box.radius == 2


def test_apply_kernel_rejects_large_argument(red2, rng):
    k = random_kernel(red2, 1, 0.5, 0.5, 3)
    x = random_element(red2, LatticeBox(2, 2), rng)
    with pytest.raises(ValueError, match="exceeds the kernel"):
        apply_kernel(k, x)


def test_apply_kernel_theta_mismatch(red2, rng):
    k = random_kernel(red2, 1, 0.5, 0.5, 3)
    x = random_element(zero_theta(2), LatticeBox(2, 1), rng)
    for act in (apply_kernel, apply_kernel_definitional):
        with pytest.raises(ValueError, match="different deformation"):
            act(k, x)


def test_kernel_matrix_columns_match_action(red2):
    box = LatticeBox(2, 2)
    k = random_kernel(red2, 2, 1.0, 1.0, 17)
    mat = kernel_matrix(k)
    for j, pt in enumerate(box.enumerate()):
        col = apply_kernel(k, monomial(red2, pt, box))
        assert np.allclose(mat[:, j], col.coeffs, atol=1e-13)


def test_kernel_matrix_frobenius_is_l2(red2):
    k = random_kernel(red2, 2, 0.8, 1.2, 23)
    mat = kernel_matrix(k)
    assert np.linalg.norm(mat) == pytest.approx(k.l2_norm(), rel=1e-13)


def test_reversed_views_equal_negation_gathers(rng):
    # negation is the index reversal, so the reversed views reproduce the
    # gathers through the negated points' linear indices bit for bit
    for d, radius in ((2, 3), (3, 2)):
        theta = reduce_theta(random_theta(d, rng))
        box = LatticeBox(d, radius)
        k = random_kernel(theta, radius, 1.0, 0.5, int(rng.integers(0, 2**31)))
        pts = box.enumerate()
        neg = box.linear_indices(-pts)
        phases = phase_pairs(theta.entries, pts, -pts)
        assert np.array_equal(kernel_matrix(k), k.coeffs[:, neg] * phases[None, :])
        star = np.conj(phases)
        gathered = np.conj(k.coeffs[np.ix_(neg, neg)].T) * np.outer(star, star)
        assert np.array_equal(flip_adjoint(k).coeffs, gathered)


def test_bessel_kernel_matrix_is_bessel_multiplier(red2):
    box = LatticeBox(2, 3)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        # kernel matrix minus the diagonal of symbol values
        gap = kernel_matrix(bessel_kernel(alpha, box, red2))
        gap[np.diag_indices_from(gap)] -= bessel_weights(-alpha, box)
        assert np.max(np.abs(gap)) <= 1e-13


def test_bessel_kernel_untwisted_coefficients():
    red = zero_theta(2)
    box = LatticeBox(2, 1)
    k = bessel_kernel(0.0, box, red)
    neg = box.linear_indices(-box.enumerate())
    rows = np.arange(box.cardinality)
    assert np.allclose(k.coeffs[rows, neg], 1.0)
    off = k.coeffs.copy()
    off[rows, neg] = 0.0
    assert np.all(off == 0.0)


def test_bessel_kernel_l2_norm(red2):
    box = LatticeBox(2, 2)
    alpha = 1.3
    k = bessel_kernel(alpha, box, red2)
    pts = box.enumerate()
    expected = np.sqrt(np.sum((1.0 + np.einsum("ij,ij->i", pts, pts)) ** (-alpha)))
    assert k.l2_norm() == pytest.approx(expected, rel=1e-13)


def test_bessel_kernel_refuses_non_finite_weights():
    # the weights come from bessel_weights, which names the first bad point;
    # a NaN order is refused by name (test_orders_must_be_finite_numbers)
    box = LatticeBox(2, 3)
    with pytest.raises(ValueError, match=r"'bessel\(2000\)' is not finite .* \(-3, -3\)"):
        bessel_kernel(-2000.0, box, zero_theta(2))


def test_sobolev_lift_identity_and_inverse(red2):
    k = random_kernel(red2, 2, 1.0, 1.0, 29)
    same = sobolev_lift(k, 0.0, 0.0)
    assert np.array_equal(same.coeffs, k.coeffs)
    back = sobolev_lift(sobolev_lift(k, 1.7, 0.4), -1.7, -0.4)
    assert np.max(np.abs(back.coeffs - k.coeffs)) <= 1e-13


def test_mixed_sobolev_norm_rank_one(red2):
    box = LatticeBox(2, 2)
    m0, n0 = (1, -2), (2, 0)
    coeffs = np.zeros((box.cardinality, box.cardinality), dtype=complex)
    coeffs[box.linear_index(m0), box.linear_index(n0)] = 1.0
    k = NCKernel(red2, box, coeffs)
    a1, a2 = 1.5, 0.5
    expected = (1 + 5) ** (a1 / 2) * (1 + 4) ** (a2 / 2)
    assert mixed_sobolev_norm(k, a1, a2) == pytest.approx(expected, rel=1e-13)


def test_mixed_sobolev_norm_zero_orders_is_l2(red2):
    k = random_kernel(red2, 2, 1.0, 1.0, 31)
    assert mixed_sobolev_norm(k, 0.0, 0.0) == pytest.approx(k.l2_norm(), rel=1e-14)


def test_mixed_sobolev_norm_finite_where_squares_overflow(red2):
    # the lifted moduli reach 3^600 ~ 2e286 on the radius-1 box: finite,
    # but their squares are not; the norm comes out finite, with no warning
    k = random_kernel(red2, 1, 1.0, 1.0, 5)
    w = bessel_weights(600.0, k.box)
    top = w.max()
    reference = top * top * np.linalg.norm(np.abs(k.coeffs) * np.outer(w / top, w / top))
    assert np.isfinite(reference)
    assert mixed_sobolev_norm(k, 600.0, 600.0) == pytest.approx(reference, rel=1e-14)


def test_lifted_norms_carry_nan_and_inf(red2):
    # one bad coefficient makes the norm NaN or inf, and the Schwartz check fail
    k = random_kernel(red2, 2, 1.0, 1.0, 31)
    for bad, norm_is in ((np.nan, np.isnan), (np.inf, np.isinf)):
        coeffs = k.coeffs.copy()
        coeffs[3, 5] = bad
        k_bad = NCKernel(red2, k.box, coeffs)
        assert norm_is(mixed_sobolev_norm(k_bad, 1.0, 1.0))
        rep = schwartz_coefficients(k_bad, 1.0, 1.0, 3.0)
        assert norm_is(rep.lifted_norm) and np.isnan(rep.worst_ratio)
        assert rep.passed is False
        assert rep.worst_index == (tuple(k.box.enumerate()[3]), tuple(k.box.enumerate()[5]))
    # over many row blocks the first NaN wins, even after an inf
    k = random_kernel(red2, 10, 1.0, 1.0, 31)
    n = k.box.cardinality
    coeffs = k.coeffs.copy()
    coeffs[2, 7], coeffs[n - 3, 1], coeffs[n - 1, 0] = np.inf, np.nan, np.nan
    k_bad = NCKernel(red2, k.box, coeffs.copy())
    top, where, norm = _lifted_extremes(k_bad, 0.5, 0.5)
    assert np.isnan(top) and np.isnan(norm) and where == (n - 3) * n + 1
    coeffs[n - 3, 1] = coeffs[n - 1, 0] = 0.0
    k_bad = NCKernel(red2, k.box, coeffs)
    top, where, norm = _lifted_extremes(k_bad, 0.5, 0.5)
    assert (top, where, norm) == (np.inf, 2 * n + 7, np.inf)
    # the element norm shares the reduction
    x = random_element(red2, LatticeBox(2, 2), np.random.default_rng(31))
    x_coeffs = x.coeffs.copy()
    x_coeffs[4] = np.nan
    assert np.isnan(sobolev_norm(TorusElement(red2, x.box, x_coeffs), 1.0))
    x_coeffs[4] = np.inf  # moduli are taken before the weights, so no warning
    assert np.isinf(sobolev_norm(TorusElement(red2, x.box, x_coeffs), 1.0))


def test_mixed_sobolev_norm_rejects_negative(red2):
    k = random_kernel(red2, 1, 1.0, 1.0, 31)
    with pytest.raises(ValueError, match="nonnegative"):
        mixed_sobolev_norm(k, -0.5, 1.0)


def test_decoupled_kernel_norm_factorizes(red2, rng):
    # k = a (x) b: mixed norm = product of single-leg Sobolev norms
    box = LatticeBox(2, 1)
    a = random_element(red2, box, rng)
    b = random_element(red2, box, rng)
    k = NCKernel(red2, box, np.outer(a.coeffs, b.coeffs))
    a1, a2 = 1.2, 0.7
    assert mixed_sobolev_norm(k, a1, a2) == pytest.approx(
        sobolev_norm(a, a1) * sobolev_norm(b, a2), rel=1e-12
    )


def test_flip_adjoint_is_matrix_adjoint(rng):
    for trial in range(4):
        theta = reduce_theta(random_theta(2, rng))
        k = random_kernel(theta, 3, 0.6, 1.1, int(rng.integers(0, 2**31)))
        lhs = kernel_matrix(flip_adjoint(k))
        rhs = np.conj(kernel_matrix(k).T)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_flip_adjoint_involutive(red2):
    k = random_kernel(red2, 2, 1.0, 0.5, 37)
    twice = flip_adjoint(flip_adjoint(k))
    assert np.max(np.abs(twice.coeffs - k.coeffs)) <= 1e-13


def test_flip_adjoint_fixes_hermitian_kernels(red2):
    # symmetrize: the matrix of (k + k-adjoint)/2 is Hermitian, so the
    # flip-adjoint leaves the kernel itself fixed
    k = random_kernel(red2, 2, 1.0, 1.0, 41)
    sym = (k + flip_adjoint(k)) * 0.5
    mat = kernel_matrix(sym)
    assert np.max(np.abs(mat - np.conj(mat.T))) <= 1e-13
    fixed = flip_adjoint(sym)
    assert np.max(np.abs(fixed.coeffs - sym.coeffs)) <= 1e-13


def test_adjoint_pairing(red2, rng):
    # <T_k x, y> = <x, T_k* y> in the truncation
    box = LatticeBox(2, 2)
    k = random_kernel(red2, 2, 1.0, 1.0, 43)
    x = random_element(red2, box, rng)
    y = random_element(red2, box, rng)
    from nctorus.algebra import inner_product

    lhs = inner_product(apply_kernel(k, x), y)
    rhs = inner_product(x, apply_kernel(flip_adjoint(k), y))
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_schwartz_monomial_saturates(red2):
    box = LatticeBox(2, 2)
    coeffs = np.zeros((box.cardinality, box.cardinality), dtype=complex)
    coeffs[box.linear_index((1, 0)), box.linear_index((0, -2))] = 2.0 - 1.0j
    h = NCKernel(red2, box, coeffs)
    report = schwartz_coefficients(h, 1.0, 1.0, 3.0)
    assert report.worst_ratio == pytest.approx(1.0, rel=1e-12)
    assert report.worst_index == ((1, 0), (0, -2))
    assert report.passed


def test_schwartz_random_kernel_bounded(red2):
    h = random_kernel(red2, 3, 2.0, 2.0, 47)
    report = schwartz_coefficients(h, 1.0, 0.5, 3.0)
    assert report.worst_ratio <= 1.0 + 1e-10
    # every coefficient sits under the envelope, built here from its parts
    box = LatticeBox(2, 3)
    w1 = bessel_weights(-(1.0 + 3.0), box)
    w2 = bessel_weights(-(0.5 + 3.0), box)
    bounds = mixed_sobolev_norm(h, 1.0 + 3.0, 0.5 + 3.0) * np.outer(w1, w2)
    assert report.lifted_norm == mixed_sobolev_norm(h, 4.0, 3.5)
    assert np.all(np.abs(h.coeffs) <= bounds * (1 + 1e-10))


def test_schwartz_requires_margin_above_dimension(red2):
    h = random_kernel(red2, 1, 1.0, 1.0, 47)
    with pytest.raises(ValueError, match="must exceed the dimension"):
        schwartz_coefficients(h, 1.0, 1.0, 2.0)


def test_schwartz_zero_kernel(red2):
    box = LatticeBox(2, 1)
    h = NCKernel(red2, box, np.zeros((9, 9)))
    report = schwartz_coefficients(h, 0.0, 0.0, 3.0)
    assert report.worst_ratio == 0.0
    assert report.passed


def test_random_kernel_envelope_exact(red2):
    k = random_kernel(red2, 2, 1.5, 0.5, 53)
    pts = LatticeBox(2, 2).enumerate()
    w1 = (1.0 + np.einsum("ij,ij->i", pts, pts)) ** (-1.5 / 2)
    w2 = (1.0 + np.einsum("ij,ij->i", pts, pts)) ** (-0.5 / 2)
    assert np.allclose(np.abs(k.coeffs), np.outer(w1, w2), rtol=1e-13)
    # the draw is envelope * exp(2 pi i u) for the row-major Philox uniforms
    for d, radius in ((2, 3), (3, 1), (3, 2)):
        theta = reduce_theta(random_theta(d, np.random.Generator(np.random.Philox(key=d))))
        box = LatticeBox(d, radius)
        for seed in (0, 53, 2**31 - 1):
            k = random_kernel(theta, radius, 1.5, 0.5, seed)
            u = np.random.Generator(np.random.Philox(key=seed)).random((box.cardinality,) * 2)
            envelope = np.outer(
                bessel_weights(-1.5, box),
                bessel_weights(-0.5, box),
            )
            assert np.allclose(k.coeffs, envelope * np.exp(2j * np.pi * u), rtol=1e-14, atol=0)
            assert np.max(np.abs(np.abs(k.coeffs) / envelope - 1.0)) <= 1e-15


# Traced peak of each dense step at radius 10 (441 points): the n x n
# arrays it holds, in bytes per entry, plus an allowance of four complex
# row blocks for each of the two halves a reduction may run at once, and
# 2 B per entry for phase tables and weight vectors.  The allowance stays
# below one n x n complex array (8 x 256 KiB against 3.0 MiB).
_STEP_PEAKS = {
    "random_kernel": (16, lambda k: random_kernel(k.theta, 10, 1.0, 1.0, 5)),
    "sobolev_lift": (16, lambda k: sobolev_lift(k, 1.0, 1.0)),
    "mixed_sobolev_norm": (0, lambda k: mixed_sobolev_norm(k, 1.0, 1.0)),
    "schwartz_coefficients": (0, lambda k: schwartz_coefficients(k, 1.0, 1.0, 3.0)),
    "flip_adjoint": (16, lambda k: flip_adjoint(k)),
    "identity_gaps": (0, lambda k: identity_gaps(k, [(1.0, 1.0)])),
    "_factor_one": (16, lambda k: _factor_one(ExperimentConfig(N_grid=(10,)), 10)),
}


def test_random_kernel_peak_memory(red2):
    box = LatticeBox(2, 10)
    k = random_kernel(red2, 10, 2.5, 2.5, 5)
    entries = box.cardinality**2
    allowance = 2 * 4 * 16 * _BLOCK_ENTRIES + 2 * entries
    peaks = {}
    for step, (_, run) in _STEP_PEAKS.items():
        tracemalloc.start()
        try:
            run(k)
            peaks[step] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    over = {
        step: round(peak / entries, 1)
        for step, peak in peaks.items()
        if peak > _STEP_PEAKS[step][0] * entries + allowance
    }
    assert not over, f"bytes per entry above the bound: {over}"


# Streaming: every dense step works in row blocks, and on boxes with
# several blocks and a ragged last one it must reproduce the full-matrix
# forms below, which are the formulas the steps had before streaming.
_STREAM_BOXES = ((2, 10), (3, 3))


def _draw_reference(theta, radius, s1, s2, seed):
    box = LatticeBox(theta.d, radius)
    t = np.random.Generator(np.random.Philox(key=seed)).random((box.cardinality,) * 2)
    t *= np.pi
    np.tan(t, out=t)
    coeffs = np.empty(t.shape, dtype=complex)
    np.multiply(t, 2.0, out=coeffs.imag)
    np.square(t, out=t)
    np.subtract(1.0, t, out=coeffs.real)
    t += 1.0
    np.divide(bessel_weights(-s1, box)[:, None], t, out=t)
    t *= bessel_weights(-s2, box)[None, :]
    coeffs.real *= t
    coeffs.imag *= t
    return coeffs


def _flip_reference(k):
    pts = k.box.enumerate()
    star = np.conj(phase_pairs(k.theta.entries, pts, -pts))
    swapped = np.conj(k.coeffs[::-1, ::-1].T)
    swapped *= np.multiply(star[:, None], star[None, :], order="F")
    return swapped


def _lifted_reference(k, a1, a2):
    lifted = np.abs(k.coeffs) * bessel_weights(a1, k.box)[:, None]
    lifted *= bessel_weights(a2, k.box)[None, :]
    where = int(np.argmax(lifted))
    return lifted.flat[where], where, np.linalg.norm(lifted)


def _rel_frobenius_reference(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(a)


def _factorization_gap_reference(k, a1, a2):
    box = k.box
    rhs = kernel_matrix(sobolev_lift(k, a1, a2)) * bessel_weights(-a2, box)[None, ::-1]
    lhs = bessel_weights(a1, box)[:, None] * kernel_matrix(k)
    return _rel_frobenius_reference(lhs, rhs)


def _adjoint_gap_reference(k):
    adj = kernel_matrix(flip_adjoint(k))
    return _rel_frobenius_reference(kernel_matrix(k), np.conj(adj.T))


def _stream_kernel(d, radius):
    theta = reduce_theta(random_theta(d, np.random.default_rng(d)))
    blocks = list(_row_blocks(LatticeBox(d, radius).cardinality))
    sizes = {b.stop - b.start for b in blocks}
    assert len(blocks) > 2 and len(sizes) == 2  # several blocks, the last ragged
    return theta, random_kernel(theta, radius, 1.5, 2.0, 11), blocks


@pytest.mark.parametrize("d, radius", _STREAM_BOXES)
def test_streamed_draw_is_one_philox_draw(d, radius):
    theta, k, _ = _stream_kernel(d, radius)
    assert np.array_equal(k.coeffs, _draw_reference(theta, radius, 1.5, 2.0, 11))


@pytest.mark.parametrize("d, radius", _STREAM_BOXES)
def test_streamed_flip_adjoint_matches_outer_product(d, radius):
    _, k, _ = _stream_kernel(d, radius)
    assert np.array_equal(flip_adjoint(k).coeffs, _flip_reference(k))


@pytest.mark.parametrize("d, radius", _STREAM_BOXES)
def test_row_forms_concatenate_to_matrix_and_lift(d, radius):
    _, k, blocks = _stream_kernel(d, radius)
    pts = k.box.enumerate()
    phases = phase_pairs(k.theta.entries, pts, -pts)
    w1, w2 = bessel_weights(1.3, k.box), bessel_weights(0.4, k.box)
    rows = np.concatenate([_matrix_rows(k.coeffs[b], phases) for b in blocks])
    assert np.array_equal(rows, kernel_matrix(k))
    lifted = np.concatenate([_lift_rows(k.coeffs[b], w1[b], w2) for b in blocks])
    assert np.array_equal(lifted, sobolev_lift(k, 1.3, 0.4).coeffs)


@pytest.mark.parametrize("d, radius", _STREAM_BOXES)
def test_streamed_reductions_match_full_matrix_forms(d, radius):
    _, k, _ = _stream_kernel(d, radius)
    pairs = ((0.0, 0.0), (1.0, 1.0), (2.7, 0.3))
    adjoint, factor = identity_gaps(k, pairs)
    for (a1, a2), gap in zip(pairs, factor, strict=True):
        top, where, norm = _lifted_extremes(k, a1, a2)
        ref_top, ref_where, ref_norm = _lifted_reference(k, a1, a2)
        assert (top, where) == (ref_top, ref_where)
        assert norm == pytest.approx(ref_norm, rel=1e-13)
        assert gap == pytest.approx(_factorization_gap_reference(k, a1, a2), rel=1e-13)
    assert adjoint == pytest.approx(_adjoint_gap_reference(k), rel=1e-13)
    # one pass for several gaps reads as one pass for each
    for pair, gap in zip(pairs, factor):
        assert identity_gaps(k, [pair]) == (adjoint, [gap])
    assert identity_gaps(k, []) == (adjoint, [])


def test_factorization_gap_reads_the_second_weight_at_minus_p(monkeypatch):
    # Bessel symbols are even, so b(p) and b(-p) agree; a shifted symbol
    # (1 + |n - v|^2)^(a/2) is not, and the identity B(a1) T_k = T_lift M^-1
    # holds only with M scaling column p by the second weight at -p
    shift = np.array([0.7, -0.3])

    def shifted(alpha, box):
        nsq = np.sum((box.enumerate() - shift) ** 2, axis=1)
        return (1.0 + nsq) ** (alpha / 2.0)

    monkeypatch.setattr(kernels, "bessel_weights", shifted)
    theta = reduce_theta(random_theta(2, np.random.default_rng(2)))
    k = random_kernel(theta, 4, 1.5, 2.0, 11)
    _, factor = identity_gaps(k, ((1.0, 1.0), (2.7, 0.3)))
    assert max(factor) <= 1e-14, factor


@pytest.mark.parametrize("d, radius", _STREAM_BOXES)
def test_held_and_streamed_kernels_reduce_alike(d, radius):
    # a KernelRows and the NCKernel drawn from it give every reducer the
    # same rows, so the same numbers bit for bit
    theta, k, _ = _stream_kernel(d, radius)
    draw = _random_rows(theta, radius, 1.5, 2.0, 11)
    assert isinstance(draw, KernelRows) and (draw.theta, draw.box) == (k.theta, k.box)
    # the draw writes every block into one buffer, so keep copies
    first = [(rows, block.copy()) for rows, block in draw.row_blocks()]
    again = [(rows, block.copy()) for rows, block in draw.row_blocks()]
    assert len(first) == len(again) > 2
    for (rows, block), (rows_again, block_again) in zip(first, again):
        assert rows == rows_again and np.array_equal(block, block_again)
    for (rows, block), (held_rows, held_block) in zip(draw.row_blocks(), k.row_blocks()):
        assert rows == held_rows and np.array_equal(block, held_block)
    assert mixed_sobolev_norm(draw, 0.7, 1.4) == mixed_sobolev_norm(k, 0.7, 1.4)
    assert schwartz_coefficients(draw, 0.7, 1.4, d + 1.0) == schwartz_coefficients(
        k, 0.7, 1.4, d + 1.0
    )
    pairs = ((0.7, 1.4), (0.0, 0.0), (2.7, 0.3))
    assert identity_gaps(draw, pairs) == identity_gaps(k, pairs)


@pytest.mark.parametrize("d, radius", _STREAM_BOXES)
def test_assembling_writes_the_kernel_matrix(d, radius):
    # held or streamed, the scan's assembly passes every block on as it
    # came and leaves kernel_matrix(k) in the matrix, bit for bit
    theta, k, blocks = _stream_kernel(d, radius)
    n = k.box.cardinality
    for source in (k, _random_rows(theta, radius, 1.5, 2.0, 11)):
        matrix = np.full((n, n), np.nan, dtype=complex)
        passed = []
        for rows, block in _assembling(source, matrix).row_blocks():
            assert np.array_equal(block, k.coeffs[rows])
            passed.append(rows)
        assert passed == blocks
        assert np.array_equal(matrix, kernel_matrix(k))


def test_lifted_extremes_keeps_the_first_of_tied_maxima(red2):
    # equal moduli everywhere: the first entry of the first block wins
    box = LatticeBox(2, 10)
    k = NCKernel(red2, box, np.full((box.cardinality,) * 2, 1j))
    top, where, norm = _lifted_extremes(k, 0.0, 0.0)
    assert (top, where) == (1.0, 0)
    assert norm == pytest.approx(box.cardinality, rel=1e-13)


# Ranged draws and the two halves.  At d = 2, N = 10 a block holds
# 37 x 441 = 16,317 entries, so block b starts b mod 4 entries past a
# multiple of four, at every offset into a Philox counter step; the last
# block is ragged.  At N = 2 the box is one block, which is one half.
_RANGE_BOXES = ((2, 10), (3, 3), (2, 2))


def _at_width(monkeypatch, width: int, reduce):
    """reduce() with _folded running width halves at once."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_lanes", lambda: width)
        return reduce()


def _folded_spans(monkeypatch, k) -> list:
    """The row ranges _folded passes to k.row_blocks, in order, read off a watching stream."""
    spans = []

    def row_blocks(span=None):
        spans.append(span)
        return k.row_blocks(span)

    watched = KernelRows(k.theta, k.box, row_blocks)
    _at_width(monkeypatch, 1, lambda: _lifted_extremes(watched, 0.0, 0.0))
    return spans


@pytest.mark.parametrize("d, radius", _RANGE_BOXES)
def test_ranged_draw_is_those_blocks_of_the_whole_draw(monkeypatch, d, radius):
    theta = reduce_theta(random_theta(d, np.random.default_rng(d)))
    draw = _random_rows(theta, radius, 1.5, 2.0, 11)
    n = draw.box.cardinality
    whole = [(rows, block.copy()) for rows, block in draw.row_blocks()]
    count = len(whole)
    bounds = [rows.start for rows, _ in whole] + [n]
    for start in range(count + 1):
        for stop in range(start, count + 1):
            span = range(bounds[start], bounds[stop])
            part = [(rows, block.copy()) for rows, block in draw.row_blocks(span)]
            assert [rows for rows, _ in part] == [rows for rows, _ in whole[start:stop]]
            for (_, block), (_, expected) in zip(part, whole[start:stop]):
                assert np.array_equal(block, expected)
    # a range that starts inside a block streams those rows of the draw too
    coeffs = np.concatenate([block for _, block in whole])
    for span in (range(1, n), range(5, n - 3), range(n - 1, n)):
        part = [(rows, block.copy()) for rows, block in draw.row_blocks(span)]
        assert part[0][0].start == span.start and part[-1][0].stop == span.stop
        got = np.concatenate([block for _, block in part])
        assert np.array_equal(got, coeffs[span.start : span.stop])
    spans = _folded_spans(monkeypatch, draw)
    halves = [rows for span in spans for rows, _ in draw.row_blocks(span)]
    assert halves == [rows for rows, _ in whole]
    assert len(spans) == min(2, count)


@pytest.mark.parametrize("d, radius", _STREAM_BOXES)
def test_reductions_do_not_depend_on_the_width(monkeypatch, d, radius):
    # held or streamed, every reducer returns the same floats at width one
    # and two; at one both halves are read on the calling thread, at two
    # they are read at once, one on the calling thread and one on another
    theta, k, blocks = _stream_kernel(d, radius)
    n = k.box.cardinality
    pairs = ((0.7, 1.4), (0.0, 0.0), (2.7, 0.3))
    for source in (k, _random_rows(theta, radius, 1.5, 2.0, 11)):
        reads, together = [], []

        def row_blocks(span=None, source=source):
            reads.append(((span.start, span.stop), threading.get_ident()))
            for barrier in together:  # both halves must be in flight to pass
                barrier.wait(timeout=60)
            return source.row_blocks(span)

        watched = KernelRows(source.theta, source.box, row_blocks)

        def reduce():
            return (
                identity_gaps(watched, pairs),
                mixed_sobolev_norm(watched, 0.7, 1.4),
                schwartz_coefficients(watched, 0.7, 1.4, d + 1.0),
            )

        serial = _at_width(monkeypatch, 1, reduce)
        # two halves of whole blocks, covering the rows in order
        parts = [part for part, _ in reads[:2]]
        (_, mid), (mid_again, end) = parts
        assert parts[0][0] == 0 and mid == mid_again and end == n
        assert mid in {rows.start for rows in blocks[1:]}
        assert reads == [(part, threading.get_ident()) for part in parts] * 3
        reads.clear()
        together.append(threading.Barrier(2))
        assert _at_width(monkeypatch, 2, reduce) == serial
        for call in (reads[0:2], reads[2:4], reads[4:6]):
            assert sorted(part for part, _ in call) == parts
            threads = {thread for _, thread in call}
            assert len(threads) == 2 and threading.get_ident() in threads


@pytest.mark.parametrize("failing", [0, 1], ids=["first-half", "second-half"])
def test_a_failing_half_raises_in_the_caller(monkeypatch, failing):
    # at width two the half on the other thread fails as loudly as the
    # calling thread's own: identity_gaps and _lifted_extremes raise it
    _, k, _ = _stream_kernel(2, 10)
    broken_span = _folded_spans(monkeypatch, k)[failing]

    def row_blocks(span=None):
        for rows, block in k.row_blocks(span):
            yield rows, block
            if span == broken_span:
                raise RuntimeError("half failed")

    broken = KernelRows(k.theta, k.box, row_blocks)
    for reduce in (
        lambda: identity_gaps(broken, [(0.7, 1.4)]),
        lambda: _lifted_extremes(broken, 0.7, 1.4),
    ):
        with pytest.raises(RuntimeError, match="^half failed$"):
            _at_width(monkeypatch, 2, reduce)


def test_concurrent_reductions_keep_their_own_buffers(monkeypatch):
    # four callers at width two run eight halves at once, switching
    # threads every microsecond: a buffer shared between two streams would
    # mix their blocks and move the results
    theta, _, _ = _stream_kernel(2, 10)
    draw = _random_rows(theta, 10, 1.5, 2.0, 11)

    def reduce():
        return identity_gaps(draw, [(0.7, 1.4)]), mixed_sobolev_norm(draw, 0.7, 1.4)

    expected = _at_width(monkeypatch, 1, reduce)
    monkeypatch.setattr(kernels, "_lanes", lambda: 2)
    results = []
    threads = [threading.Thread(target=lambda: results.append(reduce())) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4


def test_lifted_extremes_across_the_halves(monkeypatch, red2):
    # at either width the first of tied maxima is the one met first, and
    # a NaN wins over an inf, whichever half or block holds either
    box = LatticeBox(2, 10)
    n = box.cardinality
    zero = NCKernel(red2, box, np.zeros((n, n)))
    boundary = _folded_spans(monkeypatch, zero)[1].start  # first row of the second half
    base = np.full((n, n), 0.5 + 0j)
    base[3, 8] = base[boundary, 0] = base[n - 1, 2] = 2.0
    cases = [
        ({}, 2.0, 3 * n + 8, math.sqrt((n * n - 3) * 0.25 + 3 * 4.0)),
        ({(5, 1): np.inf, (n - 3, 1): np.nan}, np.nan, (n - 3) * n + 1, np.nan),
        ({(5, 1): np.nan, (n - 3, 1): np.inf}, np.nan, 5 * n + 1, np.nan),
        # rows 5 and boundary - 1 lie in different blocks of the first half
        ({(5, 1): np.inf, (boundary - 1, 1): np.nan}, np.nan, (boundary - 1) * n + 1, np.nan),
        ({(n - 3, 1): np.inf}, np.inf, (n - 3) * n + 1, np.inf),
    ]
    for bad, top, where, norm in cases:
        coeffs = base.copy()
        for index, value in bad.items():
            coeffs[index] = value
        k = NCKernel(red2, box, coeffs)
        for width in (1, 2):
            got = _at_width(monkeypatch, width, lambda: _lifted_extremes(k, 0.0, 0.0))
            assert got[1] == where, (bad, width)
            assert (got[0], got[2]) == pytest.approx((top, norm), rel=1e-13, nan_ok=True)


def test_kernel_constructors_refuse_boxes_above_the_guard(red2):
    # radius 36 has 73^2 = 5329 points; the refusal comes before the
    # n x n coefficient array is allocated
    box = LatticeBox(2, 36)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the dense-matrix guard"):
            random_kernel(red2, 36, 1.0, 1.0, 0)
        with pytest.raises(ValueError, match="exceeds the dense-matrix guard"):
            bessel_kernel(1.0, box, red2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_kernel_takes_an_owned_complex_array(red2):
    box = LatticeBox(2, 1)
    arr = np.ones((9, 9), dtype=complex)
    k = NCKernel(red2, box, arr)
    assert k.coeffs is arr
    with pytest.raises(ValueError, match="read-only"):
        arr[0, 0] = 2.0
    assert not k.coeffs.flags.writeable


def test_kernel_copies_views_lists_and_other_dtypes(red2):
    box = LatticeBox(2, 1)
    base = np.ones((9, 18), dtype=complex)
    sources = [
        base[:, :9],
        np.ones((9, 9)).tolist(),
        np.ones((9, 9)),
        np.ones((9, 9), dtype=np.complex64),
    ]
    for source in sources:
        k = NCKernel(red2, box, source)
        assert k.coeffs is not source
        assert not k.coeffs.flags.writeable
        if isinstance(source, np.ndarray):
            source[0, 0] = 5.0
        else:
            source[0][0] = 5.0
        assert k.coeffs[0, 0] == 1.0
    assert base.flags.writeable


def test_random_kernel_determinism_and_seeds(red2):
    a = random_kernel(red2, 2, 1.0, 1.0, 7)
    b = random_kernel(red2, 2, 1.0, 1.0, 7)
    c = random_kernel(red2, 2, 1.0, 1.0, 8)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.allclose(a.coeffs, c.coeffs)
    assert np.allclose(np.abs(a.coeffs), np.abs(c.coeffs), rtol=1e-13)
    # an integral float is that integer, as in ExperimentConfig
    assert np.array_equal(random_kernel(red2, 2, 1.0, 1.0, 7.0).coeffs, a.coeffs)


def test_random_kernel_rejects_negative_exponents(red2):
    with pytest.raises(ValueError, match="nonnegative"):
        random_kernel(red2, 1, -1.0, 0.0, 1)


_ORDER_ENTRY_POINTS = {  # name: (call with the bad order, the argument the error names)
    "mixed_sobolev_norm": (lambda k, bad: mixed_sobolev_norm(k, bad, 1), "alpha1"),
    "sobolev_lift": (lambda k, bad: sobolev_lift(k, 1, bad), "Bessel order"),
    "identity_gaps": (lambda k, bad: identity_gaps(k, [(bad, 1)]), "Bessel order"),
    "random_kernel": (lambda k, bad: random_kernel(k.theta, 2, bad, 1, 3), "s1"),
    "schwartz_coefficients": (lambda k, bad: schwartz_coefficients(k, 1, 1, s0=bad), "s0"),
    "bessel_kernel": (lambda k, bad: bessel_kernel(bad, k.box, k.theta), "alpha2"),
    "bessel_weights": (lambda k, bad: bessel_weights(bad, k.box), "Bessel order"),
    "riesz_weights": (lambda k, bad: riesz_weights(bad, k.box), "Riesz order"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, "1"], ids=["nan", "inf", "str"])
@pytest.mark.parametrize("entry", list(_ORDER_ENTRY_POINTS))
def test_orders_must_be_finite_numbers(red2, entry, bad):
    # refused by the order's name, not by a lattice point, a numpy warning
    # (inf times log 1) or a TypeError from the sign check
    call, name = _ORDER_ENTRY_POINTS[entry]
    k = random_kernel(red2, 2, 1.0, 1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call(k, bad)
    assert str(exc.value) == f"{name} must be a finite number, got {bad!r}"


def test_kernel_sobolev_stability_with_margin(red2):
    # envelope s_i = alpha_i + d/2 + 0.5 keeps the mixed norm stable in N
    s = 1.0 + 1.0 + 0.5
    n8 = mixed_sobolev_norm(random_kernel(red2, 8, s, s, 42), 1.0, 1.0)
    n10 = mixed_sobolev_norm(random_kernel(red2, 10, s, s, 42), 1.0, 1.0)
    assert abs(n10 - n8) / n8 < 0.10


def test_kernel_shape_validation(red2):
    # coefficients are numbers in exactly the box's (n, n) shape
    box = LatticeBox(2, 1)
    for bad in (np.zeros((9, 8)), np.zeros((3, 3)), np.zeros(81), np.zeros((9, 9, 1))):
        shape = re.escape(f"{bad.shape}, expected (9, 9)")
        with pytest.raises(ValueError, match=f"^coefficients have shape {shape}$"):
            NCKernel(red2, box, bad)
    for bad, dtype in ((np.full((9, 9), "1"), "<U1"), ([["1"] * 9] * 9, "<U1"), (None, "object")):
        with pytest.raises(ValueError, match=f"^coefficients must be numbers, got dtype {dtype}$"):
            NCKernel(red2, box, bad)


def test_kernel_linearity(red2, rng):
    box = LatticeBox(2, 2)
    k1 = random_kernel(red2, 2, 1.0, 1.0, 67)
    k2 = random_kernel(red2, 2, 0.5, 1.5, 71)
    x = random_element(red2, box, rng)
    y = random_element(red2, box, rng)
    lhs = apply_kernel(k1 + 2j * k2, x)
    rhs = apply_kernel(k1, x) + 2j * apply_kernel(k2, x)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)
    lhs2 = apply_kernel(k1, 3.0 * x + y)
    rhs2 = 3.0 * apply_kernel(k1, x) + apply_kernel(k1, y)
    assert np.allclose(lhs2.coeffs, rhs2.coeffs, atol=1e-12)


def test_hilbert_schmidt_norm_identity_via_involution(red2, rng):
    # ||T_k x||_2 computed two ways for a sanity cross-check
    k = random_kernel(red2, 2, 1.0, 1.0, 73)
    x = random_element(red2, LatticeBox(2, 2), rng)
    out = apply_kernel(k, x)
    assert l2_norm(out) == pytest.approx(
        np.sqrt(trace(twisted_convolve(involution(out), out)).real), rel=1e-10
    )
