import struct

import numpy as np
import pytest

from nctorus.algebra import (
    involution,
    l2_norm,
    monomial,
    random_element,
    trace,
    twisted_convolve,
    unit,
)
from nctorus.cocycle import ReducedTheta, phase_pairs, random_theta, reduce_theta, sigma, zero_theta
from nctorus.kernels import (
    NCKernel,
    apply_kernel,
    bessel_kernel,
    flip_adjoint,
    kernel_from_json,
    kernel_matrix,
    kernel_to_json,
    mixed_sobolev_norm,
    op_multiply,
    random_kernel,
    read_kernel,
    schwartz_coefficients,
    sobolev_lift,
    write_kernel,
)
from nctorus.lattice import LatticeBox
from nctorus.multipliers import apply_multiplier, bessel_symbol, multiplier_values, sobolev_norm
from nctorus.reference import apply_kernel_definitional, convolve_coefficients


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
        k = NCKernel(theta, box, box, coeffs)
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
    k = NCKernel(red2, box, box, coeffs)
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


def test_apply_kernel_bessel_equals_multiplier(red2, rng):
    box = LatticeBox(2, 3)
    x = random_element(red2, box, rng)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        k = bessel_kernel(alpha, box, red2)
        via_kernel = apply_kernel(k, x)
        via_symbol = apply_multiplier(bessel_symbol(-alpha), x)
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
    with pytest.raises(ValueError, match="different deformation"):
        apply_kernel(k, x)


def test_kernel_matrix_columns_match_action(red2):
    box = LatticeBox(2, 2)
    k = random_kernel(red2, 2, 1.0, 1.0, 17)
    mat = kernel_matrix(k, box)
    for j, pt in enumerate(box.enumerate()):
        col = apply_kernel(k, monomial(red2, pt, box))
        assert np.allclose(mat[:, j], col.coeffs, atol=1e-13)


def test_kernel_matrix_frobenius_is_l2(red2):
    k = random_kernel(red2, 2, 0.8, 1.2, 23)
    mat = kernel_matrix(k, LatticeBox(2, 2))
    assert np.linalg.norm(mat) == pytest.approx(k.l2_norm(), rel=1e-13)


def test_kernel_matrix_requires_matching_boxes(red2):
    k = random_kernel(red2, 2, 1.0, 1.0, 5)
    with pytest.raises(ValueError, match="must both"):
        kernel_matrix(k, LatticeBox(2, 1))


def test_bessel_kernel_matrix_is_bessel_multiplier(red2):
    box = LatticeBox(2, 3)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        # kernel matrix minus the diagonal of symbol values
        gap = kernel_matrix(bessel_kernel(alpha, box, red2), box)
        gap[np.diag_indices_from(gap)] -= multiplier_values(bessel_symbol(-alpha), box)
        assert np.max(np.abs(gap)) <= 1e-13


def test_bessel_kernel_untwisted_coefficients():
    red = zero_theta(2)
    box = LatticeBox(2, 1)
    k = bessel_kernel(0.0, box, red)
    neg = box.negation_permutation()
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
    k = NCKernel(red2, box, box, coeffs)
    a1, a2 = 1.5, 0.5
    expected = (1 + 5) ** (a1 / 2) * (1 + 4) ** (a2 / 2)
    assert mixed_sobolev_norm(k, a1, a2) == pytest.approx(expected, rel=1e-13)


def test_mixed_sobolev_norm_zero_orders_is_l2(red2):
    k = random_kernel(red2, 2, 1.0, 1.0, 31)
    assert mixed_sobolev_norm(k, 0.0, 0.0) == pytest.approx(k.l2_norm(), rel=1e-14)


def test_mixed_sobolev_norm_rejects_negative(red2):
    k = random_kernel(red2, 1, 1.0, 1.0, 31)
    with pytest.raises(ValueError, match="nonnegative"):
        mixed_sobolev_norm(k, -0.5, 1.0)


def test_decoupled_kernel_norm_factorizes(red2, rng):
    # k = a (x) b: mixed norm = product of single-leg Sobolev norms
    box = LatticeBox(2, 1)
    a = random_element(red2, box, rng)
    b = random_element(red2, box, rng)
    k = NCKernel(red2, box, box, np.outer(a.coeffs, b.coeffs))
    a1, a2 = 1.2, 0.7
    assert mixed_sobolev_norm(k, a1, a2) == pytest.approx(
        sobolev_norm(a, a1) * sobolev_norm(b, a2), rel=1e-12
    )


def test_flip_adjoint_is_matrix_adjoint(rng):
    for trial in range(4):
        theta = reduce_theta(random_theta(2, rng))
        box = LatticeBox(2, 3)
        k = random_kernel(theta, 3, 0.6, 1.1, int(rng.integers(0, 2**31)))
        lhs = kernel_matrix(flip_adjoint(k), box)
        rhs = np.conj(kernel_matrix(k, box).T)
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
    mat = kernel_matrix(sym, LatticeBox(2, 2))
    assert np.max(np.abs(mat - np.conj(mat.T))) <= 1e-13
    fixed = flip_adjoint(sym)
    assert np.max(np.abs(fixed.coeffs - sym.coeffs)) <= 1e-13


def test_flip_adjoint_rejects_asymmetric_legs(red2):
    coeffs = np.zeros((9, 25), dtype=complex)
    k = NCKernel(red2, LatticeBox(2, 1), LatticeBox(2, 2), coeffs)
    with pytest.raises(ValueError, match="equal legs"):
        flip_adjoint(k)


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
    h = NCKernel(red2, box, box, coeffs)
    report = schwartz_coefficients(h, 1.0, 1.0, 3.0)
    assert report.worst_ratio == pytest.approx(1.0, rel=1e-12)
    assert report.worst_index == ((1, 0), (0, -2))
    assert report.passed


def test_schwartz_random_kernel_bounded(red2):
    h = random_kernel(red2, 3, 2.0, 2.0, 47)
    report = schwartz_coefficients(h, 1.0, 0.5, 3.0)
    assert report.worst_ratio <= 1.0 + 1e-10
    assert np.all(report.magnitudes <= report.bounds * (1 + 1e-10))


def test_schwartz_requires_margin_above_dimension(red2):
    h = random_kernel(red2, 1, 1.0, 1.0, 47)
    with pytest.raises(ValueError, match="must exceed the dimension"):
        schwartz_coefficients(h, 1.0, 1.0, 2.0)


def test_schwartz_zero_kernel(red2):
    box = LatticeBox(2, 1)
    h = NCKernel(red2, box, box, np.zeros((9, 9)))
    report = schwartz_coefficients(h, 0.0, 0.0, 3.0)
    assert report.worst_ratio == 0.0
    assert report.passed


def test_random_kernel_envelope_exact(red2):
    k = random_kernel(red2, 2, 1.5, 0.5, 53)
    pts = LatticeBox(2, 2).enumerate()
    w1 = (1.0 + np.einsum("ij,ij->i", pts, pts)) ** (-1.5 / 2)
    w2 = (1.0 + np.einsum("ij,ij->i", pts, pts)) ** (-0.5 / 2)
    assert np.allclose(np.abs(k.coeffs), np.outer(w1, w2), rtol=1e-13)


def test_random_kernel_determinism_and_seeds(red2):
    a = random_kernel(red2, 2, 1.0, 1.0, 7)
    b = random_kernel(red2, 2, 1.0, 1.0, 7)
    c = random_kernel(red2, 2, 1.0, 1.0, 8)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.allclose(a.coeffs, c.coeffs)
    assert np.allclose(np.abs(a.coeffs), np.abs(c.coeffs), rtol=1e-13)


def test_random_kernel_rejects_negative_exponents(red2):
    with pytest.raises(ValueError, match="nonnegative"):
        random_kernel(red2, 1, -1.0, 0.0, 1)


def test_kernel_sobolev_stability_with_margin(red2):
    # envelope s_i = alpha_i + d/2 + 0.5 keeps the mixed norm stable in N
    s = 1.0 + 1.0 + 0.5
    n8 = mixed_sobolev_norm(random_kernel(red2, 8, s, s, 42), 1.0, 1.0)
    n10 = mixed_sobolev_norm(random_kernel(red2, 10, s, s, 42), 1.0, 1.0)
    assert abs(n10 - n8) / n8 < 0.10


def test_kernel_json_roundtrip(red2):
    k = random_kernel(red2, 1, 1.0, 0.5, 59)
    back = kernel_from_json(kernel_to_json(k), red2)
    assert np.array_equal(back.coeffs, k.coeffs)
    with pytest.raises(ValueError, match="missing key"):
        kernel_from_json({"d": 2, "N": 1}, red2)


def test_kernel_binary_roundtrip(tmp_path, red2):
    k = random_kernel(red2, 2, 1.0, 0.5, 61)
    path = tmp_path / "k.nck"
    write_kernel(k, path)
    raw = path.read_bytes()
    assert raw[:4] == b"NCK1"
    assert len(raw) == 16 + 16 * 25 * 25
    back = read_kernel(path, red2)
    assert np.array_equal(back.coeffs, k.coeffs)


def test_kernel_binary_bad_magic(tmp_path, red2):
    path = tmp_path / "bad.nck"
    path.write_bytes(b"XXXX" + bytes(12))
    with pytest.raises(ValueError, match="bad magic"):
        read_kernel(path, red2)


def test_kernel_binary_truncated(tmp_path, red2):
    k = random_kernel(red2, 1, 1.0, 0.5, 61)
    path = tmp_path / "k.nck"
    write_kernel(k, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_kernel(path, red2)


def test_kernel_binary_oversized_header(tmp_path, red2):
    # the header is checked against the file size before anything is read
    # or allocated; d=9, N=1000 would otherwise overflow the read length
    path = tmp_path / "huge.nck"
    path.write_bytes(b"NCK1" + struct.pack("<iii", 9, 1000, 0))
    with pytest.raises(ValueError, match=r"huge\.nck: truncated payload \(header d=9, N=1000"):
        read_kernel(path, zero_theta(9))
    for d, radius in ((9, 1000), (0, 1), (2, -1)):
        path.write_bytes(b"NCK1" + struct.pack("<iii", d, radius, 0))
        with pytest.raises(ValueError, match=rf"huge\.nck: header has d={d}, N={radius}"):
            read_kernel(path, red2)


def test_kernel_shape_validation(red2):
    with pytest.raises(ValueError, match="shape"):
        NCKernel(red2, LatticeBox(2, 1), LatticeBox(2, 1), np.zeros((9, 8)))


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
