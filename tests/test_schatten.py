import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import l2_norm, random_element
from nctorus.kernels import NCKernel, kernel_matrix, random_kernel
from nctorus.lattice import LatticeBox
from nctorus.multipliers import bessel_weights
from nctorus.schatten import (
    SingularSpectrum,
    critical_exponent,
    decay_exponent,
    default_decay_window,
    schatten_norm,
    singular_values,
    weak_norm,
)


def test_identity_spectrum():
    spec = singular_values(np.eye(5, dtype=complex))
    assert np.array_equal(spec.values, np.ones(5))
    assert len(spec) == 5


def test_diagonal_spectrum_is_sorted_absolute_diagonal():
    mat = np.diag(np.array([0.5, -2.0, 1.0 + 1.0j, 0.0]))
    spec = singular_values(mat)
    assert np.allclose(spec.values, [2.0, np.sqrt(2.0), 0.5, 0.0])


def test_diagonal_spectrum_matches_sorted_moduli():
    rng = np.random.default_rng(11)
    diag = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    spec = singular_values(np.diag(diag)).values
    assert np.allclose(spec, np.sort(np.abs(diag))[::-1], atol=1e-12)


def test_rank_one_kernel_spectrum(red2, rng):
    # k = a (x) b has the single singular value ||a||_2 ||b||_2
    box = LatticeBox(2, 2)
    a = random_element(red2, box, rng)
    b = random_element(red2, box, rng)
    k = NCKernel(red2, box, np.outer(a.coeffs, b.coeffs))
    spec = singular_values(kernel_matrix(k))
    assert spec.values[0] == pytest.approx(l2_norm(a) * l2_norm(b), rel=1e-12)
    assert np.max(spec.values[1:]) <= 1e-12 * spec.values[0]


def test_singular_values_validation():
    with pytest.raises(ValueError, match="square"):
        singular_values(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_spectrum_type_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        SingularSpectrum(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="nonincreasing"):
        SingularSpectrum(np.array([1.0, -0.5]))


def test_schatten_norm_basics():
    spec = SingularSpectrum(np.array([1.0, 1.0]))
    assert schatten_norm(spec, 2.0) == pytest.approx(np.sqrt(2.0))
    assert schatten_norm(spec, np.inf) == 1.0
    assert schatten_norm(spec, 1.0) == pytest.approx(2.0)
    # a constant spectrum is all ties at the top of the log-sum-exp
    for c, n in ((0.3, 7), (2.5, 64), (1e-200, 1000)):
        spec = SingularSpectrum(np.full(n, c))
        for p in (0.5, 1.0, 2.0):
            assert schatten_norm(spec, p) == pytest.approx(n ** (1.0 / p) * c, rel=1e-14)


def test_norms_at_extreme_exponents():
    # beyond the float range the norms are inf, with no overflow warning;
    # for a huge p, or one positive value, the S_p norm is the top value
    spec = SingularSpectrum(np.array([0.7, 0.3, 0.0]))
    for p in (1e-300, 5e-324):
        assert schatten_norm(spec, p) == np.inf
        assert weak_norm(spec, p) == np.inf
    for p in (1e17, 1e308, np.inf):
        assert schatten_norm(spec, p) == 0.7
        assert weak_norm(spec, p) == 0.7
    single = SingularSpectrum(np.array([0.7, 0.0]))
    for p in (5e-324, 0.5, 2.0):
        assert schatten_norm(single, p) == 0.7
        assert weak_norm(single, p) == 0.7


def test_schatten_norm_rejects_nonpositive_p():
    spec = SingularSpectrum(np.array([1.0]))
    with pytest.raises(ValueError, match="positive"):
        schatten_norm(spec, 0.0)
    with pytest.raises(ValueError, match="positive"):
        schatten_norm(spec, -1.0)
    with pytest.raises(ValueError, match="positive"):
        weak_norm(spec, 0.0)
    # an int too long to print is named by its bit length, not by str's error
    with pytest.raises(ValueError, match="^Schatten exponent must be positive, got an integer "
                       "of 16610 bits$"):
        schatten_norm(spec, -10**5000)
    with pytest.raises(ValueError, match="^weak exponent must be positive, got an integer "
                       "of 16610 bits$"):
        weak_norm(spec, -10**5000)
    with pytest.raises(ValueError, match=r"^weak exponent must be positive, got nan$"):
        weak_norm(spec, float("nan"))


def test_quasinorm_below_one():
    spec = SingularSpectrum(np.array([4.0, 1.0]))
    # (4^0.5 + 1^0.5)^2 = 9
    assert schatten_norm(spec, 0.5) == pytest.approx(9.0, rel=1e-13)


def test_quasinorm_log_space_handles_tiny_values():
    vals = np.array([1e-280, 1e-290, 1e-300])
    spec = SingularSpectrum(vals)
    p = 0.1
    # vals**p stays representable here, so the naive power sum is a valid oracle
    expected = float(np.sum(vals**p) ** (1.0 / p))
    got = schatten_norm(spec, p)
    assert got == pytest.approx(expected, rel=1e-10)
    assert np.isfinite(got) and got > 0


def test_zero_spectrum_norms():
    spec = SingularSpectrum(np.zeros(4))
    assert schatten_norm(spec, 1.0) == 0.0
    assert schatten_norm(spec, np.inf) == 0.0
    assert weak_norm(spec, 1.0) == 0.0


def test_weak_norm_delta():
    spec = SingularSpectrum(np.array([1.0, 0.0, 0.0]))
    for p in (0.5, 1.0, 3.0):
        assert weak_norm(spec, p) == 1.0


def test_weak_norm_exact_power_law():
    p = 1.5
    vals = (np.arange(1, 30) ** (-1.0 / p))
    spec = SingularSpectrum(vals)
    assert weak_norm(spec, p) == pytest.approx(1.0, rel=1e-13)


def test_decay_exponent_exact_power_law():
    vals = (np.arange(1, 101, dtype=float)) ** (-1.0)
    spec = SingularSpectrum(vals)
    fit = decay_exponent(spec, 5, 80)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_decay_exponent_constant_spectrum():
    spec = SingularSpectrum(np.ones(50))
    fit = decay_exponent(spec, 2, 30)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_decay_exponent_window_validation():
    spec = SingularSpectrum(np.ones(10))
    with pytest.raises(ValueError, match="window"):
        decay_exponent(spec, 0, 5)
    with pytest.raises(ValueError, match="window"):
        decay_exponent(spec, 5, 5)
    with pytest.raises(ValueError, match="window"):
        decay_exponent(spec, 3, 10)


def test_decay_exponent_zero_inside_window():
    vals = np.array([1.0, 0.5, 0.0, 0.0, 0.0])
    spec = SingularSpectrum(vals)
    with pytest.raises(ValueError, match="zero singular value"):
        decay_exponent(spec, 1, 3)


def test_default_decay_window():
    assert default_decay_window(100) == (5, 50)
    assert default_decay_window(1681) == (85, 840)
    assert default_decay_window(10) == (1, 5)


def test_bessel_potential_decay_slope():
    # the inverse-square envelope in d=2: mu_k falls like 1/k
    box = LatticeBox(2, 20)
    vals = np.sort(bessel_weights(-2.0, box))[::-1]
    spec = SingularSpectrum(vals)
    fit = decay_exponent(spec, 10, 400)
    assert -1.1 <= fit.slope <= -0.9


def test_critical_exponent_reference_values():
    assert critical_exponent(2, 1.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert critical_exponent(2, 0.0, 0.0) == pytest.approx(2.0)
    assert critical_exponent(2, 0.0, 1.0) == pytest.approx(1.0)
    assert critical_exponent(3, 0.5, 1.0) == pytest.approx(1.0)
    # an integral float dimension counts as the integer
    assert critical_exponent(2.0, 1.0, 1.0) == critical_exponent(2, 1.0, 1.0)


def test_critical_exponent_validation():
    with pytest.raises(ValueError, match=">= 2"):
        critical_exponent(1, 1.0, 1.0)
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match=f"dimension must be an integer, got {bad}"):
            critical_exponent(bad, 1.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        critical_exponent(2, -0.1, 0.0)
    # orders go through the finite-number rule, the dimension through its guard
    for bad in (float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match="alpha1 must be a finite number"):
            critical_exponent(2, bad, 1)
        with pytest.raises(ValueError, match="alpha2 must be a finite number"):
            critical_exponent(2, 1, bad)
    with pytest.raises(ValueError, match="dimension must be at most 12, got an integer of 16610"):
        critical_exponent(10**5000, 1, 1)


def test_unitary_invariance_under_cocycle_diagonal(red2):
    from nctorus.cocycle import phase_pairs

    box = LatticeBox(2, 2)
    k = random_kernel(red2, 2, 1.0, 1.0, 79)
    mat = kernel_matrix(k)
    pts = box.enumerate()
    diag = np.diag(phase_pairs(red2.entries, pts, -pts))
    twisted = singular_values(diag @ mat).values
    plain = singular_values(mat).values
    assert np.max(np.abs(twisted - plain)) <= 1e-11 * max(plain[0], 1.0)


def test_adjoint_preserves_schatten_norms(rng):
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    for t in (0.7, 1.0, 2.0, np.inf):
        assert schatten_norm(singular_values(np.conj(a.T)), t) == pytest.approx(
            schatten_norm(singular_values(a), t), rel=1e-11
        )


def test_holder_composition(rng):
    for p2 in (1.0, 2.0, 4.0):
        t = 1.0 / (0.5 + 1.0 / p2)
        for _ in range(5):
            side = int(rng.integers(5, 51))
            a = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            b = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            lhs = schatten_norm(singular_values(a @ b), t)
            rhs = schatten_norm(singular_values(a), 2.0) * schatten_norm(
                singular_values(b), p2
            )
            assert lhs <= rhs + 1e-10


def test_ideal_property(rng):
    a = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
    b = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
    mu_ab = singular_values(a @ b).values
    mu_b = singular_values(b).values
    top = singular_values(a).values[0]
    assert np.all(mu_ab <= top * mu_b + 1e-10)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**31), p=st.floats(0.3, 4.0))
def test_weak_norm_below_schatten_norm(seed, p):
    # the weak quasinorm is dominated by the full p-norm
    rng = np.random.default_rng(seed)
    vals = np.sort(np.abs(rng.standard_normal(12)))[::-1]
    spec = SingularSpectrum(vals)
    assert weak_norm(spec, p) <= schatten_norm(spec, p) * (1 + 1e-12)


def test_schatten_norm_monotone_in_p():
    rng = np.random.default_rng(3)
    vals = np.sort(np.abs(rng.standard_normal(20)))[::-1]
    spec = SingularSpectrum(vals)
    norms = [schatten_norm(spec, p) for p in (0.5, 1.0, 2.0, 4.0, np.inf)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
