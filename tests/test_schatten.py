import glob
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import l2_norm, random_element
from nctorus.experiments import ExperimentConfig
from nctorus.kernels import NCKernel, kernel_matrix, random_kernel
from nctorus.lattice import LatticeBox
from nctorus import schatten
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

from jacobi_oracle import jacobi_values


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


def _matrices(seed: int):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 25, 300, 399):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield a, np.asfortranarray(a)


@pytest.mark.parametrize("bundled", [True, False], ids=["bundled", "fallback"])
def test_singular_values_match_numpy_bit_for_bit(monkeypatch, bundled):
    # below the two-stage crossover (n = 400; every size here is <= 399)
    # the SVD is np.linalg.svd, with or without the bundled OpenBLAS; C
    # and Fortran input give the same bits
    if not bundled:
        monkeypatch.setattr(schatten, "_openblas", lambda: None)
        with schatten._one_blas_thread() as lanes:
            assert lanes == 1
    for c_order, f_order in _matrices(5):
        expected = np.linalg.svd(c_order, compute_uv=False)
        for a in (c_order, f_order):
            kept = a.copy()
            assert np.array_equal(singular_values(a).values, expected)
            assert np.array_equal(a, kept)  # not handed over, so untouched
            handed_over = singular_values(a.copy(order="K"), overwrite=True)
            assert np.array_equal(handed_over.values, expected)


def _two_stage_cases(n: int):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    yield "random", a
    yield "rank-deficient", a[:, : n // 3] @ a[: n // 3, :]
    yield "complex diagonal", np.diag(a[0])
    yield "zero", np.zeros((n, n), dtype=complex)


@pytest.mark.parametrize("n", [400, 401, 512, 513, 530])
def test_two_stage_matches_numpy(n):
    # from n = 400 on, the bundled OpenBLAS runs the two-stage reduction in
    # panels of 20 columns: 400 sits at the crossover and is 20 panels,
    # and the last LQ step has fewer than 20 reflectors at 401 (one), 512,
    # 513 and 530 (10).  It agrees with numpy's svd to rounding error
    assert schatten._TWO_STAGE_MIN == 400 and schatten._PANEL == 20
    spectra = {}
    for name, a in _two_stage_cases(n):
        expected = np.linalg.svd(a, compute_uv=False)
        spectra[name] = singular_values(a).values
        assert spectra[name].shape == (n,)
        assert np.max(np.abs(spectra[name] - expected)) <= 1e-13 * expected[0], name
    # C order, Fortran order and a handed-over copy of the random matrix
    # give the same bits; the input is untouched unless it is handed over
    a, got = next(_two_stage_cases(n))[1], spectra["random"]
    for b in (a, np.asfortranarray(a)):
        kept = b.copy()
        assert np.array_equal(singular_values(b).values, got)
        assert np.array_equal(b, kept)
    handed_over = np.array(a, order="F")
    assert np.array_equal(singular_values(handed_over, overwrite=True).values, got)
    if schatten._openblas() is not None:
        assert not np.array_equal(handed_over, a)  # it was the workspace


def test_overwrite_spends_only_a_fortran_matrix():
    # a 401 x 401 matrix: overwrite acts only from the two-stage crossover on
    c_order = next(_two_stage_cases(401))[1]
    f_order = np.asfortranarray(c_order)
    spectrum = singular_values(f_order, overwrite=True)
    assert np.array_equal(spectrum.values, singular_values(c_order).values)
    if schatten._openblas() is not None:
        assert not np.array_equal(f_order, c_order)  # it was the workspace
    # a C-ordered or read-only matrix is copied even when handed over
    kept = c_order.copy()
    singular_values(c_order, overwrite=True)
    assert np.array_equal(c_order, kept)
    frozen = np.asfortranarray(kept)
    frozen.flags.writeable = False
    assert np.array_equal(singular_values(frozen, overwrite=True).values, spectrum.values)
    assert np.array_equal(frozen, c_order)


def test_two_stage_allocates_only_the_band_and_its_workspace():
    # handed a Fortran matrix, the two-stage SVD allocates the (b+1) x n
    # band, whose storage first holds the row panels' buffers, and the n x b
    # work array, 16 B per entry each, and under 64 KiB
    # of small arrays (T, tau, d, e, the 4n real work array and the
    # spectrum's checks); a copy of the 625 x 625 matrix would be 6.25 MB
    if schatten._openblas() is None:
        pytest.skip("numpy does not run on its bundled OpenBLAS here")
    n, b = 625, schatten._PANEL
    a = np.asfortranarray(next(_two_stage_cases(n))[1])
    tracemalloc.start()
    try:
        singular_values(a, overwrite=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (2 * b + 1) * n + 2**16, peak


@pytest.mark.parametrize("routine, n", [
    ("zgeqrf", 512), ("zlarft", 512), ("zlarfb", 512), ("zgbbrd", 512), ("dbdsqr", 512),
])
def test_a_failed_lapack_routine_is_named(monkeypatch, routine, n):
    # the two-stage path calls the `_work` variants, which take the
    # caller's workspace
    lib = schatten._openblas()
    if lib is None:
        pytest.skip("numpy does not run on its bundled OpenBLAS here")
    monkeypatch.setattr(lib, f"scipy_LAPACKE_{routine}_work64_", lambda *args: -4)
    with pytest.raises(np.linalg.LinAlgError, match=f"^{routine} failed with info = -4$"):
        singular_values(np.eye(n, dtype=complex))


def test_one_blas_thread_pins_and_restores():
    lib = schatten._openblas()
    if lib is None:
        pytest.skip("numpy does not run on its bundled OpenBLAS here")
    before = lib.scipy_openblas_get_num_threads64_()
    with pytest.raises(RuntimeError):
        with schatten._one_blas_thread() as lanes:
            assert lanes == min(2, before)
            assert lib.scipy_openblas_get_num_threads64_() == 1
            raise RuntimeError
    assert lib.scipy_openblas_get_num_threads64_() == before


@pytest.mark.parametrize("width", [1, 2, 3])
def test_in_lanes_maps_in_order_in_the_callers_context(width):
    # results come back in item order; the first width items run at once
    # (each waits for the others at a barrier), so every lane runs one,
    # the calling thread among them, and every lane sees the caller's
    # numpy error state
    together = threading.Barrier(width)
    seen = []

    def square(i: int) -> int:
        if i < width:
            together.wait(timeout=60)
        seen.append((threading.get_ident(), np.geterr()["under"]))
        return i * i

    with np.errstate(under="raise"):
        assert schatten._in_lanes(square, range(7), width) == [i * i for i in range(7)]
        assert schatten._in_lanes(square, [], width) == []
    threads = {thread for thread, _ in seen}
    assert threading.get_ident() in threads and len(threads) == width
    assert {under for _, under in seen} == {"raise"}


@pytest.mark.parametrize("width", [1, 2])
def test_in_lanes_starts_no_item_after_a_failure(width):
    # item 1 fails at once while item 0 holds the other lane: items 2 and 3
    # never start, and the failure is raised in the caller
    started = []

    def run(i: int) -> int:
        started.append(i)
        if i == 1:
            raise RuntimeError("item failed")
        time.sleep(0.3)
        return i

    with pytest.raises(RuntimeError, match="^item failed$"):
        schatten._in_lanes(run, range(4), width)
    assert sorted(started) == [0, 1]


def test_concurrent_svds_match_serial():
    # the scan's lanes run np.linalg.svd and the two-stage reduction from
    # two threads at once; with more threads than that and a short switch
    # interval each matrix still gets its serial spectrum, bit for bit
    matrices = [a for a, _ in _matrices(8)] * 4 + [next(_two_stage_cases(530))[1]] * 3
    with schatten._one_blas_thread():
        expected = [singular_values(a).values for a in matrices]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                spectra = pool.map(
                    lambda a: singular_values(a.copy(order="F"), overwrite=True).values,
                    matrices,
                    timeout=120,
                )
                got = list(spectra)
        finally:
            sys.setswitchinterval(interval)
    assert len(got) == len(expected)
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


_BUNDLED = glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(np.__file__))),
    "numpy.libs", "libscipy_openblas64_*",
))


@pytest.mark.skipif(not _BUNDLED, reason="numpy bundles no scipy-openblas64 here")
def test_bundled_openblas_is_bound():
    # where numpy ships its OpenBLAS the SVD must not fall back silently
    assert schatten._openblas() is not None


def test_scan_svd_against_the_jacobi_oracle():
    # the scan's first two-stage size: n = 441 at d = 2, N = 10, where the
    # default kernel has kappa = 2.9e6, so normwise error bounds leave its
    # smallest values only about eps kappa = 6e-10 relative accuracy;
    # tests/jacobi_oracle.py reports N = 12 and 18
    lib = schatten._openblas()
    if lib is None:
        pytest.skip("numpy bundles no ILP64 OpenBLAS here")
    config = ExperimentConfig(d=2, N_grid=(10,), seed=42)
    k = random_kernel(config.reduced, 10, *config.envelope_exponents(), config.seed)
    matrix = kernel_matrix(k)
    assert matrix.shape[0] >= schatten._TWO_STAGE_MIN
    with schatten._one_blas_thread():  # as in the scan
        jacobi = jacobi_values(lib, matrix)
        if jacobi is None:
            pytest.skip("this OpenBLAS exports no LAPACKE zgejsv")
        ours = singular_values(matrix.T).values
    assert 1e6 < jacobi[0] / jacobi[-1] < 1e7
    # measured: 1.0e-12 here at one BLAS thread (1.4e-12 at two), and
    # 5.0e-12 for np.linalg.svd; the band is ten times the first
    assert np.max(np.abs(ours - jacobi) / jacobi) <= 1e-11
    # the norms agree to 1.3e-15 at every default r
    for r in config.r_grid:
        for norm in (schatten_norm, weak_norm):
            want = norm(SingularSpectrum(jacobi), r)
            assert norm(SingularSpectrum(ours), r) == pytest.approx(want, rel=1e-14, abs=0)


def test_spectrum_multiplicities():
    spec = SingularSpectrum([3.0, 2.0, 0.0], [2, 1, 4])
    assert len(spec) == 7 and spec.multiplicities.dtype == np.int64
    assert not spec.multiplicities.flags.writeable
    assert np.array_equal(SingularSpectrum([2.0, 1.0]).multiplicities, [1, 1])
    assert np.array_equal(spec.window(0, 6), [3, 3, 2, 0, 0, 0, 0])
    assert np.array_equal(spec.window(1, 3), [3, 2, 0])
    assert np.array_equal(spec.window(2, 2), [2])
    with pytest.raises(ValueError, match=r"must have the values' shape \(2,\), got \(3,\)$"):
        SingularSpectrum([2.0, 1.0], [1, 1, 1])
    with pytest.raises(ValueError, match="^multiplicities must be at least 1$"):
        SingularSpectrum([2.0, 1.0], [1, 0])
    with pytest.raises(ValueError, match="^multiplicity entries must be integers"):
        SingularSpectrum([2.0, 1.0], [1, 1.5])


def test_multiplicities_read_as_repeated_values():
    # values with multiplicities and their expansion give the same weak norm
    # and fit bit for bit, and the same power sum up to its order of summation
    rng = np.random.default_rng(5)
    values = np.sort(rng.random(40))[::-1]
    values[-3:] = 0.0
    counts = rng.integers(1, 6, 40)
    counts[0] = 3  # ties at the top of the log-sum-exp
    runs = SingularSpectrum(values, counts)
    flat = SingularSpectrum(np.repeat(values, counts))
    for p in (0.3, 1.0, 2.0, 7.0, np.inf):
        assert weak_norm(runs, p) == weak_norm(flat, p)
        assert schatten_norm(runs, p) == pytest.approx(schatten_norm(flat, p), rel=1e-14, abs=0)
    assert decay_exponent(runs, 5, 60) == decay_exponent(flat, 5, 60)


def test_spectrum_type_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        SingularSpectrum(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="nonincreasing"):
        SingularSpectrum(np.array([1.0, -0.5]))
    # a NaN compares false both ways, so only a finite check catches it
    with pytest.raises(ValueError, match=r"^singular values must be finite, got nan at index 0$"):
        SingularSpectrum([np.nan, 2.0, 1.0])
    with pytest.raises(ValueError, match=r"^singular values must be finite, got inf at index 0$"):
        SingularSpectrum([np.inf, 1.0])
    with pytest.raises(ValueError, match=r"^singular values must be finite, got -inf at index 2$"):
        SingularSpectrum([2.0, 1.0, -np.inf])
    assert len(SingularSpectrum([])) == 0
    # a matrix, a scalar or complex values are refused, never reshaped or cast
    with pytest.raises(ValueError, match=r"must be one-dimensional, got shape \(2, 2\)$"):
        SingularSpectrum(np.array([[3.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match=r"must be one-dimensional, got shape \(\)$"):
        SingularSpectrum(5.0)
    with pytest.raises(ValueError, match="must be real numbers, got dtype complex128$"):
        SingularSpectrum(np.array([2 + 5j, 1 + 0j]))
    with pytest.raises(ValueError, match="must be real numbers, got dtype complex128$"):
        SingularSpectrum([2 + 5j, 1 + 0j])


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
    with pytest.raises(ValueError, match="^dimension must be at least 2, got 1$"):
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
