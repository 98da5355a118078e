import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import lattice
from nctorus.algebra import (
    TorusElement,
    embedded,
    inner_product,
    involution,
    l2_norm,
    laplacian,
    monomial,
    mult_matrix,
    partial_derivative,
    random_element,
    restricted,
    trace,
    twisted_convolve,
    unit,
)
from nctorus.cocycle import diagonal_phases, phase_pairs, random_theta, reduce_theta, sigma
from nctorus.cocycle import zero_theta
from nctorus.experiments import run_potential_decay, run_property_suite
from nctorus.lattice import LatticeBox


def test_monomial_product_law(quarter):
    box = LatticeBox(2, 1)
    m, n = (1, 0), (0, 1)
    prod = twisted_convolve(monomial(quarter, m, box), monomial(quarter, n, box))
    target = np.array(m) + np.array(n)
    assert prod.coefficient(target) == pytest.approx(sigma(quarter, m, n))
    # single nonzero coefficient
    assert np.count_nonzero(prod.coeffs) == 1


def test_generator_commutation(theta2, red2):
    # U_k U_j = exp(2 pi i theta_kj) U_j U_k for the generator pair
    box = LatticeBox(2, 1)
    uk = monomial(red2, (0, 1), box)  # k = 2
    uj = monomial(red2, (1, 0), box)  # j = 1
    lhs = twisted_convolve(uk, uj)
    rhs = twisted_convolve(uj, uk)
    phase = np.exp(2j * np.pi * theta2.entries[1, 0])
    assert np.allclose(lhs.coeffs, phase * rhs.coeffs, atol=1e-14)


def test_unit_is_neutral(red2, rng):
    box = LatticeBox(2, 2)
    f = random_element(red2, box, rng)
    one = unit(red2, LatticeBox(2, 0))
    left = twisted_convolve(one, f)
    right = twisted_convolve(f, one)
    assert np.allclose(left.coeffs, f.coeffs, atol=1e-15)
    assert np.allclose(right.coeffs, f.coeffs, atol=1e-15)


def test_associativity_random(rng):
    for d in (2, 3):
        theta = reduce_theta(random_theta(d, rng))
        box = LatticeBox(d, 1)
        f, g, h = (random_element(theta, box, rng) for _ in range(3))
        a = twisted_convolve(twisted_convolve(f, g), h)
        b = twisted_convolve(f, twisted_convolve(g, h))
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)


def _plain_convolution(f: TorusElement, g: TorusElement) -> TorusElement:
    """Untwisted convolution as an FFT product (theta = 0 oracle).

    Both grids are zero-padded to the full convolution shape, so the
    cyclic product equals the linear convolution: a route through
    numpy.fft that shares no code with the direct convolution.
    """
    d = f.box.d
    box = LatticeBox(d, f.box.radius + g.box.radius)
    shape = (box.side,) * d
    axes = tuple(range(d))
    grid_f = np.fft.fftn(f.coeffs.reshape((f.box.side,) * d), shape, axes)
    grid_g = np.fft.fftn(g.coeffs.reshape((g.box.side,) * d), shape, axes)
    full = np.fft.ifftn(grid_f * grid_g, shape, axes)
    return TorusElement(f.theta, box, full.reshape(-1))


def test_untwisted_convolution_matches_fft(rng):
    red = zero_theta(2)
    f = random_element(red, LatticeBox(2, 2), rng)
    g = random_element(red, LatticeBox(2, 1), rng)
    ours = twisted_convolve(f, g)
    ref = _plain_convolution(f, g)
    assert ours.box == ref.box
    assert np.allclose(ours.coeffs, ref.coeffs, atol=1e-12)


def test_product_box_is_minkowski_sum(red2, rng):
    f = random_element(red2, LatticeBox(2, 2), rng)
    g = random_element(red2, LatticeBox(2, 1), rng)
    assert twisted_convolve(f, g).box.radius == 3


def test_theta_mismatch_rejected(red2, rng):
    other = zero_theta(2)
    f = random_element(red2, LatticeBox(2, 1), rng)
    g = random_element(other, LatticeBox(2, 1), rng)
    with pytest.raises(ValueError, match="different deformation"):
        twisted_convolve(f, g)
    with pytest.raises(ValueError, match="different deformation"):
        inner_product(f, g)


def test_involution_on_monomial(red2):
    # star of a basis monomial: conj(sigma(n,-n)) at the negated index
    box = LatticeBox(2, 2)
    n = (2, -1)
    star = involution(monomial(red2, n, box))
    expected = np.conj(sigma(red2, n, tuple(-v for v in n)))
    assert star.coefficient((-2, 1)) == pytest.approx(expected)
    assert np.count_nonzero(star.coeffs) == 1


def test_involution_antihomomorphism(red2, rng):
    box = LatticeBox(2, 2)
    f = random_element(red2, box, rng)
    g = random_element(red2, box, rng)
    lhs = involution(twisted_convolve(f, g))
    rhs = twisted_convolve(involution(g), involution(f))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_involution_is_involutive(red2, rng):
    f = random_element(red2, LatticeBox(2, 3), rng)
    assert np.allclose(involution(involution(f)).coeffs, f.coeffs, atol=1e-14)


def test_star_element_is_positive(red2, rng):
    # trace(f# f) is the squared L2 norm, real and nonnegative
    f = random_element(red2, LatticeBox(2, 2), rng)
    val = trace(twisted_convolve(involution(f), f))
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real == pytest.approx(l2_norm(f) ** 2, rel=1e-12)


def test_trace_property(red2, rng):
    box = LatticeBox(2, 2)
    f = random_element(red2, box, rng)
    g = random_element(red2, box, rng)
    assert trace(twisted_convolve(f, g)) == pytest.approx(
        trace(twisted_convolve(g, f)), abs=1e-12
    )


def test_trace_picks_origin(red2):
    box = LatticeBox(2, 1)
    x = monomial(red2, (0, 0), box) * 3.5 + monomial(red2, (1, 0), box)
    assert trace(x) == pytest.approx(3.5)


def test_inner_product_and_norm(red2, rng):
    f = random_element(red2, LatticeBox(2, 2), rng)
    g = random_element(red2, LatticeBox(2, 2), rng)
    direct = complex(np.vdot(g.coeffs, f.coeffs))
    assert inner_product(f, g) == pytest.approx(direct)
    assert inner_product(f, f).real == pytest.approx(l2_norm(f) ** 2)
    # pairing through the trace
    assert inner_product(f, g) == pytest.approx(
        trace(twisted_convolve(involution(g), f)), abs=1e-12
    )


def test_inner_product_mixed_boxes(red2, rng):
    f = random_element(red2, LatticeBox(2, 2), rng)
    g = random_element(red2, LatticeBox(2, 1), rng)
    small = restricted(f, LatticeBox(2, 1))
    assert inner_product(f, g) == pytest.approx(inner_product(small, g))


def test_embedded_restricted_roundtrip(red2, rng):
    f = random_element(red2, LatticeBox(2, 1), rng)
    big = embedded(f, LatticeBox(2, 3))
    assert l2_norm(big) == pytest.approx(l2_norm(f))
    back = restricted(big, LatticeBox(2, 1))
    assert np.array_equal(back.coeffs, f.coeffs)
    onto_larger = restricted(f, LatticeBox(2, 3))  # restricting onto a larger box embeds
    assert onto_larger.box == big.box and np.array_equal(onto_larger.coeffs, big.coeffs)
    with pytest.raises(ValueError, match="smaller"):
        embedded(f, LatticeBox(2, 0))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_positions_past_the_guard_build_no_point_table(red2, rng):
    # a d = 2, radius-300 box has 361,201 points: its position lookups read
    # place values, where they built its 11.6 MB point table afresh; here
    # 1.7 kB, 1.7 kB and 32 bytes per point, the zero-filled vector and
    # the element's copy of it, where they read 48
    small = random_element(red2, LatticeBox(2, 1), rng)
    x = embedded(small, LatticeBox(2, 300))
    assert LatticeBox(2, 300).linear_index((1, 2)) == 301 * 601 + 302
    assert np.array_equal(restricted(x, LatticeBox(2, 1)).coeffs, small.coeffs)
    assert _traced_peak(lambda: LatticeBox(2, 300).linear_index((1, 2))) < 1 << 16
    assert _traced_peak(lambda: restricted(x, LatticeBox(2, 1))) < 1 << 16
    per_point = _traced_peak(lambda: embedded(small, LatticeBox(2, 300))) / x.box.cardinality
    assert per_point < 40, per_point


def test_mult_matrix_matches_convolution(red2, rng):
    box = LatticeBox(2, 2)
    x = random_element(red2, box, rng)
    y = random_element(red2, box, rng)
    mat = mult_matrix(x, box)
    truncated = restricted(twisted_convolve(x, y), box)
    assert np.allclose(mat @ y.coeffs, truncated.coeffs, atol=1e-12)


def test_mult_matrix_columns_are_monomial_products(red2, rng):
    box = LatticeBox(2, 1)
    x = random_element(red2, box, rng)
    mat = mult_matrix(x, box)
    for j, pt in enumerate(box.enumerate()):
        col = restricted(twisted_convolve(x, monomial(red2, pt, box)), box)
        assert np.allclose(mat[:, j], col.coeffs, atol=1e-14)


def _difference_table_form(x: TorusElement, box: LatticeBox) -> np.ndarray:
    """mult_matrix as an n x n x d table of differences m - n, masked and looked up in x."""
    pts = box.enumerate()
    diff = pts[:, None, :] - pts[None, :, :]
    rows, cols = np.nonzero(np.all(np.abs(diff) <= x.box.radius, axis=2))
    shifts = diff[rows, cols]
    out = np.zeros((box.cardinality, box.cardinality), dtype=complex)
    out[rows, cols] = phase_pairs(x.theta.entries, shifts, pts[cols]) * x.coeffs[
        x.box.linear_indices(shifts)
    ]
    return out


@pytest.mark.parametrize("d, radius", [(2, 6), (3, 2)])
def test_mult_matrix_is_the_difference_table_form(d, radius):
    # bit for bit, for x's radius below, at and above the box's, past 2N
    # too, and over one shift block or several
    rng = np.random.Generator(np.random.Philox(key=44 + d))
    red = reduce_theta(random_theta(d, rng, 3.0))
    box = LatticeBox(d, radius)
    for r in range(2 * radius + 2):
        x = random_element(red, LatticeBox(d, r), rng)
        assert np.array_equal(mult_matrix(x, box), _difference_table_form(x, box)), r


@pytest.mark.parametrize("radius", [1, 24])
def test_mult_matrix_holds_little_beside_its_matrix(red2, radius):
    # d = 2, N = 24: the matrix is 16 bytes per entry, and the difference
    # table form peaked at 34.0 (x of radius 1) and 81.5 (radius 24)
    box = LatticeBox(2, 24)
    x = random_element(red2, LatticeBox(2, radius), np.random.default_rng(radius))
    peak = _traced_peak(lambda: mult_matrix(x, box))
    assert peak / box.cardinality**2 < 20, peak / box.cardinality**2


def test_partial_derivative_scales_monomials(red2):
    box = LatticeBox(2, 2)
    x = monomial(red2, (2, -1), box)
    d1 = partial_derivative(x, 1)
    d2 = partial_derivative(x, 2)
    assert d1.coefficient((2, -1)) == pytest.approx(2j * np.pi * 2)
    assert d2.coefficient((2, -1)) == pytest.approx(2j * np.pi * -1)


def test_partial_derivative_index_range(red2, rng):
    x = random_element(red2, LatticeBox(2, 1), rng)
    with pytest.raises(ValueError, match="out of range"):
        partial_derivative(x, 0)
    with pytest.raises(ValueError, match="out of range"):
        partial_derivative(x, 3)


def test_leibniz_rule(red2, rng):
    box = LatticeBox(2, 2)
    f = random_element(red2, box, rng)
    g = random_element(red2, box, rng)
    for j in (1, 2):
        lhs = partial_derivative(twisted_convolve(f, g), j)
        rhs = twisted_convolve(partial_derivative(f, j), g) + twisted_convolve(
            f, partial_derivative(g, j)
        )
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-11)


def test_self_adjoint_derivative_symmetric(red2, rng):
    # <D f, g> = <f, D g> for the symmetrized derivation
    box = LatticeBox(2, 2)
    f = random_element(red2, box, rng)
    g = random_element(red2, box, rng)
    for j in (1, 2):
        lhs = inner_product(-1j * partial_derivative(f, j), g)
        rhs = inner_product(f, -1j * partial_derivative(g, j))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_laplacian_spectrum(red2):
    box = LatticeBox(2, 2)
    x = monomial(red2, (1, -2), box)
    lap = laplacian(x)
    assert lap.coefficient((1, -2)) == pytest.approx(-4 * np.pi**2 * 5)
    # sum of squared derivations agrees
    via_parts = partial_derivative(partial_derivative(x, 1), 1) + partial_derivative(
        partial_derivative(x, 2), 2
    )
    assert np.allclose(lap.coeffs, via_parts.coeffs, atol=1e-12)


def test_arithmetic_operators(red2, rng):
    box = LatticeBox(2, 1)
    f = random_element(red2, box, rng)
    g = random_element(red2, LatticeBox(2, 2), rng)
    s = f + g
    assert s.box.radius == 2
    assert s.coefficient((0, 0)) == pytest.approx(
        f.coefficient((0, 0)) + g.coefficient((0, 0))
    )
    diff = (2.0 * f) - f - f
    assert np.allclose(diff.coeffs, 0.0, atol=1e-15)
    assert np.allclose((f * 1j).coeffs, 1j * f.coeffs)


def test_coefficient_outside_box_is_zero(red2):
    x = monomial(red2, (1, 1), LatticeBox(2, 1))
    assert x.coefficient((5, 5)) == 0.0


def test_coefficient_refuses_a_wrong_dimension(red2):
    x = monomial(red2, (0, 0), LatticeBox(2, 1))
    with pytest.raises(ValueError, match=r"^lattice point \(0, 0, 0\) has dimension 3, box has d=2$"):
        x.coefficient((0, 0, 0))


def test_dense_constructions_are_guarded(red2):
    # a radius-36 d=2 box has 73^2 = 5329 points, above the guard; the
    # refusal comes before the n x n matrix is allocated
    x = random_element(red2, LatticeBox(2, 1), np.random.default_rng(0))
    big = random_element(red2, LatticeBox(2, 36), np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the dense-matrix guard"):
            mult_matrix(x, LatticeBox(2, 36))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="exceeds the dense-matrix guard"):
        twisted_convolve(big, x)
    with pytest.raises(ValueError, match="exceeds the dense-matrix guard"):
        twisted_convolve(x, big)


def test_element_validation(red2):
    with pytest.raises(ValueError, match=r"^coefficients have shape \(5,\), expected \(9,\)$"):
        TorusElement(red2, LatticeBox(2, 1), np.ones(5))
    with pytest.raises(ValueError, match="^box has dimension 2, theta has d=3$"):
        TorusElement(reduce_theta(random_theta(3, np.random.default_rng(0))),
                     LatticeBox(2, 1), np.ones(9))
    # coefficients are numbers in exactly the box's (n,) shape
    box = LatticeBox(2, 2)  # 25 points
    with pytest.raises(ValueError, match=r"^coefficients have shape \(5, 5\), expected \(25,\)$"):
        TorusElement(red2, box, np.ones((5, 5)))
    for bad, dtype in ((["1"] * 25, "<U1"), ([True] * 25, "bool"), (None, "object")):
        with pytest.raises(ValueError, match=f"^coefficients must be numbers, got dtype {dtype}$"):
            TorusElement(red2, box, bad)
    # every kind of number passes, into a copy the caller's array never aliases
    sources = [list(range(25)), np.arange(25, dtype=np.uint8), np.ones(25, dtype=np.float32),
               [1j] * 25, np.full(25, 2 + 1j)]
    for source in sources:
        x = TorusElement(red2, box, source)
        assert x.coeffs.dtype == complex and x.coeffs is not source
        assert np.array_equal(x.coeffs, np.asarray(source))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**31))
def test_product_trace_cyclicity_property(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = reduce_theta(random_theta(2, rng))
    box = LatticeBox(2, 1)
    f, g, h = (random_element(theta, box, rng) for _ in range(3))
    abc = trace(twisted_convolve(twisted_convolve(f, g), h))
    cab = trace(twisted_convolve(twisted_convolve(h, f), g))
    assert abc == pytest.approx(cab, abs=1e-11)


def _suite_errors(seed, theta):
    report = run_property_suite(seed, theta)
    assert report.passed, report.failures
    return np.array([c.max_error for c in report.checks]).view(np.int64)


PLAN = "nctorus.algebra._product_plan"


def _bypass(patch) -> None:
    """Put every memo's builder in its LRU's place, so each table is built afresh."""
    for name, lru in list(lattice._MEMOS.items()):
        patch.setitem(lattice._MEMOS, name, lru.__wrapped__)


def _held(memos) -> dict:
    """Entries each memo holds, by the memoised function's own name."""
    return {name.rpartition(".")[2]: lru.cache_info().currsize for name, lru in memos.items()}


@pytest.mark.parametrize("d", [2, 3])
def test_memos_change_no_suite_bit(d, memos, monkeypatch):
    # every memo starting cleared, starting warm (last filled for another
    # theta), or not consulted at all gives the same suite errors bit for bit
    rng = np.random.Generator(np.random.Philox(key=d))
    theta, other = random_theta(d, rng), random_theta(d, rng)
    for seed in (7, 8, 9):
        for memo in memos.values():
            memo.cache_clear()
        cleared = _suite_errors(seed, theta)
        _suite_errors(seed, other)
        warm = _suite_errors(seed, theta)
        infos = [memo.cache_info() for memo in memos.values()]
        with monkeypatch.context() as patch:
            _bypass(patch)
            unmemoised = _suite_errors(seed, theta)
        assert [memo.cache_info() for memo in memos.values()] == infos
        assert np.array_equal(cleared, warm)
        assert np.array_equal(cleared, unmemoised)


@pytest.mark.parametrize("name", list(lattice._MEMOS))
def test_memoised_tables_are_read_only(name, theta2, memos, monkeypatch):
    # one suite seed consults every memo, and no array a memo hands out,
    # alone or in a tuple, can be written through
    lru, tables = memos[name], []

    def spy(*key):
        tables.append(lru(*key))
        return tables[-1]

    monkeypatch.setitem(memos, name, spy)
    run_property_suite(7, theta2)
    assert tables
    for table in tables:
        for part in table if isinstance(table, tuple) else (table,):
            if isinstance(part, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    part.flat[0] = 0


@pytest.mark.parametrize("name", list(lattice._MEMOS))
def test_memo_sizes_are_pinned(name, memos):
    assert memos[name].cache_info().maxsize == 16


def test_boxes_over_the_guard_enter_no_memo(red2, memos):
    # decay's N = 40 box has 81^2 = 6,561 points, above the dense-matrix
    # guard: its tables are built for it alone, and no memo keeps them
    run_potential_decay(2, 2.0, (40,))
    big = LatticeBox(2, 40)
    assert big.enumerate() is big.enumerate()
    assert big.enumerate() is not LatticeBox(2, 40).enumerate()
    phases = diagonal_phases(red2, big)
    index = lattice._embedding(2, 1, 40)
    assert phases is not diagonal_phases(red2, big)
    assert index is not lattice._embedding(2, 1, 40)
    assert big.places is not big.places  # place values are made per call, never held
    for arr in (big.enumerate(), phases, index):
        assert not arr.flags.writeable
    # the radius-1 box behind the embedding is the only table kept
    assert _held(memos) == {
        "_box_geometry": 1,
        "_embedding": 0,
        "reduce_theta": 0,
        "diagonal_phases": 0,
        "_product_plan": 0,
    }


def test_memos_hold_little_after_a_warm_suite_seed(theta2, memos):
    # after one d = 2 suite seed the memos hold every table the next seed
    # reads: 6 product plans, 4 box point tables, 3 phase tables, 2
    # embeddings and 1 reduced theta, about 133 kB in all; a product's
    # sum box is placed by its place values and holds no point table
    run_property_suite(7, theta2)
    for memo in memos.values():
        memo.cache_clear()
    tracemalloc.start()
    try:
        run_property_suite(8, theta2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _held(memos) == {
        "_box_geometry": 4,
        "_embedding": 2,
        "reduce_theta": 1,
        "diagonal_phases": 3,
        "_product_plan": 6,
    }
    assert held < 1 << 18, held


def test_plan_memo_skips_products_over_its_bound(memos):
    red3 = reduce_theta(random_theta(3, np.random.default_rng(3)))
    rng = np.random.Generator(np.random.Philox(key=4))
    f = random_element(red3, LatticeBox(3, 4), rng)
    g = random_element(red3, LatticeBox(3, 2), rng)
    assert lattice._BLOCK_ENTRIES == 1 << 14
    assert f.box.cardinality * g.box.cardinality > lattice._BLOCK_ENTRIES
    memos[PLAN].cache_clear()
    twisted_convolve(f, g)
    assert memos[PLAN].cache_info().currsize == 0
    # 125 x 125 = 15,625 entries is within the bound
    twisted_convolve(g, g)
    assert memos[PLAN].cache_info().currsize == 1


def test_plan_memo_holds_at_most_16_plans(memos, monkeypatch):
    # twenty thetas over one box pair: twenty plans, of which the memo
    # keeps the last 16, and every product is the one built without it
    rng = np.random.Generator(np.random.Philox(key=5))
    box = LatticeBox(2, 1)
    elements = []
    for _ in range(20):
        theta = reduce_theta(random_theta(2, rng))
        elements.append(random_element(theta, box, rng))
    memos[PLAN].cache_clear()
    memoised = [twisted_convolve(x, x).coeffs for x in elements + elements[:2]]
    info = memos[PLAN].cache_info()
    assert info.maxsize == 16
    assert info.misses == 22 and info.currsize == 16
    _bypass(monkeypatch)
    for x, coeffs in zip(elements + elements[:2], memoised):
        assert np.array_equal(twisted_convolve(x, x).coeffs, coeffs)
