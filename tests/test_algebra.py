import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import algebra, cocycle, experiments, lattice
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
from nctorus.cocycle import diagonal_phases, random_theta, reduce_theta, sigma, zero_theta
from nctorus.experiments import run_potential_decay, run_property_suite
from nctorus.lattice import LatticeBox
from nctorus.reference import plain_convolution


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


def test_untwisted_convolution_matches_fft(rng):
    red = zero_theta(2)
    f = random_element(red, LatticeBox(2, 2), rng)
    g = random_element(red, LatticeBox(2, 1), rng)
    ours = twisted_convolve(f, g)
    ref = plain_convolution(f, g)
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
    # refusal comes before the n x n x d difference table is allocated
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
    with pytest.raises(ValueError, match="length"):
        TorusElement(red2, LatticeBox(2, 1), np.ones(5))
    with pytest.raises(ValueError, match="does not match"):
        TorusElement(reduce_theta(random_theta(3, np.random.default_rng(0))),
                     LatticeBox(2, 1), np.ones(9))


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


def _bypass(patch) -> None:
    """Point every memo's lookup at its builder, so each table is built afresh."""
    patch.setattr(lattice, "_geometry_memo", lattice._build_geometry)
    patch.setattr(cocycle, "_diagonal_memo", cocycle._build_diagonal)
    patch.setattr(experiments, "reduce_theta", cocycle.reduce_theta.__wrapped__)
    patch.setattr(lattice, "_embedding_memo", lattice._build_embedding)
    patch.setattr(algebra, "_plan_memo", algebra._build_plan)


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


def test_memoised_tables_are_read_only(red2, memos):
    box = LatticeBox(2, 2)
    tables = (*box._geometry, diagonal_phases(red2, box), lattice._embedding(2, 1, 2))
    assert [memo.cache_info().currsize for memo in memos.values()] == [2, 1, 0, 1, 0]
    for arr in tables:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_memo_sizes_are_pinned(memos):
    sizes = {name: memo.cache_info().maxsize for name, memo in memos.items()}
    assert sizes == {"geometry": 16, "diagonal": 16, "theta": 16, "embedding": 16, "plan": 16}


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
    for arr in (*big._geometry, phases, index):
        assert not arr.flags.writeable
    # the one-point box behind the embedding is the only table kept
    assert [memo.cache_info().currsize for memo in memos.values()] == [1, 0, 0, 0, 0]


def test_memos_hold_little_after_a_warm_suite_seed(theta2, memos):
    # after one d = 2 suite seed the memos hold every table the next seed
    # reads: 6 product plans, 5 box geometries, 3 phase tables, 2
    # embeddings and 1 reduced theta, about 134 kB in all
    run_property_suite(7, theta2)
    for memo in memos.values():
        memo.cache_clear()
    tracemalloc.start()
    try:
        run_property_suite(8, theta2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [memo.cache_info().currsize for memo in memos.values()] == [5, 3, 1, 2, 6]
    assert held < 1 << 18, held


def test_memoised_plans_are_read_only(red2):
    algebra._plan_memo.cache_clear()
    box, scatter, phases = algebra._product_plan(red2, LatticeBox(2, 2), LatticeBox(2, 1))
    assert algebra._plan_memo.cache_info().currsize == 1
    assert box == LatticeBox(2, 3)
    for arr in (scatter, phases):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_plan_memo_skips_products_over_its_bound():
    red3 = reduce_theta(random_theta(3, np.random.default_rng(3)))
    rng = np.random.Generator(np.random.Philox(key=4))
    f = random_element(red3, LatticeBox(3, 4), rng)
    g = random_element(red3, LatticeBox(3, 2), rng)
    assert algebra._PLAN_MEMO_ENTRIES == 1 << 14
    assert f.box.cardinality * g.box.cardinality > algebra._PLAN_MEMO_ENTRIES
    algebra._plan_memo.cache_clear()
    twisted_convolve(f, g)
    assert algebra._plan_memo.cache_info().currsize == 0
    # 125 x 125 = 15,625 entries is within the bound
    twisted_convolve(g, g)
    assert algebra._plan_memo.cache_info().currsize == 1


def test_plan_memo_holds_at_most_16_plans(monkeypatch):
    # twenty thetas over one box pair: twenty plans, of which the memo
    # keeps the last 16, and every product is the one built without it
    rng = np.random.Generator(np.random.Philox(key=5))
    box = LatticeBox(2, 1)
    elements = []
    for _ in range(20):
        theta = reduce_theta(random_theta(2, rng))
        elements.append(random_element(theta, box, rng))
    algebra._plan_memo.cache_clear()
    memoised = [twisted_convolve(x, x).coeffs for x in elements + elements[:2]]
    info = algebra._plan_memo.cache_info()
    assert info.maxsize == 16
    assert info.misses == 22 and info.currsize == 16
    monkeypatch.setattr(algebra, "_product_plan", algebra._build_plan)
    for x, coeffs in zip(elements + elements[:2], memoised):
        assert np.array_equal(twisted_convolve(x, x).coeffs, coeffs)
