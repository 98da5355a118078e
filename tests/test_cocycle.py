import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nctorus
from nctorus.cocycle import (
    SKEW_TOLERANCE,
    ReducedTheta,
    ThetaMatrix,
    load_theta,
    phase_pairs,
    phase_table,
    random_theta,
    reduce_theta,
    sigma,
    theta_from_json,
    zero_theta,
)


def test_theta_matrix_accepts_skew():
    t = ThetaMatrix(np.array([[0.0, -0.3], [0.3, 0.0]]))
    assert t.d == 2


def test_theta_matrix_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        ThetaMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="reduced theta must be a square matrix"):
        ReducedTheta(np.zeros((2, 3)))


def test_theta_matrix_rejects_d1():
    with pytest.raises(ValueError, match=">= 2"):
        ThetaMatrix(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="reduced theta must have dimension >= 2"):
        ReducedTheta(np.zeros((1, 1)))


def test_theta_matrix_rejects_nonzero_diagonal():
    # the value prints as a Python float, not as numpy's repr
    bad = np.array([[1e-6, -0.3], [0.3, 0.0]])
    with pytest.raises(ValueError) as exc:
        ThetaMatrix(bad)
    assert str(exc.value) == "theta[0][0] = 1e-06 exceeds the diagonal tolerance 1e-12"


def test_theta_matrix_cites_skew_defect_entry():
    bad = np.array([[0.0, 0.25], [0.5, 0.0]])
    with pytest.raises(ValueError) as exc:
        ThetaMatrix(bad)
    assert str(exc.value) == (
        "theta[0][1] + theta[1][0] = 0.75 exceeds the skew-symmetry tolerance 1e-12"
    )


def test_reduced_theta_cites_nonzero_entry():
    with pytest.raises(ValueError) as exc:
        ReducedTheta(np.array([[0.0, 0.5], [0.0, 0.0]]))
    assert str(exc.value) == (
        "reduced theta must be strictly lower triangular, entry [0][1] = 0.5 is nonzero"
    )


def test_skew_tolerance_boundary():
    # defect below the tolerance passes, clearly above fails
    ThetaMatrix(np.array([[0.0, -0.3 + 0.5 * SKEW_TOLERANCE], [0.3, 0.0]]))
    with pytest.raises(ValueError):
        ThetaMatrix(np.array([[0.0, -0.3 + 3 * SKEW_TOLERANCE], [0.3, 0.0]]))


def test_theta_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="not finite"):
        ThetaMatrix(np.array([[0.0, np.inf], [-np.inf, 0.0]]))
    with pytest.raises(ValueError, match=r"reduced theta\[1\]\[0\] = nan is not finite"):
        ReducedTheta(np.array([[0.0, 0.0], [np.nan, 0.0]]))


def test_reduce_theta_strictly_lower(theta2):
    red = reduce_theta(theta2)
    assert np.array_equal(red.entries, np.tril(theta2.entries, k=-1))
    assert np.all(np.triu(red.entries) == 0)


def test_reduced_theta_rejects_upper_entries():
    with pytest.raises(ValueError, match="strictly lower"):
        ReducedTheta(np.array([[0.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="strictly lower"):
        ReducedTheta(np.array([[0.5, 0.0], [0.0, 0.0]]))


def test_sigma_quarter_turn(quarter):
    # lower-triangular twist 1/4: pairing (0,1) against (1,0) gives i
    assert sigma(quarter, (0, 1), (1, 0)) == pytest.approx(1j)
    assert sigma(quarter, (1, 0), (0, 1)) == pytest.approx(1.0)


def test_sigma_reproduces_full_commutation_phase(theta2):
    # sigma(m,n) / sigma(n,m) must equal the full-matrix phase
    red = reduce_theta(theta2)
    rng = np.random.Generator(np.random.Philox(key=5))
    for _ in range(20):
        m, n = rng.integers(-4, 5, size=(2, 2))
        ratio = sigma(red, m, n) / sigma(red, n, m)
        full = np.exp(2j * np.pi * float(m @ theta2.entries @ n))
        assert ratio == pytest.approx(full, abs=1e-12)


def test_sigma_dimension_mismatch(red2):
    with pytest.raises(ValueError, match="do not match"):
        sigma(red2, (1, 0, 0), (0, 1))


def test_phase_pairs_matches_sigma(red2):
    rng = np.random.Generator(np.random.Philox(key=6))
    left = rng.integers(-3, 4, size=(10, 2))
    right = rng.integers(-3, 4, size=(10, 2))
    batch = phase_pairs(red2.entries, left, right)
    for i in range(10):
        assert batch[i] == pytest.approx(sigma(red2, left[i], right[i]), abs=1e-14)


def test_phase_table_matches_pairs(red2):
    rng = np.random.Generator(np.random.Philox(key=7))
    left = rng.integers(-3, 4, size=(5, 2))
    right = rng.integers(-3, 4, size=(7, 2))
    table = phase_table(red2.entries, left, right)
    for i in range(5):
        row = phase_pairs(red2.entries, np.repeat(left[i][None], 7, axis=0), right)
        assert np.allclose(table[i], row, atol=1e-14)


def test_phases_unimodular_for_large_indices(red2):
    big = np.array([[10**7, -(10**7)]], dtype=np.int64)
    val = phase_pairs(red2.entries, big, big)
    assert abs(abs(val[0]) - 1.0) < 1e-13


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**31),
    vecs=st.lists(st.integers(-8, 8), min_size=6, max_size=6),
)
def test_cocycle_identity_property(seed, vecs):
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = reduce_theta(random_theta(2, rng))
    m, n, p = (np.array(vecs[i : i + 2]) for i in (0, 2, 4))
    lhs = sigma(theta, m, n) * sigma(theta, m + n, p)
    rhs = sigma(theta, n, p) * sigma(theta, m, n + p)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**31),
    vecs=st.lists(st.integers(-8, 8), min_size=6, max_size=6),
)
def test_bicharacter_property(seed, vecs):
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = reduce_theta(random_theta(2, rng))
    m, mp, n = (np.array(vecs[i : i + 2]) for i in (0, 2, 4))
    assert sigma(theta, m + mp, n) == pytest.approx(
        sigma(theta, m, n) * sigma(theta, mp, n), abs=1e-12
    )
    assert sigma(theta, m, mp + n) == pytest.approx(
        sigma(theta, m, mp) * sigma(theta, m, n), abs=1e-12
    )


def test_zero_theta_gives_trivial_phases():
    red = zero_theta(3)
    assert sigma(red, (1, 2, 3), (-4, 5, 0)) == pytest.approx(1.0)


def test_random_theta_is_skew(rng):
    t = random_theta(4, rng)
    assert np.allclose(t.entries + t.entries.T, 0.0)


# JSON-like values: what json.load can return, plus nan and inf
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=6,
)
_skew_rows = st.floats(-1, 1).map(lambda a: [[0.0, -a], [a, 0.0]])


@given(
    doc=st.fixed_dictionaries(
        {},
        optional={
            "d": st.sampled_from([2, 3]) | _json_values,
            "theta": _skew_rows | st.lists(st.lists(_json_values, max_size=3), max_size=3) | _json_values,
        },
    )
)
@example(doc={"d": 2, "theta": [[0, 10**400], [-(10**400), 0]]})
def test_theta_document_roundtrips_or_names_the_error(doc):
    try:
        theta = theta_from_json(doc)
    except ValueError:
        return
    again = theta_from_json(json.loads(json.dumps({"d": theta.d, "theta": theta.entries.tolist()})))
    assert again == theta


def test_theta_from_json_valid():
    t = theta_from_json({"d": 2, "theta": [[0.0, -0.5], [0.5, 0.0]]})
    assert t.entries[1, 0] == 0.5


def test_theta_from_json_missing_keys():
    with pytest.raises(ValueError, match="missing key 'd'"):
        theta_from_json({"theta": [[0.0]]})
    with pytest.raises(ValueError, match="missing key 'theta'"):
        theta_from_json({"d": 2})


def test_theta_from_json_row_count():
    with pytest.raises(ValueError, match="has 1 rows, expected 2"):
        theta_from_json({"d": 2, "theta": [[0.0, 0.0]]})
    # rows that are not a list name their type and claim no row count
    for rows, kind in (("x", "str"), (5, "int"), (None, "NoneType"), ({}, "dict")):
        with pytest.raises(ValueError, match=f"^'theta' must be a list of rows, got {kind}$"):
            theta_from_json({"d": 2, "theta": rows})


def test_theta_from_json_entry_count():
    with pytest.raises(ValueError, match=r"theta\[1\] has 1 entries, expected 2"):
        theta_from_json({"d": 2, "theta": [[0.0, 0.0], [0.0]]})
    for rows, j, kind in (([1, 2], 0, "int"), ([[0.0, 0.0], "ab"], 1, "str")):
        with pytest.raises(ValueError, match=rf"^theta\[{j}\] must be a list of entries, got {kind}$"):
            theta_from_json({"d": 2, "theta": rows})


def test_theta_from_json_cites_bad_entry():
    with pytest.raises(ValueError, match=r"theta\[0\]\[1\] must be a finite number, got 'x'"):
        theta_from_json({"d": 2, "theta": [[0.0, "x"], [0.0, 0.0]]})
    with pytest.raises(ValueError, match=r"theta\[0\]\[0\] must be a finite number, got True"):
        theta_from_json({"d": 2, "theta": [[True, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError, match=r"theta\[1\]\[0\] must be a finite number, got nan"):
        theta_from_json({"d": 2, "theta": [[0.0, 0.0], [float("nan"), 0.0]]})


def test_theta_from_json_bad_d():
    # one dimension rule for configs, theta files and critical_exponent
    with pytest.raises(ValueError, match="^dimension must be at least 2, got 1$"):
        theta_from_json({"d": 1, "theta": [[0.0]]})
    with pytest.raises(ValueError, match="^dimension must be at most 12, got 13$"):
        theta_from_json({"d": 13, "theta": [[0.0]]})
    with pytest.raises(ValueError, match="'d' must be an integer, got True"):
        theta_from_json({"d": True, "theta": [[0.0]]})
    # an integral float is the integer
    assert theta_from_json({"d": 2.0, "theta": [[0.0, -0.5], [0.5, 0.0]]}).d == 2


def test_load_theta_roundtrip(tmp_path, theta2):
    path = tmp_path / "theta.json"
    doc = {"d": 2, "theta": [[float(v) for v in row] for row in theta2.entries]}
    path.write_text(json.dumps(doc))
    loaded = load_theta(path)
    assert loaded == theta2


def test_theta_equality_and_hash(theta2):
    same = ThetaMatrix(theta2.entries.copy())
    assert same == theta2
    assert hash(same) == hash(theta2)
    assert ThetaMatrix(np.zeros((2, 2))) != theta2
    # equal entries compare equal only within one type
    assert ReducedTheta(np.zeros((2, 2))) == ReducedTheta(np.zeros((2, 2)))
    assert ThetaMatrix(np.zeros((2, 2))) != ReducedTheta(np.zeros((2, 2)))
    assert ReducedTheta(np.zeros((2, 2))) != ThetaMatrix(np.zeros((2, 2)))
    # a signed zero changes neither equality nor the hash
    signed = ReducedTheta(np.array([[-0.0, -0.0], [0.5, -0.0]]))
    plain = ReducedTheta(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert signed == plain and hash(signed) == hash(plain)
    assert signed == signed


def test_reduce_theta_hands_equal_thetas_one_object(theta2):
    # the phase memos keyed by a reduced theta then find it by identity
    red = reduce_theta(theta2)
    assert reduce_theta(ThetaMatrix(theta2.entries.copy())) is red
    assert reduce_theta(ThetaMatrix(-theta2.entries)) is not red
    assert reduce_theta(ThetaMatrix(-theta2.entries)) != red


def test_theta_hash_is_the_same_in_every_process(theta2):
    # the hash is taken once, on construction, so it must not depend on the
    # per-process seed of str and bytes hashes: a pickled theta keeps it
    src = os.path.dirname(os.path.dirname(os.path.abspath(nctorus.__file__)))
    code = "from nctorus.experiments import default_theta; print(hash(default_theta(2)))"
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == hash(theta2)
