import contextlib
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nctorus import algebra, experiments, kernels, schatten
from nctorus.algebra import TorusElement, twisted_convolve
from nctorus.cocycle import ThetaMatrix, diagonal_phases, phase_pairs, random_theta, reduce_theta
from nctorus.experiments import (
    DecayRecord,
    ExperimentConfig,
    FactorizationRecord,
    ScanRecord,
    default_theta,
    max_factor_error,
    run_factorization_check,
    run_potential_decay,
    run_property_suite,
    run_schwartz_bound,
    run_theorem_scan,
)
from nctorus.kernels import (
    NCKernel,
    SchwartzReport,
    bessel_kernel,
    identity_gaps,
    kernel_matrix,
    mixed_sobolev_norm,
    random_kernel,
    schwartz_coefficients,
)
from nctorus.lattice import (
    DECAY_GUARD_CARDINALITY,
    MAX_DIMENSION,
    MEMORY_GUARD_CARDINALITY,
    LatticeBox,
    _sum_squares,
)
from nctorus.multipliers import bessel_weights
from nctorus.records import to_csv, to_json
from nctorus.schatten import (
    SingularSpectrum,
    critical_exponent,
    schatten_norm,
    singular_values,
    weak_norm,
)


# ---------------------------------------------------------------------------
# config


# JSON-like values: what json.load can return, plus nan and inf
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=6,
)
_skew_rows = st.floats(-1, 1).map(lambda a: [[0.0, -a], [a, 0.0]])
# per key, a plausible value or any JSON-like value
_config_docs = st.fixed_dictionaries(
    {},
    optional={
        "d": st.sampled_from([2, 3, 2.0]) | _json_values,
        "theta": _skew_rows | st.lists(st.lists(_json_values, max_size=3), max_size=3) | _json_values,
        "N_grid": st.lists(st.integers(0, 30), max_size=4) | _json_values,
        "alpha1": st.floats(0, 3) | _json_values,
        "alpha2": st.floats(0, 3) | _json_values,
        "r_grid": st.lists(st.floats(0.1, 4), max_size=3) | _json_values,
        "s_margin": st.floats(0, 2) | _json_values,
        "seed": st.integers(0, 2**40) | _json_values,
        "s0": st.floats(2, 6) | _json_values,
    },
)


@given(doc=_config_docs | _json_values)
@example(doc={"theta": [[0, 10**400], [-(10**400), 0]]})
@example(doc=[])
def test_config_document_roundtrips_or_names_the_error(doc):
    try:
        cfg = ExperimentConfig.from_json(doc)
    except ValueError:
        return
    # the strict JSON text the CLI writes: an infinite r entry is the cell "inf"
    again = ExperimentConfig.from_json(json.loads(to_json(cfg.to_json())))
    assert again == cfg


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.d == 2
    assert cfg.N_grid == (4, 6, 8, 10)
    assert cfg.r_star == pytest.approx(critical_exponent(2, 1.0, 1.0))
    assert cfg.r_grid == (cfg.r_star * 1.1, 1.0, 2.0)
    assert cfg.s0 == 3.0
    assert cfg.envelope_exponents() == (2.5, 2.5)
    assert cfg.theta == default_theta(2)


def test_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError, match="at least 2"):
        ExperimentConfig(d=1)
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(N_grid=(4, 4))
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(N_grid=(6, 4))
    with pytest.raises(ValueError, match="nonempty"):
        ExperimentConfig(N_grid=())
    with pytest.raises(ValueError, match="^alpha1 must be nonnegative, got -1.0$"):
        ExperimentConfig(alpha1=-1.0)
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(r_grid=(1.0, 0.0))
    # an empty r grid is refused as an empty N grid is, not run to a bare header
    for empty in ((), []):
        with pytest.raises(ValueError, match=r"^r_grid must be nonempty, got \(\)$"):
            ExperimentConfig(r_grid=empty)
    with pytest.raises(ValueError, match=r"^r_grid must be nonempty, got \(\)$"):
        ExperimentConfig.from_json({"r_grid": []})
    # decay's potential order is a config field every config checks, by
    # the rule and the messages run_potential_decay keeps
    assert ExperimentConfig().alpha == 2.0 and type(ExperimentConfig(alpha=3).alpha) is float
    for bad in (0, -1.0, -0.0):
        with pytest.raises(ValueError, match=f"^potential order must be positive, got {bad}$"):
            ExperimentConfig(alpha=bad)
    for bad in (float("nan"), float("inf"), "2", None, True):
        with pytest.raises(ValueError, match="^alpha must be a finite number, got "):
            ExperimentConfig(alpha=bad)
    for bad in ({"a": 1}, "2", True, None, float("nan"), -1.0, float("-inf")):
        with pytest.raises(ValueError, match=r"r_grid entry must be a positive number, got "):
            ExperimentConfig(r_grid=(2.0, bad))
    in_range = "r_grid entry must be a positive number within the float range, got 10{400}$"
    with pytest.raises(ValueError, match=in_range):
        ExperimentConfig(r_grid=(2.0, 10**400))
    # inf is the operator norm; integers pass as floats
    cfg = ExperimentConfig(r_grid=[float("inf"), 2])
    assert cfg.r_grid == (float("inf"), 2.0)
    assert all(type(r) is float for r in cfg.r_grid)
    with pytest.raises(ValueError, match="dimension"):
        ExperimentConfig(d=3, theta=default_theta(2))
    with pytest.raises(ValueError, match="d must be an integer, got 2.7"):
        ExperimentConfig(d=2.7)
    with pytest.raises(ValueError, match="d must be an integer, got True"):
        ExperimentConfig(d=True)
    # refused by name before any (2N+1)^d is taken
    with pytest.raises(ValueError, match=f"^d must be at most {MAX_DIMENSION}, got {2**70}$"):
        ExperimentConfig(d=2**70)
    assert ExperimentConfig(d=MAX_DIMENSION).d == MAX_DIMENSION
    with pytest.raises(ValueError, match="N_grid entry must be an integer, got 4.5"):
        ExperimentConfig(N_grid=(4.5, 6))
    with pytest.raises(ValueError, match="N_grid must be a list"):
        ExperimentConfig(N_grid=4)
    with pytest.raises(ValueError, match="seed must be an integer"):
        ExperimentConfig(seed=1.5)
    # Philox keys are 128-bit; the seed is refused by name, not by numpy
    for bad in (-1, 2**128, 2**130):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*128\), got {bad}"):
            ExperimentConfig(seed=bad)
    assert ExperimentConfig(seed=2**128 - 1).seed == 2**128 - 1
    # an int too long to print is named by its bit length, not by a failed
    # conversion; one beyond the float range is refused as such
    huge = 10**5000
    for kw, rule in (
        ({"alpha1": huge}, "alpha1 must be a finite number within the float range"),
        ({"alpha2": -huge}, "alpha2 must be a finite number within the float range"),
        ({"s0": huge}, "s0 must be a finite number within the float range"),
        ({"r_grid": (huge,)}, "r_grid entry must be a positive number within the float range"),
        ({"seed": huge}, r"seed must be in \[0, 2\*\*128\)"),
        ({"seed": -huge}, r"seed must be in \[0, 2\*\*128\)"),
        ({"d": huge}, f"d must be at most {MAX_DIMENSION}"),
        ({"d": -huge}, "d must be at least 2"),
    ):
        with pytest.raises(ValueError, match=f"^{rule}, got an integer of 16610 bits$"):
            ExperimentConfig(**kw)
    for grid, rule in (((-huge,), "nonempty and nonnegative"), ((huge, 1), "strictly increasing")):
        with pytest.raises(ValueError, match=f"^N grid must be {rule}, got a tuple holding"):
            ExperimentConfig(N_grid=grid)
    for name in ("alpha1", "alpha2", "s_margin", "s0"):
        for bad in (float("nan"), float("inf"), float("-inf"), "1.0", None, 10**400):
            if name == "s0" and bad is None:
                continue  # s0 = None means the default d + 1
            with pytest.raises(ValueError, match=f"{name} must be a finite number"):
                ExperimentConfig(**{name: bad})
    # an integral float passes and is stored as an int
    cfg = ExperimentConfig(d=2.0, N_grid=(3.0, 5), seed=7.0)
    assert (cfg.d, cfg.N_grid, cfg.seed) == (2, (3, 5), 7)
    assert all(type(v) is int for v in (cfg.d, *cfg.N_grid, cfg.seed))
    # the command line reports the field, not a later numerical failure
    from nctorus.cli import main

    assert main(["scan", "--alpha1", "nan", "--n-grid", "2"]) == 2
    assert capsys.readouterr().err == "error: alpha1 must be a finite number, got nan\n"
    # a malformed r_grid in a config file is named, with no traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"r_grid": [{"a": 1}]}))
    assert main(["scan", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: r_grid entry must be a positive number, got {'a': 1}\n"
    assert main(["scan", "--r-grid", "nan", "--n-grid", "2"]) == 2
    assert capsys.readouterr().err == "error: r_grid entry must be a positive number, got nan\n"


def test_config_from_json_roundtrip():
    doc = {
        "d": 2,
        "alpha1": 0.5,
        "alpha2": 1.5,
        "N_grid": [3, 5],
        "r_grid": [0.8, 1.6],
        "s_margin": 0.25,
        "seed": 7,
    }
    cfg = ExperimentConfig.from_json(doc)
    assert cfg.alpha1 == 0.5 and cfg.alpha2 == 1.5
    assert cfg.N_grid == (3, 5)
    assert cfg.r_grid == (0.8, 1.6)
    assert cfg.seed == 7


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        ExperimentConfig.from_json({"alpha3": 1.0})
    # the values of known keys are never truncated or coerced
    with pytest.raises(ValueError, match="d must be an integer, got 2.7"):
        ExperimentConfig.from_json({"d": 2.7, "N_grid": [4, 6]})
    with pytest.raises(ValueError, match="N_grid entry must be an integer, got 4.5"):
        ExperimentConfig.from_json({"d": 2, "N_grid": [4.5, 6]})
    with pytest.raises(ValueError, match="alpha1 must be a finite number"):
        ExperimentConfig.from_json({"alpha1": float("nan")})
    with pytest.raises(ValueError, match="s0 must be a finite number"):
        ExperimentConfig.from_json({"s0": float("inf")})
    with pytest.raises(ValueError, match="alpha2 must be a finite number, got '1'"):
        ExperimentConfig.from_json({"alpha2": "1"})
    with pytest.raises(ValueError, match="theta has dimension 2, config has d=3"):
        ExperimentConfig.from_json({"d": 3, "theta": [[0.0, -0.25], [0.25, 0.0]]})


def test_config_from_json_reads_theta():
    doc = {"theta": [[0.0, -0.25], [0.25, 0.0]]}
    cfg = ExperimentConfig.from_json(doc)
    assert cfg.d == 2
    assert cfg.theta == ThetaMatrix([[0.0, -0.25], [0.25, 0.0]])
    # null takes the default for d, as it does for r_grid and s0
    assert ExperimentConfig.from_json({"theta": None}).theta == default_theta(2)
    assert ExperimentConfig.from_json({"theta": None, "d": 3}).theta == default_theta(3)
    # rows that are not a list claim no dimension; too few rows meet the dimension rule
    with pytest.raises(ValueError, match="^'theta' must be a list of rows, got int$"):
        ExperimentConfig.from_json({"theta": 5})
    with pytest.raises(ValueError, match="^theta row count must be at least 2, got 1$"):
        ExperimentConfig.from_json({"theta": [[0.0]]})


def test_config_from_json_never_reads_an_overridden_key():
    bad = {"d": 2.5, "N_grid": [5, 3], "alpha1": "x", "theta": 5}
    theta = ThetaMatrix([[0.0, -0.25], [0.25, 0.0]])
    cfg = ExperimentConfig.from_json(bad, d=2, N_grid=(1,), alpha1=0.5, theta=theta)
    assert (cfg.d, cfg.N_grid, cfg.alpha1, cfg.theta) == (2, (1,), 0.5, theta)
    # the rows give d unless an override does, and the config checks the two agree
    rows = {"theta": [[0.0, -0.25], [0.25, 0.0]]}
    with pytest.raises(ValueError, match="^theta has dimension 2, config has d=3$"):
        ExperimentConfig.from_json(rows, d=3)
    assert ExperimentConfig.from_json({"d": 3}, theta=theta, d=2).d == 2


def test_default_theta_structure():
    th = default_theta(3)
    assert th.d == 3
    assert th.entries[1, 0] == pytest.approx(0.7071067811865476)
    assert th.entries[0, 1] == pytest.approx(-0.7071067811865476)
    assert np.all(th.entries[2, :] == 0.0)


# ---------------------------------------------------------------------------
# property suite


def test_property_suite_passes_default():
    report = run_property_suite(seed=42, theta=default_theta(2))
    assert report.passed, report.failures
    assert len(report.checks) == 23
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))


def test_property_suite_passes_commutative_case():
    zero = ThetaMatrix(np.zeros((2, 2)))
    report = run_property_suite(seed=7, theta=zero)
    assert report.passed, report.failures


def test_property_suite_passes_d3():
    rng = np.random.default_rng(5)
    skew = rng.uniform(-0.4, 0.4, size=(3, 3))
    skew = skew - skew.T
    np.fill_diagonal(skew, 0.0)
    report = run_property_suite(seed=3, theta=ThetaMatrix(skew))
    assert report.passed, report.failures


def _absolute_exponent(matrix, left, right):
    exponent = np.einsum("id,de,ie->i", left, matrix, right)
    return np.exp(2j * np.pi * np.abs(exponent))


def _folded_plan(f):
    # the plan's phases folded onto the upper half circle: no longer a
    # bicharacter.  Patching the plan, not phase_table behind its memo,
    # reaches every product however warm the memo is.
    def plan(*args):
        box, scatter, phases = f(*args)
        return box, scatter, np.exp(1j * np.abs(np.angle(phases)))

    return plan


def _halved_spectrum(f):
    def spectrum(matrix):
        values = f(matrix).values.copy()
        values[(values.size + 1) // 2 :] = 0.0
        return SingularSpectrum(values)

    return spectrum


def _shrunk_lifted_norm(f):
    def extremes(*args):
        top, where, norm = f(*args)
        return top, where, 0.99 * norm

    return extremes


def _unconjugated_involution(f):
    # f#(m) = conj(sigma(m, -m)) f(-m): the coefficients keep their phase
    return lambda x: TorusElement(
        x.theta, x.box, np.conj(diagonal_phases(x.theta, x.box)) * x.coeffs[::-1]
    )


# (mutation, object patched, attribute, replacement of the original, checks it fails)
SUITE_MUTATIONS = [
    ("phase exponent without its sign", experiments, "phase_pairs",
     lambda f: _absolute_exponent, {"cocycle-bicharacter", "cocycle-identity"}),
    ("product reversed", experiments, "twisted_convolve",
     lambda f: lambda a, b: f(b, a), {"commutation-relation", "mult-matrix-consistency"}),
    ("product phases folded", algebra, "_product_plan", _folded_plan,
     {"algebra-associativity", "commutation-relation", "involution-antihomomorphism",
      "kernel-rank-one", "mult-matrix-consistency", "op-multiply-reversal",
      "plancherel-pairing"}),
    ("product doubled", experiments, "twisted_convolve",
     lambda f: lambda a, b: 2.0 * f(a, b),
     {"algebra-unit", "kernel-rank-one", "mult-matrix-consistency", "plancherel-pairing"}),
    ("trace reads the coefficient at (0, 1)", experiments, "trace",
     lambda f: lambda x: complex(x.coeffs[x.box.center_index() + 1]),
     {"kernel-rank-one", "trace-property", "plancherel-pairing"}),
    ("involution drops sigma(m, -m)", algebra, "diagonal_phases",
     lambda f: lambda theta, box: np.ones(box.cardinality, dtype=complex),
     {"involution-antihomomorphism", "plancherel-pairing"}),
    ("involution keeps the coefficients' phase", experiments, "involution",
     _unconjugated_involution,
     {"involution-antihomomorphism", "involution-involutive", "plancherel-pairing"}),
    ("inner product conjugated", experiments, "inner_product",
     lambda f: lambda x, y: f(y, x), {"plancherel-pairing"}),
    ("derivation shifted by the identity", experiments, "partial_derivative",
     lambda f: lambda x, j: f(x, j) + x, {"derivation-leibniz"}),
    ("Riesz weights of twice the order", experiments, "riesz_weights",
     lambda f: lambda alpha, box: f(2.0 * alpha, box), {"multiplier-algebra"}),
    ("multiplication matrix transposed", experiments, "mult_matrix",
     lambda f: lambda x, box: f(x, box).T, {"mult-matrix-consistency"}),
    ("reversed product not reversed", experiments, "op_multiply",
     lambda f: twisted_convolve, {"op-multiply-reversal"}),
    ("sigma(p, -p) conjugated in the kernel layer", kernels, "diagonal_phases",
     lambda f: lambda theta, box: np.conj(f(theta, box)), {"kernel-oracle", "kernel-rank-one"}),
    ("Schatten norm without its 1/p root", experiments, "schatten_norm",
     lambda f: lambda s, p: f(s, p) ** p, {"kernel-hs-identity", "schatten-exact"}),
    ("Schatten norm is the operator norm", experiments, "schatten_norm",
     lambda f: lambda s, p: f(s, math.inf), {"kernel-hs-identity", "schatten-exact"}),
    ("Schatten norm scaled by 0.9", experiments, "schatten_norm",
     lambda f: lambda s, p: 0.9 * f(s, p), {"kernel-hs-identity", "schatten-exact"}),
    ("Schatten norm scaled by 1.1", experiments, "schatten_norm",
     lambda f: lambda s, p: 1.1 * f(s, p), {"kernel-hs-identity", "schatten-exact"}),
    ("spectrum doubled", experiments, "singular_values",
     lambda f: lambda m: SingularSpectrum(2.0 * f(m).values),
     {"kernel-hs-identity", "schatten-exact"}),
    ("smaller half of the spectrum zeroed", experiments, "singular_values", _halved_spectrum,
     {"kernel-hs-identity", "schatten-exact"}),
    ("weak norm with exponent 1/p", experiments, "weak_norm",
     lambda f: lambda s, p: f(s, 1.0 / p), {"schatten-exact"}),
    ("kernel matrix without the negation", kernels, "_matrix_rows",
     lambda f: lambda rows, phases, out=None: np.multiply(rows, phases[None, :], out=out),
     {"adjoint-identity", "bessel-kernel-diagonal", "kernel-column-consistency"}),
    ("Bessel kernel carries sigma(n, -n), not its conjugate", experiments, "bessel_kernel",
     lambda f: lambda a, box, theta: NCKernel(theta, box, np.conj(f(a, box, theta).coeffs)),
     {"bessel-kernel-diagonal"}),
    ("lift drops the second leg's weight", kernels, "_lift_rows",
     lambda f: lambda rows, w1, w2, **out: f(rows, w1, np.ones_like(w2), **out),
     {"factorization", "schwartz-exact"}),
    ("flip-adjoint stars with sigma, not its conjugate", kernels, "_flip_cols",
     lambda f: lambda rows, star, cols, **out: f(rows, np.conj(star), np.conj(cols), **out),
     {"adjoint-identity"}),
    ("scalar times kernel conjugates the scalar", NCKernel, "__rmul__",
     lambda f: lambda k, c: f(k, np.conj(c)), {"kernel-linearity"}),
    ("lifted norm scaled by 0.99", kernels, "_lifted_extremes", _shrunk_lifted_norm,
     {"schwartz-exact"}),
]


def test_property_suite_negative_control(monkeypatch):
    # dropping the sign of the phase exponent breaks additivity in each
    # slot and the cocycle identity, and must be caught by exactly the
    # two cocycle checks
    def corrupted(matrix, left, right):
        exponent = np.einsum("id,de,ie->i", left, matrix, right)
        return np.exp(2j * np.pi * np.abs(exponent))

    monkeypatch.setattr(experiments, "phase_pairs", corrupted)
    report = run_property_suite(seed=42, theta=default_theta(2))
    assert not report.passed
    assert report.failures == ("cocycle-bicharacter", "cocycle-identity")


def test_every_suite_check_fails_under_a_mutation(monkeypatch):
    # every check the suite emits fails under some mutation of the code it
    # checks, and each mutation fails exactly the checks its row names
    clean = run_property_suite(seed=7, theta=default_theta(2))
    assert clean.passed, clean.failures
    assert set().union(*(row[-1] for row in SUITE_MUTATIONS)) == {c.name for c in clean.checks}
    wrong = []
    for label, target, attr, mutate, failing in SUITE_MUTATIONS:
        with monkeypatch.context() as patch:
            patch.setattr(target, attr, mutate(getattr(target, attr)))
            failures = set(run_property_suite(seed=7, theta=default_theta(2)).failures)
        if failures != failing:
            wrong.append((label, sorted(failures)))
    assert wrong == []


# the checks whose errors are aligned-coefficient gaps
COEFF_GAP_CHECKS = {
    "commutation-relation", "algebra-associativity", "algebra-unit",
    "involution-antihomomorphism", "involution-involutive", "derivation-leibniz",
    "multiplier-algebra", "kernel-oracle", "kernel-linearity", "kernel-rank-one",
}


def test_suite_nan_error_fails_its_check(monkeypatch):
    # a NaN among a check's errors is its error, wherever it is recorded
    monkeypatch.setattr(experiments, "_coeff_gap", lambda x, y: math.nan)
    report = run_property_suite(seed=7, theta=default_theta(2))
    assert not report.passed
    assert set(report.failures) == COEFF_GAP_CHECKS
    for check in report.checks:
        assert math.isnan(check.max_error) == (check.name in COEFF_GAP_CHECKS)
        assert check.line().startswith("FAIL") == (check.name in COEFF_GAP_CHECKS)


def test_suite_report_json_shape():
    report = run_property_suite(seed=1, theta=default_theta(2))
    doc = json.loads(to_json(report))
    assert set(doc) == {"passed", "checks"}
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(report.checks)
    first = doc["checks"][0]
    assert set(first) == {"name", "max_error", "tolerance", "passed"}


def test_check_line_format():
    report = run_property_suite(seed=2, theta=default_theta(2))
    line = report.checks[0].line()
    assert line.startswith("pass  ")
    assert "max error" in line and "tol" in line


# ---------------------------------------------------------------------------
# theorem scan


def test_scan_records_sorted_and_complete():
    cfg = ExperimentConfig(N_grid=(3, 4), r_grid=(2.0, 1.0))
    records = run_theorem_scan(cfg)
    assert [(rec.N, rec.r) for rec in records] == [
        (3, 1.0),
        (3, 2.0),
        (4, 1.0),
        (4, 2.0),
    ]
    for rec in records:
        assert rec.r_star == pytest.approx(cfg.r_star)
        assert rec.s_r_norm > 0 and rec.weak_r_norm > 0
        assert rec.sobolev_norm > 0 and rec.wall_ms >= 0


def test_scan_norms_monotone_in_box_size():
    cfg = ExperimentConfig(N_grid=(4, 6, 8), r_grid=(1.0,))
    records = run_theorem_scan(cfg)
    norms = [rec.s_r_norm for rec in records]
    assert norms == sorted(norms)


def test_scan_stabilizes_at_default_grid():
    cfg = ExperimentConfig()
    records = run_theorem_scan(cfg)
    by_r: dict = {}
    for rec in records:
        by_r.setdefault(rec.r, []).append(rec)
    for r, recs in by_r.items():
        last, prev = recs[-1].s_r_norm, recs[-2].s_r_norm
        assert abs(last - prev) / prev < 0.05, (r, prev, last)


def test_scan_alpha_zero_schatten2_equals_l2():
    from nctorus.kernels import random_kernel
    from nctorus.lattice import LatticeBox

    cfg = ExperimentConfig(alpha1=0.0, alpha2=0.0, N_grid=(4,), r_grid=(2.0,))
    assert cfg.r_star == pytest.approx(2.0)
    (rec,) = run_theorem_scan(cfg)
    s1, s2 = cfg.envelope_exponents()
    k = random_kernel(cfg.reduced, 4, s1, s2, cfg.seed)
    assert rec.s_r_norm == pytest.approx(k.l2_norm(), rel=1e-12)
    assert rec.r == rec.r_star


def test_scan_hilbert_schmidt_row_is_the_envelope_norm():
    # the drawn entries are unimodular times the envelope w1(m) w2(p), so
    # the S_2 row is sqrt(sum w1^2 * sum w2^2) whatever the draw, and S_2 has
    # no sampling spread.  The benchmark's Hilbert-Schmidt check reads the
    # draw; this one does not, so random moduli in kernels._draw_blocks
    # (say, block *= rng.random(block.shape)) fail it and pass that check
    box = LatticeBox(2, 6)
    for seed in range(1, 21):
        cfg = ExperimentConfig(N_grid=(6,), seed=seed)
        s1, s2 = cfg.envelope_exponents()
        want = math.sqrt(
            _sum_squares(bessel_weights(-s1, box)) * _sum_squares(bessel_weights(-s2, box))
        )
        (row,) = [rec for rec in run_theorem_scan(cfg) if rec.r == 2.0]
        assert row.s_r_norm == pytest.approx(want, rel=1e-13, abs=0), seed


def test_scan_record_at_the_threshold_holds_r_star_exactly():
    # the CLI's note at the critical exponent reads rec.r == rec.r_star
    cfg = ExperimentConfig(N_grid=(3,), r_grid=(1.0, critical_exponent(2, 1.0, 1.0)))
    records = run_theorem_scan(cfg)
    at = {rec.r: rec.r == rec.r_star for rec in records}
    assert at == {1.0: False, cfg.r_star: True}


def test_scan_memory_guard():
    with pytest.raises(ValueError, match="dense-matrix guard"):
        run_theorem_scan(ExperimentConfig(N_grid=(40,)))
    # (2*35+1)^2 = 5041 > 5000
    with pytest.raises(ValueError, match="5041"):
        run_theorem_scan(ExperimentConfig(N_grid=(35,)))


def test_scan_determinism():
    cfg = ExperimentConfig(N_grid=(3, 5), r_grid=(1.0,))
    a = run_theorem_scan(cfg)
    b = run_theorem_scan(cfg)
    for ra, rb in zip(a, b):
        assert ra.N == rb.N and ra.r == rb.r
        assert ra.s_r_norm == rb.s_r_norm
        assert ra.weak_r_norm == rb.weak_r_norm
        assert ra.sobolev_norm == rb.sobolev_norm


def _blas_threads():
    lib = schatten._openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


@contextlib.contextmanager
def _scan_reads_threads(count: int):
    """The scan reads count BLAS threads; the real count is restored after."""
    lib = schatten._openblas()
    if lib is None:
        pytest.skip("the scan runs serially without the bundled OpenBLAS")
    threads = lib.scipy_openblas_get_num_threads64_()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lib, "scipy_openblas_get_num_threads64_", lambda: count)
        try:
            yield
        finally:
            lib.scipy_openblas_set_num_threads64_(threads)


def test_scan_restores_the_blas_thread_count(monkeypatch):
    before = _blas_threads()
    run_theorem_scan(ExperimentConfig(N_grid=(2, 3, 4), r_grid=(1.0,)))
    assert _blas_threads() == before
    calls = []

    def failing(config, radius):
        calls.append(radius)
        if radius == 3:
            raise RuntimeError("grid point failed")
        return []

    monkeypatch.setattr(experiments, "_scan_one", failing)
    with pytest.raises(RuntimeError, match="grid point failed"):
        run_theorem_scan(ExperimentConfig(N_grid=(2, 3, 4), r_grid=(1.0,)))
    assert _blas_threads() == before
    assert 3 in calls


def test_scan_without_the_bundled_openblas(monkeypatch):
    # where numpy has no bundled OpenBLAS to bind, the scan runs one grid
    # point at a time through np.linalg.svd, on BLAS's own threads
    cfg = ExperimentConfig(N_grid=(2, 3, 4), r_grid=(2.0, 1.0))
    bundled = run_theorem_scan(cfg)
    before = _blas_threads()
    with monkeypatch.context() as patch:
        patch.setattr(schatten, "_openblas", lambda: None)
        fallback = run_theorem_scan(cfg)
    assert _blas_threads() == before
    assert [(r.N, r.r, r.sobolev_norm) for r in fallback] == [
        (r.N, r.r, r.sobolev_norm) for r in bundled
    ]
    for got, want in zip(fallback, bundled):
        assert got.s_r_norm == pytest.approx(want.s_r_norm, rel=1e-12)
        assert got.weak_r_norm == pytest.approx(want.weak_r_norm, rel=1e-12)


def test_scan_pool_runs_the_largest_box_first(monkeypatch):
    # the grid runs in two lanes, largest N first, so the two largest N
    # start first; the records come out sorted, and one lane gives the
    # same ones as two
    cfg = ExperimentConfig(N_grid=(2, 3, 4), r_grid=(2.0, 1.0))
    calls = []
    scan_one = experiments._scan_one

    def recorded(config, radius):
        calls.append(radius)
        return scan_one(config, radius)

    monkeypatch.setattr(experiments, "_scan_one", recorded)
    with _scan_reads_threads(2):
        pooled = run_theorem_scan(cfg)
    assert sorted(calls[:2]) == [3, 4] and sorted(calls) == [2, 3, 4]
    assert [(rec.N, rec.r) for rec in pooled] == [(n, r) for n in (2, 3, 4) for r in (1.0, 2.0)]
    with _scan_reads_threads(1):
        serial = run_theorem_scan(cfg)
    assert [(r.s_r_norm, r.weak_r_norm, r.sobolev_norm) for r in pooled] == [
        (r.s_r_norm, r.weak_r_norm, r.sobolev_norm) for r in serial
    ]


def test_concurrent_scans_restore_the_blas_thread_count():
    # two scans at once in one process: the second pin waits for the
    # first, so neither restores the other's pinned count of one
    from concurrent.futures import ThreadPoolExecutor

    before = _blas_threads()
    cfg = ExperimentConfig(N_grid=(2, 3), r_grid=(1.0,))
    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(run_theorem_scan, cfg) for _ in range(8)]
        results = [
            [(r.N, r.r, r.s_r_norm, r.weak_r_norm, r.sobolev_norm) for r in run.result(120)]
            for run in runs
        ]
    assert all(result == results[0] for result in results)
    assert _blas_threads() == before


def test_scan_failure_cancels_the_queued_grid_points(monkeypatch):
    # N=5 fails at once in one lane while N=4 holds the other, so neither
    # N=3 nor N=2 ever starts
    calls = []

    def failing(config, radius):
        calls.append(radius)
        if radius == 5:
            raise RuntimeError("grid point failed")
        time.sleep(0.5)
        return []

    monkeypatch.setattr(experiments, "_scan_one", failing)
    with _scan_reads_threads(2), pytest.raises(RuntimeError, match="grid point failed"):
        run_theorem_scan(ExperimentConfig(N_grid=(2, 3, 4, 5), r_grid=(1.0,)))
    assert set(calls) <= {4, 5}


@pytest.mark.parametrize("width", [1, 2])
def test_scan_keeps_the_callers_error_state(width):
    # every lane runs in the caller's context: the draw underflows at these
    # orders, and under np.errstate(under="raise") the scan raises as factor does
    cfg = ExperimentConfig(alpha1=150.0, alpha2=150.0, N_grid=(6, 8))
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError, match="underflow"):
            run_factorization_check(cfg)
        with _scan_reads_threads(width), pytest.raises(FloatingPointError, match="underflow"):
            run_theorem_scan(cfg)


def test_scan_csv_layout():
    cfg = ExperimentConfig(N_grid=(3,), r_grid=(1.0,))
    records = run_theorem_scan(cfg)
    text = to_csv(ScanRecord, records)
    lines = text.strip().split("\n")
    assert lines[0] == "N,r,r_star,s_r_norm,weak_r_norm,sobolev_norm,wall_ms"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "3"
    assert float(cells[1]) == 1.0
    # %.17g reproduces doubles exactly
    assert float(cells[3]) == records[0].s_r_norm


def test_scan_json_layout():
    cfg = ExperimentConfig(N_grid=(3,), r_grid=(1.0, cfg_r_star := critical_exponent(2, 1.0, 1.0)))
    records = run_theorem_scan(cfg)
    doc = json.loads(to_json({"records": records}))
    assert len(doc["records"]) == 2
    assert doc["records"][0]["r"] == doc["records"][0]["r_star"] == cfg_r_star
    # a scan record has no JSON-only field: its JSON keys are its CSV columns
    assert ",".join(doc["records"][0]) == to_csv(ScanRecord, records).split("\n")[0]


# ---------------------------------------------------------------------------
# potential decay


def test_decay_reference_slope():
    records = run_potential_decay(2, 2.0, (20,))
    (rec,) = records
    assert rec.p == pytest.approx(1.0)
    assert abs(rec.slope - (-1.0)) < 0.1
    assert rec.residual < 0.1
    assert rec.weak_norm == pytest.approx(3.5, rel=1e-12)


def test_decay_weak_norm_stable_in_n():
    records = run_potential_decay(2, 2.0, (20, 40))
    w20, w40 = records[0].weak_norm, records[1].weak_norm
    assert abs(w40 - w20) / w20 < 0.2


def test_decay_large_box_no_guard():
    # diagonal spectra skip the SVD, so boxes beyond the dense guard are fine
    records = run_potential_decay(2, 2.0, (40,))
    assert (2 * 40 + 1) ** 2 > MEMORY_GUARD_CARDINALITY
    assert records[0].N == 40


def test_potential_spectrum_is_the_sorted_bessel_weights():
    # a shell's weight has the bits of each of its points' weights
    for d, radius, alpha in ((2, 7, 2.0), (3, 4, 1.3), (5, 2, 0.7), (2, 30, 700.0)):
        box = LatticeBox(d, radius)
        spectrum = experiments._potential_spectrum(box, alpha)
        assert len(spectrum) == box.cardinality
        expected = np.sort(bessel_weights(-alpha, box))[::-1]
        assert np.array_equal(spectrum.window(0, box.cardinality - 1), expected)


def test_decay_point_count_guard():
    # the benchmark's largest decay box passes
    assert (2 * 160 + 1) ** 2 <= DECAY_GUARD_CARDINALITY
    with pytest.raises(ValueError, match="exceeds the point-count guard"):
        run_potential_decay(3, 2.0, (1, 60))
    with pytest.raises(ValueError, match="^d must be at most 12, got "):
        run_potential_decay(2**70, 2.0, (1,))


def test_decay_grid_entries_must_be_integers():
    # a fractional or string radius is refused by name, not truncated or parsed
    for grid, bad in (([10.7, 20], "10.7"), ([3, "4"], "'4'")):
        with pytest.raises(ValueError, match=f"N_grid entry must be an integer, got {bad}"):
            run_potential_decay(2, 2.0, grid)


def test_decay_rejects_nonpositive_alpha():
    with pytest.raises(ValueError, match="positive"):
        run_potential_decay(2, 0.0, (10,))
    # non-finite orders are refused before any symbol is evaluated
    for bad in (float("inf"), float("nan")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha must be a finite number"):
                run_potential_decay(2, bad, (4,))


def test_decay_csv_layout():
    records = run_potential_decay(2, 1.0, (8,))
    text = to_csv(DecayRecord, records)
    lines = text.strip().split("\n")
    assert lines[0] == "N,p,weak_norm,slope,residual,s_p_norm"
    assert lines[1].split(",")[0] == "8"


# ---------------------------------------------------------------------------
# factorization


def test_factorization_errors_tiny():
    cfg = ExperimentConfig(N_grid=(3, 4))
    records = run_factorization_check(cfg)
    assert max_factor_error(records) <= 1e-12
    # the config's pair plus three random ones, per box size
    assert len(records) == 8
    assert {rec.N for rec in records} == {3, 4}
    assert sum((rec.alpha1, rec.alpha2) == (1.0, 1.0) for rec in records) == 2


def test_max_factor_error_propagates_nan():
    def rec(factor, adjoint):
        return FactorizationRecord(N=2, alpha1=1.0, alpha2=1.0, factor_error=factor,
                                   adjoint_error=adjoint)

    assert max_factor_error([rec(1e-17, 2e-17), rec(3e-17, 1e-17)]) == 3e-17
    for where in range(4):
        gaps = [1e-17, 2e-17, 3e-17, 1e-17]
        gaps[where] = math.nan
        records = [rec(*gaps[:2]), rec(*gaps[2:])]
        assert math.isnan(max_factor_error(records))


def test_factorization_sorted_and_csv():
    cfg = ExperimentConfig(N_grid=(3,))
    records = run_factorization_check(cfg)
    keys = [(rec.N, rec.alpha1, rec.alpha2) for rec in records]
    assert keys == sorted(keys)
    text = to_csv(FactorizationRecord, records)
    assert text.startswith("N,alpha1,alpha2,factor_error,adjoint_error\n")


def test_factorization_guard():
    with pytest.raises(ValueError, match="dense-matrix guard"):
        run_factorization_check(ExperimentConfig(N_grid=(50,)))


def test_grid_guard_names_the_largest_box():
    # the grid is increasing, so its last radius decides; (2*40+1)^2 = 6561
    cfg = ExperimentConfig(N_grid=(2, 35, 40))
    for runner in (run_theorem_scan, run_factorization_check, run_schwartz_bound):
        with pytest.raises(ValueError, match=r"= 6561 exceeds the dense-matrix guard"):
            runner(cfg)


# ---------------------------------------------------------------------------
# Schwartz bound


def test_schwartz_run_passes():
    cfg = ExperimentConfig(N_grid=(4, 6))
    result = run_schwartz_bound(cfg)
    assert result.radius == 6
    assert result.s0 == 3.0
    assert result.passed
    assert result.worst_ratio <= 1.0 + 1e-10
    assert result.lifted_norm > 0


def test_schwartz_custom_s0():
    cfg = ExperimentConfig(N_grid=(4,), s0=4.5)
    result = run_schwartz_bound(cfg)
    assert result.s0 == 4.5
    assert result.passed


def test_schwartz_json_and_csv():
    cfg = ExperimentConfig(N_grid=(4,))
    result = run_schwartz_bound(cfg)
    doc = json.loads(to_json(result))
    assert doc["passed"] is True
    assert doc["s0"] == 3.0
    assert len(doc["worst_index"]) == 2
    # the coefficient arrays stay out of both formats
    assert not {"magnitudes", "bounds", "ratios"} & set(doc)
    text = to_csv(SchwartzReport, [result])
    assert text.startswith("radius,s0,alpha1,alpha2,worst_ratio,lifted_norm,passed\n")
    assert text.strip().split("\n")[1].endswith("true")


def test_schwartz_guard():
    with pytest.raises(ValueError, match="dense-matrix guard"):
        run_schwartz_bound(ExperimentConfig(N_grid=(40,)))


def test_schwartz_tolerance_is_not_an_argument():
    kw = dict(radius=1, s0=3.0, alpha1=1.0, alpha2=1.0, worst_ratio=0.5,
              worst_index=((0, 0), (0, 0)), lifted_norm=1.0)
    assert SchwartzReport(**kw).tolerance == 1e-10
    with pytest.raises(TypeError, match="tolerance"):
        SchwartzReport(**kw, tolerance=1e-3)


# ---------------------------------------------------------------------------
# the kernel under test


def test_runners_read_the_kernel_source(monkeypatch):
    # with the Bessel kernel substituted, whose matrix is the diagonal of
    # Bessel weights, every kernel runner reports on that kernel
    alpha = 1.5

    def bessel(config, radius):
        return bessel_kernel(alpha, LatticeBox(config.d, radius), config.reduced)

    monkeypatch.setattr(experiments, "kernel_source", bessel)
    config = ExperimentConfig(N_grid=(2, 3), r_grid=(0.8, 2.0, 5.0))
    for rec in run_theorem_scan(config):
        k = bessel(config, rec.N)
        weights = np.sort(bessel_weights(-alpha, k.box))[::-1]
        expected = np.sum(weights**rec.r) ** (1.0 / rec.r)
        assert rec.s_r_norm == pytest.approx(expected, rel=1e-12)
        assert rec.sobolev_norm == mixed_sobolev_norm(k, config.alpha1, config.alpha2)
    for rec in run_factorization_check(config):
        adjoint, (factor,) = identity_gaps(bessel(config, rec.N), [(rec.alpha1, rec.alpha2)])
        assert (rec.adjoint_error, rec.factor_error) == (adjoint, factor)
    expected = schwartz_coefficients(bessel(config, 3), 1.0, 1.0, 3.0)
    assert run_schwartz_bound(config) == expected


# boxes of several row blocks whose last block is short (441 = 11 * 37 + 34
# rows, 343 = 7 * 47 + 14)
_STREAMED_RUNNER_BOXES = ((2, 10), (3, 3))


@pytest.mark.parametrize("d, radius", _STREAMED_RUNNER_BOXES)
def test_streamed_runners_match_the_held_kernel(monkeypatch, d, radius):
    # the runners reduce the draw as it is made; each number they report
    # is bit for bit that of the same kernel drawn whole and held
    blocks = list(kernels._row_blocks(LatticeBox(d, radius).cardinality))
    assert len({b.stop - b.start for b in blocks}) == 2
    config = ExperimentConfig(d=d, N_grid=(radius,), seed=13, alpha1=0.7, alpha2=1.4)
    k = random_kernel(config.reduced, radius, *config.envelope_exponents(), config.seed)
    for rec in run_factorization_check(config):
        adjoint, (factor,) = identity_gaps(k, [(rec.alpha1, rec.alpha2)])
        assert (rec.adjoint_error, rec.factor_error) == (adjoint, factor)
    assert run_schwartz_bound(config) == schwartz_coefficients(
        k, config.alpha1, config.alpha2, config.s0
    )
    matrices = []

    def kept(matrix, overwrite=False):
        matrices.append(matrix.copy())
        return singular_values(matrix, overwrite)

    monkeypatch.setattr(experiments, "singular_values", kept)
    records = run_theorem_scan(config)
    (matrix,) = matrices
    assert np.array_equal(matrix, kernel_matrix(k).T)  # the scan's SVD takes the transpose
    # the scan takes its SVDs at one BLAS thread where it can pin one
    with schatten._one_blas_thread():
        spectrum = singular_values(kernel_matrix(k).T)
    for rec in records:
        assert rec.sobolev_norm == mixed_sobolev_norm(k, config.alpha1, config.alpha2)
        assert rec.s_r_norm == schatten_norm(spectrum, rec.r)
        assert rec.weak_r_norm == weak_norm(spectrum, rec.r)


def test_scan_spectrum_matches_the_kernel_matrix(monkeypatch):
    # the scan hands its matrix, kernel_matrix(k), to the SVD as its
    # transpose: a writeable Fortran-ordered view the SVD may overwrite,
    # so nothing is copied.  The spectrum matches kernel_matrix(k)'s to
    # rounding: through np.linalg.svd at n = 361 and through the
    # two-stage reduction at n = 441
    config = ExperimentConfig(d=2, N_grid=(9, 10), seed=5)
    held = {
        LatticeBox(2, radius).cardinality: random_kernel(
            config.reduced, radius, *config.envelope_exponents(), config.seed
        )
        for radius in config.N_grid
    }
    assembled, spectra = {}, {}

    def assembling(k, matrix):
        assembled[matrix.shape[0]] = matrix
        return kernels._assembling(k, matrix)

    def kept(matrix, overwrite=False):
        assert overwrite and matrix.base is assembled[matrix.shape[0]]
        assert matrix.flags.writeable and matrix.flags.f_contiguous
        assert np.array_equal(matrix.T, kernel_matrix(held[matrix.shape[0]]))
        spectrum = singular_values(matrix, overwrite)
        spectra[matrix.shape[0]] = spectrum.values
        return spectrum

    monkeypatch.setattr(experiments, "_assembling", assembling)
    monkeypatch.setattr(experiments, "singular_values", kept)
    run_theorem_scan(config)
    assert sorted(spectra) == [361, 441] and 361 < schatten._TWO_STAGE_MIN <= 441
    for k in held.values():
        expected = singular_values(kernel_matrix(k)).values
        got = spectra[k.box.cardinality]
        assert np.max(np.abs(got - expected)) <= 1e-13 * expected[0]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_runners_never_hold_the_coefficients():
    # tracemalloc sees numpy's allocations; a runner holding the n x n
    # coefficients (16 B per entry) would peak far above these bounds
    n = LatticeBox(2, 20).cardinality
    peak = _traced_peak(lambda: run_schwartz_bound(ExperimentConfig(N_grid=(20,))))
    assert peak < n * n * 16 / 4, f"schwartz peaked at {peak / 2**20:.1f} MiB"
    n = LatticeBox(2, 16).cardinality
    peak = _traced_peak(lambda: run_factorization_check(ExperimentConfig(N_grid=(12, 16))))
    assert peak < n * n * 16 / 2, f"factor peaked at {peak / 2**20:.1f} MiB"


def test_decay_holds_no_per_point_table():
    # decay holds its box's shells and its fit window, 45% of the points;
    # a weight per point and its sort peaked at 57 B per point at d = 2 and
    # 65 at d = 3
    for d, radius in ((2, 160), (3, 20)):
        n = LatticeBox(d, radius).cardinality
        peak = _traced_peak(lambda: run_potential_decay(d, 2.0, (radius,)))
        assert peak < 24 * n, f"decay at d={d} peaked at {peak / n:.1f} B per point"


def test_unitary_diagonal_is_exact_phase(rng):
    # the diagonal is unimodular and the same bit for bit in either order
    # of the pair (p, -p)
    for d, radius in ((2, 35), (3, 6), (5, 2)):
        red = reduce_theta(random_theta(d, rng))
        box = LatticeBox(d, radius)
        pts = box.enumerate()
        diag = diagonal_phases(red, box)
        assert np.array_equal(diag, phase_pairs(red.entries, pts, -pts))
        assert np.array_equal(diag, phase_pairs(red.entries, -pts, pts))
        assert np.allclose(np.abs(diag), 1.0, atol=1e-14)
