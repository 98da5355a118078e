import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nctorus import experiments
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
    SchwartzReport,
    adjoint_gap,
    bessel_kernel,
    factorization_gap,
    mixed_sobolev_norm,
    schwartz_coefficients,
)
from nctorus.lattice import (
    DECAY_GUARD_CARDINALITY,
    MAX_DIMENSION,
    MEMORY_GUARD_CARDINALITY,
    LatticeBox,
)
from nctorus.multipliers import bessel_weights
from nctorus.records import to_csv, to_json
from nctorus.schatten import critical_exponent


# ---------------------------------------------------------------------------
# config


# JSON-like values: what json.load can return, plus nan and inf
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=6,
)
# per key, a plausible value or any JSON-like value
_config_docs = st.fixed_dictionaries(
    {},
    optional={
        "d": st.sampled_from([2, 3, 2.0]) | _json_values,
        "theta": st.just([[0.0, -0.5], [0.5, 0.0]]) | _json_values,
        "N_grid": st.lists(st.integers(0, 30), max_size=4) | _json_values,
        "alpha1": st.floats(0, 3) | _json_values,
        "alpha2": st.floats(0, 3) | _json_values,
        "r_grid": st.lists(st.floats(0.1, 4), max_size=3) | _json_values,
        "s_margin": st.floats(0, 2) | _json_values,
        "seed": st.integers(0, 2**40) | _json_values,
        "s0": st.floats(2, 6) | _json_values,
        "out": st.just("rows.csv") | _json_values,
        "format": st.sampled_from(["csv", "json"]) | _json_values,
    },
)


def _config_doc(cfg: ExperimentConfig) -> dict:
    """The JSON document a config would be written as."""
    doc = {
        "d": cfg.d,
        "N_grid": list(cfg.N_grid),
        "alpha1": cfg.alpha1,
        "alpha2": cfg.alpha2,
        "s_margin": cfg.s_margin,
        "seed": cfg.seed,
        "s0": cfg.s0,
        "out": cfg.out,
        "format": cfg.fmt,
    }
    if cfg.theta is not None:
        doc["theta"] = cfg.theta.entries.tolist()
    if cfg.r_grid is not None:
        doc["r_grid"] = list(cfg.r_grid)
    return doc


@given(doc=_config_docs | _json_values)
@example(doc={"theta": [[0, 10**400], [-(10**400), 0]]})
@example(doc=[])
def test_config_document_roundtrips_or_names_the_error(doc):
    try:
        cfg = ExperimentConfig.from_json(doc)
    except ValueError:
        return
    again = ExperimentConfig.from_json(json.loads(json.dumps(_config_doc(cfg))))
    assert again == cfg


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.d == 2
    assert cfg.N_grid == (4, 6, 8, 10)
    assert cfg.r_star == pytest.approx(critical_exponent(2, 1.0, 1.0))
    assert cfg.resolved_r_grid == (cfg.r_star * 1.1, 1.0, 2.0)
    assert cfg.resolved_s0 == 3.0
    assert cfg.envelope_exponents() == (2.5, 2.5)
    assert cfg.resolved_theta == default_theta(2)


def test_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError, match="at least 2"):
        ExperimentConfig(d=1)
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(N_grid=(4, 4))
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(N_grid=(6, 4))
    with pytest.raises(ValueError, match="nonempty"):
        ExperimentConfig(N_grid=())
    with pytest.raises(ValueError, match="nonnegative"):
        ExperimentConfig(alpha1=-1.0)
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(r_grid=(1.0, 0.0))
    for bad in ({"a": 1}, "2", True, None, float("nan"), -1.0, float("-inf"), 10**400):
        with pytest.raises(ValueError, match=r"r_grid entry must be a positive number, got "):
            ExperimentConfig(r_grid=(2.0, bad))
    # inf is the operator norm; integers pass as floats
    cfg = ExperimentConfig(r_grid=[float("inf"), 2])
    assert cfg.r_grid == (float("inf"), 2.0)
    assert all(type(r) is float for r in cfg.r_grid)
    with pytest.raises(ValueError, match="format"):
        ExperimentConfig(fmt="xml")
    with pytest.raises(ValueError, match="dimension"):
        ExperimentConfig(d=3, theta=default_theta(2))
    with pytest.raises(ValueError, match="d must be an integer, got 2.7"):
        ExperimentConfig(d=2.7)
    with pytest.raises(ValueError, match="d must be an integer, got True"):
        ExperimentConfig(d=True)
    # refused by name before any (2N+1)^d is taken
    with pytest.raises(ValueError, match=f"dimension must be at most {MAX_DIMENSION}, got {2**70}"):
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
    with pytest.raises(ValueError, match="out must be a path string"):
        ExperimentConfig(out=7)
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
        "format": "json",
    }
    cfg = ExperimentConfig.from_json(doc)
    assert cfg.alpha1 == 0.5 and cfg.alpha2 == 1.5
    assert cfg.N_grid == (3, 5)
    assert cfg.r_grid == (0.8, 1.6)
    assert cfg.seed == 7
    assert cfg.fmt == "json"


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
    with pytest.raises(ValueError, match="theta has dimension 2, config says d=3"):
        ExperimentConfig.from_json({"d": 3, "theta": [[0.0, -0.25], [0.25, 0.0]]})


def test_config_from_json_reads_theta():
    doc = {"theta": [[0.0, -0.25], [0.25, 0.0]]}
    cfg = ExperimentConfig.from_json(doc)
    assert cfg.d == 2
    assert cfg.resolved_theta == ThetaMatrix([[0.0, -0.25], [0.25, 0.0]])


def test_default_theta_structure():
    th = default_theta(3)
    assert th.d == 3
    assert th.entries[1, 0] == pytest.approx(0.7071067811865476)
    assert th.entries[0, 1] == pytest.approx(-0.7071067811865476)
    assert np.all(th.entries[2, :] == 0.0)


# ---------------------------------------------------------------------------
# property suite


def test_property_suite_passes_default():
    report = run_property_suite(seed=42)
    assert report.passed, report.failures
    assert len(report.checks) == 25
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


def test_property_suite_negative_control(monkeypatch):
    # dropping the sign of the phase exponent breaks additivity in each
    # slot and the cocycle identity, and must be caught by exactly the
    # two cocycle checks
    def corrupted(matrix, left, right):
        exponent = np.einsum("id,de,ie->i", left, matrix, right)
        return np.exp(2j * np.pi * np.abs(exponent))

    monkeypatch.setattr(experiments, "phase_pairs", corrupted)
    report = run_property_suite(seed=42)
    assert not report.passed
    assert report.failures == ("cocycle-bicharacter", "cocycle-identity")


def test_suite_report_json_shape():
    report = run_property_suite(seed=1)
    doc = json.loads(to_json(report))
    assert set(doc) == {"passed", "checks"}
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(report.checks)
    first = doc["checks"][0]
    assert set(first) == {"name", "max_error", "tolerance", "passed"}


def test_check_line_format():
    report = run_property_suite(seed=2)
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
    assert rec.at_threshold is True


def test_scan_at_threshold_flag():
    cfg = ExperimentConfig(N_grid=(3,), r_grid=(1.0, critical_exponent(2, 1.0, 1.0)))
    records = run_theorem_scan(cfg)
    flags = {rec.r: rec.at_threshold for rec in records}
    assert flags[1.0] is False
    assert flags[cfg.r_star] is True


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
    doc = json.loads(to_json({"d": cfg.d, "seed": cfg.seed, "records": records}))
    assert doc["d"] == 2 and doc["seed"] == 42
    assert len(doc["records"]) == 2
    assert doc["records"][0]["r"] == pytest.approx(cfg_r_star)
    assert doc["records"][0]["at_threshold"] is True
    # at_threshold is a JSON-only field
    assert "at_threshold" not in to_csv(ScanRecord, records)


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


def test_decay_point_count_guard():
    # the benchmark's largest decay box passes
    assert (2 * 160 + 1) ** 2 <= DECAY_GUARD_CARDINALITY
    with pytest.raises(ValueError, match="exceeds the point-count guard"):
        run_potential_decay(3, 2.0, (1, 60))
    with pytest.raises(ValueError, match="dimension must be at most"):
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
    # two fixed pairs plus three random ones, per box size
    assert len(records) == 10
    assert {rec.N for rec in records} == {3, 4}
    assert any(rec.alpha1 == 0.0 and rec.alpha2 == 0.0 for rec in records)


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


# ---------------------------------------------------------------------------
# the kernel under test


def test_runners_read_the_kernel_source(monkeypatch):
    # with the Bessel kernel substituted, whose matrix is the diagonal of
    # Bessel weights, every kernel runner reports on that kernel
    alpha = 1.5

    def bessel_source(config, radius):
        return bessel_kernel(alpha, LatticeBox(config.d, radius), config.reduced)

    monkeypatch.setattr(experiments, "kernel_source", bessel_source)
    config = ExperimentConfig(N_grid=(2, 3), r_grid=(0.8, 2.0, 5.0))
    for rec in run_theorem_scan(config):
        k = bessel_source(config, rec.N)
        weights = np.sort(bessel_weights(-alpha, k.box1))[::-1]
        expected = np.sum(weights**rec.r) ** (1.0 / rec.r)
        assert rec.s_r_norm == pytest.approx(expected, rel=1e-12)
        assert rec.sobolev_norm == mixed_sobolev_norm(k, config.alpha1, config.alpha2)
    for rec in run_factorization_check(config):
        k = bessel_source(config, rec.N)
        assert rec.adjoint_error == adjoint_gap(k)
        assert rec.factor_error == factorization_gap(k, rec.alpha1, rec.alpha2)
    expected = schwartz_coefficients(bessel_source(config, 3), 1.0, 1.0, 3.0)
    assert run_schwartz_bound(config) == expected


def test_unitary_diagonal_is_exact_phase(rng):
    # sanity anchor for the suite's unitary-invariance check; the diagonal
    # is the same bit for bit in either order of the pair (p, -p)
    for d, radius in ((2, 35), (3, 6), (5, 2)):
        red = reduce_theta(random_theta(d, rng))
        box = LatticeBox(d, radius)
        pts = box.enumerate()
        diag = diagonal_phases(red, box)
        assert np.array_equal(diag, phase_pairs(red.entries, pts, -pts))
        assert np.array_equal(diag, phase_pairs(red.entries, -pts, pts))
        assert np.allclose(np.abs(diag), 1.0, atol=1e-14)
