import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nctorus
from nctorus import schatten
from nctorus.cli import build_parser, main
from nctorus.experiments import ExperimentConfig
from test_golden import _without_wall_ms


def test_suite_passes(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[-1] == "all checks passed"
    assert sum(1 for line in lines if line.startswith("pass  ")) == len(SUITE_CHECKS)


def test_suite_json(capsys):
    assert main(["suite", "--format", "json", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(SUITE_CHECKS)


def test_scan_default_csv(capsys):
    assert main(["scan"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "N,r,r_star,s_r_norm,weak_r_norm,sobolev_norm,wall_ms"
    assert len(lines) == 1 + 4 * 3  # four radii, three exponents
    assert captured.err == ""  # default grid avoids the critical exponent


def test_scan_threshold_note(capsys):
    code = main(
        ["scan", "--alpha1", "0.5", "--alpha2", "0.5", "--n-grid", "3", "--r-grid", "1.0,2.0"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "critical exponent" in captured.err
    assert "recorded, not asserted" in captured.err


def test_scan_out_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    assert main(["scan", "--n-grid", "3,4", "--r-grid", "1.0", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    lines = target.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "3"


def test_scan_json_format(capsys):
    assert main(["scan", "--n-grid", "3", "--r-grid", "1.0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 42
    assert len(doc["records"]) == 1
    assert doc["records"][0]["N"] == 3


def test_scan_deterministic_modulo_walltime(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--n-grid", "3,4", "--r-grid", "1.0,2.0"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert _without_wall_ms(a.read_text(), "csv") == _without_wall_ms(b.read_text(), "csv")


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"alpha1": 0.5, "alpha2": 0.5, "N_grid": [3], "r_grid": [1.0], "seed": 7})
    )
    assert main(["scan", "--config", str(config)]) == 0
    base = capsys.readouterr().out
    assert main(["scan", "--config", str(config), "--seed", "9"]) == 0
    overridden = capsys.readouterr().out
    # a different seed draws a different kernel, all else equal
    assert _without_wall_ms(base, "csv") != _without_wall_ms(overridden, "csv")
    assert base.split("\n")[0] == overridden.split("\n")[0]


def test_theta_comes_in_a_config_file(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    # a file of d and theta alone is a config file; "d": 2.0 is the integer 2
    for d in (2, 2.0):
        theta.write_text(json.dumps({"d": d, "theta": [[0.0, -0.25], [0.25, 0.0]]}))
        argv = ["scan", "--config", str(theta), "--n-grid", "3", "--r-grid", "1.0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2


def test_bad_theta_in_a_config_file(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"d": 2, "theta": [[0.0, -0.25], [0.25, "x"]]}))
    assert _run(capsys, ["scan", "--config", str(theta)]) == (
        2, "", "error: theta[1][1] must be a finite number, got 'x'\n"
    )


def test_missing_config_file(capsys):
    assert main(["scan", "--config", "/nonexistent/config.json"]) == 2
    assert "error: " in capsys.readouterr().err


def test_config_file_not_an_object(tmp_path, capsys):
    # decay too, although it lays its own grid under the file's object
    config = tmp_path / "config.json"
    for text, kind in (("[]", "list"), ("5", "int"), ("null", "NoneType")):
        config.write_text(text)
        for command in ("suite", "scan", "decay", "factor", "schwartz"):
            assert _run(capsys, [command, "--config", str(config)]) == (
                2, "", f"error: config must be a JSON object, got {kind}\n"
            )


def test_flags_override_config_values_unread(tmp_path, capsys):
    # a file value that a flag overrides is never read, so it cannot fail the run
    for doc, argv in (
        ({"d": 2.5}, ["scan", "--d", "2", "--n-grid", "2", "--r-grid", "1"]),
        ({"N_grid": [5, 3]}, ["schwartz", "--n", "1"]),
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code, out, err = _run(capsys, argv + ["--config", str(config)])
        assert (code, err) == (0, "")
        assert _without_wall_ms(out, "csv") == _without_wall_ms(_run(capsys, argv)[1], "csv")


def test_config_theta_against_flags(tmp_path, capsys):
    rows = [[0.0, 0.25], [-0.25, 0.0]]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta": rows}))
    # the file's rows give d = 2, which --d 3 contradicts by name
    assert _run(capsys, ["scan", "--config", str(config), "--d", "3", "--n-grid", "1"]) == (
        2, "", "error: theta has dimension 2, config has d=3\n"
    )
    # and which --d 2 agrees with; the header holds the file's rows
    argv = ["--d", "2", "--n-grid", "1", "--r-grid", "1", "--format", "json"]
    code, out, err = _run(capsys, ["scan", "--config", str(config), *argv])
    assert (code, err) == (0, "")
    header = json.loads(out)["config"]
    assert (header["d"], header["theta"]) == (2, rows)


def test_one_config_construction_per_run(tmp_path, monkeypatch, capsys):
    calls = []
    post_init = ExperimentConfig.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha1": 0.5, "N_grid": [1, 2]}))
    for argv in (
        ["suite"],
        ["scan", "--n-grid", "1", "--r-grid", "1", "--config", str(config)],
        ["decay", "--n-grid", "4"],
        ["decay", "--config", str(config), "--n-grid", "4"],
        ["factor", "--n-grid", "1", "--d", "2"],
        ["schwartz", "--n", "1", "--config", str(config)],
    ):
        calls.clear()
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert len(calls) == 1, argv


def test_json_syntax_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 2,')
    code, out, err = _run(capsys, ["scan", "--config", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: Expecting property name") and "Traceback" not in err
    assert err.count("\n") == 1
    assert _run(capsys, ["decay", "--config", os.devnull]) == (
        2, "", f"error: {os.devnull}: Expecting value: line 1 column 1 (char 0)\n"
    )
    # bytes that are not UTF-8, and an integer literal too long to convert,
    # as a seed or as a theta entry
    binary, huge = tmp_path / "binary.json", tmp_path / "huge.json"
    huge_theta = tmp_path / "huge-theta.json"
    binary.write_bytes(b"\xc3\x28{}")
    huge.write_text('{"seed": ' + "9" * 5000 + "}")
    huge_theta.write_text('{"d": 2, "theta": [[0, ' + "9" * 5000 + "], [0, 0]]}")
    for path, words in (
        (binary, "'utf-8' codec can't decode"),
        (huge, "Exceeds the limit"),
        (huge_theta, "Exceeds the limit"),
    ):
        code, out, err = _run(capsys, ["suite", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {words}") and err.count("\n") == 1


def test_memory_guard_exit(capsys):
    assert main(["scan", "--n-grid", "40"]) == 2
    assert "dense-matrix guard" in capsys.readouterr().err
    assert main(["decay", "--d", "12", "--n-grid", "2"]) == 2
    assert "point-count guard" in capsys.readouterr().err


def test_decay_defaults(capsys):
    assert main(["decay"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "N,p,weak_norm,slope,residual,s_p_norm"
    assert [line.split(",")[0] for line in lines[1:]] == ["10", "20"]


def test_decay_grid_from_config_file(tmp_path, capsys):
    # decay's own grid applies unless the config file or --n-grid gives one
    plain, gridded = tmp_path / "plain.json", tmp_path / "grid.json"
    plain.write_text(json.dumps({"seed": 3}))
    gridded.write_text(json.dumps({"N_grid": [6, 7]}))
    for argv, radii in (
        (["--config", str(plain)], ["10", "20"]),
        (["--config", str(gridded)], ["6", "7"]),
        (["--config", str(plain), "--n-grid", "5"], ["5"]),
        (["--config", str(gridded), "--n-grid", "5"], ["5"]),
    ):
        assert main(["decay", *argv]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == radii


def test_every_config_field_has_a_flag():
    # a flag sets the field named by its destination, in lower case; theta
    # alone comes only in the config file
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for sub in subs.choices.values() for action in sub._actions}
    names = [f.name for f in fields(ExperimentConfig) if f.name != "theta"]
    assert [name for name in names if name.lower() not in dests] == []


# two values of each numeric flag, and the small run of each subcommand
# they are laid over (a later flag replaces an earlier one)
_FLAG_VALUES = {
    "--d": ("2", "3"),
    "--alpha": ("1.5", "3"),
    "--alpha1": ("0.5", "2"),
    "--alpha2": ("0.5", "2"),
    "--n": ("2", "3"),
    "--n-grid": ("2", "3"),
    "--r-grid": ("1", "2"),
    "--s0": ("3.5", "5"),
    "--s-margin": ("0.5", "1"),
    "--seed": ("1", "2"),
}
_SMALL_RUNS = {
    "suite": [],
    "scan": ["--n-grid", "2"],
    "decay": ["--n-grid", "4"],
    "factor": ["--n-grid", "2"],
    "schwartz": ["--n", "2"],
}


def test_every_numeric_flag_moves_the_numbers(capsys):
    # a subcommand takes a flag only for a config field it reads, so two
    # values of any numeric flag it accepts print different CSV bytes
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subs.choices) == sorted(_SMALL_RUNS)
    plain = {"-h", "--help", "--config", "--out", "--format"}
    for command, sub in subs.choices.items():
        flags = [flag for a in sub._actions for flag in a.option_strings if flag not in plain]
        for flag in flags:
            outs = []
            for value in _FLAG_VALUES[flag]:
                code, out, err = _run(capsys, [command, *_SMALL_RUNS[command], flag, value])
                assert (code, err) == (0, ""), (command, flag, value)
                outs.append(_without_wall_ms(out, "csv"))
            assert outs[0] != outs[1], f"{command} {flag} leaves the output as it is"


def test_huge_dimension_is_refused_by_name(capsys):
    # 2^70 as a decimal integer reaches the config check; the literal
    # "2**70" is not an integer and argparse refuses it
    assert main(["decay", "--d", str(2**70), "--n-grid", "1"]) == 2
    assert capsys.readouterr().err == f"error: d must be at most 12, got {2**70}\n"
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--d", "2**70", "--n-grid", "1"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_flags_read_numerals_as_config_values(capsys):
    # an integral float on the command line is its integer, as in a file
    for ints, floats in (
        (["scan", "--d", "2", "--n-grid", "3", "--r-grid", "2"],
         ["scan", "--d", "2.0", "--n-grid", "3", "--r-grid", "2"]),
        (["scan", "--n-grid", "3", "--seed", "7"], ["scan", "--n-grid", "3.0", "--seed", "7.0"]),
        (["schwartz", "--n", "3"], ["schwartz", "--n", "3.0"]),
    ):
        code, out, err = _run(capsys, ints)
        assert (code, err) == (0, "")
        f_code, f_out, f_err = _run(capsys, floats)
        assert f_code == code and f_err == err
        assert _without_wall_ms(f_out, "csv") == _without_wall_ms(out, "csv")
    # a non-integral value meets the config's rule, by the field's name
    assert _run(capsys, ["scan", "--d", "2.5", "--n-grid", "3"]) == (
        2, "", "error: d must be an integer, got 2.5\n"
    )
    # decay's potential order is a config float, however it was spelled
    code, out, _ = _run(capsys, ["decay", "--alpha", "2", "--n-grid", "8", "--format", "json"])
    assert code == 0 and repr(json.loads(out)["config"]["alpha"]) == "2.0"


def test_decay_flags(capsys):
    assert main(["decay", "--alpha", "1.0", "--n-grid", "8", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["alpha"] == 1.0
    assert doc["records"][0]["N"] == 8
    assert doc["records"][0]["p"] == pytest.approx(2.0)


def test_decay_bad_alpha(capsys):
    assert main(["decay", "--alpha", "-1.0", "--n-grid", "8"]) == 2
    assert "positive" in capsys.readouterr().err
    for bad in ("inf", "nan"):
        assert main(["decay", "--alpha", bad, "--n-grid", "4"]) == 2
        assert capsys.readouterr().err == f"error: alpha must be a finite number, got {bad}\n"
    # alpha * log(1 + |n|^2) overflows too; the underflow check is the only line
    assert main(["decay", "--alpha", "1e308", "--n-grid", "8"]) == 2
    assert capsys.readouterr().err == (
        "error: decay at N=8, alpha=1e+308: the fit window [15, 144] holds weights"
        " that underflow to 0\n"
    )


def test_decay_refuses_radius_zero(capsys):
    # a one-point spectrum has no fit window; the grid check names N
    for grid in ("0", "0,5"):
        assert main(["decay", "--n-grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: decay needs every N_grid entry to be at least 1, got 0\n"


def test_decay_refuses_windows_without_decay(capsys):
    # a fit window of equal weights, or of weights flushed to 0, holds no
    # decay to fit; the refusal names N and alpha.  At alpha = 1e-300 the
    # window's ends lie on distinct shells whose weights both round to 1,
    # so the refusal compares the weights at its ends, not their shells
    for argv, why in (
        (["--n-grid", "1"], "N=1, alpha=2: the fit window [1, 4] holds equal weights only"),
        (
            ["--alpha", "1e-300", "--n-grid", "4"],
            "N=4, alpha=1e-300: the fit window [5, 40] holds equal weights only",
        ),
        (
            ["--alpha", "700", "--n-grid", "40"],
            "N=40, alpha=700: the fit window [329, 3280] holds weights that underflow to 0",
        ),
    ):
        code, out, err = _run(capsys, ["decay", *argv])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: decay at {why}")
    # at d=3 the radius-1 window spans two shells of weights and is fitted
    code, out, err = _run(capsys, ["decay", "--d", "3", "--n-grid", "1"])
    assert (code, err) == (0, "")


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    # every nctorus line of the README's command-line block runs and exits 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("nctorus ")]
    assert {argv[0] for argv in commands} == {"suite", "scan", "decay", "factor", "schwartz"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_seeds_near_the_key_bound(capsys):
    # the keys the runners derive from the seed wrap modulo 2**128
    for argv in (
        ["suite", "--seed", str(2**128 - 1)],
        ["factor", "--n-grid", "3", "--seed", str(2**128 - 2)],
    ):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


def test_factor_non_finite_multiplier(capsys):
    # a Bessel order too large for the box is refused by name, not as NaN
    # gaps or a NaN Sobolev norm, and the overflow prints no numpy warning
    # ahead of the error
    for argv in (
        ["factor", "--alpha1", "1000", "--n-grid", "3"],
        ["scan", "--alpha1", "1000", "--n-grid", "3", "--r-grid", "2"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: symbol 'bessel(1000)' is not finite at lattice point (-3, -3)\n"
        )


def test_no_scipy_on_the_import_path():
    # every subcommand runs on numpy alone; a fresh interpreter is needed
    # because other tests may already have imported scipy into this one
    code = (
        "import contextlib, io, sys\n"
        "import nctorus, nctorus.cli\n"
        "for argv in (['suite'], ['scan', '--n-grid', '2'], ['decay', '--n-grid', '10,20'],\n"
        "             ['factor', '--n-grid', '2'], ['schwartz', '--n', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert nctorus.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(nctorus.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_outputs_do_not_depend_on_blas_threads():
    # OpenBLAS reads its thread count once, at import, so each count needs
    # a fresh interpreter.  The scan pins its SVDs to one BLAS thread
    # where numpy runs on its bundled OpenBLAS, so its whole output but
    # wall_ms is compared; N = 10 and 12 (n = 441 and 625) run the
    # two-stage SVD, the smaller radii np.linalg.svd.  Elsewhere the SVD's
    # threaded blocking may round the last digit differently, and s_r_norm
    # and weak_r_norm are skipped.  The suite's SVDs are of 25 x 25
    # matrices, small enough that its JSON is compared whole.  On a
    # one-CPU host both runs use one thread.
    code = (
        "import contextlib, io, json\n"
        "import nctorus.cli\n"
        "outs = []\n"
        "for argv in (['factor', '--n-grid', '6,8', '--seed', '3', '--format', 'json'],\n"
        "             ['schwartz', '--n', '20', '--seed', '7501', '--format', 'json'],\n"
        "             ['decay', '--n-grid', '10,20,40'],\n"
        "             ['suite', '--seed', '7', '--format', 'json'],\n"
        "             ['scan', '--n-grid', '6,8,10,12', '--seed', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert nctorus.cli.main(argv) == 0, argv\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps(outs))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(nctorus.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    *exact1, scan1 = runs[0]
    *exact2, scan2 = runs[1]
    assert exact1 == exact2

    skipped = {"wall_ms"}
    if schatten._openblas() is None:
        skipped |= {"s_r_norm", "weak_r_norm"}

    def compared(text: str) -> list:
        rows = [row.split(",") for row in text.strip().split("\n")]
        keep = [i for i, name in enumerate(rows[0]) if name not in skipped]
        return [[row[i] for i in keep] for row in rows]

    assert compared(scan1) == compared(scan2)
    assert len(compared(scan1)) == 13  # the header and 4 radii x 3 exponents


def test_factor_passes(capsys):
    assert main(["factor", "--n-grid", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "N,alpha1,alpha2,factor_error,adjoint_error"
    assert len(lines) == 5  # four exponent pairs for the single radius
    worst = max(float(line.split(",")[3]) for line in lines[1:])
    assert worst <= 1e-12


def test_factor_fails_on_a_nan_gap(capsys, monkeypatch):
    # a NaN gap on any pair fails the check, not only on the first
    gaps = nctorus.experiments.identity_gaps

    def nan_second(k, pairs):
        adjoint, factor = gaps(k, pairs)
        factor[1] = float("nan")
        return adjoint, factor

    monkeypatch.setattr("nctorus.experiments.identity_gaps", nan_second)
    code, out, err = _run(capsys, ["factor", "--n-grid", "3"])
    assert code == 1 and out.count("\n") == 5
    assert err == "factorization gap nan exceeds tolerance 1.0e-12\n"


def test_factor_json_stays_strict_with_a_nan_gap(capsys, monkeypatch):
    # a NaN gap is written as the CSV's cell "nan", never as the bare
    # token NaN that strict JSON parsers reject
    gaps = nctorus.experiments.identity_gaps

    def nan_second(k, pairs):
        adjoint, factor = gaps(k, pairs)
        factor[1] = float("nan")
        return adjoint, factor

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setattr("nctorus.experiments.identity_gaps", nan_second)
    code, out, _ = _run(capsys, ["factor", "--n-grid", "3", "--format", "json"])
    doc = json.loads(out, parse_constant=refuse)
    assert code == 1 and doc["passed"] is False
    assert doc["max_error"] == "nan" and doc["records"][1]["factor_error"] == "nan"


def test_factor_json(capsys):
    assert main(["factor", "--n-grid", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["max_error"] <= doc["tolerance"]


def test_schwartz_passes(capsys):
    assert main(["schwartz", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("radius,s0,alpha1,alpha2,worst_ratio,lifted_norm,passed")
    assert out.strip().split("\n")[1].endswith("true")


def test_schwartz_json(capsys):
    assert main(["schwartz", "--n", "4", "--s0", "3.5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["s0"] == 3.5
    assert doc["radius"] == 4


def test_schwartz_rejects_small_margin(capsys):
    # the decay margin must strictly exceed the dimension
    assert main(["schwartz", "--n", "4", "--s0", "2.0"]) == 2
    err = capsys.readouterr().err
    assert "decay margin" in err and "must exceed" in err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_unknown_format():
    with pytest.raises(SystemExit):
        main(["scan", "--format", "xml"])


def test_cli_rejects_malformed_grid():
    with pytest.raises(SystemExit):
        main(["scan", "--n-grid", "3,x"])


def test_calls_in_one_process_write_what_separate_runs_write(tmp_path):
    # the parser is built once per process: a call after others, with
    # another subcommand or without the flags a former call gave, writes
    # the bytes a fresh interpreter writes
    calls = (
        ["decay", "--alpha", "3", "--n-grid", "5,10"],
        ["schwartz", "--n", "3", "--s0", "4.5", "--format", "json"],
        ["factor", "--n-grid", "2,3", "--seed", "5"],
        ["decay", "--n-grid", "5,10"],
        ["schwartz", "--n", "3"],
    )
    assert build_parser() is build_parser()
    src = os.path.dirname(os.path.dirname(os.path.abspath(nctorus.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for i, argv in enumerate(calls):
        shared, fresh = tmp_path / f"shared-{i}", tmp_path / f"fresh-{i}"
        assert main(argv + ["--out", str(shared)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "nctorus.cli", *argv, "--out", str(fresh)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert shared.read_bytes() == fresh.read_bytes(), argv


def test_parser_metadata():
    parser = build_parser()
    assert parser.prog == "nctorus"


def test_suite_json_roundtrips_numerics(capsys):
    assert main(["suite", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    errs = np.array([check["max_error"] for check in doc["checks"]])
    assert np.all(np.isfinite(errs))
    assert np.all(errs >= 0)


# ---------------------------------------------------------------------------
# output layout of every subcommand, in both formats

SUITE_CHECKS = [
    "cocycle-bicharacter", "cocycle-identity", "commutation-relation",
    "algebra-associativity", "algebra-unit", "trace-property",
    "involution-antihomomorphism", "involution-involutive", "plancherel-pairing",
    "derivation-leibniz", "multiplier-algebra", "mult-matrix-consistency",
    "op-multiply-reversal", "kernel-oracle", "kernel-hs-identity",
    "kernel-column-consistency", "bessel-kernel-diagonal", "schatten-exact",
    "factorization", "adjoint-identity", "kernel-linearity", "schwartz-exact",
    "kernel-rank-one",
]

SCAN_COLUMNS = ["N", "r", "r_star", "s_r_norm", "weak_r_norm", "sobolev_norm", "wall_ms"]
DECAY_COLUMNS = ["N", "p", "weak_norm", "slope", "residual", "s_p_norm"]
FACTOR_COLUMNS = ["N", "alpha1", "alpha2", "factor_error", "adjoint_error"]
SCHWARTZ_COLUMNS = ["radius", "s0", "alpha1", "alpha2", "worst_ratio", "lifted_norm", "passed"]


def _run(capsys, argv) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_and_json(capsys, argv) -> tuple:
    """(header, rows as dicts, JSON document) of one command in both formats."""
    code, text, err = _run(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.split("\n")[:-1]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert all(len(row) == len(header) for row in rows)
    code, text, err = _run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    return header, rows, json.loads(text)


def _assert_cells_match(row: dict, record: dict, skip=("wall_ms",)) -> None:
    # integers print as integers, floats with %.17g, booleans as true/false
    for name, cell in row.items():
        if name in skip:
            continue
        value = record[name]
        if isinstance(value, bool):
            assert cell == ("true" if value else "false")
        elif isinstance(value, int):
            assert cell == str(value)
        else:
            assert cell == format(value, ".17g")


def test_suite_layout_both_formats(capsys):
    code, text, err = _run(capsys, ["suite", "--seed", "7"])
    assert (code, err) == (0, "")
    lines = text.split("\n")
    assert lines[-2:] == ["all checks passed", ""]
    pattern = re.compile(
        r"pass  ([a-z-]+): max error \d\.\d{3}e[+-]\d\d \(tol \d\.\de[+-]\d\d\)"
    )
    matches = [pattern.fullmatch(line) for line in lines[:-2]]
    assert all(matches)
    assert [m.group(1) for m in matches] == SUITE_CHECKS
    code, text, err = _run(capsys, ["suite", "--seed", "7", "--format", "json"])
    assert (code, err) == (0, "")
    doc = json.loads(text)
    assert set(doc) == {"command", "config", "passed", "checks"} and doc["passed"] is True
    assert [check["name"] for check in doc["checks"]] == SUITE_CHECKS
    for check, line in zip(doc["checks"], lines):
        assert set(check) == {"name", "max_error", "tolerance", "passed"}
        assert check["passed"] is True
        assert f"max error {check['max_error']:.3e} (tol {check['tolerance']:.1e})" in line


def test_scan_layout_both_formats_unsorted_r_grid(capsys):
    header, rows, doc = _csv_and_json(
        capsys, ["scan", "--n-grid", "3,4", "--r-grid", "2,1,0.8"]
    )
    assert header == SCAN_COLUMNS
    # records come out sorted by (N, r) whatever the order of the r grid
    assert [(row["N"], row["r"]) for row in rows] == [
        ("3", "0.80000000000000004"), ("3", "1"), ("3", "2"),
        ("4", "0.80000000000000004"), ("4", "1"), ("4", "2"),
    ]
    assert set(doc) == {"command", "config", "records"}
    config = doc["config"]
    assert (config["d"], config["alpha1"], config["alpha2"]) == (2, 1.0, 1.0)
    assert (config["s_margin"], config["seed"], config["r_grid"]) == (0.5, 42, [2.0, 1.0, 0.8])
    assert len(doc["records"]) == len(rows)
    for row, rec in zip(rows, doc["records"]):
        assert set(rec) == set(SCAN_COLUMNS)
        assert rec["wall_ms"] >= 0 and float(row["wall_ms"]) >= 0
        _assert_cells_match(row, rec)


def test_decay_layout_both_formats(capsys):
    header, rows, doc = _csv_and_json(capsys, ["decay", "--n-grid", "10,20"])
    assert header == DECAY_COLUMNS
    assert [row["N"] for row in rows] == ["10", "20"]
    assert set(doc) == {"command", "config", "records"}
    assert (doc["config"]["d"], doc["config"]["alpha"]) == (2, 2.0)
    for row, rec in zip(rows, doc["records"]):
        assert set(rec) == set(DECAY_COLUMNS)
        _assert_cells_match(row, rec)


def test_decay_descending_grid(capsys):
    # the CLI grid goes through the config, which wants it increasing ...
    for fmt in ("csv", "json"):
        code, out, err = _run(capsys, ["decay", "--n-grid", "20,10", "--format", fmt])
        assert (code, out) == (2, "")
        assert err == "error: N grid must be strictly increasing, got (20, 10)\n"
    # ... while the runner sorts whatever grid a library caller passes
    from nctorus.experiments import run_potential_decay

    assert [rec.N for rec in run_potential_decay(2, 2.0, (20, 10))] == [10, 20]


def test_factor_layout_both_formats(capsys):
    header, rows, doc = _csv_and_json(capsys, ["factor", "--n-grid", "3,4"])
    assert header == FACTOR_COLUMNS
    keys = [(int(row["N"]), float(row["alpha1"]), float(row["alpha2"])) for row in rows]
    assert len(keys) == 8 and keys == sorted(keys)
    assert set(doc) == {"command", "config", "records", "max_error", "tolerance", "passed"}
    assert doc["tolerance"] == 1e-12 and doc["passed"] is True
    worst = max(max(r["factor_error"], r["adjoint_error"]) for r in doc["records"])
    assert doc["max_error"] == worst
    for row, rec in zip(rows, doc["records"]):
        assert set(rec) == set(FACTOR_COLUMNS)
        _assert_cells_match(row, rec)


def test_schwartz_layout_both_formats(capsys):
    header, rows, doc = _csv_and_json(capsys, ["schwartz", "--n", "4"])
    assert header == SCHWARTZ_COLUMNS
    (row,) = rows
    assert set(doc) == set(SCHWARTZ_COLUMNS) | {"command", "config", "worst_index", "tolerance"}
    assert (doc["radius"], doc["s0"], doc["tolerance"], doc["passed"]) == (4, 3.0, 1e-10, True)
    assert [len(leg) for leg in doc["worst_index"]] == [2, 2]
    assert all(type(v) is int for leg in doc["worst_index"] for v in leg)
    _assert_cells_match(row, doc)


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "--seed", "7"],
        ["scan", "--n-grid", "2,3", "--r-grid", "1,inf"],
        ["scan", "--d", "3", "--n-grid", "2,3"],
        ["decay", "--n-grid", "8,16", "--alpha", "1.5"],
        ["factor", "--n-grid", "2,3", "--seed", "5"],
        ["schwartz", "--n", "3", "--s0", "4.5"],
    ],
    ids=["suite", "scan-inf", "scan-d3", "decay", "factor", "schwartz"],
)
def test_every_document_reruns_from_its_config(tmp_path, capsys, argv):
    # the header's config, given back as --config with no other flag,
    # writes the same document: decay's alpha comes back with it, and an
    # infinite r sits in r_grid as the cell "inf"
    code, out, err = _run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc["config"]))
    code, rerun, err = _run(capsys, [argv[0], "--config", str(config), "--format", "json"])
    assert (code, err) == (0, "")
    assert _without_wall_ms(rerun, "json") == _without_wall_ms(out, "json")


def test_a_rerun_writes_where_its_own_flags_say(tmp_path, monkeypatch, capsys):
    # a document records no output path: rerun through --config without
    # --out, it goes to stdout in CSV and leaves the document as it was
    monkeypatch.chdir(tmp_path)
    argv = ["schwartz", "--n", "2", "--format", "json", "--out", "doc.json"]
    assert _run(capsys, argv) == (0, "", "")
    first = (tmp_path / "doc.json").read_bytes()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads(first)["config"]))
    code, out, err = _run(capsys, ["schwartz", "--config", str(config), "--n", "3"])
    assert (code, err) == (0, "")
    assert out.startswith(",".join(SCHWARTZ_COLUMNS) + "\n3,")
    assert (tmp_path / "doc.json").read_bytes() == first
    # a config that still holds out and format, as older documents do, is refused
    config.write_text(json.dumps({**json.loads(first)["config"], "out": None, "format": "json"}))
    assert _run(capsys, ["schwartz", "--config", str(config)]) == (
        2, "", "error: config has unknown keys: ['format', 'out']\n"
    )


def test_failed_assertion_output(capsys, monkeypatch):
    # a failed identity still writes its output, then notes the failure on
    # stderr and exits 1
    monkeypatch.setattr("nctorus.cli.max_factor_error", lambda records: 1.0)
    code, out, err = _run(capsys, ["factor", "--n-grid", "3"])
    assert code == 1 and out.startswith(",".join(FACTOR_COLUMNS) + "\n")
    assert err == "factorization gap 1.000e+00 exceeds tolerance 1.0e-12\n"
    code, out, err = _run(capsys, ["factor", "--n-grid", "3", "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert (doc["max_error"], doc["passed"]) == (1.0, False)


# argv fuzz: each subcommand with up to four of its flags, the values
# small (radii up to 3, dimensions up to 3) but the floats from the whole
# double range, nan and inf included, plus tokens argparse must refuse
_ints = st.integers(-2, 3).map(str) | st.sampled_from(["x", "1.5"])
_floats = st.floats(-1, 4).map(repr) | st.floats().map(repr) | st.sampled_from(["x", ""])
_int_lists = st.lists(st.integers(-1, 3).map(str), max_size=3).map(",".join)
_float_lists = st.lists(_floats, max_size=3).map(",".join)
_seeds = st.integers(-1, 2**130).map(str)
_COMMON_FLAGS = {
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--config": st.just("missing-config.json"),
    "--out": st.just("-"),
}
_DENSE_FLAGS = {
    "--d": _ints,
    "--alpha1": _floats,
    "--alpha2": _floats,
    "--s-margin": _floats,
    "--seed": _seeds,
}
_FLAGS = {
    "suite": {"--seed": _seeds},
    "scan": {**_DENSE_FLAGS, "--n-grid": _int_lists, "--r-grid": _float_lists},
    "decay": {"--d": _ints, "--alpha": _floats, "--n-grid": _int_lists},
    "factor": {**_DENSE_FLAGS, "--n-grid": _int_lists},
    "schwartz": {**_DENSE_FLAGS, "--n": _ints, "--s0": _floats},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = {**_COMMON_FLAGS, **_FLAGS[command]}
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)):
        argv += [flag, draw(flags[flag])]
    return argv


@settings(max_examples=100)
@given(argv=_argv())
# Schatten exponents whose norms overflow (tiny r) or whose powers did (huge r)
@example(argv=["scan", "--n-grid", "2", "--r-grid", "1e-300"])
@example(argv=["scan", "--n-grid", "2", "--r-grid", "5e-324"])
@example(argv=["scan", "--n-grid", "2", "--r-grid", "1e+308"])
# a dimension whose exact box power would never finish
@example(argv=["decay", "--d", str(2**70), "--n-grid", "1"])
@example(argv=["scan", "--d", str(2**70), "--n-grid", "1"])
def test_cli_exit_code_on_any_argv(argv):
    # pytest turns warnings into errors, so a numpy warning fails here too
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in (0, 1, 2)


# A flag and a config-file value meet the same rules: each numeric field,
# given one drawn value either way, exits, prints and errs alike.
_FIELD_FLAGS = {  # field: (argv around it, its flag)
    "d": (["scan", "--n-grid", "1"], "--d"),
    "N_grid": (["scan"], "--n-grid"),
    "alpha1": (["scan", "--n-grid", "1"], "--alpha1"),
    "alpha2": (["scan", "--n-grid", "1"], "--alpha2"),
    "r_grid": (["scan", "--n-grid", "1"], "--r-grid"),
    "s_margin": (["scan", "--n-grid", "1"], "--s-margin"),
    "seed": (["scan", "--n-grid", "1"], "--seed"),
    "s0": (["schwartz", "--n", "1"], "--s0"),
    "alpha": (["decay", "--n-grid", "2"], "--alpha"),
}
# ints, integral and other floats, negatives and zeros, inf and nan, and
# integers past every guard; values stay small so each box stays tiny
_field_values = (
    st.integers(-2, 4)
    | st.integers(-2, 4).map(float)
    | st.floats(-4, 4)
    | st.sampled_from([0, -0.0, float("inf"), float("-inf"), float("nan"), 2**130, 1e300])
)


def _outcome(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, _without_wall_ms(out.getvalue(), "csv"), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(sorted(_FIELD_FLAGS)), value=_field_values)
def test_flag_and_config_value_agree(tmp_path_factory, field, value):
    argv, flag = _FIELD_FLAGS[field]
    text = repr(value) if isinstance(value, float) else str(value)
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({field: [value] if field.endswith("_grid") else value}))
    # "--flag=value" keeps a negative value from reading as a flag
    assert _outcome(argv + [f"{flag}={text}"]) == _outcome(argv + ["--config", str(path)])
