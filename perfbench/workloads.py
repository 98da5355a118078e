"""The benchmark's workloads: the CLI calls one pass makes, and the checks
its outputs must pass.

A pass is a list of steps; each step is an ``nctorus`` argument list and
the file its ``--out`` names.  The benchmark seed becomes the program's
``--seed``.  ``tiny`` shrinks every box so the benchmark's own checks run
in seconds.

``assembly`` ends with the property suite and the decay fit.  Run as a
workload of their own, those Python-bound steps spread 15-23% from run to
run on a shared 2-vCPU host, far more than the BLAS-bound steps; inside
``assembly`` they still load the algebra, cocycle and reference modules.
"""

from __future__ import annotations

import csv
import io

HS_TOLERANCE = 1e-12
FACTOR_TOLERANCE = 1e-12
SCHWARTZ_TOLERANCE = 1e-10

SCAN_GRID = {False: (12, 14, 16, 18), True: (2, 3, 4)}
FACTOR_GRID = {False: (12, 16), True: (2, 3)}
SCHWARTZ_N = {False: 20, True: 3}
SUITE_SEEDS = {False: 10, True: 2}
DECAY_GRID = {False: (40, 80, 160), True: (5, 10)}


def _grid(values) -> str:
    return ",".join(str(v) for v in values)


def steps(workload: str, seed: int, tiny: bool) -> list:
    """[(argv without --out, output file name)] for one pass."""
    if workload == "scan":
        return [(
            ["scan", "--d", "2", "--alpha1", "1", "--alpha2", "1",
             "--n-grid", _grid(SCAN_GRID[tiny]), "--seed", str(seed)],
            "scan.csv",
        )]
    if workload == "assembly":
        return [
            (["factor", "--n-grid", _grid(FACTOR_GRID[tiny]), "--seed", str(seed)], "factor.csv"),
            (["schwartz", "--n", str(SCHWARTZ_N[tiny]), "--seed", str(seed)], "schwartz.csv"),
            *((["suite", "--seed", str(seed + i)], f"suite-{i}.txt")
              for i in range(SUITE_SEEDS[tiny])),
            (["decay", "--d", "2", "--alpha", "2", "--n-grid", _grid(DECAY_GRID[tiny])],
             "decay.csv"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("scan", "assembly")


def normalize(text: str) -> str:
    """Drop every CSV column whose header ends in ``_ms`` (timing columns)."""
    lines = text.splitlines()
    if not lines:
        return text
    header = lines[0].split(",")
    drop = {i for i, name in enumerate(header) if name.endswith("_ms")}
    if not drop:
        return text
    kept = [
        ",".join(cell for i, cell in enumerate(line.split(",")) if i not in drop)
        for line in lines
    ]
    return "\n".join(kept) + "\n"


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def scan_expectations(seed: int, tiny: bool) -> dict:
    """N -> HS norm of the scan's kernel, via the public API.

    The r = 2 Schatten norm of the kernel matrix equals the coefficient L2
    norm (the Hilbert-Schmidt identity), so each scan row at r = 2 must
    reproduce random_kernel(...).l2_norm() for the same (N, seed).
    """
    from nctorus import ExperimentConfig, random_kernel

    grid = SCAN_GRID[tiny]
    config = ExperimentConfig(d=2, alpha1=1.0, alpha2=1.0, N_grid=grid, seed=seed)
    s1, s2 = config.envelope_exponents()
    return {n: random_kernel(config.reduced, n, s1, s2, seed).l2_norm() for n in grid}


def check(workload: str, outputs: dict, expected: dict, tiny: bool, inject: bool) -> list:
    """Problems found in one pass's normalized outputs; empty when correct.

    inject plants a wrong expectation so the benchmark's own checks can see
    a failure counted.
    """
    problems = []
    if workload == "scan":
        rows = [r for r in _rows(outputs["scan.csv"]) if float(r["r"]) == 2.0]
        got = {int(r["N"]): float(r["s_r_norm"]) for r in rows}
        if sorted(got) != sorted(expected):
            problems.append(f"scan r=2 rows for N={sorted(got)}, expected {sorted(expected)}")
        for n, want in expected.items():
            if inject:
                want *= 1.0 + 1e-6
            if n in got and abs(got[n] - want) > HS_TOLERANCE * want:
                problems.append(f"scan N={n}: S_2 norm {got[n]!r} != HS norm {want!r}")
    elif workload == "assembly":
        rows = _rows(outputs["factor.csv"])
        if sorted({int(r["N"]) for r in rows}) != list(FACTOR_GRID[tiny]):
            problems.append("factor rows do not cover the N grid")
        worst = max(max(float(r["factor_error"]), float(r["adjoint_error"])) for r in rows)
        if worst > FACTOR_TOLERANCE:
            problems.append(f"factor gap {worst:.3e} > {FACTOR_TOLERANCE:.0e}")
        (row,) = _rows(outputs["schwartz.csv"])
        ratio = float(row["worst_ratio"])
        if inject:
            ratio += 1.0
        if ratio > 1.0 + SCHWARTZ_TOLERANCE or row["passed"] != "true":
            problems.append(f"schwartz worst ratio {ratio!r} exceeds 1")
        for name in sorted(outputs):
            if name.startswith("suite-"):
                last = outputs[name].strip().splitlines()[-1]
                if last != "all checks passed":
                    problems.append(f"{name}: {last}")
        rows = _rows(outputs["decay.csv"])
        if [int(r["N"]) for r in rows] != list(DECAY_GRID[tiny]):
            problems.append("decay rows do not match the N grid")
        for r in rows:
            slope = float(r["slope"])
            # spectra of an order -2 potential in d = 2 decay like k^(-1)
            if inject:
                slope = -slope
            if not (-1.5 < slope < -0.5) or not float(r["weak_norm"]) > 0:
                problems.append(f"decay N={r['N']}: slope {slope!r}, weak norm {r['weak_norm']}")
    return problems
