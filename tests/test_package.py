import re
import types
from pathlib import Path

import pytest

import nctorus
from nctorus import algebra, cocycle, experiments, kernels, lattice, multipliers, schatten
from nctorus.cli import main

_LIBRARY = (lattice, cocycle, algebra, multipliers, kernels, schatten, experiments)


def test_package_exports_every_library_name():
    union = [name for module in _LIBRARY for name in module.__all__]
    assert nctorus.__all__ == union
    assert len(set(union)) == len(union)  # no name shadows another
    for module in _LIBRARY:
        for name in module.__all__:
            assert getattr(nctorus, name) is getattr(module, name)


def _load_workloads():
    """perfbench/workloads.py as a module, with no bytecode written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


workloads = _load_workloads()


# inner_product pairs two suite-sized vectors; it is not a sum of squares
_BLAS_REDUCTIONS_KEPT = {"algebra.py": ["return complex(np.vdot(ys.coeffs, xs.coeffs))"]}


@pytest.mark.parametrize("module", (algebra, multipliers, kernels, experiments))
def test_sums_of_squares_stay_off_blas(module):
    # OpenBLAS splits a level-1 reduction over its threads, which changes
    # the order of the sum and keeps an idle thread spinning; every norm and
    # gap goes through lattice._sum_squares instead.  Matrix products (@)
    # are not reductions and stay.
    path = Path(module.__file__)
    found = [
        line.strip()
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.search(r"np\.(dot|vdot|linalg\.norm)\(", line)
    ]
    assert found == _BLAS_REDUCTIONS_KEPT.get(path.name, [])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_checks_pass_on_tiny_workloads(workload, tmp_path):
    # the benchmark's own correctness checks, run in-process on its tiny
    # boxes: a renamed public function or a changed output fails here first
    seed = 7
    outputs = {}
    for argv, name in workloads.steps(workload, seed, tiny=True):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0, argv
        outputs[name] = workloads.normalize((tmp_path / name).read_text(encoding="utf-8"))
    expected = workloads.scan_expectations(seed, True) if workload == "scan" else {}
    assert workloads.check(workload, outputs, expected, True, inject=False) == []
    assert workloads.check(workload, outputs, expected, True, inject=True) != []
