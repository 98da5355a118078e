import re
import types
from pathlib import Path

import numpy as np
import pytest

import nctorus
from nctorus import algebra, cocycle, experiments, kernels, lattice, multipliers, reference
from nctorus import schatten
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


def _refusals() -> dict:
    """case -> (call, error, message) for inputs each module refuses where it takes them."""
    red2 = cocycle.reduce_theta(experiments.default_theta(2))
    zero2, zero3 = cocycle.zero_theta(2), cocycle.zero_theta(3)
    box1, box3 = lattice.LatticeBox(2, 1), lattice.LatticeBox(3, 1)
    x = algebra.TorusElement(red2, box1, np.arange(9))
    x_zero = algebra.TorusElement(zero2, box1, np.arange(9))
    k = kernels.NCKernel(red2, box1, np.eye(9))
    other_theta = kernels.NCKernel(zero2, box1, np.eye(9))
    smaller = kernels.NCKernel(red2, lattice.LatticeBox(2, 0), np.eye(1))
    spectrum = schatten.SingularSpectrum(np.array([3.0, 2.0, 1.0, 0.5, 0.2, 0.1]))
    dims = "^target box has dimension 3, element has d=2$"
    operands = "^(unsupported operand type|can't multiply sequence)"
    across = " live over different deformation matrices$"
    # the four rules of lattice and cocycle, at every entry that takes
    # their inputs: rule -> case -> (call, message)
    rules = {
        "dimension": {
            "element-box-and-theta": (
                lambda: algebra.TorusElement(zero3, box1, np.arange(9)),
                "^box has dimension 2, theta has d=3$",
            ),
            "diagonal-phases": (
                lambda: cocycle.diagonal_phases(zero3, box1),
                "^box has dimension 2, theta has d=3$",
            ),
            "bessel-kernel": (
                lambda: kernels.bessel_kernel(1.0, box1, zero3),
                "^box has dimension 2, theta has d=3$",
            ),
            "sigma-index": (
                lambda: cocycle.sigma(red2, (1, 0, 0), (0, 1)),
                r"^lattice point \(1, 0, 0\) has dimension 3, theta has d=2$",
            ),
            "config-theta-and-d": (
                lambda: experiments.ExperimentConfig(d=3, theta=experiments.default_theta(2)),
                "^theta has dimension 2, config has d=3$",
            ),
        },
        "across-thetas": {
            "element-sum": (lambda: x + x_zero, "^TorusElement and TorusElement" + across),
            "element-product": (
                lambda: algebra.twisted_convolve(x, x_zero),
                "^TorusElement and TorusElement" + across,
            ),
            "kernel-action": (
                lambda: kernels.apply_kernel(k, x_zero), "^NCKernel and TorusElement" + across
            ),
            "definitional-kernel-action": (
                lambda: reference.apply_kernel_definitional(k, x_zero),
                "^NCKernel and TorusElement" + across,
            ),
        },
        "negative-order": {
            "critical-exponent": (
                lambda: schatten.critical_exponent(2, -1.0, 1.0),
                "^alpha1 must be nonnegative, got -1.0$",
            ),
            "mixed-sobolev-norm": (
                lambda: kernels.mixed_sobolev_norm(k, 1.0, -0.5),
                "^alpha2 must be nonnegative, got -0.5$",
            ),
            "schwartz": (
                lambda: kernels.schwartz_coefficients(k, -5.0, 1.0, 3.0),
                r"^alpha1 \+ s0 must be nonnegative, got -2.0$",
            ),
            "random-kernel": (
                lambda: kernels.random_kernel(red2, 1, 1.0, -2.0, 7),
                "^s2 must be nonnegative, got -2.0$",
            ),
            # the draw's envelope is refused by the config fields that set it
            "config-s-margin": (
                lambda: experiments.ExperimentConfig(s_margin=-5.0),
                r"^min\(alpha1, alpha2\) \+ d/2 \+ s_margin must be nonnegative, got -3.0$",
            ),
        },
        "torus-dimension": {
            "theta-13x13": (
                lambda: cocycle.ThetaMatrix(np.zeros((13, 13))),
                "^theta row count must be at most 12, got 13$",
            ),
            # the config's d is 2, so the rows are what is refused
            "config-theta-one-row": (
                lambda: experiments.ExperimentConfig.from_json({"d": 2, "theta": [[0.0, 0.0]]}),
                "^theta row count must be at least 2, got 1$",
            ),
        },
    }
    seeds = {
        "bool": (True, "^seed must be an integer, got True$"),
        "fraction": (2.5, "^seed must be an integer, got 2.5$"),
        "negative": (-1, r"^seed must be in \[0, 2\*\*128\), got -1$"),
        "past-2**128": (2**128, rf"^seed must be in \[0, 2\*\*128\), got {2**128}$"),
    }
    draws = {
        "random-kernel": lambda seed: kernels.random_kernel(red2, 2, 1.0, 1.0, seed),
        "suite": lambda seed: experiments.run_property_suite(seed, experiments.default_theta(2)),
    }
    # a reduced theta is no deformation matrix: the suite's commutation
    # check would fail on it, and a header holding it could not rerun
    thetas = {
        "reduced": (cocycle.ReducedTheta([[0.0, 0.0], [0.3, 0.0]]), "ReducedTheta"),
        "rows": ([[0.0, -0.3], [0.3, 0.0]], "list"),
        "none": (None, "NoneType"),
    }
    takes = {
        "config": lambda theta: experiments.ExperimentConfig(theta=theta),
        "suite": lambda theta: experiments.run_property_suite(7, theta),
    }
    # decay's grid meets the config's rule, in the config's words
    decay_grids = {
        "int": (10, "^N_grid must be a list of integers, got 10$"),
        "string": ("12", "^N_grid must be a list of integers, got '12'$"),
        "empty": ([], r"^N grid must be nonempty and nonnegative, got \(\)$"),
    }
    return {
        **{
            f"{entry}-seed-{case}": (lambda draw=draw, seed=seed: draw(seed), ValueError, message)
            for entry, draw in draws.items()
            for case, (seed, message) in seeds.items()
        },
        **{
            f"{case}-{rule}": (call, ValueError, message)
            for rule, cases in rules.items()
            for case, (call, message) in cases.items()
        },
        "decay-dimension-one": (
            lambda: experiments.run_potential_decay(1, 2.0, [10]),
            ValueError,
            "^d must be at least 2, got 1$",
        ),
        "schatten-norm-string-exponent": (
            lambda: schatten.schatten_norm(spectrum, "x"),
            ValueError,
            "^Schatten exponent must be positive, got 'x'$",
        ),
        "weak-norm-string-exponent": (
            lambda: schatten.weak_norm(spectrum, "x"),
            ValueError,
            "^weak exponent must be positive, got 'x'$",
        ),
        "schatten-norm-huge-exponent": (
            lambda: schatten.schatten_norm(spectrum, 10**5000),
            ValueError,
            "^Schatten exponent must be a positive number within the float range, "
            "got an integer of 16610 bits$",
        ),
        "weak-norm-huge-exponent": (
            lambda: schatten.weak_norm(spectrum, 10**5000),
            ValueError,
            "^weak exponent must be a positive number within the float range, "
            "got an integer of 16610 bits$",
        ),
        "decay-window-fraction": (
            lambda: schatten.decay_exponent(spectrum, 1.5, 4),
            ValueError,
            "^k_min must be an integer, got 1.5$",
        ),
        "derivation-index-fraction": (
            lambda: algebra.partial_derivative(x, 1.5),
            ValueError,
            "^derivation index must be an integer, got 1.5$",
        ),
        "embedded-other-dimension": (lambda: algebra.embedded(x, box3), ValueError, dims),
        "restricted-other-dimension": (lambda: algebra.restricted(x, box3), ValueError, dims),
        "mult-matrix-other-dimension": (
            lambda: algebra.mult_matrix(x, box3),
            ValueError,
            "^box has dimension 3, element has d=2$",
        ),
        "lattice-point-2d": (
            lambda: box1.contains([[1, 2]]),
            ValueError,
            r"^expected lattice points of shape \(2,\), got shape \(1, 2\)$",
        ),
        # the position 2 * 10**20 + 2 * 10**10 does not fit int64
        "box-positions-past-int64": (
            lambda: lattice.LatticeBox(2, 10**10).linear_index((0, 0)),
            ValueError,
            r"^box cardinality \(2N\+1\)\^d = 400000000040000000001 exceeds 2\*\*63, "
            "so its positions overflow int64$",
        ),
        # a ragged nested list is refused in the words of the rule it meets
        "lattice-point-ragged": (
            lambda: box1.contains([1, [0]]),
            ValueError,
            r"^lattice point entries must form a rectangular array, got \[1, \[0\]\]$",
        ),
        "lattice-points-ragged": (
            lambda: box1.linear_indices([[1, 0], [1]]),
            ValueError,
            r"^lattice point entries must form a rectangular array, got \[\[1, 0\], \[1\]\]$",
        ),
        "coefficients-ragged": (
            lambda: algebra.TorusElement(red2, box1, [1] * 8 + [[1]]),
            ValueError,
            r"^coefficients have a ragged shape, expected \(9,\)$",
        ),
        "config-json-not-an-object": (
            lambda: experiments.ExperimentConfig.from_json([[0.0]]),
            ValueError,
            "^config must be a JSON object, got list$",
        ),
        **{
            f"{entry}-theta-{case}": (lambda take=take, theta=theta: take(theta), ValueError,
                                      f"^theta must be a ThetaMatrix, got {kind}$")
            for entry, take in takes.items()
            for case, (theta, kind) in thetas.items()
            if theta is not None or entry == "suite"  # a config's None is its default theta
        },
        **{
            f"decay-grid-{case}": (
                lambda grid=grid: experiments.run_potential_decay(2, 2.0, grid), ValueError, message
            )
            for case, (grid, message) in decay_grids.items()
        },
        "config-r-grid-scalar": (
            lambda: experiments.ExperimentConfig(r_grid=3.0),
            ValueError,
            "^r_grid must be a list of numbers, got 3.0$",
        ),
        "kernel-box-and-theta-dimensions": (
            lambda: kernels.NCKernel(cocycle.zero_theta(3), box1, np.eye(9)),
            ValueError,
            "^kernel box has dimension 2, theta has d=3$",
        ),
        "kernel-sum-across-thetas": (
            lambda: k + other_theta,
            ValueError,
            "^NCKernel and NCKernel" + across,
        ),
        "kernel-sum-across-boxes": (lambda: k + smaller, ValueError, "^kernel boxes differ$"),
        "kernel-plus-element": (lambda: k + x, TypeError, operands),
        "kernel-times-string": (lambda: k * "2", TypeError, operands),
        "element-times-kernel": (lambda: x * k, TypeError, operands),
        "element-minus-kernel": (lambda: x - k, TypeError, operands),
        "element-plus-number": (lambda: x + 1, TypeError, operands),
    }


@pytest.mark.parametrize("case", sorted(_refusals()))
def test_malformed_inputs_are_refused(case):
    call, error, message = _refusals()[case]
    with pytest.raises(error, match=message):
        call()


def _point_entries() -> dict:
    """entry -> (what its points meet, call of one point p, what the call gives p)."""
    red2 = cocycle.reduce_theta(experiments.default_theta(2))
    box = lattice.LatticeBox(2, 1)
    x = algebra.TorusElement(red2, box, np.arange(9))
    origin = [(0, 0)]
    return {
        "contains": ("box", box.contains, lambda p: p),
        "linear-index": ("box", box.linear_index, lambda p: p),
        "linear-indices": ("box", lambda p: box.linear_indices([p]), lambda p: [p]),
        "coefficient": ("box", x.coefficient, lambda p: p),
        "monomial": ("box", lambda p: algebra.monomial(red2, p, box).coeffs, lambda p: p),
        "sigma-m": ("theta", lambda p: cocycle.sigma(red2, p, (0, 0)), lambda p: p),
        "sigma-n": ("theta", lambda p: cocycle.sigma(red2, (0, 0), p), lambda p: p),
        **{
            f"{name}-{side}": (
                "theta",
                lambda p, phases=phases, side=side: phases(
                    red2.entries, *(([p], origin) if side == "left" else (origin, [p]))
                ),
                lambda p: [p],
            )
            for name, phases in (("phase-pairs", cocycle.phase_pairs),
                                 ("phase-table", cocycle.phase_table))
            for side in ("left", "right")
        },
    }


@pytest.mark.parametrize("entry", sorted(_point_entries()))
def test_every_point_entry_reads_one_rule(entry):
    # lattice._points: one ValueError wording for a point of another
    # dimension or with a non-integer entry, at every entry that takes one
    meets, call, given = _point_entries()[entry]
    three = rf"^lattice point \(0, 0, 0\) has dimension 3, {meets} has d=2$"
    with pytest.raises(ValueError, match=three):
        call((0, 0, 0))
    for bad in ((0.5, 0), (True, False), ("0", "1"), (np.nan, 0.0)):
        shown = re.escape(repr(given(bad)))
        with pytest.raises(ValueError, match=f"^lattice point entries must be integers, got {shown}$"):
            call(bad)
    # an integral float is its integer
    assert np.array_equal(call((1.0, 0.0)), call((1, 0)))
    # a point outside the box is an IndexError, a lookup miss, only where
    # it is looked up; elsewhere it is in no box, or an element reads 0 there
    outside = r"^lattice point \(2, 0\) outside box of radius 1$"
    if entry in ("linear-index", "linear-indices"):
        with pytest.raises(IndexError, match=outside):
            call((2, 0))
    elif entry == "monomial":
        with pytest.raises(ValueError, match=outside):
            call((2, 0))
    else:
        assert call((2, 0)) is not None


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
