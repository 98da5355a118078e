"""Reproducible experiment runners behind the command-line interface.

Four runners exercise the library end to end: a property suite executing
every module's invariants on seeded random data, a Schatten-norm scan of
random smooth kernels across box sizes, a potential-decay fit for the
diagonal Bessel spectra, a factorization and adjoint identity check, and
the Schwartz coefficient-bound sweep.  All runners are deterministic
given (config, seed); grid points run one after another, and records are
sorted so user-given grids come out in a fixed order.  Each record type
is a dataclass written by the shared emitter in `records`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import (
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
from .cocycle import (
    ReducedTheta,
    ThetaMatrix,
    diagonal_phases,
    phase_pairs,
    reduce_theta,
    theta_from_json,
)
from .kernels import (
    NCKernel,
    SchwartzReport,
    adjoint_gap,
    apply_kernel,
    bessel_kernel,
    factorization_gap,
    kernel_matrix,
    mixed_sobolev_norm,
    op_multiply,
    random_kernel,
    schwartz_coefficients,
)
from .lattice import DECAY_GUARD_CARDINALITY, LatticeBox, _guard_box, _guard_dimension
from .lattice import _finite, _integer, _positive, _shown, _sum_squares
from .multipliers import apply_multiplier, bessel_weights, riesz_weights
from .records import JSON_ONLY
from .reference import apply_kernel_definitional, convolve_coefficients
from .schatten import (
    SingularSpectrum,
    critical_exponent,
    decay_exponent,
    default_decay_window,
    schatten_norm,
    singular_values,
    weak_norm,
)

__all__ = [
    "ExperimentConfig",
    "ScanRecord",
    "DecayRecord",
    "FactorizationRecord",
    "CheckResult",
    "SuiteReport",
    "default_theta",
    "kernel_source",
    "run_property_suite",
    "run_theorem_scan",
    "run_potential_decay",
    "run_factorization_check",
    "run_schwartz_bound",
]

_IRRATIONAL = 0.7071067811865476  # double closest to 1/sqrt(2)


def default_theta(d: int = 2) -> ThetaMatrix:
    """Skew matrix with an irrational twist in the leading 2x2 block."""
    entries = np.zeros((d, d))
    entries[1, 0] = _IRRATIONAL
    entries[0, 1] = -_IRRATIONAL
    return ThetaMatrix(entries)


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs for the grid runners; validated on construction."""

    d: int = 2
    theta: ThetaMatrix | None = None
    N_grid: tuple = (4, 6, 8, 10)
    alpha1: float = 1.0
    alpha2: float = 1.0
    r_grid: tuple | None = None
    s_margin: float = 0.5
    seed: int = 42
    s0: float | None = None
    out: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        def store(name: str, value) -> None:
            object.__setattr__(self, name, value)

        store("d", _integer("d", self.d))
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {_shown(self.d)}")
        _guard_dimension(self.d)
        if self.theta is not None and self.theta.d != self.d:
            raise ValueError(
                f"theta has dimension {self.theta.d}, config says d={self.d}"
            )
        if not isinstance(self.N_grid, (list, tuple)):
            raise ValueError(f"N_grid must be a list of integers, got {self.N_grid!r}")
        grid = tuple(_integer("N_grid entry", n) for n in self.N_grid)
        if not grid or any(n < 0 for n in grid):
            raise ValueError(f"N grid must be nonempty and nonnegative, got {_shown(grid)}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"N grid must be strictly increasing, got {_shown(grid)}")
        store("N_grid", grid)
        for name in ("alpha1", "alpha2", "s_margin"):
            store(name, _finite(name, getattr(self, name)))
        if self.s0 is not None:
            store("s0", _finite("s0", self.s0))
        store("seed", _integer("seed", self.seed))
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {_shown(self.seed)}")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError(
                f"smoothness orders must be nonnegative, got ({self.alpha1}, {self.alpha2})"
            )
        if self.r_grid is not None:
            if not isinstance(self.r_grid, (list, tuple)):
                raise ValueError(f"r_grid must be a list of numbers, got {self.r_grid!r}")
            store("r_grid", tuple(_positive("r_grid entry", r) for r in self.r_grid))
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, got {self.out!r}")

    @property
    def resolved_theta(self) -> ThetaMatrix:
        return self.theta if self.theta is not None else default_theta(self.d)

    @property
    def reduced(self) -> ReducedTheta:
        return reduce_theta(self.resolved_theta)

    @property
    def r_star(self) -> float:
        return critical_exponent(self.d, self.alpha1, self.alpha2)

    @property
    def resolved_r_grid(self) -> tuple:
        if self.r_grid is not None:
            return self.r_grid
        return (self.r_star * 1.1, 1.0, 2.0)

    @property
    def resolved_s0(self) -> float:
        return self.s0 if self.s0 is not None else float(self.d + 1)

    def envelope_exponents(self) -> tuple:
        """Random-kernel envelope giving membership in H^{alpha1, alpha2}."""
        half_d = self.d / 2.0
        return (
            self.alpha1 + half_d + self.s_margin,
            self.alpha2 + half_d + self.s_margin,
        )

    @staticmethod
    def from_json(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"config has unknown keys: {sorted(unknown)}")
        if "theta" in doc:
            # theta takes its dimension from its rows; __post_init__ checks it against d
            rows = doc["theta"]
            size = len(rows) if isinstance(rows, list) else 2
            doc = {"d": size, **doc, "theta": theta_from_json({"d": size, "theta": rows})}
        return ExperimentConfig(**doc)


def kernel_source(config: ExperimentConfig, radius: int) -> NCKernel:
    """The kernel that scan, factor and schwartz test on the box of this radius.

    A random kernel over config.reduced, drawn from config.seed, whose
    envelope puts it in the mixed Sobolev space of orders (alpha1, alpha2).
    """
    s1, s2 = config.envelope_exponents()
    return random_kernel(config.reduced, radius, s1, s2, config.seed)


# ---------------------------------------------------------------------------
# property suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.max_error <= self.tolerance)

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return f"{mark}  {self.name}: max error {self.max_error:.3e} (tol {self.tolerance:.1e})"


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))

    @property
    def failures(self) -> tuple:
        return tuple(c.name for c in self.checks if not c.passed)


def _coeff_gap(x, y) -> float:
    """Max coefficient difference after aligning supports."""
    r = max(x.box.radius, y.box.radius)
    box = LatticeBox(x.box.d, r)
    return float(np.max(np.abs(embedded(x, box).coeffs - embedded(y, box).coeffs)))


def run_property_suite(
    seed: int = 42,
    theta: ThetaMatrix | None = None,
) -> SuiteReport:
    """Execute every module invariant on seeded random data."""
    full = theta if theta is not None else default_theta(2)
    d = full.d
    red = reduce_theta(full)
    rng = np.random.Generator(np.random.Philox(key=seed))
    checks = []

    def draw_points(n: int) -> np.ndarray:
        return rng.integers(-5, 6, size=(n, d))

    def record(name: str, err: float, tol: float) -> None:
        checks.append(CheckResult(name, float(err), tol))

    # cocycle: additivity in each slot, then the 2-cocycle identity
    def sig(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return phase_pairs(red.entries, a, b)

    m, n, p = draw_points(20), draw_points(20), draw_points(20)
    err = max(
        float(np.max(np.abs(sig(m + n, p) - sig(m, p) * sig(n, p)))),
        float(np.max(np.abs(sig(m, n + p) - sig(m, n) * sig(m, p)))),
    )
    record("cocycle-bicharacter", err, 1e-12)
    lhs = sig(m, n) * sig(m + n, p)
    rhs = sig(n, p) * sig(m, n + p)
    record("cocycle-identity", float(np.max(np.abs(lhs - rhs))), 1e-12)

    # commutation relation on basis monomials, via the full skew matrix
    box1 = LatticeBox(d, 1)
    err = 0.0
    for _ in range(10):
        a, b = rng.integers(-1, 2, size=(2, d))
        ua, ub = monomial(red, a, box1), monomial(red, b, box1)
        lhs_el = twisted_convolve(ua, ub)
        phase = np.exp(2j * np.pi * float(a @ full.entries @ b))
        rhs_el = phase * twisted_convolve(ub, ua)
        err = max(err, _coeff_gap(lhs_el, rhs_el))
    record("commutation-relation", err, 1e-10)

    # algebra axioms on random elements
    box = LatticeBox(d, 2)
    err_assoc = err_unit = err_trace = err_star = err_invol = 0.0
    err_plancherel = err_leibniz = 0.0
    for _ in range(8):
        f = random_element(red, box, rng)
        g = random_element(red, box, rng)
        h = random_element(red, box, rng)
        err_assoc = max(
            err_assoc,
            _coeff_gap(
                twisted_convolve(twisted_convolve(f, g), h),
                twisted_convolve(f, twisted_convolve(g, h)),
            ),
        )
        one = unit(red, LatticeBox(d, 0))
        err_unit = max(
            err_unit,
            _coeff_gap(twisted_convolve(f, one), f),
            _coeff_gap(twisted_convolve(one, f), f),
        )
        fg, gf = twisted_convolve(f, g), twisted_convolve(g, f)
        err_trace = max(err_trace, abs(trace(fg) - trace(gf)))
        err_star = max(
            err_star,
            _coeff_gap(involution(fg), twisted_convolve(involution(g), involution(f))),
        )
        err_invol = max(err_invol, _coeff_gap(involution(involution(f)), f))
        pairing = trace(twisted_convolve(involution(g), f))
        err_plancherel = max(
            err_plancherel,
            abs(inner_product(f, g) - pairing),
            abs(inner_product(f, f) - l2_norm(f) ** 2),
        )
        j = int(rng.integers(1, d + 1))
        err_leibniz = max(
            err_leibniz,
            _coeff_gap(
                partial_derivative(fg, j),
                twisted_convolve(partial_derivative(f, j), g)
                + twisted_convolve(f, partial_derivative(g, j)),
            ),
        )
    record("algebra-associativity", err_assoc, 1e-10)
    record("algebra-unit", err_unit, 1e-13)
    record("trace-property", err_trace, 1e-10)
    record("involution-antihomomorphism", err_star, 1e-10)
    record("involution-involutive", err_invol, 1e-13)
    record("plancherel-pairing", err_plancherel, 1e-10)
    record("derivation-leibniz", err_leibniz, 1e-10)

    # multiplier algebra: inverse pair and the Laplacian symbol
    x = random_element(red, box, rng)
    roundtrip = apply_multiplier(
        bessel_weights(-1.3, box), apply_multiplier(bessel_weights(1.3, box), x)
    )
    err = _coeff_gap(roundtrip, x)
    lap = laplacian(x)
    via_riesz = (-4.0 * math.pi**2) * apply_multiplier(riesz_weights(2.0, box), x)
    err = max(err, _coeff_gap(lap, via_riesz))
    record("multiplier-algebra", err, 1e-10)

    # left-multiplication matrix agrees with the convolution, truncated
    y = random_element(red, box, rng)
    mat = mult_matrix(x, box)
    err = float(np.max(np.abs(mat @ y.coeffs - restricted(twisted_convolve(x, y), box).coeffs)))
    record("mult-matrix-consistency", err, 1e-10)

    # reversed product: compare against convolution with the transposed
    # reduction (a presentation of the negated twist), entry by entry
    small = LatticeBox(d, 1)
    err = 0.0
    for _ in range(4):
        a = random_element(red, small, rng)
        b = random_element(red, small, rng)
        prod = op_multiply(a, b)
        _, ref = convolve_coefficients(
            red.entries.T, small, a.coeffs, small, b.coeffs
        )
        err = max(err, float(np.max(np.abs(prod.coeffs - ref))))
    record("op-multiply-reversal", err, 1e-12)

    # kernel action: closed form vs the definitional partial trace
    kbox = LatticeBox(d, 1)
    err = 0.0
    for _ in range(4):
        k = random_kernel(red, 1, 0.5, 0.5, int(rng.integers(0, 2**31)))
        xk = random_element(red, kbox, rng)
        err = max(err, _coeff_gap(apply_kernel(k, xk), apply_kernel_definitional(k, xk)))
    record("kernel-oracle", err, 1e-11)

    # kernel matrix identities
    mbox = LatticeBox(d, 2)
    k = random_kernel(red, 2, 1.0, 1.0, (seed + 1) % 2**128)
    mat = kernel_matrix(k)
    err = abs(math.sqrt(_sum_squares(mat)) - k.l2_norm()) / max(k.l2_norm(), 1e-300)
    record("kernel-hs-identity", err, 1e-12)

    err = 0.0
    for p_idx in (0, mbox.cardinality // 3, mbox.cardinality - 1):
        mono = monomial(red, mbox.enumerate()[p_idx], mbox)
        col = apply_kernel(k, mono).coeffs
        err = max(err, float(np.max(np.abs(mat[:, p_idx] - col))))
    record("kernel-column-consistency", err, 1e-12)

    err = 0.0
    for alpha in (0.0, 0.5, 1.7):
        gap = kernel_matrix(bessel_kernel(alpha, mbox, red))
        gap[np.diag_indices_from(gap)] -= bessel_weights(-alpha, mbox)
        err = max(err, float(np.max(np.abs(gap))))
    record("bessel-kernel-diagonal", err, 1e-13)

    err = 0.0
    for a1, a2 in ((0.0, 0.0), (1.0, 1.0), (1.5, 0.7), (float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))):
        err = max(err, factorization_gap(k, a1, a2))
    record("factorization", err, 1e-12)

    record("adjoint-identity", adjoint_gap(k), 1e-12)

    # linearity of the kernel action in both arguments
    k2 = random_kernel(red, 2, 1.0, 1.0, (seed + 2) % 2**128)
    xa = random_element(red, mbox, rng)
    xb = random_element(red, mbox, rng)
    c1, c2 = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    err = _coeff_gap(
        apply_kernel(k + c1 * k2, xa),
        apply_kernel(k, xa) + c1 * apply_kernel(k2, xa),
    )
    err = max(
        err,
        _coeff_gap(
            apply_kernel(k, c2 * xa + xb),
            c2 * apply_kernel(k, xa) + apply_kernel(k, xb),
        ),
    )
    record("kernel-linearity", err, 1e-11)

    # Schatten block: unitary invariance under the cocycle diagonal,
    # adjoint norm equality, Hoelder composition, ideal inequality
    phases = diagonal_phases(red, mbox)
    spec_a = singular_values(mat)
    spec_b = singular_values(phases[:, None] * mat)
    denom = max(float(spec_a.values[0]), 1e-300)
    record(
        "schatten-unitary-invariance",
        float(np.max(np.abs(spec_a.values - spec_b.values))) / denom,
        1e-11,
    )
    err = 0.0
    for t in (0.7, 1.0, 2.0):
        err = max(
            err,
            abs(
                schatten_norm(singular_values(mat.conj().T), t)
                - schatten_norm(spec_a, t)
            )
            / max(schatten_norm(spec_a, t), 1e-300),
        )
    record("schatten-adjoint-norm", err, 1e-11)

    viol = 0.0
    side = 24
    for p2 in (1.0, 2.0, 4.0):
        t = 1.0 / (0.5 + 1.0 / p2)
        for _ in range(6):
            a_m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            b_m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            lhs_n = schatten_norm(singular_values(a_m @ b_m), t)
            rhs_n = schatten_norm(singular_values(a_m), 2.0) * schatten_norm(
                singular_values(b_m), p2
            )
            viol = max(viol, lhs_n - rhs_n)
    record("holder-composition", max(viol, 0.0), 1e-10)

    a_m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    b_m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    mu_ab = singular_values(a_m @ b_m).values
    mu_b = singular_values(b_m).values
    a_top = singular_values(a_m).values[0]
    record("schatten-ideal", max(float(np.max(mu_ab - a_top * mu_b)), 0.0), 1e-10)

    # Schwartz coefficient bound with the default margin
    rep = schwartz_coefficients(k, 1.0, 1.0, float(d + 1))
    record("schwartz-bound", max(rep.worst_ratio - 1.0, 0.0), 1e-10)

    return SuiteReport(tuple(checks))


# ---------------------------------------------------------------------------
# theorem scan


@dataclass(frozen=True)
class ScanRecord:
    """One (N, r) row of the scan.

    wall_ms is the time in ms from the start of that N's task (kernel
    draw, Sobolev norm, matrix assembly, SVD, in that order) to this row,
    so a later r row of the same N includes the norms of the rows before
    it.
    at_threshold marks r == r_star and appears in JSON only.
    """

    N: int
    r: float
    r_star: float
    s_r_norm: float
    weak_r_norm: float
    sobolev_norm: float
    wall_ms: float
    at_threshold: bool = field(default=False, metadata=JSON_ONLY)


def _scan_one(config: ExperimentConfig, radius: int) -> list:
    t0 = time.perf_counter()
    k = kernel_source(config, radius)
    sob = mixed_sobolev_norm(k, config.alpha1, config.alpha2)
    k_mat = kernel_matrix(k)
    del k  # its memory can then hold the SVD's working copy
    spectrum = singular_values(k_mat)
    r_star = config.r_star
    records = []
    for r in config.resolved_r_grid:
        records.append(
            ScanRecord(
                N=radius,
                r=float(r),
                r_star=r_star,
                s_r_norm=schatten_norm(spectrum, r),
                weak_r_norm=weak_norm(spectrum, r),
                sobolev_norm=sob,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                at_threshold=(r == r_star),
            )
        )
    return records


def run_theorem_scan(config: ExperimentConfig) -> list:
    """One record per (N, r): Schatten and weak norms of a random smooth kernel.

    The kernel envelope puts it in the mixed Sobolev space of orders
    (alpha1, alpha2) by construction, so the scan watches the truncated
    S_r norms stabilize as the box grows.
    """
    for radius in config.N_grid:
        _guard_box(config.d, radius)
    records = [rec for radius in config.N_grid for rec in _scan_one(config, radius)]
    records.sort(key=lambda rec: (rec.N, rec.r))
    return records


# ---------------------------------------------------------------------------
# potential decay


@dataclass(frozen=True)
class DecayRecord:
    N: int
    p: float
    weak_norm: float
    slope: float
    residual: float
    s_p_norm: float


def _decay_one(d: int, alpha: float, radius: int) -> DecayRecord:
    box = LatticeBox(d, radius)
    vals = np.sort(bessel_weights(-alpha, box))[::-1]
    spectrum = SingularSpectrum(vals)
    p = d / alpha
    k_min, k_max = default_decay_window(box.cardinality)
    where = f"decay at N={radius}, alpha={alpha:g}: the fit window [{k_min}, {k_max}]"
    if vals[k_max] == 0.0:
        raise ValueError(f"{where} holds weights that underflow to 0")
    if vals[k_min] == vals[k_max]:
        raise ValueError(f"{where} holds equal weights only, so it shows no decay")
    fit = decay_exponent(spectrum, k_min, k_max)
    return DecayRecord(
        N=radius,
        p=p,
        weak_norm=weak_norm(spectrum, p),
        slope=fit.slope,
        residual=fit.residual,
        s_p_norm=schatten_norm(spectrum, p),
    )


def run_potential_decay(d: int, alpha: float, N_grid) -> list:
    """Weak norm and fitted decay slope of the order -alpha Bessel spectra.

    Diagonal spectra need no SVD, so boxes far beyond the dense-matrix
    guard are cheap; each box is held to DECAY_GUARD_CARDINALITY points
    instead, checked for the whole grid first.  N = 0 leaves no fit window
    and is refused with the grid checks, and a window of equal weights (N =
    1 at d = 2) or of weights flushed to 0 before its fit.  The p-th power
    sum is emitted alongside as data (it diverges logarithmically at the
    weak endpoint); only the weak norm and the slope carry assertions.
    """
    if _finite("alpha", alpha) <= 0:
        raise ValueError(f"potential order must be positive, got {alpha}")
    grid = [_integer("N_grid entry", n) for n in N_grid]
    for radius in grid:
        if radius < 1:
            raise ValueError(
                f"decay needs every N_grid entry to be at least 1, got {_shown(radius)}"
            )
        _guard_box(d, radius, DECAY_GUARD_CARDINALITY, "point-count")
    records = [_decay_one(d, alpha, radius) for radius in grid]
    records.sort(key=lambda rec: rec.N)
    return records


# ---------------------------------------------------------------------------
# factorization check


@dataclass(frozen=True)
class FactorizationRecord:
    N: int
    alpha1: float
    alpha2: float
    factor_error: float
    adjoint_error: float


FACTOR_TOLERANCE = 1e-12


def _factor_one(config: ExperimentConfig, radius: int) -> list:
    k = kernel_source(config, radius)
    adj_err = adjoint_gap(k)
    rng = np.random.Generator(np.random.Philox(key=(config.seed + radius) % 2**128))
    pairs = [(config.alpha1, config.alpha2), (0.0, 0.0)]
    pairs += [(float(rng.uniform(0, 3)), float(rng.uniform(0, 3))) for _ in range(3)]
    return [
        FactorizationRecord(
            N=radius,
            alpha1=a1,
            alpha2=a2,
            factor_error=factorization_gap(k, a1, a2),
            adjoint_error=adj_err,
        )
        for a1, a2 in pairs
    ]


def run_factorization_check(config: ExperimentConfig) -> list:
    """Relative Frobenius gap of the multiplier/kernel factorization.

    For each N the identity (Bessel multiplier) . (kernel operator) =
    (lifted-kernel operator) . (inverse Bessel multiplier) is assembled
    both ways, together with the adjoint-kernel/conjugate-transpose gap.
    """
    for radius in config.N_grid:
        _guard_box(config.d, radius)
    records = [rec for radius in config.N_grid for rec in _factor_one(config, radius)]
    records.sort(key=lambda rec: (rec.N, rec.alpha1, rec.alpha2))
    return records


def max_factor_error(records) -> float:
    return max(
        max(rec.factor_error for rec in records),
        max(rec.adjoint_error for rec in records),
    )


# ---------------------------------------------------------------------------
# Schwartz bound run


def run_schwartz_bound(config: ExperimentConfig) -> SchwartzReport:
    """Worst coefficient-to-envelope ratio for a random kernel.

    The decay margin s0 must exceed the dimension; the value used is
    recorded in the report so output metadata pins the choice.
    """
    s0 = config.resolved_s0
    radius = max(config.N_grid)
    _guard_box(config.d, radius)
    k = kernel_source(config, radius)
    return schwartz_coefficients(k, config.alpha1, config.alpha2, s0)
