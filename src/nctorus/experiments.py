"""Reproducible experiment runners behind the command-line interface.

Five runners exercise the library end to end: a property suite executing
every module's invariants on seeded random data, a Schatten-norm scan of
random smooth kernels across box sizes, a potential-decay fit for the
diagonal Bessel spectra, a factorization and adjoint identity check, and
the Schwartz coefficient-bound sweep.  All runners are deterministic
given (config, seed).  The scan's grid points, and the two row halves
of each kernel reduction, may run two at a time on schatten._in_lanes;
records are sorted so user-given grids come out in a fixed order.  Each
record type is a dataclass written by the shared emitter in `records`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import schatten
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
    _theta,
    _theta_rows,
    phase_pairs,
    reduce_theta,
)
from .kernels import (
    KernelRows,
    NCKernel,
    SchwartzReport,
    _assembling,
    _random_rows,
    apply_kernel,
    bessel_kernel,
    identity_gaps,
    kernel_matrix,
    mixed_sobolev_norm,
    op_multiply,
    random_kernel,
    schwartz_coefficients,
)
from .lattice import DECAY_GUARD_CARDINALITY, LatticeBox, _finite, _guard_box, _integer
from .lattice import _order, _positive, _same_dimension, _seed, _shown, _torus_dimension
from .multipliers import _bessel, apply_multiplier, bessel_weights, riesz_weights
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


def default_theta(d: int) -> ThetaMatrix:
    """Skew matrix with an irrational twist in the leading 2x2 block."""
    entries = np.zeros((d, d))
    entries[1, 0] = _IRRATIONAL
    entries[0, 1] = -_IRRATIONAL
    return ThetaMatrix(entries)


def _radii(grid) -> tuple:
    """An N grid's entries as ints, in its order: a nonempty list or tuple of integers >= 0."""
    if not isinstance(grid, (list, tuple)):
        raise ValueError(f"N_grid must be a list of integers, got {_shown(grid)}")
    radii = tuple(_integer("N_grid entry", n) for n in grid)
    if not radii or any(n < 0 for n in radii):
        raise ValueError(f"N grid must be nonempty and nonnegative, got {_shown(radii)}")
    return radii


def _potential_order(alpha) -> float:
    """alpha as decay's potential order: a finite float > 0."""
    if _finite("alpha", alpha) <= 0:
        raise ValueError(f"potential order must be positive, got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every input that sets a run's numbers, validated and resolved on construction.

    theta, r_grid and s0 may be given as None.  Construction replaces
    them with their defaults: the irrational twist of default_theta for d,
    (1.1 r_star, 1, 2) and d + 1.  So every field holds the value the run
    uses.  N_grid is stored as a strictly increasing tuple of ints, so its
    last entry is the largest box.
    """

    d: int = 2
    theta: ThetaMatrix | None = None
    N_grid: tuple = (4, 6, 8, 10)
    alpha1: float = 1.0
    alpha2: float = 1.0
    r_grid: tuple | None = None
    s_margin: float = 0.5
    seed: int = 42
    s0: float | None = None
    alpha: float = 2.0  # decay's potential order, > 0; every config checks it, decay reads it

    def __post_init__(self) -> None:
        def store(name: str, value) -> None:
            object.__setattr__(self, name, value)

        store("d", _torus_dimension("d", self.d))
        store("theta", default_theta(self.d) if self.theta is None else _theta(self.theta))
        _same_dimension("theta", self.theta.d, "config", self.d)
        grid = _radii(self.N_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"N grid must be strictly increasing, got {_shown(grid)}")
        store("N_grid", grid)
        for name in ("alpha1", "alpha2", "s_margin"):
            store(name, _finite(name, getattr(self, name)))
        store("alpha", _potential_order(self.alpha))
        store("s0", float(self.d + 1) if self.s0 is None else _finite("s0", self.s0))
        store("seed", _seed(self.seed))
        r_star = self.r_star  # refuses negative orders
        _order("min(alpha1, alpha2) + d/2 + s_margin", min(self.envelope_exponents()))
        if self.r_grid is None:
            store("r_grid", (r_star * 1.1, 1.0, 2.0))
        elif not isinstance(self.r_grid, (list, tuple)):
            raise ValueError(f"r_grid must be a list of numbers, got {self.r_grid!r}")
        elif not self.r_grid:
            raise ValueError("r_grid must be nonempty, got ()")
        else:
            store("r_grid", tuple(_positive("r_grid entry", r) for r in self.r_grid))

    @property
    def reduced(self) -> ReducedTheta:
        return reduce_theta(self.theta)

    @property
    def r_star(self) -> float:
        return critical_exponent(self.d, self.alpha1, self.alpha2)

    def envelope_exponents(self) -> tuple:
        """Random-kernel envelope giving membership in H^{alpha1, alpha2}."""
        half_d = self.d / 2.0
        return (
            self.alpha1 + half_d + self.s_margin,
            self.alpha2 + half_d + self.s_margin,
        )

    @staticmethod
    def from_json(doc: dict, **overrides) -> "ExperimentConfig":
        """The config of a JSON object with overrides laid over it.

        A key that overrides names is never read from doc.  theta comes as
        rows and takes its dimension from them; __post_init__ checks it
        against d.  A null theta, r_grid or s0 takes its default.  An
        r_grid entry "inf" is the infinite r, written so by strict JSON.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"config has unknown keys: {sorted(unknown)}")
        values = {key: value for key, value in doc.items() if key not in overrides}
        if isinstance(values.get("r_grid"), list):
            values["r_grid"] = [math.inf if r == "inf" else r for r in values["r_grid"]]
        if values.get("theta") is not None:
            theta = _theta_rows(values["theta"])
            values = {"d": theta.d, **values, "theta": theta}
        return ExperimentConfig(**{**values, **overrides})

    def to_json(self) -> dict:
        """The JSON object that from_json reads back as this config: its fields, theta as rows."""
        return {**vars(self), "theta": self.theta.entries.tolist()}


def kernel_source(config: ExperimentConfig, radius: int) -> KernelRows:
    """The kernel that scan, factor and schwartz test, as its row stream.

    A random kernel over config.reduced on the box of this radius, drawn
    from config.seed, whose envelope puts it in the mixed Sobolev space of
    orders (alpha1, alpha2).  The runners reduce the draw as it is made
    and never hold its coefficients.
    """
    s1, s2 = config.envelope_exponents()
    return _random_rows(config.reduced, radius, s1, s2, config.seed)


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


def run_property_suite(seed: int, theta: ThetaMatrix) -> SuiteReport:
    """Execute every module invariant on seeded random data.

    Each check compares with an exact target, so each can fail; tier-1
    pairs every check name with a mutation of the code it checks that
    makes it fail.  A check's error is the largest it recorded, and a NaN
    among them is its error, so a NaN fails the check.
    """
    seed, d = _seed(seed), _theta(theta).d
    red = reduce_theta(theta)
    rng = np.random.Generator(np.random.Philox(key=seed))
    errors = {}  # name -> (tolerance, errors), in the order checks first report

    def draw_points(n: int) -> np.ndarray:
        return rng.integers(-5, 6, size=(n, d))

    def record(name: str, tol: float, *errs: float) -> None:
        errors.setdefault(name, (tol, []))[1].extend(errs)

    # cocycle: additivity in each slot, then the 2-cocycle identity
    def sig(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return phase_pairs(red.entries, a, b)

    m, n, p = draw_points(20), draw_points(20), draw_points(20)
    left = np.max(np.abs(sig(m + n, p) - sig(m, p) * sig(n, p)))
    right = np.max(np.abs(sig(m, n + p) - sig(m, n) * sig(m, p)))
    record("cocycle-bicharacter", 1e-12, left, right)
    lhs = sig(m, n) * sig(m + n, p)
    rhs = sig(n, p) * sig(m, n + p)
    record("cocycle-identity", 1e-12, np.max(np.abs(lhs - rhs)))

    # commutation relation on basis monomials, via the full skew matrix
    box1 = LatticeBox(d, 1)
    for _ in range(10):
        a, b = rng.integers(-1, 2, size=(2, d))
        ua, ub = monomial(red, a, box1), monomial(red, b, box1)
        lhs_el = twisted_convolve(ua, ub)
        phase = np.exp(2j * np.pi * float(a @ theta.entries @ b))
        rhs_el = phase * twisted_convolve(ub, ua)
        record("commutation-relation", 1e-10, _coeff_gap(lhs_el, rhs_el))

    # algebra axioms on random elements
    box = LatticeBox(d, 2)
    one = unit(red, LatticeBox(d, 0))
    for _ in range(8):
        f, g, h = (random_element(red, box, rng) for _ in range(3))
        fg, gf = twisted_convolve(f, g), twisted_convolve(g, f)
        assoc = _coeff_gap(twisted_convolve(fg, h), twisted_convolve(f, twisted_convolve(g, h)))
        record("algebra-associativity", 1e-10, assoc)
        left, right = twisted_convolve(f, one), twisted_convolve(one, f)
        record("algebra-unit", 1e-13, _coeff_gap(left, f), _coeff_gap(right, f))
        record("trace-property", 1e-10, abs(trace(fg) - trace(gf)))
        star = _coeff_gap(involution(fg), twisted_convolve(involution(g), involution(f)))
        record("involution-antihomomorphism", 1e-10, star)
        record("involution-involutive", 1e-13, _coeff_gap(involution(involution(f)), f))
        pairing = abs(inner_product(f, g) - trace(twisted_convolve(involution(g), f)))
        record("plancherel-pairing", 1e-10, pairing, abs(inner_product(f, f) - l2_norm(f) ** 2))
        j = int(rng.integers(1, d + 1))
        df, dg = partial_derivative(f, j), partial_derivative(g, j)
        rule = twisted_convolve(df, g) + twisted_convolve(f, dg)
        record("derivation-leibniz", 1e-10, _coeff_gap(partial_derivative(fg, j), rule))

    # multiplier algebra: inverse pair and the Laplacian symbol
    x = random_element(red, box, rng)
    roundtrip = apply_multiplier(
        bessel_weights(-1.3, box), apply_multiplier(bessel_weights(1.3, box), x)
    )
    lap = laplacian(x)
    via_riesz = (-4.0 * math.pi**2) * apply_multiplier(riesz_weights(2.0, box), x)
    record("multiplier-algebra", 1e-10, _coeff_gap(roundtrip, x), _coeff_gap(lap, via_riesz))

    # left-multiplication matrix agrees with the convolution, truncated
    y = random_element(red, box, rng)
    mat = mult_matrix(x, box)
    err = np.max(np.abs(mat @ y.coeffs - restricted(twisted_convolve(x, y), box).coeffs))
    record("mult-matrix-consistency", 1e-10, err)

    # reversed product: compare against convolution with the transposed
    # reduction (a presentation of the negated twist), entry by entry
    small = LatticeBox(d, 1)
    for _ in range(4):
        a = random_element(red, small, rng)
        b = random_element(red, small, rng)
        prod = op_multiply(a, b)
        _, ref = convolve_coefficients(red.entries.T, small, a.coeffs, small, b.coeffs)
        record("op-multiply-reversal", 1e-12, np.max(np.abs(prod.coeffs - ref)))

    # kernel action: closed form vs the definitional partial trace
    kbox = LatticeBox(d, 1)
    for _ in range(4):
        k = random_kernel(red, 1, 0.5, 0.5, int(rng.integers(0, 2**31)))
        xk = random_element(red, kbox, rng)
        err = _coeff_gap(apply_kernel(k, xk), apply_kernel_definitional(k, xk))
        record("kernel-oracle", 1e-11, err)

    # kernel matrix identities; S_2 through the SVD is the Frobenius norm
    mbox = LatticeBox(d, 2)
    k = random_kernel(red, 2, 1.0, 1.0, (seed + 1) % 2**128)
    mat = kernel_matrix(k)
    hs = schatten_norm(singular_values(mat), 2.0)
    record("kernel-hs-identity", 1e-12, abs(hs - k.l2_norm()) / max(k.l2_norm(), 1e-300))

    for p_idx in (0, mbox.cardinality // 3, mbox.cardinality - 1):
        mono = monomial(red, mbox.enumerate()[p_idx], mbox)
        col = apply_kernel(k, mono).coeffs
        record("kernel-column-consistency", 1e-12, np.max(np.abs(mat[:, p_idx] - col)))

    # the Bessel kernel's matrix is diag(w), so its spectrum is w sorted:
    # exact targets for the Schatten and weak norms
    ranks = np.arange(1, mbox.cardinality + 1)
    for alpha in (0.0, 0.5, 1.7):
        w = bessel_weights(-alpha, mbox)
        gap = kernel_matrix(bessel_kernel(alpha, mbox, red))
        spectrum = singular_values(gap)
        gap[np.diag_indices_from(gap)] -= w
        record("bessel-kernel-diagonal", 1e-13, np.max(np.abs(gap)))
        for t in (0.7, 1.0, 2.0):
            exact = float(np.sum(w**t) ** (1.0 / t))
            weak = float(np.max(ranks ** (1.0 / t) * np.sort(w)[::-1]))
            strong = abs(schatten_norm(spectrum, t) - exact) / exact
            record("schatten-exact", 1e-12, strong, abs(weak_norm(spectrum, t) - weak) / weak)

    drawn = (float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
    adjoint_err, factor_errs = identity_gaps(k, ((1.0, 1.0), (1.5, 0.7), drawn))
    record("factorization", 1e-12, *factor_errs)
    record("adjoint-identity", 1e-12, adjoint_err)

    # linearity of the kernel action in both arguments
    k2 = random_kernel(red, 2, 1.0, 1.0, (seed + 2) % 2**128)
    xa = random_element(red, mbox, rng)
    xb = random_element(red, mbox, rng)
    c1, c2 = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    kx = apply_kernel(k, xa)
    in_kernel = _coeff_gap(apply_kernel(k + c1 * k2, xa), kx + c1 * apply_kernel(k2, xa))
    in_element = _coeff_gap(apply_kernel(k, c2 * xa + xb), c2 * kx + apply_kernel(k, xb))
    record("kernel-linearity", 1e-11, in_kernel, in_element)

    # Schwartz envelope of the Bessel kernel of order beta: its lifted
    # moduli are (1+|n|^2)^(e/2) on the antidiagonal, e = 2 + 2 s0 - beta
    s0, beta = float(d + 1), 1.7
    rep = schwartz_coefficients(bessel_kernel(beta, mbox, red), 1.0, 1.0, s0)
    lifted = (1.0 + np.sum(mbox.enumerate() ** 2, axis=1)) ** ((2.0 + 2.0 * s0 - beta) / 2.0)
    norm = math.sqrt(float(np.sum(lifted**2)))
    ratio = float(np.max(lifted)) / norm
    err = abs(rep.lifted_norm - norm) / norm
    record("schwartz-exact", 1e-12, err, abs(rep.worst_ratio - ratio) / ratio)

    # a rank-one kernel a (x) b acts as x -> tau(x * b) a; the right side
    # reads the product's phase table, not the kernel layer's sigma(p, -p)
    a, b, x = (random_element(red, mbox, rng) for _ in range(3))
    rank_one = NCKernel(red, mbox, np.outer(a.coeffs, b.coeffs))
    err = _coeff_gap(apply_kernel(rank_one, x), trace(twisted_convolve(x, b)) * a)
    record("kernel-rank-one", 1e-12, err)

    return SuiteReport(
        tuple(CheckResult(name, float(np.max(errs)), tol) for name, (tol, errs) in errors.items())
    )


# ---------------------------------------------------------------------------
# theorem scan


@dataclass(frozen=True)
class ScanRecord:
    """One (N, r) row of the scan.

    wall_ms is the time in ms from the start of that N's task (kernel
    draw streamed into the Sobolev norm and the matrix, then SVD) to this row,
    so a later r row of the same N includes the norms of the rows before
    it.  When two grid points run at once, it includes time shared with
    the other.
    """

    N: int
    r: float
    r_star: float
    s_r_norm: float
    weak_r_norm: float
    sobolev_norm: float
    wall_ms: float


def _scan_one(config: ExperimentConfig, radius: int) -> list:
    t0 = time.perf_counter()
    k = kernel_source(config, radius)
    k_mat = np.empty((k.box.cardinality,) * 2, dtype=complex)
    sob = mixed_sobolev_norm(_assembling(k, k_mat), config.alpha1, config.alpha2)
    # the transpose has the same spectrum and is the Fortran-ordered
    # workspace the SVD may overwrite, so nothing is copied
    spectrum = singular_values(k_mat.T, overwrite=True)
    r_star = config.r_star
    records = []
    for r in config.r_grid:
        records.append(
            ScanRecord(
                N=radius,
                r=float(r),
                r_star=r_star,
                s_r_norm=schatten_norm(spectrum, r),
                weak_r_norm=weak_norm(spectrum, r),
                sobolev_norm=sob,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
    return records


def run_theorem_scan(config: ExperimentConfig) -> list:
    """One record per (N, r): Schatten and weak norms of a random smooth kernel.

    The kernel envelope puts it in the mixed Sobolev space of orders
    (alpha1, alpha2) by construction, so the scan watches the truncated
    S_r norms stabilize as the box grows.

    The grid points run through schatten._in_lanes, largest N first, in
    the caller's context (numpy's error state included).  On the bundled
    OpenBLAS, BLAS is pinned to one thread for the whole process while the
    scan runs, on the _lanes() read before the pin: at most two cores, as
    each running grid point holds its kernel_matrix(k), whose transpose
    is its SVD's workspace.  One BLAS thread per SVD makes the spectra the
    same at every thread count.  Without that binding the grid points run
    one at a time on BLAS's own threads.
    """
    _guard_box(config.d, config.N_grid[-1])  # before a smaller N runs
    with schatten._one_blas_thread() as lanes:
        points = schatten._in_lanes(lambda N: _scan_one(config, N), config.N_grid[::-1], lanes)
    records = [rec for point in points for rec in point]
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


def _potential_spectrum(box: LatticeBox, alpha: float) -> SingularSpectrum:
    """The box's weights (1 + |n|^2)^(-alpha/2), sorted, one per shell with its point count."""
    norms, counts = box.shells()
    weights = _bessel(norms.astype(float), -alpha)
    order = np.argsort(weights)[::-1]
    return SingularSpectrum(weights[order], counts[order])


def _decay_one(d: int, alpha: float, radius: int) -> DecayRecord:
    box = LatticeBox(d, radius)
    spectrum = _potential_spectrum(box, alpha)
    p = d / alpha
    k_min, k_max = default_decay_window(box.cardinality)
    where = f"decay at N={radius}, alpha={alpha:g}: the fit window [{k_min}, {k_max}]"
    # distinct shells can round to one weight, so the ranks' weights are compared
    first, last = spectrum.window(k_min, k_min)[0], spectrum.window(k_max, k_max)[0]
    if last == 0.0:
        raise ValueError(f"{where} holds weights that underflow to 0")
    if first == last:
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
    guard are cheap: each box's spectrum is its distinct weights, one per
    shell |n|^2, with the shells' point counts, and no per-point table is
    built.  Each box is held to DECAY_GUARD_CARDINALITY points all the
    same, checked for the whole grid first.  N = 0 leaves no fit window
    and is refused with the grid checks, and a window of equal weights (N =
    1 at d = 2) or of weights flushed to 0 before its fit.  The p-th power
    sum is emitted alongside as data (it diverges logarithmically at the
    weak endpoint).  Nothing here asserts on the records, and `decay`
    never exits 1: tier-1 acceptance criterion 7 and the benchmark's
    output check test the weak norm and the slope.
    """
    d = _torus_dimension("d", d)
    alpha = _potential_order(alpha)
    grid = _radii(N_grid)
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
    rng = np.random.Generator(np.random.Philox(key=(config.seed + radius) % 2**128))
    pairs = [(config.alpha1, config.alpha2)]
    pairs += [(float(rng.uniform(0, 3)), float(rng.uniform(0, 3))) for _ in range(3)]
    adj_err, factor_errs = identity_gaps(k, pairs)
    return [
        FactorizationRecord(
            N=radius,
            alpha1=a1,
            alpha2=a2,
            factor_error=err,
            adjoint_error=adj_err,
        )
        for (a1, a2), err in zip(pairs, factor_errs)
    ]


def run_factorization_check(config: ExperimentConfig) -> list:
    """Relative Frobenius gap of the multiplier/kernel factorization.

    For each N the identity (Bessel multiplier) . (kernel operator) =
    (lifted-kernel operator) . (inverse Bessel multiplier) is assembled
    both ways, together with the adjoint-kernel/conjugate-transpose gap:
    the adjoint gap and the four factorization gaps reduce one pass over
    the kernel's row stream.
    """
    _guard_box(config.d, config.N_grid[-1])  # before a smaller N runs
    records = [rec for radius in config.N_grid for rec in _factor_one(config, radius)]
    records.sort(key=lambda rec: (rec.N, rec.alpha1, rec.alpha2))
    return records


def max_factor_error(records) -> float:
    """The largest gap of the records, NaN if any gap is NaN."""
    return float(np.max([(rec.factor_error, rec.adjoint_error) for rec in records]))


# ---------------------------------------------------------------------------
# Schwartz bound run


def run_schwartz_bound(config: ExperimentConfig) -> SchwartzReport:
    """Worst coefficient-to-envelope ratio for a random kernel.

    The decay margin s0 must exceed the dimension; the value used is
    recorded in the report so output metadata pins the choice.
    """
    k = kernel_source(config, config.N_grid[-1])
    return schwartz_coefficients(k, config.alpha1, config.alpha2, config.s0)
