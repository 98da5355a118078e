"""Integral kernels over the twisted algebra and its opposite.

A kernel is a square coefficient matrix c_{m,n} over one lattice box,
representing k = sum c_{m,n} U^m (x) U^n with both tensor legs on that
box and the second leg carrying the reversed product.  Its integral
operator acts by a partial trace over the second leg; on Fourier
coefficients this collapses to the closed form

    (T_k x)(m) = sum_n c_{m,n} sigma(-n, n) x(-n),

so the operator's matrix has entry (m, p) = c_{m,-p} sigma(p, -p).  The
unimodular sigma factors make the matrix assembly an index permutation
plus a diagonal phase, which keeps Frobenius norms equal to kernel L2
norms exactly.

Every dense step works in row blocks of _BLOCK_ENTRIES entries: the draw
fills its coefficients block by block, the norms reduce one block of
lifted moduli at a time, and flip_adjoint fills one block of columns at
a time.  So no step holds an n x n temporary beside the arrays it
returns.  The row forms _matrix_rows and _lift_rows and the column form
_flip_cols are the bodies of kernel_matrix, sobolev_lift and flip_adjoint,
so a block of any is bit for bit those rows or columns of the whole.  The
identity gaps factorization_gap and adjoint_gap build both sides from
these forms and share one reduction, _relative_gap, of sums of squares.
Every sum of squares here, in the gaps, the lifted norms and l2_norm, is
lattice._sum_squares, which never calls BLAS: its result does not depend
on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import TorusElement, embedded, twisted_convolve
from .cocycle import ReducedTheta, diagonal_phases
from .lattice import LatticeBox, _guard_box, _sum_squares
from .multipliers import _scaled_extremes, bessel_weights
from .records import JSON_ONLY

__all__ = [
    "NCKernel",
    "op_multiply",
    "apply_kernel",
    "kernel_matrix",
    "bessel_kernel",
    "sobolev_lift",
    "mixed_sobolev_norm",
    "flip_adjoint",
    "factorization_gap",
    "adjoint_gap",
    "SchwartzReport",
    "schwartz_coefficients",
    "random_kernel",
]

# Entries per row block: 256 KiB of complex data, well inside a core's L2.
_BLOCK_ENTRIES = 1 << 14


def _row_blocks(n: int):
    """Slices covering range(n), each at most _BLOCK_ENTRIES // n rows of n.

    A block has at least one row.
    """
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


@dataclass(frozen=True, eq=False)
class NCKernel:
    """Coefficient matrix of a kernel over box x box, one row per first-leg point.

    A complex ndarray that owns its data is taken as it is, without a
    copy, and made read-only: the caller's handle to it becomes read-only
    too.  Anything else (a view, a list, another dtype) is copied.  Either
    way coeffs is never writeable.
    """

    theta: ReducedTheta
    box: LatticeBox
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.box.d != self.theta.d:
            raise ValueError(
                f"kernel box has dimension {self.box.d}; theta has dimension {self.theta.d}"
            )
        arr = self.coeffs
        if not (isinstance(arr, np.ndarray) and arr.dtype == complex and arr.flags.owndata):
            arr = np.array(arr, dtype=complex)
        want = (self.box.cardinality,) * 2
        if arr.shape != want:
            raise ValueError(f"coefficient matrix has shape {arr.shape}, expected {want}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def l2_norm(self) -> float:
        """Tensor-product Plancherel norm: the Frobenius norm of the coefficients."""
        return math.sqrt(_sum_squares(self.coeffs))

    def __add__(self, other: "NCKernel") -> "NCKernel":
        if not isinstance(other, NCKernel):
            return NotImplemented
        if self.theta != other.theta:
            raise ValueError("kernels live over different deformation matrices")
        if self.box != other.box:
            raise ValueError("kernel boxes differ")
        return NCKernel(self.theta, self.box, self.coeffs + other.coeffs)

    def __mul__(self, scalar: complex) -> "NCKernel":
        if not isinstance(scalar, (int, float, complex, np.number)):
            return NotImplemented
        return NCKernel(self.theta, self.box, self.coeffs * complex(scalar))

    __rmul__ = __mul__


def op_multiply(a: TorusElement, b: TorusElement) -> TorusElement:
    """The reversed product a . b = b * a used on the second tensor leg."""
    return twisted_convolve(b, a)


def apply_kernel(k: NCKernel, x: TorusElement) -> TorusElement:
    """Act with the kernel's integral operator on x.

    Closed form of the partial trace over the second leg: the output
    coefficient at m is sum_n c_{m,n} sigma(-n, n) x(-n).  x must be
    supported inside the kernel's box.
    """
    if x.theta != k.theta:
        raise ValueError("kernel and argument live over different deformation matrices")
    if x.box.radius > k.box.radius:
        raise ValueError(
            f"argument radius {x.box.radius} exceeds the kernel's radius {k.box.radius}"
        )
    xe = embedded(x, k.box)
    out = k.coeffs @ (diagonal_phases(k.theta, k.box) * xe.coeffs[::-1])
    return TorusElement(k.theta, k.box, out)


def kernel_matrix(k: NCKernel) -> np.ndarray:
    """Matrix of the kernel's operator: entry (m, p) = c_{m,-p} sigma(p, -p).

    Column p holds the coefficients of the operator applied to the basis
    monomial at p, in the box's canonical order.  The result is a fresh
    array the caller may modify.  Negation reverses the canonical order,
    so the column permutation is a reversed view.
    """
    return _matrix_rows(k.coeffs, diagonal_phases(k.theta, k.box))


def _matrix_rows(coeff_rows: np.ndarray, col_phases: np.ndarray) -> np.ndarray:
    """Rows of kernel_matrix from the same rows of coefficients, a fresh array."""
    return coeff_rows[:, ::-1] * col_phases[None, :]


def bessel_kernel(alpha2: float, box: LatticeBox, theta: ReducedTheta) -> NCKernel:
    """The kernel sum_n (1+|n|^2)^(-alpha2/2) U^n (x) (U^n)* on box x box.

    Resolving (U^n)* = conj(sigma(n,-n)) U^{-n} puts the weight at
    coefficient (n, -n) with the conjugate phase attached.
    """
    _guard_box(box.d, box.radius)
    weights = bessel_weights(-alpha2, box) * np.conj(diagonal_phases(theta, box))
    coeffs = np.zeros((box.cardinality, box.cardinality), dtype=complex)
    np.fill_diagonal(coeffs[:, ::-1], weights)
    return NCKernel(theta, box, coeffs)


def sobolev_lift(k: NCKernel, alpha1: float, alpha2: float) -> NCKernel:
    """Scale c_{m,n} by (1+|m|^2)^(alpha1/2) (1+|n|^2)^(alpha2/2)."""
    lifted = _lift_rows(k.coeffs, bessel_weights(alpha1, k.box), bessel_weights(alpha2, k.box))
    return NCKernel(k.theta, k.box, lifted)


def _lift_rows(coeff_rows: np.ndarray, w1_rows: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Rows of the lifted coefficients, scaled by their row and column weights."""
    lifted = coeff_rows * w1_rows[:, None]
    lifted *= w2[None, :]
    return lifted


def _lifted_extremes(k: NCKernel, alpha1: float, alpha2: float) -> tuple:
    """(max, flat index of the first max, L2 norm) of |sobolev_lift|, by row blocks."""
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError(f"Sobolev orders must be nonnegative, got ({alpha1}, {alpha2})")
    w1 = bessel_weights(alpha1, k.box)
    w2 = bessel_weights(alpha2, k.box)
    rows = _row_blocks(k.box.cardinality)
    return _scaled_extremes(_lift_rows(np.abs(k.coeffs[r]), w1[r], w2) for r in rows)


def mixed_sobolev_norm(k: NCKernel, alpha1: float, alpha2: float) -> float:
    """The mixed Sobolev norm: L2 norm of the lifted kernel.

    Orders must be nonnegative; the negative-order lifts remain available
    through sobolev_lift directly.  The norm is finite wherever the largest
    lifted modulus is, and NaN or inf with it.
    """
    return _lifted_extremes(k, alpha1, alpha2)[2]


def flip_adjoint(k: NCKernel) -> NCKernel:
    """The kernel of the adjoint operator: swap legs, then star each leg.

    Coefficient-wise: c'_{p,q} = conj(c_{-q,-p} sigma(p,-p) sigma(q,-q)).
    Its matrix is the conjugate transpose of kernel_matrix(k).
    """
    star_phases = np.conj(diagonal_phases(k.theta, k.box))
    n = k.box.cardinality
    swapped = np.empty((n, n), dtype=complex, order="F")
    for cols in _row_blocks(n):
        swapped[:, cols] = _flip_cols(k.coeffs[::-1][cols], star_phases, star_phases[cols])
    return NCKernel(k.theta, k.box, swapped)


def _flip_cols(coeff_rows: np.ndarray, star: np.ndarray, star_cols: np.ndarray) -> np.ndarray:
    """Columns q of flip_adjoint from rows -q of the coefficients, fresh and column-major.

    star is conj(sigma(p,-p)) and star_cols its entries at those q.  The phase
    product keeps the order star[p] * star[q], which a fused multiply-add need
    not round the same way as star[q] * star[p].
    """
    cols = np.conj(coeff_rows[:, ::-1].T)
    cols *= np.multiply(star[:, None], star_cols[None, :], order="F")
    return cols


def _relative_gap(n: int, sides) -> float:
    """||lhs - rhs|| / ||lhs|| (absolute if lhs is 0) of fresh blocks (lhs, rhs) = sides(rows)."""
    norm_sq = gap_sq = 0.0
    for rows in _row_blocks(n):
        lhs, rhs = sides(rows)
        norm_sq += _sum_squares(lhs)
        np.subtract(lhs, rhs, out=rhs)
        gap_sq += _sum_squares(rhs)
        del lhs, rhs  # free this pair before the next one is built
    gap = math.sqrt(gap_sq)
    return gap / math.sqrt(norm_sq) if norm_sq != 0.0 else gap


def factorization_gap(k: NCKernel, a1: float, a2: float) -> float:
    """Relative gap of B(a1) T_k = T_lift B(-a2), B(a) the Bessel multiplier.

    Multipliers stay vectors: B on the left scales rows, on the right columns,
    of row blocks built by the row forms of kernel_matrix and sobolev_lift.
    """
    col_phases = diagonal_phases(k.theta, k.box)
    w1 = bessel_weights(a1, k.box)
    w2 = bessel_weights(a2, k.box)
    w2_inv = bessel_weights(-a2, k.box)
    def sides(rows: slice) -> tuple:
        lhs = _matrix_rows(k.coeffs[rows], col_phases)
        lhs *= w1[rows, None]
        rhs = _matrix_rows(_lift_rows(k.coeffs[rows], w1[rows], w2), col_phases)
        rhs *= w2_inv[None, :]
        return lhs, rhs
    return _relative_gap(k.box.cardinality, sides)


def adjoint_gap(k: NCKernel) -> float:
    """Relative gap of the flip-adjoint kernel's matrix A against K^*.

    K's rows p are compared with the conjugate of A's columns p: column -p
    of the flip-adjoint times sigma(p, -p), built from row p of k.
    """
    col_phases = diagonal_phases(k.theta, k.box)
    star_phases = np.conj(col_phases)
    def sides(rows: slice) -> tuple:
        a_cols = _flip_cols(k.coeffs[rows], star_phases, star_phases[::-1][rows])
        a_cols *= col_phases[None, rows]
        return _matrix_rows(k.coeffs[rows], col_phases), np.conjugate(a_cols, out=a_cols).T
    return _relative_gap(k.box.cardinality, sides)


@dataclass(frozen=True, kw_only=True)
class SchwartzReport:
    """Coefficient magnitudes against the smooth-kernel decay envelope.

    radius is the kernel's box radius.  The fields print in this order as
    the `schwartz` record; worst_index and tolerance appear in JSON only.
    """

    radius: int
    s0: float
    alpha1: float
    alpha2: float
    worst_ratio: float
    worst_index: tuple = field(metadata=JSON_ONLY)
    lifted_norm: float
    tolerance: float = field(default=1e-10, metadata=JSON_ONLY)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.worst_ratio <= 1.0 + self.tolerance)


def schwartz_coefficients(
    h: NCKernel, alpha1: float, alpha2: float, s0: float
) -> SchwartzReport:
    """Check |c_{m,n}| against the Cauchy-Schwarz envelope with constant 1.

    The bound is norm(h in the (alpha1+s0, alpha2+s0) mixed Sobolev space)
    times (1+|m|^2)^(-(alpha1+s0)/2) (1+|n|^2)^(-(alpha2+s0)/2).  Moving the
    weights to the other side, the ratio at (m, n) is |lifted c_{m,n}| /
    ||lifted h||, read off one streamed pass over the lifted moduli;
    worst_ratio is its largest value, and worst_index the first place it
    occurs.  A NaN or inf modulus makes worst_ratio NaN, so the check fails.
    s0 must exceed the dimension so the envelope is summable over the full
    lattice.
    """
    d = h.theta.d
    if s0 <= d:
        raise ValueError(f"decay margin s0 = {s0} must exceed the dimension d = {d}")
    worst, flat, lifted_norm = _lifted_extremes(h, alpha1 + s0, alpha2 + s0)
    pts = h.box.enumerate()
    i, j = divmod(flat, h.box.cardinality)
    worst_index = (tuple(int(v) for v in pts[i]), tuple(int(v) for v in pts[j]))
    return SchwartzReport(
        radius=h.box.radius,
        s0=float(s0),
        alpha1=alpha1,
        alpha2=alpha2,
        worst_ratio=worst / lifted_norm if lifted_norm != 0.0 else 0.0,
        worst_index=worst_index,
        lifted_norm=lifted_norm,
    )


def random_kernel(
    theta: ReducedTheta, radius: int, s1: float, s2: float, seed: int
) -> NCKernel:
    """Random kernel with the separable envelope and i.i.d. uniform phases.

    c_{m,n} = (1+|m|^2)^(-s1/2) (1+|n|^2)^(-s2/2) e^{2 pi i u} with u
    drawn uniformly from [0, 1) by a Philox counter generator keyed on the
    seed, consumed in row-major (linear index pair) order.  The uniforms
    are drawn one row block at a time into one reused buffer; the generator
    continues its stream from block to block, so the coefficients are
    those of a single n x n draw.  The phase is evaluated in the tangent
    form e^{2 pi i u} = ((1 - t^2) + 2it)/(1 + t^2) with t = tan(pi u),
    one vectorised tan per entry and no complex exp; t stays finite because pi * u rounds below pi/2 at u = 1/2, and t^2
    stays below 3e32.  The coefficients reproduce bit for bit on a given
    numpy build; another build may round the last digit differently.  The
    envelope keeps the kernel in the mixed Sobolev space of orders below
    (s1 - d/2, s2 - d/2), which makes smoothness hypotheses checkable by
    construction.
    """
    if s1 < 0 or s2 < 0:
        raise ValueError(f"envelope exponents must be nonnegative, got ({s1}, {s2})")
    _guard_box(theta.d, radius)
    box = LatticeBox(theta.d, radius)
    n = box.cardinality
    w1 = bessel_weights(-s1, box)
    w2 = bessel_weights(-s2, box)
    rng = np.random.Generator(np.random.Philox(key=seed))
    coeffs = np.empty((n, n), dtype=complex)
    blocks = list(_row_blocks(n))
    buf = np.empty((blocks[0].stop, n))
    for rows in blocks:
        block = coeffs[rows]
        t = buf[: rows.stop - rows.start]
        rng.random(out=t)
        t *= np.pi
        np.tan(t, out=t)
        np.multiply(t, 2.0, out=block.imag)
        np.square(t, out=t)
        np.subtract(1.0, t, out=block.real)
        # t becomes envelope / (1 + t^2), the common scale of both parts
        t += 1.0
        np.divide(w1[rows, None], t, out=t)
        t *= w2[None, :]
        block.real *= t
        block.imag *= t
    return NCKernel(theta, box, coeffs)
