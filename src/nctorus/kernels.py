"""Integral kernels over the twisted algebra and its opposite.

A kernel is a coefficient matrix c_{m,n} over a pair of lattice boxes,
representing k = sum c_{m,n} U^m (x) U^n with the second tensor leg
carrying the reversed product.  Its integral operator acts by a partial
trace over the second leg; on Fourier coefficients this collapses to the
closed form

    (T_k x)(m) = sum_n c_{m,n} sigma(-n, n) x(-n),

so the operator's matrix has entry (m, p) = c_{m,-p} sigma(p, -p).  The
unimodular sigma factors make the matrix assembly an index permutation
plus a diagonal phase, which keeps Frobenius norms equal to kernel L2
norms exactly.

Every dense step works in row blocks of _BLOCK_ENTRIES entries: the draw
fills its coefficients block by block, the norms reduce one block of
lifted moduli at a time, and flip_adjoint phases one block of columns at
a time.  So no step holds an n x n temporary beside the arrays it
returns.  The row forms _matrix_rows and _lift_rows are the bodies of
kernel_matrix and sobolev_lift, so a block of either is bit for bit the
same rows of the whole result.  The identity gaps factorization_gap and
adjoint_gap build both sides of their identities from those row forms,
one block at a time, and keep only sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import TorusElement, embedded, twisted_convolve
from .cocycle import ReducedTheta, diagonal_phases
from .lattice import LatticeBox, _guard_box
from .multipliers import bessel_weights
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


def _row_blocks(n: int, width: int | None = None):
    """Slices covering range(n), each at most _BLOCK_ENTRIES // width rows.

    width is the row length, n by default; a block has at least one row.
    """
    rows = max(1, _BLOCK_ENTRIES // (n if width is None else width))
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


@dataclass(frozen=True, eq=False)
class NCKernel:
    """Coefficient matrix of a kernel over box1 (first leg) x box2 (second leg).

    A complex ndarray that owns its data is taken as it is, without a
    copy, and made read-only: the caller's handle to it becomes read-only
    too.  Anything else (a view, a list, another dtype) is copied.  Either
    way coeffs is never writeable.
    """

    theta: ReducedTheta
    box1: LatticeBox
    box2: LatticeBox
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.box1.d != self.theta.d or self.box2.d != self.theta.d:
            raise ValueError(
                f"kernel boxes have dimensions {self.box1.d}, {self.box2.d}; "
                f"theta has dimension {self.theta.d}"
            )
        arr = self.coeffs
        if not (isinstance(arr, np.ndarray) and arr.dtype == complex and arr.flags.owndata):
            arr = np.array(arr, dtype=complex)
        want = (self.box1.cardinality, self.box2.cardinality)
        if arr.shape != want:
            raise ValueError(f"coefficient matrix has shape {arr.shape}, expected {want}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def l2_norm(self) -> float:
        """Tensor-product Plancherel norm: the Frobenius norm of the coefficients."""
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "NCKernel") -> "NCKernel":
        if not isinstance(other, NCKernel):
            return NotImplemented
        if self.theta != other.theta:
            raise ValueError("kernels live over different deformation matrices")
        if self.box1 != other.box1 or self.box2 != other.box2:
            raise ValueError("kernel boxes differ")
        return NCKernel(self.theta, self.box1, self.box2, self.coeffs + other.coeffs)

    def __mul__(self, scalar: complex) -> "NCKernel":
        if not isinstance(scalar, (int, float, complex, np.number)):
            return NotImplemented
        return NCKernel(self.theta, self.box1, self.box2, self.coeffs * complex(scalar))

    __rmul__ = __mul__


def op_multiply(a: TorusElement, b: TorusElement) -> TorusElement:
    """The reversed product a . b = b * a used on the second tensor leg."""
    return twisted_convolve(b, a)


def apply_kernel(k: NCKernel, x: TorusElement) -> TorusElement:
    """Act with the kernel's integral operator on x.

    Closed form of the partial trace over the second leg: the output
    coefficient at m is sum_n c_{m,n} sigma(-n, n) x(-n).  x must be
    supported inside the second-leg box.
    """
    if x.theta != k.theta:
        raise ValueError("kernel and argument live over different deformation matrices")
    if x.box.radius > k.box2.radius:
        raise ValueError(
            f"argument radius {x.box.radius} exceeds the kernel's "
            f"second-leg radius {k.box2.radius}"
        )
    xe = embedded(x, k.box2)
    out = k.coeffs @ (diagonal_phases(k.theta, k.box2) * xe.coeffs[::-1])
    return TorusElement(k.theta, k.box1, out)


def _square_box(k: NCKernel) -> LatticeBox:
    """The box of both legs; a kernel with unequal legs is an error."""
    if k.box1 != k.box2:
        raise ValueError(
            f"kernel needs equal legs, got radii {k.box1.radius} and {k.box2.radius}"
        )
    return k.box1


def kernel_matrix(k: NCKernel) -> np.ndarray:
    """Matrix of the kernel's operator: entry (m, p) = c_{m,-p} sigma(p, -p).

    Column p holds the coefficients of the operator applied to the basis
    monomial at p.  Both kernel legs must be the same box so the matrix is
    square in its canonical order.  The result is a fresh array the caller
    may modify.  Negation reverses the canonical order, so the column
    permutation is a reversed view.
    """
    return _matrix_rows(k.coeffs, diagonal_phases(k.theta, _square_box(k)))


def _matrix_rows(coeff_rows: np.ndarray, col_phases: np.ndarray) -> np.ndarray:
    """Rows of kernel_matrix from the same rows of coefficients, a fresh array."""
    return coeff_rows[:, ::-1] * col_phases[None, :]


def bessel_kernel(alpha2: float, box: LatticeBox, theta: ReducedTheta) -> NCKernel:
    """The kernel sum_n (1+|n|^2)^(-alpha2/2) U^n (x) (U^n)* on box x box.

    Resolving (U^n)* = conj(sigma(n,-n)) U^{-n} puts the weight at
    coefficient (n, -n) with the conjugate phase attached.
    """
    _guard_box(box.d, box.radius)
    pts = box.enumerate()
    nsq = np.einsum("ij,ij->i", pts, pts).astype(float)
    weights = (1.0 + nsq) ** (-alpha2 / 2.0)
    star_phases = np.conj(diagonal_phases(theta, box))
    coeffs = np.zeros((box.cardinality, box.cardinality), dtype=complex)
    np.fill_diagonal(coeffs[:, ::-1], weights * star_phases)
    return NCKernel(theta, box, box, coeffs)


def sobolev_lift(k: NCKernel, alpha1: float, alpha2: float) -> NCKernel:
    """Scale c_{m,n} by (1+|m|^2)^(alpha1/2) (1+|n|^2)^(alpha2/2)."""
    lifted = _lift_rows(k.coeffs, bessel_weights(alpha1, k.box1), bessel_weights(alpha2, k.box2))
    return NCKernel(k.theta, k.box1, k.box2, lifted)


def _lift_rows(coeff_rows: np.ndarray, w1_rows: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Rows of the lifted coefficients, scaled by their row and column weights."""
    lifted = coeff_rows * w1_rows[:, None]
    lifted *= w2[None, :]
    return lifted


def _lifted_extremes(k: NCKernel, alpha1: float, alpha2: float) -> tuple:
    """(max, flat index of the first max, L2 norm) of the lifted moduli.

    The lifted modulus at (m, n) is |c_{m,n}| (1+|m|^2)^(alpha1/2)
    (1+|n|^2)^(alpha2/2).  One pass over row blocks: each block is divided
    by the largest modulus seen so far before it is squared, and the sum of
    squares is rescaled whenever that largest modulus grows, so the norm is
    finite wherever the largest modulus is.
    """
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError(f"Sobolev orders must be nonnegative, got ({alpha1}, {alpha2})")
    w1 = bessel_weights(alpha1, k.box1)
    w2 = bessel_weights(alpha2, k.box2)
    width = k.coeffs.shape[1]
    top, where, sumsq = 0.0, 0, 0.0
    for rows in _row_blocks(k.coeffs.shape[0], width):
        block = np.abs(k.coeffs[rows])
        block *= w1[rows, None]
        block *= w2[None, :]
        i = int(np.argmax(block))
        peak = float(block.flat[i])
        if peak > top:
            sumsq *= (top / peak) ** 2
            top, where = peak, rows.start * width + i
        if top > 0.0:
            block /= top
            sumsq += float(np.dot(block.ravel(), block.ravel()))
        del block  # free this block before the next one is built
    return top, where, top * math.sqrt(sumsq)


def mixed_sobolev_norm(k: NCKernel, alpha1: float, alpha2: float) -> float:
    """The mixed Sobolev norm: L2 norm of the lifted kernel.

    Orders must be nonnegative; the negative-order lifts remain available
    through sobolev_lift directly.  The norm is taken in row blocks scaled
    by the largest lifted modulus, so it stays finite wherever that
    modulus is.
    """
    return _lifted_extremes(k, alpha1, alpha2)[2]


def flip_adjoint(k: NCKernel) -> NCKernel:
    """The kernel of the adjoint operator: swap legs, then star each leg.

    Coefficient-wise: c'_{p,q} = conj(c_{-q,-p} sigma(p,-p) sigma(q,-q)).
    Its matrix is the conjugate transpose of kernel_matrix(k).
    """
    box = _square_box(k)
    star_phases = np.conj(diagonal_phases(k.theta, box))
    # swapped is column-major, so a block of its columns is contiguous; the
    # phase product keeps the order star[p] * star[q], which a fused
    # multiply-add need not round the same way as star[q] * star[p]
    swapped = np.conj(k.coeffs[::-1, ::-1].T)
    for cols in _row_blocks(box.cardinality):
        swapped[:, cols] *= np.multiply(
            star_phases[:, None], star_phases[None, cols], order="F"
        )
    return NCKernel(k.theta, box, box, swapped)


def _sumsq(block: np.ndarray) -> float:
    """Sum of squared moduli of a contiguous complex block."""
    return float(np.vdot(block, block).real)


def _relative(gap_sq: float, norm_sq: float) -> float:
    """sqrt(gap_sq / norm_sq), or sqrt(gap_sq) when the norm is 0."""
    gap = math.sqrt(gap_sq)
    return gap / math.sqrt(norm_sq) if norm_sq != 0.0 else gap


def factorization_gap(k: NCKernel, a1: float, a2: float) -> float:
    """Relative gap of B(a1) T_k = T_lift B(-a2), B(a) the Bessel multiplier.

    Multipliers stay vectors: B on the left scales rows, on the right columns.
    Both sides are built one row block at a time from k's coefficients, by
    the same row forms as kernel_matrix and sobolev_lift, and only their
    sums of squares are kept.
    """
    box = _square_box(k)
    col_phases = diagonal_phases(k.theta, box)
    w1 = bessel_weights(a1, box)
    w2 = bessel_weights(a2, box)
    w2_inv = bessel_weights(-a2, box)
    norm_sq = gap_sq = 0.0
    for rows in _row_blocks(box.cardinality):
        lhs = _matrix_rows(k.coeffs[rows], col_phases)
        lhs *= w1[rows, None]
        rhs = _matrix_rows(_lift_rows(k.coeffs[rows], w1[rows], w2), col_phases)
        rhs *= w2_inv[None, :]
        norm_sq += _sumsq(lhs)
        gap_sq += _sumsq(np.subtract(lhs, rhs, out=rhs))
        del lhs, rhs  # free this block before the next one is built
    return _relative(gap_sq, norm_sq)


def adjoint_gap(k: NCKernel) -> float:
    """Relative gap of the flip-adjoint kernel's matrix A against K^*.

    A block of K's rows is compared with the conjugate of the same block
    of A's columns, which are contiguous because flip_adjoint's
    coefficients are column-major.  Neither matrix is built whole.
    """
    box = _square_box(k)
    col_phases = diagonal_phases(k.theta, box)
    adj = flip_adjoint(k).coeffs[:, ::-1]
    norm_sq = gap_sq = 0.0
    for rows in _row_blocks(box.cardinality):
        k_rows = _matrix_rows(k.coeffs[rows], col_phases)
        a_cols = np.multiply(adj[:, rows], col_phases[None, rows])
        norm_sq += _sumsq(k_rows)
        np.subtract(k_rows, np.conjugate(a_cols, out=a_cols).T, out=k_rows)
        gap_sq += _sumsq(k_rows)
        del k_rows, a_cols  # free this block before the next one is built
    return _relative(gap_sq, norm_sq)


@dataclass(frozen=True, kw_only=True)
class SchwartzReport:
    """Coefficient magnitudes against the smooth-kernel decay envelope.

    radius is the larger leg radius.  The fields print in this order as
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
    occurs.  s0 must exceed the dimension so the envelope is summable over
    the full lattice.
    """
    d = h.theta.d
    if s0 <= d:
        raise ValueError(f"decay margin s0 = {s0} must exceed the dimension d = {d}")
    worst, flat, lifted_norm = _lifted_extremes(h, alpha1 + s0, alpha2 + s0)
    i, j = divmod(flat, h.box2.cardinality)
    worst_index = (
        tuple(int(v) for v in h.box1.enumerate()[i]),
        tuple(int(v) for v in h.box2.enumerate()[j]),
    )
    return SchwartzReport(
        radius=max(h.box1.radius, h.box2.radius),
        s0=float(s0),
        alpha1=alpha1,
        alpha2=alpha2,
        worst_ratio=worst / lifted_norm if lifted_norm > 0 else 0.0,
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
    return NCKernel(theta, box, box, coeffs)
