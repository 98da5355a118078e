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

Every dense step works in row blocks of lattice._BLOCK_ENTRIES entries,
cut by lattice._row_blocks, the walker algebra.mult_matrix cuts its
shift blocks with too.  A kernel here is anything with theta, box and
row_blocks(span), a stream of (rows, coefficient block) pairs over the
row range span, all rows by default: a held NCKernel streams its
coeffs[rows], and a KernelRows streams a draw as it is made
(random_kernel fills its matrix from one).  Every reducer
takes either: mixed_sobolev_norm and schwartz_coefficients (through
_lifted_extremes) and identity_gaps (the adjoint gap and any number of
factorization gaps, in one pass reading one block of kernel-matrix
rows).  So the runners reduce a draw as it is made and never hold its
n x n coefficients; the scan's stream, through _assembling, also writes
each block's rows of kernel_matrix(k) into the one matrix the scan
holds.  A reducer is a per-block step, and _folded, the one walker,
applies it over two halves of the rows, at once where BLAS reports two
threads.  The row forms _matrix_rows and _lift_rows and the column form
_flip_cols write into a given out= and are the bodies of kernel_matrix,
sobolev_lift and flip_adjoint, so a block of any is bit for bit those
rows or columns of the whole.  No step holds an n x n temporary beside the arrays it
returns.  Every sum of squares here, in the gaps, the lifted norms and
l2_norm, is lattice._sum_squares, which never calls BLAS: its result
does not depend on the BLAS thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .algebra import TorusElement, embedded, twisted_convolve
from .cocycle import ReducedTheta, _same_theta, diagonal_phases
from .lattice import LatticeBox, _finite, _guard_box, _order, _same_dimension, _seed
from .lattice import _coefficients, _row_blocks, _sum_squares
from .multipliers import _block_extremes, _scaled_extremes, bessel_weights
from .records import JSON_ONLY
from .schatten import _in_lanes, _lanes

__all__ = [
    "NCKernel",
    "KernelRows",
    "op_multiply",
    "apply_kernel",
    "kernel_matrix",
    "bessel_kernel",
    "sobolev_lift",
    "mixed_sobolev_norm",
    "flip_adjoint",
    "identity_gaps",
    "SchwartzReport",
    "schwartz_coefficients",
    "random_kernel",
]

def _folded(k: NCKernel | KernelRows, step: Callable, *dtypes) -> list:
    """[step(rows, block, *buffers) for each (rows, block) of k's stream], in block order.

    The rows split into two ranges of whole blocks, or one range for a
    one-block box.  Each range is streamed by k.row_blocks(span) and given
    one _block_buffer per dtype, which step slices to its block's height.
    The ranges run through _in_lanes at _lanes() width: on two threads
    where BLAS reports two, else one after the other on the calling
    thread.  A block's partial does not depend on which thread made it,
    so the list is the same at either width.
    """
    n = k.box.cardinality
    blocks = list(_row_blocks(n))
    mid = blocks[len(blocks) // 2].start
    spans = (range(mid), range(mid, n)) if mid else (range(n),)

    def walk(span: range) -> list:
        buffers = [_block_buffer(n, dtype) for dtype in dtypes]
        return [step(rows, block, *buffers) for rows, block in k.row_blocks(span)]

    return [partial for half in _in_lanes(walk, spans, _lanes()) for partial in half]


def _block_buffer(n: int, dtype=complex) -> np.ndarray:
    """A buffer for the first, tallest, row block of n columns; slice it to each block's height."""
    return np.empty((next(_row_blocks(n)).stop, n), dtype=dtype)


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
        _same_dimension("kernel box", self.box.d, "theta", self.theta.d)
        arr = _coefficients(self.coeffs, (self.box.cardinality,) * 2)
        if not (arr.dtype == complex and arr.flags.owndata):
            arr = np.array(arr, dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def row_blocks(self, span: range | None = None):
        """The coefficients as a row stream: (rows, coeffs[rows]) over _row_blocks."""
        for rows in _row_blocks(self.box.cardinality, span):
            yield rows, self.coeffs[rows]

    def l2_norm(self) -> float:
        """Tensor-product Plancherel norm: the Frobenius norm of the coefficients."""
        return math.sqrt(_sum_squares(self.coeffs))

    def __add__(self, other: "NCKernel") -> "NCKernel":
        if not isinstance(other, NCKernel):
            return NotImplemented
        _same_theta(self, other)
        if self.box != other.box:
            raise ValueError("kernel boxes differ")
        return NCKernel(self.theta, self.box, self.coeffs + other.coeffs)

    def __mul__(self, scalar: complex) -> "NCKernel":
        if not isinstance(scalar, (int, float, complex, np.number)):
            return NotImplemented
        return NCKernel(self.theta, self.box, self.coeffs * complex(scalar))

    __rmul__ = __mul__


class KernelRows(NamedTuple):
    """A kernel given by its row stream alone.

    row_blocks(span) yields (rows, coefficient block) over _row_blocks of
    the row range span, all rows by default, as NCKernel.row_blocks does;
    each block is valid until the next, and each call streams the same
    rows afresh, into buffers of its own, so two calls may stream at once.
    """

    theta: ReducedTheta
    box: LatticeBox
    row_blocks: Callable


def op_multiply(a: TorusElement, b: TorusElement) -> TorusElement:
    """The reversed product a . b = b * a used on the second tensor leg."""
    return twisted_convolve(b, a)


def apply_kernel(k: NCKernel, x: TorusElement) -> TorusElement:
    """Act with the kernel's integral operator on x.

    Closed form of the partial trace over the second leg: the output
    coefficient at m is sum_n c_{m,n} sigma(-n, n) x(-n).  x must be
    supported inside the kernel's box.
    """
    _same_theta(k, x)
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


def _matrix_rows(coeff_rows: np.ndarray, col_phases: np.ndarray, out=None) -> np.ndarray:
    """Rows of kernel_matrix from the same rows of coefficients, into out or a fresh array."""
    return np.multiply(coeff_rows[:, ::-1], col_phases[None, :], out=out)


def _assembling(k: NCKernel | KernelRows, matrix: np.ndarray) -> KernelRows:
    """k's row stream, each block passed on after its rows of kernel_matrix(k) go into matrix."""
    col_phases = diagonal_phases(k.theta, k.box)

    def row_blocks(span: range | None = None):
        for rows, block in k.row_blocks(span):
            _matrix_rows(block, col_phases, out=matrix[rows])
            yield rows, block

    return KernelRows(k.theta, k.box, row_blocks)


def bessel_kernel(alpha2: float, box: LatticeBox, theta: ReducedTheta) -> NCKernel:
    """The kernel sum_n (1+|n|^2)^(-alpha2/2) U^n (x) (U^n)* on box x box.

    Resolving (U^n)* = conj(sigma(n,-n)) U^{-n} puts the weight at
    coefficient (n, -n) with the conjugate phase attached.
    """
    _guard_box(box.d, box.radius)
    weights = bessel_weights(-_finite("alpha2", alpha2), box) * np.conj(diagonal_phases(theta, box))
    coeffs = np.zeros((box.cardinality, box.cardinality), dtype=complex)
    np.fill_diagonal(coeffs[:, ::-1], weights)
    return NCKernel(theta, box, coeffs)


def sobolev_lift(k: NCKernel, alpha1: float, alpha2: float) -> NCKernel:
    """Scale c_{m,n} by (1+|m|^2)^(alpha1/2) (1+|n|^2)^(alpha2/2)."""
    lifted = _lift_rows(k.coeffs, bessel_weights(alpha1, k.box), bessel_weights(alpha2, k.box))
    return NCKernel(k.theta, k.box, lifted)


def _lift_rows(
    coeff_rows: np.ndarray, w1_rows: np.ndarray, w2: np.ndarray, out=None
) -> np.ndarray:
    """Rows of the lifted coefficients, scaled by their row and column weights.

    out, if given, may be coeff_rows itself.
    """
    lifted = np.multiply(coeff_rows, w1_rows[:, None], out=out)
    lifted *= w2[None, :]
    return lifted


def _lifted_extremes(k: NCKernel | KernelRows, alpha1: float, alpha2: float) -> tuple:
    """(max, flat index of the first max, L2 norm) of the lifted moduli of k.

    Its callers check the orders before the first block is read.  Each block
    gives its _block_extremes partial, and the partials combine in block order.
    """
    n = k.box.cardinality
    w1 = bessel_weights(alpha1, k.box)
    w2 = bessel_weights(alpha2, k.box)

    def step(rows: slice, block: np.ndarray, buf: np.ndarray) -> tuple:
        moduli = np.abs(block, out=buf[: rows.stop - rows.start])
        return _block_extremes(_lift_rows(moduli, w1[rows], w2, out=moduli), rows.start * n)

    return _scaled_extremes(_folded(k, step, float))


def mixed_sobolev_norm(k: NCKernel | KernelRows, alpha1: float, alpha2: float) -> float:
    """The mixed Sobolev norm: L2 norm of the lifted kernel.

    Orders must be nonnegative; the negative-order lifts remain available
    through sobolev_lift directly.  The norm is finite wherever the largest
    lifted modulus is, and NaN or inf with it.
    """
    return _lifted_extremes(k, _order("alpha1", alpha1), _order("alpha2", alpha2))[2]


def flip_adjoint(k: NCKernel) -> NCKernel:
    """The kernel of the adjoint operator: swap legs, then star each leg.

    Coefficient-wise: c'_{p,q} = conj(c_{-q,-p} sigma(p,-p) sigma(q,-q)).
    Its matrix is the conjugate transpose of kernel_matrix(k).
    """
    star_phases = np.conj(diagonal_phases(k.theta, k.box))
    n = k.box.cardinality
    swapped = np.empty((n, n), dtype=complex, order="F")
    scratch = _block_buffer(n)
    for cols in _row_blocks(n):
        _flip_cols(
            k.coeffs[::-1][cols], star_phases, star_phases[cols],
            out=swapped[:, cols], scratch=scratch[: cols.stop - cols.start].T,
        )
    return NCKernel(k.theta, k.box, swapped)


def _flip_cols(
    coeff_rows: np.ndarray, star: np.ndarray, star_cols: np.ndarray, out, scratch
) -> np.ndarray:
    """Columns q of flip_adjoint from rows -q of the coefficients, column-major.

    star is conj(sigma(p,-p)) and star_cols its entries at those q.  The
    columns go into out and the phase product into scratch.  The phase
    product keeps the order star[p] * star[q], which a fused multiply-add
    need not round the same way as star[q] * star[p].
    """
    cols = np.conjugate(coeff_rows[:, ::-1].T, out=out)
    cols *= np.multiply(star[:, None], star_cols[None, :], out=scratch, order="F")
    return cols


def identity_gaps(k: NCKernel | KernelRows, pairs) -> tuple:
    """(adjoint gap, [factorization gap per (a1, a2) in pairs]), in one pass over k.

    The adjoint gap is that of the flip-adjoint kernel's matrix A against
    K^*; a factorization gap is that of B(a1) T_k = T_lift R(-a2), B(a) the
    Bessel multiplier and R(a) its reflection, which scales column p by
    the weight at -p: the lift scales coefficient (m, n) by the weights
    at m and n, and column p of the kernel matrix holds n = -p.  Each is
    ||lhs - rhs|| / ||lhs||, absolute if lhs is 0.  Multipliers stay
    vectors: B on the left scales rows, R on the right columns, of row
    blocks built by the row forms of kernel_matrix and sobolev_lift.
    Each block's rows of kernel_matrix are built once and every gap reads
    them; the gaps share two more block buffers, the scratch one holding
    the lifted rows and then the left side.  Each block gives its squared
    norms of lhs and lhs - rhs per gap, and these are added up in block
    order.
    """
    col_phases = diagonal_phases(k.theta, k.box)
    star_phases = np.conj(col_phases)
    # canonical order lists -p at the reversed index; R(-a2) is copied so
    # no block multiply iterates a negative stride
    weights = [
        (
            bessel_weights(a1, k.box),
            bessel_weights(a2, k.box),
            bessel_weights(-a2, k.box)[::-1].copy(),
        )
        for a1, a2 in pairs
    ]

    def sums(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
        """(||lhs||^2, ||lhs - rhs||^2) of one block; rhs becomes lhs - rhs."""
        lhs_sq = _sum_squares(lhs)
        np.subtract(lhs, rhs, out=rhs)
        return lhs_sq, _sum_squares(rhs)

    def step(rows: slice, block: np.ndarray, k_buf, rhs_buf, scratch_buf) -> list:
        height = rows.stop - rows.start
        k_rows = _matrix_rows(block, col_phases, out=k_buf[:height])
        rhs, scratch = rhs_buf[:height], scratch_buf[:height]
        # K's rows p against the conjugate of A's columns p: column -p of
        # the flip-adjoint times sigma(p, -p), built from row p of the kernel
        a_cols = _flip_cols(
            block, star_phases, star_phases[::-1][rows], out=rhs.T, scratch=scratch.T
        )
        a_cols *= col_phases[None, rows]
        np.conjugate(a_cols, out=a_cols)
        partial = [sums(k_rows, rhs)]
        for w1, w2, w2_inv in weights:
            _matrix_rows(_lift_rows(block, w1[rows], w2, out=scratch), col_phases, out=rhs)
            rhs *= w2_inv[None, :]
            lhs = np.multiply(k_rows, w1[rows, None], out=scratch)
            partial.append(sums(lhs, rhs))
        return partial

    norm_sq = [0.0] * (1 + len(weights))
    gap_sq = [0.0] * (1 + len(weights))
    for partial in _folded(k, step, complex, complex, complex):
        for i, (lhs_sq, diff_sq) in enumerate(partial):
            norm_sq[i] += lhs_sq
            gap_sq[i] += diff_sq
    gaps = [math.sqrt(g) for g in gap_sq]
    gaps = [g / math.sqrt(s) if s != 0.0 else g for g, s in zip(gaps, norm_sq)]
    return gaps[0], gaps[1:]


@dataclass(frozen=True, kw_only=True)
class SchwartzReport:
    """Coefficient magnitudes against the smooth-kernel decay envelope.

    radius is the kernel's box radius.  The fields print in this order as
    the `schwartz` record; worst_index and tolerance appear in JSON only.
    tolerance is fixed at 1e-10 and is not a constructor argument.
    """

    radius: int
    s0: float
    alpha1: float
    alpha2: float
    worst_ratio: float
    worst_index: tuple = field(metadata=JSON_ONLY)
    lifted_norm: float
    tolerance: float = field(default=1e-10, init=False, metadata=JSON_ONLY)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.worst_ratio <= 1.0 + self.tolerance)


def schwartz_coefficients(
    h: NCKernel | KernelRows, alpha1: float, alpha2: float, s0: float
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
    box, s0 = h.box, _finite("s0", s0)
    alpha1, alpha2 = _finite("alpha1", alpha1), _finite("alpha2", alpha2)
    if s0 <= box.d:
        raise ValueError(f"decay margin s0 = {s0} must exceed the dimension d = {box.d}")
    lifted = _order("alpha1 + s0", alpha1 + s0), _order("alpha2 + s0", alpha2 + s0)
    worst, flat, lifted_norm = _lifted_extremes(h, *lifted)
    i, j = divmod(flat, box.cardinality)
    worst_index = (box._point(i), box._point(j))
    return SchwartzReport(
        radius=box.radius,
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
    seed, consumed in row-major (linear index pair) order.  The matrix is
    filled from the KernelRows of _random_rows, the one draw path.  The
    envelope keeps the kernel in the mixed Sobolev space of orders below
    (s1 - d/2, s2 - d/2), which makes smoothness hypotheses checkable by
    construction.
    """
    draw = _random_rows(theta, radius, s1, s2, seed)
    coeffs = np.empty((draw.box.cardinality,) * 2, dtype=complex)
    for rows, block in draw.row_blocks():
        coeffs[rows] = block
    return NCKernel(theta, draw.box, coeffs)


def _random_rows(
    theta: ReducedTheta, radius: int, s1: float, s2: float, seed: int
) -> KernelRows:
    """random_kernel's draw as a KernelRows, its inputs checked before any draw."""
    s1, s2 = _order("s1", s1), _order("s2", s2)
    seed = _seed(seed)
    _guard_box(theta.d, radius)
    box = LatticeBox(theta.d, radius)
    w1, w2 = bessel_weights(-s1, box), bessel_weights(-s2, box)
    return KernelRows(theta, box, functools.partial(_draw_blocks, w1, w2, seed))


def _draw_blocks(w1: np.ndarray, w2: np.ndarray, seed: int, span: range | None = None):
    """Yield (rows, block) of the random kernel with envelope weights w1 x w2.

    The uniforms are drawn one row block at a time, over the row range
    span, all rows by default; the generator starts at the span's first
    entry and continues its stream from block to block, so the blocks are
    those rows of a single n x n draw.  Philox makes four doubles per
    counter step: the start is reached by advancing the counter start // 4
    steps and discarding start % 4 doubles.  Each block is written into
    one buffer of this call's own, valid until the next block is drawn.
    The phase is evaluated in the tangent form
    e^{2 pi i u} = ((1 - t^2) + 2it)/(1 + t^2) with t = tan(pi u), one
    vectorised tan per entry and no complex exp; t stays finite because
    pi * u rounds below pi/2 at u = 1/2, and t^2 stays below 3e32.  The
    coefficients reproduce bit for bit on a given numpy build; another
    build may round the last digit differently.
    """
    n = w2.size
    span = range(n) if span is None else span
    start = span.start * n
    rng = np.random.Generator(np.random.Philox(key=seed).advance(start // 4))
    rng.random(start % 4)
    t_buf = _block_buffer(n, float)
    block_buf = _block_buffer(n)
    for rows in _row_blocks(n, span):
        height = rows.stop - rows.start
        t, block = t_buf[:height], block_buf[:height]
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
        yield rows, block
