"""Finitely supported elements of the twisted group algebra over Z^d.

An element is a Fourier-coefficient vector over a symmetric lattice box;
the product is the twisted convolution

    (f * g)(m) = sum_n f(m - n) g(n) sigma(m - n, n),

the star operation is f#(m) = conj(sigma(m, -m)) conj(f(-m)), and the
trace picks the coefficient at the origin.  Products are returned on the
Minkowski-sum box so every algebraic identity stays exact; truncation is
an explicit, caller-side decision (`restricted`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import ReducedTheta, _same_theta, diagonal_phases, phase_pairs, phase_table
from .lattice import _BLOCK_ENTRIES, LatticeBox, _coefficients, _embedding, _guard_box, _integer
from .lattice import _memo, _per_point, _row_blocks, _same_dimension, _sum_squares

__all__ = [
    "TorusElement",
    "monomial",
    "unit",
    "random_element",
    "embedded",
    "restricted",
    "twisted_convolve",
    "involution",
    "trace",
    "inner_product",
    "l2_norm",
    "mult_matrix",
    "partial_derivative",
    "laplacian",
]


@dataclass(frozen=True, eq=False)
class TorusElement:
    """Fourier coefficients of a twisted-algebra element on a lattice box, copied read-only."""

    theta: ReducedTheta
    box: LatticeBox
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        _same_dimension("box", self.box.d, "theta", self.theta.d)
        arr = np.array(_coefficients(self.coeffs, (self.box.cardinality,)), dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def coefficient(self, m) -> complex:
        """The Fourier coefficient at the lattice point m (0 outside the box)."""
        try:
            return complex(self.coeffs[self.box.linear_index(m)])
        except IndexError:  # m lies outside the box
            return 0.0 + 0.0j

    def __add__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement):
            return NotImplemented
        _same_theta(self, other)
        box = self.box if self.box.radius >= other.box.radius else other.box
        return TorusElement(
            self.theta, box, embedded(self, box).coeffs + embedded(other, box).coeffs
        )

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "TorusElement":
        if not isinstance(scalar, (int, float, complex, np.number)):
            return NotImplemented
        return TorusElement(self.theta, self.box, self.coeffs * complex(scalar))

    __rmul__ = __mul__


def monomial(theta: ReducedTheta, m, box: LatticeBox) -> TorusElement:
    """The basis monomial with coefficient 1 at the lattice point m, which must lie in box."""
    coeffs = np.zeros(box.cardinality, dtype=complex)
    try:
        coeffs[box.linear_index(m)] = 1.0
    except IndexError as miss:  # a point outside the box is an input, not a lookup, here
        raise ValueError(str(miss)) from None
    return TorusElement(theta, box, coeffs)


def unit(theta: ReducedTheta, box: LatticeBox) -> TorusElement:
    """The multiplicative unit: coefficient 1 at the origin."""
    return monomial(theta, np.zeros(box.d, dtype=np.int64), box)


def random_element(
    theta: ReducedTheta, box: LatticeBox, rng: np.random.Generator
) -> TorusElement:
    """Element with i.i.d. standard complex Gaussian coefficients."""
    n = box.cardinality
    coeffs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    return TorusElement(theta, box, coeffs)


def embedded(x: TorusElement, box: LatticeBox) -> TorusElement:
    """Zero-pad x onto a larger (or equal) box."""
    _same_dimension("target box", box.d, "element", x.box.d)
    if box.radius < x.box.radius:
        raise ValueError(
            f"target radius {box.radius} is smaller than the element radius {x.box.radius}"
        )
    if box.radius == x.box.radius:
        return x
    coeffs = np.zeros(box.cardinality, dtype=complex)
    coeffs[_embedding(box.d, x.box.radius, box.radius)] = x.coeffs
    return TorusElement(x.theta, box, coeffs)


def restricted(x: TorusElement, box: LatticeBox) -> TorusElement:
    """Truncate x to a smaller (or equal) box, discarding outside coefficients."""
    _same_dimension("target box", box.d, "element", x.box.d)
    if box.radius > x.box.radius:
        return embedded(x, box)
    coeffs = x.coeffs[_embedding(box.d, box.radius, x.box.radius)]
    return TorusElement(x.theta, box, coeffs)


def twisted_convolve(f: TorusElement, g: TorusElement) -> TorusElement:
    """The twisted product f * g on the Minkowski-sum box.

    The coefficient at m is sum_n f(m-n) g(n) sigma(m-n, n); on basis
    monomials this reproduces U^m U^n = sigma(m, n) U^{m+n}.  The
    |f| x |g| table of products is dense, so both boxes fall under the
    dense-matrix guard.
    """
    _same_theta(f, g)
    _guard_box(f.box.d, f.box.radius)
    _guard_box(g.box.d, g.box.radius)
    box, scatter, phases = _product_plan(f.theta, f.box, g.box)
    contrib = np.outer(f.coeffs, g.coeffs) * phases
    coeffs = np.zeros(box.cardinality, dtype=complex)
    np.add.at(coeffs, scatter, contrib.ravel())
    return TorusElement(f.theta, box, coeffs)


# A product plan is memoised when its phase table fits one dense block.
@_memo(lambda theta, box_f, box_g: box_f.cardinality * box_g.cardinality, _BLOCK_ENTRIES)
def _product_plan(theta: ReducedTheta, box_f: LatticeBox, box_g: LatticeBox) -> tuple:
    """(sum box, flat scatter index, read-only phase table) of a product box_f x box_g.

    The phase table holds sigma(p, q) for p in box_f, q in box_g, and the
    scatter index the linear index of p + q in the sum box, flattened in
    the table's order.
    """
    box = LatticeBox(box_f.d, box_f.radius + box_g.radius)
    pf = box_f.enumerate()
    pg = box_g.enumerate()
    phases = phase_table(theta.entries, pf, pg)
    # linear index of pf[i] + pg[j] in the sum box splits additively
    left = (pf + box_f.radius) @ box.places
    right = (pg + box_g.radius) @ box.places
    return box, (left[:, None] + right[None, :]).ravel(), phases


def involution(f: TorusElement) -> TorusElement:
    """The star operation f#(m) = conj(sigma(m, -m)) conj(f(-m))."""
    phases = diagonal_phases(f.theta, f.box)
    return TorusElement(f.theta, f.box, np.conj(phases) * np.conj(f.coeffs[::-1]))


def trace(x: TorusElement) -> complex:
    """The tracial state: the coefficient at the origin."""
    return complex(x.coeffs[x.box.center_index()])


def inner_product(x: TorusElement, y: TorusElement) -> complex:
    """L2 pairing sum_n x(n) conj(y(n)), equal to trace(y# * x)."""
    _same_theta(x, y)
    r = min(x.box.radius, y.box.radius)
    small = LatticeBox(x.box.d, r)
    xs = restricted(x, small)
    ys = restricted(y, small)
    return complex(np.vdot(ys.coeffs, xs.coeffs))


def l2_norm(x: TorusElement) -> float:
    """Plancherel norm: sqrt of the sum of squared coefficient moduli."""
    return math.sqrt(_sum_squares(x.coeffs))


def mult_matrix(x: TorusElement, box: LatticeBox) -> np.ndarray:
    """Matrix of left multiplication by x on the given box.

    Entry (m, n) is sigma(m-n, n) x(m-n), with x read as 0 outside its
    support box.  Applying the matrix to a coefficient vector reproduces
    the twisted convolution restricted to the box.  The box falls under
    the dense-matrix guard.  The matrix is written one _row_blocks block
    of x's points s = m - n at a time, each against every column n whose
    row n + s lies in the box, so no step holds more than one block of
    (shift, column) pairs beside the matrix.
    """
    _same_dimension("box", box.d, "element", x.box.d)
    _guard_box(box.d, box.radius)
    reach = 2 * box.radius  # no farther shift lands in the box
    if x.box.radius > reach:
        x = restricted(x, LatticeBox(box.d, reach))
    pts, places = box.enumerate(), box.places
    shifts = x.box.enumerate()
    n = box.cardinality
    out = np.zeros((n, n), dtype=complex)
    for block in _row_blocks(n, range(len(shifts))):
        s = shifts[block]
        which, cols = np.nonzero(np.all(np.abs(s[:, None] + pts) <= box.radius, axis=2))
        # the row of column point p + s is p's linear index plus s . places
        rows = cols + (s @ places)[which]
        phases = phase_pairs(x.theta.entries, s[which], pts[cols])
        out[rows, cols] = phases * x.coeffs[block][which]
    return out


def partial_derivative(x: TorusElement, j: int) -> TorusElement:
    """The j-th derivation (1-based): coefficient scaling by 2 pi i n_j."""
    j = _integer("derivation index", j)
    if not 1 <= j <= x.box.d:
        raise ValueError(f"derivation index {j} out of range 1..{x.box.d}")
    axes = [np.zeros(x.box.side)] * x.box.d
    axes[j - 1] = np.arange(-x.box.radius, x.box.radius + 1, dtype=float)
    factors = 2j * np.pi * _per_point(axes)
    return TorusElement(x.theta, x.box, x.coeffs * factors)


def laplacian(x: TorusElement) -> TorusElement:
    """Sum of squared derivations: scaling by -4 pi^2 |n|^2."""
    return TorusElement(x.theta, x.box, x.coeffs * (-4.0 * np.pi**2) * x.box.squared_norms())
