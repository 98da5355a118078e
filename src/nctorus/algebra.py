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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cocycle import ReducedTheta, diagonal_phases, phase_pairs, phase_table
from .lattice import LatticeBox, _embedding, _guard_box, _integer, _sum_squares, as_multi_index

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
    """Fourier coefficients of a twisted-algebra element on a lattice box."""

    theta: ReducedTheta
    box: LatticeBox
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.box.d != self.theta.d:
            raise ValueError(
                f"box dimension {self.box.d} does not match theta dimension {self.theta.d}"
            )
        arr = np.array(self.coeffs, dtype=complex).reshape(-1)
        if arr.shape[0] != self.box.cardinality:
            raise ValueError(
                f"coefficient vector has length {arr.shape[0]}, "
                f"box cardinality is {self.box.cardinality}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def coefficient(self, m) -> complex:
        """The Fourier coefficient at index m (0 outside the box)."""
        arr = as_multi_index(m)
        if not self.box.contains(arr):
            return 0.0 + 0.0j
        return complex(self.coeffs[self.box.linear_index(arr)])

    def __add__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement):
            return NotImplemented
        _require_same_theta(self, other)
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


def _require_same_theta(f: TorusElement, g: TorusElement) -> None:
    if f.theta != g.theta:
        raise ValueError("elements live over different deformation matrices")


def monomial(theta: ReducedTheta, m, box: LatticeBox) -> TorusElement:
    """The basis monomial with coefficient 1 at index m."""
    arr = as_multi_index(m)
    coeffs = np.zeros(box.cardinality, dtype=complex)
    coeffs[box.linear_index(arr)] = 1.0
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
    if box.d != x.box.d:
        raise ValueError(f"target box dimension {box.d} does not match element d={x.box.d}")
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
    if box.d != x.box.d:
        raise ValueError(f"target box dimension {box.d} does not match element d={x.box.d}")
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
    _require_same_theta(f, g)
    _guard_box(f.box.d, f.box.radius)
    _guard_box(g.box.d, g.box.radius)
    box, scatter, phases = _product_plan(f.theta, f.box, g.box)
    contrib = np.outer(f.coeffs, g.coeffs) * phases
    coeffs = np.zeros(box.cardinality, dtype=complex)
    np.add.at(coeffs, scatter, contrib.ravel())
    return TorusElement(f.theta, box, coeffs)


# Largest phase table a product plan is memoised for: 2^14 entries, the
# 256 KiB block of complex data kernels.py works in.
_PLAN_MEMO_ENTRIES = 1 << 14


def _product_plan(theta: ReducedTheta, box_f: LatticeBox, box_g: LatticeBox) -> tuple:
    """(sum box, flat scatter index, read-only phase table) of a product box_f x box_g.

    The phase table holds sigma(p, q) for p in box_f, q in box_g, and the
    scatter index the linear index of p + q in the sum box, flattened in
    the table's order.  A plan whose table has at most _PLAN_MEMO_ENTRIES
    entries comes from _plan_memo, an LRU of at most 16 plans: with its
    int64 index, at most 384 KiB each and 6 MiB in all.  A larger plan is
    built for each call.  Either way the plan is built by _build_plan, so
    the memo changes no bit of a product.
    """
    if box_f.cardinality * box_g.cardinality <= _PLAN_MEMO_ENTRIES:
        return _plan_memo(theta, box_f, box_g)
    return _build_plan(theta, box_f, box_g)


def _build_plan(theta: ReducedTheta, box_f: LatticeBox, box_g: LatticeBox) -> tuple:
    """_product_plan, built afresh."""
    box = LatticeBox(box_f.d, box_f.radius + box_g.radius)
    pf = box_f.enumerate()
    pg = box_g.enumerate()
    phases = phase_table(theta.entries, pf, pg)
    # linear index of pf[i] + pg[j] in the sum box splits additively
    weights = box._geometry[1]
    left = (pf + box_f.radius) @ weights
    right = (pg + box_g.radius) @ weights
    scatter = (left[:, None] + right[None, :]).ravel()
    phases.flags.writeable = False
    scatter.flags.writeable = False
    return box, scatter, phases


_plan_memo = functools.lru_cache(maxsize=16)(_build_plan)


def involution(f: TorusElement) -> TorusElement:
    """The star operation f#(m) = conj(sigma(m, -m)) conj(f(-m))."""
    phases = diagonal_phases(f.theta, f.box)
    return TorusElement(f.theta, f.box, np.conj(phases) * np.conj(f.coeffs[::-1]))


def trace(x: TorusElement) -> complex:
    """The tracial state: the coefficient at the origin."""
    return complex(x.coeffs[x.box.center_index()])


def inner_product(x: TorusElement, y: TorusElement) -> complex:
    """L2 pairing sum_n x(n) conj(y(n)), equal to trace(y# * x)."""
    _require_same_theta(x, y)
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
    the dense-matrix guard, checked before the n x n x d difference table
    is built.
    """
    if box.d != x.box.d:
        raise ValueError(f"box dimension {box.d} does not match element d={x.box.d}")
    _guard_box(box.d, box.radius)
    pts = box.enumerate()
    diff = pts[:, None, :] - pts[None, :, :]
    rows, cols = np.nonzero(np.all(np.abs(diff) <= x.box.radius, axis=2))
    shifts = diff[rows, cols]
    out = np.zeros((box.cardinality, box.cardinality), dtype=complex)
    out[rows, cols] = phase_pairs(x.theta.entries, shifts, pts[cols]) * x.coeffs[
        x.box.linear_indices(shifts)
    ]
    return out


def partial_derivative(x: TorusElement, j: int) -> TorusElement:
    """The j-th derivation (1-based): coefficient scaling by 2 pi i n_j."""
    j = _integer("derivation index", j)
    if not 1 <= j <= x.box.d:
        raise ValueError(f"derivation index {j} out of range 1..{x.box.d}")
    factors = 2j * np.pi * x.box.enumerate()[:, j - 1]
    return TorusElement(x.theta, x.box, x.coeffs * factors)


def laplacian(x: TorusElement) -> TorusElement:
    """Sum of squared derivations: scaling by -4 pi^2 |n|^2."""
    sq = np.einsum("ij,ij->i", x.box.enumerate(), x.box.enumerate())
    return TorusElement(x.theta, x.box, x.coeffs * (-4.0 * np.pi**2) * sq)
