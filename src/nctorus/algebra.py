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

from .cocycle import ReducedTheta, diagonal_phases, phase_pairs, phase_table
from .lattice import LatticeBox, _guard_box, as_multi_index

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
    coeffs[box.linear_indices(x.box.enumerate())] = x.coeffs
    return TorusElement(x.theta, box, coeffs)


def restricted(x: TorusElement, box: LatticeBox) -> TorusElement:
    """Truncate x to a smaller (or equal) box, discarding outside coefficients."""
    if box.d != x.box.d:
        raise ValueError(f"target box dimension {box.d} does not match element d={x.box.d}")
    if box.radius > x.box.radius:
        return embedded(x, box)
    coeffs = x.coeffs[x.box.linear_indices(box.enumerate())]
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
    box = LatticeBox(f.box.d, f.box.radius + g.box.radius)
    pf = f.box.enumerate()
    pg = g.box.enumerate()
    phases = phase_table(f.theta.entries, pf, pg)
    contrib = np.outer(f.coeffs, g.coeffs) * phases
    # linear index of pf[i] + pg[j] in the sum box splits additively
    w = (box.side ** np.arange(box.d - 1, -1, -1)).astype(np.int64)
    left = (pf + f.box.radius) @ w
    right = (pg + g.box.radius) @ w
    coeffs = np.zeros(box.cardinality, dtype=complex)
    np.add.at(coeffs, (left[:, None] + right[None, :]).ravel(), contrib.ravel())
    return TorusElement(f.theta, box, coeffs)


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
    return float(np.linalg.norm(x.coeffs))


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
    if not 1 <= j <= x.box.d:
        raise ValueError(f"derivation index {j} out of range 1..{x.box.d}")
    factors = 2j * np.pi * x.box.enumerate()[:, j - 1]
    return TorusElement(x.theta, x.box, x.coeffs * factors)


def laplacian(x: TorusElement) -> TorusElement:
    """Sum of squared derivations: scaling by -4 pi^2 |n|^2."""
    sq = np.einsum("ij,ij->i", x.box.enumerate(), x.box.enumerate())
    return TorusElement(x.theta, x.box, x.coeffs * (-4.0 * np.pi**2) * sq)
