"""Truncated integer lattices Z^d intersected with [-N, N]^d.

Every matrix and coefficient vector in this package is indexed by the
points of such a box, enumerated in a single canonical order, so the
index bijections here are the ground truth for everything built on top.
The number rules every module checks its inputs by live here as well,
and so does the one sum of squares every norm and gap reduces with.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "LatticeBox",
    "MAX_DIMENSION",
    "MEMORY_GUARD_CARDINALITY",
    "DECAY_GUARD_CARDINALITY",
    "as_multi_index",
]

# Largest box cardinality (2N+1)^d a dense n x n construction will accept;
# beyond this a single complex matrix tops 0.4 GB and the SVD minutes.
MEMORY_GUARD_CARDINALITY = 5000

# Largest box a diagonal spectrum (the decay fit) will enumerate: its
# points, weights and sorted spectrum take tens of bytes per point.
DECAY_GUARD_CARDINALITY = 1 << 20

# Largest dimension accepted anywhere: the largest in which a radius-1 box
# (3^d points) passes the decay guard.  Beyond it only the one-point box
# would, and refusing d first keeps (2N+1)^d from ever being computed as
# an exact power with a huge exponent.
MAX_DIMENSION = 12


def _shown(value) -> str:
    """repr(value), or an int's bit length when it has too many digits to print."""
    try:
        return repr(value)
    except ValueError:  # past the digit limit of int-to-str conversion
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


def _sum_squares(block: np.ndarray) -> float:
    """Sum of |entry|^2 over a real or complex array; NaN gives NaN, else inf inf.

    einsum's own loop does the sum, never BLAS, so no BLAS thread is woken
    and the result does not depend on the BLAS thread count.  A C- or
    F-contiguous block, or its transpose, is read in place as floats.
    """
    flat = np.ravel(block, order="K")
    if flat.dtype.kind == "c":
        flat = flat.view(flat.real.dtype)
    return float(np.einsum("i,i->", flat, flat))


def _integer(name: str, value) -> int:
    """value as an int; integral floats such as 2.0 pass, 2.7 or True do not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    return int(value)


def _integer_array(name: str, value) -> np.ndarray:
    """value as an int64 array by the rule of _integer; int64 arrays pass uncopied."""
    arr = np.asarray(value)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # NaN, inf and huge entries cast to junk
            out = arr.astype(np.int64)
        if np.array_equal(out, arr):  # junk never equals the entry it came from
            return out
    raise ValueError(f"{name} entries must be integers, got {_shown(value)}")


def _finite(name: str, value) -> float:
    """value as a finite float; NaN, inf, bools and non-numbers do not pass."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"{name} must be a finite number, got {_shown(value)}")


def _positive(name: str, value) -> float:
    """value as a float > 0; inf passes, NaN, bools and non-numbers do not."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and value > 0:
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"{name} must be a positive number, got {_shown(value)}")


def as_multi_index(m: Sequence[int] | np.ndarray) -> np.ndarray:
    """Coerce a multi-index to a 1-d int64 array, rejecting non-integers."""
    arr = _integer_array("multi-index", m)
    if arr.ndim != 1:
        raise ValueError(f"multi-index must be one-dimensional, got shape {arr.shape}")
    return arr


def _guard_dimension(d: int) -> None:
    """Refuse a dimension above MAX_DIMENSION before any power of it is taken."""
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension must be at most {MAX_DIMENSION}, got {_shown(d)}")


def _torus_dimension(name: str, value) -> int:
    """value as a torus dimension: an integer by _integer, from 2 to MAX_DIMENSION."""
    d = _integer(name, value)
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {_shown(d)}")
    _guard_dimension(d)
    return d


def _guard_box(
    d: int, radius: int, limit: int = MEMORY_GUARD_CARDINALITY, name: str = "dense-matrix"
) -> None:
    """Refuse a box with more than limit points, by default the dense-matrix guard."""
    _guard_dimension(d)
    card = (2 * radius + 1) ** d
    if card > limit:
        raise ValueError(
            f"box cardinality (2N+1)^d = {_shown(card)} exceeds the {name} guard "
            f"of {limit}; reduce N or d"
        )


@dataclass(frozen=True)
class LatticeBox:
    """The cube Z^d ∩ [-radius, radius]^d with its canonical total order.

    Points are ordered lexicographically, first coordinate slowest: the
    enumeration starts at (-radius, ..., -radius) and ends at
    (radius, ..., radius).  Dimension d >= 1 is accepted here; torus-level
    constructions impose d >= 2 themselves.
    """

    d: int
    radius: int

    def __post_init__(self) -> None:
        if type(self.d) is not int or type(self.radius) is not int:  # plain ints are the fast path
            object.__setattr__(self, "d", _integer("dimension", self.d))
            object.__setattr__(self, "radius", _integer("radius", self.radius))
        if self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {_shown(self.d)}")
        if self.radius < 0:
            raise ValueError(f"radius must be a nonnegative integer, got {_shown(self.radius)}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def cardinality(self) -> int:
        return self.side**self.d

    @cached_property
    def _weights(self) -> np.ndarray:
        # place values of the mixed-radix expansion behind linear_indices
        w = self.side ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        w.flags.writeable = False
        return w

    @cached_property
    def _points(self) -> np.ndarray:
        grid = np.indices((self.side,) * self.d, dtype=np.int64).reshape(self.d, -1)
        pts = np.ascontiguousarray(grid.T)
        pts -= self.radius
        pts.flags.writeable = False
        return pts

    def enumerate(self) -> np.ndarray:
        """All points as a (cardinality, d) array in canonical order."""
        return self._points

    def contains(self, m: Sequence[int] | np.ndarray) -> bool:
        arr = as_multi_index(m)
        return arr.shape[0] == self.d and bool(np.all(np.abs(arr) <= self.radius))

    def linear_index(self, m: Sequence[int] | np.ndarray) -> int:
        """Position of m in enumerate(); the one-point case of linear_indices."""
        return int(self.linear_indices(as_multi_index(m)[None])[0])

    def linear_indices(self, pts: np.ndarray) -> np.ndarray:
        """Positions in enumerate() of an (n, d) array of in-box points."""
        pts = _integer_array("lattice point", pts)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            if pts.ndim == 2 and len(pts):
                raise IndexError(
                    f"lattice point {tuple(pts[0].tolist())} has dimension {pts.shape[1]}, "
                    f"box has d={self.d}"
                )
            raise IndexError(f"expected an (n, {self.d}) array of points, got shape {pts.shape}")
        far = np.abs(pts) > self.radius
        if np.any(far):
            point = tuple(pts[far.any(axis=1)][0].tolist())
            raise IndexError(f"lattice point {point} outside box of radius {self.radius}")
        return (pts + self.radius) @ self._weights

    def center_index(self) -> int:
        """Linear index of the origin."""
        return (self.cardinality - 1) // 2
