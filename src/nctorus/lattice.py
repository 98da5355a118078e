"""Truncated integer lattices Z^d intersected with [-N, N]^d.

Every matrix and coefficient vector in this package is indexed by the
points of such a box, enumerated in a single canonical order, so the
index bijections here are the ground truth for everything built on top.
The number rules every module checks its inputs by live here as well,
and so does the one sum of squares every norm and gap reduces with.
"""

from __future__ import annotations

import functools
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
    """value as a finite float; NaN, inf, bools, non-numbers and ints beyond floats do not pass."""
    kind = "a finite number"
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        kind += " within the float range"
    raise ValueError(f"{name} must be {kind}, got {_shown(value)}")


def _positive(name: str, value, kind: str = "a positive number") -> float:
    """value as a float > 0 (inf too), else "{name} must be {kind}"; NaN and bools fail.

    A positive int beyond the float range is refused by naming that range instead.
    """
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and value > 0:
            return float(value)
    except OverflowError:
        kind = "a positive number within the float range"
    raise ValueError(f"{name} must be {kind}, got {_shown(value)}")


def _seed(value) -> int:
    """value as a Philox key: an integer by _integer, in [0, 2**128)."""
    seed = _integer("seed", value)
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {_shown(seed)}")
    return seed


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


def _build_geometry(d: int, radius: int) -> tuple:
    """Read-only points of LatticeBox(d, radius) and place values behind linear_indices."""
    side = 2 * radius + 1
    grid = np.indices((side,) * d, dtype=np.int64).reshape(d, -1)
    points = np.ascontiguousarray(grid.T)
    points -= radius
    weights = side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


# Geometry of the 16 boxes under the dense-matrix guard used last: at most
# 125,000 bytes of points each (d = 5, radius 2), 2 MB in all.
_geometry_memo = functools.lru_cache(maxsize=16)(_build_geometry)


@dataclass(frozen=True)
class LatticeBox:
    """The cube Z^d ∩ [-radius, radius]^d with its canonical total order.

    Points are ordered lexicographically, first coordinate slowest: the
    enumeration starts at (-radius, ..., -radius) and ends at
    (radius, ..., radius).  Dimension d >= 1 is accepted here; torus-level
    constructions impose d >= 2 themselves.

    A box reads its points and place values once.  Under the dense-matrix
    guard every box of the same (d, radius) shares one read-only copy from
    _geometry_memo; a larger box, such as the decay fit's, builds its own.
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
    def _geometry(self) -> tuple:
        """(points, place values), as _build_geometry makes them."""
        if self.cardinality <= MEMORY_GUARD_CARDINALITY:
            return _geometry_memo(self.d, self.radius)
        return _build_geometry(self.d, self.radius)

    def enumerate(self) -> np.ndarray:
        """All points as a read-only (cardinality, d) array in canonical order."""
        return self._geometry[0]

    def contains(self, m: Sequence[int] | np.ndarray) -> bool:
        """Whether the multi-index m lies in the box; one of another dimension is refused."""
        arr = as_multi_index(m)
        if arr.shape[0] != self.d:
            raise ValueError(
                f"lattice point {tuple(arr.tolist())} has dimension {arr.shape[0]}, "
                f"box has d={self.d}"
            )
        return bool(np.all(np.abs(arr) <= self.radius))

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
        return (pts + self.radius) @ self._geometry[1]

    def center_index(self) -> int:
        """Linear index of the origin."""
        return (self.cardinality - 1) // 2


def _embedding(d: int, small: int, big: int) -> np.ndarray:
    """Read-only positions in LatticeBox(d, big) of the points of LatticeBox(d, small).

    Under the dense-matrix guard they come from _embedding_memo: at most
    16 int64 indices of up to 40,000 bytes each.
    """
    if (2 * big + 1) ** d <= MEMORY_GUARD_CARDINALITY:
        return _embedding_memo(d, small, big)
    return _build_embedding(d, small, big)


def _build_embedding(d: int, small: int, big: int) -> np.ndarray:
    """_embedding, built afresh."""
    index = LatticeBox(d, big).linear_indices(LatticeBox(d, small).enumerate())
    index.flags.writeable = False
    return index


_embedding_memo = functools.lru_cache(maxsize=16)(_build_embedding)
