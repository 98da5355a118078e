"""Truncated integer lattices Z^d intersected with [-N, N]^d.

Every matrix and coefficient vector in this package is indexed by the
points of such a box, enumerated in a single canonical order, so the
index bijections here are the ground truth for everything built on top.
Here too live the one sum of squares every norm and gap reduces with,
the one rule (_memo) by which every module keeps its per-box tables,
the one block size (_BLOCK_ENTRIES) every dense step works in, and the
rules every module checks its inputs by.  Among them: a torus
dimension (_torus_dimension), one dimension for a box and what it meets
(_same_dimension), a nonnegative order (_order), lattice points
(_points: an (n, d) integer array, one point the case n = 1) and
coefficients (_coefficients: numbers in exactly the box's shape).  One
theta for both operands is cocycle._same_theta.
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
]

# Largest box cardinality (2N+1)^d a dense n x n construction will accept;
# beyond this a single complex matrix tops 0.4 GB and the SVD minutes.
MEMORY_GUARD_CARDINALITY = 5000

# Entries per dense block: 256 KiB of complex data, well inside a core's
# L2.  Kernel row blocks, mult_matrix's shift blocks and the largest
# memoised product plan are all this size.
_BLOCK_ENTRIES = 1 << 14

# Largest box whose diagonal spectrum the decay fit reads.  It counts the
# box's shells (LatticeBox.shells) and holds no per-point table, only the
# fit window's three arrays over 45% of the points: a traced peak of about
# 13 bytes per point at d = 2, N = 160 and 11 at d = 3, N = 20.
DECAY_GUARD_CARDINALITY = 1 << 20

# Largest dimension accepted anywhere, boxes included: the largest in
# which a radius-1 box (3^d points) passes the decay guard.  Beyond it
# only the one-point box would, and refusing d first keeps (2N+1)^d from
# ever being computed as an exact power with a huge exponent.
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
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nested sequence
        shown = _shown(value)
        raise ValueError(f"{name} entries must form a rectangular array, got {shown}") from None
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


def _order(name: str, value) -> float:
    """value as a finite float >= 0: a Sobolev order or an envelope exponent."""
    order = _finite(name, value)
    if order < 0:
        raise ValueError(f"{name} must be nonnegative, got {_shown(order)}")
    return order


def _seed(value) -> int:
    """value as a Philox key: an integer by _integer, in [0, 2**128)."""
    seed = _integer("seed", value)
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {_shown(seed)}")
    return seed


def _torus_dimension(name: str, value) -> int:
    """value as a torus dimension: an integer by _integer, from 2 to MAX_DIMENSION."""
    d = _integer(name, value)
    if d < 2:
        raise ValueError(f"{name} must be at least 2, got {_shown(d)}")
    if d > MAX_DIMENSION:
        raise ValueError(f"{name} must be at most {MAX_DIMENSION}, got {_shown(d)}")
    return d


def _same_dimension(name: str, d: int, other: str, other_d: int) -> None:
    """Refuse a d that differs from other_d; the message is built only on refusal."""
    if d != other_d:
        raise ValueError(f"{name} has dimension {d}, {other} has d={other_d}")


def _points(value, d: int, meets: str = "box", single: bool = False) -> np.ndarray:
    """value as (n, d) int64 points by _integer_array; a single point, shape (d,), is n = 1."""
    pts = _integer_array("lattice point", value)
    if single and pts.ndim == 1:
        pts = pts[None]
    elif single or pts.ndim != 2 or not len(pts) and pts.shape[1] != d:
        want = f"({d},)" if single else f"(n, {d})"
        raise ValueError(f"expected lattice points of shape {want}, got shape {pts.shape}")
    if pts.shape[1] != d:  # the point is printed only on refusal
        _same_dimension(f"lattice point {tuple(pts[0].tolist())}", pts.shape[1], meets, d)
    return pts


def _coefficients(value, shape: tuple) -> np.ndarray:
    """value as an array, uncopied, of numbers (dtype kind i, u, f or c) in exactly shape."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nested sequence
        raise ValueError(f"coefficients have a ragged shape, expected {shape}") from None
    if arr.dtype.kind not in "iufc":
        raise ValueError(f"coefficients must be numbers, got dtype {arr.dtype}")
    if arr.shape != shape:
        raise ValueError(f"coefficients have shape {arr.shape}, expected {shape}")
    return arr


def _guard_box(
    d: int, radius: int, limit: int = MEMORY_GUARD_CARDINALITY, name: str = "dense-matrix"
) -> None:
    """Refuse a box with more than limit points, by default the dense-matrix guard.

    Its dimension d must be a torus dimension, checked before (2N+1)^d is taken.
    """
    _torus_dimension("dimension", d)
    card = (2 * radius + 1) ** d
    if card > limit:
        raise ValueError(
            f"box cardinality (2N+1)^d = {_shown(card)} exceeds the {name} guard "
            f"of {limit}; reduce N or d"
        )


def _row_blocks(n: int, span: range | None = None):
    """Slices covering span, all of range(n) by default, of _BLOCK_ENTRIES // n rows of n.

    A block has at least one row; the blocks start at span.start, and the
    last may be shorter.
    """
    span = range(n) if span is None else span
    height = max(1, _BLOCK_ENTRIES // n)
    for start in range(span.start, span.stop, height):
        yield slice(start, min(start + height, span.stop))


# Every memo of tables, by qualified name: an LRU whose __wrapped__ is its
# builder.  Lookups read the LRU from here, so a test may swap in the
# builder to bypass the memo.
_MEMOS: dict = {}


def _memo(size=lambda *key: 0, limit: int = MEMORY_GUARD_CARDINALITY):
    """Decorator: keep build(*key) in an LRU of 16 when size(*key) <= limit.

    A larger table is built afresh on every call; without a size rule
    every key is kept.  Either way every ndarray the builder returns,
    alone or in a tuple, is made read-only, and the memo changes no bit
    of any output.
    """

    def decorate(build):
        def fresh(*key):
            table = build(*key)
            for part in table if isinstance(table, tuple) else (table,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            return table

        name = f"{build.__module__}.{build.__name__}"
        _MEMOS[name] = functools.lru_cache(maxsize=16)(fresh)

        @functools.wraps(build)
        def lookup(*key):
            return _MEMOS[name](*key) if size(*key) <= limit else fresh(*key)

        return lookup

    return decorate


@_memo(lambda d, radius: (2 * radius + 1) ** d)
def _box_geometry(d: int, radius: int) -> np.ndarray:
    """Points of LatticeBox(d, radius) in canonical order."""
    side = 2 * radius + 1
    grid = np.indices((side,) * d, dtype=np.int64).reshape(d, -1)
    points = np.ascontiguousarray(grid.T)
    points -= radius
    return points


@dataclass(frozen=True)
class LatticeBox:
    """The cube Z^d ∩ [-radius, radius]^d with its canonical total order.

    Points are ordered lexicographically, first coordinate slowest: the
    enumeration starts at (-radius, ..., -radius) and ends at
    (radius, ..., radius).  Dimensions 1 to MAX_DIMENSION are accepted
    here; torus-level constructions impose d >= 2 themselves.

    A point's position is (point + radius) . places, so no position
    lookup reads the points.  A box reads its points once; under the
    dense-matrix guard, boxes of one (d, radius) share them.
    """

    d: int
    radius: int

    def __post_init__(self) -> None:
        if type(self.d) is not int or type(self.radius) is not int:  # plain ints are the fast path
            object.__setattr__(self, "d", _integer("dimension", self.d))
            object.__setattr__(self, "radius", _integer("radius", self.radius))
        if self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {_shown(self.d)}")
        if self.d > MAX_DIMENSION:
            raise ValueError(f"dimension must be at most {MAX_DIMENSION}, got {_shown(self.d)}")
        if self.radius < 0:
            raise ValueError(f"radius must be a nonnegative integer, got {_shown(self.radius)}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @cached_property
    def cardinality(self) -> int:
        return self.side**self.d

    @property
    def places(self) -> np.ndarray:
        """Place values side^(d-1-i) as int64; a box whose positions overflow int64 is refused."""
        if self.cardinality > 2**63:  # the last position is cardinality - 1
            raise ValueError(
                f"box cardinality (2N+1)^d = {_shown(self.cardinality)} exceeds 2**63, "
                "so its positions overflow int64"
            )
        return self.side ** np.arange(self.d - 1, -1, -1, dtype=np.int64)

    @cached_property
    def _geometry(self) -> np.ndarray:
        """The points, as _box_geometry makes them."""
        return _box_geometry(self.d, self.radius)

    def enumerate(self) -> np.ndarray:
        """All points as a read-only (cardinality, d) array in canonical order."""
        return self._geometry

    def squared_norms(self) -> np.ndarray:
        """|n|^2 of every point, in canonical order, as a fresh float array."""
        pts = self.enumerate()
        return np.einsum("ij,ij->i", pts, pts).astype(float)

    def shells(self) -> tuple:
        """(s, r(s)): each squared norm s = |n|^2 in the box, increasing, and its point count.

        One axis takes the square 0 once and k^2 twice for 0 < k <= radius.
        d - 1 exact int64 convolutions with those counts, each over the
        pairs of a shell held and a square, tally the box without any
        per-point table; the counts sum to the cardinality.
        """
        squares = np.arange(self.radius + 1, dtype=np.int64) ** 2
        norms, counts = squares, np.full(self.radius + 1, 2, dtype=np.int64)
        counts[0] = 1
        for _ in range(self.d - 1):
            tally = np.zeros(norms[-1] + squares[-1] + 1, dtype=np.int64)
            tally[norms] = counts  # the square 0
            pairs = (norms[:, None] + squares[None, 1:]).ravel()
            np.add.at(tally, pairs, np.repeat(2 * counts, self.radius))
            norms = np.flatnonzero(tally)
            counts = tally[norms]
        return norms, counts

    def contains(self, m: Sequence[int] | np.ndarray) -> bool:
        """Whether the lattice point m lies in the box."""
        return bool(np.all(np.abs(_points(m, self.d, single=True)) <= self.radius))

    def linear_index(self, m: Sequence[int] | np.ndarray) -> int:
        """Position of the lattice point m in enumerate(); the one-point case of linear_indices."""
        return int(self._positions(_points(m, self.d, single=True))[0])

    def linear_indices(self, pts: np.ndarray) -> np.ndarray:
        """Positions in enumerate() of an (n, d) array of in-box points."""
        return self._positions(_points(pts, self.d))

    def _positions(self, pts: np.ndarray) -> np.ndarray:
        """Positions of points that passed _points; one outside the box is an IndexError."""
        places = self.places
        far = np.abs(pts) > self.radius
        if np.any(far):
            point = tuple(pts[far.any(axis=1)][0].tolist())
            raise IndexError(f"lattice point {point} outside box of radius {self.radius}")
        return (pts + self.radius) @ places

    def center_index(self) -> int:
        """Linear index of the origin."""
        return (self.cardinality - 1) // 2


@_memo(lambda d, small, big: (2 * big + 1) ** d)
def _embedding(d: int, small: int, big: int) -> np.ndarray:
    """Positions in LatticeBox(d, big) of the points of LatticeBox(d, small)."""
    return LatticeBox(d, big).linear_indices(LatticeBox(d, small).enumerate())
