"""Deformation data and the bicharacter phase twisting the group algebra.

A real skew-symmetric d x d matrix theta is reduced to its strictly lower
triangle.  The reduced matrix R drives the unimodular pairing

    sigma(m, n) = exp(2 pi i  m . R . n)

on pairs of lattice indices.  sigma is a bicharacter in each slot and
satisfies the 2-cocycle identity, which is exactly what makes the twisted
convolution associative.  The phase argument is reduced mod 1 before
scaling by 2 pi so large indices do not lose accuracy.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import MEMORY_GUARD_CARDINALITY, LatticeBox, _finite, _torus_dimension, as_multi_index

__all__ = [
    "SKEW_TOLERANCE",
    "ThetaMatrix",
    "ReducedTheta",
    "reduce_theta",
    "sigma",
    "phase_pairs",
    "phase_table",
    "diagonal_phases",
    "theta_from_json",
    "load_theta",
    "zero_theta",
    "random_theta",
]

SKEW_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class _SquareMatrix:
    """Read-only finite real d x d matrix, d >= 2, equal only to its own type.

    Subclasses name themselves in messages through _label and add their
    own structure check in _check.  The hash is computed once, on
    construction, since the matrix is a key of every phase memo.
    """

    entries: np.ndarray

    _label = "matrix"

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"{self._label} must be a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"{self._label} must have dimension >= 2, got d={arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            j, k = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"{self._label}[{j}][{k}] = {arr[j, k]} is not finite")
        self._check(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        # equal floats hash alike (-0.0 and 0.0 too), and alike in every process
        object.__setattr__(self, "_hash", hash((arr.shape, tuple(arr.ravel().tolist()))))

    def _check(self, arr: np.ndarray) -> None:
        pass

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return self._hash


class ThetaMatrix(_SquareMatrix):
    """Real skew-symmetric deformation matrix, d >= 2."""

    _label = "theta"

    def _check(self, arr: np.ndarray) -> None:
        d = arr.shape[0]
        for j in range(d):
            if abs(arr[j, j]) > SKEW_TOLERANCE:
                raise ValueError(
                    f"theta[{j}][{j}] = {float(arr[j, j])} exceeds the diagonal "
                    f"tolerance {SKEW_TOLERANCE}"
                )
        for j in range(d):
            for k in range(j + 1, d):
                defect = arr[j, k] + arr[k, j]
                if abs(defect) > SKEW_TOLERANCE:
                    raise ValueError(
                        f"theta[{j}][{k}] + theta[{k}][{j}] = {float(defect)} exceeds the "
                        f"skew-symmetry tolerance {SKEW_TOLERANCE}"
                    )


class ReducedTheta(_SquareMatrix):
    """Strictly lower-triangular reduction of a skew-symmetric theta."""

    _label = "reduced theta"

    def _check(self, arr: np.ndarray) -> None:
        upper = np.triu(arr)
        if np.any(upper != 0.0):
            j, k = np.argwhere(upper != 0.0)[0]
            raise ValueError(
                f"reduced theta must be strictly lower triangular, "
                f"entry [{j}][{k}] = {float(arr[j, k])} is nonzero"
            )


@functools.lru_cache(maxsize=16)
def reduce_theta(theta: ThetaMatrix) -> ReducedTheta:
    """Keep the strictly lower triangle of theta, zero everything else.

    Equal thetas among the last 16 reduced get the same ReducedTheta
    object, so the phase memos keyed by it find it by identity.
    """
    return ReducedTheta(np.tril(theta.entries, k=-1))


def zero_theta(d: int) -> ReducedTheta:
    """Reduced theta of the commutative (untwisted) torus."""
    return ReducedTheta(np.zeros((d, d)))


def random_theta(d: int, rng: np.random.Generator, scale: float = 0.5) -> ThetaMatrix:
    """Random skew-symmetric theta with entries of size about `scale`."""
    a = rng.uniform(-scale, scale, size=(d, d))
    return ThetaMatrix(a - a.T)


def _unit_phases(args: np.ndarray) -> np.ndarray:
    # reduce mod 1 before scaling by 2 pi: keeps unit modulus for large indices
    return np.exp(2j * np.pi * np.mod(args, 1.0))


def phase_pairs(matrix: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Pairwise phases exp(2 pi i left[i] . matrix . right[i]), shape (n,)."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    args = np.einsum("id,de,ie->i", left, matrix, right)
    return _unit_phases(args)


def phase_table(matrix: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Full table exp(2 pi i left[i] . matrix . right[j]), shape (n_left, n_right)."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    args = left @ matrix @ right.T
    return _unit_phases(args)


def diagonal_phases(theta: ReducedTheta, box: LatticeBox) -> np.ndarray:
    """sigma(p, -p) at every point p of the box, in canonical order, read-only.

    Under the dense-matrix guard they come from _diagonal_memo: at most
    16 complex tables of up to 80,000 bytes each.
    """
    if box.cardinality <= MEMORY_GUARD_CARDINALITY:
        return _diagonal_memo(theta, box.d, box.radius)
    return _build_diagonal(theta, box.d, box.radius)


def _build_diagonal(theta: ReducedTheta, d: int, radius: int) -> np.ndarray:
    """diagonal_phases on LatticeBox(d, radius), built afresh."""
    pts = LatticeBox(d, radius).enumerate()
    phases = phase_pairs(theta.entries, pts, -pts)
    phases.flags.writeable = False
    return phases


_diagonal_memo = functools.lru_cache(maxsize=16)(_build_diagonal)


def sigma(theta: ReducedTheta, m, n) -> complex:
    """The cocycle phase exp(2 pi i m . theta_reduced . n) for a single pair."""
    mm = as_multi_index(m)
    nn = as_multi_index(n)
    if mm.shape[0] != theta.d or nn.shape[0] != theta.d:
        raise ValueError(
            f"index dimensions ({mm.shape[0]}, {nn.shape[0]}) do not match theta d={theta.d}"
        )
    return complex(phase_pairs(theta.entries, mm[None, :], nn[None, :])[0])


def theta_from_json(doc: dict) -> ThetaMatrix:
    """Build a ThetaMatrix from {"d": int, "theta": [[row], ...]}.

    Validation errors name the offending entry.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"theta document must be a JSON object, got {type(doc).__name__}")
    for key in ("d", "theta"):
        if key not in doc:
            raise ValueError(f"theta document missing key {key!r}")
    return _theta_rows(doc["theta"], _torus_dimension("'d'", doc["d"]))


def _theta_rows(rows, d: int | None = None) -> ThetaMatrix:
    """A ThetaMatrix from JSON rows: d of them, or as many as there are."""
    if not isinstance(rows, list):
        raise ValueError(f"'theta' must be a list of rows, got {type(rows).__name__}")
    if d is None:
        d = _torus_dimension("'d'", len(rows))
    if len(rows) != d:
        raise ValueError(f"'theta' has {len(rows)} rows, expected {d}")
    for j, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"theta[{j}] must be a list of entries, got {type(row).__name__}")
        if len(row) != d:
            raise ValueError(f"theta[{j}] has {len(row)} entries, expected {d}")
        for k, v in enumerate(row):
            _finite(f"theta[{j}][{k}]", v)
    return ThetaMatrix(np.array(rows, dtype=float))


def _read_json(path: str | Path):
    """The JSON document in a file; every error json.load raises names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad syntax, bytes not UTF-8, an int too long to read
            raise ValueError(f"{path}: {exc}") from None


def load_theta(path: str | Path) -> ThetaMatrix:
    """Read a theta JSON document from disk."""
    return theta_from_json(_read_json(path))
