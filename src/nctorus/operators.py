"""Dense complex matrices indexed by a lattice box in canonical order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeBox

__all__ = ["OperatorMatrix"]


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A square operator matrix whose rows/columns follow box.enumerate()."""

    box: LatticeBox
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        n = self.box.cardinality
        if arr.shape != (n, n):
            raise ValueError(
                f"entries must be a {n}x{n} matrix for a box of cardinality {n}, "
                f"got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.box, self.entries.conj().T)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (self.side,):
            raise ValueError(f"vector length {vec.shape} does not match side {self.side}")
        return self.entries @ vec

