"""Fourier multipliers: coefficient-wise scaling by a symbol on Z^d.

A multiplier acts diagonally in the Fourier basis, so it is kept as the
vector of its symbol values on the box and never built as a matrix:
composing it with an operator matrix scales rows (multiplier on the
left) or columns (on the right), and its spectrum is the sorted absolute
values.  The heavy lifting is the Bessel family (1 + |n|^2)^(a/2) and its
homogeneous Riesz cousin |n|^a, both computed in log space so large
boxes with very negative orders stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import TorusElement
from .lattice import LatticeBox

__all__ = [
    "SymbolFunction",
    "bessel_symbol",
    "riesz_symbol",
    "multiplier_values",
    "apply_multiplier",
    "sobolev_norm",
]

# Symbol values with magnitude below this flush to exact zero rather than
# denormal noise; 1e-300 sits just above the double-precision underflow floor.
_UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True)
class SymbolFunction:
    """A named symbol evaluated vectorically on (k, d) arrays of lattice points."""

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]

    def values_on(self, box: LatticeBox) -> np.ndarray:
        pts = box.enumerate()
        vals = np.asarray(self.evaluate(pts), dtype=complex).reshape(-1)
        if vals.shape[0] != box.cardinality:
            raise ValueError(
                f"symbol {self.name!r} returned {vals.shape[0]} values "
                f"for a box of cardinality {box.cardinality}"
            )
        return vals


def _stable_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """base**exponent via exp(exponent * log base), flushing underflow to 0.

    base must be strictly positive.  Direct np.power overflows to inf for
    strongly negative exponents on large boxes before the reciprocal is
    taken; the log-space route never leaves the representable range.  A
    large positive exponent can still overflow to inf, silently here;
    multiplier_values reports it by lattice point.
    """
    with np.errstate(over="ignore"):
        out = np.exp(exponent * np.log(base))
    out[np.abs(out) < _UNDERFLOW_FLOOR] = 0.0
    return out


def bessel_symbol(alpha: float) -> SymbolFunction:
    """The symbol (1 + |n|^2)^(alpha/2) of the Bessel potential of order alpha."""

    def evaluate(pts: np.ndarray) -> np.ndarray:
        nsq = np.einsum("ij,ij->i", pts, pts).astype(float)
        return _stable_power(1.0 + nsq, alpha / 2.0)

    return SymbolFunction(f"bessel({alpha:g})", evaluate)


def riesz_symbol(alpha: float) -> SymbolFunction:
    """The homogeneous symbol |n|^alpha, with value 0 at the origin."""

    def evaluate(pts: np.ndarray) -> np.ndarray:
        nsq = np.einsum("ij,ij->i", pts, pts).astype(float)
        out = np.zeros(len(pts), dtype=float)
        nz = nsq > 0
        out[nz] = _stable_power(nsq[nz], alpha / 2.0)
        return out

    return SymbolFunction(f"riesz({alpha:g})", evaluate)


def multiplier_values(symbol: SymbolFunction, box: LatticeBox) -> np.ndarray:
    """The multiplier on the box as its symbol values, in canonical order.

    This vector is the diagonal of the multiplier's matrix: ``v[:, None] * A``
    is the multiplier composed after A, ``A * v[None, :]`` before it.  A
    non-finite value is an error naming its lattice point.
    """
    vals = symbol.values_on(box)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        m = box.enumerate()[int(np.argmax(bad))]
        raise ValueError(
            f"symbol {symbol.name!r} is not finite at lattice point {tuple(int(v) for v in m)}"
        )
    return vals


def apply_multiplier(symbol: SymbolFunction, x: TorusElement) -> TorusElement:
    """Scale each Fourier coefficient of x by the symbol value at its index."""
    return TorusElement(x.theta, x.box, x.coeffs * multiplier_values(symbol, x.box))


def _scaled_norm(moduli: np.ndarray) -> float:
    """L2 norm of an array of nonnegative reals, which it divides in place.

    Dividing by the largest entry first keeps the squares in range, so the
    norm is finite wherever that entry is, and no warning is raised.
    """
    top = float(np.max(moduli, initial=0.0))
    if top == 0.0:
        return 0.0
    moduli /= top
    return top * float(np.linalg.norm(moduli))


def sobolev_norm(x: TorusElement, alpha: float) -> float:
    """The order-alpha Sobolev norm: L2 norm after the Bessel multiplier."""
    vals = multiplier_values(bessel_symbol(alpha), x.box)
    return _scaled_norm(np.abs(x.coeffs * vals))
