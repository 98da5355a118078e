"""Fourier multipliers: coefficient-wise scaling by weights on Z^d.

A multiplier acts diagonally in the Fourier basis, so it is kept as the
real vector of its weights on the box and never built as a matrix:
composing it with an operator matrix scales rows (multiplier on the
left) or columns (on the right), and its spectrum is the sorted absolute
values.  The weights are the Bessel family (1 + |n|^2)^(a/2) and its
homogeneous Riesz cousin |n|^a, both computed in log space so large
boxes with very negative orders stay finite.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import TorusElement
from .lattice import LatticeBox, _finite, _sum_squares

__all__ = [
    "bessel_weights",
    "riesz_weights",
    "apply_multiplier",
    "sobolev_norm",
]

# Weights with magnitude below this flush to exact zero rather than
# denormal noise; 1e-300 sits just above the double-precision underflow floor.
_UNDERFLOW_FLOOR = 1e-300


def _stable_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """base**exponent via exp(exponent * log base), flushing underflow to 0.

    base must be strictly positive.  Direct np.power overflows to inf for
    strongly negative exponents on large boxes before the reciprocal is
    taken; the log-space route never leaves the representable range.  A
    large positive exponent can still overflow to inf, silently here;
    _checked reports it by lattice point.
    """
    out = np.log(base)
    with np.errstate(over="ignore"):  # a huge order overflows the product too
        out *= exponent
        np.exp(out, out=out)
    out[out < _UNDERFLOW_FLOOR] = 0.0  # exp is never negative
    return out


def _checked(name: str, weights: np.ndarray, box: LatticeBox) -> np.ndarray:
    """weights unchanged; a non-finite weight is an error naming its lattice point."""
    bad = ~np.isfinite(weights)
    if np.any(bad):
        m = box._point(int(np.argmax(bad)))
        raise ValueError(f"symbol {name!r} is not finite at lattice point {m}")
    return weights


def bessel_weights(alpha: float, box: LatticeBox) -> np.ndarray:
    """The Bessel weights (1 + |n|^2)^(alpha/2) on the box, in canonical order.

    This real vector is the diagonal of the multiplier's matrix:
    ``w[:, None] * A`` is the multiplier composed after A, ``A * w[None, :]``
    before it.
    """
    alpha = _finite("Bessel order", alpha)
    return _checked(f"bessel({alpha:g})", _bessel(box.squared_norms(), alpha), box)


def _bessel(nsq: np.ndarray, alpha: float) -> np.ndarray:
    """(1 + nsq)^(alpha/2) for a float array nsq of squared norms, which it overwrites.

    The one rule of the Bessel weights, so a weight computed from a shell
    |n|^2 = s has the bits of the weight of each point on that shell.
    """
    nsq += 1.0
    return _stable_power(nsq, alpha / 2.0)


def riesz_weights(alpha: float, box: LatticeBox) -> np.ndarray:
    """The homogeneous weights |n|^alpha on the box, 0 at the origin."""
    alpha = _finite("Riesz order", alpha)
    nsq = box.squared_norms()
    weights = np.zeros(len(nsq))
    nz = nsq > 0
    weights[nz] = _stable_power(nsq[nz], alpha / 2.0)
    return _checked(f"riesz({alpha:g})", weights, box)


def apply_multiplier(weights: np.ndarray, x: TorusElement) -> TorusElement:
    """Scale each Fourier coefficient of x by the weight at its index."""
    return TorusElement(x.theta, x.box, x.coeffs * weights)


def _block_extremes(block: np.ndarray, offset: int) -> tuple:
    """(peak, flat index of its first occurrence, scaled sum of squares) of one block.

    The block holds nonnegative reals and starts at flat index offset of
    the whole.  The sum is that of the block divided, in place, by its own
    peak, so it is finite wherever the peak is; it is 0 where the peak is
    0, NaN or inf, which _scaled_extremes then reports as it is.
    """
    i = int(np.argmax(block))  # the first NaN, if the block holds one
    peak = float(block.flat[i])
    if not 0.0 < peak < math.inf:
        return peak, offset + i, 0.0
    block /= peak
    return peak, offset + i, _sum_squares(block)


def _scaled_extremes(parts) -> tuple:
    """(max, flat index of its first occurrence, L2 norm) from _block_extremes parts.

    The parts come in block order, and np.argmax takes the first NaN, else
    the first of tied maxima, so the flat index is the first occurrence in
    the whole.  Each block's scaled sum is rescaled by (peak / max)^2 as it
    is added, so the norm is finite wherever the max is; a NaN max makes
    the norm NaN, else an inf one inf.  The sums are added in block order,
    whichever thread made them.
    """
    top, where, _ = parts[int(np.argmax([peak for peak, _, _ in parts]))]
    if not 0.0 < top < math.inf:
        return top, where, top
    sumsq = 0.0
    for peak, _, part_sumsq in parts:
        sumsq += part_sumsq * (peak / top) ** 2
    return top, where, top * math.sqrt(sumsq)


def sobolev_norm(x: TorusElement, alpha: float) -> float:
    """The order-alpha Sobolev norm: L2 norm after the Bessel multiplier."""
    moduli = np.abs(x.coeffs) * bessel_weights(alpha, x.box)
    return _scaled_extremes([_block_extremes(moduli, 0)])[2]
