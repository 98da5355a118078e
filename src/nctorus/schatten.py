"""Singular values, Schatten (quasi)norms, weak quasinorms, decay fits.

Everything here works on the sorted singular value sequence of a dense
complex matrix; the potential-decay runner needs no SVD, it builds its
spectrum from the sorted Bessel symbol values.  Quasinorms with p < 1
accumulate in log space so tiny singular values raised to small powers
neither underflow nor drown the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import _finite, _guard_dimension, _integer, _shown

__all__ = [
    "SingularSpectrum",
    "singular_values",
    "schatten_norm",
    "weak_norm",
    "DecayFit",
    "decay_exponent",
    "default_decay_window",
    "critical_exponent",
]


@dataclass(frozen=True)
class SingularSpectrum:
    """Nonincreasing nonnegative singular values."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float).reshape(-1)
        if arr.size and (np.any(arr < 0) or np.any(np.diff(arr) > 0)):
            raise ValueError("singular values must be nonnegative and nonincreasing")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


def singular_values(matrix: np.ndarray) -> SingularSpectrum:
    """Singular values of a square matrix, sorted nonincreasing."""
    entries = np.asarray(matrix, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix has non-finite entries")
    return SingularSpectrum(np.linalg.svd(entries, compute_uv=False))


def schatten_norm(spectrum: SingularSpectrum, p: float) -> float:
    """The ell_p (quasi)norm of the spectrum; p = inf gives the top value.

    For p < 1 this is a quasinorm, still defined by the same power sum.
    Computed as exp((1/p) log sum mu^p) with the log-sum-exp reduction
    written out in numpy, so small p and tiny mu stay inside the
    representable range.  The terms tying the largest p log mu are counted
    and zeroed in place, not dropped, so the sum keeps numpy's pairwise
    order and matches the scipy.special.logsumexp algorithm bit for bit.
    """
    if not (p > 0):
        raise ValueError(f"Schatten exponent must be positive, got {_shown(p)}")
    vals = spectrum.values
    if vals.size == 0 or vals[0] == 0.0:
        return 0.0
    positive = vals[vals > 0]
    if p >= 2.0**54 * math.log(positive.size):
        # for m positive values the norm over the top one lies in
        # [1, m^(1/p)], within half an ulp of 1 here: this covers p = inf
        # and a single positive value, where p log mu may not round-trip
        return float(vals[0])
    logs = p * np.log(positive)
    top = logs.max()
    ties = logs == top
    count = np.count_nonzero(ties)
    terms = np.exp(logs - top)
    terms[ties] = 0.0
    rest = terms.sum() / count
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return float(np.exp((np.log1p(rest) + np.log(count) + top) / p))


def weak_norm(spectrum: SingularSpectrum, p: float) -> float:
    """The weak quasinorm sup_k (k+1)^(1/p) mu(k)."""
    if not (p > 0):
        raise ValueError(f"weak exponent must be positive, got {_shown(p)}")
    positive = spectrum.values[spectrum.values > 0]
    if positive.size == 0:
        return 0.0
    ranks = np.arange(1, positive.size + 1, dtype=float)
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return float(np.max(ranks ** (1.0 / p) * positive))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log mu(k) vs log(k+1) and its RMS residual."""

    slope: float
    residual: float


def default_decay_window(length: int) -> tuple:
    """Window skipping the non-asymptotic head and truncation-polluted tail."""
    k_min = max(1, math.ceil(0.05 * length))
    k_max = math.floor(0.5 * length)
    return k_min, k_max


def decay_exponent(spectrum: SingularSpectrum, k_min: int, k_max: int) -> DecayFit:
    """Fit mu(k) ~ (k+1)^slope over k_min <= k <= k_max (inclusive)."""
    n = len(spectrum)
    if not (1 <= k_min < k_max < n):
        raise ValueError(
            f"window [{k_min}, {k_max}] invalid for a spectrum of length {n}"
        )
    vals = spectrum.values[k_min : k_max + 1]
    if np.any(vals == 0.0):
        raise ValueError(
            "zero singular value inside the fit window; shrink the window"
        )
    logx = np.log(np.arange(k_min + 1, k_max + 2, dtype=float))
    logy = np.log(vals)
    slope, intercept = np.polyfit(logx, logy, 1)
    fitted = slope * logx + intercept
    residual = float(np.sqrt(np.mean((logy - fitted) ** 2)))
    return DecayFit(float(slope), residual)


def critical_exponent(d: int, alpha1: float, alpha2: float) -> float:
    """The Schatten threshold 2d / (d + 2(alpha1 + alpha2))."""
    d = _integer("dimension", d)
    if d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {_shown(d)}")
    _guard_dimension(d)
    alpha1, alpha2 = _finite("alpha1", alpha1), _finite("alpha2", alpha2)
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError(f"smoothness orders must be nonnegative, got ({alpha1}, {alpha2})")
    return 2.0 * d / (d + 2.0 * (alpha1 + alpha2))
