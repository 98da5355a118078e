"""Singular values, Schatten (quasi)norms, weak quasinorms, decay fits.

Everything here works on a sorted singular value sequence, held as its
values with their multiplicities: a dense matrix's SVD gives each value
once, and the potential-decay runner, which needs no SVD, gives each
distinct Bessel weight with the number of lattice points on its shell.
The norms and the fit read the values with their multiplicities, so a
spectrum of n points costs only its distinct values.  Quasinorms with p < 1
accumulate in log space so tiny singular values raised to small powers
neither underflow nor drown the sum.

Below n = 400 the SVD is np.linalg.svd.  From n = 400 on, where numpy
runs on its bundled 64-bit-integer OpenBLAS, it calls that library's
LAPACKE through ctypes, on a Fortran-ordered matrix it may overwrite: a
two-stage reduction (QR/LQ panels to band form, each LQ panel factored
as the QR of its contiguous conjugate transpose and each panel applied
as one compact-WY block, then zgbbrd and dbdsqr), which does the same
backward-stable work as numpy mostly in BLAS-3 and agrees with it to
rounding error, not bit for bit.  The same binding pins BLAS to one thread
for the scan and sizes _in_lanes, the thread runner of the scan's grid
points and the kernel folds.  Any other numpy build goes through
np.linalg.svd at every size and runs one lane.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .lattice import _integer, _integer_array, _order, _positive, _torus_dimension

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
    """Finite, nonnegative, nonincreasing singular values, from a 1-D real sequence.

    multiplicities[i] >= 1 counts the ranks that take values[i], so
    len(spectrum) is their sum; without them each value is taken once.
    """

    values: np.ndarray
    multiplicities: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ValueError(f"singular values must be one-dimensional, got shape {arr.shape}")
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"singular values must be real numbers, got dtype {arr.dtype}")
        arr = arr.astype(float)  # a copy the spectrum owns
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"singular values must be finite, got {arr[bad[0]]} at index {bad[0]}")
        if arr.size and (np.any(arr < 0) or np.any(np.diff(arr) > 0)):
            raise ValueError("singular values must be nonnegative and nonincreasing")
        if self.multiplicities is None:
            counts = np.ones(arr.size, dtype=np.int64)
        else:  # a copy the spectrum owns
            counts = np.array(_integer_array("multiplicity", self.multiplicities))
        if counts.shape != arr.shape:
            raise ValueError(
                f"multiplicities must have the values' shape {arr.shape}, got {counts.shape}"
            )
        if counts.size and counts.min() < 1:
            raise ValueError("multiplicities must be at least 1")
        for part in (arr, counts):
            part.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "multiplicities", counts)

    @cached_property
    def _ends(self) -> np.ndarray:
        """One past the last rank of each value: the running sum of the multiplicities."""
        return np.cumsum(self.multiplicities)

    def __len__(self) -> int:
        return int(self._ends[-1]) if self._ends.size else 0

    def window(self, k_min: int, k_max: int) -> np.ndarray:
        """A fresh array of mu(k) for 0 <= k_min <= k <= k_max < len(self)."""
        first, last = np.searchsorted(self._ends, (k_min, k_max), side="right")
        ends = self._ends[first : last + 1]
        starts = ends - self.multiplicities[first : last + 1]
        taken = np.minimum(ends, k_max + 1) - np.maximum(starts, k_min)
        return np.repeat(self.values[first : last + 1], taken)


_LAPACK_COL_MAJOR = 102


@functools.cache
def _openblas():
    """ctypes handle to the ILP64 OpenBLAS that numpy loaded, or None.

    Resolved on first use.  RTLD_NOLOAD only finds a library already in
    the process, so the handle is numpy's own and shares its thread
    setting.  Binds the thread setters and the LAPACKE `_work` variants
    of the five routines of the two-stage SVD (zgeqrf, zlarft, zlarfb,
    zgbbrd, dbdsqr), which take caller-held workspace and skip LAPACKE's
    NaN scan of their input.  None when numpy bundles no scipy-openblas64
    (MKL, conda or macOS builds, numpy 1.x), when the build does not take
    int64 sizes, or when any of these symbols is missing.
    """
    import glob  # here, so that importing the package does not pay for it

    root = os.path.dirname(os.path.dirname(os.path.abspath(np.__file__)))
    paths = glob.glob(os.path.join(root, "numpy.libs", "libscipy_openblas64_*.so"))
    if len(paths) != 1:
        return None
    try:
        lib = ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD)
        config = lib.scipy_openblas_get_config64_
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
        geqrf = lib.scipy_LAPACKE_zgeqrf_work64_
        larft = lib.scipy_LAPACKE_zlarft_work64_
        larfb = lib.scipy_LAPACKE_zlarfb_work64_
        gbbrd = lib.scipy_LAPACKE_zgbbrd_work64_
        bdsqr = lib.scipy_LAPACKE_dbdsqr_work64_
    except (OSError, AttributeError):
        return None
    config.argtypes, config.restype = [], ctypes.c_char_p
    if b"USE64BITINT" not in config():
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    layout, char, size, ptr = ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p
    # (layout, m, n, a, lda, tau, work, lwork)
    geqrf.argtypes = [layout, size, size, ptr, size, ptr, ptr, size]
    # (layout, direct, storev, n, k, v, ldv, tau, t, ldt)
    larft.argtypes = [layout, char, char, size, size, ptr, size, ptr, ptr, size]
    # (layout, side, trans, direct, storev, m, n, k, v, ldv, t, ldt, c, ldc, work, ldwork)
    larfb.argtypes = [layout] + [char] * 4 + [size] * 3 + [ptr, size] * 4
    # (layout, vect, m, n, ncc, kl, ku, ab, ldab, d, e, q, ldq, pt, ldpt, c, ldc, work, rwork)
    gbbrd.argtypes = (
        [layout, char] + [size] * 5 + [ptr, size, ptr, ptr] + [ptr, size] * 3 + [ptr, ptr]
    )
    # (layout, uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc, work)
    bdsqr.argtypes = [layout, char] + [size] * 4 + [ptr, ptr] + [ptr, size] * 3 + [ptr]
    for routine in [geqrf, larft, larfb, gbbrd, bdsqr]:
        routine.restype = size
    return lib


_PIN = threading.RLock()  # one pin at a time, so restores cannot interleave


def _lanes() -> int:
    """Threads _in_lanes may use: min(2, BLAS threads) on the bundled OpenBLAS, else 1.

    So the scan holds at most two n x n matrices; inside _one_blas_thread
    it is 1, and work run from the scan's lanes starts no lanes of its own.
    """
    lib = _openblas()
    return 1 if lib is None else min(2, lib.scipy_openblas_get_num_threads64_())


def _in_lanes(fn: Callable, items: Sequence, width: int) -> list:
    """[fn(item) for item in items], on up to width threads, the calling one among them.

    Items start in order, each on the next free lane; the other lanes run
    in copies of the caller's context, numpy's error state included.  No
    item starts after one has failed or the caller has left its lane, and
    the first failure is raised here once every lane has stopped.
    """
    results, failures = [None] * len(items), []
    pending = iter(range(len(items)))  # next() on a range iterator is atomic in CPython

    def lane() -> None:
        for i in pending:
            if failures:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised in the caller
                failures.append(exc)

    others = []
    for _ in range(min(width, len(items)) - 1):
        others.append(threading.Thread(target=contextvars.copy_context().run, args=(lane,)))
        others[-1].start()
    try:
        lane()
    finally:
        list(pending)  # what is left never starts
        for thread in others:
            thread.join()
    if failures:
        raise failures[0]
    return results


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread; yields the _lanes() it read before pinning.

    Yields 1, and pins nothing, without the bundled OpenBLAS.  The
    setting is process-wide: every thread's BLAS calls run on one thread
    until the body ends.  Pins from other threads wait for it, so each
    restores the count it read.
    """
    lib = _openblas()
    if lib is None:
        yield 1
        return
    with _PIN:
        lanes, threads = _lanes(), lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(1)
        try:
            yield lanes
        finally:
            lib.scipy_openblas_set_num_threads64_(threads)


def singular_values(matrix: np.ndarray, overwrite: bool = False) -> SingularSpectrum:
    """Singular values of a square matrix, sorted nonincreasing.

    An n x n matrix with n < 400, or any matrix without the bundled
    OpenBLAS, goes through np.linalg.svd.  From n = 400 on that OpenBLAS
    runs the two-stage reduction, which matches np.linalg.svd to rounding
    error.  Overwrite takes effect only there: a writeable
    Fortran-ordered complex matrix is the reduction's workspace and its
    entries are lost; any other matrix is copied.
    """
    entries = np.asarray(matrix, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix has non-finite entries")
    lib = _openblas() if entries.shape[0] >= _TWO_STAGE_MIN else None
    if lib is None:
        return SingularSpectrum(np.linalg.svd(entries, compute_uv=False))
    if overwrite:
        entries = np.require(entries, requirements="FAW")
    else:
        entries = np.array(entries, order="F")
    return SingularSpectrum(_two_stage_values(lib, entries))


# One-stage zgesdd spends half its bidiagonalization flops in BLAS-2
# sweeps; from n = _TWO_STAGE_MIN on, QR/LQ panels of _PANEL columns cut
# the matrix to band form in BLAS-3 first.  Values only, one BLAS thread,
# min of 5 runs (3 from n = 841, 1 at 2,401) on a shared 2-vCPU Intel
# Xeon with numpy 2.4's bundled OpenBLAS 0.3.31:
#
#   n       zgesdd   two-stage
#   361     17 ms    18 ms
#   380     21 ms    20 ms
#   400     25 ms    23 ms
#   441     36 ms    29 ms
#   529     67 ms    44 ms
#   625     114 ms   66 ms
#   841     277 ms   137 ms
#   1,089   596 ms   265 ms
#   1,369   1.16 s   0.48 s
#   2,401   6.0 s    2.2 s
#
# Applied as compact-WY blocks, the panels are BLAS-3 at any width, and
# zgbbrd's Givens sweeps cost n^2 times the band width, so the band is
# narrow.  The four SVDs of a scan (n = 625, 841, 1,089, 1,369) took,
# min of 3 each:
#
#   _PANEL   16       20       24       28       32
#   total    951 ms   950 ms   965 ms   1.01 s   1.03 s
_TWO_STAGE_MIN = 400
_PANEL = 20


def _check(routine: str, info: int) -> None:
    """Raise LinAlgError naming the LAPACKE routine that returned info != 0."""
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info = {info}")


def _two_stage_values(lib, a: np.ndarray) -> np.ndarray:
    """Singular values, decreasing, of a Fortran-ordered n x n complex a, n > _PANEL.

    Stage one overwrites a: each panel of _PANEL columns is QR-factored
    and its Q^H applied to the columns right of it, then the panel's rows
    right of it are LQ-factored and that Q applied to the rows below.
    The rows are strided in a, so their LQ is the QR of their conjugate
    transpose, copied into a contiguous buffer; L, that R's conjugate
    transpose, goes back into a's band.  Each panel's reflectors reach
    the trailing matrix as one compact-WY block (zlarft builds its
    triangular factor T, zlarfb applies it), so the update is BLAS-3 at
    any panel width.  This leaves in a's diagonal and its _PANEL
    superdiagonals the band of an upper triangular matrix with a's
    singular values; the entries outside it are leftovers.  Stage two
    copies that band into LAPACK band storage, zgbbrd reduces it to
    a real bidiagonal, and dbdsqr takes that bidiagonal's values without
    vectors.  Every call is a LAPACKE `_work` variant on the buffers
    allocated here: the (_PANEL + 1) x n band, whose storage first holds
    each row panel's buffer, an n x _PANEL complex work array, the
    _PANEL x _PANEL T and a real array of 4n.
    """
    n, b = a.shape[0], _PANEL
    tau = np.empty(b, dtype=complex)
    t = np.empty((b, b), dtype=complex, order="F")
    work = np.empty(n * b, dtype=complex)
    rwork = np.empty(4 * n)
    # the row panels' buffers and, after stage one, the band: (b + 1) n
    # entries hold any (n - b) x b panel
    store = np.empty((b + 1) * n, dtype=complex)
    tau_p, t_p, work_p = tau.ctypes.data, t.ctypes.data, work.ctypes.data

    def at(i: int, j: int) -> int:  # address of a[i, j]
        return a.ctypes.data + (i + j * n) * a.itemsize

    for i in range(0, n, b):
        width = min(b, n - i)
        rest = n - i - width
        _check("zgeqrf", lib.scipy_LAPACKE_zgeqrf_work64_(
            _LAPACK_COL_MAJOR, n - i, width, at(i, i), n, tau_p, work_p, work.size))
        if rest == 0:
            break
        # Q^H from the left: H(1)...H(k) is I - V T V^H, applied as 'C'
        _check("zlarft", lib.scipy_LAPACKE_zlarft_work64_(
            _LAPACK_COL_MAJOR, b"F", b"C", n - i, b, at(i, i), n, tau_p, t_p, b))
        _check("zlarfb", lib.scipy_LAPACKE_zlarfb_work64_(
            _LAPACK_COL_MAJOR, b"L", b"C", b"F", b"C", n - i, rest, b, at(i, i), n,
            t_p, b, at(i, i + b), n, work_p, rest))
        # the row panel P = a[i:i+b, i+b:] as the QR of its contiguous
        # conjugate transpose: P^H = Q R gives P Q = [R^H 0], so the rows
        # below take Q from the right, trans 'N'
        k = min(b, rest)
        panel = store[: rest * b].reshape((rest, b), order="F")
        panel[...] = a[i : i + b, i + b :].T  # np.conjugate across layouts would buffer
        np.conjugate(panel, out=panel)
        _check("zgeqrf", lib.scipy_LAPACKE_zgeqrf_work64_(
            _LAPACK_COL_MAJOR, rest, b, panel.ctypes.data, rest, tau_p, work_p, work.size))
        _check("zlarft", lib.scipy_LAPACKE_zlarft_work64_(
            _LAPACK_COL_MAJOR, b"F", b"C", rest, k, panel.ctypes.data, rest, tau_p, t_p, b))
        _check("zlarfb", lib.scipy_LAPACKE_zlarfb_work64_(
            _LAPACK_COL_MAJOR, b"R", b"N", b"F", b"C", rest, rest, k, panel.ctypes.data,
            rest, t_p, b, at(i + b, i + b), n, work_p, rest))
        # R^H is lower triangular; the band reads only its triangle
        triangle = a[i : i + b, i + b : i + b + k]
        triangle[...] = panel[:k].T
        np.conjugate(triangle, out=triangle)
    band = store.reshape((b + 1, n), order="F")
    band.fill(0)
    for k in range(b + 1):  # band[b - k, j] = a[j - k, j]
        band[b - k, k:] = np.diagonal(a, k)
    d, e = np.empty(n), np.empty(n - 1)
    _check("zgbbrd", lib.scipy_LAPACKE_zgbbrd_work64_(
        _LAPACK_COL_MAJOR, b"N", n, n, 0, 0, b, band.ctypes.data, b + 1,
        d.ctypes.data, e.ctypes.data, None, 1, None, 1, None, 1, work_p, rwork.ctypes.data))
    _check("dbdsqr", lib.scipy_LAPACKE_dbdsqr_work64_(
        _LAPACK_COL_MAJOR, b"U", n, 0, 0, 0, d.ctypes.data, e.ctypes.data,
        None, 1, None, 1, None, 1, rwork.ctypes.data))
    return d


def schatten_norm(spectrum: SingularSpectrum, p: float) -> float:
    """The ell_p (quasi)norm of the spectrum; p = inf gives the top value.

    For p < 1 this is a quasinorm, still defined by the same power sum.
    Computed as exp((1/p) log sum mu^p) with the log-sum-exp reduction
    written out in numpy, so small p and tiny mu stay inside the
    representable range.  Each distinct value's term is weighted by its
    multiplicity.  The terms tying the largest p log mu are counted and
    zeroed in place, not dropped, so the sum keeps numpy's pairwise order
    and, where every multiplicity is 1, matches the
    scipy.special.logsumexp algorithm bit for bit.
    """
    p = _positive("Schatten exponent", p, "positive")
    vals = spectrum.values
    if vals.size == 0 or vals[0] == 0.0:
        return 0.0
    nonzero = vals > 0
    positive, counts = vals[nonzero], spectrum.multiplicities[nonzero]
    if p >= 2.0**54 * math.log(counts.sum()):
        # for m positive values the norm over the top one lies in
        # [1, m^(1/p)], within half an ulp of 1 here: this covers p = inf
        # and a single positive value, where p log mu may not round-trip
        return float(vals[0])
    logs = p * np.log(positive)
    top = logs.max()
    ties = logs == top
    count = counts[ties].sum()
    terms = np.exp(logs - top)
    terms[ties] = 0.0
    terms *= counts
    rest = terms.sum() / count
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return float(np.exp((np.log1p(rest) + np.log(count) + top) / p))


def weak_norm(spectrum: SingularSpectrum, p: float) -> float:
    """The weak quasinorm sup_k (k+1)^(1/p) mu(k).

    Over the ranks of one value the term grows with k, so the sup is read
    at the last rank of each value.
    """
    p = _positive("weak exponent", p, "positive")
    nonzero = spectrum.values > 0
    positive = spectrum.values[nonzero]
    if positive.size == 0:
        return 0.0
    ranks = spectrum._ends[nonzero].astype(float)
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
    """Fit mu(k) ~ (k+1)^slope over k_min <= k <= k_max (inclusive).

    Least squares in closed form on the centred logs of the window alone:
    three window-length arrays, whose sums are numpy's pairwise ones, not
    BLAS's, so no thread count moves a bit.
    """
    n = len(spectrum)
    k_min, k_max = _integer("k_min", k_min), _integer("k_max", k_max)
    if not (1 <= k_min < k_max < n):
        raise ValueError(f"window [{k_min}, {k_max}] invalid for a spectrum of length {n}")
    logy = spectrum.window(k_min, k_max)
    if logy[-1] == 0.0:  # the smallest value of the window
        raise ValueError("zero singular value inside the fit window; shrink the window")
    np.log(logy, out=logy)
    logx = np.arange(k_min + 1, k_max + 2, dtype=float)
    np.log(logx, out=logx)
    logx -= logx.mean()
    logy -= logy.mean()
    terms = logx * logy
    covariance = terms.sum()
    slope = float(covariance / np.square(logx, out=terms).sum())
    logy -= np.multiply(logx, slope, out=terms)  # the residuals
    return DecayFit(slope, float(np.sqrt(np.square(logy, out=terms).mean())))


def critical_exponent(d: int, alpha1: float, alpha2: float) -> float:
    """The Schatten threshold 2d / (d + 2(alpha1 + alpha2))."""
    d = _torus_dimension("dimension", d)
    alpha1, alpha2 = _order("alpha1", alpha1), _order("alpha2", alpha2)
    return 2.0 * d / (d + 2.0 * (alpha1 + alpha2))
