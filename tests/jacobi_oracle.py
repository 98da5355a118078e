"""The scan's SVD against preconditioned one-sided Jacobi, LAPACK's zgejsv.

For each radius N the default scan kernel (d = 2, seed 42) is drawn, its
matrix's singular values are computed twice on one BLAS thread, by the
scan's singular_values and by zgejsv, and one CSV row per default r
gives the largest per-sigma relative gap of the scan's values, the
relative gaps of S_r and of the weak norm, and Jacobi's time:

    python tests/jacobi_oracle.py          # N = 12 and 18
    python tests/jacobi_oracle.py 12       # about 3 s; N = 18 takes about 35 s

It prints a line and exits 0 where numpy bundles no ILP64 OpenBLAS
exporting zgejsv.  tests/test_schatten.py imports jacobi_values from
here and pins N = 10.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
import time
from pathlib import Path

import numpy as np

try:
    from nctorus import schatten
except ImportError:  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from nctorus import schatten

from nctorus.experiments import ExperimentConfig
from nctorus.kernels import kernel_matrix, random_kernel


def jacobi_values(lib, matrix: np.ndarray) -> np.ndarray | None:
    """Singular values by zgejsv, or None where lib exports no LAPACKE zgejsv.

    JOBA = 'F' and JOBR = 'R', no singular vectors.  Jacobi computes the
    singular values of D1 C D2, with D1 and D2 diagonal, to about eps
    kappa(C) relative accuracy, however D1 and D2 are scaled (Demmel et
    al., Linear Algebra Appl. 299, 1999), so it is an oracle for the small
    values that the normwise-accurate SVDs only bound by eps kappa.
    """
    jsv = getattr(lib, "scipy_LAPACKE_zgejsv64_", None)
    if jsv is None:
        return None
    size, char, ptr = ctypes.c_int64, ctypes.c_char, ctypes.c_void_p
    # (layout, joba, jobu, jobv, jobr, jobt, jobp, m, n, a, lda, sva, u, ldu, v, ldv, stat, istat)
    jsv.argtypes = (
        [ctypes.c_int] + [char] * 6 + [size, size, ptr, size, ptr] + [ptr, size] * 2 + [ptr, ptr]
    )
    jsv.restype = size
    n = matrix.shape[0]
    a = np.array(matrix, dtype=complex, order="F")
    sva, stat, istat = np.empty(n), np.empty(7), np.empty(3, dtype=np.int64)
    unused = np.empty(1, dtype=complex)  # U and V, not referenced with JOBU = JOBV = 'N'
    info = jsv(
        102, b"F", b"N", b"N", b"R", b"N", b"N", n, n, a.ctypes.data, n, sva.ctypes.data,
        unused.ctypes.data, 1, unused.ctypes.data, 1, stat.ctypes.data, istat.ctypes.data,
    )
    if info != 0:
        raise RuntimeError(f"zgejsv returned info = {info}")
    return sva * (stat[1] / stat[0])  # the singular values are STAT(2)/STAT(1) times SVA


def _gap(ours: float, want: float) -> float:
    return abs(ours - want) / want


def report(lib, radius: int) -> list:
    """CSV rows N, n, kappa, sigma_gap, r, schatten_gap, weak_gap, jacobi_s for one radius."""
    config = ExperimentConfig(d=2, N_grid=(radius,), seed=42)
    k = random_kernel(config.reduced, radius, *config.envelope_exponents(), config.seed)
    matrix = kernel_matrix(k)
    with schatten._one_blas_thread():  # as in the scan
        start = time.perf_counter()
        jacobi = jacobi_values(lib, matrix)
        seconds = time.perf_counter() - start
        if jacobi is None:
            return []
        ours = schatten.singular_values(matrix.T).values
    sigma_gap = float(np.max(np.abs(ours - jacobi) / jacobi))
    rows = []
    for r in config.r_grid:
        gaps = [
            _gap(norm(schatten.SingularSpectrum(ours), r),
                 norm(schatten.SingularSpectrum(jacobi), r))
            for norm in (schatten.schatten_norm, schatten.weak_norm)
        ]
        rows.append(
            f"{radius},{matrix.shape[0]},{jacobi[0] / jacobi[-1]:.2e},{sigma_gap:.2e},"
            f"{r:.6g},{gaps[0]:.2e},{gaps[1]:.2e},{seconds:.2f}"
        )
    return rows


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check the scan's SVD against zgejsv.")
    parser.add_argument("radii", nargs="*", type=int, default=[12, 18], help="box radii N")
    args = parser.parse_args()
    lib = schatten._openblas()
    if lib is None:
        print("skipped: numpy bundles no ILP64 OpenBLAS here")
        sys.exit(0)
    print("N,n,kappa,sigma_gap,r,schatten_gap,weak_gap,jacobi_s")
    for radius in args.radii:
        rows = report(lib, radius)
        if not rows:
            print("skipped: this OpenBLAS exports no LAPACKE zgejsv")
            sys.exit(0)
        print("\n".join(rows), flush=True)
