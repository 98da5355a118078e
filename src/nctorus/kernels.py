"""Integral kernels over the twisted algebra and its opposite.

A kernel is a coefficient matrix c_{m,n} over a pair of lattice boxes,
representing k = sum c_{m,n} U^m (x) U^n with the second tensor leg
carrying the reversed product.  Its integral operator acts by a partial
trace over the second leg; on Fourier coefficients this collapses to the
closed form

    (T_k x)(m) = sum_n c_{m,n} sigma(-n, n) x(-n),

so the operator's matrix has entry (m, p) = c_{m,-p} sigma(p, -p).  The
unimodular sigma factors make the matrix assembly an index permutation
plus a diagonal phase, which keeps Frobenius norms equal to kernel L2
norms exactly.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .algebra import TorusElement, embedded, twisted_convolve
from .cocycle import ReducedTheta, phase_pairs
from .lattice import LatticeBox
from .multipliers import bessel_symbol
from .records import HIDDEN, JSON_ONLY

__all__ = [
    "NCKernel",
    "op_multiply",
    "apply_kernel",
    "kernel_matrix",
    "bessel_kernel",
    "sobolev_lift",
    "mixed_sobolev_norm",
    "flip_adjoint",
    "SchwartzReport",
    "schwartz_coefficients",
    "random_kernel",
    "kernel_to_json",
    "kernel_from_json",
    "write_kernel",
    "read_kernel",
]

_MAGIC = b"NCK1"


@dataclass(frozen=True, eq=False)
class NCKernel:
    """Coefficient matrix of a kernel over box1 (first leg) x box2 (second leg)."""

    theta: ReducedTheta
    box1: LatticeBox
    box2: LatticeBox
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.box1.d != self.theta.d or self.box2.d != self.theta.d:
            raise ValueError(
                f"kernel boxes have dimensions {self.box1.d}, {self.box2.d}; "
                f"theta has dimension {self.theta.d}"
            )
        arr = np.array(self.coeffs, dtype=complex)
        want = (self.box1.cardinality, self.box2.cardinality)
        if arr.shape != want:
            raise ValueError(f"coefficient matrix has shape {arr.shape}, expected {want}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def l2_norm(self) -> float:
        """Tensor-product Plancherel norm: the Frobenius norm of the coefficients."""
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "NCKernel") -> "NCKernel":
        if not isinstance(other, NCKernel):
            return NotImplemented
        if self.theta != other.theta:
            raise ValueError("kernels live over different deformation matrices")
        if self.box1 != other.box1 or self.box2 != other.box2:
            raise ValueError("kernel boxes differ")
        return NCKernel(self.theta, self.box1, self.box2, self.coeffs + other.coeffs)

    def __mul__(self, scalar: complex) -> "NCKernel":
        if not isinstance(scalar, (int, float, complex, np.number)):
            return NotImplemented
        return NCKernel(self.theta, self.box1, self.box2, self.coeffs * complex(scalar))

    __rmul__ = __mul__


def op_multiply(a: TorusElement, b: TorusElement) -> TorusElement:
    """The reversed product a . b = b * a used on the second tensor leg."""
    return twisted_convolve(b, a)


def apply_kernel(k: NCKernel, x: TorusElement) -> TorusElement:
    """Act with the kernel's integral operator on x.

    Closed form of the partial trace over the second leg: the output
    coefficient at m is sum_n c_{m,n} sigma(-n, n) x(-n).  x must be
    supported inside the second-leg box.
    """
    if x.theta != k.theta:
        raise ValueError("kernel and argument live over different deformation matrices")
    if x.box.radius > k.box2.radius:
        raise ValueError(
            f"argument radius {x.box.radius} exceeds the kernel's "
            f"second-leg radius {k.box2.radius}"
        )
    xe = embedded(x, k.box2)
    pts = k.box2.enumerate()
    phases = phase_pairs(k.theta.entries, -pts, pts)
    reflected = xe.coeffs[k.box2.negation_permutation()]
    out = k.coeffs @ (phases * reflected)
    return TorusElement(k.theta, k.box1, out)


def kernel_matrix(k: NCKernel, box: LatticeBox) -> np.ndarray:
    """Matrix of the kernel's operator: entry (m, p) = c_{m,-p} sigma(p, -p).

    Column p holds the coefficients of the operator applied to the basis
    monomial at p.  Both kernel legs must equal the requested box so the
    matrix is square in the canonical order.  The result is a fresh array
    the caller may modify.
    """
    if k.box1 != box or k.box2 != box:
        raise ValueError(
            f"kernel legs (radii {k.box1.radius}, {k.box2.radius}) must both "
            f"equal the requested box (radius {box.radius})"
        )
    pts = box.enumerate()
    col_phases = phase_pairs(k.theta.entries, pts, -pts)
    entries = k.coeffs[:, box.negation_permutation()]
    entries *= col_phases[None, :]
    return entries


def bessel_kernel(alpha2: float, box: LatticeBox, theta: ReducedTheta) -> NCKernel:
    """The kernel sum_n (1+|n|^2)^(-alpha2/2) U^n (x) (U^n)* on box x box.

    Resolving (U^n)* = conj(sigma(n,-n)) U^{-n} puts the weight at
    coefficient (n, -n) with the conjugate phase attached.
    """
    pts = box.enumerate()
    nsq = np.einsum("ij,ij->i", pts, pts).astype(float)
    weights = (1.0 + nsq) ** (-alpha2 / 2.0)
    star_phases = np.conj(phase_pairs(theta.entries, pts, -pts))
    coeffs = np.zeros((box.cardinality, box.cardinality), dtype=complex)
    rows = np.arange(box.cardinality)
    coeffs[rows, box.negation_permutation()] = weights * star_phases
    return NCKernel(theta, box, box, coeffs)


def _leg_weights(box: LatticeBox, alpha: float) -> np.ndarray:
    return np.real(bessel_symbol(alpha).values_on(box))


def sobolev_lift(k: NCKernel, alpha1: float, alpha2: float) -> NCKernel:
    """Scale c_{m,n} by (1+|m|^2)^(alpha1/2) (1+|n|^2)^(alpha2/2)."""
    w1 = _leg_weights(k.box1, alpha1)
    w2 = _leg_weights(k.box2, alpha2)
    return NCKernel(k.theta, k.box1, k.box2, k.coeffs * np.outer(w1, w2))


def mixed_sobolev_norm(k: NCKernel, alpha1: float, alpha2: float) -> float:
    """The mixed Sobolev norm: L2 norm of the lifted kernel.

    Orders must be nonnegative; the negative-order lifts remain available
    through sobolev_lift directly.
    """
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError(f"Sobolev orders must be nonnegative, got ({alpha1}, {alpha2})")
    return sobolev_lift(k, alpha1, alpha2).l2_norm()


def flip_adjoint(k: NCKernel) -> NCKernel:
    """The kernel of the adjoint operator: swap legs, then star each leg.

    Coefficient-wise: c'_{p,q} = conj(c_{-q,-p} sigma(p,-p) sigma(q,-q)).
    Its matrix is the conjugate transpose of kernel_matrix(k).
    """
    if k.box1 != k.box2:
        raise ValueError(
            f"flip requires equal legs, got radii {k.box1.radius} and {k.box2.radius}"
        )
    box = k.box1
    neg = box.negation_permutation()
    pts = box.enumerate()
    star_phases = np.conj(phase_pairs(k.theta.entries, pts, -pts))
    swapped = np.conj(k.coeffs[np.ix_(neg, neg)].T)
    return NCKernel(k.theta, box, box, swapped * np.outer(star_phases, star_phases))


@dataclass(frozen=True, kw_only=True)
class SchwartzReport:
    """Coefficient magnitudes against the smooth-kernel decay envelope.

    radius is the larger leg radius.  The fields print in this order as
    the `schwartz` record; worst_index and tolerance appear in JSON only,
    and the full arrays in neither.
    """

    radius: int
    s0: float
    alpha1: float
    alpha2: float
    worst_ratio: float
    worst_index: tuple = field(metadata=JSON_ONLY)
    lifted_norm: float
    tolerance: float = field(default=1e-10, metadata=JSON_ONLY)
    passed: bool = field(init=False)
    magnitudes: np.ndarray = field(repr=False, metadata=HIDDEN)
    bounds: np.ndarray = field(repr=False, metadata=HIDDEN)
    ratios: np.ndarray = field(repr=False, metadata=HIDDEN)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.worst_ratio <= 1.0 + self.tolerance)


def schwartz_coefficients(
    h: NCKernel, alpha1: float, alpha2: float, s0: float
) -> SchwartzReport:
    """Check |c_{m,n}| against the Cauchy-Schwarz envelope with constant 1.

    The bound is norm(h in the (alpha1+s0, alpha2+s0) mixed Sobolev space)
    times (1+|m|^2)^(-(alpha1+s0)/2) (1+|n|^2)^(-(alpha2+s0)/2).  s0 must
    exceed the dimension so the envelope is summable over the full lattice.
    """
    d = h.theta.d
    if s0 <= d:
        raise ValueError(f"decay margin s0 = {s0} must exceed the dimension d = {d}")
    lifted_norm = mixed_sobolev_norm(h, alpha1 + s0, alpha2 + s0)
    w1 = _leg_weights(h.box1, -(alpha1 + s0))
    w2 = _leg_weights(h.box2, -(alpha2 + s0))
    bounds = lifted_norm * np.outer(w1, w2)
    magnitudes = np.abs(h.coeffs)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(bounds > 0, magnitudes / np.where(bounds > 0, bounds, 1.0), 0.0)
    flat = int(np.argmax(ratios))
    i, j = np.unravel_index(flat, ratios.shape)
    worst_index = (
        tuple(int(v) for v in h.box1.enumerate()[i]),
        tuple(int(v) for v in h.box2.enumerate()[j]),
    )
    return SchwartzReport(
        radius=max(h.box1.radius, h.box2.radius),
        s0=float(s0),
        alpha1=alpha1,
        alpha2=alpha2,
        worst_ratio=float(ratios[i, j]),
        worst_index=worst_index,
        lifted_norm=lifted_norm,
        magnitudes=magnitudes,
        bounds=bounds,
        ratios=ratios,
    )


def random_kernel(
    theta: ReducedTheta, radius: int, s1: float, s2: float, seed: int
) -> NCKernel:
    """Random kernel with the separable envelope and i.i.d. uniform phases.

    c_{m,n} = (1+|m|^2)^(-s1/2) (1+|n|^2)^(-s2/2) e^{i phi} with phi drawn
    uniformly from [0, 2 pi) by a Philox counter generator keyed on the
    seed, consumed in row-major (linear index pair) order.  The envelope
    keeps the kernel in the mixed Sobolev space of orders below
    (s1 - d/2, s2 - d/2), which makes smoothness hypotheses checkable by
    construction.
    """
    if s1 < 0 or s2 < 0:
        raise ValueError(f"envelope exponents must be nonnegative, got ({s1}, {s2})")
    box = LatticeBox(theta.d, radius)
    rng = np.random.Generator(np.random.Philox(key=seed))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(box.cardinality, box.cardinality))
    envelope = np.outer(_leg_weights(box, -s1), _leg_weights(box, -s2))
    return NCKernel(theta, box, box, envelope * np.exp(1j * phases))


def kernel_to_json(k: NCKernel) -> dict:
    """Serialize as nested [re, im] rows; requires equal legs."""
    if k.box1 != k.box2:
        raise ValueError("serialization requires equal legs")
    return {
        "d": k.box1.d,
        "N": k.box1.radius,
        "coeffs": [[[float(c.real), float(c.imag)] for c in row] for row in k.coeffs],
    }


def kernel_from_json(doc: dict, theta: ReducedTheta) -> NCKernel:
    for key in ("d", "N", "coeffs"):
        if key not in doc:
            raise ValueError(f"kernel document missing key {key!r}")
    box = LatticeBox(doc["d"], doc["N"])
    rows = doc["coeffs"]
    if len(rows) != box.cardinality:
        raise ValueError(f"kernel document has {len(rows)} rows, expected {box.cardinality}")
    coeffs = np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=complex
    )
    return NCKernel(theta, box, box, coeffs)


def write_kernel(k: NCKernel, path) -> None:
    """Binary dump: 16-byte header (magic, d, N as little-endian int32,
    4 zero pad bytes), then the coefficient matrix as little-endian
    complex128 pairs in row-major order.  Requires equal legs."""
    if k.box1 != k.box2:
        raise ValueError("binary dump requires equal legs")
    header = _MAGIC + struct.pack("<iii", k.box1.d, k.box1.radius, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(k.coeffs, dtype="<c16").tobytes())


def read_kernel(path, theta: ReducedTheta) -> NCKernel:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != _MAGIC:
            raise ValueError(f"{path}: not a kernel dump (bad magic)")
        d, radius, _ = struct.unpack("<iii", header[4:])
        # the theta bounds d; then the claimed payload must fit in the file
        # before anything of that size is read or allocated
        if d != theta.d or radius < 0:
            raise ValueError(
                f"{path}: header has d={d}, N={radius} for a theta of dimension {theta.d}"
            )
        n = (2 * radius + 1) ** d
        size = 16 * n * n
        available = os.fstat(fh.fileno()).st_size - len(header)
        if size > available:
            raise ValueError(
                f"{path}: truncated payload (header d={d}, N={radius} needs "
                f"{size} bytes, file has {available})"
            )
        raw = fh.read(size)
    box = LatticeBox(d, radius)
    coeffs = np.frombuffer(raw, dtype="<c16").reshape(n, n)
    return NCKernel(theta, box, box, coeffs)

