"""Slow definitional reference paths used to cross-check the fast ones.

This module keeps no memo of its own, and it is optimized only as far
as keeps the property suite affordable: the tensor product contracts
whole phase tables, and the term-by-term convolution takes u . matrix
once per point u.  The tensor-product arithmetic spells out the product
law ``(U^a (x) U^b)(U^c (x) U^e) = sigma(a,c) sigma(e,b)
U^{a+c} (x) U^{e+b}`` term by term (second leg reversed), and the
convolution helper accepts an arbitrary reduction matrix so alternative
presentations of the twist can be compared.
"""

from __future__ import annotations

import numpy as np

from .algebra import TorusElement
from .cocycle import ReducedTheta, _same_theta
from .kernels import NCKernel
from .lattice import LatticeBox

__all__ = [
    "convolve_coefficients",
    "tensor_multiply",
    "one_tensor",
    "partial_trace_second",
    "apply_kernel_definitional",
]


def convolve_coefficients(
    matrix: np.ndarray,
    box_f: LatticeBox,
    f: np.ndarray,
    box_g: LatticeBox,
    g: np.ndarray,
) -> tuple:
    """Twisted convolution with an explicit reduction matrix, term by term.

    Returns (sum box, coefficients).  The matrix is used raw, so upper
    triangular or otherwise non-canonical presentations are accepted.
    """
    out_box = LatticeBox(box_f.d, box_f.radius + box_g.radius)
    out = np.zeros(out_box.cardinality, dtype=complex)
    pf = box_f.enumerate()
    pg = box_g.enumerate()
    sums = out_box.linear_indices((pf[:, None, :] + pg[None, :, :]).reshape(-1, box_f.d))
    sums = sums.reshape(len(pf), len(pg))
    for i, u in enumerate(pf):
        if f[i] == 0:
            continue
        row = u @ matrix  # u @ matrix @ v groups as (u @ matrix) @ v
        for j, v in enumerate(pg):
            phase = np.exp(2j * np.pi * float(row @ v))
            out[sums[i, j]] += f[i] * g[j] * phase
    return out_box, out


def tensor_multiply(theta: ReducedTheta, k: tuple, l: tuple) -> tuple:
    """Product of two tensor-algebra elements, second leg reversed.

    An element is a triple (box1, box2, coeffs) with one coefficient row
    per first-leg point; the legs may differ, since a product lives on the
    Minkowski-sum boxes.  Each coefficient pair contributes c_{a,b} d_{c,e}
    sigma(a,c) sigma(e,b) at index (a+c, e+b).  Quartic cost, intended for
    tiny boxes only.
    """
    (k1, k2, kc), (l1, l2, lc) = k, l
    out1 = LatticeBox(k1.d, k1.radius + l1.radius)
    out2 = LatticeBox(k2.d, k2.radius + l2.radius)
    pa = k1.enumerate()
    pb = k2.enumerate()
    pc = l1.enumerate()
    pe = l2.enumerate()
    # sigma(a, c) and sigma(e, b) tables, then a full outer contraction
    ph_ac = np.exp(2j * np.pi * np.mod(pa @ theta.entries @ pc.T, 1.0))
    ph_eb = np.exp(2j * np.pi * np.mod(pe @ theta.entries @ pb.T, 1.0))
    contrib = np.einsum("ab,ce,ac,eb->abce", kc, lc, ph_ac, ph_eb)
    d = k1.d
    sums_ac = (pa[:, None, :] + pc[None, :, :]).reshape(-1, d)
    sums_eb = (pe[:, None, :] + pb[None, :, :]).reshape(-1, d)
    rows = out1.linear_indices(sums_ac).reshape(len(pa), len(pc))  # (a, c)
    cols = out2.linear_indices(sums_eb).reshape(len(pe), len(pb))  # (e, b)
    flat = np.zeros(out1.cardinality * out2.cardinality, dtype=complex)
    # flat index of (a,b,c,e) entry: row(a,c) * card2 + col(e,b)
    idx = (
        rows[:, None, :, None] * out2.cardinality
        + cols.T[None, :, None, :]
    )
    np.add.at(flat, idx.ravel(), contrib.ravel())
    return out1, out2, flat.reshape(out1.cardinality, out2.cardinality)


def one_tensor(x: TorusElement) -> tuple:
    """The element 1 (x) x: first leg the unit on a radius-0 box."""
    return LatticeBox(x.box.d, 0), x.box, x.coeffs[None, :]


def partial_trace_second(theta: ReducedTheta, t: tuple) -> TorusElement:
    """Apply the trace to the second leg: keep its coefficient at 0."""
    box1, box2, coeffs = t
    return TorusElement(theta, box1, coeffs[:, box2.center_index()].copy())


def apply_kernel_definitional(k: NCKernel, x: TorusElement) -> TorusElement:
    """The partial-trace definition of the kernel action, spelled out."""
    _same_theta(k, x)
    product = tensor_multiply(k.theta, (k.box, k.box, k.coeffs), one_tensor(x))
    return partial_trace_second(k.theta, product)
