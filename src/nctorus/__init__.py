"""Finite-truncation twisted torus algebra with Schatten-class diagnostics.

The package realizes the algebra generated by d twisted unitaries at a
finite Fourier truncation: elements are coefficient vectors over a
symmetric lattice box, multiplication is a cocycle-twisted convolution,
and integral kernels over the algebra and its opposite become dense
matrices whose singular values drive Schatten-norm, weak-norm and
decay-exponent diagnostics.
"""

from .algebra import (
    TorusElement,
    element_from_json,
    element_to_json,
    embedded,
    inner_product,
    involution,
    l2_norm,
    laplacian,
    monomial,
    mult_matrix,
    partial_derivative,
    random_element,
    restricted,
    self_adjoint_derivative,
    trace,
    twisted_convolve,
    unit,
    zero_element,
)
from .cocycle import (
    SKEW_TOLERANCE,
    ReducedTheta,
    ThetaMatrix,
    load_theta,
    phase_pairs,
    phase_table,
    random_theta,
    reduce_theta,
    sigma,
    theta_from_json,
    zero_theta,
)
from .experiments import (
    ExperimentConfig,
    default_theta,
    run_factorization_check,
    run_potential_decay,
    run_property_suite,
    run_schwartz_bound,
    run_theorem_scan,
)
from .kernels import (
    NCKernel,
    apply_kernel,
    bessel_kernel,
    flip_adjoint,
    kernel_from_json,
    kernel_matrix,
    kernel_to_json,
    mixed_sobolev_norm,
    op_multiply,
    random_kernel,
    read_kernel,
    schwartz_coefficients,
    sobolev_lift,
    write_kernel,
)
from .lattice import LatticeBox, as_multi_index, norm_sq
from .multipliers import (
    SymbolFunction,
    apply_multiplier,
    bessel_symbol,
    multiplier_values,
    riesz_symbol,
    sobolev_norm,
)
from .schatten import (
    SingularSpectrum,
    critical_exponent,
    decay_exponent,
    default_decay_window,
    schatten_norm,
    singular_values,
    weak_norm,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice
    "LatticeBox",
    "as_multi_index",
    "norm_sq",
    # cocycle
    "SKEW_TOLERANCE",
    "ThetaMatrix",
    "ReducedTheta",
    "reduce_theta",
    "zero_theta",
    "random_theta",
    "sigma",
    "phase_pairs",
    "phase_table",
    "theta_from_json",
    "load_theta",
    # algebra
    "TorusElement",
    "monomial",
    "unit",
    "zero_element",
    "random_element",
    "embedded",
    "restricted",
    "twisted_convolve",
    "involution",
    "trace",
    "inner_product",
    "l2_norm",
    "mult_matrix",
    "partial_derivative",
    "self_adjoint_derivative",
    "laplacian",
    "element_to_json",
    "element_from_json",
    # multipliers
    "SymbolFunction",
    "bessel_symbol",
    "riesz_symbol",
    "multiplier_values",
    "apply_multiplier",
    "sobolev_norm",
    # kernels
    "NCKernel",
    "op_multiply",
    "apply_kernel",
    "kernel_matrix",
    "bessel_kernel",
    "sobolev_lift",
    "mixed_sobolev_norm",
    "flip_adjoint",
    "schwartz_coefficients",
    "random_kernel",
    "kernel_to_json",
    "kernel_from_json",
    "write_kernel",
    "read_kernel",
    # schatten
    "SingularSpectrum",
    "singular_values",
    "schatten_norm",
    "weak_norm",
    "decay_exponent",
    "default_decay_window",
    "critical_exponent",
    # experiments
    "ExperimentConfig",
    "default_theta",
    "run_property_suite",
    "run_theorem_scan",
    "run_potential_decay",
    "run_factorization_check",
    "run_schwartz_bound",
]
