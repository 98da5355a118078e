"""Finite-truncation twisted torus algebra with Schatten-class diagnostics.

The package realizes the algebra generated by d twisted unitaries at a
finite Fourier truncation: elements are coefficient vectors over a
symmetric lattice box, multiplication is a cocycle-twisted convolution,
and integral kernels over the algebra and its opposite become dense
matrices whose singular values drive Schatten-norm, weak-norm and
decay-exponent diagnostics.
"""

from . import algebra, cocycle, experiments, kernels, lattice, multipliers, schatten
from .algebra import *  # noqa: F401,F403
from .cocycle import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .multipliers import *  # noqa: F401,F403
from .schatten import *  # noqa: F401,F403

__version__ = "0.1.0"

# the public names of the library modules; records, reference and cli stay
# behind their own module paths
__all__ = [
    name
    for module in (lattice, cocycle, algebra, multipliers, kernels, schatten, experiments)
    for name in module.__all__
]
