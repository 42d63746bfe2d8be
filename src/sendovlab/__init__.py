"""Numerical laboratory for zeros, critical points, and their potentials.

The package studies monic polynomials with zeros in the closed unit
disk: empirical measures of zeros and critical points, logarithmic
potentials and Stieltjes transforms, harmonic sweeps onto circles,
argument-principle winding counts, and a family of near-extremal
instances for the Sendov problem.

Each layer module declares its public names in its own ``__all__``;
the package re-exports exactly those names.
"""

from . import contour, families, measures, poly_core, potential, rootfind, sendov_check
from .contour import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .poly_core import *  # noqa: F401,F403
from .potential import *  # noqa: F401,F403
from .rootfind import *  # noqa: F401,F403
from .sendov_check import *  # noqa: F401,F403

__version__ = "0.12.0"

__all__ = [
    "__version__",
    *contour.__all__,
    *families.__all__,
    *measures.__all__,
    *poly_core.__all__,
    *potential.__all__,
    *rootfind.__all__,
    *sendov_check.__all__,
]
