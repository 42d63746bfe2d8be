"""Numerical laboratory for zeros, critical points, and their potentials.

The package studies monic polynomials with zeros in the closed unit
disk: empirical measures of zeros and critical points, logarithmic
potentials and Stieltjes transforms, harmonic sweeps onto circles,
argument-principle winding counts, and a family of near-extremal
instances for the Sendov problem.
"""

from .contour import (
    AmbiguousCountError,
    RadiusSelection,
    WindingResult,
    select_radius,
    winding_number,
    zero_pole_count,
)
from .families import (
    FamilyParams,
    FamilyReport,
    example_circle,
    example_origin,
    family_critical_points,
    miller_family,
    origin_derivative,
    predicted_zero_shift,
    random_instance,
    random_instances,
    verify_family,
)
from .measures import (
    EmpiricalMeasure,
    MomentSummary,
    ZetaDiagnostics,
    check_matching_mean,
    empirical_measure,
    expect_log_distance,
    moment,
    prob_in_region,
    quantitative_zetas,
    summary,
)
from .poly_core import (
    AtomCollisionError,
    CrossCheckError,
    Polynomial,
    SendovInstance,
    derivative,
    evaluate,
    from_roots,
    from_roots_batch,
)
from .potential import (
    CircleDensity,
    ContourTooCloseError,
    IdentityReport,
    balayage,
    circle_fourier_coeffs,
    integrated_log_derivative,
    log_potential,
    poisson_kernel,
    stieltjes,
    stieltjes_derivative,
    verify_basic_identities,
)
from .rootfind import (
    RootSet,
    critical_points,
    find_roots,
)
from .sendov_check import (
    DegotReport,
    DegotRow,
    Region,
    SendovReport,
    degot_suite,
    sendov_margin,
)

__version__ = "0.7.0"

__all__ = [
    "AmbiguousCountError",
    "AtomCollisionError",
    "CircleDensity",
    "ContourTooCloseError",
    "CrossCheckError",
    "DegotReport",
    "DegotRow",
    "EmpiricalMeasure",
    "FamilyParams",
    "FamilyReport",
    "IdentityReport",
    "MomentSummary",
    "Polynomial",
    "RadiusSelection",
    "Region",
    "RootSet",
    "SendovInstance",
    "SendovReport",
    "WindingResult",
    "ZetaDiagnostics",
    "__version__",
    "balayage",
    "check_matching_mean",
    "circle_fourier_coeffs",
    "critical_points",
    "degot_suite",
    "derivative",
    "empirical_measure",
    "evaluate",
    "example_circle",
    "example_origin",
    "expect_log_distance",
    "family_critical_points",
    "find_roots",
    "from_roots",
    "from_roots_batch",
    "integrated_log_derivative",
    "log_potential",
    "miller_family",
    "moment",
    "origin_derivative",
    "poisson_kernel",
    "predicted_zero_shift",
    "prob_in_region",
    "quantitative_zetas",
    "random_instance",
    "random_instances",
    "select_radius",
    "sendov_margin",
    "stieltjes",
    "stieltjes_derivative",
    "summary",
    "verify_basic_identities",
    "verify_family",
    "winding_number",
    "zero_pole_count",
]
