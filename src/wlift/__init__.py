"""Lifting curves of discrete probability measures to weighted path bundles:
exact discrete optimal transport, compatibility feasibility LPs, dyadic lift
constructions with geodesic interpolation, and fractional path-regularity
functionals."""

from .errors import (
    BudgetExceededError,
    IncompatibleCurveError,
    NoContinuousLiftError,
    SpaceMismatchError,
    ValidationError,
)
from .spaces import (
    Space,
    circle,
    cylinder,
    distance,
    distance_matrix,
    euclidean,
    geodesic_point,
)
from .measures import DiscreteMeasure, dirac, make_measure, measures_equal, p_moment
from .paths import (
    PiecewiseGeodesicPath,
    constant_path,
    dyadic_times,
    geodesic_segment,
)
from .transport import (
    CompatibilityReport,
    Coupling,
    MultiCoupling,
    compatibility_multicoupling,
    dyadic_pattern_pairs,
    glue_chain,
    is_compatible,
    optimal_coupling,
    wasserstein_distance,
    wasserstein_many,
    wasserstein_power,
)
from .norms import (
    besov_energy_pg,
    besov_norm_truncated,
    frac_sobolev_energy,
    geodesic_characterization_check,
    grr_check,
    grr_constant,
    holder_norm_dyadic,
    limsup_variation_dyadic,
    modulus_of_continuity,
    p_variation,
    w1p_norm_pg,
)
from .lifts import (
    CurveBesovReport,
    EnergySpec,
    Lift,
    WassersteinCurve,
    benamou_brenier_check,
    construct_lift_A,
    construct_lift_B,
    convergence_diagnostics,
    curve_besov_norm,
    curve_norm_power,
    energy_vs_curve_gap,
    lift_energy,
    marginal_check,
    pairwise_optimality_check,
)
from .families import (
    FamilySpec,
    KnownLift,
    circle_splitting,
    cylinder_circle_energies,
    cylinder_family,
    jump,
    known_lift,
    make_curve,
    oscillating_tents,
    reference_value,
    single_circle_curve,
    two_tent,
    wbar,
)

__version__ = "0.1.0"
