"""Curve shortening flow of figure-eight curves, Legendrian lifts in contact
R^3, length-gradient flow variants, and comparison-solution monitors."""

from .curves import (
    PlaneCurve,
    curvature,
    curve_length,
    derivatives,
    inflection_count,
    osc_theta,
    resample_arclength,
    signed_area,
    tangent_angle,
    total_curvature,
    x_extent,
)
from .crossings import Crossing, crossing_interior_angle, find_self_intersections, loop_areas
from .flow import (
    FlowConfig,
    FlowState,
    Trajectory,
    csf_velocity,
    estimate_extinction_time,
    run,
    step,
)
from .contact import (
    SpaceCurve,
    legendrian_angle,
    legendrian_residual,
    legendrian_variation,
    lift,
    lift_trajectory,
    project,
)
from .gradients import (
    ArclengthField,
    arclength_derivative,
    curve_diffusion_speed,
    evolve_gradient_flow,
    h1_gradient,
    indefinite_speed,
)
from .solitons import (
    GrimReaper,
    barrier_comparison,
    matched_barrier_comparison,
    push_distance,
    reaper_barrier_check,
    reaper_value,
    rectangle_containment,
    shrinking_circle,
)
from .shapes import (
    make_asymmetric_eight,
    make_bernoulli_lemniscate,
    make_circle,
    make_ellipse,
)
from .monitors import (
    ALPHA0,
    Report,
    balanced_invariant_report,
    collapse_report,
    isoperimetric_report,
    min_theta_bound,
    symmetry_collapse_check,
)

__version__ = "0.1.0"
