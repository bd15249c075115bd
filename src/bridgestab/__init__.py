"""Discrete Schrödinger bridges on grids, with quantitative stability checks.

The package solves static Schrödinger problems (and their quadratic
entropic-optimal-transport reformulation) on regular 1D/2D grids by
log-stabilized Sinkhorn iteration, and then verifies a family of quantitative
estimates on the computed solutions: corrector bounds, stability of plans and
costs in weighted negative-Sobolev norms, small-time Γ-limits, convergence of
Schrödinger maps to monotone transport maps, and exponential-Orlicz
log-integrability bounds.  Every check is reported as a structured inequality
record; nothing is silently clamped or hidden.
"""

from .measures import (
    Grid,
    ReferenceMeasure,
    DiscreteMeasure,
    SignedMeasure,
    difference,
    gaussian_measure,
    uniform_measure,
    gaussian_mixture_measure,
    random_smooth_pair,
    smooth_zero_mean_field,
    perturbed_measure,
    relative_entropy,
    symmetric_entropy,
    fisher_information,
    second_moment,
    measure_from_csv,
)
from .kernels import (
    BandwidthWarning,
    GibbsKernel,
    curvature_factor,
    lse_matvec,
    apply_semigroup,
)
from .schrodinger import (
    InfeasibleProblem,
    NotConverged,
    Plan,
    SchrodingerSolution,
    EOTSolution,
    solve,
    require_converged,
    plan_symmetric_entropy,
    eot_quadratic_direct,
    eot_via_sp,
    eot_cost_from_sp,
    sp_time_from_epsilon,
)
from .sobolev import (
    h_minus_one_norm,
    WeightedPoissonProblem,
    wasserstein2_1d,
    w2_h_minus_one_comparison,
)
from .reports import InequalityReport, make_report, make_equality_report
from .diagnostics import (
    corrector_check,
    plan_stability_check,
    cost_stability_check,
    quadratic_eot_stability_check,
)
from .dynamics import (
    EntropicInterpolation,
    interpolate,
    dynamic_cost_check,
    gronwall_decay_check,
    small_time_cost_curve,
    monotone_rearrangement,
    schrodinger_map,
    gradient_convergence_experiment,
)
from .orlicz import (
    theta,
    theta_star,
    luxemburg_norm,
    density_conjugate_norm,
    orlicz_young_check,
    OrliczContext,
    log_integrability_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Grid", "ReferenceMeasure", "DiscreteMeasure", "SignedMeasure",
    "difference", "gaussian_measure", "uniform_measure",
    "gaussian_mixture_measure", "random_smooth_pair",
    "smooth_zero_mean_field", "perturbed_measure", "relative_entropy",
    "symmetric_entropy", "fisher_information", "second_moment",
    "measure_from_csv",
    "BandwidthWarning", "GibbsKernel", "curvature_factor", "lse_matvec",
    "apply_semigroup",
    "InfeasibleProblem", "NotConverged", "Plan", "SchrodingerSolution",
    "EOTSolution", "solve", "require_converged", "plan_symmetric_entropy",
    "eot_quadratic_direct", "eot_via_sp", "eot_cost_from_sp",
    "sp_time_from_epsilon",
    "h_minus_one_norm", "WeightedPoissonProblem", "wasserstein2_1d",
    "w2_h_minus_one_comparison",
    "InequalityReport", "make_report", "make_equality_report",
    "corrector_check", "plan_stability_check", "cost_stability_check",
    "quadratic_eot_stability_check",
    "EntropicInterpolation", "interpolate", "dynamic_cost_check",
    "gronwall_decay_check", "small_time_cost_curve",
    "monotone_rearrangement", "schrodinger_map",
    "gradient_convergence_experiment",
    "theta", "theta_star", "luxemburg_norm", "density_conjugate_norm",
    "orlicz_young_check", "OrliczContext", "log_integrability_bound",
]
