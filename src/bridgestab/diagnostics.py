"""Quantitative estimates for Schrödinger bridges, checked numerically.

Each check returns a pair of `InequalityReport`s for one displayed estimate:

* corrector bounds      ∫|∇log P_T e^φ|² dν ≤ (C_T - H(ν|m)) / E_{2κ}(T)
  (and the mirror with ψ, μ);
* plan stability        H^sym of two bridge plans against symmetric marginal
  entropies plus weighted Ḣ^{-1} norms, in the entropy and Fisher forms;
* cost stability        |ΔS_T| and |ΔC_T| against the same ingredients;
* quadratic-EOT stability in the κ-free form with the dimensional constant
  C_ε = (dε/2)·log(4πε), for both values and plans.

Every right-hand side is assembled twice — once as a vectorized expression,
once as an independently summed dict of named terms — and the two must agree
to 1e-10 before a report is emitted.  A right-hand side of +inf yields a
*vacuous* report (flagged, never counted as evidence).

Values and realized marginals come from the solutions' potentials and
stored marginals; only the two plan-stability checks build dense plans
(`log_plan`), for H^sym of the plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernels import curvature_factor
from .measures import (DiscreteMeasure, ReferenceMeasure, difference,
                       fisher_information, gradient_energy, relative_entropy,
                       symmetric_entropy)
from .reports import InequalityReport, cross_check_rhs, make_report
from .schrodinger import (EOTSolution, SchrodingerSolution,
                          plan_symmetric_entropy, require_converged)
from .sobolev import h_minus_one_norm

__all__ = [
    "corrector_check",
    "plan_stability_check", "cost_stability_check",
    "quadratic_eot_stability_check", "StabilityIngredients",
    "stability_ingredients",
]


def sqrt_clamped(value: float, label: str, guard: float = 1e-8) -> float:
    """√value with tiny negative values (discretization fuzz) clamped to 0."""
    if value < -guard:
        raise ValueError(f"{label} is negative beyond tolerance: {value!r}")
    return math.sqrt(max(value, 0.0))


def _term(factor: float, norm: float) -> float:
    """factor·norm in an upper bound: an infinite norm makes the bound
    vacuous (+inf) even with a zero factor; a zero norm kills the term."""
    if norm == 0.0:
        return 0.0
    if math.isinf(norm):
        return math.inf
    return factor * norm


# ---------------------------------------------------------------------------
# corrector estimates
# ---------------------------------------------------------------------------

def corrector_check(sol: SchrodingerSolution
                    ) -> tuple[InequalityReport, InequalityReport]:
    """Check ∫|∇log P_T e^φ|²dν ≤ (C_T - H(ν|m))/E_{2κ}(T) and its mirror."""
    require_converged(sol)
    E = curvature_factor(sol.kernel.kappa, sol.T)
    ct = sol.entropic_cost()

    # log P_T e^φ and log P_T e^ψ: the slices at t = T and at t = 0
    p_phi, p_psi = sol.log_slices(sol.T)[0], sol.log_slices(0.0)[1]
    grid = sol.kernel.grid
    lhs_nu = gradient_energy(p_phi, grid, sol.nu.weights)
    lhs_mu = gradient_energy(p_psi, grid, sol.mu.weights)

    # same integrals against the plan's realized marginals (two-way check)
    lhs_nu_plan = gradient_energy(p_phi, grid, sol.nu_hat)
    lhs_mu_plan = gradient_energy(p_psi, grid, sol.mu_hat)

    rhs_nu = (ct - sol.h_nu) / E
    rhs_nu = cross_check_rhs(rhs_nu, {"cost": ct / E,
                                      "neg_entropy": -sol.h_nu / E},
                             "corrector_nu")
    rhs_mu = (ct - sol.h_mu) / E
    rhs_mu = cross_check_rhs(rhs_mu, {"cost": ct / E,
                                      "neg_entropy": -sol.h_mu / E},
                             "corrector_mu")
    # the difference C_T - H is nonnegative up to discretization fuzz
    sqrt_clamped(rhs_nu, "corrector rhs (nu)")
    sqrt_clamped(rhs_mu, "corrector rhs (mu)")
    rhs_nu = max(rhs_nu, 0.0)
    rhs_mu = max(rhs_mu, 0.0)

    return (make_report("corrector_nu", lhs_nu, rhs_nu,
                        extras={"lhs_vs_plan_marginal": lhs_nu_plan,
                                "entropic_cost": ct, "entropy": sol.h_nu,
                                "curvature_factor": E}),
            make_report("corrector_mu", lhs_mu, rhs_mu,
                        extras={"lhs_vs_plan_marginal": lhs_mu_plan,
                                "entropic_cost": ct, "entropy": sol.h_mu,
                                "curvature_factor": E}))


# ---------------------------------------------------------------------------
# stability of plans and costs (Schrödinger form)
# ---------------------------------------------------------------------------

@dataclass
class StabilityIngredients:
    """Everything the stability right-hand sides need for one solution pair."""

    e_factor: float
    hsym_mu: float            # H^sym(μ, μ̄)
    hsym_nu: float            # H^sym(ν, ν̄)
    ct_a: float
    ct_b: float
    st_a: float
    st_b: float
    h_mu_a: float
    h_nu_a: float
    h_mu_b: float
    h_nu_b: float
    norm_mu: float            # ‖μ - μ̄‖_{Ḣ^{-1}(μ)}
    norm_nu: float
    norm_mu_bar: float        # ‖μ̄ - μ‖_{Ḣ^{-1}(μ̄)}
    norm_nu_bar: float
    fisher_mu: float
    fisher_nu: float
    fisher_mu_bar: float
    fisher_nu_bar: float


def _compatible_pair(sol_a: SchrodingerSolution, sol_b: SchrodingerSolution):
    ka, kb = sol_a.kernel, sol_b.kernel
    if not (ka.grid.same_as(kb.grid) and ka.T == kb.T
            and ka.kappa == kb.kappa):
        raise ValueError("stability checks need two solutions of the same "
                         "kernel on the same grid")


def _marginal_terms(mu: DiscreteMeasure, nu: DiscreteMeasure,
                    mu_b: DiscreteMeasure, nu_b: DiscreteMeasure
                    ) -> dict[str, float]:
    """H^sym(μ, μ̄), H^sym(ν, ν̄) and the four weighted Ḣ⁻¹ norms of the
    marginal changes, shared by the SP and the EOT stability checks."""
    return {
        "hsym_mu": symmetric_entropy(mu, mu_b),
        "hsym_nu": symmetric_entropy(nu, nu_b),
        "norm_mu": h_minus_one_norm(difference(mu, mu_b), mu),
        "norm_nu": h_minus_one_norm(difference(nu, nu_b), nu),
        "norm_mu_bar": h_minus_one_norm(difference(mu_b, mu), mu_b),
        "norm_nu_bar": h_minus_one_norm(difference(nu_b, nu), nu_b),
    }


def stability_ingredients(sol_a: SchrodingerSolution,
                          sol_b: SchrodingerSolution) -> StabilityIngredients:
    _compatible_pair(sol_a, sol_b)
    require_converged(sol_a)
    require_converged(sol_b)
    ref = sol_a.reference
    mu, nu = sol_a.mu, sol_a.nu
    mu_b, nu_b = sol_b.mu, sol_b.nu
    return StabilityIngredients(
        e_factor=curvature_factor(sol_a.kernel.kappa, sol_a.T),
        ct_a=sol_a.entropic_cost(), ct_b=sol_b.entropic_cost(),
        st_a=sol_a.schrodinger_cost(), st_b=sol_b.schrodinger_cost(),
        h_mu_a=sol_a.h_mu, h_nu_a=sol_a.h_nu,
        h_mu_b=sol_b.h_mu, h_nu_b=sol_b.h_nu,
        fisher_mu=fisher_information(mu, ref),
        fisher_nu=fisher_information(nu, ref),
        fisher_mu_bar=fisher_information(mu_b, ref),
        fisher_nu_bar=fisher_information(nu_b, ref),
        **_marginal_terms(mu, nu, mu_b, nu_b))


def _corrector_roots(ing: StabilityIngredients) -> dict[str, float]:
    """The four √(C_T - H(·|m)) factors, clamped at zero."""
    return {
        "mu": sqrt_clamped(ing.ct_a - ing.h_mu_a, "C_T - H(mu|m)"),
        "nu": sqrt_clamped(ing.ct_a - ing.h_nu_a, "C_T - H(nu|m)"),
        "mu_bar": sqrt_clamped(ing.ct_b - ing.h_mu_b, "C_T - H(mu_bar|m)"),
        "nu_bar": sqrt_clamped(ing.ct_b - ing.h_nu_b, "C_T - H(nu_bar|m)"),
    }


def _fisher_rhs(ing: StabilityIngredients, roots: dict[str, float],
                label: str) -> float:
    """Σ (√I + √(C_T - H)) · ‖·‖_{Ḣ⁻¹} / √E over the four marginals: the
    Fisher-form bound shared by the plan and the C_T stability checks."""
    se = math.sqrt(ing.e_factor)
    fr = {k: math.sqrt(v) for k, v in (
        ("mu", ing.fisher_mu), ("nu", ing.fisher_nu),
        ("mu_bar", ing.fisher_mu_bar), ("nu_bar", ing.fisher_nu_bar))}
    rhs = (_term(fr["mu"] + roots["mu"], ing.norm_mu)
           + _term(fr["mu_bar"] + roots["mu_bar"], ing.norm_mu_bar)
           + _term(fr["nu"] + roots["nu"], ing.norm_nu)
           + _term(fr["nu_bar"] + roots["nu_bar"], ing.norm_nu_bar)) / se
    return cross_check_rhs(rhs, {
        "mu_term": _term((fr["mu"] + roots["mu"]) / se, ing.norm_mu),
        "mu_bar_term": _term((fr["mu_bar"] + roots["mu_bar"]) / se,
                             ing.norm_mu_bar),
        "nu_term": _term((fr["nu"] + roots["nu"]) / se, ing.norm_nu),
        "nu_bar_term": _term((fr["nu_bar"] + roots["nu_bar"]) / se,
                             ing.norm_nu_bar),
    }, label)


def plan_stability_check(sol_a: SchrodingerSolution,
                         sol_b: SchrodingerSolution
                         ) -> tuple[InequalityReport, InequalityReport]:
    """H^sym of the two bridge plans against the two stability bounds."""
    ing = stability_ingredients(sol_a, sol_b)
    se = math.sqrt(ing.e_factor)
    roots = _corrector_roots(ing)
    lhs = plan_symmetric_entropy(sol_a.log_plan(), sol_b.log_plan())

    rhs_plain = ing.hsym_mu + ing.hsym_nu + (
        _term(roots["mu"], ing.norm_mu) + _term(roots["nu"], ing.norm_nu)
        + _term(roots["mu_bar"], ing.norm_mu_bar)
        + _term(roots["nu_bar"], ing.norm_nu_bar)) / se
    rhs_plain = cross_check_rhs(rhs_plain, {
        "hsym_mu": ing.hsym_mu,
        "hsym_nu": ing.hsym_nu,
        "mu_term": _term(roots["mu"] / se, ing.norm_mu),
        "nu_term": _term(roots["nu"] / se, ing.norm_nu),
        "mu_bar_term": _term(roots["mu_bar"] / se, ing.norm_mu_bar),
        "nu_bar_term": _term(roots["nu_bar"] / se, ing.norm_nu_bar),
    }, "stab_plans")

    rhs_fisher = _fisher_rhs(ing, roots, "stab_plans_fisher")

    extras = {"hsym_plans": lhs, "hsym_mu": ing.hsym_mu,
              "hsym_nu": ing.hsym_nu, "norm_mu": ing.norm_mu,
              "norm_nu": ing.norm_nu, "norm_mu_bar": ing.norm_mu_bar,
              "norm_nu_bar": ing.norm_nu_bar, "e_factor": ing.e_factor}
    return (make_report("stab_plans", lhs, rhs_plain, extras=extras),
            make_report("stab_plans_fisher", lhs, rhs_fisher,
                        extras=dict(extras,
                                    fisher_mu=ing.fisher_mu,
                                    fisher_nu=ing.fisher_nu,
                                    fisher_mu_bar=ing.fisher_mu_bar,
                                    fisher_nu_bar=ing.fisher_nu_bar)))


def cost_stability_check(sol_a: SchrodingerSolution,
                         sol_b: SchrodingerSolution
                         ) -> tuple[InequalityReport, InequalityReport]:
    """|ΔS_T| and |ΔC_T| against their stability bounds."""
    ing = stability_ingredients(sol_a, sol_b)
    T = sol_a.T
    se = math.sqrt(ing.e_factor)
    roots = _corrector_roots(ing)

    lhs_st = abs(ing.st_b - ing.st_a)
    rhs_st = T * min(ing.hsym_mu, ing.hsym_nu) + (T / se) * (
        _term(roots["mu"], ing.norm_mu) + _term(roots["nu"], ing.norm_nu)
        + _term(roots["mu_bar"], ing.norm_mu_bar)
        + _term(roots["nu_bar"], ing.norm_nu_bar))
    rhs_st = cross_check_rhs(rhs_st, {
        "hsym_min": T * min(ing.hsym_mu, ing.hsym_nu),
        "mu_term": _term(T * roots["mu"] / se, ing.norm_mu),
        "nu_term": _term(T * roots["nu"] / se, ing.norm_nu),
        "mu_bar_term": _term(T * roots["mu_bar"] / se, ing.norm_mu_bar),
        "nu_bar_term": _term(T * roots["nu_bar"] / se, ing.norm_nu_bar),
    }, "stab_cost")

    lhs_ct = abs(ing.ct_b - ing.ct_a)
    rhs_ct = _fisher_rhs(ing, roots, "stab_cost_fisher")

    extras = {"st_a": ing.st_a, "st_b": ing.st_b,
              "ct_a": ing.ct_a, "ct_b": ing.ct_b,
              "e_factor": ing.e_factor, "T": T}
    return (make_report("stab_cost", lhs_st, rhs_st, extras=extras),
            make_report("stab_cost_fisher", lhs_ct, rhs_ct, extras=extras))


# ---------------------------------------------------------------------------
# quadratic EOT stability in the κ-free (κ → 0) form
# ---------------------------------------------------------------------------

def quadratic_eot_stability_check(eot_a: EOTSolution, eot_b: EOTSolution
                                  ) -> tuple[InequalityReport,
                                             InequalityReport]:
    """Value and plan stability for S^ε with C_ε = (dε/2)·log(4πε).

    The radicand pairing is crossed: the factor multiplying ‖μ-μ̄‖ carries
    H(ν|Leb), and vice versa.
    """
    if eot_a.epsilon != eot_b.epsilon:
        raise ValueError("both solutions must share one epsilon")
    if not eot_a.mu.grid.same_as(eot_b.mu.grid):
        raise ValueError("solutions live on different grids")
    require_converged(eot_a)
    require_converged(eot_b)

    eps = eot_a.epsilon
    d = eot_a.mu.grid.ndim
    c_eps = 0.5 * d * eps * math.log(4.0 * math.pi * eps)
    leb = ReferenceMeasure.lebesgue(eot_a.mu.grid)

    mu, nu = eot_a.mu, eot_a.nu
    mu_b, nu_b = eot_b.mu, eot_b.nu
    terms = _marginal_terms(mu, nu, mu_b, nu_b)
    hsym_mu, hsym_nu = terms["hsym_mu"], terms["hsym_nu"]
    n_mu, n_nu = terms["norm_mu"], terms["norm_nu"]
    n_mu_bar, n_nu_bar = terms["norm_mu_bar"], terms["norm_nu_bar"]

    s_a, s_b = eot_a.cost, eot_b.cost
    guard = 1e-8 * max(1.0, abs(s_a), abs(s_b), abs(c_eps))
    root = {
        # crossed pairing: the μ-norm factor carries H(ν|Leb)
        "mu": sqrt_clamped(s_a + eps * relative_entropy(nu, leb) + c_eps,
                           "S + eps*H(nu|Leb) + C_eps", guard),
        "nu": sqrt_clamped(s_a + eps * relative_entropy(mu, leb) + c_eps,
                           "S + eps*H(mu|Leb) + C_eps", guard),
        "mu_bar": sqrt_clamped(s_b + eps * relative_entropy(nu_b, leb) + c_eps,
                               "S_bar + eps*H(nu_bar|Leb) + C_eps", guard),
        "nu_bar": sqrt_clamped(s_b + eps * relative_entropy(mu_b, leb) + c_eps,
                               "S_bar + eps*H(mu_bar|Leb) + C_eps", guard),
    }
    bracket = 2.0 * (_term(root["mu"], n_mu) + _term(root["nu"], n_nu)) \
        + 2.0 * (_term(root["mu_bar"], n_mu_bar)
                 + _term(root["nu_bar"], n_nu_bar))
    bracket_terms = {
        "mu_term": _term(2.0 * root["mu"], n_mu),
        "nu_term": _term(2.0 * root["nu"], n_nu),
        "mu_bar_term": _term(2.0 * root["mu_bar"], n_mu_bar),
        "nu_bar_term": _term(2.0 * root["nu_bar"], n_nu_bar),
    }

    lhs_cost = abs(s_b - s_a)
    rhs_cost = eps * min(hsym_mu, hsym_nu) + bracket
    rhs_cost = cross_check_rhs(
        rhs_cost, dict(bracket_terms,
                       hsym_min=eps * min(hsym_mu, hsym_nu)),
        "eot_cost_stab")

    lhs_plan = eps * plan_symmetric_entropy(eot_a.log_plan(),
                                            eot_b.log_plan())
    rhs_plan = eps * hsym_mu + eps * hsym_nu + bracket
    rhs_plan = cross_check_rhs(
        rhs_plan, dict(bracket_terms,
                       hsym_mu=eps * hsym_mu, hsym_nu=eps * hsym_nu),
        "eot_plan_stab")

    extras = {"epsilon": eps, "c_eps": c_eps, "cost_a": s_a, "cost_b": s_b,
              **terms}
    return (make_report("eot_cost_stab", lhs_cost, rhs_cost, extras=extras),
            make_report("eot_plan_stab", lhs_plan, rhs_plan, extras=extras))
