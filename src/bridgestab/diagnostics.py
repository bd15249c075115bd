"""Quantitative estimates for Schrödinger bridges, checked numerically.

Each check returns a pair of `InequalityReport`s for one displayed estimate:

* corrector bounds      ∫|∇log P_T e^φ|² dν ≤ (C_T - H(ν|m)) / E_{2κ}(T)
  (and the mirror with ψ, μ);
* plan stability        H^sym of two bridge plans against symmetric marginal
  entropies plus weighted Ḣ^{-1} norms, in the entropy and Fisher forms;
* cost stability        |ΔS_T| and |ΔC_T| against the same ingredients;
* quadratic-EOT stability in the κ-free form with the dimensional constant
  C_ε = (dε/2)·log(4πε), for both values and plans.

The six stability right-hand sides share one shape, head + scale·Σ_k
factor_k·‖Δ_k‖_{Ḣ⁻¹} over the four marginals k = μ, ν, μ̄, ν̄, and one
builder (`_bound`) makes them all.  It assembles each twice — once as a
factored expression, once as an fsum of named terms with the scale folded
into each — and the two must agree to 1e-10 before a report is emitted.  A
right-hand side of +inf yields a *vacuous* report (flagged, never counted
as evidence).

Values and realized marginals come from the solutions' potentials and
stored marginals; only the plan lhs (`stab_plans*`, `eot_plan_stab`) build
dense plans (`log_plan`), for H^sym of the plans.  That H^sym is one pass
of nonnegative terms Σ (π - π̄)(log π - log π̄)
(`schrodinger.plan_symmetric_entropy`), not a sum of two relative
entropies, which cancel to O(ε²) for marginals ε apart.
"""

from __future__ import annotations

import math

from .kernels import curvature_factor
from .measures import (DiscreteMeasure, ReferenceMeasure, difference,
                       fisher_information, gradient_energy, relative_entropy,
                       symmetric_entropy)
from .reports import InequalityReport, cross_check_rhs, make_report
from .schrodinger import (EOTSolution, InfeasibleProblem,
                          SchrodingerSolution, plan_symmetric_entropy,
                          require_converged)
from .sobolev import h_minus_one_norm

__all__ = [
    "corrector_check", "plan_stability_check", "cost_stability_check",
    "quadratic_eot_stability_check",
]


def sqrt_clamped(value: float, label: str, guard: float = 1e-8) -> float:
    """√value with tiny negative values (discretization fuzz) clamped to 0.

    A value below -guard means that the discrete problem breaks the
    premise of the estimate (a coarse grid or a loose solve can give
    C_T < H(ν|m)), and raises `InfeasibleProblem` naming the quantity.
    """
    if value < -guard:
        raise InfeasibleProblem(
            f"{label} is negative beyond tolerance: {value!r}")
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
# the one stability bound: head + scale·Σ factor·‖Δ‖_{Ḣ⁻¹} over 4 marginals
# ---------------------------------------------------------------------------

_SIDES = ("mu", "nu", "mu_bar", "nu_bar")


def _marginal_terms(mu: DiscreteMeasure, nu: DiscreteMeasure,
                    mu_b: DiscreteMeasure, nu_b: DiscreteMeasure
                    ) -> dict[str, float]:
    """H^sym(μ, μ̄), H^sym(ν, ν̄) and the four weighted Ḣ⁻¹ norms of the
    marginal changes (‖μ - μ̄‖_{Ḣ⁻¹(μ)}, ..., ‖ν̄ - ν‖_{Ḣ⁻¹(ν̄)}), shared by
    the SP and the EOT stability checks."""
    return {
        "hsym_mu": symmetric_entropy(mu, mu_b),
        "hsym_nu": symmetric_entropy(nu, nu_b),
        "norm_mu": h_minus_one_norm(difference(mu, mu_b), mu),
        "norm_nu": h_minus_one_norm(difference(nu, nu_b), nu),
        "norm_mu_bar": h_minus_one_norm(difference(mu_b, mu), mu_b),
        "norm_nu_bar": h_minus_one_norm(difference(nu_b, nu), nu_b),
    }


def _bound(label: str, head: dict[str, float], factor: dict[str, float],
           terms: dict[str, float], scale: float) -> float:
    """Σ head + scale·Σ_k factor[k]·terms["norm_k"] over the four marginals
    k, assembled as one factored expression and as an fsum of named terms
    with the scale folded into each; `cross_check_rhs` compares the two."""
    norms = {k: terms["norm_" + k] for k in _SIDES}
    rhs = sum(head.values()) + scale * sum(_term(factor[k], norms[k])
                                           for k in _SIDES)
    return cross_check_rhs(rhs, dict(head, **{
        k + "_term": _term(scale * factor[k], norms[k]) for k in _SIDES}),
        label)


# ---------------------------------------------------------------------------
# stability of plans and costs (Schrödinger form)
# ---------------------------------------------------------------------------

def _sp_pair(sol_a: SchrodingerSolution, sol_b: SchrodingerSolution):
    """(marginal terms, the four √(C_T - H(·|m)) roots clamped at zero, the
    four Fisher informations, E_{2κ}(T)) of two converged solutions of one
    kernel."""
    ka, kb = sol_a.kernel, sol_b.kernel
    if not (ka.grid.same_as(kb.grid) and ka.T == kb.T
            and ka.kappa == kb.kappa):
        raise ValueError("stability checks need two solutions of the same "
                         "kernel on the same grid")
    require_converged(sol_a)
    require_converged(sol_b)
    ct_a, ct_b = sol_a.entropic_cost(), sol_b.entropic_cost()
    sides = {"mu": (ct_a, sol_a.h_mu, sol_a.mu),
             "nu": (ct_a, sol_a.h_nu, sol_a.nu),
             "mu_bar": (ct_b, sol_b.h_mu, sol_b.mu),
             "nu_bar": (ct_b, sol_b.h_nu, sol_b.nu)}
    fisher = {"fisher_" + k: fisher_information(m, sol_a.reference)
              for k, (_, _, m) in sides.items()}
    terms = _marginal_terms(sol_a.mu, sol_a.nu, sol_b.mu, sol_b.nu)
    roots = {k: sqrt_clamped(ct - h, f"C_T - H({k}|m)")
             for k, (ct, h, _) in sides.items()}
    return terms, roots, fisher, curvature_factor(ka.kappa, sol_a.T)


def _fisher_factor(roots: dict[str, float], fisher: dict[str, float]
                   ) -> dict[str, float]:
    """√I + √(C_T - H): the per-marginal factor of the Fisher forms."""
    return {k: math.sqrt(fisher["fisher_" + k]) + roots[k] for k in _SIDES}


def plan_stability_check(sol_a: SchrodingerSolution,
                         sol_b: SchrodingerSolution
                         ) -> tuple[InequalityReport, InequalityReport]:
    """H^sym of the two bridge plans against the two stability bounds."""
    terms, roots, fisher, e_factor = _sp_pair(sol_a, sol_b)
    scale = 1.0 / math.sqrt(e_factor)
    lhs = plan_symmetric_entropy(sol_a.log_plan(), sol_b.log_plan())
    hsym = {k: terms[k] for k in ("hsym_mu", "hsym_nu")}
    rhs_plain = _bound("stab_plans", hsym, roots, terms, scale)
    rhs_fisher = _bound("stab_plans_fisher", {},
                        _fisher_factor(roots, fisher), terms, scale)
    extras = dict(terms, hsym_plans=lhs, e_factor=e_factor)
    return (make_report("stab_plans", lhs, rhs_plain, extras=extras),
            make_report("stab_plans_fisher", lhs, rhs_fisher,
                        extras=dict(extras, **fisher)))


def cost_stability_check(sol_a: SchrodingerSolution,
                         sol_b: SchrodingerSolution
                         ) -> tuple[InequalityReport, InequalityReport]:
    """|ΔS_T| and |ΔC_T| against their stability bounds."""
    terms, roots, fisher, e_factor = _sp_pair(sol_a, sol_b)
    T = sol_a.T
    scale = 1.0 / math.sqrt(e_factor)
    st_a, st_b = sol_a.schrodinger_cost(), sol_b.schrodinger_cost()
    ct_a, ct_b = sol_a.entropic_cost(), sol_b.entropic_cost()
    rhs_st = _bound("stab_cost",
                    {"hsym_min": T * min(terms["hsym_mu"], terms["hsym_nu"])},
                    roots, terms, T * scale)
    rhs_ct = _bound("stab_cost_fisher", {}, _fisher_factor(roots, fisher),
                    terms, scale)
    extras = {"st_a": st_a, "st_b": st_b, "ct_a": ct_a, "ct_b": ct_b,
              "e_factor": e_factor, "T": T}
    return (make_report("stab_cost", abs(st_b - st_a), rhs_st, extras=extras),
            make_report("stab_cost_fisher", abs(ct_b - ct_a), rhs_ct,
                        extras=extras))


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
    s_a, s_b = eot_a.cost, eot_b.cost
    guard = 1e-8 * max(1.0, abs(s_a), abs(s_b), abs(c_eps))
    terms = _marginal_terms(eot_a.mu, eot_a.nu, eot_b.mu, eot_b.nu)

    # crossed pairing: the root of side k carries the entropy of side k_x
    roots = {}
    for k, s, S, k_x, m_x in (("mu", s_a, "S", "nu", eot_a.nu),
                              ("nu", s_a, "S", "mu", eot_a.mu),
                              ("mu_bar", s_b, "S_bar", "nu_bar", eot_b.nu),
                              ("nu_bar", s_b, "S_bar", "mu_bar", eot_b.mu)):
        roots[k] = sqrt_clamped(s + eps * relative_entropy(m_x, leb) + c_eps,
                                f"{S} + eps*H({k_x}|Leb) + C_eps", guard)

    hsym_mu, hsym_nu = terms["hsym_mu"], terms["hsym_nu"]
    rhs_cost = _bound("eot_cost_stab",
                      {"hsym_min": eps * min(hsym_mu, hsym_nu)},
                      roots, terms, 2.0)
    lhs_plan = eps * plan_symmetric_entropy(eot_a.log_plan(),
                                            eot_b.log_plan())
    rhs_plan = _bound("eot_plan_stab", {"hsym_mu": eps * hsym_mu,
                                        "hsym_nu": eps * hsym_nu},
                      roots, terms, 2.0)

    extras = {"epsilon": eps, "c_eps": c_eps, "cost_a": s_a, "cost_b": s_b,
              **terms}
    return (make_report("eot_cost_stab", abs(s_b - s_a), rhs_cost,
                        extras=extras),
            make_report("eot_plan_stab", lhs_plan, rhs_plan, extras=extras))
