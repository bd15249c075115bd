"""Corrector bounds and plan/cost stability estimates on solved bridges."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import bridgestab as bs
from bridgestab.diagnostics import sqrt_clamped
from bridgestab.reports import cross_check_rhs


def perturbed_pair(grid, mu, nu, kernel, eps, seed):
    rng = np.random.default_rng(seed)
    h = bs.smooth_zero_mean_field(grid, mu, rng)
    k = bs.smooth_zero_mean_field(grid, nu, rng)
    mu_bar = bs.perturbed_measure(mu, h, eps)
    nu_bar = bs.perturbed_measure(nu, k, eps)
    return bs.solve(mu_bar, nu_bar, kernel)


def test_sqrt_clamped():
    assert sqrt_clamped(4.0, "x") == 2.0
    assert sqrt_clamped(-1e-12, "x") == 0.0
    with pytest.raises(ValueError):
        sqrt_clamped(-1e-3, "x")


def test_cross_check_rhs_guard():
    assert cross_check_rhs(3.0, {"a": 1.0, "b": 2.0}, "ok") == 3.0
    with pytest.raises(AssertionError):
        cross_check_rhs(3.1, {"a": 1.0, "b": 2.0}, "mismatch")


def _benchmark_gate():
    """perfbench/gate.py, which names the reports each scenario writes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"
    spec = importlib.util.spec_from_file_location("perfbench_gate", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


_CHECKS = {"corrector": "corrector_check", "stability": "plan_stability_check",
           "cost-stability": "cost_stability_check",
           "eot-stability": "quadratic_eot_stability_check"}


@pytest.mark.parametrize("scenario", list(_CHECKS))
def test_checks_return_the_reports_the_gate_expects(scenario, grid128,
                                                    gauss_pair, ou_kernel,
                                                    ou_sol):
    mu, nu = gauss_pair
    rng = np.random.default_rng(3)
    mu_b = bs.perturbed_measure(
        mu, bs.smooth_zero_mean_field(grid128, mu, rng), 0.1)
    if scenario == "corrector":
        args = (ou_sol,)
    elif scenario == "eot-stability":
        args = (bs.eot_quadratic_direct(mu, nu, 0.5),
                bs.eot_quadratic_direct(mu_b, nu, 0.5))
    else:
        args = (ou_sol, bs.solve(mu_b, nu, ou_kernel))
    reports = getattr(bs, _CHECKS[scenario])(*args)
    names, _ = _benchmark_gate().expected({
        "scenario": scenario, "corrector": {"n_pairs": 1},
        "perturbation": {"n_seeds": 1, "epsilons": [0.1]}})
    assert type(reports) is tuple
    assert all(isinstance(r, bs.InequalityReport) for r in reports)
    assert [r.name for r in reports] == list(names)
    assert all(r.passed and not r.vacuous for r in reports)


def test_corrector_trivial_when_marginals_match_reference(grid128):
    ref = bs.ReferenceMeasure.gaussian(grid128, kappa=1.0)
    m = bs.DiscreteMeasure.from_weights(grid128, ref.cell_mass)
    ker = bs.GibbsKernel.ou(grid128, T=0.5, kappa=1.0)
    sol = bs.solve(m, m, ker)
    # potentials are constant, so the gradient terms vanish
    for rep in bs.corrector_check(sol):
        assert rep.lhs < 1e-12
        assert rep.passed


def test_corrector_heat_rhs_is_cost_gap_over_time(gauss_pair):
    mu, nu = gauss_pair
    g = mu.grid
    T = 0.3
    ker = bs.GibbsKernel.heat(g, T=T)
    sol = bs.solve(mu, nu, ker)
    rep_nu, rep_mu = bs.corrector_check(sol)
    ct = sol.entropic_cost()
    for rep, h in ((rep_nu, sol.h_nu), (rep_mu, sol.h_mu)):
        assert rep.extras["curvature_factor"] == T
        assert rep.extras["entropic_cost"] == ct
        assert abs(rep.rhs - (ct - h) / T) < 1e-12


def test_corrector_battery(grid128):
    ker_by_T = {T: bs.GibbsKernel.ou(grid128, T=T, kappa=1.0) for T in (0.1, 0.5)}
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mu, nu = bs.random_smooth_pair(grid128, rng)
        for T, ker in ker_by_T.items():
            sol = bs.solve(mu, nu, ker)
            for rep in bs.corrector_check(sol):
                assert rep.relative_slack >= -1e-4, (seed, T, rep.name)
                assert rep.passed


def test_corrector_lhs_agrees_with_plan_marginal_route(ou_sol):
    for rep in bs.corrector_check(ou_sol):
        other = rep.extras["lhs_vs_plan_marginal"]
        # the plan's realized marginals sit within the Sinkhorn residual of the
        # prescribed ones, so the two integrals agree to that order
        assert abs(rep.lhs - other) <= 1e-6 * max(1.0, abs(rep.lhs))


def test_stability_identical_pair_is_zero(ou_sol):
    rep_plan, rep_fisher = bs.plan_stability_check(ou_sol, ou_sol)
    for rep in (rep_plan, rep_fisher):
        assert abs(rep.lhs) < 1e-8
        assert abs(rep.rhs) < 1e-8
        assert rep.passed
    rep_cost, rep_cost_fisher = bs.cost_stability_check(ou_sol, ou_sol)
    for rep in (rep_cost, rep_cost_fisher):
        assert abs(rep.lhs) < 1e-8
        assert abs(rep.rhs) < 1e-8
        assert rep.passed


def test_stability_perturbation_battery(grid128, gauss_pair, ou_kernel):
    mu, nu = gauss_pair
    base = bs.solve(mu, nu, ou_kernel)
    for seed in (0, 1):
        for eps in (0.05, 0.2):
            other = perturbed_pair(grid128, mu, nu, ou_kernel, eps, seed)
            for rep in bs.plan_stability_check(base, other):
                assert rep.passed, (seed, eps, rep.name, rep.slack)
                assert not rep.vacuous
            for rep in bs.cost_stability_check(base, other):
                assert rep.passed, (seed, eps, rep.name, rep.slack)
                assert not rep.vacuous


def test_stability_one_marginal_changed(grid128, gauss_pair, ou_kernel):
    mu, nu = gauss_pair
    base = bs.solve(mu, nu, ou_kernel)
    rng = np.random.default_rng(17)
    k = bs.smooth_zero_mean_field(grid128, nu, rng)
    nu_bar = bs.perturbed_measure(nu, k, 0.15)
    other = bs.solve(mu, nu_bar, ou_kernel)
    for rep in (*bs.plan_stability_check(base, other),
                *bs.cost_stability_check(base, other)):
        assert rep.passed
        assert not rep.vacuous


def test_stability_long_time_sharpness(grid128):
    # for T >> 1 the bridges decouple and H^sym of the plans approaches the
    # sum of the marginal symmetric entropies, so the entropy-form bound is
    # nearly saturated by its H^sym part
    mu = bs.gaussian_measure(grid128, [-0.8], 0.9)
    nu = bs.gaussian_measure(grid128, [0.7], 1.1)
    rng = np.random.default_rng(5)
    h = bs.smooth_zero_mean_field(grid128, mu, rng)
    k = bs.smooth_zero_mean_field(grid128, nu, rng)
    mu_bar = bs.perturbed_measure(mu, h, 0.3)
    nu_bar = bs.perturbed_measure(nu, k, 0.3)
    ker = bs.GibbsKernel.ou(grid128, T=5.0, kappa=1.0)
    sol_a = bs.solve(mu, nu, ker)
    sol_b = bs.solve(mu_bar, nu_bar, ker)
    rep_plan, _ = bs.plan_stability_check(sol_a, sol_b)
    ex = rep_plan.extras
    hsym_sum = ex["hsym_mu"] + ex["hsym_nu"]
    assert abs(ex["hsym_plans"] - hsym_sum) <= 0.05 * hsym_sum
    assert rep_plan.passed


def test_cost_stability_builds_no_plan(monkeypatch):
    # the value checks read potentials and marginals only: a 64×64 OU pair
    # passes both cost reports with `log_plan` disabled
    g = bs.Grid.regular([(-5.0, 5.0), (-5.0, 5.0)], [64, 64])
    ker = bs.GibbsKernel.ou(g, T=1.0, kappa=1.0)
    mu = bs.gaussian_measure(g, [-0.8, 0.4], [0.9, 1.1])
    nu = bs.gaussian_measure(g, [0.7, -0.5], [1.0, 0.8])
    base = bs.solve(mu, nu, ker)
    other = perturbed_pair(g, mu, nu, ker, 0.1, 3)

    def no_plan(self):
        raise AssertionError("a dense plan was built")

    monkeypatch.setattr(bs.SchrodingerSolution, "log_plan", no_plan)
    reports = bs.cost_stability_check(base, other)
    assert [r.name for r in reports] == ["stab_cost", "stab_cost_fisher"]
    for rep in reports:
        assert rep.passed and not rep.vacuous, (rep.name, rep.slack)
        assert rep.lhs > 0.0


def test_stability_vacuous_on_disjoint_supports(grid128, ou_kernel):
    mu = bs.uniform_measure(grid128, [-2.0], [-1.0])
    nu = bs.uniform_measure(grid128, [1.0], [2.0])
    sol_a = bs.solve(mu, nu, ou_kernel)
    mu_far = bs.uniform_measure(grid128, [-4.0], [-3.0])
    sol_b = bs.solve(mu_far, nu, ou_kernel)
    rep_plan, _ = bs.plan_stability_check(sol_a, sol_b)
    assert rep_plan.vacuous
    assert rep_plan.rhs == math.inf
    assert rep_plan.passed  # vacuously


def test_eot_stability_identical_and_perturbed(grid128, gauss_pair):
    mu, nu = gauss_pair
    a = bs.eot_quadratic_direct(mu, nu, epsilon=0.5)
    rep_cost, rep_plan = bs.quadratic_eot_stability_check(a, a)
    assert abs(rep_cost.lhs) < 1e-8 and rep_cost.passed
    assert abs(rep_plan.lhs) < 1e-8 and rep_plan.passed

    rng = np.random.default_rng(23)
    h = bs.smooth_zero_mean_field(grid128, mu, rng)
    mu_bar = bs.perturbed_measure(mu, h, 0.15)
    b = bs.eot_quadratic_direct(mu_bar, nu, epsilon=0.5)
    for rep in bs.quadratic_eot_stability_check(a, b):
        assert rep.passed
        assert not rep.vacuous


def test_small_noise_normalized_slack_non_increasing(grid128, gauss_pair):
    # as the regularization shrinks the bound does not get looser relative to
    # its own scale
    mu, nu = gauss_pair
    rng = np.random.default_rng(40)
    h = bs.smooth_zero_mean_field(grid128, mu, rng)
    mu_bar = bs.perturbed_measure(mu, h, 0.2)
    slacks = []
    for eps in (0.5, 0.25, 0.125):
        a = bs.eot_quadratic_direct(mu, nu, epsilon=eps)
        b = bs.eot_quadratic_direct(mu_bar, nu, epsilon=eps)
        rep_cost, _ = bs.quadratic_eot_stability_check(a, b)
        assert rep_cost.passed
        slacks.append(rep_cost.slack / max(rep_cost.rhs, 1e-300))
    assert slacks[0] >= slacks[1] >= slacks[2]


def test_stability_rejects_mismatched_kernels(grid128, gauss_pair):
    mu, nu = gauss_pair
    k1 = bs.GibbsKernel.ou(grid128, T=0.5, kappa=1.0)
    k2 = bs.GibbsKernel.ou(grid128, T=0.6, kappa=1.0)
    sol_a = bs.solve(mu, nu, k1)
    sol_b = bs.solve(mu, nu, k2)
    with pytest.raises(ValueError):
        bs.plan_stability_check(sol_a, sol_b)


# ---------------------------------------------------------------------------
# each stability rhs against its displayed formula, written out by hand
# ---------------------------------------------------------------------------

_SP_EXTRAS = {"hsym_plans", "hsym_mu", "hsym_nu", "norm_mu", "norm_nu",
              "norm_mu_bar", "norm_nu_bar", "e_factor"}
_EXTRAS = {
    "stab_plans": _SP_EXTRAS,
    "stab_plans_fisher": _SP_EXTRAS | {"fisher_mu", "fisher_nu",
                                       "fisher_mu_bar", "fisher_nu_bar"},
    "stab_cost": {"st_a", "st_b", "ct_a", "ct_b", "e_factor", "T"},
    "stab_cost_fisher": {"st_a", "st_b", "ct_a", "ct_b", "e_factor", "T"},
    "eot_cost_stab": {"epsilon", "c_eps", "cost_a", "cost_b", "hsym_mu",
                      "hsym_nu", "norm_mu", "norm_nu", "norm_mu_bar",
                      "norm_nu_bar"},
}
_EXTRAS["eot_plan_stab"] = _EXTRAS["eot_cost_stab"]


def _norms(mu, nu, mu_b, nu_b):
    """‖μ-μ̄‖_{Ḣ⁻¹(μ)}, ‖ν-ν̄‖_{Ḣ⁻¹(ν)}, ‖μ̄-μ‖_{Ḣ⁻¹(μ̄)}, ‖ν̄-ν‖_{Ḣ⁻¹(ν̄)}."""
    return (bs.h_minus_one_norm(bs.difference(mu, mu_b), mu),
            bs.h_minus_one_norm(bs.difference(nu, nu_b), nu),
            bs.h_minus_one_norm(bs.difference(mu_b, mu), mu_b),
            bs.h_minus_one_norm(bs.difference(nu_b, nu), nu_b))


def _sp_reports(a, b):
    return {r.name: r for r in (*bs.plan_stability_check(a, b),
                                *bs.cost_stability_check(a, b))}


def _eot_reports(a, b):
    return {r.name: r for r in bs.quadratic_eot_stability_check(a, b)}


def _sp_formulas(a, b):
    """The four SP right-hand sides with E = E_{2κ}(T), r = √(C_T - H(·|m)):
    H^sym(μ,μ̄) + H^sym(ν,ν̄) + Σ r·‖Δ‖ / √E, Σ (√I + r)·‖Δ‖ / √E and
    T·min(H^sym(μ,μ̄), H^sym(ν,ν̄)) + (T/√E)·Σ r·‖Δ‖."""
    se = math.sqrt(bs.curvature_factor(a.kernel.kappa, a.T))
    n_mu, n_nu, n_mub, n_nub = _norms(a.mu, a.nu, b.mu, b.nu)
    r_mu = math.sqrt(a.entropic_cost() - a.h_mu)
    r_nu = math.sqrt(a.entropic_cost() - a.h_nu)
    r_mub = math.sqrt(b.entropic_cost() - b.h_mu)
    r_nub = math.sqrt(b.entropic_cost() - b.h_nu)
    ref = a.reference
    f_mu = math.sqrt(bs.fisher_information(a.mu, ref))
    f_nu = math.sqrt(bs.fisher_information(a.nu, ref))
    f_mub = math.sqrt(bs.fisher_information(b.mu, ref))
    f_nub = math.sqrt(bs.fisher_information(b.nu, ref))
    hs_mu = bs.symmetric_entropy(a.mu, b.mu)
    hs_nu = bs.symmetric_entropy(a.nu, b.nu)
    plain = r_mu * n_mu + r_nu * n_nu + r_mub * n_mub + r_nub * n_nub
    fisher = ((f_mu + r_mu) * n_mu + (f_nu + r_nu) * n_nu
              + (f_mub + r_mub) * n_mub + (f_nub + r_nub) * n_nub) / se
    return {"stab_plans": hs_mu + hs_nu + plain / se,
            "stab_plans_fisher": fisher,
            "stab_cost": a.T * min(hs_mu, hs_nu) + a.T / se * plain,
            "stab_cost_fisher": fisher}


def _eot_formulas(a, b):
    """The two EOT right-hand sides with C_ε = (dε/2)·log(4πε) and crossed
    roots ρ_μ = √(S + εH(ν|Leb) + C_ε), ..., ρ_ν̄ = √(S̄ + εH(μ̄|Leb) + C_ε):
    ε·min(H^sym(μ,μ̄), H^sym(ν,ν̄)) + 2Σ ρ·‖Δ‖ and
    ε·(H^sym(μ,μ̄) + H^sym(ν,ν̄)) + 2Σ ρ·‖Δ‖."""
    eps = a.epsilon
    c_eps = 0.5 * a.mu.grid.ndim * eps * math.log(4.0 * math.pi * eps)
    leb = bs.ReferenceMeasure.lebesgue(a.mu.grid)
    n_mu, n_nu, n_mub, n_nub = _norms(a.mu, a.nu, b.mu, b.nu)
    p_mu = math.sqrt(a.cost + eps * bs.relative_entropy(a.nu, leb) + c_eps)
    p_nu = math.sqrt(a.cost + eps * bs.relative_entropy(a.mu, leb) + c_eps)
    p_mub = math.sqrt(b.cost + eps * bs.relative_entropy(b.nu, leb) + c_eps)
    p_nub = math.sqrt(b.cost + eps * bs.relative_entropy(b.mu, leb) + c_eps)
    hs_mu = bs.symmetric_entropy(a.mu, b.mu)
    hs_nu = bs.symmetric_entropy(a.nu, b.nu)
    bracket = 2.0 * (p_mu * n_mu + p_nu * n_nu + p_mub * n_mub
                     + p_nub * n_nub)
    return {"eot_cost_stab": eps * min(hs_mu, hs_nu) + bracket,
            "eot_plan_stab": eps * (hs_mu + hs_nu) + bracket}


def _assert_rhs(reports, formulas):
    assert set(reports) == set(formulas)
    for name, rep in reports.items():
        assert set(rep.extras) == _EXTRAS[name], name
        assert rep.rhs == pytest.approx(formulas[name], rel=1e-13, abs=0.0), \
            name
        assert rep.passed and not rep.vacuous, name


def test_stability_rhs_match_displayed_formulas(grid128, gauss_pair,
                                                ou_kernel, ou_sol):
    mu, nu = gauss_pair
    other = perturbed_pair(grid128, mu, nu, ou_kernel, 0.15, 4)
    _assert_rhs(_sp_reports(ou_sol, other), _sp_formulas(ou_sol, other))
    a = bs.eot_quadratic_direct(mu, nu, 0.5)
    b = bs.eot_quadratic_direct(other.mu, other.nu, 0.5)
    _assert_rhs(_eot_reports(a, b), _eot_formulas(a, b))


def test_stability_rhs_drop_an_unchanged_marginal(grid128, gauss_pair,
                                                  ou_kernel, ou_sol):
    # ν̄ = ν: H^sym(ν, ν̄) and both ν norms vanish, so only the μ terms stay
    mu, nu = gauss_pair
    rng = np.random.default_rng(8)
    mu_b = bs.perturbed_measure(
        mu, bs.smooth_zero_mean_field(grid128, mu, rng), 0.15)
    sp_b = bs.solve(mu_b, nu, ou_kernel)
    a = bs.eot_quadratic_direct(mu, nu, 0.5)
    b = bs.eot_quadratic_direct(mu_b, nu, 0.5)
    reports = {**_sp_reports(ou_sol, sp_b), **_eot_reports(a, b)}
    for rep in reports.values():
        for key in ("hsym_nu", "norm_nu", "norm_nu_bar"):
            assert rep.extras.get(key, 0.0) == 0.0, (rep.name, key)

    se = math.sqrt(bs.curvature_factor(ou_kernel.kappa, ou_sol.T))
    n_mu, _, n_mub, _ = _norms(mu, nu, mu_b, nu)
    r_mu = math.sqrt(ou_sol.entropic_cost() - ou_sol.h_mu)
    r_mub = math.sqrt(sp_b.entropic_cost() - sp_b.h_mu)
    f_mu = math.sqrt(bs.fisher_information(mu, ou_sol.reference))
    f_mub = math.sqrt(bs.fisher_information(mu_b, ou_sol.reference))
    hs_mu = bs.symmetric_entropy(mu, mu_b)
    fisher = ((f_mu + r_mu) * n_mu + (f_mub + r_mub) * n_mub) / se
    eps = 0.5
    c_eps = 0.5 * eps * math.log(4.0 * math.pi * eps)
    leb = bs.ReferenceMeasure.lebesgue(grid128)
    # crossed: the μ norms carry H(ν|Leb), which ν̄ = ν shares
    p_mu = math.sqrt(a.cost + eps * bs.relative_entropy(nu, leb) + c_eps)
    p_mub = math.sqrt(b.cost + eps * bs.relative_entropy(nu, leb) + c_eps)
    bracket = 2.0 * (p_mu * n_mu + p_mub * n_mub)
    _assert_rhs(reports, {
        "stab_plans": hs_mu + (r_mu * n_mu + r_mub * n_mub) / se,
        "stab_plans_fisher": fisher,
        "stab_cost": ou_sol.T / se * (r_mu * n_mu + r_mub * n_mub),
        "stab_cost_fisher": fisher,
        "eot_cost_stab": bracket,
        "eot_plan_stab": eps * hs_mu + bracket})


def test_stability_rhs_infinite_on_disjoint_supports(grid128, ou_kernel):
    mu = bs.uniform_measure(grid128, [-2.0], [-1.0])
    nu = bs.uniform_measure(grid128, [1.0], [2.0])
    mu_far = bs.uniform_measure(grid128, [-4.0], [-3.0])
    reports = {
        **_sp_reports(bs.solve(mu, nu, ou_kernel),
                      bs.solve(mu_far, nu, ou_kernel)),
        **_eot_reports(bs.eot_quadratic_direct(mu, nu, 0.5),
                       bs.eot_quadratic_direct(mu_far, nu, 0.5))}
    assert len(reports) == 6
    for name, rep in reports.items():
        assert set(rep.extras) == _EXTRAS[name], name
        assert rep.rhs == math.inf, name
        assert rep.vacuous and rep.passed, name
