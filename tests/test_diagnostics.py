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
