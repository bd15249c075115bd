"""Acceptance gate: ten pinned criteria, one test and one printed verdict each.

Instances are fixed (grids, seeds, tolerances) so a run either reproduces the
advertised quantitative behavior or fails loudly.
"""

import math
import time

import numpy as np

import bridgestab as bs
import oracles
from bridgestab.orlicz import OrliczContext, log_integrability_bound
from bridgestab.sobolev import h_minus_one_norm


GRID256 = bs.Grid.regular([(-6.0, 6.0)], [256])
GRID128 = bs.Grid.regular([(-6.0, 6.0)], [128])


def _verdict(k, detail):
    print(f"CRITERION {k}: PASS — {detail}")


def _perturb(grid, mu, nu, eps, seed):
    rng = np.random.default_rng(seed)
    h = bs.smooth_zero_mean_field(grid, mu, rng)
    k = bs.smooth_zero_mean_field(grid, nu, rng)
    return bs.perturbed_measure(mu, h, eps), bs.perturbed_measure(nu, k, eps)


def test_criterion_01_sinkhorn_residuals():
    ker = bs.GibbsKernel.ou(GRID256, T=0.25, kappa=1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        mu, nu = bs.random_smooth_pair(GRID256, np.random.default_rng(seed))
        sol = bs.solve(mu, nu, ker)
        assert sol.converged and sol.n_iter <= 100_000
        assert sol.marginal_residual <= 1e-9
        worst = max(worst, sol.marginal_residual)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    _verdict(1, f"20 pairs, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_eot_dictionary():
    g = bs.Grid.regular([(-8.0, 10.0)], [256])
    mu = bs.gaussian_measure(g, [0.0], 1.0)
    nu = bs.gaussian_measure(g, [1.0], 1.5)
    worst_cost, worst_tv, worst_spread = 0.0, 0.0, 0.0
    for eps in (0.1, 0.5, 1.0):
        direct = bs.eot_quadratic_direct(mu, nu, epsilon=eps)
        assert direct.converged
        costs = []
        for kappa in (0.5, 1.0, 2.0):
            via, sol = bs.eot_via_sp(mu, nu, eps, kappa)
            costs.append(via)
            rel = abs(via - direct.cost) / abs(direct.cost)
            assert rel <= 1e-6, (eps, kappa, rel)
            worst_cost = max(worst_cost, rel)
            tv = float(np.abs(direct.log_plan().weights()
                              - sol.log_plan().weights()).sum())
            assert tv <= 1e-6, (eps, kappa, tv)
            worst_tv = max(worst_tv, tv)
        spread = (max(costs) - min(costs)) / abs(costs[0])
        assert spread <= 1e-5, (eps, spread)
        worst_spread = max(worst_spread, spread)
    _verdict(2, f"cost {worst_cost:.2e}, plan TV {worst_tv:.2e}, "
                f"kappa spread {worst_spread:.2e}")


def test_criterion_03_corrector_battery():
    kers = {T: bs.GibbsKernel.ou(GRID256, T=T, kappa=1.0) for T in (0.1, 0.5)}
    worst = math.inf
    for seed in range(20):
        mu, nu = bs.random_smooth_pair(GRID256, np.random.default_rng(seed))
        for T, ker in kers.items():
            for rep in bs.corrector_check(bs.solve(mu, nu, ker)):
                assert rep.relative_slack >= -1e-4, (seed, T, rep.name)
                assert rep.passed
                worst = min(worst, rep.relative_slack)
    _verdict(3, f"40 bridges, min relative slack {worst:.2e}")


def test_criterion_04_plan_stability():
    ker = bs.GibbsKernel.ou(GRID128, T=0.5, kappa=1.0)
    mu = bs.gaussian_measure(GRID128, [-1.0], 0.9)
    nu = bs.gaussian_measure(GRID128, [1.2], 0.8)
    base = bs.solve(mu, nu, ker)

    # zero perturbation: both sides vanish
    twin = bs.solve(mu, nu, ker)
    for rep in bs.plan_stability_check(base, twin):
        assert abs(rep.lhs) <= 1e-8 and abs(rep.rhs) <= 1e-8

    n_checked = 0
    for eps in (0.05, 0.1, 0.2):
        for seed in range(10):
            mu_b, nu_b = _perturb(GRID128, mu, nu, eps, seed)
            other = bs.solve(mu_b, nu_b, ker)
            for rep in bs.plan_stability_check(base, other):
                assert rep.passed and not rep.vacuous, (eps, seed, rep.name)
                n_checked += 1
    _verdict(4, f"{n_checked} plan-stability reports pass, "
                f"zero-perturbation sides vanish")


def test_criterion_05_cost_and_eot_stability():
    ker = bs.GibbsKernel.ou(GRID128, T=0.5, kappa=1.0)
    mu = bs.gaussian_measure(GRID128, [-1.0], 0.9)
    nu = bs.gaussian_measure(GRID128, [1.2], 0.8)
    base = bs.solve(mu, nu, ker)
    eot_base = bs.eot_quadratic_direct(mu, nu, epsilon=0.5)

    n_checked = 0
    for eps in (0.05, 0.1, 0.2):
        for seed in range(10):
            mu_b, nu_b = _perturb(GRID128, mu, nu, eps, seed)
            other = bs.solve(mu_b, nu_b, ker)
            for rep in bs.cost_stability_check(base, other):
                assert rep.passed and not rep.vacuous, (eps, seed, rep.name)
                n_checked += 1
            eot_other = bs.eot_quadratic_direct(mu_b, nu_b, epsilon=0.5)
            for rep in bs.quadratic_eot_stability_check(eot_base, eot_other):
                assert rep.passed and not rep.vacuous, (eps, seed, rep.name)
                n_checked += 1

    # small-noise sequence: normalized slack does not grow as eps shrinks
    rng = np.random.default_rng(40)
    h = bs.smooth_zero_mean_field(GRID128, mu, rng)
    mu_bar = bs.perturbed_measure(mu, h, 0.2)
    slacks = []
    for reg in (0.5, 0.25, 0.125):
        a = bs.eot_quadratic_direct(mu, nu, epsilon=reg)
        b = bs.eot_quadratic_direct(mu_bar, nu, epsilon=reg)
        rep_cost, _ = bs.quadratic_eot_stability_check(a, b)
        assert rep_cost.passed
        slacks.append(rep_cost.slack / rep_cost.rhs)
    assert slacks[0] >= slacks[1] >= slacks[2], slacks
    _verdict(5, f"{n_checked} cost/EOT reports pass, normalized slacks "
                f"{[round(s, 4) for s in slacks]}")


def test_criterion_06_small_time_limit():
    g = bs.Grid.regular([(-8.0, 10.0)], [512])
    mu = bs.gaussian_measure(g, [-1.0], 1.0)
    nu = bs.gaussian_measure(g, [1.0], 1.0)
    t0 = time.perf_counter()
    rows = bs.small_time_cost_curve(mu, nu, [0.4, 0.2, 0.1, 0.05], kappa=1.0)
    elapsed = time.perf_counter() - t0
    gaps = [abs(r["gap"]) for r in rows]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])), gaps
    final_rel = abs(rows[-1]["rel_gap"])
    assert final_rel <= 0.05, final_rel
    assert elapsed <= 120.0
    _verdict(6, f"gaps {[round(x, 4) for x in gaps]}, final relative gap "
                f"{final_rel:.3%}, {elapsed:.1f}s")


def test_criterion_07_gradient_map_convergence():
    g = bs.Grid.regular([(-8.0, 10.0)], [512])
    a, s_mu = -1.0, 1.0
    b, s_nu = 1.0, 1.3
    mu = bs.gaussian_measure(g, [a], s_mu)
    nu = bs.gaussian_measure(g, [b], s_nu)
    brenier = lambda x: b + (s_nu / s_mu) * (x - a)
    T_list = [0.4, 0.2, 0.1, 0.05]
    rows, _ = bs.gradient_convergence_experiment(mu, nu, T_list, kappa=1.0,
                                                 brenier=brenier)
    errs = [r["l2_error"] for r in rows]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:])), errs
    assert errs[-1] <= 0.2 * errs[0], errs

    # identical-marginal control at the smallest admissible time
    ctrl = bs.DiscreteMeasure.from_weights(
        g, bs.ReferenceMeasure.gaussian(g, kappa=1.0).cell_mass)
    t_min = T_list[-1]
    assert math.sqrt(2.0 * t_min) >= 2.0 * g.max_cell_width()
    ctrl_rows, _ = bs.gradient_convergence_experiment(ctrl, ctrl, [t_min],
                                                      kappa=1.0)
    assert ctrl_rows[0]["l2_error"] < 1e-3
    _verdict(7, f"errors {[round(e, 4) for e in errs]}, control "
                f"{ctrl_rows[0]['l2_error']:.2e}")


def test_criterion_08_dynamic_identity_and_gronwall():
    ker = bs.GibbsKernel.ou(GRID128, T=0.5, kappa=1.0)
    mu = bs.gaussian_measure(GRID128, [-1.0], 0.9)
    nu = bs.gaussian_measure(GRID128, [1.2], 0.8)
    sol = bs.solve(mu, nu, ker)
    rep64, _ = bs.dynamic_cost_check(sol, n_slices=64)
    assert rep64.passed
    gap64 = abs(rep64.lhs - rep64.rhs) / abs(rep64.rhs)
    assert gap64 <= 0.02
    rep128, _ = bs.dynamic_cost_check(sol, n_slices=128)
    gap128 = abs(rep128.lhs - rep128.rhs) / abs(rep128.rhs)
    assert gap128 <= gap64

    heat = bs.GibbsKernel.heat(GRID128, T=0.4)
    sol0 = bs.solve(mu, nu, heat)
    rep_g, rows_g = bs.gronwall_decay_check(sol0)
    assert rep_g.passed
    alphas = np.array([r["alpha"] for r in rows_g])
    assert np.all(np.diff(alphas) <= 1e-3 * np.abs(alphas[:-1]) + 1e-12)
    _verdict(8, f"identity gap {gap64:.2e} -> {gap128:.2e}, "
                f"heat decay curve monotone over {len(alphas)} points")


def test_criterion_09_w2_vs_h_minus_one():
    g = bs.Grid.regular([(-6.0, 6.0)], [512])
    worst = math.inf
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mu, _ = bs.random_smooth_pair(g, rng)
        h = bs.smooth_zero_mean_field(g, mu, rng)
        eps = 0.15 + 0.15 * rng.uniform()
        mu_bar = bs.perturbed_measure(mu, h, eps)
        rep = bs.w2_h_minus_one_comparison(mu, mu_bar)
        assert rep.passed and not rep.vacuous, (seed, rep.lhs, rep.rhs)
        worst = min(worst, rep.rhs - rep.lhs)

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(8, 33))
        gc = bs.Grid.regular([(-2.0, 2.0)], [n])
        mu = bs.DiscreteMeasure.from_weights(gc, rng.uniform(0.05, 1.0, n))
        nu = bs.DiscreteMeasure.from_weights(gc, rng.uniform(0.05, 1.0, n))
        assert abs(bs.wasserstein2_1d(mu, nu)
                   - oracles.wasserstein2_exact_small(mu, nu)) < 1e-8

    g2 = bs.Grid.regular([(0.0, 2.0)], [2])
    m2 = bs.DiscreteMeasure.from_weights(g2, np.array([0.5, 0.5]))
    rho = bs.SignedMeasure(g2, np.array([0.3, -0.3]))
    assert abs(h_minus_one_norm(rho, m2) - 0.3 * math.sqrt(2.0)) < 1e-10
    _verdict(9, f"50 comparisons pass (min margin {worst:.3f}), "
                f"20 LP cross-checks, two-cell closed form")


def test_criterion_10_orlicz_bounds():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 64))
        q = rng.gamma(1.0, 1.0, n)
        q /= q.sum()
        p = rng.gamma(1.0, 1.0, n)
        p /= p.sum()
        got = bs.density_conjugate_norm(p, q)
        H = float(np.sum(p * np.log(p / q)))
        assert abs(math.log(got) + 1.0 - H) < 1e-6, seed

    def context(seed, kind):
        rng = np.random.default_rng(seed)
        n = 16
        q = rng.dirichlet(np.full(n, 2.0))
        p_raw = q * np.exp(0.6 * rng.normal(size=n))
        p = p_raw / p_raw.sum()
        if kind == "above":
            h = np.exp(np.abs(rng.normal(size=n)) + 1e-3)
        elif kind == "below":
            h = np.exp(-np.abs(rng.normal(size=n)) - 1e-3)
        else:
            h = np.exp(0.8 * rng.normal(size=n))
        return OrliczContext(q, p, h, float(rng.uniform(0.5, 2.0)),
                             float(rng.uniform(0.5, 2.0)))

    n_general = n_final = n_extreme = 0
    for seed in range(100):
        ctx = context(seed, "general")
        for variant in ("B1", "B1_no_measure"):
            assert log_integrability_bound(ctx, variant).passed, (seed, variant)
            n_general += 1
        if min(ctx.p_exp, ctx.q_exp) <= 1.0:
            assert log_integrability_bound(ctx, "final").passed, seed
            n_final += 1
        kind = "above" if seed % 2 else "below"
        ext = context(seed, kind)
        for variant in ("B1", "B1_no_measure", "extreme"):
            assert log_integrability_bound(ext, variant).passed, (seed, kind)
            n_extreme += 1

    hand = OrliczContext(np.array([0.5, 0.5]), np.array([0.75, 0.25]),
                         np.array([2.0, 0.5]), 1.0, 1.0)
    for variant in ("B1", "B1_no_measure", "final"):
        rep = log_integrability_bound(hand, variant)
        assert rep.passed
        assert abs(rep.rhs - 1.1085474616849236) < 1e-10
    _verdict(10, f"50 identities, {n_general}+{n_final}+{n_extreme} bound "
                 f"reports, hand instance reproduced")
