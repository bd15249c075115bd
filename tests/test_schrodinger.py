"""Sinkhorn solver, cost identities, and the quadratic entropic-transport dictionary."""

import copy
import math
import warnings

import numpy as np
import pytest

import bridgestab as bs
from bridgestab import kernels
from bridgestab.schrodinger import InfeasibleProblem


def test_atom_pair_plan_and_cost():
    g = bs.Grid.regular([(-3.0, 3.0)], [48])
    k = 30
    w = np.zeros(48)
    w[k] = 1.0
    atom = bs.DiscreteMeasure.from_weights(g, w)
    ker = bs.GibbsKernel.ou(g, T=0.4, kappa=1.0)
    ref = bs.ReferenceMeasure.gaussian(g, kappa=1.0)
    sol = bs.solve(atom, atom, ker)

    plan = sol.log_plan()
    assert abs(plan.total_mass() - 1.0) < 1e-12
    w = plan.weights()
    assert np.max(np.abs(w.sum(axis=1) - atom.weights)) < 1e-12
    assert np.max(np.abs(w.sum(axis=0) - atom.weights)) < 1e-12
    m_mu, m_nu = plan.marginals()
    assert np.max(np.abs(m_mu.weights - atom.weights)) < 1e-12
    assert np.max(np.abs(m_nu.weights - atom.weights)) < 1e-12

    x_k = g.points()[k]
    log_p = math.log(bs.ou_kernel(x_k, x_k, 0.4, 1.0))
    expected_ct = -log_p - 2.0 * math.log(ref.cell_mass[k])
    assert abs(sol.entropic_cost() - expected_ct) < 1e-9


def test_random_pairs_converge(grid128):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mu, nu = bs.random_smooth_pair(grid128, rng)
        ker = bs.GibbsKernel.ou(grid128, T=0.25, kappa=1.0)
        sol = bs.solve(mu, nu, ker)
        assert sol.converged
        assert sol.marginal_residual <= 1e-9
        assert sol.n_iter <= 100_000


def test_residual_history_monotone(ou_sol):
    hist = np.asarray(ou_sol.residual_history)
    assert np.all(np.diff(hist) <= 1e-15)


def test_cost_two_routes_agree(ou_sol):
    direct = bs.schrodinger_plan_entropy(ou_sol)
    dual = ou_sol.entropic_cost()
    assert abs(direct - dual) < 1e-8


def test_normalization_sides(ou_sol):
    side_mu, side_nu = ou_sol.normalization_sides()
    assert abs(side_mu - side_nu) < 1e-10
    # each side equals S_T / (2T)
    st_over_2t = ou_sol.schrodinger_cost() / (2.0 * ou_sol.kernel.T)
    assert abs(side_mu - st_over_2t) < 1e-10


def test_cost_dominates_marginal_entropies(ou_sol):
    ct = ou_sol.entropic_cost()
    assert ct >= max(ou_sol.h_mu, ou_sol.h_nu) - 1e-8


def test_plan_mass_and_marginals(ou_sol, gauss_pair):
    mu, nu = gauss_pair
    plan = ou_sol.log_plan()
    assert abs(plan.total_mass() - 1.0) < 1e-12
    m_mu, m_nu = ou_sol.plan_marginals()
    assert np.abs(m_mu - mu.weights).sum() <= 2.0 * ou_sol.marginal_residual + 1e-12
    # the nu marginal is matched exactly by the final psi update
    assert np.abs(m_nu - nu.weights).sum() <= 1e-12


def test_potentials_unique_up_to_constant(grid128, gauss_pair, ou_kernel, rng):
    mu, nu = gauss_pair
    sol_a = bs.solve(mu, nu, ou_kernel)
    init = bs.smooth_zero_mean_field(grid128, nu, rng) * 0.8
    sol_b = bs.solve(mu, nu, ou_kernel, init_psi=init)
    supp_mu = mu.support()
    supp_nu = nu.support()
    d_phi = sol_a.phi[supp_mu] - sol_b.phi[supp_mu]
    d_psi = sol_a.psi[supp_nu] - sol_b.psi[supp_nu]
    c = float(np.mean(d_phi))
    assert np.max(np.abs(d_phi - c)) < 1e-8
    assert np.max(np.abs(d_psi + c)) < 1e-8


def test_init_psi_off_the_support_is_ignored(gauss_pair, ou_kernel, ou_sol):
    # a warm start that is NaN off supp nu (as entropic_potentials is)
    mu, nu = gauss_pair
    init = np.where(nu.support(), ou_sol.psi + 0.3, np.nan)
    warm = bs.solve(mu, nu, ou_kernel, init_psi=init)
    assert warm.converged and warm.n_iter < ou_sol.n_iter
    s = nu.support()
    assert np.max(np.abs(warm.psi[s] - ou_sol.psi[s])) < 1e-8


@pytest.mark.parametrize("bad", ["nan_on_support", "short", "column"])
def test_init_psi_is_checked(gauss_pair, ou_kernel, bad):
    mu, nu = gauss_pair
    n = nu.grid.n_cells
    init = {"nan_on_support": np.where(np.arange(n) == np.argmax(nu.weights),
                                       np.nan, 0.0),
            "short": np.zeros(n - 1),
            "column": np.zeros((n, 1))}[bad]
    with pytest.raises(ValueError, match="init_psi"):
        bs.solve(mu, nu, ou_kernel, init_psi=init, max_iter=50)


def test_entropic_potentials_identity(ou_sol):
    # Phi = T (phi - log dmu/dm) + c and Psi = T (psi - log dnu/dm) - c on the
    # supports, with the constant fixed by int Phi dmu = int Psi dnu
    Phi, Psi = bs.entropic_potentials(ou_sol)
    T = ou_sol.kernel.T
    u = ou_sol.reference.log_mass()
    s_mu = ou_sol.mu.support()
    s_nu = ou_sol.nu.support()
    raw_phi = T * (ou_sol.phi[s_mu] - (np.log(ou_sol.mu.weights[s_mu]) - u[s_mu]))
    raw_psi = T * (ou_sol.psi[s_nu] - (np.log(ou_sol.nu.weights[s_nu]) - u[s_nu]))
    c_phi = Phi[s_mu] - raw_phi
    c_psi = Psi[s_nu] - raw_psi
    assert np.ptp(c_phi) < 1e-10
    assert np.ptp(c_psi) < 1e-10
    assert abs(np.mean(c_phi) + np.mean(c_psi)) < 1e-10
    ia = float(Phi[s_mu] @ ou_sol.mu.weights[s_mu])
    ib = float(Psi[s_nu] @ ou_sol.nu.weights[s_nu])
    assert abs(ia - ib) < 1e-10
    assert np.all(np.isnan(Phi[~s_mu]))


def test_infeasible_marginal_raises():
    # the reference Gaussian mass underflows to zero far in the tail
    g = bs.Grid.regular([(-60.0, 60.0)], [128])
    ref = bs.ReferenceMeasure.gaussian(g, kappa=1.0)
    assert ref.cell_mass[0] == 0.0
    w = np.zeros(128)
    w[0] = 1.0
    bad = bs.DiscreteMeasure.from_weights(g, w)
    mid = np.zeros(128)
    mid[64] = 1.0
    good = bs.DiscreteMeasure.from_weights(g, mid)
    with warnings.catch_warnings():
        # the coarse far-tail grid is deliberately under-resolved
        warnings.simplefilter("ignore")
        ker = bs.GibbsKernel.ou(g, T=0.5, kappa=1.0)
    with pytest.raises(InfeasibleProblem):
        bs.solve(bad, good, ker)


@pytest.mark.parametrize("solver", ["sp", "eot"])
def test_not_converged_raises(gauss_pair, ou_kernel, solver):
    mu, nu = gauss_pair
    if solver == "sp":
        sol = bs.solve(mu, nu, ou_kernel, max_iter=2)
    else:
        sol = bs.eot_quadratic_direct(mu, nu, 0.5, max_iter=2)
    assert not sol.converged
    assert sol.n_iter == 2 and len(sol.residual_history) == 2
    with pytest.raises(bs.NotConverged):
        bs.require_converged(sol)


@pytest.mark.parametrize("epsilon", [0.3, 1.0])
@pytest.mark.parametrize("grid", [
    bs.Grid.regular([(-4.0, 4.0)], [160]),
    bs.Grid.regular([(-3.0, 3.0), (-3.0, 3.0)], [20, 20]),
], ids=["1d", "2d"])
def test_eot_plan_is_heat_bridge_plan(grid, epsilon):
    # e^{-|x-y|²/ε} is the heat kernel at T = ε/4 up to a constant factor,
    # which Sinkhorn absorbs: both solvers must return the same plan, and
    # both put -inf potentials off the supports
    mu = bs.uniform_measure(grid, -1.0, 1.5)
    nu = bs.gaussian_measure(grid, [0.5] * grid.ndim, 0.8)
    assert not mu.support().all()
    eot = bs.eot_quadratic_direct(mu, nu, epsilon)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        sp = bs.solve(mu, nu, bs.GibbsKernel.heat(grid, epsilon / 4.0))
    assert eot.converged and sp.converged
    diff = eot.log_plan().weights() - sp.log_plan().weights()
    assert np.abs(diff).sum() <= 1e-8
    for sol_pot, eot_pot, m in ((sp.phi, eot.a, mu), (sp.psi, eot.b, nu)):
        off = ~m.support()
        assert np.all(np.isneginf(sol_pot[off]))
        assert np.all(np.isneginf(eot_pot[off]))
        assert np.all(np.isfinite(eot_pot[~off]))


def _dense_view(ker: bs.GibbsKernel) -> bs.GibbsKernel:
    """`ker` with its per-axis factors swapped for one dense factor over all
    cells, so `solve` runs `_sinkhorn` on the dense view (test oracle; it
    skips the per-axis shape check on purpose)."""
    dense = copy.copy(ker)
    object.__setattr__(dense, "log_factors", (ker.log_matrix,))
    return dense


def test_separable_2d_solve_matches_dense_oracle():
    # the per-axis operator against the dense view of the same kernel over
    # all 16×12 cells; ν has partial support, so -inf entries pass through
    # both operators
    g = bs.Grid.regular([(-4.0, 4.5), (-3.5, 3.0)], [16, 12])
    ker = bs.GibbsKernel.ou(g, T=0.8, kappa=1.0)
    dense = _dense_view(ker)
    assert dense.log_factors[0].shape == (g.n_cells, g.n_cells)
    mu = bs.gaussian_measure(g, [-0.8, 0.3], [0.9, 1.1])
    nu = bs.uniform_measure(g, [-1.0, -1.5], [2.5, 2.0])
    assert not nu.support().all()
    sep = bs.solve(mu, nu, ker)
    ref = bs.solve(mu, nu, dense)
    assert sep.converged and ref.converged
    assert sep.n_iter == ref.n_iter
    for a, b in ((sep.phi, ref.phi), (sep.psi, ref.psi)):
        fin = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), fin)
        assert np.max(np.abs(a[fin] - b[fin])) <= 1e-12
    for a, b in zip(sep.plan_marginals(), ref.plan_marginals()):
        assert np.max(np.abs(a - b)) <= 1e-12
    ce_sep, ce_ref = bs.corrector_check(sep), bs.corrector_check(ref)
    for side in ("lhs_nu", "lhs_mu"):
        a, b = getattr(ce_sep, side), getattr(ce_ref, side)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_eot_cost_fine_grid_reference():
    # N(0,1) vs N(1, 1.5^2), epsilon = 1: coarse grid within 1% of a 4x refinement
    eps, kappa = 1.0, 1.0
    coarse = bs.Grid.regular([(-8.0, 10.0)], [128])
    fine = bs.Grid.regular([(-8.0, 10.0)], [512])
    costs = []
    for g in (coarse, fine):
        mu = bs.gaussian_measure(g, [0.0], 1.0)
        nu = bs.gaussian_measure(g, [1.0], 1.5)
        cost, _ = bs.eot_via_sp(mu, nu, eps, kappa)
        costs.append(cost)
    assert abs(costs[0] - costs[1]) <= 0.01 * abs(costs[1])


def test_eot_atom_cost_zero():
    g = bs.Grid.regular([(-3.0, 3.0)], [64])
    w = np.zeros(64)
    w[38] = 1.0  # an atom near x = 0.6
    atom = bs.DiscreteMeasure.from_weights(g, w)
    direct = bs.eot_quadratic_direct(atom, atom, epsilon=0.5)
    assert abs(direct.cost) < 1e-10
    via_sp, _ = bs.eot_via_sp(atom, atom, epsilon=0.5, kappa=1.0)
    assert abs(via_sp) < 1e-8


def test_eot_large_epsilon_product_limit(gauss_pair):
    # epsilon -> infinity: the plan tends to mu x nu and the transport term to
    # int |x-y|^2 dmu dnu
    mu, nu = gauss_pair
    eps = 1e3
    sol = bs.eot_quadratic_direct(mu, nu, epsilon=eps)
    m1_mu, m1_nu = bs.first_moment(mu)[0], bs.first_moment(nu)[0]
    product_cost = (
        bs.second_moment(mu) + bs.second_moment(nu) - 2.0 * m1_mu * m1_nu
    )
    # S^eps also carries eps * H(pi | mu x nu) >= 0, vanishing at this rate
    assert abs(sol.cost - product_cost) <= 1e-3 * product_cost


def test_eot_dictionary_agreement(gauss_pair):
    mu, nu = gauss_pair
    eps = 0.5
    direct = bs.eot_quadratic_direct(mu, nu, epsilon=eps)
    via, sol = bs.eot_via_sp(mu, nu, epsilon=eps, kappa=1.0)
    assert abs(via - direct.cost) <= 1e-6 * abs(direct.cost)
    # the two routes build the same coupling
    pi_direct = direct.log_plan().weights()
    pi_sp = sol.log_plan().weights()
    assert np.abs(pi_direct - pi_sp).sum() <= 1e-6


def test_eot_kappa_independence(gauss_pair):
    mu, nu = gauss_pair
    eps = 0.5
    costs = [bs.eot_via_sp(mu, nu, eps, kappa)[0] for kappa in (0.5, 1.0, 2.0)]
    spread = max(costs) - min(costs)
    assert spread <= 1e-5 * abs(costs[0])


def test_sp_time_from_epsilon():
    # sinh(kappa T) = eps kappa / 4; at kappa=1, eps=4 sinh 1 the time is 1
    assert abs(bs.sp_time_from_epsilon(4.0 * math.sinh(1.0), 1.0) - 1.0) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(50):
        eps = rng.uniform(0.01, 10.0)
        kappa = rng.uniform(0.1, 4.0)
        T = bs.sp_time_from_epsilon(eps, kappa)
        assert abs(math.sinh(kappa * T) - eps * kappa / 4.0) < 1e-12
    # kappa -> 0 recovers T = eps / 4
    assert bs.sp_time_from_epsilon(0.8, 0.0) == 0.2
    assert abs(bs.sp_time_from_epsilon(0.8, 1e-6) - 0.2) < 1e-6


def test_solution_exposes_entropies(ou_sol, gauss_pair, grid128):
    mu, nu = gauss_pair
    ref = bs.ReferenceMeasure.gaussian(grid128, kappa=1.0)
    assert abs(ou_sol.h_mu - bs.relative_entropy(mu, ref)) < 1e-12
    assert abs(ou_sol.h_nu - bs.relative_entropy(nu, ref)) < 1e-12


def _sp_case(kind, T, partial=False):
    def run():
        g = bs.Grid.regular([(-8.0, 10.0)], [320])
        mu = bs.gaussian_measure(g, [-1.0], 1.0)
        nu = bs.uniform_measure(g, 0.2, 2.5) if partial \
            else bs.gaussian_measure(g, [1.0], 1.0)
        ker = bs.GibbsKernel.heat(g, T) if kind == "heat" \
            else bs.GibbsKernel.ou(g, T, 1.0)
        sol = bs.solve(mu, nu, ker)
        return sol.n_iter, sol.converged, sol.phi, sol.psi
    return run


def _eot_case(epsilon):
    def run():
        g = bs.Grid.regular([(-4.0, 4.0)], [160])
        mu = bs.uniform_measure(g, -1.0, 1.5)
        nu = bs.gaussian_measure(g, [0.5], 0.8)
        sol = bs.eot_quadratic_direct(mu, nu, epsilon)
        return sol.n_iter, sol.converged, sol.a, sol.b
    return run


def _grid_2d_case():
    g = bs.Grid.regular([(-4.0, 4.5), (-3.5, 3.0)], [16, 12])
    mu = bs.gaussian_measure(g, [-0.8, 0.3], [0.9, 1.1])
    nu = bs.uniform_measure(g, [-1.0, -1.5], [2.5, 2.0])
    sol = bs.solve(mu, nu, bs.GibbsKernel.ou(g, T=0.8, kappa=1.0))
    return sol.n_iter, sol.converged, sol.phi, sol.psi


@pytest.mark.parametrize("run", [
    _sp_case("heat", 0.05), _sp_case("heat", 0.02), _sp_case("ou", 0.1),
    _eot_case(0.3), _eot_case(1.0), _sp_case("heat", 0.05, partial=True),
    _grid_2d_case,
], ids=["heat-0.05", "heat-0.02", "ou", "eot-0.3", "eot-1.0",
        "partial-nu", "ou-2d"])
def test_anchored_sinkhorn_matches_log_domain_loop(run, monkeypatch):
    # the oracle re-anchors on every call, which is the log-domain loop
    # (K.lse through lse_matvec) bit for bit
    calls = []
    real = kernels.lse_matvec

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernels, "lse_matvec", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        n_iter, converged, f, g = run()
        fast_calls = len(calls)
        with monkeypatch.context() as m:
            m.setattr(kernels, "ANCHOR_RADIUS", -1.0)
            ref_iter, ref_converged, ref_f, ref_g = run()
    assert converged and ref_converged
    assert n_iter == ref_iter
    # the anchored run really took the matrix-product path
    assert fast_calls < len(calls) - fast_calls
    for a, b in ((f, ref_f), (g, ref_g)):
        fin = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), fin)
        assert np.max(np.abs(a[fin] - b[fin])) <= 1e-12
