"""Bridge interpolations, dynamic cost identity, decay curves, transport maps."""

import math

import numpy as np
import pytest

import bridgestab as bs
from bridgestab import diagnostics, dynamics, kernels, schrodinger


@pytest.fixture(scope="module")
def interp(ou_sol):
    return bs.interpolate(ou_sol, n_times=9)


def test_interpolation_endpoints(ou_sol, gauss_pair, interp):
    mu, nu = gauss_pair
    res = ou_sol.marginal_residual
    assert abs(interp.times[0]) < 1e-15
    assert abs(interp.times[-1] - ou_sol.kernel.T) < 1e-15
    w0 = interp.measure_at(0).weights
    wT = interp.measure_at(len(interp.times) - 1).weights
    assert np.abs(w0 - mu.weights).sum() <= 10 * res + 1e-12
    assert np.abs(wT - nu.weights).sum() <= 10 * res + 1e-12


def test_interpolation_masses_are_one(interp):
    for k in range(len(interp.times)):
        assert abs(interp.measure_at(k).weights.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(np.asarray(interp.masses) - 1.0)) < 1e-8


def test_stationary_bridge_is_constant(grid128):
    ref = bs.ReferenceMeasure.gaussian(grid128, kappa=1.0)
    m = bs.DiscreteMeasure.from_weights(grid128, ref.cell_mass)
    ker = bs.GibbsKernel.ou(grid128, T=0.5, kappa=1.0)
    sol = bs.solve(m, m, ker)
    inter = bs.interpolate(sol, n_times=7)
    for k in range(7):
        assert np.abs(inter.measure_at(k).weights - m.weights).max() < 1e-8

    rep, rows = bs.dynamic_cost_check(sol, n_slices=32)
    assert rep.passed
    # both sides of the identity reduce to H(nu | m) ~ 0
    assert abs(rep.lhs) < 1e-6 and abs(rep.rhs) < 1e-6

    rep_g, rows_g = bs.gronwall_decay_check(sol)
    assert rep_g.passed
    # alpha is squared-gradient of noise-level potentials, so ~ (tol/dx)^2
    assert max(abs(r["alpha"]) for r in rows_g) < 1e-7


def test_dynamic_cost_identity(ou_sol):
    rep, rows = bs.dynamic_cost_check(ou_sol, n_slices=64)
    assert rep.passed
    assert len(rows) == 64
    # midpoint rule at 64 slices sits well inside the 2% gate
    assert abs(rep.lhs - rep.rhs) <= 0.02 * max(abs(rep.rhs), 1e-300)


def test_dynamic_cost_refinement(ou_sol):
    gaps = []
    for n in (32, 128):
        rep, _ = bs.dynamic_cost_check(ou_sol, n_slices=n)
        gaps.append(abs(rep.lhs - rep.rhs))
    assert gaps[1] <= gaps[0]


def test_gronwall_decay_ou(ou_sol):
    rep, rows = bs.gronwall_decay_check(ou_sol)
    assert rep.passed
    alphas = [r["alpha"] for r in rows]
    assert all(a >= -1e-12 for a in alphas)


def test_gronwall_decay_heat_monotone(gauss_pair):
    mu, nu = gauss_pair
    ker = bs.GibbsKernel.heat(mu.grid, T=0.4)
    sol = bs.solve(mu, nu, ker)
    rep, rows = bs.gronwall_decay_check(sol)
    assert rep.passed
    alphas = np.array([r["alpha"] for r in rows])
    # kappa = 0: alpha(t) is non-increasing up to the jitter allowance
    assert np.all(np.diff(alphas) <= 1e-3 * np.abs(alphas[:-1]) + 1e-12)


def test_gronwall_final_alpha_matches_corrector(ou_sol):
    _, rows = bs.gronwall_decay_check(ou_sol)
    rep_nu, _ = bs.corrector_check(ou_sol)
    assert abs(rows[-1]["alpha"] - rep_nu.lhs) < 1e-8


def test_checks_share_the_time_slices_of_one_solution(gauss_pair,
                                                      monkeypatch):
    # at T = 1 the meshes of the four checks share their dyadic times
    # exactly: the 9 + 8 times of the interpolation and the midpoint rule
    # need 2·17 - 2 semigroup applications (P_0 is the identity) and 15
    # kernels (the one at T is the solution's); the decay mesh k/16 and
    # the corrector's log P_T e^φ, log P_T e^ψ reuse them
    mu, nu = gauss_pair
    sol = bs.solve(mu, nu, bs.GibbsKernel.ou(mu.grid, T=1.0, kappa=1.0))
    applies, builds = [], []
    real_apply, real_ou = kernels.apply_semigroup, kernels.GibbsKernel.ou

    def apply(*args):
        applies.append(1)
        return real_apply(*args)

    def ou(*args):
        builds.append(1)
        return real_ou(*args)

    for mod in (kernels, schrodinger, dynamics, diagnostics):
        if hasattr(mod, "apply_semigroup"):
            monkeypatch.setattr(mod, "apply_semigroup", apply)
    monkeypatch.setattr(kernels.GibbsKernel, "ou", staticmethod(ou))
    bs.interpolate(sol, 9)
    bs.dynamic_cost_check(sol, n_slices=8)
    bs.gronwall_decay_check(sol)
    bs.corrector_check(sol)
    assert (len(applies), len(builds)) == (32, 15)


def test_small_time_identical_marginals(grid128):
    # W2 = 0 leaves the relative gap undefined, so the curve refuses μ = ν
    mu = bs.gaussian_measure(grid128, [0.2], 0.8)
    with pytest.raises(ValueError, match="W2 = 0"):
        bs.small_time_cost_curve(mu, mu, [0.4, 0.2, 0.1], kappa=1.0)
    # T·C_T itself still falls to the target 0 from above
    tct = [T * bs.solve(mu, mu, bs.GibbsKernel.ou(grid128, T, 1.0))
           .entropic_cost() for T in (0.4, 0.2, 0.1)]
    assert all(v >= -1e-10 for v in tct)
    assert tct[0] >= tct[1] >= tct[2]


def test_small_time_translated_uniform():
    # shift 0.3 aligned to the grid: W2^2/4 = 0.0225 exactly
    g = bs.Grid.regular([(0.0, 2.4)], [240])
    mu = bs.uniform_measure(g, [0.3], [0.9])
    nu = bs.uniform_measure(g, [0.6], [1.2])
    rows = bs.small_time_cost_curve(mu, nu, [0.02, 0.01, 0.005], kappa=0.0)
    assert abs(rows[0]["w2sq_over_4"] - 0.0225) < 1e-12
    gaps = [abs(r["gap"]) for r in rows]
    # the gap roughly halves per time halving toward the exact target
    assert gaps[0] > 1.8 * gaps[1] > 1.8 * 1.8 * gaps[2]
    assert abs(rows[-1]["rel_gap"]) < 0.2


def test_small_time_gaussian_curve(gauss_pair):
    mu, nu = gauss_pair
    rows = bs.small_time_cost_curve(mu, nu, [0.4, 0.2, 0.1], kappa=1.0)
    gaps = [abs(r["rel_gap"]) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    for r in rows:
        assert r["residual"] <= 1e-9


def test_monotone_rearrangement_matches_affine_map():
    g = bs.Grid.regular([(-8.0, 8.0)], [800])
    mu = bs.gaussian_measure(g, [-0.5], 0.8)
    nu = bs.gaussian_measure(g, [1.0], 1.2)
    t_map = bs.monotone_rearrangement(mu, nu)  # one value per support cell
    x = g.points()[mu.support(), 0]
    expected = 1.0 + (1.2 / 0.8) * (x + 0.5)
    # compare on the bulk: the map is increasingly fuzzy in the far tails
    bulk = np.abs(x + 0.5) <= 2.4  # three sigma
    err = np.abs(t_map[bulk] - expected[bulk])
    assert np.max(err) < 2e-2
    assert np.all(np.diff(t_map) >= -1e-12)


def test_monotone_rearrangement_grid_shift_exact():
    g = bs.Grid.regular([(0.0, 2.4)], [240])
    mu = bs.uniform_measure(g, [0.3], [0.9])
    nu = bs.uniform_measure(g, [0.6], [1.2])
    t_map = bs.monotone_rearrangement(mu, nu)
    x = g.points()[mu.support(), 0]
    assert np.max(np.abs(t_map - (x + 0.3))) < 1e-12


def test_gradient_convergence_gaussian(gauss_pair):
    mu, nu = gauss_pair
    rows, pairs = bs.gradient_convergence_experiment(
        mu, nu, [0.4, 0.2, 0.1, 0.05], kappa=1.0)
    errs = [r["l2_error"] for r in rows]
    assert all(np.diff(errs) < 0) or errs[-1] <= 0.2 * errs[0]
    assert errs[-1] <= 0.2 * errs[0]
    pw = [r["pushforward_w2"] for r in rows]
    assert pw[-1] <= pw[0]
    # the schrodinger map of the last pair is close to the monotone map
    last = pairs[-1]
    assert last.T == 0.05


def test_gradient_convergence_identical_marginals(grid128):
    # stationary control: the map error is tiny already at moderate T
    ref = bs.ReferenceMeasure.gaussian(grid128, kappa=1.0)
    m = bs.DiscreteMeasure.from_weights(grid128, ref.cell_mass)
    rows, _ = bs.gradient_convergence_experiment(m, m, [0.1], kappa=1.0)
    assert rows[0]["l2_error"] < 1e-3


def test_schrodinger_map_identity_for_stationary(grid128):
    ref = bs.ReferenceMeasure.gaussian(grid128, kappa=1.0)
    m = bs.DiscreteMeasure.from_weights(grid128, ref.cell_mass)
    ker = bs.GibbsKernel.ou(grid128, T=0.1, kappa=1.0)
    sol = bs.solve(m, m, ker)
    supp, vals = bs.schrodinger_map(sol)
    x = grid128.points()[supp, 0]
    err = np.abs(vals - x)
    # grid truncation perturbs the potentials within a few bandwidths of the
    # boundary; the bulk map is the identity to solver precision
    assert np.max(err[np.abs(x) <= 3.0]) < 1e-8
    assert np.max(err) < 0.1


# the curves warm-start each T after the first from ψ_prev·T_prev/T; a cold
# solve at each T (no init_psi) is the oracle they must match
_CURVES = [(0.0, [0.2, 0.1, 0.05, 0.025]), (1.0, [0.4, 0.2, 0.1, 0.05])]


def _cold(mu, nu, T, kappa, tol=1e-9):
    kern = bs.GibbsKernel.heat(mu.grid, T) if kappa == 0.0 \
        else bs.GibbsKernel.ou(mu.grid, T, kappa)
    sol = bs.solve(mu, nu, kern, tol=tol)
    assert sol.converged
    return sol


@pytest.mark.parametrize("kappa,T_list", _CURVES)
def test_small_time_curve_matches_cold_solves(gauss_pair, kappa, T_list):
    mu, nu = gauss_pair
    rows = bs.small_time_cost_curve(mu, nu, T_list, kappa=kappa)
    for i, (row, T) in enumerate(zip(rows, T_list)):
        cold = _cold(mu, nu, T, kappa)
        ref = T * cold.entropic_cost()
        assert abs(row["t_times_cost"] - ref) <= 1e-12 * abs(ref)
        if i == 0:
            assert row["n_iter"] == cold.n_iter
        else:
            assert row["n_iter"] < cold.n_iter


@pytest.mark.parametrize("kappa,T_list", _CURVES)
def test_gradient_convergence_matches_cold_solves(gauss_pair, kappa, T_list):
    # the map error is first order in φ, so warm and cold stopped at one
    # tol differ by ~30·tol relative (the cost is variational, second
    # order); a tight tol brings them within 1e-12
    mu, nu = gauss_pair
    tol = 1e-14
    rows, _ = bs.gradient_convergence_experiment(mu, nu, T_list, kappa=kappa,
                                                 tol=tol)
    tau = bs.monotone_rearrangement(mu, nu)
    w = mu.weights[mu.support()]
    for i, (row, T) in enumerate(zip(rows, T_list)):
        cold = _cold(mu, nu, T, kappa, tol)
        _, smap = bs.schrodinger_map(cold)
        ref = math.sqrt(float(w @ (smap - tau) ** 2))
        assert abs(row["l2_error"] - ref) <= 1e-12 * ref
        if i == 0:
            assert row["n_iter"] == cold.n_iter
        else:
            assert row["n_iter"] < cold.n_iter
