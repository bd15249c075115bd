"""Bridge interpolations, dynamic cost identity, decay curves, transport maps."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import bridgestab as bs
from bridgestab import diagnostics, dynamics, kernels, measures, schrodinger
from oracles import (alpha_per_time, log_slices_per_time,
                     zeroth_order_ladder)


@pytest.fixture(scope="module")
def interp(ou_sol):
    return bs.interpolate(ou_sol, n_times=9)


def test_interpolation_endpoints(ou_sol, gauss_pair, interp):
    mu, nu = gauss_pair
    res = ou_sol.marginal_residual
    assert abs(interp.times[0]) < 1e-15
    assert abs(interp.times[-1] - ou_sol.kernel.T) < 1e-15
    w0 = interp.densities[0] / interp.densities[0].sum()
    wT = interp.densities[-1] / interp.densities[-1].sum()
    assert np.abs(w0 - mu.weights).sum() <= 10 * res + 1e-12
    assert np.abs(wT - nu.weights).sum() <= 10 * res + 1e-12


def test_interpolation_masses_are_one(interp):
    for d in interp.densities:
        assert abs((d / d.sum()).sum() - 1.0) <= 1e-12
    assert np.max(np.abs(np.asarray(interp.masses) - 1.0)) < 1e-8


def test_stationary_bridge_is_constant(grid128):
    ref = bs.ReferenceMeasure.gaussian(grid128, kappa=1.0)
    m = bs.DiscreteMeasure.from_weights(grid128, ref.cell_mass)
    ker = bs.GibbsKernel.ou(grid128, T=0.5, kappa=1.0)
    sol = bs.solve(m, m, ker)
    inter = bs.interpolate(sol, n_times=7)
    for d in inter.densities:
        assert np.abs(d / d.sum() - m.weights).max() < 1e-8

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
    # need 2·17 - 2 semigroup rows (P_0 is the identity) and 15 kernel
    # times (the one at T is the solution's); the decay mesh k/16 and the
    # corrector's log P_T e^φ, log P_T e^ψ reuse them, and the decay mesh
    # reuses the 8 values of α at the midpoints
    mu, nu = gauss_pair
    sol = bs.solve(mu, nu, bs.GibbsKernel.ou(mu.grid, T=1.0, kappa=1.0))
    rows, times, alphas = [], [], []
    real_apply, real_ou = kernels.apply_semigroup, kernels.GibbsKernel.ou
    real_gsq = measures.grad_sq_norm

    def apply(kernel, log_f):
        out = real_apply(kernel, log_f)
        rows.append(out.size // log_f.size)
        return out

    def ou(grid, T, kappa):
        times.append(np.size(T))
        return real_ou(grid, T, kappa)

    def gsq(values, grid, mask):
        alphas.append(values.size // grid.n_cells)
        return real_gsq(values, grid, mask)

    for mod in (kernels, schrodinger, dynamics, diagnostics):
        if hasattr(mod, "apply_semigroup"):
            monkeypatch.setattr(mod, "apply_semigroup", apply)
    monkeypatch.setattr(kernels.GibbsKernel, "ou", staticmethod(ou))
    monkeypatch.setattr(dynamics, "grad_sq_norm", gsq)
    bs.interpolate(sol, 9)
    bs.dynamic_cost_check(sol, n_slices=8)
    bs.gronwall_decay_check(sol)
    bs.corrector_check(sol)
    assert (sum(rows), sum(times), sum(alphas)) == (32, 15, 16)


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


# the curves start the first T from the Kantorovich potential (the T → 0
# limit) and each later T from the previous solution; a cold solve at each
# T (no init_psi) is the oracle they must match, in fewer iterations
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
    for row, T in zip(rows, T_list):
        cold = _cold(mu, nu, T, kappa)
        ref = T * cold.entropic_cost()
        assert abs(row["t_times_cost"] - ref) <= 1e-12 * abs(ref)
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
    for row, T in zip(rows, T_list):
        cold = _cold(mu, nu, T, kappa, tol)
        _, smap = bs.schrodinger_map(cold)
        ref = math.sqrt(float(w @ (smap - tau) ** 2))
        assert abs(row["l2_error"] - ref) <= 1e-12 * ref
        assert row["n_iter"] < cold.n_iter


def test_kantorovich_rung_is_constant_for_identical_marginals(grid128):
    # μ = ν: the quantile map is the identity on the cell midpoints, so
    # g_K' = 0 and the rung is one constant on supp ν, up to the rounding
    # of the CDF near 1 on tail cells of mass ~1e-12 (a few 1e-9 in g_K)
    for m in (bs.gaussian_measure(grid128, [0.3], 0.7),
              bs.uniform_measure(grid128, [-1.0], [2.0])):
        eb = schrodinger._kantorovich_rung(m, m, 0.2, 0.25)
        assert eb.shape == (int(m.support().sum()),)
        assert np.ptp(eb) <= 1e-8


def _with_gap(grid, mean, sigma, lo, hi):
    """A Gaussian with no mass on the cells whose midpoints lie in
    [lo, hi]."""
    x = grid.axes[0]
    w = bs.gaussian_measure(grid, mean, sigma).weights.copy()
    w[(x >= lo) & (x <= hi)] = 0.0
    return bs.DiscreteMeasure.from_weights(grid, w)


_G3 = bs.Grid.regular([(0.0, 3.0)], [3])
_RUNG_CASES = {
    "full": lambda g: (bs.gaussian_measure(g, [-1.0], 0.9),
                       bs.gaussian_measure(g, [1.2], 0.8)),
    "partial": lambda g: (bs.gaussian_measure(g, [-1.0], 0.9),
                          bs.uniform_measure(g, [0.5], [2.0])),
    "gap": lambda g: (bs.uniform_measure(g, [-3.0], [-0.5]),
                      _with_gap(g, [0.5], 1.2, 0.0, 1.0)),
    "3-cells": lambda g: (
        bs.DiscreteMeasure.from_weights(_G3, [0.5, 0.3, 0.2]),
        bs.DiscreteMeasure.from_weights(_G3, [0.1, 0.2, 0.7])),
}


@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("case", sorted(_RUNG_CASES))
def test_ladder_from_the_kantorovich_rung_matches_cold_solves(grid128, case,
                                                              kappa):
    mu, nu = _RUNG_CASES[case](grid128)
    T_list = [1.0, 0.4] if case == "3-cells" else [0.2, 0.05]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kernels.BandwidthWarning)
        ladder = list(dynamics._solves_along(mu, nu, T_list, kappa, 1e-9,
                                             100_000))
        for sol, T in zip(ladder, T_list):
            cold = _cold(mu, nu, T, kappa, tol=1e-13)
            ref = cold.entropic_cost()
            assert abs(sol.entropic_cost() - ref) <= 1e-12 * abs(ref)
            for a, b in ((sol.phi, cold.phi), (sol.psi, cold.psi)):
                assert np.array_equal(np.isneginf(a), np.isneginf(b))
                assert np.all(np.isfinite(a[~np.isneginf(a)]))


def test_kantorovich_rung_starts_a_fine_small_time_solve():
    # heat at T = 5e-4 on 1280 cells: a cold solve takes 3,021 iterations,
    # the T → 0 rung 295
    g = bs.Grid.regular([(-8.0, 10.0)], [1280])
    mu = bs.gaussian_measure(g, [-1.0], 1.0)
    nu = bs.gaussian_measure(g, [1.0], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kernels.BandwidthWarning)
        rows = bs.small_time_cost_curve(mu, nu, [5e-4])
    assert rows[0]["n_iter"] <= 600


def test_ladder_continues_first_order_in_the_fine_regime():
    # heat down to T = 5e-4 on 480 cells: every later rung continues the
    # one before it, first order in ε at its carried ω, in at most 0.6× the
    # iterations of the zeroth-order ladder at ω = 1 (measured 652 against
    # 1,187; 545 against 1,186 on 1280 cells).  Below T = 0.005, rounding
    # keeps the residual of a tol=1e-13 solve near 1e-12, so the tight
    # references, refined from the oracle rungs, stop at 200 iterations
    g = bs.Grid.regular([(-8.0, 10.0)], [480])
    mu = bs.gaussian_measure(g, [-1.0], 1.0)
    nu = bs.gaussian_measure(g, [1.0], 1.3)
    T_list = [0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 5e-4]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kernels.BandwidthWarning)
        ladder = list(dynamics._solves_along(mu, nu, T_list, 0.0, 1e-9,
                                             100_000))
        oracle = list(zeroth_order_ladder(mu, nu, T_list, 0.0, 1e-9,
                                          100_000))
        assert all(sol.converged for sol in oracle)
        # the first rung is the same array start
        assert np.array_equal(_bits(ladder[0].psi), _bits(oracle[0].psi))
        assert sum(sol.n_iter for sol in ladder) <= \
            0.6 * sum(sol.n_iter for sol in oracle)
        for sol, ref in zip(ladder, oracle):
            tight = bs.solve(mu, nu, sol.kernel, tol=1e-13, max_iter=200,
                             init_psi=ref.psi)
            assert tight.marginal_residual <= 1e-11
            want = tight.entropic_cost()
            assert abs(sol.entropic_cost() - want) <= 1e-12 * abs(want)


def test_overrelaxed_solution_start_reaches_the_tight_fixed_point():
    # a base claiming ω = _OMEGA_MAX starts the next rung there; the loop
    # falls back to plain Sinkhorn (it ends below the start ω, which only
    # a fallback lowers) and still reaches the fixed point
    g = bs.Grid.regular([(-8.0, 10.0)], [128])
    mu = bs.gaussian_measure(g, [-1.0], 1.0)
    nu = bs.gaussian_measure(g, [1.0], 1.3)
    base, good = dynamics._solves_along(mu, nu, [0.2, 0.05], 0.0, 1e-9,
                                        100_000)
    wild = dataclasses.replace(base, omega=schrodinger._OMEGA_MAX)
    sol = bs.solve(mu, nu, good.kernel, init_psi=wild)
    assert sol.converged and sol.omega < schrodinger._OMEGA_MAX
    want = _cold(mu, nu, 0.05, 0.0, tol=1e-13).entropic_cost()
    assert abs(sol.entropic_cost() - want) <= 1e-12 * abs(want)


def test_solution_start_at_another_time_in_2d():
    # off the line the dictionary carries ε·b as it is (zeroth order); the
    # continued solve matches a tight cold one and beats a cold start
    g = bs.Grid.regular([(-4.0, 4.0), (-3.0, 3.5)], [24, 20])
    mu = bs.gaussian_measure(g, [-1.0, 0.2], 0.8)
    nu = bs.gaussian_measure(g, [1.0, -0.3], 0.9)
    base = bs.solve(mu, nu, bs.GibbsKernel.ou(g, 0.6, 1.0))
    K = bs.GibbsKernel.ou(g, 0.3, 1.0)
    sol = bs.solve(mu, nu, K, init_psi=base)
    cold, tight = bs.solve(mu, nu, K), bs.solve(mu, nu, K, tol=1e-13)
    assert sol.converged and sol.n_iter < cold.n_iter
    want = tight.entropic_cost()
    assert abs(sol.entropic_cost() - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# stacked slices and α against the per-time oracle
# ---------------------------------------------------------------------------

def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.fixture(scope="module")
def bridges(gauss_pair):
    """Converged heat and OU bridges in 1D and on a 16×14 grid."""
    mu, nu = gauss_pair
    g2 = bs.Grid.regular([(-4.0, 4.0), (-3.0, 3.5)], [16, 14])
    mu2 = bs.gaussian_measure(g2, [-1.0, 0.2], 0.8)
    nu2 = bs.gaussian_measure(g2, [1.0, -0.3], 0.9)
    out = {}
    for d, (m, n) in (("1d", (mu, nu)), ("2d", (mu2, nu2))):
        out[f"heat-{d}"] = bs.solve(m, n, bs.GibbsKernel.heat(m.grid, 0.6))
        out[f"ou-{d}"] = bs.solve(m, n, bs.GibbsKernel.ou(m.grid, 0.6, 1.0))
    return out


def _fresh(sol):
    """The same solution with empty slice and α memos."""
    return dataclasses.replace(sol)


def _assert_oracle(sol, times):
    lp, lq = sol.log_slices(times)
    assert lp.shape == lq.shape == (len(times), sol.mu.grid.n_cells)
    for k, t in enumerate(times):
        want_p, want_q = log_slices_per_time(sol, float(t))
        assert np.array_equal(_bits(lp[k]), _bits(want_p)), t
        assert np.array_equal(_bits(lq[k]), _bits(want_q)), t
    want = [alpha_per_time(sol, float(t)) for t in times]
    assert np.array_equal(_bits(dynamics._alphas(sol, times)), _bits(want))


@pytest.mark.parametrize("case", ["heat-1d", "ou-1d", "heat-2d", "ou-2d"])
def test_stacked_slices_and_alphas_match_the_per_time_oracle(bridges, case):
    sol = _fresh(bridges[case])
    T = sol.T
    # the interpolation mesh, the midpoint rule and a mesh whose kernel
    # times differ on the two sides
    _assert_oracle(sol, np.linspace(0.0, T, 9))
    _assert_oracle(sol, (np.arange(8) + 0.5) * (T / 8))
    _assert_oracle(sol, [0.3 * T, 0.45 * T, 0.9 * T])


def test_small_times_go_back_to_the_log_domain_and_match(bridges,
                                                         monkeypatch):
    # near t = 0 the kernels are far below the grid's resolution, and the
    # small sums of the shared-factor products are reduced again by
    # `lse_matvec` (the only caller of it on a 2D stack)
    for case in ("heat-2d", "ou-2d"):
        sol = _fresh(bridges[case])
        calls = []
        real = kernels.lse_matvec
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "lse_matvec",
                       lambda *a: calls.append(1) or real(*a))
            times = [1e-5 * sol.T, 1e-4 * sol.T, 1e-3 * sol.T, 0.5 * sol.T]
            sol.log_slices(times)
        assert calls, case
        _assert_oracle(sol, times)


def test_repeated_and_overlapping_times_share_their_rows(bridges):
    sol = _fresh(bridges["ou-2d"])
    T = sol.T
    first = [0.25 * T, 0.5 * T, 0.25 * T, T, 0.0, 0.5 * T]
    _assert_oracle(sol, first)
    lp, lq = sol.log_slices(0.25 * T)
    assert np.array_equal(sol.log_slices(first)[0][2], lp)
    _assert_oracle(sol, [0.5 * T, 0.6 * T, 0.25 * T, 0.75 * T])
    # memoized rows keep their identity and stay read-only
    again = sol.log_slices(0.25 * T)
    assert again[0] is lp and again[1] is lq
    assert not lp.flags.writeable and not lq.flags.writeable
    assert sol.log_slices(0.0)[0] is sol.phi
    assert sol.log_slices(T)[1] is sol.psi


def test_one_time_batch(bridges):
    sol = _fresh(bridges["heat-2d"])
    t = 0.3 * sol.T
    _assert_oracle(sol, [t])
    lp, lq = sol.log_slices([t])
    assert np.array_equal(lp[0], sol.log_slices(t)[0])
    assert np.array_equal(lq[0], sol.log_slices(t)[1])


def test_memory_constant_splits_the_stacks(bridges, monkeypatch):
    # a stack limit of three kernel times builds the 15 inner kernel times
    # of the mesh k/16 as five stacks, with the same rows
    sol = _fresh(bridges["ou-2d"])
    per_time = sum(n * n for n in sol.kernel.shape)
    monkeypatch.setattr(schrodinger, "_STACK_ENTRIES", 3 * per_time + 1)
    sizes = []
    real = kernels.GibbsKernel.ou
    monkeypatch.setattr(kernels.GibbsKernel, "ou", staticmethod(
        lambda grid, T, kappa: sizes.append(np.size(T)) or real(grid, T,
                                                                kappa)))
    _assert_oracle(sol, np.linspace(0.0, sol.T, 17))
    assert sizes[:5] == [3] * 5


def test_memory_constant_splits_the_alpha_and_density_runs(bridges,
                                                           monkeypatch):
    # a limit of three slice rows takes the 9-time interpolation mesh and
    # the 8 midpoints in runs of three, with the same densities and α
    sol = _fresh(bridges["ou-2d"])
    monkeypatch.setattr(schrodinger, "_STACK_ENTRIES",
                        3 * sol.mu.grid.n_cells + 1)
    runs = []
    real = schrodinger.SchrodingerSolution.log_slices
    monkeypatch.setattr(schrodinger.SchrodingerSolution, "log_slices",
                        lambda self, times: runs.append(np.size(times))
                        or real(self, times))
    interp = bs.interpolate(sol, 9)
    assert runs == [3, 3, 3]
    for k, t in enumerate(interp.times):
        lp, lq = log_slices_per_time(sol, float(t))
        want = np.exp(lp + lq + sol.reference.log_mass())
        assert np.array_equal(_bits(interp.densities[k]), _bits(want)), t
    runs.clear()
    mids = (np.arange(8) + 0.5) * (sol.T / 8)
    got = dynamics._alphas(sol, mids)
    assert runs == [3, 3, 2]
    want = [alpha_per_time(sol, float(t)) for t in mids]
    assert np.array_equal(_bits(got), _bits(want))


def test_fine_1d_interpolation_builds_no_stack_past_the_limit(monkeypatch):
    # 1280² entries exceed the limit alone: each inner kernel time of a
    # 64-slice interpolation (t and T - t for 62 times t, which differ in
    # rounding) gets a kernel of its own instead of one stack of dense
    # 1280² factors, so each side applies only the 62 + 1 rows it needs
    g = bs.Grid.regular([(-8.0, 10.0)], [1280])
    mu = bs.gaussian_measure(g, [-1.0], 1.0)
    nu = bs.gaussian_measure(g, [1.0], 1.2)
    sol = bs.solve(mu, nu, bs.GibbsKernel.ou(g, 1.0, 1.0))
    built = []
    real = kernels.GibbsKernel.ou

    def ou(grid, T, kappa):
        K = real(grid, T, kappa)
        built.append((np.size(T), sum(F.size for F in K.log_factors)))
        return K

    monkeypatch.setattr(kernels.GibbsKernel, "ou", staticmethod(ou))
    # the allocations are the point here, not the sums
    rows = []

    def apply(K, f):
        rows.append(np.size(K.T))
        return np.zeros(np.shape(K.T) + f.shape)

    monkeypatch.setattr(schrodinger, "apply_semigroup", apply)
    bs.interpolate(sol, 64)
    inner = np.linspace(0.0, 1.0, 64)[1:-1].tolist()
    assert len(built) == len(set(inner) | {1.0 - t for t in inner}) > 62
    assert all(k == 1 for k, _ in built)
    assert sum(rows) == 2 * 63
    assert 1280 ** 2 > schrodinger._STACK_ENTRIES
