"""Sinkhorn solver, cost identities, and the quadratic entropic-transport dictionary."""

import copy
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import bridgestab as bs
import oracles
from bridgestab import kernels, schrodinger
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

    w = oracles.plan_weights(sol.log_plan())
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.max(np.abs(w.sum(axis=1) - atom.weights)) < 1e-12
    assert np.max(np.abs(w.sum(axis=0) - atom.weights)) < 1e-12
    assert np.max(np.abs(sol.mu_hat - atom.weights)) < 1e-12
    assert np.max(np.abs(sol.nu_hat - atom.weights)) < 1e-12

    x_k = g.points()[k]
    log_p = math.log(oracles.ou_kernel(x_k, x_k, 0.4, 1.0))
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


def _dense_plan_entropy(sol) -> float:
    """H(π | R_{0,T}) summed over the dense plan (test oracle for C_T)."""
    u = sol.reference.log_mass()
    log_r = oracles.log_matrix(sol.kernel) + u[:, None] + u[None, :]
    return oracles.plan_relative_entropy(sol.log_plan(),
                                         bs.Plan(sol.mu.grid, log_r))


def _dense_eot_primal(eot) -> float:
    """∫|x-y|²dπ + εH(π|μ⊗ν) summed over the dense plan (test oracle for
    the dual value `EOTSolution.cost`)."""
    x = eot.mu.grid.points()
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    plan = eot.log_plan()
    log_r = bs.Plan(eot.mu.grid, eot.mu.log_weights()[:, None]
                    + eot.nu.log_weights()[None, :])
    return (float(np.sum(oracles.plan_weights(plan) * d2))
            + eot.epsilon * oracles.plan_relative_entropy(plan, log_r))


def test_cost_two_routes_agree(ou_sol):
    direct = _dense_plan_entropy(ou_sol)
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
    assert abs(oracles.plan_weights(ou_sol.log_plan()).sum() - 1.0) < 1e-12
    m_mu, m_nu = ou_sol.mu_hat, ou_sol.nu_hat
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
    # a warm start that is NaN off supp nu, as a potential defined only on
    # the support is
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


@pytest.fixture(scope="module")
def eot_sol(gauss_pair):
    mu, nu = gauss_pair
    return bs.eot_quadratic_direct(mu, nu, 0.5)


def test_init_b_off_the_support_is_ignored(gauss_pair, eot_sol):
    # the EOT warm start goes through the same check as init_psi
    mu, nu = gauss_pair
    init = np.where(nu.support(), eot_sol.b + 0.3, np.nan)
    warm = bs.eot_quadratic_direct(mu, nu, 0.5, init_b=init)
    assert warm.converged and warm.n_iter < eot_sol.n_iter
    s = nu.support()
    # b carries the shift of its start, the plan and the cost do not; b is
    # of size |x-y|²/ε, so its agreement is relative
    scale = np.max(np.abs(eot_sol.b[s]))
    assert np.ptp(warm.b[s] - eot_sol.b[s]) < 1e-8 * scale
    assert abs(warm.cost - eot_sol.cost) <= 1e-8 * abs(eot_sol.cost)


@pytest.mark.parametrize("bad", ["nan_on_support", "short", "column"])
def test_init_b_is_checked(gauss_pair, bad):
    mu, nu = gauss_pair
    n = nu.grid.n_cells
    init = {"nan_on_support": np.where(np.arange(n) == np.argmax(nu.weights),
                                       np.nan, 0.0),
            "short": np.zeros(n - 1),
            "column": np.zeros((n, 1))}[bad]
    with pytest.raises(ValueError, match="init_b"):
        bs.eot_quadratic_direct(mu, nu, 0.5, init_b=init, max_iter=50)


def _solver(kind, grid):
    """run(mu, nu, init=None, **kw): the SP solve on one OU kernel, or EOT
    at ε = 0.5, with ``init`` passed as `init_psi` or `init_b`."""
    if kind == "sp":
        K = bs.GibbsKernel.ou(grid, T=0.5, kappa=1.0)
        return lambda mu, nu, init=None, **kw: bs.solve(
            mu, nu, K, init_psi=init, **kw)
    return lambda mu, nu, init=None, **kw: bs.eot_quadratic_direct(
        mu, nu, 0.5, init_b=init, **kw)


def _nu_potential(sol):
    return sol.b if isinstance(sol, bs.EOTSolution) else sol.psi


def _draw(mu, nu, rng, eps):
    h = bs.smooth_zero_mean_field(mu.grid, mu, rng)
    k = bs.smooth_zero_mean_field(nu.grid, nu, rng)
    return bs.perturbed_measure(mu, h, eps), bs.perturbed_measure(nu, k, eps)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


@pytest.mark.parametrize("kind", ["sp", "eot"])
def test_solution_start_shares_the_base_operators(gauss_pair, rng, kind):
    mu, nu = gauss_pair
    run = _solver(kind, mu.grid)
    base = run(mu, nu, keep_operators=True)
    assert len(base._operators) == 2
    assert run(mu, nu)._operators == ()
    mu_p, nu_p = _draw(mu, nu, rng, 0.2)
    assert base.same_supports(mu_p, nu_p)
    warm = run(mu_p, nu_p, base, keep_operators=True)
    # the perturbed solve ran on the base's anchors (and EOT kernel)
    assert warm.kernel is base.kernel
    for op, op0 in zip(warm._operators, base._operators):
        assert op.n_anchors == 0
        assert all(b is b0 for b, b0 in zip(op._buf, op0._buf))
    # the oracle: the same solution start, its potential and ω, on fresh
    # operators once the base has dropped its own
    base.drop_operators()
    assert base._operators == ()
    oracle = run(mu_p, nu_p, base)
    assert warm.converged and warm.n_iter == oracle.n_iter
    for a, b in zip(_potentials(warm), _potentials(oracle)):
        fin = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), fin)
        assert np.max(np.abs(a[fin] - b[fin])) <= \
            1e-12 * max(1.0, np.max(np.abs(b[fin])))
    # a solution without kept operators is that start bit for bit; it is
    # the array start of its potential where it ended plain (the SP base
    # here), and not where its start carries a relaxed ω (EOT)
    plain = run(mu, nu)
    assert (plain.omega == 1.0) == (kind == "sp")
    assert _same_bits(_nu_potential(run(mu_p, nu_p, plain)),
                      _nu_potential(oracle))
    array = run(mu_p, nu_p, _nu_potential(plain))
    assert _same_bits(_nu_potential(array), _nu_potential(oracle)) == \
        (kind == "sp")


def test_eot_solution_start_continues_across_epsilon(gauss_pair):
    # ε 0.5 → 0.2 on the base's marginals: the start goes through the
    # dictionary (heat at T = ε/4), first order in ε at the carried ω
    mu, nu = gauss_pair
    base = bs.eot_quadratic_direct(mu, nu, 0.5)
    sol = bs.eot_quadratic_direct(mu, nu, 0.2, init_b=base)
    raw = bs.eot_quadratic_direct(mu, nu, 0.2, init_b=base.b)
    tight = bs.eot_quadratic_direct(mu, nu, 0.2, tol=1e-13)
    assert sol.converged and tight.converged
    assert sol.n_iter < raw.n_iter
    assert abs(sol.cost - tight.cost) <= 1e-12 * abs(tight.cost)


@pytest.mark.parametrize("kind", ["sp", "eot"])
def test_solution_start_with_other_marginals_at_another_time(gauss_pair, rng,
                                                             kind):
    # a base with other marginals (on the same supports) at another time
    # is not continued: it starts from its potential at ω = 1, which is the
    # array start bit for bit
    mu, nu = gauss_pair
    base = _solver(kind, mu.grid)(mu, nu)         # T = 0.5 or ε = 0.5
    K = bs.GibbsKernel.ou(mu.grid, 0.3, 1.0)

    def run(m, n, init):
        if kind == "sp":
            return bs.solve(m, n, K, init_psi=init)
        return bs.eot_quadratic_direct(m, n, 0.2, init_b=init)

    mu_p, nu_p = _draw(mu, nu, rng, 0.2)
    assert base.same_supports(mu_p, nu_p)
    got, want = run(mu_p, nu_p, base), run(mu_p, nu_p, _nu_potential(base))
    assert got.n_iter == want.n_iter
    assert all(_same_bits(a, b)
               for a, b in zip(_potentials(got), _potentials(want)))


def test_carried_omega(monkeypatch):
    carried = schrodinger._carried_omega
    # at the base's time the base's ω, whatever its grid
    for w in (1.0, 1.25, 1.84375, 1.7):
        assert carried(w, 1.0) == w
    # 1 - ρ' = ratio·(1 - ρ): ω = 1.5 is √(1 - ρ) = 1/3
    assert carried(1.5, 0.25) == pytest.approx(2.0 / (1.0 + 1.0 / 6.0))
    assert carried(1.5, 4.0) == pytest.approx(1.2)
    assert carried(1.5, 16.0) == 1.0                 # below _OMEGA_MIN
    assert carried(1.9, 1e-4) == schrodinger._OMEGA_MAX
    assert carried(2.5, 1.0) == schrodinger._OMEGA_MAX
    monkeypatch.setattr(schrodinger, "_OMEGA_MAX", 1.0)
    assert carried(1.5, 0.25) == carried(1.0, 0.01) == 1.0


def test_stalled_residual_reads_no_rate():
    # a residual that falls by rounding alone (1 - λ ≈ 3 ulps) is a stall,
    # not a plain rate near 1 that would raise ω to the cap; a steady rate
    # of 0.9 still reads Young's factor 2/(1 + √0.1) ≈ 1.52, rounded down
    stalled = [1e-9 * (1.0 - 6e-16) ** k for k in range(20)]
    assert schrodinger._implied_omega(stalled, 1.0) == 1.0
    steady = [0.9 ** k for k in range(20)]
    assert schrodinger._implied_omega(steady, 1.0) == 1.5


def _cold_start_cases():
    g1 = bs.Grid.regular([(-8.0, 10.0)], [320])
    box = bs.uniform_measure(g1, -1.5, 0.5)
    g2 = bs.Grid.regular([(-5.0, 5.0), (-5.0, 5.0)], [24, 24])
    g_eot = bs.Grid.regular([(-4.0, 4.0)], [160])
    return {
        "sp-1d-full-nu": (box, bs.gaussian_measure(g1, [1.0], 3.0),
                          bs.GibbsKernel.heat(g1, 0.05)),
        "sp-1d-boxes": (box, bs.uniform_measure(g1, 0.2, 2.5),
                        bs.GibbsKernel.heat(g1, 0.05)),
        "sp-2d-gauss": (bs.gaussian_measure(g2, [-1.0, 0.0], 0.85),
                        bs.gaussian_measure(g2, [1.0, 0.0], 0.85),
                        bs.GibbsKernel.ou(g2, 1.0, 1.0)),
        "eot-1d": (bs.uniform_measure(g_eot, -1.0, 1.5),
                   bs.gaussian_measure(g_eot, [0.5], 0.8), 0.3),
    }


@pytest.mark.parametrize("name", list(_cold_start_cases()))
def test_cold_start_is_the_zero_start(name):
    # without a start, ψ (EOT: b) starts at 0 on supp ν, whatever the
    # supports: bit for bit the solve from an array of zeros
    mu, nu, kernel = _cold_start_cases()[name]
    zeros = np.zeros(nu.grid.n_cells)
    if name.startswith("eot"):
        cold = bs.eot_quadratic_direct(mu, nu, kernel)
        warm = bs.eot_quadratic_direct(mu, nu, kernel, init_b=zeros)
    else:
        assert nu.support().all() == name.endswith("full-nu")
        cold = bs.solve(mu, nu, kernel)
        warm = bs.solve(mu, nu, kernel, init_psi=zeros)
    assert cold.converged and cold.n_iter == warm.n_iter
    assert all(_same_bits(a, b)
               for a, b in zip(_potentials(cold), _potentials(warm)))


@pytest.mark.parametrize("kind", ["sp", "eot"])
def test_solution_start_on_other_supports_is_cold(gauss_pair, rng, kind):
    mu, nu = gauss_pair
    run = _solver(kind, mu.grid)
    base = run(mu, nu, keep_operators=True)
    mu_p, nu_p = _draw(mu, nu, rng, 0.2)
    w = nu_p.weights.copy()
    w[np.flatnonzero(w)[0]] = 0.0
    nu_p = bs.DiscreteMeasure.from_weights(nu.grid, w)
    assert not base.same_supports(mu_p, nu_p)
    got, cold = run(mu_p, nu_p, base), run(mu_p, nu_p)
    assert got.n_iter == cold.n_iter
    assert all(_same_bits(a, b)
               for a, b in zip(_potentials(got), _potentials(cold)))


@pytest.mark.parametrize("kind", ["sp", "eot"])
def test_shared_operators_are_order_independent(gauss_pair, monkeypatch,
                                                kind):
    # draw B re-solved alone and after a draw A whose solve re-anchors on
    # every call: bitwise the same, and the base operators untouched
    mu, nu = gauss_pair
    run = _solver(kind, mu.grid)
    base = run(mu, nu, keep_operators=True)
    rng = np.random.default_rng(11)
    draw_a, draw_b = _draw(mu, nu, rng, 0.2), _draw(mu, nu, rng, 0.05)
    state = [(op.n_anchors, op._vbar.copy(), [b.copy() for b in op._buf])
             for op in base._operators]
    alone = run(*draw_b, base)
    with monkeypatch.context() as m:
        m.setattr(kernels, "ANCHOR_RADIUS", -1.0)
        sol_a = run(*draw_a, base, keep_operators=True)
    for op, op0 in zip(sol_a._operators, base._operators):
        assert op.n_anchors >= sol_a.n_iter
        assert not any(np.shares_memory(b, b0)
                       for b, b0 in zip(op._buf, op0._buf))
    after = run(*draw_b, base)
    assert after.n_iter == alone.n_iter
    assert all(_same_bits(a, b)
               for a, b in zip(_potentials(after), _potentials(alone)))
    assert _same_bits(after.residual_history, alone.residual_history)
    for op, (n, vbar, bufs) in zip(base._operators, state):
        assert op.n_anchors == n
        assert _same_bits(op._vbar, vbar)
        assert all(_same_bits(b, b0) for b, b0 in zip(op._buf, bufs))


@pytest.mark.parametrize("kind", ["sp", "eot"])
def test_dropped_solution_frees_its_operators(gauss_pair, kind):
    # no reference cycle keeps a base solution, its operators, their exp
    # buffers or its kernel alive: refcounting alone frees them
    mu, nu = gauss_pair
    mu_p, nu_p = _draw(mu, nu, np.random.default_rng(5), 0.2)
    gc.collect()
    gc.disable()
    try:
        run = _solver(kind, mu.grid)
        base = run(mu, nu, keep_operators=True)
        warm = run(mu_p, nu_p, base)
        ops = base._operators
        refs = [weakref.ref(x) for x in
                (base, base.kernel, *ops, *(b for op in ops for b in op._buf))]
        del run, base, warm, ops
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


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


_GRIDS = pytest.mark.parametrize("grid", [
    bs.Grid.regular([(-4.0, 4.0)], [160]),
    bs.Grid.regular([(-3.0, 3.0), (-3.0, 3.0)], [20, 20]),
], ids=["1d", "2d"])


@pytest.mark.parametrize("epsilon", [0.3, 1.0])
@_GRIDS
def test_eot_plan_is_heat_bridge_plan(grid, epsilon):
    # the EOT solve is the heat Schrödinger solve at T = ε/4; its dense plan
    # is checked against the EOT problem itself: its marginals are μ and ν,
    # and its primal ∫|x-y|²dπ + εH(π|μ⊗ν) is the cost.  μ has partial
    # support, and the EOT potentials are -inf off the supports
    mu = bs.uniform_measure(grid, -1.0, 1.5)
    nu = bs.gaussian_measure(grid, [0.5] * grid.ndim, 0.8)
    assert not mu.support().all()
    with warnings.catch_warnings():
        # at ε = 0.3 the 2D grid is coarser than the kernel's bandwidth
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        eot = bs.eot_quadratic_direct(mu, nu, epsilon, tol=1e-12)
    assert eot.converged
    assert eot.kernel.kappa == 0.0 and eot.T == epsilon / 4.0
    w = oracles.plan_weights(eot.log_plan())
    assert np.abs(w.sum(axis=1) - mu.weights).sum() <= 1e-12
    assert np.abs(w.sum(axis=0) - nu.weights).sum() <= 1e-12
    assert abs(_dense_eot_primal(eot) - eot.cost) <= 1e-12 * abs(eot.cost)
    for pot, m in ((eot.a, mu), (eot.b, nu)):
        off = ~m.support()
        assert np.all(np.isneginf(pot[off]))
        assert np.all(np.isfinite(pot[~off]))


@_GRIDS
def test_eot_cost_from_heat_solution_is_the_eot_cost(grid):
    # κ = 0: S^ε of the heat Schrödinger solve at T, through the dictionary,
    # is the EOT cost at ε = 4T and the dense EOT primal
    mu = bs.gaussian_measure(grid, [-0.4] * grid.ndim, 0.9)
    nu = bs.uniform_measure(grid, [-1.0] * grid.ndim, [1.5] * grid.ndim)
    T = 0.2
    sol = bs.solve(mu, nu, bs.GibbsKernel.heat(grid, T), tol=1e-12)
    eot = bs.eot_quadratic_direct(mu, nu, 4.0 * T, tol=1e-12)
    cost = bs.eot_cost_from_sp(sol)
    assert abs(cost - eot.cost) <= 1e-12 * abs(eot.cost)
    assert abs(cost - _dense_eot_primal(eot)) <= 1e-12 * abs(eot.cost)


# ε of configs/eot-stability.yaml, battery-1d's range 0.45–0.55 (its ends,
# a mesh and random draws) and a log-spaced sweep from 1e-4 to 10
_EPSILONS = [0.5, *np.linspace(0.45, 0.55, 11),
             *np.random.default_rng(5).uniform(0.45, 0.55, 16),
             *np.logspace(-4.0, 1.0, 26)]


def test_eot_epsilon_is_read_off_the_kernel():
    # an EOTSolution keeps no ε of its own: 4T of its kernel, built at
    # T = ε/4, is the ε it was solved at bit for bit, and its cost is the
    # two-argument formula at that ε, bit for bit
    g = bs.Grid.regular([(-3.0, 3.0)], [24])
    mu = bs.gaussian_measure(g, [-0.4], 0.9)
    nu = bs.uniform_measure(g, -1.0, 1.5)
    for eps in map(float, _EPSILONS):
        with warnings.catch_warnings():
            # the small ε of the sweep are finer than the grid
            warnings.simplefilter("ignore", bs.BandwidthWarning)
            eot = bs.eot_quadratic_direct(mu, nu, eps, max_iter=3)
        assert eot.epsilon == eps, eps
        assert eot.cost == oracles.eot_cost_at(eot, eps), eps


@_GRIDS
def test_eot_cost_from_sp_reads_epsilon_off_the_kernel(grid):
    # heat: S^ε of a solution at T is the two-argument formula at ε = 4T,
    # bit for bit; OU: at the T of ε, it reads ε back through
    # ε = 4 sinh(κT)/κ to rounding
    mu = bs.gaussian_measure(grid, [-0.4] * grid.ndim, 0.9)
    nu = bs.uniform_measure(grid, [-1.0] * grid.ndim, [1.5] * grid.ndim)
    with warnings.catch_warnings():
        # at T = 0.05 the 2D grid is coarser than the kernel's bandwidth
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        for T in (0.05, 0.2, 1.3):
            sol = bs.solve(mu, nu, bs.GibbsKernel.heat(grid, T), max_iter=50)
            assert bs.eot_cost_from_sp(sol) == oracles.eot_cost_at(sol, 4 * T)
        for eps, kappa in ((0.2, 0.5), (0.5, 1.0), (2.0, 2.0)):
            T = oracles.sp_time_from_epsilon(eps, kappa)
            assert abs(schrodinger._eot_scale(T, kappa)[0] - eps) \
                <= 4 * math.ulp(eps)
            sol = bs.solve(mu, nu, bs.GibbsKernel.ou(grid, T, kappa),
                           max_iter=50)
            want = oracles.eot_cost_at(sol, eps)
            assert abs(bs.eot_cost_from_sp(sol) - want) <= 1e-14 * abs(want)


@_GRIDS
@pytest.mark.parametrize("kind", ["heat", "ou"])
def test_stored_marginals_are_the_plan_marginals(grid, kind):
    # μ̂, ν̂ kept from the Sinkhorn loop are the row and column sums of the
    # dense plan; ν has partial support
    mu = bs.gaussian_measure(grid, [-0.4] * grid.ndim, 0.9)
    nu = bs.uniform_measure(grid, [-1.0] * grid.ndim, [1.5] * grid.ndim)
    assert not nu.support().all()
    ker = (bs.GibbsKernel.heat(grid, 0.3) if kind == "heat"
           else bs.GibbsKernel.ou(grid, 0.3, 1.0))
    sol = bs.solve(mu, nu, ker)
    assert sol.converged
    w = oracles.plan_weights(sol.log_plan())
    assert np.max(np.abs(sol.mu_hat - w.sum(axis=1))) <= 1e-14
    assert np.max(np.abs(sol.nu_hat - w.sum(axis=0))) <= 1e-14
    assert np.all(sol.nu_hat[~nu.support()] == 0.0)


@_GRIDS
def test_eot_dual_cost_matches_primal_and_tight_solve(grid):
    # the dual value S^ε = ε(∫a dμ + ∫b dν) equals the dense primal at
    # convergence, and a loose solve is second-order accurate in tol
    mu = bs.gaussian_measure(grid, [-0.4] * grid.ndim, 0.9)
    nu = bs.uniform_measure(grid, [-1.0] * grid.ndim, [1.5] * grid.ndim)
    with warnings.catch_warnings():
        # at ε = 0.5 the 2D grid is coarser than the kernel's bandwidth
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        tight = bs.eot_quadratic_direct(mu, nu, 0.5, tol=1e-13)
        loose = bs.eot_quadratic_direct(mu, nu, 0.5, tol=1e-6)
    assert tight.converged and loose.converged
    assert loose.n_iter < tight.n_iter
    assert abs(_dense_eot_primal(tight) - tight.cost) <= 1e-12 * abs(tight.cost)
    assert abs(loose.cost - tight.cost) <= 1e-9 * abs(tight.cost)


def _dense_view(ker: bs.GibbsKernel) -> bs.GibbsKernel:
    """`ker` with its per-axis factors swapped for one dense factor over all
    cells, so `solve` runs `_sinkhorn` on the dense view (test oracle; it
    skips the per-axis shape check on purpose)."""
    dense = copy.copy(ker)
    object.__setattr__(dense, "log_factors", (oracles.log_matrix(ker),))
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
    for a, b in ((sep.mu_hat, ref.mu_hat), (sep.nu_hat, ref.nu_hat)):
        assert np.max(np.abs(a - b)) <= 1e-12
    for a, b in zip(bs.corrector_check(sep), bs.corrector_check(ref)):
        assert abs(a.lhs - b.lhs) <= 1e-12 * abs(b.lhs)


def test_eot_cost_fine_grid_reference():
    # N(0,1) vs N(1, 1.5^2), epsilon = 1: coarse grid within 1% of a 4x refinement
    eps, kappa = 1.0, 1.0
    coarse = bs.Grid.regular([(-8.0, 10.0)], [128])
    fine = bs.Grid.regular([(-8.0, 10.0)], [512])
    costs = []
    for g in (coarse, fine):
        mu = bs.gaussian_measure(g, [0.0], 1.0)
        nu = bs.gaussian_measure(g, [1.0], 1.5)
        cost, _ = oracles.eot_via_sp(mu, nu, eps, kappa)
        costs.append(cost)
    assert abs(costs[0] - costs[1]) <= 0.01 * abs(costs[1])


def test_eot_atom_cost_zero():
    g = bs.Grid.regular([(-3.0, 3.0)], [64])
    w = np.zeros(64)
    w[38] = 1.0  # an atom near x = 0.6
    atom = bs.DiscreteMeasure.from_weights(g, w)
    direct = bs.eot_quadratic_direct(atom, atom, epsilon=0.5)
    assert abs(direct.cost) < 1e-10
    via_sp, _ = oracles.eot_via_sp(atom, atom, epsilon=0.5, kappa=1.0)
    assert abs(via_sp) < 1e-8


def test_eot_large_epsilon_product_limit(gauss_pair):
    # epsilon -> infinity: the plan tends to mu x nu and the transport term to
    # int |x-y|^2 dmu dnu
    mu, nu = gauss_pair
    eps = 1e3
    sol = bs.eot_quadratic_direct(mu, nu, epsilon=eps)
    m1_mu = (mu.grid.points().T @ mu.weights)[0]
    m1_nu = (nu.grid.points().T @ nu.weights)[0]
    product_cost = (
        bs.second_moment(mu) + bs.second_moment(nu) - 2.0 * m1_mu * m1_nu
    )
    # S^eps also carries eps * H(pi | mu x nu) >= 0, vanishing at this rate
    assert abs(sol.cost - product_cost) <= 1e-3 * product_cost


def test_eot_dictionary_agreement(gauss_pair):
    mu, nu = gauss_pair
    eps = 0.5
    direct = bs.eot_quadratic_direct(mu, nu, epsilon=eps)
    via, sol = oracles.eot_via_sp(mu, nu, epsilon=eps, kappa=1.0)
    assert abs(via - direct.cost) <= 1e-6 * abs(direct.cost)
    # the two routes build the same coupling
    pi_direct = oracles.plan_weights(direct.log_plan())
    pi_sp = oracles.plan_weights(sol.log_plan())
    assert np.abs(pi_direct - pi_sp).sum() <= 1e-6


def test_eot_kappa_independence(gauss_pair):
    mu, nu = gauss_pair
    eps = 0.5
    costs = [oracles.eot_via_sp(mu, nu, eps, kappa)[0]
             for kappa in (0.5, 1.0, 2.0)]
    spread = max(costs) - min(costs)
    assert spread <= 1e-5 * abs(costs[0])


def test_sp_time_from_epsilon():
    # sinh(kappa T) = eps kappa / 4; at kappa=1, eps=4 sinh 1 the time is 1
    T = oracles.sp_time_from_epsilon(4.0 * math.sinh(1.0), 1.0)
    assert abs(T - 1.0) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(50):
        eps = rng.uniform(0.01, 10.0)
        kappa = rng.uniform(0.1, 4.0)
        T = oracles.sp_time_from_epsilon(eps, kappa)
        assert abs(math.sinh(kappa * T) - eps * kappa / 4.0) < 1e-12
    # kappa -> 0 recovers T = eps / 4
    assert oracles.sp_time_from_epsilon(0.8, 0.0) == 0.2
    assert abs(oracles.sp_time_from_epsilon(0.8, 1e-6) - 0.2) < 1e-6


def test_solution_exposes_entropies(ou_sol, gauss_pair, grid128):
    mu, nu = gauss_pair
    ref = bs.ReferenceMeasure.gaussian(grid128, kappa=1.0)
    assert abs(ou_sol.h_mu - bs.relative_entropy(mu, ref)) < 1e-12
    assert abs(ou_sol.h_nu - bs.relative_entropy(nu, ref)) < 1e-12


def _sp_case(kind, T, partial=False):
    def run(**solver):
        g = bs.Grid.regular([(-8.0, 10.0)], [320])
        mu = bs.gaussian_measure(g, [-1.0], 1.0)
        nu = bs.uniform_measure(g, 0.2, 2.5) if partial \
            else bs.gaussian_measure(g, [1.0], 1.0)
        ker = bs.GibbsKernel.heat(g, T) if kind == "heat" \
            else bs.GibbsKernel.ou(g, T, 1.0)
        return bs.solve(mu, nu, ker, **solver)
    return run


def _eot_case(epsilon):
    def run(**solver):
        g = bs.Grid.regular([(-4.0, 4.0)], [160])
        mu = bs.uniform_measure(g, -1.0, 1.5)
        nu = bs.gaussian_measure(g, [0.5], 0.8)
        return bs.eot_quadratic_direct(mu, nu, epsilon, **solver)
    return run


def _grid_2d_case(**solver):
    g = bs.Grid.regular([(-4.0, 4.5), (-3.5, 3.0)], [16, 12])
    mu = bs.gaussian_measure(g, [-0.8, 0.3], [0.9, 1.1])
    nu = bs.uniform_measure(g, [-1.0, -1.5], [2.5, 2.0])
    return bs.solve(mu, nu, bs.GibbsKernel.ou(g, T=0.8, kappa=1.0), **solver)


def _potentials(sol):
    if isinstance(sol, bs.EOTSolution):
        return sol.a, sol.b
    return sol.phi, sol.psi


def _cost(sol):
    """The EOT dual cost, or the Schrödinger entropic cost C_T."""
    if isinstance(sol, bs.EOTSolution):
        return sol.cost
    return sol.entropic_cost()


@pytest.mark.parametrize("run", [
    _sp_case("heat", 0.05), _sp_case("heat", 0.02), _sp_case("ou", 0.1),
    _eot_case(0.3), _eot_case(1.0), _sp_case("heat", 0.05, partial=True),
    _grid_2d_case,
], ids=["heat-0.05", "heat-0.02", "ou", "eot-0.3", "eot-1.0",
        "partial-nu", "ou-2d"])
def test_anchored_sinkhorn_matches_log_domain_loop(run, monkeypatch):
    # the oracle re-anchors on every call, so that every half-step takes the
    # log domain: its potentials are those of the log-domain loop
    # (lse_matvec over the factors restricted to the supports) bit for bit
    calls = []
    real = kernels.lse_matvec

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernels, "lse_matvec", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        sol = run()
        fast_calls = len(calls)
        with monkeypatch.context() as m:
            m.setattr(kernels, "ANCHOR_RADIUS", -1.0)
            ref = run()
    assert sol.converged and ref.converged
    assert sol.n_iter == ref.n_iter
    # the anchored run really took the matrix-product path
    assert fast_calls < len(calls) - fast_calls
    # relaxed runs carry rounding ~10-30x further than plain ones, so the
    # bound scales with the potentials: 16 ulps of max(1, max|b|), never
    # looser than 1e-12 (measured up to 7.2 ulps, at heat T = 0.02)
    for a, b in zip(_potentials(sol), _potentials(ref)):
        fin = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), fin)
        ulps = np.finfo(float).eps * max(1.0, np.max(np.abs(b[fin])))
        assert np.max(np.abs(a[fin] - b[fin])) <= min(1e-12, 16.0 * ulps)


def _full_grid_sinkhorn(K, log_m, mu, nu, tol, max_iter, init_g):
    """`schrodinger._sinkhorn` on full-grid vectors (test oracle): every
    half-step is `K.lse` of a grid vector that is -inf off the support, and
    μ̂, ν̂ and the residual are taken over all cells.  Same results; it
    takes the kernel K for the two operators, and ``init_g`` compact on
    supp ν, as `_warm_start` returns it."""
    log_mu, log_nu = mu.log_weights(), nu.log_weights()
    s_mu, s_nu = mu.support(), nu.support()
    n = mu.grid.n_cells
    g = np.full(n, -np.inf)
    g[s_nu] = init_g
    lse_g = K.lse(g + log_m)
    history, converged = [], False
    mu_hat, nu_hat = np.zeros(n), np.zeros(n)
    omega, since, retry_below = 1.0, 0, math.inf
    for n_done in range(1, max_iter + 1):
        f_new = log_mu[s_mu] - log_m[s_mu] - lse_g[s_mu]
        if omega != 1.0:
            f_new = f[s_mu] + omega * (f_new - f[s_mu])
        f = np.full(n, -np.inf)
        f[s_mu] = f_new
        lse_f = K.lse(f + log_m)
        g_new = log_nu[s_nu] - log_m[s_nu] - lse_f[s_nu]
        if omega != 1.0:
            g_new = g[s_nu] + omega * (g_new - g[s_nu])
        g = np.full(n, -np.inf)
        g[s_nu] = g_new
        lse_g = K.lse(g + log_m)
        mu_hat.fill(0.0)
        mu_hat[s_mu] = np.exp(f[s_mu] + log_m[s_mu] + lse_g[s_mu])
        nu_hat.fill(0.0)
        nu_hat[s_nu] = np.exp(g[s_nu] + log_m[s_nu] + lse_f[s_nu])
        res = max(float(np.abs(mu_hat - mu.weights).sum()),
                  float(np.abs(nu_hat - nu.weights).sum()))
        if omega != 1.0:
            if res <= schrodinger._FALLBACK * best:
                best = min(best, res)
            else:
                f, g, lse_g, mu_hat, nu_hat, res = start
                omega, since = 1.0, n_done
                retry_below = schrodinger._RETRY * res
        history.append(res)
        if res <= tol:
            converged = True
            break
        if n_done - since > 2 * schrodinger._RATE_WINDOW \
                and res <= retry_below:
            w = schrodinger._implied_omega(history, omega)
            if w > omega:
                start = (f, g, lse_g, mu_hat.copy(), nu_hat.copy(), res)
                omega, since, best = w, n_done, res
    return f, g, mu_hat, nu_hat, n_done, history, converged, omega


def _holes(g, seed, frac=0.25, line=None):
    """A Gaussian on the 2D grid ``g`` with a random ``frac`` of its cells
    and, optionally, the grid line ``line = (axis, index)`` taken off."""
    w = bs.gaussian_measure(g, [0.2, -0.3], [1.2, 1.0]).weights.copy()
    w[np.random.default_rng(seed).random(w.size) < frac] = 0.0
    if line is not None:
        np.moveaxis(w.reshape(g.shape), line[0], 0)[line[1]] = 0.0
    return bs.DiscreteMeasure.from_weights(g, w)


def _sp_problem(mu, nu, ker):
    return ker, ker.reference.log_mass(), mu, nu


def _eot_problem(mu, nu, epsilon):
    """The heat problem at T = ε/4 that `eot_quadratic_direct` solves."""
    with warnings.catch_warnings():
        # the 16×12 grid is coarser than the kernel's bandwidth at ε = 1.5
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        return _sp_problem(mu, nu, bs.GibbsKernel.heat(mu.grid, epsilon / 4))


def _oracle_cases():
    g1 = bs.Grid.regular([(-8.0, 10.0)], [320])
    g2 = bs.Grid.regular([(-4.0, 4.5), (-3.5, 3.0)], [16, 12])
    gauss1 = (bs.gaussian_measure(g1, [-1.0], 1.0),
              bs.gaussian_measure(g1, [1.0], 1.0))
    box1 = (bs.uniform_measure(g1, -1.5, 0.5), bs.uniform_measure(g1, 0.2, 2.5))
    ou2 = bs.GibbsKernel.ou(g2, T=0.8, kappa=1.0)
    holes = (_holes(g2, 1, line=(0, 5)), _holes(g2, 2, line=(1, 3)))
    g_eot = bs.Grid.regular([(-4.0, 4.0)], [160])
    eot1 = (bs.uniform_measure(g_eot, -1.0, 1.5),
            bs.gaussian_measure(g_eot, [0.5], 0.8))
    return {
        # the Gaussian tails reach the mass floor: 245 and 246 of 320 cells
        "sp-1d-tails": _sp_problem(*gauss1, bs.GibbsKernel.heat(g1, 0.02)),
        "sp-1d-boxes": _sp_problem(*box1, bs.GibbsKernel.heat(g1, 0.05)),
        "sp-1d-ou": _sp_problem(*box1[::-1], bs.GibbsKernel.ou(g1, 0.1, 1.0)),
        # a full supp ν: the supp ν → supp μ operator reads every cell
        "sp-1d-full-nu": _sp_problem(
            box1[0], bs.gaussian_measure(g1, [1.0], 3.0),
            bs.GibbsKernel.heat(g1, 0.05)),
        "eot-1d": _eot_problem(*eot1, 0.3),
        "sp-2d-box": _sp_problem(
            bs.gaussian_measure(g2, [-0.8, 0.3], [0.9, 1.1]),
            bs.uniform_measure(g2, [-1.0, -1.5], [2.5, 2.0]), ou2),
        "sp-2d-holes": _sp_problem(*holes, ou2),
        "eot-2d-holes": _eot_problem(*holes, 1.5),
        # one dense factor over all 16×12 cells
        "sp-2d-dense": _sp_problem(*holes, _dense_view(ou2)),
    }


@pytest.mark.parametrize("name", list(_oracle_cases()))
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_sinkhorn_on_supports_matches_full_grid_oracle(name, warm):
    K, log_m, mu, nu = problem = _oracle_cases()[name]

    def loop(init_g):
        ops = schrodinger._fresh_operators(K, mu, nu)
        return schrodinger._sinkhorn(ops, log_m, mu, nu, 1e-9, 100_000,
                                     init_g, 1.0)

    init_g = schrodinger._warm_start(None, nu, "init_g")
    if warm:
        # the potential of a nearby problem: g of the cold solve, shifted
        g = loop(init_g)[1]
        init_g = schrodinger._warm_start(0.9 * g + 0.3, nu, "init_g")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        got = loop(init_g)
        want = _full_grid_sinkhorn(*problem, 1e-9, 100_000, init_g)
    f, g, mu_hat, nu_hat, n_iter, history, converged, omega = got
    assert not mu.support().all() or not nu.support().all()
    assert converged and want[6]
    assert n_iter == want[4] and omega == want[7]
    assert len(history) == len(want[5])
    # at T = 0.02 the potentials reach ~350, where the anchored products of
    # the full-grid loop were already 2e-12 off the oracle: relative bound
    for a, b in zip((f, g), want[:2]):
        assert np.array_equal(np.isneginf(a), np.isneginf(b))
        fin = np.isfinite(b)
        err = np.abs(a[fin] - b[fin]) / np.maximum(1.0, np.abs(b[fin]))
        assert np.max(err) <= 1e-12
    for a, b, m in zip((mu_hat, nu_hat), want[2:4], (mu, nu)):
        assert np.array_equal(a > 0, m.support())
        assert np.max(np.abs(a - b)) <= 1e-12


# plain Sinkhorn, the loop with ω held at 1 (an _OMEGA_MAX of 1), is the
# oracle of the over-relaxed loop; every case but the 2D one relaxes
_RELAX_CASES = {
    "heat-0.05": _sp_case("heat", 0.05), "heat-0.02": _sp_case("heat", 0.02),
    "heat-0.01": _sp_case("heat", 0.01),
    "heat-0.005": _sp_case("heat", 0.005),
    "ou-0.1": _sp_case("ou", 0.1), "ou-0.05": _sp_case("ou", 0.05),
    "partial-nu": _sp_case("heat", 0.05, partial=True),
    "eot-0.05": _eot_case(0.05), "eot-0.3": _eot_case(0.3),
    "eot-1.0": _eot_case(1.0), "ou-2d": _grid_2d_case,
}


def _plain(monkeypatch, run, **solver):
    with monkeypatch.context() as m:
        m.setattr(schrodinger, "_OMEGA_MAX", 1.0)
        return run(**solver)


@pytest.mark.parametrize("name", list(_RELAX_CASES))
def test_relaxed_sinkhorn_matches_plain_loop(name, monkeypatch):
    run = _RELAX_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        sol = run()
        plain = _plain(monkeypatch, run)
        tight = _plain(monkeypatch, run, tol=1e-13)
    assert sol.converged and plain.converged and tight.converged
    assert plain.omega == tight.omega == 1.0
    # the solution carries its final ω: 1 if it never relaxed, else a
    # multiple of 1/32 in (1, 2)
    if name == "ou-2d":
        assert sol.omega == 1.0
    else:
        assert 1.0 < sol.omega < 2.0 and (32 * sol.omega).is_integer()
    assert sol.n_iter <= plain.n_iter
    # the same fixed point: the value is within rounding of a tight solve
    assert abs(_cost(sol) - _cost(tight)) <= 1e-12 * abs(_cost(tight))
    for a, b in zip(_potentials(sol), _potentials(plain)):
        assert np.array_equal(np.isneginf(a), np.isneginf(b))
        assert not np.any(np.isnan(a))


def _loop_problem(name):
    """An `_oracle_cases` problem, or the problem (K, log m, μ, ν) that
    `_solve` hands to `_sinkhorn` in the `_RELAX_CASES` solve
    ``relax-<case>``."""
    if not name.startswith("relax-"):
        return _oracle_cases()[name]
    got = []
    real = schrodinger._solve

    def spy(cls, mu, nu, kernel, *args, **kw):
        got.append((kernel, kernel.reference.log_mass(), mu, nu))
        return real(cls, mu, nu, kernel, *args, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(schrodinger, "_solve", spy)
        _RELAX_CASES[name[len("relax-"):]](max_iter=1)
    return got[0]


def _perturbed(rho, seed):
    """(1 + 0.1h)ρ for a smooth zero-mean field h: the support of ρ."""
    h = bs.smooth_zero_mean_field(rho.grid, rho, np.random.default_rng(seed))
    return bs.perturbed_measure(rho, h, 0.1)


# the parity problems whose potentials the two loops round apart by more
# than 16 ulps: heat at T <= 0.02 (sp-1d-tails is relax-heat-0.02) and at
# partial or full supports, and EOT at ε = 0.05
_ROUNDING_BOUND_CASES = {"sp-1d-tails", "sp-1d-full-nu", "relax-heat-0.02",
                         "relax-heat-0.01", "relax-heat-0.005",
                         "relax-partial-nu", "relax-eot-0.05"}


@pytest.mark.parametrize("start", ["cold", "array", "shared"])
@pytest.mark.parametrize("name", [*_oracle_cases(),
                                  *(f"relax-{n}" for n in _RELAX_CASES)])
def test_scaling_loop_matches_log_domain_loop(name, start):
    # the loop that keeps its potentials as weights against the anchors,
    # against the same loop with every half-step in the log domain, from a
    # cold start, an array start, and a battery's start on the operators
    # of a base solve (shared copies) at its ω with perturbed marginals
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        K, log_m, mu, nu = _loop_problem(name)
        init_g = schrodinger._warm_start(None, nu, "init_g")
        omega, base_ops = 1.0, None
        if start != "cold":
            base_ops = schrodinger._fresh_operators(K, mu, nu)
            base = schrodinger._sinkhorn(base_ops, log_m, mu, nu, 1e-9,
                                         100_000, init_g, 1.0)
            init_g = base[1][nu.support()]
            if start == "array":
                init_g, base_ops = 0.9 * init_g + 0.3, None
            else:
                omega = base[7]
                mu, nu = _perturbed(mu, 1), _perturbed(nu, 2)
        runs = []
        for loop in (schrodinger._sinkhorn, oracles.log_domain_sinkhorn):
            ops = schrodinger._fresh_operators(K, mu, nu) \
                if base_ops is None else tuple(op.shared() for op in base_ops)
            out = loop(ops, log_m, mu, nu, 1e-9, 100_000, init_g, omega)
            runs.append((out, [op.n_anchors for op in ops]))
    (got, anchors), (want, anchors0) = runs
    assert got[6] and want[6]
    assert got[4] == want[4] and got[7] == want[7] and anchors == anchors0
    # 16 ulps of max(1, max|b|), capped at 1e-12, as in
    # `test_anchored_sinkhorn_matches_log_domain_loop` (measured up to 0.48
    # of it); the small-T problems below carry the two loops' rounding
    # apart by up to 50x that bound (heat T = 0.005; 1.02-9.9x on the
    # others), as the log-domain loop itself drifts from exact arithmetic
    # of its iteration (by 2.7e-14 after 26 plain iterations of
    # sp-1d-full-nu, the scaling loop by 6.7e-15), so there the bound is
    # 1e-12 relative to max(1, |b|) per cell, as against the full-grid
    # oracle (measured up to 0.35 of it)
    for a, b in zip(got[:2], want[:2]):
        fin = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), fin)
        err = np.abs(a[fin] - b[fin])
        if name in _ROUNDING_BOUND_CASES:
            assert np.max(err / np.maximum(1.0, np.abs(b[fin]))) <= 1e-12
        else:
            ulps = np.finfo(float).eps * max(1.0, np.max(np.abs(b[fin])))
            assert np.max(err) <= min(1e-12, 16.0 * ulps)
    for a, b in zip(got[2:4], want[2:4]):
        assert np.array_equal(a > 0, b > 0)
        assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("omega", [2.5, 1e3])
def test_overshooting_omega_falls_back_to_plain(omega, monkeypatch):
    # an ω past 2 makes the relaxed loop diverge, and 1e3 overflows the
    # potentials within a step, so that the residual turns inf or NaN.  The
    # loop must go back to plain Sinkhorn from its last good potentials and
    # reach the plain fixed point; cut short, it must end unconverged with
    # finite potentials and residual
    run = _RELAX_CASES["heat-0.02"]
    tight = _plain(monkeypatch, run, tol=1e-13)
    raised = []
    monkeypatch.setattr(schrodinger, "_omega",
                        lambda rho: raised.append(rho) or omega)
    with np.errstate(all="ignore"):
        sol = run()
        n_raised = len(raised)
        cut = run(max_iter=sol.n_iter // 2)
    assert n_raised and len(raised) > n_raised
    assert sol.converged and sol.omega == 1.0
    assert np.all(np.isfinite(sol.residual_history))
    assert abs(_cost(sol) - _cost(tight)) <= 1e-12 * abs(_cost(tight))
    assert not cut.converged
    assert np.all(np.isfinite(cut.residual_history))
    for pot, m in ((cut.phi, cut.mu), (cut.psi, cut.nu)):
        assert np.all(np.isfinite(pot[m.support()]))



def test_log_slices_are_the_semigroup_at_t(ou_sol):
    T, phi, psi = ou_sol.T, ou_sol.phi, ou_sol.psi
    lp, lq = ou_sol.log_slices(0.0)
    assert lp is phi
    assert np.array_equal(lq, bs.apply_semigroup(ou_sol.kernel, psi))
    lp, lq = ou_sol.log_slices(T)
    assert lq is psi
    assert np.array_equal(lp, bs.apply_semigroup(ou_sol.kernel, phi))
    t = 0.3 * T
    lp, lq = ou_sol.log_slices(t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bs.BandwidthWarning)
        assert np.array_equal(
            lp, bs.apply_semigroup(ou_sol.kernel.at_time(t), phi))
        assert np.array_equal(
            lq, bs.apply_semigroup(ou_sol.kernel.at_time(T - t), psi))
    # computed once, shared and read-only
    assert ou_sol.log_slices(np.float64(t))[0] is lp
    assert not lp.flags.writeable and not lq.flags.writeable
    assert "_slices" not in repr(ou_sol)
    for bad in (-0.1, 1.1 * T):
        with pytest.raises(ValueError):
            ou_sol.log_slices(bad)


def _plan_pair(problem, eps, partial=False, seed=3):
    """Dense plans of (μ, ν) and of its perturbation ((1 + εh)μ, (1 + εk)ν),
    which keeps both supports: the whole grid, or for ν a box when partial
    (the marginals of the 1D battery, or ν uniform on [0.2, 2.5])."""
    g = bs.Grid.regular([(-6.0, 6.0)], [128])
    mu = bs.gaussian_measure(g, [-0.8], 1.15)
    nu = bs.uniform_measure(g, 0.2, 2.5) if partial \
        else bs.gaussian_measure(g, [0.8], 1.15)
    rng = np.random.default_rng(seed)
    h = bs.smooth_zero_mean_field(g, mu, rng)
    k = bs.smooth_zero_mean_field(g, nu, rng)
    mu_p = bs.perturbed_measure(mu, h, eps)
    nu_p = bs.perturbed_measure(nu, k, eps)
    if problem == "sp":
        ker = bs.GibbsKernel.ou(g, T=0.5, kappa=1.0)
        sols = bs.solve(mu, nu, ker), bs.solve(mu_p, nu_p, ker)
    else:
        sols = (bs.eot_quadratic_direct(mu, nu, 0.5),
                bs.eot_quadratic_direct(mu_p, nu_p, 0.5))
    return sols[0].log_plan(), sols[1].log_plan()


@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
@pytest.mark.parametrize("eps", [0.05, 0.2])
@pytest.mark.parametrize("problem", ["sp", "eot"])
def test_symmetric_entropy_is_the_two_relative_entropies(problem, eps,
                                                         partial):
    pi, rho = _plan_pair(problem, eps, partial)
    assert np.isneginf(pi.log_weights).any() == partial
    oracle = (oracles.plan_relative_entropy(pi, rho)
              + oracles.plan_relative_entropy(rho, pi))
    h = bs.plan_symmetric_entropy(pi, rho)
    assert h > 0.0
    assert abs(h - oracle) <= 1e-13 * oracle
    assert bs.plan_symmetric_entropy(rho, pi) == h


@pytest.mark.parametrize("problem", ["sp", "eot"])
def test_symmetric_entropy_support_rule(problem):
    full, _ = _plan_pair(problem, 0.2)
    part, _ = _plan_pair(problem, 0.2, partial=True)
    # supp part ⊊ supp full: both relative entropies, and H^sym, are +inf
    assert oracles.plan_relative_entropy(full, part) == math.inf
    assert bs.plan_symmetric_entropy(full, part) == math.inf
    assert bs.plan_symmetric_entropy(part, full) == math.inf
    for plan in (full, part):
        h = bs.plan_symmetric_entropy(plan, plan)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0


def _longdouble_symmetric_entropy(pi, rho):
    a = pi.log_weights.astype(np.longdouble)
    b = rho.log_weights.astype(np.longdouble)
    live = np.isfinite(a)
    a, b = a[live], b[live]
    return np.sum((np.exp(a) - np.exp(b)) * (a - b))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("eps", [0.2, 0.05, 0.01, 0.001])
@pytest.mark.parametrize("problem", ["sp", "eot"])
def test_symmetric_entropy_matches_extended_precision(problem, eps):
    # the two relative entropies cancel to O(ε²) from O(ε) terms and lose
    # ~1/ε in relative accuracy; the one-pass sum has no cancellation
    pi, rho = _plan_pair(problem, eps, partial=problem == "eot")
    exact = _longdouble_symmetric_entropy(pi, rho)
    h = bs.plan_symmetric_entropy(pi, rho)
    assert abs(np.longdouble(h) - exact) <= 1e-15 * exact


def test_log_plan_is_bit_identical_to_the_broadcast_sum(ou_sol, eot_sol):
    sp_2d = _grid_2d_case()
    for sol in (ou_sol, sp_2d, eot_sol):
        u = sol.reference.log_mass()
        f, g = sol.phi + u, sol.psi + u
        expected = f[:, None] + g[None, :] + oracles.log_matrix(sol.kernel)
        lw = sol.log_plan().log_weights
        assert np.array_equal(lw.view(np.int64), expected.view(np.int64))
    # the 2D case has a partial support, so -inf entries are compared too
    assert np.isneginf(sp_2d.log_plan().log_weights).any()
