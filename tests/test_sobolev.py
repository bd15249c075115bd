"""Weighted H^-1 norms, 1D Wasserstein-2 distances, and their comparison."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import bridgestab as bs
import oracles
from bridgestab.sobolev import (
    WeightedPoissonProblem,
    edge_weights,
    h_minus_one_norm,
    w2_atoms,
    weighted_laplacian,
)


def test_two_cell_closed_form():
    # cells at spacing 1 with weight 1/2 each: the single edge has conductance
    # (1/2 + 1/2)/2 = 1/2, so ||(s,-s)||^2 = s^2 / (1/2) = 2 s^2
    g = bs.Grid.regular([(0.0, 2.0)], [2])
    mu = bs.DiscreteMeasure.from_weights(g, np.array([0.5, 0.5]))
    s = 0.3
    rho = bs.SignedMeasure(g, np.array([s, -s]))
    got = h_minus_one_norm(rho, mu)
    assert abs(got - s * math.sqrt(2.0)) < 1e-10


def test_zero_is_zero(gauss_pair):
    mu, _ = gauss_pair
    zero = bs.SignedMeasure(mu.grid, np.zeros(mu.grid.n_cells))
    assert h_minus_one_norm(zero, mu) == 0.0


def test_homogeneity(grid128, rng):
    # weight bounded away from zero keeps the Poisson system well conditioned
    x = grid128.points()[:, 0]
    mu = bs.DiscreteMeasure.from_weights(grid128, 0.5 + 0.4 * np.sin(0.7 * x))
    h = bs.smooth_zero_mean_field(grid128, mu, rng)
    rho = h * mu.weights
    base = h_minus_one_norm(bs.SignedMeasure(grid128, rho), mu)
    for c in (0.5, 2.0, -3.0):
        got = h_minus_one_norm(bs.SignedMeasure(grid128, c * rho), mu)
        assert abs(got - abs(c) * base) < 1e-8 * base


def _dirichlet_energy(grid, weight, h):
    """Σ_e w_e (h_a - h_b)² (equals ⟨h, ν⟩ at the Poisson solution)."""
    ia, ib, w = edge_weights(grid, weight)
    return float(np.sum(w * (h[ia] - h[ib]) ** 2))


def test_duality_with_dirichlet_energy(grid128, rng):
    # <h, rho> = sum of edge weights times squared increments at the solution
    x = grid128.points()[:, 0]
    mu = bs.DiscreteMeasure.from_weights(grid128, 0.6 + 0.3 * np.cos(0.5 * x))
    h_field = bs.smooth_zero_mean_field(grid128, mu, rng)
    rho = h_field * mu.weights
    prob = WeightedPoissonProblem(mu)
    h = prob.solve(rho)
    pairing = float(h @ rho)
    energy = _dirichlet_energy(grid128, mu, h)
    assert abs(pairing - energy) < 1e-8 * max(1.0, abs(pairing))
    norm = h_minus_one_norm(bs.SignedMeasure(grid128, rho), mu)
    assert abs(math.sqrt(max(pairing, 0.0)) - norm) < 1e-8


def test_triangle_inequality(grid128, gauss_pair, rng):
    mu, _ = gauss_pair
    a = bs.smooth_zero_mean_field(grid128, mu, rng) * mu.weights
    b = bs.smooth_zero_mean_field(grid128, mu, rng) * mu.weights
    na = h_minus_one_norm(bs.SignedMeasure(grid128, a), mu)
    nb = h_minus_one_norm(bs.SignedMeasure(grid128, b), mu)
    nab = h_minus_one_norm(bs.SignedMeasure(grid128, a + b), mu)
    assert nab <= na + nb + 1e-10


def test_disconnected_support_infinite():
    g = bs.Grid.regular([(0.0, 4.0)], [16])
    w = np.zeros(16)
    w[:4] = 0.125
    w[12:] = 0.125
    mu = bs.DiscreteMeasure.from_weights(g, w)
    rho = np.zeros(16)
    rho[0] = 0.1
    rho[15] = -0.1  # net mass must cross the zero-weight gap
    assert h_minus_one_norm(bs.SignedMeasure(g, rho), mu) == math.inf


def _sparse_norm(rho, mu):
    """The grounded sparse direct solve, which 2D norms use."""
    return WeightedPoissonProblem(mu).norm(rho)


def _dense_pinv_norm(rho, mu):
    """rho^T L_c^+ rho summed over the components of the dense Laplacian;
    +inf when a component carries net mass."""
    lap = weighted_laplacian(mu.grid, mu).toarray()
    _, labels = connected_components(sp.csr_matrix(lap != 0.0),
                                     directed=False)
    val = 0.0
    for comp in np.unique(labels):
        cells = np.flatnonzero(labels == comp)
        b = rho.weights[cells]
        if abs(b.sum()) > 1e-10:
            return math.inf
        lap_c = lap[np.ix_(cells, cells)]
        val += float(b @ np.linalg.pinv(lap_c, hermitian=True) @ b)
    return math.sqrt(val)


def _battery_1d_case():
    # stability-battery marginal: n=256 on [-6, 6], perturbation eps=0.2
    g = bs.Grid.regular([(-6.0, 6.0)], [256])
    mu = bs.gaussian_measure(g, [-0.8], 1.15)
    h = bs.smooth_zero_mean_field(g, mu, np.random.default_rng(0))
    return bs.difference(mu, bs.perturbed_measure(mu, h, 0.2)), mu


def _irregular_1d_case():
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.uniform(0.02, 0.1, 96))
    g = bs.Grid.from_axes([x - x.mean()])
    mu = bs.gaussian_measure(g, [0.3], 0.9)
    h = bs.smooth_zero_mean_field(g, mu, rng)
    return bs.difference(mu, bs.perturbed_measure(mu, h, 0.2)), mu


def _floor_gaps_case():
    # cells below MASS_FLOOR (but not zero) at both ends and in an interior
    # gap: edges between two such cells carry no weight, which leaves two
    # runs of support and isolated cells; the rhs puts mass on the floor
    # cells next to the support and a sub-threshold net mass on each run
    rng = np.random.default_rng(5)
    w = np.full(40, 1e-13)
    w[4:17] = rng.uniform(0.5, 1.5, 13)
    w[23:36] = rng.uniform(0.5, 1.5, 13)
    w /= w.sum()
    g = bs.Grid.regular([(0.0, 4.0)], [40])
    mu = bs.DiscreteMeasure(g, w)
    rho = np.zeros(40)
    for run, net in ((slice(3, 18), 5e-11), (slice(22, 37), -5e-11)):
        r = rng.normal(0.0, 0.05, 15)
        rho[run] = r - r.mean() + net / 15
    return bs.SignedMeasure(g, rho), mu


def _stuck_mass_case():
    rho, mu = _floor_gaps_case()
    b = rho.weights.copy()
    b[5] += 0.01
    b[30] -= 0.01  # net mass must cross the interior gap
    return bs.SignedMeasure(mu.grid, b), mu


def _grid_2d_case():
    g = bs.Grid.regular([(-3.0, 3.0), (-3.0, 3.0)], [12, 12])
    mu = bs.gaussian_measure(g, [0.4, -0.3], [1.0, 0.8])
    h = bs.smooth_zero_mean_field(g, mu, np.random.default_rng(1))
    return bs.difference(mu, bs.perturbed_measure(mu, h, 0.3)), mu


def _two_components_case():
    g = bs.Grid.regular([(0.0, 4.0)], [16])
    w = np.zeros(16)
    w[:4] = np.array([0.1, 0.15, 0.2, 0.05])
    w[12:] = np.array([0.2, 0.1, 0.1, 0.1])
    mu = bs.DiscreteMeasure.from_weights(g, w)
    rho = np.zeros(16)
    rho[[0, 3]] = [0.1, -0.1]
    rho[[12, 15]] = [-0.05, 0.05]  # zero net mass on each component
    return bs.SignedMeasure(g, rho), mu


def _grid_mismatch_case(case):
    def build():
        rho, mu = case()
        shifted = bs.Grid(tuple(x + 0.5 for x in mu.grid.axes),
                          mu.grid.axis_weights)
        return bs.SignedMeasure(shifted, rho.weights), mu
    return build


def _nonzero_mass_case(case):
    def build():
        rho, mu = case()
        return bs.SignedMeasure(mu.grid, rho.weights + 1e-3), mu
    return build


@pytest.mark.parametrize("case, error", [
    (_battery_1d_case, None),
    (_grid_2d_case, None),
    (_two_components_case, None),
    (_irregular_1d_case, None),
    (_floor_gaps_case, None),
    (_stuck_mass_case, None),
    (_grid_mismatch_case(_battery_1d_case), "different grids"),
    (_grid_mismatch_case(_grid_2d_case), "different grids"),
    (_nonzero_mass_case(_battery_1d_case), "zero total mass"),
    (_nonzero_mass_case(_grid_2d_case), "zero total mass"),
], ids=["battery-1d-pinv", "grid-2d-pinv", "two-components-pinv",
        "irregular-1d-pinv", "floor-gaps-1d-pinv", "stuck-mass-1d-inf",
        "grid-mismatch-1d", "grid-mismatch-2d", "nonzero-mass-1d",
        "nonzero-mass-2d"])
def test_norm_matches_dense_oracle(case, error):
    rho, mu = case()
    if error is not None:
        # the 1D closed form and the 2D sparse solve reject alike
        for norm in (h_minus_one_norm, _sparse_norm):
            with pytest.raises(ValueError, match=error):
                norm(rho, mu)
        return
    got = h_minus_one_norm(rho, mu)
    references = [_dense_pinv_norm]
    if mu.grid.ndim == 1:  # in 2D h_minus_one_norm is the sparse solve
        references.append(_sparse_norm)
    for oracle in references:
        expected = oracle(rho, mu)
        if math.isinf(expected):
            assert got == math.inf
        else:
            assert expected > 0.0
            assert abs(got - expected) <= 1e-12 * expected


def test_nonzero_total_mass_rejected(gauss_pair):
    mu, _ = gauss_pair
    ones = bs.SignedMeasure(mu.grid, np.full(mu.grid.n_cells, 1e-3))
    with pytest.raises(ValueError):
        h_minus_one_norm(ones, mu)


def test_w2_identical_is_zero(gauss_pair):
    mu, _ = gauss_pair
    assert bs.wasserstein2_1d(mu, mu) == 0.0


def test_w2_grid_aligned_translation():
    g = bs.Grid.regular([(0.0, 2.4)], [240])  # cell width 0.01
    mu = bs.uniform_measure(g, [0.3], [0.9])
    nu = bs.uniform_measure(g, [0.6], [1.2])
    assert abs(bs.wasserstein2_1d(mu, nu) - 0.3) < 1e-12

    # atoms translated off-grid: w2_atoms handles distinct supports
    ga = bs.Grid.regular([(-6.0, 6.0)], [480])
    m1 = bs.gaussian_measure(ga, [-0.5], 0.8)
    xs = ga.points()[:, 0]
    assert abs(w2_atoms(xs, m1.weights, xs + 1.0, m1.weights) - 1.0) < 1e-12


def test_w2_gaussian_closed_form():
    # W2(N(a, s^2), N(b, t^2))^2 = (a-b)^2 + (s-t)^2
    g = bs.Grid.regular([(-9.0, 9.0)], [1024])
    mu = bs.gaussian_measure(g, [-1.0], 1.0)
    nu = bs.gaussian_measure(g, [1.0], 1.5)
    expected = 2.0615528128088303
    assert abs(bs.wasserstein2_1d(mu, nu) - expected) < 2e-3


def test_w2_atoms_example():
    # (delta_0 + delta_1)/2 -> (delta_2 + delta_3)/2 shifts each atom by 2
    xa = np.array([0.0, 1.0])
    xb = np.array([2.0, 3.0])
    w = np.array([0.5, 0.5])
    assert abs(w2_atoms(xa, w, xb, w) - 2.0) < 1e-14


def test_w2_exact_small_agrees_with_quantiles(rng):
    for _ in range(8):
        n = int(rng.integers(8, 33))
        g = bs.Grid.regular([(-2.0, 2.0)], [n])
        mu = bs.DiscreteMeasure.from_weights(g, rng.uniform(0.05, 1.0, n))
        nu = bs.DiscreteMeasure.from_weights(g, rng.uniform(0.05, 1.0, n))
        lp = oracles.wasserstein2_exact_small(mu, nu)
        qt = bs.wasserstein2_1d(mu, nu)
        assert abs(lp - qt) < 1e-8


def test_w2_exact_small_identical_zero():
    g = bs.Grid.regular([(0.0, 1.0)], [16])
    mu = bs.DiscreteMeasure.from_weights(g, np.linspace(1.0, 2.0, 16))
    assert oracles.wasserstein2_exact_small(mu, mu) < 1e-12


def test_comparison_identical_pair_passes(gauss_pair):
    mu, _ = gauss_pair
    rep = bs.w2_h_minus_one_comparison(mu, mu)
    assert rep.passed
    assert rep.lhs == 0.0


def test_comparison_is_one_dimensional():
    g = bs.Grid.regular([(-2.0, 2.0), (-1.0, 1.0)], [8, 6])
    mu = bs.gaussian_measure(g, [0.0, 0.0], [0.8, 0.5])
    nu = bs.gaussian_measure(g, [0.3, -0.1], [0.8, 0.5])
    with pytest.raises(ValueError, match="one-dimensional"):
        bs.w2_h_minus_one_comparison(mu, nu)


def test_comparison_norm_is_linear_in_eps(grid128, rng):
    x = grid128.points()[:, 0]
    mu = bs.DiscreteMeasure.from_weights(grid128, 0.5 + 0.4 * np.sin(0.9 * x))
    h = bs.smooth_zero_mean_field(grid128, mu, rng)
    base = h_minus_one_norm(bs.SignedMeasure(grid128, h * mu.weights), mu)
    for eps in (0.05, 0.1, 0.2):
        pert = bs.perturbed_measure(mu, h, eps)
        d = bs.difference(pert, mu)
        got = h_minus_one_norm(d, mu)
        # perturbed_measure renormalizes, so linearity holds to first order
        assert abs(got - eps * base) < 1e-8 + 1e-6 * eps * base


def test_comparison_battery_resolved_instances():
    # resolved regime: 512 cells, perturbation sizes >= 0.15
    g = bs.Grid.regular([(-6.0, 6.0)], [512])
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mu, _ = bs.random_smooth_pair(g, rng)
        h = bs.smooth_zero_mean_field(g, mu, rng)
        eps = 0.15 + 0.15 * rng.uniform()
        mu_bar = bs.perturbed_measure(mu, h, eps)
        rep = bs.w2_h_minus_one_comparison(mu, mu_bar)
        assert rep.passed, f"seed {seed}: {rep.lhs} > {rep.rhs}"
        assert not rep.vacuous
