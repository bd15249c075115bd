"""Grids, discrete measures, entropies, Fisher information, moments, CSV I/O."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import bridgestab as bs
import oracles
from bridgestab.measures import (MASS_FLOOR, fisher_information,
                                 grad_sq_norm, gradient_energy,
                                 masked_gradient)


def test_grid_regular_layout():
    g = bs.Grid.regular([(0.0, 1.0), (-2.0, 2.0)], [4, 8])
    assert g.ndim == 2
    assert g.n_cells == 32
    assert g.points().shape == (32, 2)
    vols = g.cell_volumes()
    assert np.allclose(vols, (1.0 / 4) * (4.0 / 8))
    # axes are cell midpoints, strictly increasing
    for ax in g.axes:
        assert np.all(np.diff(ax) > 0)
    assert math.isclose(g.axes[0][0], 0.125)
    assert math.isclose(g.axes[1][-1], 2.0 - 0.25)


def test_reference_lebesgue_mass_is_cell_volume():
    g = bs.Grid.regular([(-1.0, 3.0)], [16])
    ref = bs.ReferenceMeasure.lebesgue(g)
    assert np.array_equal(ref.cell_mass, g.cell_volumes())


def test_reference_gaussian_total_mass():
    # grid spans 10 standard deviations of N(0, 1/kappa), so truncation is negligible
    g = bs.Grid.regular([(-10.0, 10.0)], [256])
    ref = bs.ReferenceMeasure.gaussian(g, kappa=1.0)
    assert abs(ref.cell_mass.sum() - 1.0) < 1e-6


def test_relative_entropy_of_reference_is_zero():
    g = bs.Grid.regular([(-8.0, 8.0)], [128])
    ref = bs.ReferenceMeasure.gaussian(g, kappa=1.0)
    p = bs.DiscreteMeasure.from_weights(g, ref.cell_mass)
    # renormalization shifts H by -log(total) ~ 0 on a wide grid
    assert abs(bs.relative_entropy(p, ref)) < 1e-8


def test_relative_entropy_uniform_densities():
    # density 1 on [0,1] inside [0,2]: H(p | Leb) = 0
    g = bs.Grid.regular([(0.0, 2.0)], [128])
    ref = bs.ReferenceMeasure.lebesgue(g)
    p1 = bs.uniform_measure(g, [0.0], [1.0])
    assert abs(bs.relative_entropy(p1, ref)) < 1e-12
    # density 2 on [0,1/2]: H = log 2
    p2 = bs.uniform_measure(g, [0.0], [0.5])
    assert abs(bs.relative_entropy(p2, ref) - math.log(2.0)) < 1e-12


def test_relative_entropy_gaussian_reference_identity():
    # H(mu | gauss_kappa) = H(mu | Leb) + (kappa/2) M2(mu) + (d/2) log(2 pi / kappa)
    g = bs.Grid.regular([(-9.0, 9.0)], [512])
    kappa = 0.7
    mu = bs.gaussian_measure(g, [0.4], 1.1)
    ref_g = bs.ReferenceMeasure.gaussian(g, kappa=kappa)
    ref_l = bs.ReferenceMeasure.lebesgue(g)
    lhs = bs.relative_entropy(mu, ref_g)
    rhs = (
        bs.relative_entropy(mu, ref_l)
        + 0.5 * kappa * bs.second_moment(mu)
        + 0.5 * math.log(2.0 * math.pi / kappa)
    )
    assert abs(lhs - rhs) < 1e-10


def test_symmetric_entropy_two_cell_closed_form():
    g = bs.Grid.regular([(0.0, 1.0)], [2])
    p = bs.DiscreteMeasure.from_weights(g, np.array([0.5, 0.5]))
    q = bs.DiscreteMeasure.from_weights(g, np.array([0.25, 0.75]))
    # 0.5 log 2 + 0.5 log(2/3) + 0.25 log(1/2) + 0.75 log(3/2)
    expected = 0.2746530721670274
    assert abs(bs.symmetric_entropy(p, q) - expected) < 1e-14
    assert abs(bs.symmetric_entropy(q, p) - expected) < 1e-14
    assert bs.symmetric_entropy(p, p) == 0.0


def test_symmetric_entropy_disjoint_supports_is_infinite():
    g = bs.Grid.regular([(0.0, 4.0)], [8])
    p = bs.uniform_measure(g, [0.0], [1.0])
    q = bs.uniform_measure(g, [3.0], [4.0])
    assert bs.symmetric_entropy(p, q) == math.inf


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_relative_entropy_nonnegative(seed):
    rng = np.random.default_rng(seed)
    g = bs.Grid.regular([(0.0, 1.0)], [16])
    w_p = rng.uniform(0.01, 1.0, 16)
    w_q = rng.uniform(0.01, 1.0, 16)
    p = bs.DiscreteMeasure.from_weights(g, w_p)
    q = bs.DiscreteMeasure.from_weights(g, w_q)
    ref = bs.ReferenceMeasure(g, q.weights)
    assert bs.relative_entropy(p, ref) >= -2e-6


def test_fisher_information_gaussian_vs_lebesgue():
    # N(0, sigma^2) against Lebesgue: I = 1/sigma^2.  Independent quadrature oracle.
    sigma = 0.8
    g = bs.Grid.regular([(-8.0, 8.0)], [1024])
    mu = bs.gaussian_measure(g, [0.0], sigma)
    ref = bs.ReferenceMeasure.lebesgue(g)
    got = bs.fisher_information(mu, ref)
    oracle = quad(
        lambda x: (x / sigma**2) ** 2 * norm.pdf(x, 0.0, sigma), -8.0, 8.0
    )[0]
    assert abs(oracle - 1.0 / sigma**2) < 1e-10
    assert abs(got - oracle) < 1e-6


def test_fisher_information_ou_reference_closed_form():
    # N(a, sigma^2) against the kappa-Gaussian: I = (kappa - 1/sigma^2)^2 sigma^2 + a^2 kappa^2
    a, sigma, kappa = 0.5, 0.8, 1.0
    g = bs.Grid.regular([(-9.0, 9.0)], [1024])
    mu = bs.gaussian_measure(g, [a], sigma)
    ref = bs.ReferenceMeasure.gaussian(g, kappa=kappa)
    got = bs.fisher_information(mu, ref)
    assert abs(got - 0.4525) < 1e-6


def test_fisher_information_zero_when_measure_matches_reference():
    g = bs.Grid.regular([(-8.0, 8.0)], [256])
    ref = bs.ReferenceMeasure.gaussian(g, kappa=1.0)
    mu = bs.DiscreteMeasure.from_weights(g, ref.cell_mass)
    assert bs.fisher_information(mu, ref) < 1e-12


def test_fisher_information_lebesgue_scale_invariance():
    g = bs.Grid.regular([(-6.0, 6.0)], [256])
    mu = bs.gaussian_measure(g, [0.3], 1.0)
    ref = bs.ReferenceMeasure.lebesgue(g)
    scaled = bs.ReferenceMeasure(g, 2.0 * g.cell_volumes())
    assert abs(bs.fisher_information(mu, ref) - bs.fisher_information(mu, scaled)) < 1e-12


def test_moments():
    g = bs.Grid.regular([(-10.0, 11.0)], [512])
    m, sigma = 0.7, 1.2
    mu = bs.gaussian_measure(g, [m], sigma)
    assert abs(bs.second_moment(mu) - (m * m + sigma * sigma)) < 1e-6
    assert abs((g.points().T @ mu.weights)[0] - m) < 1e-8

    g = bs.Grid.regular([(-6.0, 6.0)], [512])
    w = np.zeros(512)
    k = 256
    w[k] = 1.0
    atom = bs.DiscreteMeasure.from_weights(g, w)
    x_k = g.points()[k, 0]
    assert abs(bs.second_moment(atom) - x_k * x_k) < 1e-14

    w2 = np.zeros(512)
    w2[100] = 0.5
    w2[411] = 0.5  # symmetric about 0 on this grid
    pair = bs.DiscreteMeasure.from_weights(g, w2)
    a = g.points()[411, 0]
    assert abs(bs.second_moment(pair) - a * a) < 1e-12


def test_second_moment_shift_identity():
    g = bs.Grid.regular([(-5.0, 5.0)], [200])
    mu = bs.gaussian_measure(g, [0.4], 0.9)
    a = 0.35
    shifted = bs.DiscreteMeasure(
        bs.Grid(tuple(x + a for x in g.axes), g.axis_weights), mu.weights)
    m1 = (g.points().T @ mu.weights)[0]
    m2 = bs.second_moment(mu)
    assert abs(bs.second_moment(shifted) - (m2 + 2 * a * m1 + a * a)) < 1e-10


def test_from_weights_floors_and_renormalizes():
    g = bs.Grid.regular([(0.0, 1.0)], [4])
    raw = np.array([1.0, MASS_FLOOR / 10, 3.0, 0.0])
    mu = bs.DiscreteMeasure.from_weights(g, raw)
    assert mu.weights[1] == 0.0 and mu.weights[3] == 0.0
    assert abs(mu.weights.sum() - 1.0) <= 1e-12
    assert np.allclose(mu.weights[[0, 2]], [0.25, 0.75])


def test_from_weights_rejects_negative_and_zero():
    g = bs.Grid.regular([(0.0, 1.0)], [4])
    with pytest.raises(ValueError):
        bs.DiscreteMeasure.from_weights(g, np.array([1.0, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        bs.DiscreteMeasure.from_weights(g, np.zeros(4))


def test_masked_gradient_linear_exact():
    g = bs.Grid.regular([(-2.0, 2.0)], [64])
    x = g.points()[:, 0]
    vals = 3.0 * x
    (gx,) = masked_gradient(vals, g, np.ones(64, dtype=bool))
    assert np.max(np.abs(gx - 3.0)) < 1e-12


def test_masked_gradient_2d_linear():
    g = bs.Grid.regular([(0.0, 1.0), (0.0, 2.0)], [16, 24])
    pts = g.points()
    vals = 2.0 * pts[:, 0] - 1.5 * pts[:, 1]
    gx, gy = masked_gradient(vals, g, np.ones(g.n_cells, dtype=bool))
    assert np.max(np.abs(gx - 2.0)) < 1e-12
    assert np.max(np.abs(gy + 1.5)) < 1e-12


# ---------------------------------------------------------------------------
# masked_gradient against the wrap-around roll implementation it replaced
# ---------------------------------------------------------------------------

def _axis_spacing_matrix(grid, axis):
    """Midpoint coordinates broadcast along one axis, shaped like the grid."""
    x = grid.axes[axis]
    shape = [1] * grid.ndim
    shape[axis] = x.size
    return np.broadcast_to(x.reshape(shape), grid.shape)


def _masked_gradient_roll(values, grid, mask):
    """Reference: neighbors by np.roll, the wrapped neighbor patched out."""
    v = values.reshape(grid.shape)
    m = mask.reshape(grid.shape)
    grads = []
    for ax in range(grid.ndim):
        x = _axis_spacing_matrix(grid, ax)
        vp = np.roll(v, -1, axis=ax)
        vm = np.roll(v, 1, axis=ax)
        xp = np.roll(x, -1, axis=ax)
        xm = np.roll(x, 1, axis=ax)
        has_p = np.roll(m, -1, axis=ax) & m
        has_m = np.roll(m, 1, axis=ax) & m
        # roll wraps around; kill the wrapped neighbor at the grid edge
        edge = [slice(None)] * grid.ndim
        edge[ax] = -1
        has_p[tuple(edge)] = False
        edge[ax] = 0
        has_m[tuple(edge)] = False

        g = np.zeros_like(v, dtype=float)
        both = has_p & has_m
        only_p = has_p & ~has_m
        only_m = has_m & ~has_p
        with np.errstate(invalid="ignore", divide="ignore"):
            g = np.where(both, (vp - vm) / (xp - xm), g)
            g = np.where(only_p, (vp - v) / (xp - x), g)
            g = np.where(only_m, (v - vm) / (x - xm), g)
        g[~m] = 0.0
        grads.append(np.nan_to_num(g, nan=0.0).ravel())
    return grads


def _gradient_case(seed, on_mask_inf=True):
    """Random (grid, mask, values): regular or non-uniform axes of 2 to 9
    cells, masks with isolated cells or whole rows/columns off, -inf, NaN
    or noise off the mask and (optionally) ±inf on it."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(rng.choice([2, 3, 4, 7, 9]))
                  for _ in range(int(rng.integers(1, 3))))
    if rng.random() < 0.5:
        grid = bs.Grid.regular([(-3.0, 2.0)] * len(shape), shape)
    else:
        grid = bs.Grid.from_axes([np.cumsum(rng.uniform(0.05, 2.0, n)) - 4.0
                                  for n in shape])
    kind = seed % 4
    if kind == 0:                                  # dense random
        mask = rng.random(shape) < rng.uniform(0.5, 1.0)
    elif kind == 1:                                # sparse: isolated cells
        mask = rng.random(shape) < 0.25
    elif kind == 2:                                # a whole row/column off
        mask = np.ones(shape, dtype=bool)
        ax = int(rng.integers(len(shape)))
        cut = [slice(None)] * len(shape)
        cut[ax] = int(rng.integers(shape[ax]))
        mask[tuple(cut)] = False
    else:                                          # every other cell
        mask = np.zeros(shape, dtype=bool)
        mask[::2] = True
    mask = mask.ravel()
    values = rng.normal(scale=rng.uniform(0.1, 10.0), size=grid.n_cells)
    off = np.flatnonzero(~mask)
    values[off] = rng.choice([-np.inf, np.nan, 7.0], size=off.size)
    on = np.flatnonzero(mask)
    if on_mask_inf and on.size and rng.random() < 0.3:
        hit = rng.choice(on, size=min(2, on.size), replace=False)
        values[hit] = rng.choice([np.inf, -np.inf], size=hit.size)
    return grid, mask, values


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_masked_gradient_matches_roll_oracle_bit_for_bit():
    for seed in range(240):
        grid, mask, values = _gradient_case(seed)
        got = masked_gradient(values, grid, mask)
        want = _masked_gradient_roll(values, grid, mask)
        assert len(got) == len(want) == grid.ndim
        for g, w in zip(got, want):
            assert _same_bits(g, w), seed


def test_gradient_integrals_match_roll_oracle_bit_for_bit():
    for seed in range(240):
        grid, mask, values = _gradient_case(seed, on_mask_inf=False)
        rng = np.random.default_rng(seed)
        sq = np.zeros(grid.n_cells)
        for g in _masked_gradient_roll(values, grid, mask):
            sq += g ** 2
        assert _same_bits(grad_sq_norm(values, grid, mask), sq), seed

        # weights on the mask, some below the floor
        weights = np.where(mask, rng.uniform(0.0, 1.0, grid.n_cells), 0.0)
        weights[mask & (rng.random(grid.n_cells) < 0.2)] = 0.5 * MASS_FLOOR
        for floor in (0.0, MASS_FLOOR):
            sq = np.zeros(grid.n_cells)
            for g in _masked_gradient_roll(values, grid, weights > floor):
                sq += g ** 2
            assert gradient_energy(values, grid, weights, floor) \
                == float(weights @ sq), seed

        if not mask.any():
            continue
        p = bs.DiscreteMeasure.from_weights(
            grid, np.where(mask, rng.uniform(0.01, 1.0, grid.n_cells), 0.0))
        ref = (bs.ReferenceMeasure.lebesgue(grid) if seed % 2
               else bs.ReferenceMeasure.gaussian(grid, kappa=0.7))
        s = p.support()
        v = np.zeros(grid.n_cells)
        v[s] = np.log(p.weights[s]) - np.log(ref.cell_mass[s])
        sq = np.zeros(grid.n_cells)
        for g in _masked_gradient_roll(v, grid, s):
            sq += g ** 2
        assert fisher_information(p, ref) \
            == float(np.sum(p.weights * sq)), seed


def test_masked_gradient_ignores_values_off_the_mask():
    for seed in range(120):
        grid, mask, values = _gradient_case(seed)
        base = masked_gradient(np.where(mask, values, 0.0), grid, mask)
        rng = np.random.default_rng(seed)
        off = ~mask
        for fill in (rng.normal(scale=1e3, size=grid.n_cells),
                     np.full(grid.n_cells, -np.inf),
                     np.full(grid.n_cells, np.nan),
                     rng.choice([-np.inf, np.nan, 1.0], size=grid.n_cells)):
            v = values.copy()
            v[off] = fill[off]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = masked_gradient(v, grid, mask)
            for g, b in zip(got, base):
                assert _same_bits(g, b), seed


def test_smooth_zero_mean_field_properties(grid128, gauss_pair, rng):
    mu, _ = gauss_pair
    h = bs.smooth_zero_mean_field(grid128, mu, rng)
    assert abs(float(h @ mu.weights)) < 1e-12
    assert abs(np.max(np.abs(h)) - 1.0) < 1e-8


def test_perturbed_measure(grid128, gauss_pair, rng):
    mu, _ = gauss_pair
    h = bs.smooth_zero_mean_field(grid128, mu, rng)
    eps = 0.2
    pert = bs.perturbed_measure(mu, h, eps)
    assert abs(pert.weights.sum() - 1.0) <= 1e-12
    expected = mu.weights * (1.0 + eps * h)
    assert np.allclose(pert.weights, expected / expected.sum(), atol=1e-14)
    with pytest.raises(ValueError):
        bs.perturbed_measure(mu, h, 1.5)


def test_difference_has_zero_total_mass(gauss_pair):
    mu, nu = gauss_pair
    d = bs.difference(mu, nu)
    assert abs(d.weights.sum()) < 1e-14


def test_gaussian_mixture_measure(grid128):
    mix = bs.gaussian_mixture_measure(
        grid128, [(0.3, [-1.5], 0.7), (0.7, [1.0], 0.9)]
    )
    assert abs(mix.weights.sum() - 1.0) <= 1e-12
    m1 = (grid128.points().T @ mix.weights)[0]
    assert abs(m1 - (0.3 * -1.5 + 0.7 * 1.0)) < 1e-3


def test_random_smooth_pair_reproducible(grid128):
    mu1, nu1 = bs.random_smooth_pair(grid128, np.random.default_rng(5))
    mu2, nu2 = bs.random_smooth_pair(grid128, np.random.default_rng(5))
    assert np.array_equal(mu1.weights, mu2.weights)
    assert np.array_equal(nu1.weights, nu2.weights)
    assert abs(mu1.weights.sum() - 1.0) <= 1e-12
    assert not np.array_equal(mu1.weights, nu1.weights)


def test_csv_roundtrip_1d(tmp_path, gauss_pair):
    mu, _ = gauss_pair
    path = tmp_path / "mu.csv"
    oracles.measure_to_csv(mu, path)
    back = bs.measure_from_csv(path)
    assert np.array_equal(back.weights, mu.weights)
    assert np.allclose(back.grid.points(), mu.grid.points(), atol=1e-15)


def test_csv_roundtrip_2d(tmp_path):
    g = bs.Grid.regular([(-2.0, 2.0), (0.0, 1.0)], [12, 8])
    pts = g.points()
    w = np.exp(-np.sum(pts**2, axis=1))
    mu = bs.DiscreteMeasure.from_weights(g, w)
    path = tmp_path / "mu2.csv"
    oracles.measure_to_csv(mu, path)
    back = bs.measure_from_csv(path)
    assert np.array_equal(back.weights, mu.weights)
    assert back.grid.ndim == 2
    assert np.allclose(back.grid.points(), pts, atol=1e-15)


@pytest.mark.parametrize("text,message", [
    ("", "unrecognized measure CSV header"),
    ("x,weight\n", "data rows of 2 values"),
    ("x,weight\n0.0,1.0\n", "two coordinates per axis"),
    ("x,y,weight\n0.0,0.0,0.5\n1.0,0.0,0.5\n", "two coordinates per axis"),
    ("x,weight\n0.0,0.5,9.0\n1.0,0.5,9.0\n", "data rows of 2 values"),
], ids=["empty", "header-only", "one-row", "one-column-2d", "long-rows"])
def test_csv_reader_rejects_degenerate_files(tmp_path, text, message):
    # each used to escape as IndexError or StopIteration, or to misread
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        bs.measure_from_csv(path)
