"""Heat and Ornstein-Uhlenbeck transition kernels and log-space semigroup action."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import bridgestab as bs
import oracles
from bridgestab import kernels
from bridgestab.kernels import AnchoredLSE, BandwidthWarning, lse_matvec


def test_heat_kernel_prefactor():
    # at x = y and T = 1/(4 pi) the 1D kernel equals 1
    T = 1.0 / (4.0 * math.pi)
    assert abs(oracles.heat_kernel(np.array([0.3]), np.array([0.3]), T) - 1.0) < 1e-14
    # 2D: (4 pi T)^{-1} = 1 at the same T... no, exponent is -d/2
    v = oracles.heat_kernel(np.array([0.1, -0.2]), np.array([0.1, -0.2]), T)
    assert abs(v - 1.0) < 1e-14


def test_heat_kernel_symmetry(rng):
    T = 0.3
    for _ in range(50):
        x, y = rng.uniform(-4, 4, 2)
        a = oracles.heat_kernel(np.array([x]), np.array([y]), T)
        b = oracles.heat_kernel(np.array([y]), np.array([x]), T)
        assert a == b


def test_heat_kernel_integrates_to_one():
    # quadrature oracle: the kernel row has unit Lebesgue mass
    T = 0.25
    x0 = 0.37
    m = quad(lambda y: oracles.heat_kernel(np.array([x0]), np.array([y]), T),
             -20, 20)[0]
    assert abs(m - 1.0) < 1e-12


def test_ou_kernel_at_origin():
    # p_T(0,0) = (1 - e^{-2 kappa T})^{-d/2}
    v = oracles.ou_kernel(np.array([0.0]), np.array([0.0]), T=0.5, kappa=1.0)
    assert abs(v - 1.2577665549971213) < 1e-12


def test_ou_kernel_wang_lower_bound(rng):
    for _ in range(1000):
        x, y = rng.uniform(-5, 5, 2)
        kappa = rng.uniform(0.2, 3.0)
        T = rng.uniform(0.05, 2.0)
        p = oracles.ou_kernel(np.array([x]), np.array([y]), T, kappa)
        lb = oracles.wang_lower_bound(np.array([x]), np.array([y]), T, kappa)
        assert p >= lb * (1.0 - 1e-12)


def test_curvature_factor_values():
    assert bs.curvature_factor(0.0, 0.7) == 0.7
    assert abs(bs.curvature_factor(1.0, 1.0) - 3.1945280494653248) < 1e-14
    assert abs(bs.curvature_factor(-1.0, 1.0) - 0.43233235838169365) < 1e-14
    # quadrature oracle on a non-special pair
    kappa, t = 0.37, 1.3
    oracle = quad(lambda s: math.exp(2.0 * kappa * s), 0.0, t)[0]
    assert abs(bs.curvature_factor(kappa, t) - oracle) < 1e-10


def test_ou_past_kappa_t_350_is_a_value_error():
    # e^{2κT} overflows a double past κT ≈ 354.9
    g = bs.Grid.regular([(-6.0, 6.0)], [32])
    for build in (lambda: bs.GibbsKernel.ou(g, 1.0e9, 1.0),
                  lambda: bs.GibbsKernel.ou(g, 1.0, 400.0),
                  lambda: oracles.ou_kernel(0.0, 0.0, 400.0, 1.0),
                  lambda: bs.curvature_factor(1.0, 400.0)):
        with pytest.raises(ValueError, match=r"kappa\*[tT] <= 350"):
            build()
    assert bs.GibbsKernel.ou(g, 350.0, 1.0).T == 350.0
    assert math.isfinite(bs.curvature_factor(1.0, 350.0))


def test_non_finite_times_are_value_errors():
    # NaN passed `T <= 0` and built NaN factors, and a NaN heat kernel
    # solved to a NaN cost
    g = bs.Grid.regular([(-6.0, 6.0)], [32])
    for T in (math.nan, math.inf, -math.inf, [0.5, math.nan]):
        with pytest.raises(ValueError, match="finite T > 0"):
            bs.GibbsKernel.heat(g, T)
        with pytest.raises(ValueError, match="finite T > 0"):
            bs.GibbsKernel.ou(g, T, 1.0)
    for kappa in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite T > 0 and kappa > 0"):
            bs.GibbsKernel.ou(g, 0.5, kappa)


@given(
    st.floats(-2.0, 2.0, allow_subnormal=False),
    st.floats(1e-4, 0.1),
)
@settings(max_examples=200, deadline=None)
def test_curvature_factor_small_time(kappa, t):
    e = bs.curvature_factor(kappa, t)
    assert abs(e / t - 1.0) <= 2.0 * abs(kappa) * t + 1e-12


def test_gram_matrix_exactly_symmetric():
    g = bs.Grid.regular([(-4.0, 4.0)], [96])
    for ker in (bs.GibbsKernel.heat(g, T=0.2), bs.GibbsKernel.ou(g, T=0.2, kappa=1.3)):
        F = ker.log_factors[0]
        assert np.array_equal(F, F.T)


def test_gibbs_kernel_matches_pointwise_formula():
    g = bs.Grid.regular([(-3.0, 3.0)], [32])
    pts = g.points()
    ker_h = bs.GibbsKernel.heat(g, T=0.4)
    ker_o = bs.GibbsKernel.ou(g, T=0.4, kappa=0.8)
    i, j = 5, 20
    assert abs(math.exp(ker_h.log_factors[0][i, j])
               - oracles.heat_kernel(pts[i], pts[j], 0.4)) < 1e-12
    assert abs(math.exp(ker_o.log_factors[0][i, j])
               - oracles.ou_kernel(pts[i], pts[j], 0.4, 0.8)) < 1e-12


def test_ou_row_mass_defect():
    # stationary measure is N(0,1): [-13,13] covers the worst row's 4.6-sigma tail
    g = bs.Grid.regular([(-13.0, 13.0)], [512])
    ker = bs.GibbsKernel.ou(g, T=0.25, kappa=1.0)
    assert oracles.row_mass_defect(ker) < 1e-4


def test_heat_interior_row_mass():
    # heat rows lose mass at the boundary; check rows >= 5.5 bandwidths inside
    g = bs.Grid.regular([(-6.0, 6.0)], [256])
    T = 0.25
    ker = bs.GibbsKernel.heat(g, T=T)
    ref = bs.ReferenceMeasure.lebesgue(g)
    log_masses = lse_matvec(ker.log_factors[0], ref.log_mass())
    x = g.points()[:, 0]
    interior = np.abs(x) <= 6.0 - 5.5 * math.sqrt(2.0 * T)
    assert interior.sum() > 80
    assert np.max(np.abs(np.exp(log_masses[interior]) - 1.0)) < 1e-4


def test_apply_semigroup_preserves_constants():
    g = bs.Grid.regular([(-13.0, 13.0)], [512])
    ker = bs.GibbsKernel.ou(g, T=0.25, kappa=1.0)
    defect = oracles.row_mass_defect(ker)
    # |log(1 - defect)| slightly exceeds defect, hence the second-order allowance
    bound = defect * (1.0 + defect) + 1e-12
    out0 = bs.apply_semigroup(ker, np.zeros(512))
    assert np.max(np.abs(out0)) <= bound
    c = -2.7
    outc = bs.apply_semigroup(ker, np.full(512, c))
    assert np.max(np.abs(outc - c)) <= bound


def test_apply_semigroup_spike():
    # P_T applied to an indicator spike picks out one kernel column
    g = bs.Grid.regular([(-2.0, 2.0)], [16])
    ker = bs.GibbsKernel.heat(g, T=0.5)
    ref = bs.ReferenceMeasure.lebesgue(g)
    k = 7
    log_f = np.full(16, -np.inf)
    log_f[k] = 0.0
    out = bs.apply_semigroup(ker, log_f)
    expected = ker.log_factors[0][:, k] + ref.log_mass()[k]
    assert np.max(np.abs(out - expected)) < 1e-13


def test_apply_semigroup_extended_precision_oracle(rng):
    # compare the log-sum-exp route against mpmath at 50 digits
    g = bs.Grid.regular([(-2.0, 2.0)], [16])
    ker = bs.GibbsKernel.ou(g, T=0.3, kappa=1.1)
    ref = bs.ReferenceMeasure.gaussian(g, kappa=1.1)
    log_f = rng.normal(0.0, 2.0, 16)
    out = bs.apply_semigroup(ker, log_f)

    mpmath.mp.dps = 50
    log_m = ref.log_mass()
    for i in range(16):
        s = mpmath.mpf(0)
        for j in range(16):
            s += mpmath.e ** (mpmath.mpf(ker.log_factors[0][i, j])
                              + log_f[j] + log_m[j])
        oracle = float(mpmath.log(s))
        assert abs(out[i] - oracle) < 1e-12


def test_heat_semigroup_composition():
    # P_{T/2} P_{T/2} f = P_T f away from the boundary
    g = bs.Grid.regular([(-8.0, 8.0)], [256])
    T = 0.5
    full = bs.GibbsKernel.heat(g, T=T)
    half = bs.GibbsKernel.heat(g, T=T / 2)
    x = g.points()[:, 0]
    log_f = -0.5 * (x - 0.4) ** 2
    one_step = bs.apply_semigroup(full, log_f)
    two_step = bs.apply_semigroup(half, bs.apply_semigroup(half, log_f))
    interior = np.abs(x) <= 5.0
    assert np.max(np.abs(one_step[interior] - two_step[interior])) < 1e-3


def test_bandwidth_warning_and_flag():
    g = bs.Grid.regular([(-1.0, 1.0)], [16])  # cell width 0.125
    with pytest.warns(BandwidthWarning):
        ker = bs.GibbsKernel.heat(g, T=1e-4)  # sqrt(2T) = 0.014 << cells
    assert ker.underresolved
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok = bs.GibbsKernel.heat(g, T=0.5)
    assert not ok.underresolved


def test_at_time_rescales():
    g = bs.Grid.regular([(-4.0, 4.0)], [64])
    ker = bs.GibbsKernel.ou(g, T=1.0, kappa=0.9)
    early = ker.at_time(0.3)
    direct = bs.GibbsKernel.ou(g, T=0.3, kappa=0.9)
    assert early.T == 0.3
    assert np.allclose(early.log_factors[0], direct.log_factors[0],
                       atol=1e-12)
    # κ = 0 names the heat kernel
    heat = bs.GibbsKernel.heat(g, T=1.0).at_time(0.3)
    assert heat.kappa == 0.0
    assert np.array_equal(heat.log_factors[0],
                          bs.GibbsKernel.heat(g, T=0.3).log_factors[0])


def _old_dense_log_matrix(grid, kind, T, kappa=0.0):
    """The dense n×n formula the per-axis factors replaced (test oracle)."""
    pts = grid.points()
    sq = np.sum(pts ** 2, axis=1)
    g = pts @ pts.T
    gram = np.triu(g) + np.triu(g, 1).T
    if kind == "heat":
        d2 = sq[:, None] + sq[None, :] - 2.0 * gram
        np.maximum(d2, 0.0, out=d2)
        return -0.5 * grid.ndim * math.log(4.0 * math.pi * T) - d2 / (4.0 * T)
    denom = 2.0 * math.expm1(2.0 * kappa * T)
    quad = sq[:, None] + sq[None, :] - 2.0 * math.exp(kappa * T) * gram
    return -0.5 * grid.ndim * math.log(-math.expm1(-2.0 * kappa * T)) \
        - (kappa / denom) * quad


def _kernels(grid, times):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        for T in times:
            yield "heat", T, 0.0, bs.GibbsKernel.heat(grid, T)
            yield "ou", T, 0.7, bs.GibbsKernel.ou(grid, T, 0.7)


@pytest.mark.parametrize("bounds,n", [((-6.0, 6.0), 256), ((-8.0, 10.0), 320),
                                      ((-3.3, 7.1), 97)])
def test_1d_factor_is_old_dense_formula_bit_for_bit(bounds, n):
    g = bs.Grid.regular(bounds, n)
    for kind, T, kappa, ker in _kernels(g, (3.0, 0.494, 0.05, 1.0 / 64)):
        old = _old_dense_log_matrix(g, kind, T, kappa)
        assert np.array_equal(ker.log_factors[0].view(np.uint64),
                              old.view(np.uint64)), (kind, T)


def _rel_err(a, b):
    fin = np.isfinite(b)
    return float(np.max(np.abs(a[fin] - b[fin])
                        / np.maximum(1.0, np.abs(b[fin]))))


def test_separable_2d_operator_matches_dense_oracle(rng):
    # non-square grid with asymmetric bounds; T = 1/16 is under-resolved
    g = bs.Grid.regular([(-2.5, 3.5), (-1.0, 2.6)], [12, 9])
    pts = g.points()
    n = g.n_cells
    pair = rng.integers(0, n, size=(200, 2))
    v = rng.normal(0.0, 3.0, n)
    v[rng.random(n) < 0.3] = -np.inf
    v.reshape(g.shape)[4, :] = -np.inf       # a whole axis-1 line
    v.reshape(g.shape)[:, 2] = -np.inf       # a whole axis-0 line
    spike = np.full(n, -np.inf)
    spike[17] = 0.5
    for kind, T, kappa, ker in _kernels(g, (1.0, 0.25, 1.0 / 16)):
        dense = oracles.log_matrix(ker)
        assert dense.shape == (n, n)
        assert np.array_equal(dense, dense.T)
        old = _old_dense_log_matrix(g, kind, T, kappa)
        assert _rel_err(dense, old) <= 1e-13, (kind, T)
        for i, j in pair:
            p = (oracles.heat_kernel(pts[i], pts[j], T) if kind == "heat"
                 else oracles.ou_kernel(pts[i], pts[j], T, kappa))
            assert abs(dense[i, j] - math.log(p)) \
                <= 1e-12 * max(1.0, abs(math.log(p)))
        log_m = ker.reference.log_mass()
        for w in (v, spike, np.zeros(n)):
            got = ker.lse(w)
            want = lse_matvec(dense, w)
            assert np.array_equal(np.isneginf(got), np.isneginf(want))
            assert _rel_err(got, want) <= 1e-13, (kind, T)
            got = bs.apply_semigroup(ker, w)
            want = lse_matvec(dense, w + log_m)
            assert np.array_equal(np.isneginf(got), np.isneginf(want))
            assert _rel_err(got, want) <= 1e-13, (kind, T)
        assert np.all(np.isneginf(ker.lse(np.full(n, -np.inf))))
        defect = np.max(np.abs(np.exp(lse_matvec(dense, log_m)) - 1.0))
        assert abs(oracles.row_mass_defect(ker) - defect) <= 1e-13


def test_batched_lse_matvec_is_a_loop_of_single_calls(rng):
    A = rng.normal(0.0, 2.0, (7, 5))
    A[2, 3] = -np.inf
    A[5, :] = -np.inf
    V = rng.normal(0.0, 3.0, (4, 5))
    V[1, :] = -np.inf
    V[3, [0, 4]] = -np.inf
    loop = np.stack([lse_matvec(A, row) for row in V])
    for buf in (None, np.empty((4, 7, 5))):
        batched = lse_matvec(A, V, buf)
        assert batched.shape == (4, 7)
        assert np.array_equal(batched.view(np.uint64), loop.view(np.uint64))
    # a transposed (non-contiguous) batch, as the 2D operator passes it
    W = rng.normal(0.0, 3.0, (5, 4)).T
    loop = np.stack([lse_matvec(A, row.copy()) for row in W])
    assert np.array_equal(lse_matvec(A, W).view(np.uint64),
                          loop.view(np.uint64))


def _with_factors(factors):
    """A `GibbsKernel` that holds ``factors``, on a regular grid of their
    shape, built with `dataclasses.replace`."""
    shape = [f.shape[-1] for f in factors]
    g = bs.Grid.regular([(-2.0, 2.0)] * len(shape), shape)
    return dataclasses.replace(bs.GibbsKernel.heat(g, 4.0),
                               log_factors=tuple(factors))


def test_kernel_factor_shapes_are_checked():
    one = bs.GibbsKernel.heat(bs.Grid.regular([(-1.0, 1.0)], [4]), 1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(one, log_factors=(np.zeros((4, 5)),))
    with pytest.raises(ValueError):
        dataclasses.replace(one, log_factors=(np.zeros((2, 3, 4, 4)),))
    g = bs.Grid.regular([(-1.0, 1.0), (-1.0, 1.0)], [4, 3])
    ker = bs.GibbsKernel.heat(g, 1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(ker, log_factors=ker.log_factors[::-1])
    with pytest.raises(ValueError):
        dataclasses.replace(ker, log_factors=(oracles.log_matrix(ker),))
    # a stack stacks every factor the same way
    stack = ker.at_time([1.0, 2.0])
    with pytest.raises(ValueError):
        dataclasses.replace(stack, log_factors=(stack.log_factors[0],
                                                ker.log_factors[1]))


def _assert_matches_dense(K, v):
    """`K.lse(v)` against the log-domain oracle over the dense matrix:
    identical -inf patterns, within 1e-13 relative elsewhere."""
    got, want = K.lse(v), lse_matvec(oracles.log_matrix(K), v)
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    assert np.all(np.isneginf(want)) or _rel_err(got, want) <= 1e-13


def _fallback_spy(monkeypatch):
    """Count the `lse_matvec` calls made from `kernels`."""
    calls = []

    def spy(A, v, buf=None):
        calls.append(v.shape)
        return lse_matvec(A, v, buf)

    monkeypatch.setattr(kernels, "lse_matvec", spy)
    return calls


def test_shared_factor_lse_matches_dense_oracle(rng, monkeypatch):
    # 32×32 heat and OU from resolved to well under-resolved times (the
    # cell width is 0.375); inputs: noise with -inf holes and whole -inf
    # grid lines, a concave potential and a drift of order 1/T over the
    # log mass, a single live cell, and an input that is all -inf
    g = bs.Grid.regular([(-6.0, 6.0), (-6.0, 6.0)], [32, 32])
    n = g.n_cells
    x0, x1 = g.points().T
    noise = rng.normal(0.0, 3.0, n)
    noise[rng.random(n) < 0.3] = -np.inf
    noise.reshape(g.shape)[7, :] = -np.inf
    noise.reshape(g.shape)[:, 20] = -np.inf
    spike = np.full(n, -np.inf)
    spike[300] = 1.5
    for kind, T, kappa, K in _kernels(g, (3.0, 1.0, 0.1, 0.02, 0.005)):
        log_m = K.reference.log_mass()
        bowl = -((x0 - 1.0) ** 2 + 0.5 * (x1 + 2.0) ** 2) / (4.0 * T)
        calls = _fallback_spy(monkeypatch)
        for v in (noise, bowl + log_m, (3.0 * x0 - x1) / T + log_m, spike,
                  np.full(n, -np.inf)):
            _assert_matches_dense(K, v)
        monkeypatch.undo()
        # at resolved times every sum clears the guard: no entry is
        # reduced in the log domain
        assert T < 1.0 or calls == [], (kind, T)


def test_shared_factor_guard_falls_back_to_the_log_domain(rng, monkeypatch):
    # one live cell at 0 and the rest near -1600: the terms e^{x - M} of
    # every other cell underflow, so at small T the rows whose kernel mass
    # near that cell is below the guard are reduced again in the log
    # domain, and their true values come from the cells near -1600
    g = bs.Grid.regular([(-6.0, 6.0), (-6.0, 6.0)], [32, 32])
    n = g.n_cells
    v = -1600.0 + rng.uniform(-1.0, 1.0, n)
    v[0] = 0.0
    wide = v.copy()
    wide[5::7] = rng.uniform(-1600.0, 0.0, wide[5::7].size)
    for kind, T, kappa, K in _kernels(g, (0.05, 0.02, 0.005)):
        for w in (v, wide):
            calls = _fallback_spy(monkeypatch)
            _assert_matches_dense(K, w)
            assert calls, (kind, T)
            monkeypatch.undo()


def test_log_kernel_takes_one_or_two_factors():
    # grids are 1D or 2D, and a kernel has one factor per grid axis
    F = kernels._squared_distances(np.linspace(-2.0, 2.0, 5)) / -0.5
    for count in (1, 2):
        K = _with_factors((F,) * count)
        assert K.shape == (5,) * count
        for wrong in (0, 3, 3 - count):
            with pytest.raises(ValueError, match="do not match the grid"):
                dataclasses.replace(K, log_factors=(F,) * wrong)


def test_lse_with_inf_factor_entries_matches_dense_oracle(rng):
    # a -inf factor row and a -inf factor entry: the row maxima stay
    # finite and those rows reduce to -inf
    shape = (5, 6)
    factors = [kernels._squared_distances(np.linspace(-2.0, 2.0, m)) / -0.5
               for m in shape]
    factors[0][2, :] = -np.inf
    factors[1][0, 3] = -np.inf
    K = _with_factors(factors)
    n = math.prod(shape)
    v = rng.normal(0.0, 2.0, n)
    v.reshape(shape)[1, :] = -np.inf
    v.reshape(shape)[:, 4] = -np.inf
    spread = v.copy()
    spread[::3] -= 1500.0
    for w in (v, spread, np.zeros(n), np.full(n, -np.inf)):
        _assert_matches_dense(K, w)


def test_1d_lse_is_lse_matvec_bit_for_bit(rng):
    g = bs.Grid.regular([(-8.0, 10.0)], [320])
    v = rng.normal(0.0, 3.0, 320)
    v[rng.random(320) < 0.2] = -np.inf
    for kind, T, kappa, K in _kernels(g, (1.0, 0.02, 0.005)):
        for w in (v, v - 1500.0 * rng.random(320)):
            assert np.array_equal(
                K.lse(w).view(np.uint64),
                lse_matvec(K.log_factors[0], w).view(np.uint64)), (kind, T)


def test_replaced_kernel_builds_its_own_exp_factors(rng):
    g = bs.Grid.regular([(-3.0, 3.0), (-2.0, 2.0)], [12, 9])
    K = bs.GibbsKernel.ou(g, 0.5, 1.0)
    other = bs.GibbsKernel.ou(g, 2.0, 1.0)
    v = rng.normal(0.0, 2.0, g.n_cells)
    before = K.lse(v)
    moved = dataclasses.replace(K, log_factors=other.log_factors)
    assert np.array_equal(moved.lse(v), other.lse(v))
    assert not np.allclose(moved.lse(v), before)
    # the original keeps its own factors
    assert np.array_equal(K.lse(v), before)


def _anchored_cases(rng):
    """(name, kernel, rows, cols, compact input on cols): 1D heat at small
    time and 1D OU between two different interval supports, 2D heat and OU
    on a 12×9 grid between supports with scattered holes and whole grid
    lines off (so a projection has gaps), and a full 2D support."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        g1 = bs.Grid.regular([(-8.0, 10.0)], [320])
        x = g1.axes[0]
        rows, cols = (x > -3.0) & (x < 6.0), (x > -5.0) & (x < 4.5)
        # potential-like input: a drift of order 1/T over a Gaussian log mass
        v1 = 25.0 * x - 0.5 * x ** 2 + rng.normal(0.0, 1.0, x.size)
        yield "heat-1d", bs.GibbsKernel.heat(g1, 0.02), rows, cols, v1[cols]
        yield ("ou-1d", bs.GibbsKernel.ou(g1, 0.3, 1.0), cols, rows,
               0.2 * v1[rows])
        g2 = bs.Grid.regular([(-2.5, 3.5), (-1.0, 2.6)], [12, 9])
        n = g2.n_cells
        rows, cols = rng.random(n) > 0.2, rng.random(n) > 0.3
        cols.reshape(g2.shape)[4, :] = False
        cols.reshape(g2.shape)[:, 2] = False
        rows.reshape(g2.shape)[:, 0] = False
        v2 = rng.normal(0.0, 3.0, n)
        yield ("heat-2d", bs.GibbsKernel.heat(g2, 1.0 / 16), rows, cols,
               v2[cols])
        yield "ou-2d", bs.GibbsKernel.ou(g2, 0.25, 0.7), cols, rows, v2[rows]
        full = np.ones(n, dtype=bool)
        yield "ou-2d-full", bs.GibbsKernel.ou(g2, 0.25, 0.7), full, full, v2


def _grid_lse(K, rows, cols, v):
    """`K.lse` of the compact v extended by -inf off ``cols``, on ``rows``."""
    x = np.full(cols.size, -np.inf)
    x[cols] = v
    return K.lse(x)[rows]


def _assert_matches_lse(got, K, rows, cols, v):
    want = _grid_lse(K, rows, cols, v)
    assert got.shape == want.shape == (rows.sum(),)
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    assert _rel_err(got, want) <= 1e-13


def test_anchored_lse_matches_lse_near_its_anchor(rng):
    tau = kernels.ANCHOR_RADIUS
    for name, K, rows, cols, v in _anchored_cases(rng):
        op = AnchoredLSE(K, rows, cols)
        _assert_matches_lse(oracles.anchored(op, v), K, rows, cols, v)
        for scale in (1e-6, 1.0, 0.45 * tau, 0.99 * tau):
            w = v + rng.uniform(-scale, scale, v.size)
            got = oracles.anchored(op, w)
            assert np.all(np.isfinite(got)), name
            _assert_matches_lse(got, K, rows, cols, w)
        assert op.n_anchors == 1, name


def test_anchored_lse_reanchors_past_the_radius(rng):
    tau = kernels.ANCHOR_RADIUS
    for name, K, rows, cols, v in _anchored_cases(rng):
        op = AnchoredLSE(K, rows, cols)
        oracles.anchored(op, v)
        for step in (1.01 * tau, -1.01 * tau):
            w = v.copy()
            w[5] += step
            _assert_matches_lse(oracles.anchored(op, w), K, rows, cols, w)
        assert op.n_anchors == 3, name
        # the last anchor serves its own neighbourhood again
        _assert_matches_lse(oracles.anchored(op, w + 0.5), K, rows, cols,
                            w + 0.5)
        assert op.n_anchors == 3, name
        # a non-finite input re-anchors, and so does the next finite one,
        # which is not within τ of it; -inf is zero mass as in `K.lse`
        u = w.copy()
        u[3] = -np.inf
        _assert_matches_lse(oracles.anchored(op, u), K, rows, cols, u)
        _assert_matches_lse(oracles.anchored(op, w), K, rows, cols, w)
        assert op.n_anchors == 5, name


def test_shared_anchor_never_writes_the_original(rng):
    tau = kernels.ANCHOR_RADIUS
    for name, K, rows, cols, v in _anchored_cases(rng):
        op = AnchoredLSE(K, rows, cols)
        oracles.anchored(op, v)
        bufs = [b.copy() for b in op._buf]
        twin = op.shared()
        # near the anchor: the original's buffers, no anchor of its own
        w = v + rng.uniform(-0.5 * tau, 0.5 * tau, v.size)
        _assert_matches_lse(oracles.anchored(twin, w), K, rows, cols, w)
        assert twin.n_anchors == 0
        assert all(b is b0 for b, b0 in zip(twin._buf, op._buf))
        # past the radius: buffers of its own, the original's unchanged
        w = v.copy()
        w[5] += 1.01 * tau
        _assert_matches_lse(oracles.anchored(twin, w), K, rows, cols, w)
        assert twin.n_anchors == 1 and op.n_anchors == 1, name
        assert not any(np.shares_memory(b, b0)
                       for b, b0 in zip(twin._buf, op._buf)), name
        assert all(np.array_equal(b, b0) for b, b0 in zip(op._buf, bufs))
        _assert_matches_lse(oracles.anchored(op, v + 0.5), K, rows, cols,
                            v + 0.5)
        assert op.n_anchors == 1, name


def _restricted_lse(K, rows, cols, v):
    """The reduction `AnchoredLSE` anchors with, written out: v on the box
    of the projections of ``cols`` (-inf on its other cells), each axis
    factor restricted to the projections of ``rows`` and ``cols``, read off
    on ``rows``."""
    r, c = rows.reshape(K.shape), cols.reshape(K.shape)
    axes = range(r.ndim)

    def proj(m):
        return [np.flatnonzero(m.any(axis=tuple(j for j in axes if j != k)))
                for k in axes]

    ri, ci = proj(r), proj(c)
    x = np.full(c.shape, -np.inf)
    x[c] = v
    x = x[np.ix_(*ci)]
    for k in reversed(axes):
        A = K.log_factors[k][np.ix_(ri[k], ci[k])]
        x = lse_matvec(A, x.swapaxes(k, -1)).swapaxes(k, -1)
    return x[r[np.ix_(*ri)]]


def test_anchored_product_is_the_restricted_lse(rng):
    # the near-anchor reduction in the scaling domain: row shifts plus the
    # log of the sums against the anchor's exp buffers, against the
    # log-domain reduction over the restricted factors (`lse_matvec`) on
    # 1D and 2D supports with holes and whole grid lines off; a shared copy
    # carries the base's row shifts and never writes the base's buffers
    tau = kernels.ANCHOR_RADIUS
    for name, K, rows, cols, v in _anchored_cases(rng):
        op = AnchoredLSE(K, rows, cols)
        assert not op.near(np.ones(v.size))
        oracles.anchored(op, v)
        bufs, shift = [b.copy() for b in op._buf], op.row_shift.copy()
        twin = op.shared()
        assert twin.row_shift is op.row_shift
        for scale in (1e-6, 1.0, 0.45 * tau, 0.99 * tau):
            w = v + rng.uniform(-scale, scale, v.size)
            W = np.exp(w - v)
            assert op.near(W) and twin.near(W), name
            S = op.product(W)
            assert S.shape == (rows.sum(),) and np.all(S > 0), name
            got = op.row_shift + np.log(S)
            assert _rel_err(got, _restricted_lse(K, rows, cols, w)) <= 1e-13
            # `reduce` gives this reduction, bit for bit
            assert np.array_equal(_bits(oracles.anchored(op, w)),
                                  _bits(got)), name
            assert np.array_equal(_bits(twin.product(W)), _bits(S)), name
        bad = np.ones(v.size)
        for x in (np.exp(1.01 * tau), np.exp(-1.01 * tau), np.nan):
            bad[5] = x
            assert not op.near(bad) and not twin.near(bad), name
        # past the radius the copy anchors into buffers of its own
        w = v.copy()
        w[5] += 1.01 * tau
        oracles.anchored(twin, w)
        assert twin.n_anchors == 1 and op.n_anchors == 1, name
        assert twin.row_shift is not op.row_shift
        got = twin.row_shift + np.log(twin.product(np.ones(v.size)))
        assert _rel_err(got, _restricted_lse(K, rows, cols, w)) <= 1e-13
        assert np.array_equal(_bits(op.row_shift), _bits(shift)), name
        assert all(np.array_equal(_bits(b), _bits(b0))
                   for b, b0 in zip(op._buf, bufs)), name


def test_forced_reanchor_is_lse_bit_for_bit(rng, monkeypatch):
    # with a negative radius every call re-anchors: the log-domain
    # reduction over the restricted factors (on a full support, the
    # per-axis `lse_matvec` reduction over the full factors); `K.lse`
    # reduces 2D kernels by shared-factor products, so it is matched to
    # 1e-13 there
    monkeypatch.setattr(kernels, "ANCHOR_RADIUS", -1.0)
    for name, K, rows, cols, v in _anchored_cases(rng):
        op = AnchoredLSE(K, rows, cols)
        for w in (v, v + 1e-9, v - 3.0):
            got = oracles.anchored(op, w)
            assert np.array_equal(
                got.view(np.uint64),
                _restricted_lse(K, rows, cols, w).view(np.uint64)), name
            if rows.all() and cols.all():
                _assert_matches_lse(got, K, rows, cols, w)
        assert op.n_anchors == 3, name



# ---------------------------------------------------------------------------
# The exponent floor: every output bit against the unclamped formulas
# ---------------------------------------------------------------------------

def _lse_matvec_unclamped(A, v, buf=None):
    """`lse_matvec` without the exponent floor, as it was written before
    (test oracle): exp of every shifted exponent, subnormal and -inf ones
    included."""
    if buf is None:
        buf = np.empty(v.shape[:-1] + A.shape)
    np.add(A, v[..., None, :], out=buf)
    m = np.max(buf, axis=-1)
    finite = m > -np.inf
    shift = np.where(finite, m, 0.0)
    np.subtract(buf, shift[..., None], out=buf)
    np.exp(buf, out=buf)
    s = buf.sum(axis=-1)
    with np.errstate(divide="ignore"):
        out = shift + np.log(s)
    out[~finite] = -np.inf
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_exponent_floor_moves_no_lse_matvec_bit(rng):
    # each row of A + v has its maximum at 0 and terms spread over the
    # subnormal range [-745, -708], below -745, at -inf and (row 4) well
    # inside the normal range; row 5 of A is all -inf, and so are batch
    # row 2 of V and every row of A + V[3]
    n, m = 9, 40
    A = np.zeros((n, m))
    A[0] = rng.uniform(-745.0, -708.0, m)
    A[1] = rng.uniform(-2000.0, -745.0, m)
    A[2, ::2] = -np.inf
    A[2, 1::2] = rng.uniform(-760.0, -690.0, m // 2)
    A[3] = np.where(rng.random(m) < 0.5, -np.inf,
                    rng.uniform(-800.0, -700.0, m))
    A[4] = rng.uniform(-40.0, 0.0, m)
    A[5] = -np.inf
    A[6] = np.linspace(-1e4, 0.0, m)
    A[7] = rng.uniform(-720.0, -699.0, m)
    A[8] = rng.uniform(-708.5, -707.5, m)
    A[:5, 0] = A[6:, 0] = 0.0
    V = rng.uniform(-1.0, 1.0, (4, m))
    V[1] = 0.0
    V[2] = -np.inf
    V[3, :] = -np.inf
    V[3, 5] = 3.0
    V[0, rng.random(m) < 0.3] = -np.inf
    for v in (V[1], V[0], V[2], V, V.T.copy().T):
        want = _lse_matvec_unclamped(A, v)
        old = np.empty(v.shape[:-1] + A.shape)
        _lse_matvec_unclamped(A, v, old)
        log_sums = np.empty(want.shape)
        got = lse_matvec(A, v, None, log_sums)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(lse_matvec(A, v)), _bits(want))
        live = want > -np.inf
        with np.errstate(divide="ignore"):
            assert np.array_equal(_bits(log_sums[live]),
                                  _bits(np.log(old.sum(axis=-1))[live]))
    # the heat and OU factors at small time with potential-like inputs
    g = bs.Grid.regular([(-8.0, 10.0)], [320])
    x = g.axes[0]
    for kind, T, kappa, K in _kernels(g, (0.05, 0.01, 0.002)):
        F = K.log_factors[0][40:277, 30:283]
        for v in (x[30:283] ** 2 / (4.0 * T), 30.0 * x[30:283] / T):
            assert np.array_equal(_bits(lse_matvec(F, v)),
                                  _bits(_lse_matvec_unclamped(F, v)))


def test_exponent_floor_keeps_shared_lse_fallback(rng, monkeypatch):
    # `K.lse` of 2D kernels on steep inputs with -inf holes, whose small
    # sums go back to `lse_matvec`, against the same kernel with the floor
    # off
    g = bs.Grid.regular([(-6.0, 6.0), (-6.0, 6.0)], [32, 32])
    n = g.n_cells
    x0, x1 = g.points().T
    holes = rng.random(n) < 0.3
    for kind, T, _, K in _kernels(g, (1.0, 0.02, 0.002)):
        drift = (3.0 * x0 - x1) / T + K.reference.log_mass()
        bowl = -((x0 - 1.0) ** 2 + 0.5 * (x1 + 2.0) ** 2) / (4.0 * T)
        inputs = [drift, np.where(holes, -np.inf, bowl),
                  np.where(holes, -np.inf, drift - 800.0 * (x0 > 0))]
        got = [K.lse(v) for v in inputs]
        with monkeypatch.context() as mp, np.errstate(divide="ignore"):
            mp.setattr(kernels, "_EXP_FLOOR", -np.inf)
            off = dataclasses.replace(K)
            for v, out in zip(inputs, got):
                assert np.array_equal(_bits(out), _bits(off.lse(v))), \
                    (kind, T)


def test_exponent_floor_keeps_the_anchor_buffers(rng):
    # each axis's exp buffer after the flush and its row shifts, against
    # the anchoring reduction written with the unclamped `lse_matvec`
    tiny_floor = np.finfo(float).tiny * math.exp(kernels.ANCHOR_RADIUS)
    for name, K, rows, cols, v in _anchored_cases(rng):
        for w in (v, 8.0 * v):
            op = AnchoredLSE(K, rows, cols)
            got = oracles.anchored(op, w)
            r, _, _ = kernels._support_box(rows.reshape(K.shape))
            c, box, pos = kernels._support_box(cols.reshape(K.shape))
            x = np.full(box, -np.inf)
            x.reshape(-1)[slice(None) if pos is None else pos] = w
            for i, k in enumerate(reversed(range(len(K.log_factors)))):
                A = kernels._restrict(K.log_factors[k], r[k], c[k])
                xk = x.swapaxes(k, -1)
                E = np.empty(xk.shape[:-1] + A.shape)
                out = _lse_matvec_unclamped(A, xk, E)
                live = out > -np.inf
                shift = np.zeros(out.shape)
                with np.errstate(divide="ignore"):
                    np.log(E.sum(axis=-1), out=shift, where=live)
                np.subtract(out, shift, out=shift, where=live)
                np.copyto(E, 0.0, where=E < tiny_floor)
                assert np.array_equal(_bits(op._buf[k]), _bits(E)), name
                assert np.array_equal(_bits(op._axes[i][1]), _bits(shift)), \
                    name
                x = out.swapaxes(k, -1)
            assert np.array_equal(_bits(got), _bits(_restricted_lse(
                K, rows, cols, w))), name


def test_nan_in_nan_out(rng):
    # one NaN entry: every output it reaches is NaN, never -inf; rows
    # whose terms are all -inf stay -inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        g2 = bs.Grid.regular([(-3.0, 3.0), (-2.0, 2.0)], [24, 18])
        K2 = bs.GibbsKernel.ou(g2, 0.3, 1.0)
        K1 = bs.GibbsKernel.ou(bs.Grid.regular([(-3.0, 3.0)], [24]), 0.3,
                               1.0)
    A = K2.log_factors[0][:, :18].copy()
    A[3, :] = -np.inf
    V = rng.normal(0.0, 2.0, (3, 18))
    V[0, 7] = np.nan
    V[1, :] = -np.inf
    out = lse_matvec(A, V)
    assert np.all(np.isnan(out[0]))
    assert np.all(np.isneginf(out[1]))
    assert np.array_equal(_bits(out[2]), _bits(lse_matvec(A, V[2])))
    assert np.isneginf(out[2, 3])
    assert np.all(np.isfinite(np.delete(out[2], 3)))
    for K in (K1, K2):
        n = math.prod(K.shape)
        v = rng.normal(0.0, 2.0, n)
        v[rng.random(n) < 0.2] = -np.inf
        v[n // 3] = np.nan
        assert np.all(np.isnan(K.lse(v)))
        assert np.all(np.isneginf(K.lse(np.full(n, -np.inf))))
        full = np.ones(n, dtype=bool)
        op = AnchoredLSE(K, full, full)
        u = rng.normal(0.0, 2.0, n)
        oracles.anchored(op, u)
        bad = u.copy()
        bad[n // 2] = np.nan
        assert np.all(np.isnan(oracles.anchored(op, bad)))
        _assert_matches_lse(oracles.anchored(op, u), K, full, full, u)
        assert op.n_anchors == 3


@pytest.mark.parametrize("shape", [[40], [32, 28]], ids=["1d", "2d"])
def test_stacked_kernels_are_the_kernels_at_each_time(rng, monkeypatch,
                                                     shape):
    # factors, shared exp factors and `apply_semigroup` rows of a stack of
    # kernels against the kernel built at each time alone, bit for bit, on
    # steep inputs with -inf holes whose small 2D sums go back to
    # `lse_matvec`
    g = bs.Grid.regular([(-6.0, 6.0)] * len(shape), shape)
    n = g.n_cells
    x = g.points()
    times = [1.0, 0.3, 0.02, 0.002, 0.3]
    holes = rng.random(n) < 0.3
    fallback = []
    real = kernels.lse_matvec

    def spy(A, v, *args):
        fallback.append(v.shape[0] if len(shape) == 2 else 0)
        return real(A, v, *args)

    for kind, T, _, K in _kernels(g, (1.0,)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BandwidthWarning)
            stack = K.at_time(times)
            alone = [K.at_time(t) for t in times]
        assert stack.T == tuple(times) and stack.underresolved
        for k, one in enumerate(alone):
            for a, b in zip(stack.log_factors, one.log_factors):
                assert np.array_equal(_bits(a[k]), _bits(b)), (kind, k)
            if len(shape) == 2:
                for (Ea, ra), (Eb, rb) in zip(stack._exp_factors,
                                              one._exp_factors):
                    assert np.array_equal(_bits(Ea[k]), _bits(Eb))
                    assert np.array_equal(_bits(ra[k]), _bits(rb))
        drift = (3.0 * x[:, 0] - x[:, -1]) / 0.02
        inputs = [drift,
                  np.where(holes, -np.inf, drift - 800.0 * (x[:, 0] > 0)),
                  np.where(holes, -np.inf, -(x ** 2).sum(axis=1) / 0.008)]
        for v in inputs:
            with monkeypatch.context() as mp:
                mp.setattr(kernels, "lse_matvec", spy)
                got = bs.apply_semigroup(stack, v)
            assert got.shape == (len(times), n)
            for k, one in enumerate(alone):
                assert np.array_equal(_bits(got[k]),
                                      _bits(bs.apply_semigroup(one, v))), \
                    (kind, times[k])
    # 1D: one `lse_matvec` per stack; 2D: the small sums went back
    assert sum(fallback) > 0 if len(shape) == 2 else len(fallback) == 6
