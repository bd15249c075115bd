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
from bridgestab import kernels
from bridgestab.kernels import (AnchoredLSE, BandwidthWarning, LogKernel,
                                lse_matvec)


def test_heat_kernel_prefactor():
    # at x = y and T = 1/(4 pi) the 1D kernel equals 1
    T = 1.0 / (4.0 * math.pi)
    assert abs(bs.heat_kernel(np.array([0.3]), np.array([0.3]), T) - 1.0) < 1e-14
    # 2D: (4 pi T)^{-1} = 1 at the same T... no, exponent is -d/2
    v = bs.heat_kernel(np.array([0.1, -0.2]), np.array([0.1, -0.2]), T)
    assert abs(v - 1.0) < 1e-14


def test_heat_kernel_symmetry(rng):
    T = 0.3
    for _ in range(50):
        x, y = rng.uniform(-4, 4, 2)
        a = bs.heat_kernel(np.array([x]), np.array([y]), T)
        b = bs.heat_kernel(np.array([y]), np.array([x]), T)
        assert a == b


def test_heat_kernel_integrates_to_one():
    # quadrature oracle: the kernel row has unit Lebesgue mass
    T = 0.25
    x0 = 0.37
    m = quad(lambda y: bs.heat_kernel(np.array([x0]), np.array([y]), T), -20, 20)[0]
    assert abs(m - 1.0) < 1e-12


def test_ou_kernel_at_origin():
    # p_T(0,0) = (1 - e^{-2 kappa T})^{-d/2}
    v = bs.ou_kernel(np.array([0.0]), np.array([0.0]), T=0.5, kappa=1.0)
    assert abs(v - 1.2577665549971213) < 1e-12


def test_ou_kernel_wang_lower_bound(rng):
    for _ in range(1000):
        x, y = rng.uniform(-5, 5, 2)
        kappa = rng.uniform(0.2, 3.0)
        T = rng.uniform(0.05, 2.0)
        p = bs.ou_kernel(np.array([x]), np.array([y]), T, kappa)
        lb = bs.wang_lower_bound(np.array([x]), np.array([y]), T, kappa)
        assert p >= lb * (1.0 - 1e-12)


def test_curvature_factor_values():
    assert bs.curvature_factor(0.0, 0.7) == 0.7
    assert abs(bs.curvature_factor(1.0, 1.0) - 3.1945280494653248) < 1e-14
    assert abs(bs.curvature_factor(-1.0, 1.0) - 0.43233235838169365) < 1e-14
    # quadrature oracle on a non-special pair
    kappa, t = 0.37, 1.3
    oracle = quad(lambda s: math.exp(2.0 * kappa * s), 0.0, t)[0]
    assert abs(bs.curvature_factor(kappa, t) - oracle) < 1e-10


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
        assert np.array_equal(ker.log_matrix, ker.log_matrix.T)


def test_gibbs_kernel_matches_pointwise_formula():
    g = bs.Grid.regular([(-3.0, 3.0)], [32])
    pts = g.points()
    ker_h = bs.GibbsKernel.heat(g, T=0.4)
    ker_o = bs.GibbsKernel.ou(g, T=0.4, kappa=0.8)
    i, j = 5, 20
    assert abs(
        math.exp(ker_h.log_matrix[i, j]) - bs.heat_kernel(pts[i], pts[j], 0.4)
    ) < 1e-12
    assert abs(
        math.exp(ker_o.log_matrix[i, j]) - bs.ou_kernel(pts[i], pts[j], 0.4, 0.8)
    ) < 1e-12


def test_ou_row_mass_defect():
    # stationary measure is N(0,1): [-13,13] covers the worst row's 4.6-sigma tail
    g = bs.Grid.regular([(-13.0, 13.0)], [512])
    ker = bs.GibbsKernel.ou(g, T=0.25, kappa=1.0)
    assert ker.row_mass_defect() < 1e-4


def test_heat_interior_row_mass():
    # heat rows lose mass at the boundary; check rows >= 5.5 bandwidths inside
    g = bs.Grid.regular([(-6.0, 6.0)], [256])
    T = 0.25
    ker = bs.GibbsKernel.heat(g, T=T)
    ref = bs.ReferenceMeasure.lebesgue(g)
    log_masses = lse_matvec(ker.log_matrix, ref.log_mass())
    x = g.points()[:, 0]
    interior = np.abs(x) <= 6.0 - 5.5 * math.sqrt(2.0 * T)
    assert interior.sum() > 80
    assert np.max(np.abs(np.exp(log_masses[interior]) - 1.0)) < 1e-4


def test_apply_semigroup_preserves_constants():
    g = bs.Grid.regular([(-13.0, 13.0)], [512])
    ker = bs.GibbsKernel.ou(g, T=0.25, kappa=1.0)
    defect = ker.row_mass_defect()
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
    expected = ker.log_matrix[:, k] + ref.log_mass()[k]
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
            s += mpmath.e ** (mpmath.mpf(ker.log_matrix[i, j]) + log_f[j] + log_m[j])
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
    assert np.allclose(early.log_matrix, direct.log_matrix, atol=1e-12)
    assert abs(ker.curvature_factor() - bs.curvature_factor(0.9, 1.0)) < 1e-15


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
        assert ker.log_matrix is ker.log_factors[0]
        assert np.array_equal(ker.log_matrix.view(np.uint64),
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
        dense = ker.log_matrix
        assert dense.shape == (n, n)
        assert np.array_equal(dense, dense.T)
        old = _old_dense_log_matrix(g, kind, T, kappa)
        assert _rel_err(dense, old) <= 1e-13, (kind, T)
        for i, j in pair:
            p = (bs.heat_kernel(pts[i], pts[j], T) if kind == "heat"
                 else bs.ou_kernel(pts[i], pts[j], T, kappa))
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
        assert abs(ker.row_mass_defect() - defect) <= 1e-13


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


def test_kernel_factor_shapes_are_checked():
    with pytest.raises(ValueError):
        LogKernel((np.zeros((3, 4)),))
    g = bs.Grid.regular([(-1.0, 1.0), (-1.0, 1.0)], [4, 3])
    ker = bs.GibbsKernel.heat(g, 1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(ker, log_factors=ker.log_factors[::-1])
    with pytest.raises(ValueError):
        dataclasses.replace(ker, log_factors=(ker.log_matrix,))


def _anchored_cases(rng):
    """(kernel, anchor input) pairs: 1D heat at small time, 1D OU, and the
    asymmetric 12×9 grid with -inf entries and whole -inf grid lines."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        g1 = bs.Grid.regular([(-8.0, 10.0)], [320])
        x = g1.axes[0]
        # potential-like input: a drift of order 1/T over a Gaussian log mass
        v1 = 25.0 * x - 0.5 * x ** 2 + rng.normal(0.0, 1.0, x.size)
        yield "heat-1d", bs.GibbsKernel.heat(g1, 0.02), v1
        yield "ou-1d", bs.GibbsKernel.ou(g1, 0.3, 1.0), 0.2 * v1
        g2 = bs.Grid.regular([(-2.5, 3.5), (-1.0, 2.6)], [12, 9])
        n = g2.n_cells
        v2 = rng.normal(0.0, 3.0, n)
        v2[rng.random(n) < 0.3] = -np.inf
        v2.reshape(g2.shape)[4, :] = -np.inf
        v2.reshape(g2.shape)[:, 2] = -np.inf
        yield "heat-2d", bs.GibbsKernel.heat(g2, 1.0 / 16), v2
        yield "ou-2d", bs.GibbsKernel.ou(g2, 0.25, 0.7), v2


def _assert_matches_lse(got, K, v):
    want = K.lse(v)
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    assert _rel_err(got, want) <= 1e-13


def test_anchored_lse_matches_lse_near_its_anchor(rng):
    tau = kernels.ANCHOR_RADIUS
    for name, K, v in _anchored_cases(rng):
        op = AnchoredLSE(K)
        _assert_matches_lse(op(v), K, v)
        live = np.isfinite(v)
        for scale in (1e-6, 1.0, 0.45 * tau, 0.99 * tau):
            w = v.copy()
            w[live] += rng.uniform(-scale, scale, live.sum())
            _assert_matches_lse(op(w), K, w)
        assert op.n_anchors == 1, name


def test_anchored_lse_reanchors_past_the_radius(rng):
    tau = kernels.ANCHOR_RADIUS
    for name, K, v in _anchored_cases(rng):
        op = AnchoredLSE(K)
        op(v)
        i = int(np.flatnonzero(np.isfinite(v))[5])
        for step in (1.01 * tau, -1.01 * tau):
            w = v.copy()
            w[i] += step
            _assert_matches_lse(op(w), K, w)
        assert op.n_anchors == 3, name
        # the last anchor serves its own neighbourhood again
        _assert_matches_lse(op(w + 0.5), K, w + 0.5)
        assert op.n_anchors == 3, name


def test_anchored_lse_reanchors_on_a_new_inf_pattern(rng):
    for name, K, v in _anchored_cases(rng):
        op = AnchoredLSE(K)
        op(v)
        fin = np.flatnonzero(np.isfinite(v))
        w = v.copy()
        w[fin[3]] = -np.inf                  # one more -inf entry
        _assert_matches_lse(op(w), K, w)
        u = w.copy()
        u[fin[3]] = w[fin[4]]                # live again: the pattern of v
        _assert_matches_lse(op(u), K, u)
        assert op.n_anchors == 3, name
        dead = np.full(v.size, -np.inf)      # no mass at all
        assert np.all(np.isneginf(op(dead)))
        assert np.all(np.isneginf(op(dead)))
        assert op.n_anchors == 4, name


def test_forced_reanchor_is_lse_bit_for_bit(rng, monkeypatch):
    # with a negative radius every call re-anchors: the log-domain path
    monkeypatch.setattr(kernels, "ANCHOR_RADIUS", -1.0)
    for name, K, v in _anchored_cases(rng):
        op = AnchoredLSE(K)
        for w in (v, v + 1e-9, v - 3.0):
            assert np.array_equal(op(w).view(np.uint64),
                                  K.lse(w).view(np.uint64)), name
        assert op.n_anchors == 3, name
