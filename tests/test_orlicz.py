"""Luxemburg norms, the conjugate-norm identity, and log-integrability bounds."""

import math

import numpy as np
import pytest

import bridgestab as bs
from bridgestab.orlicz import (
    OrliczContext,
    VARIANTS,
    log_integrability_bound,
    luxemburg_norm,
    theta,
    theta_star,
)


def dirichlet(rng, n, alpha=1.0):
    w = rng.gamma(alpha, 1.0, n)
    return w / w.sum()


def random_context(seed, n=16, exp_lo=0.5, exp_hi=2.0, kind="general"):
    rng = np.random.default_rng(seed)
    q = dirichlet(rng, n)
    tilt = rng.normal(0.0, 0.5, n)
    p_raw = q * np.exp(tilt)
    p = p_raw / p_raw.sum()
    if kind == "general":
        h = np.exp(0.8 * rng.normal(0.0, 1.0, n))
    elif kind == "above":
        h = np.exp(np.abs(rng.normal(0.0, 1.0, n)) + 1e-3)
    elif kind == "below":
        h = np.exp(-np.abs(rng.normal(0.0, 1.0, n)) - 1e-3)
    else:
        raise ValueError(kind)
    p_exp = rng.uniform(exp_lo, exp_hi)
    q_exp = rng.uniform(exp_lo, exp_hi)
    return OrliczContext(q, p, h, p_exp, q_exp)


def test_young_pair_values():
    assert theta(0.0) == 0.0
    assert abs(theta(1.0) - (math.e - 1.0)) < 1e-15
    assert theta_star(0.0) == 1.0
    assert theta_star(1.0) == 0.0
    # theta* is the convex conjugate: s t <= theta(t) + theta*(s)
    for s in (0.0, 0.3, 1.0, 2.0, 7.5):
        for t in (0.0, 0.1, 0.5, 1.0, 3.0):
            assert s * t <= theta(t) + theta_star(s) + 1e-12


def test_luxemburg_norm_zero():
    q = np.full(8, 0.125)
    assert luxemburg_norm(np.zeros(8), q) == 0.0


def test_luxemburg_norm_scaling(rng):
    q = dirichlet(rng, 32)
    f = rng.normal(0.0, 1.0, 32)
    base = luxemburg_norm(f, q)
    for c in (0.5, 2.0, -1.5):
        got = luxemburg_norm(c * f, q)
        assert abs(got - abs(c) * base) < 1e-9 * base


def test_luxemburg_norm_bracket_validity(rng):
    q = dirichlet(rng, 24)
    f = rng.normal(0.0, 2.0, 24)
    for young in (theta, theta_star):
        fn = np.exp(np.abs(f)) if young is theta_star else f
        b = luxemburg_norm(fn, q, young=young)
        integral = float(q @ young(np.abs(fn) / b))
        assert 1.0 - 1e-8 <= integral <= 1.0 + 1e-12


def test_conjugate_norm_identity_battery():
    # || dp/dq ||_{theta*} = e^{H(p|q) - 1}
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 64))
        q = dirichlet(rng, n)
        p = dirichlet(rng, n)
        got = bs.density_conjugate_norm(p, q)
        H = float(np.sum(p * np.log(p / q)))
        assert abs(math.log(got) + 1.0 - H) < 1e-6, seed


def test_hand_instance_two_cells():
    q = np.array([0.5, 0.5])
    p = np.array([0.75, 0.25])
    h = np.array([2.0, 0.5])
    ctx = OrliczContext(q, p, h, 1.0, 1.0)
    assert abs(ctx.lhs() - math.log(2.0)) < 1e-14
    assert abs(ctx.entropy() - 0.13081203594113697) < 1e-14
    # ||h||_1 = ||1/h||_1 = 1.25 and q{h >= 1} = 1/2 make all three finite-
    # lambda bounds collapse to 2 e^{H-1} log2(2.5)
    for variant in ("B1", "B1_no_measure", "final"):
        rep = log_integrability_bound(ctx, variant)
        assert rep.passed
        assert abs(rep.rhs - 1.1085474616849236) < 1e-10
        assert abs(rep.lhs - math.log(2.0)) < 1e-14


def test_bound_batteries_all_variants():
    for seed in range(30):
        ctx = random_context(seed, kind="general")
        for variant in ("B1", "B1_no_measure"):
            rep = log_integrability_bound(ctx, variant)
            assert rep.passed, (seed, variant, rep.slack)
        if min(ctx.p_exp, ctx.q_exp) <= 1.0:
            rep = log_integrability_bound(ctx, "final")
            assert rep.passed, (seed, "final", rep.slack)


def test_bound_batteries_extreme_cases():
    for seed in range(30):
        for kind in ("above", "below"):
            ctx = random_context(seed + 1000, kind=kind)
            for variant in ("B1", "B1_no_measure", "extreme"):
                rep = log_integrability_bound(ctx, variant)
                assert rep.passed, (seed, kind, variant, rep.slack)
                lam = rep.extras["lambda"]
                assert lam == (1.0 if kind == "above" else 0.0)


def test_final_variant_requires_small_exponent():
    ctx = random_context(3, exp_lo=1.5, exp_hi=2.0)
    assert min(ctx.p_exp, ctx.q_exp) > 1.0
    with pytest.raises(ValueError):
        log_integrability_bound(ctx, "final")


def test_extreme_variant_requires_one_sided_h():
    ctx = random_context(7, kind="general")
    lam_mass = ctx.q_weights[ctx.h >= 1.0].sum()
    assert 0.0 < lam_mass < 1.0
    with pytest.raises(ValueError):
        log_integrability_bound(ctx, "extreme")


def test_unknown_variant_rejected():
    ctx = random_context(0)
    assert set(VARIANTS) == {"B1", "B1_no_measure", "final", "extreme"}
    with pytest.raises(ValueError):
        log_integrability_bound(ctx, "nope")


def test_variant_ordering_probe(capsys):
    # informational: how the three general-case bounds compare in practice
    rows = []
    for seed in range(20):
        ctx = random_context(seed, exp_lo=0.5, exp_hi=1.0)
        rhs = {v: log_integrability_bound(ctx, v).rhs
               for v in ("B1", "B1_no_measure", "final")}
        rows.append(rhs)
    tightest = [min(r, key=r.get) for r in rows]
    print("tightest variant counts:",
          {v: tightest.count(v) for v in ("B1", "B1_no_measure", "final")})
    # no assertion: none of the three dominates in general


def test_orlicz_young_inequality(rng):
    q = dirichlet(rng, 64)
    f = rng.normal(0.0, 1.5, 64)
    g = np.exp(rng.normal(0.0, 1.0, 64))
    rep = bs.orlicz_young_check(f, g, q)
    assert rep.passed
    zero = bs.orlicz_young_check(np.zeros(64), g, q)
    assert zero.passed and zero.lhs == 0.0


def test_orlicz_young_on_bound_ingredients():
    # the pairing used inside the log-integrability proof: f = log h against
    # g = dp/dq
    ctx = random_context(11, kind="general")
    rep = bs.orlicz_young_check(np.log(ctx.h), ctx.p_weights / ctx.q_weights,
                                ctx.q_weights)
    assert rep.passed
    assert rep.lhs >= ctx.lhs() - 1e-12  # |log h| dp is the pairing's lhs


def test_context_accepts_discrete_measures(grid128):
    mu = bs.gaussian_measure(grid128, [0.0], 1.0)
    nu = bs.gaussian_measure(grid128, [0.3], 1.1)
    # luxemburg_norm accepts a DiscreteMeasure base directly
    f = np.log1p(np.abs(grid128.points()[:, 0]))
    n1 = luxemburg_norm(f, mu)
    n2 = luxemburg_norm(f, mu.weights)
    assert n1 == n2
    got = bs.density_conjugate_norm(nu, mu)
    supp = mu.support()
    H = float(np.sum(nu.weights[supp]
                     * np.log(nu.weights[supp] / mu.weights[supp])))
    assert abs(math.log(got) + 1.0 - H) < 1e-6


def test_context_coerces_its_fields_once():
    # lists, column arrays and int arrays become flat float arrays in
    # __post_init__, which every later method relies on
    ctx = OrliczContext(q_weights=[0.5, 0.5], p_weights=[[0.25], [0.75]],
                        h=np.array([2, 1]), p_exp=1.0, q_exp=2.0)
    for a in (ctx.q_weights, ctx.p_weights, ctx.h):
        assert a.dtype == float and a.shape == (2,)
    assert ctx.lhs() == 0.25 * math.log(2.0)
    assert abs(ctx.entropy() - (0.25 * math.log(0.5)
                                + 0.75 * math.log(1.5))) < 1e-15
    assert log_integrability_bound(ctx).passed


def test_context_validation():
    q = np.array([0.5, 0.5])
    p = np.array([0.75, 0.25])
    with pytest.raises(ValueError):
        OrliczContext(q, p, np.array([2.0, -0.5]), 1.0, 1.0)  # negative h
    with pytest.raises(ValueError):
        OrliczContext(q, p, np.array([2.0, 0.5]), 0.0, 1.0)  # bad exponent
    with pytest.raises(ValueError):
        OrliczContext(q, np.array([0.75, 0.25, 0.0]), np.array([2.0, 0.5]),
                      1.0, 1.0)  # shape mismatch
