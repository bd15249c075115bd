"""Orlicz norms for the exponential Young pair and log-integrability bounds.

Young functions:  θ(t) = e^t - 1  and its conjugate
θ*(s) = s·log s - s + 1 for s > 0, θ*(0) = 1.  The Luxemburg norm

    ‖f‖_θ = inf{ b > 0 : ∫ θ(|f|/b) dq ≤ 1 }

is computed by guarded bisection.  Two exact facts anchor the module: the
conjugate norm of a density is ‖dp/dq‖_{θ*} = e^{H(p|q)-1}, and the
Orlicz–Young inequality ∫|fg| dq ≤ 2‖f‖_θ‖g‖_{θ*}.  On top of these sit
four variants of the bound on ∫|log h| dp in terms of e^{H(p|q)-1} and the
L^q/L^p norms of h and 1/h — quantitative log-integrability estimates.

Everything here works on plain weight vectors over an abstract finite
probability space; no grid structure is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, xlogy


def theta(t):
    """θ(t) = e^t - 1 (elementwise, t ≥ 0)."""
    return np.expm1(t)


def theta_star(s):
    """θ*(s) = s·log s - s + 1 for s > 0, θ*(0) = 1 (elementwise, s ≥ 0)."""
    s = np.asarray(s, dtype=float)
    return np.where(s > 0.0, xlogy(s, s) - s + 1.0, 1.0)


def _weights_of(x) -> np.ndarray:
    """Weight vector of a DiscreteMeasure, or the array itself."""
    return np.asarray(getattr(x, "weights", x), dtype=float).ravel()


_YOUNG = {"theta": theta, "theta_star": theta_star}


def _young_fn(which):
    if isinstance(which, str):
        if which not in _YOUNG:
            raise ValueError(f"unknown Young function {which!r}; "
                             f"pick from {tuple(_YOUNG)}")
        return _YOUNG[which]
    return which


def _check_probability(q: np.ndarray, name: str):
    if np.any(q < 0) or not np.all(np.isfinite(q)):
        raise ValueError(f"{name} must be finite and nonnegative")
    if abs(q.sum() - 1.0) > 1e-10:
        raise ValueError(f"{name} must sum to 1 (got {q.sum()!r})")


def relative_entropy_weights(p: np.ndarray, q: np.ndarray) -> float:
    """H(p|q) for plain probability vectors (+inf unless supp p ⊆ supp q)."""
    s = p > 0
    if np.any(q[s] <= 0):
        return math.inf
    return float(np.sum(xlogy(p[s], p[s] / q[s])))


def luxemburg_norm(f: np.ndarray, base, young=theta) -> float:
    """Luxemburg norm of f over the probability base, by bisection.

    ``base`` is a DiscreteMeasure or a plain weight vector; ``young`` is a
    callable or one of the names "theta" / "theta_star".  The returned value
    b satisfies ∫ young(|f|/b) d(base) ∈ [1 - 1e-8, 1] and the final bracket
    has relative width ≤ 1e-10.
    """
    young = _young_fn(young)
    f = np.abs(np.asarray(f, dtype=float)).ravel()
    q = _weights_of(base)
    _check_probability(q, "base measure")
    sup = float(f.max(initial=0.0))
    if sup == 0.0:
        return 0.0

    def integral(b: float) -> float:
        with np.errstate(over="ignore"):
            return float(q @ young(f / b))

    lo = 1e-8 * sup
    hi = 1e8 * sup
    # escape the initial bracket if needed (doubling / halving)
    for _ in range(200):
        if integral(hi) <= 1.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RuntimeError("Luxemburg bracket escape failed (upper)")
    for _ in range(200):
        if integral(lo) > 1.0:
            break
        lo, hi = 0.5 * lo, lo
    else:
        raise RuntimeError("Luxemburg bracket escape failed (lower)")

    # invariant: integral(lo) > 1 >= integral(hi)
    for _ in range(500):
        if hi - lo <= 1e-10 * hi and integral(hi) >= 1.0 - 1e-8:
            break
        mid = 0.5 * (lo + hi)
        if integral(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    else:
        raise RuntimeError("Luxemburg bisection did not settle")
    return hi


def density_conjugate_norm(p, q) -> float:
    """‖dp/dq‖_{θ*} computed by bisection (identity target: e^{H(p|q)-1})."""
    q = _weights_of(q)
    p = _weights_of(p)
    ratio = np.zeros_like(p)
    pos = q > 0
    if np.any(p[~pos] > 0):
        raise ValueError("p must be absolutely continuous w.r.t. q")
    ratio[pos] = p[pos] / q[pos]
    return luxemburg_norm(ratio, q, young=theta_star)


def orlicz_young_check(f: np.ndarray, g: np.ndarray, base):
    """Report for ∫|fg| d(base) ≤ 2‖f‖_θ‖g‖_{θ*}."""
    from .reports import make_report
    q = _weights_of(base)
    lhs = float(q @ np.abs(np.asarray(f).ravel() * np.asarray(g).ravel()))
    nf = luxemburg_norm(f, q, young=theta)
    ng = luxemburg_norm(g, q, young=theta_star)
    rhs = 2.0 * nf * ng
    return make_report("orlicz_young", lhs, rhs,
                       extras={"norm_theta": nf, "norm_theta_star": ng})


# ---------------------------------------------------------------------------
# log-integrability bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrliczContext:
    """Data for the log-integrability bounds: ∫|log h| dp vs H(p|q) and
    the L^q(q)/L^p(q) norms of h and 1/h."""

    q_weights: np.ndarray       # base probability q (measure or weights)
    p_weights: np.ndarray       # probability p with H(p|q) < inf
    h: np.ndarray               # positive function on supp q
    p_exp: float                # exponent p  (for ‖h^{-1}‖_{L^p(q)})
    q_exp: float                # exponent q  (for ‖h‖_{L^q(q)})

    def __post_init__(self):
        q = _weights_of(self.q_weights)
        p = _weights_of(self.p_weights)
        h = np.asarray(self.h, dtype=float).ravel()
        object.__setattr__(self, "q_weights", q)
        object.__setattr__(self, "p_weights", p)
        object.__setattr__(self, "h", h)
        if not (q.shape == p.shape == h.shape):
            raise ValueError("q, p and h must share one shape")
        _check_probability(q, "q_weights")
        _check_probability(p, "p_weights")
        if self.p_exp <= 0 or self.q_exp <= 0:
            raise ValueError("exponents must be positive")
        if np.any(h[q > 0] <= 0) or not np.all(np.isfinite(h)):
            raise ValueError("h must be positive and finite on supp q")
        if math.isinf(relative_entropy_weights(p, q)):
            raise ValueError("H(p|q) must be finite (supp p ⊆ supp q)")

    def entropy(self) -> float:
        return relative_entropy_weights(np.asarray(self.p_weights, float),
                                        np.asarray(self.q_weights, float))

    def lhs(self) -> float:
        p = np.asarray(self.p_weights, dtype=float)
        h = np.asarray(self.h, dtype=float)
        s = p > 0
        return float(p[s] @ np.abs(np.log(h[s])))


def _lp_norm(values: np.ndarray, q: np.ndarray, e: float) -> float:
    """(∫ values^e dq)^{1/e} on supp q, by direct power sums."""
    s = q > 0
    with np.errstate(over="ignore"):
        total = float(q[s] @ np.asarray(values, float)[s] ** e)
    if math.isinf(total):
        return math.inf
    return total ** (1.0 / e)


def _lp_norm_log(values: np.ndarray, q: np.ndarray, e: float) -> float:
    """Same norm assembled in the log domain (independent route)."""
    s = q > 0
    v = np.asarray(values, float)[s]
    return float(np.exp(logsumexp(np.log(q[s]) + e * np.log(v)) / e))


def _checked_norm(values, q, e, label: str) -> float:
    direct = _lp_norm(values, q, e)
    if math.isinf(direct):
        return direct
    other = _lp_norm_log(values, q, e)
    if abs(direct - other) > 1e-10 * max(1.0, abs(direct)):
        raise AssertionError(
            f"{label}: norm assemblies disagree ({direct!r} vs {other!r})")
    return direct


VARIANTS = ("B1", "B1_no_measure", "final", "extreme")


def log_integrability_bound(ctx: OrliczContext, variant: str = "B1"):
    """Report for one variant of the ∫|log h| dp bound.

    B1             uses the set masses q{h≥1}, q{h<1} explicitly;
    B1_no_measure  removes them at the price of a 1/(p∧q) prefactor;
    final          needs p∧q ≤ 1, with the (log₂((‖h‖+‖1/h‖)/2))⁺ form;
    extreme        needs q{h≥1} ∈ {0,1} and uses a single norm.

    In B1 a set of q-mass zero contributes 0 (its restricted integral
    vanishes), irrespective of the sign of the exponent on the mass factor.
    """
    from .reports import make_report
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
    q = np.asarray(ctx.q_weights, dtype=float)
    h = np.asarray(ctx.h, dtype=float)
    pe, qe = ctx.p_exp, ctx.q_exp

    ent = ctx.entropy()
    coeff = 2.0 * math.exp(ent - 1.0)
    # normalize by the total so that the all/none cases give exactly 1/0
    # (a raw partial sum can exceed 1 by roundoff, and a negative 1-λ
    # raised to a fractional power would go complex)
    lam = min(max(float(q[h >= 1.0].sum() / q.sum()), 0.0), 1.0)
    norm_h = _checked_norm(h, q, qe, "|h|_Lq")
    with np.errstate(divide="ignore"):
        h_inv = np.where(q > 0, 1.0 / h, 0.0)
    norm_hinv = _checked_norm(h_inv, q, pe, "|1/h|_Lp")
    mn = min(pe, qe)

    if variant == "B1":
        t_pos = 0.0 if lam == 0.0 else lam ** (1.0 - 1.0 / qe) * norm_h
        t_neg = 0.0 if lam == 1.0 else (1.0 - lam) ** (1.0 - 1.0 / pe) \
            * norm_hinv
        arg = t_pos + t_neg
        rhs = coeff * max(1.0 / min(1.0, pe, qe), math.log2(arg))
    elif variant == "B1_no_measure":
        arg = norm_h ** mn + norm_hinv ** mn
        rhs = (coeff / mn) * max(1.0, math.log2(arg))
    elif variant == "final":
        if mn > 1.0:
            raise ValueError("the final bound needs p ∧ q ≤ 1")
        rhs = coeff * (1.0 / mn
                       + max(0.0, math.log2(0.5 * (norm_h + norm_hinv))))
    else:  # extreme
        if lam == 1.0:
            rhs = coeff * max(1.0 / mn, math.log2(norm_h))
        elif lam == 0.0:
            rhs = coeff * max(1.0 / mn, math.log2(norm_hinv))
        else:
            raise ValueError("the extreme bound needs q{h≥1} ∈ {0, 1}")

    return make_report(
        f"log_integrability_{variant}", ctx.lhs(), rhs,
        tol_abs=1e-10, tol_rel=0.0,
        extras={"entropy": ent, "lambda": lam, "norm_h_Lq": norm_h,
                "norm_hinv_Lp": norm_hinv, "p_exp": pe, "q_exp": qe})
