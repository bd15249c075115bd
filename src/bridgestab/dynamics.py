"""Entropic interpolations and dynamic consequences of a solved bridge.

For a converged Schrödinger system (φ, ψ) the time marginals of the bridge
are ρ_t = P_t e^φ · P_{T-t} e^ψ · m.  This module computes them and checks:

* the dynamic cost identity   C_T = H(ν|m) + ∫_0^T α(t) dt   with
  α(t) = ∫ |∇ log P_t e^φ|² dρ_t  (midpoint rule in t);
* the exponential drift decay  α(T) ≤ e^{-2κ(T-t)} α(t)  at every mesh
  point (monotone α when κ = 0);
* the small-time limit  T·C_T → W2²(μ,ν)/4  along a list of times;
* convergence of the Schrödinger map  Id - 2T∇φ^T  to the monotone
  (Brenier) rearrangement as T ↓ 0, in L²(μ) on the line.

The last two solve their list of times as one T-ladder that starts from
the T → 0 limit, the Kantorovich potential (`_solves_along`).

Each check asks `SchrodingerSolution.log_slices` for its time mesh in runs
of rows of at most 2^20 entries (`stack_runs`: one run for 64 times up to
128×128 cells), α(t) is computed for all new times of a run together, and
it is memoized per t on the solution, so the checks share slices and α.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import GibbsKernel
from .measures import (MASS_FLOOR, DiscreteMeasure, Grid, grad_sq_norm,
                       masked_gradient)
from .reports import InequalityReport, make_equality_report, make_report
from .schrodinger import (SchrodingerSolution, require_converged, solve,
                          stack_runs)
from .sobolev import w2_atoms, wasserstein2_1d


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

@dataclass
class EntropicInterpolation:
    """Bridge time marginals on a common grid.

    ``densities[k]`` holds the raw cell weights of ρ_{times[k]} (no
    renormalization; ``masses`` records how far each slice is from 1).
    """

    grid: Grid
    times: np.ndarray
    densities: np.ndarray
    masses: np.ndarray


def _density_weights(sol, lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Cell weights of ρ_t = e^{lp + lq}·m (0 where a slice is -inf), one
    row per row of the slice stacks."""
    return np.exp(lp + lq + sol.reference.log_mass())


def interpolate(sol: SchrodingerSolution,
                n_times: int) -> EntropicInterpolation:
    """ρ_t on an inclusive uniform time mesh 0 = t_0 < … < t_{n-1} = T."""
    require_converged(sol)
    if n_times < 2:
        raise ValueError("need at least two time slices")
    times = np.linspace(0.0, sol.T, n_times)
    dens = np.empty((n_times, sol.mu.grid.n_cells))
    for run in stack_runs(n_times, sol.mu.grid.n_cells):
        dens[run] = _density_weights(sol, *sol.log_slices(times[run]))
    return EntropicInterpolation(grid=sol.mu.grid, times=times,
                                 densities=dens, masses=dens.sum(axis=1))


# ---------------------------------------------------------------------------
# dynamic cost identity and drift decay
# ---------------------------------------------------------------------------

_IDENTITY_REL_TOL = 0.02     # relative gate of C_T = H(ν|m) + ∫α dt
_DECAY_REL_JITTER = 1e-3     # decay violation allowed, per max α
_DECAY_TIMES = 16            # mesh points of the decay check, on (0, T]


def _alphas(sol: SchrodingerSolution, times) -> np.ndarray:
    """α(t) = ∫ |∇ log P_t e^φ|² dρ_t at each t (ρ_T = ν by the marginal
    constraint), memoized per t on the solution.  The new times go in the
    runs of `stack_runs`, and each run shares one stack of slices, density
    weights and gradients; each α is one dot product of its row."""
    ts = [float(t) for t in times]
    new = [t for t in dict.fromkeys(ts) if t not in sol._alphas]
    for run in stack_runs(len(new), sol.mu.grid.n_cells):
        part = new[run]
        lp, lq = sol.log_slices(part)
        w = _density_weights(sol, lp, lq)
        floor = np.full((len(part), 1), MASS_FLOOR)
        if sol.T in part:
            k = part.index(sol.T)
            w[k], floor[k] = sol.nu.weights, 0.0
        g = grad_sq_norm(lp, sol.mu.grid, w > floor)
        sol._alphas.update((t, float(w[k] @ g[k]))
                           for k, t in enumerate(part))
    return np.array([sol._alphas[t] for t in ts])


def dynamic_cost_check(sol: SchrodingerSolution, n_slices: int = 64
                       ) -> tuple[InequalityReport, list[dict]]:
    """Midpoint-rule check of C_T = H(ν|m) + ∫_0^T α(t) dt."""
    require_converged(sol)
    if n_slices < 1:
        raise ValueError("need at least one slice")
    T = sol.T
    mids = (np.arange(n_slices) + 0.5) * (T / n_slices)
    rows = []
    total = 0.0
    for t, a in zip(mids.tolist(), _alphas(sol, mids).tolist()):
        rows.append({"t": t, "alpha": a})
        total += a
    integral = (T / n_slices) * total
    lhs = sol.entropic_cost()
    rhs = sol.h_nu + integral
    # absolute floor: a stationary bridge has both sides ~ 0 where a purely
    # relative gate would compare rounding noise against itself
    report = make_equality_report(
        "bbs_identity", lhs, rhs, rel_tol=_IDENTITY_REL_TOL, abs_tol=1e-8,
        extras={"entropy_nu": sol.h_nu, "drift_integral": integral,
                "n_slices": n_slices})
    return report, rows


def gronwall_decay_check(sol: SchrodingerSolution
                         ) -> tuple[InequalityReport, list[dict]]:
    """α(T) ≤ e^{-2κ(T-t)} α(t) at the mesh points t = kT/_DECAY_TIMES,
    k = 1, ..., _DECAY_TIMES; monotone α at κ = 0.

    The violation is measured additively and compared against a jitter
    budget of _DECAY_REL_JITTER · max α; the final mesh point evaluates α(T)
    against ν, as the corrector lhs does.
    """
    require_converged(sol)
    kappa = sol.kernel.kappa
    T = sol.T
    times = np.linspace(0.0, T, _DECAY_TIMES + 1)[1:]  # endpoint T
    alphas = _alphas(sol, times)
    alpha_T = alphas[-1]

    # violation of the decay bound against the endpoint
    bound = np.exp(2.0 * kappa * (T - times)) * alpha_T
    viol = float(np.max(bound - alphas))
    if kappa == 0.0:
        # flat curvature: the whole curve must be non-increasing
        viol = max(viol, float(np.max(np.diff(alphas))))

    budget = _DECAY_REL_JITTER * float(np.max(alphas)) + 1e-12
    report = make_report(
        "gronwall_decay", viol, 0.0, tol_abs=budget, tol_rel=0.0,
        extras={"alpha_final": alpha_T, "alpha_max": float(np.max(alphas)),
                "kappa": kappa, "jitter_budget": budget})
    rows = [{"t": float(t), "alpha": float(a),
             "endpoint_bound": float(b)}
            for t, a, b in zip(times, alphas, bound)]
    return report, rows


# ---------------------------------------------------------------------------
# small-time limits
# ---------------------------------------------------------------------------

def _eot_scale(T: float, kappa: float) -> tuple[float, float]:
    """(ε, k) of the SP↔EOT dictionary at time T: the kernel's log factor
    is  c - |x - y|²/ε + k(x² + y²)  with ε = 4 sinh(κT)/κ and
    k = 1/ε - w = κ/(2(e^{κT} + 1)), w = κ/(2(e^{2κT} - 1)) the factor's
    quadratic weight; heat is the κ → 0 case, ε = 4T and k = 0."""
    if kappa == 0.0:
        return 4.0 * T, 0.0
    return (4.0 * math.sinh(kappa * T) / kappa,
            kappa / (2.0 * (math.exp(kappa * T) + 1.0)))


def _kantorovich_rung(mu: DiscreteMeasure, nu: DiscreteMeasure,
                      epsilon: float, k: float) -> np.ndarray:
    """ε·(ψ₀ + q) on supp ν for the T → 0 limit ψ₀ = g_K/ε - q + c of
    `_solves_along` (1D, O(n)).

    g_K is the Kantorovich potential of (μ, ν) for |x - y|², with
    g_K'(y) = 2(y - S(y)): S is the quantile map ν → μ, read off μ's
    piecewise-linear cell CDF (edges from the grid's cell widths) at ν's
    mass midpoints, and g_K is its trapezoid integral over supp ν.  The
    constant c puts (φ₀, ψ₀) = (f_K/ε - q_μ - c, g_K/ε - q + c) in the
    symmetric gauge of `solve`; with ∫f_K dμ = W2² - ∫g_K dν (W2² by the
    same S) the entropies cancel and
    2c = (W2² - 2∫g_K dν)/ε - k(M2(μ) - M2(ν)).
    """
    x, width = mu.grid.axes[0], mu.grid.axis_weights[0]
    edges = x[0] - 0.5 * width[0] + np.concatenate(([0.0], np.cumsum(width)))
    cdf = np.concatenate(([0.0], np.cumsum(mu.weights)))
    s = nu.support()
    y, v = x[s], nu.weights[s]
    gap = y - np.interp(np.cumsum(v) - 0.5 * v, cdf, edges)   # y - S(y)
    g = np.concatenate(([0.0], np.cumsum(np.diff(y) * (gap[1:] + gap[:-1]))))
    G = float(v @ g)
    w2sq = float(v @ gap ** 2)
    m2 = float(mu.weights @ x ** 2) - float(v @ y ** 2)
    return g + 0.5 * (w2sq - 2.0 * G - epsilon * k * m2)


def _solves_along(mu: DiscreteMeasure, nu: DiscreteMeasure, T_list,
                  kappa: float, tol: float, max_iter: int):
    """Converged solutions at each T of ``T_list``, in order.

    Every T starts near its solution through the SP↔EOT dictionary
    (`_eot_scale`): with q = k·y² + log m - log ν on supp ν, ψ + q is the
    EOT potential b of (μ, ν) at ε up to a constant, and ε·b tends to the
    Kantorovich potential g_K as T ↓ 0.  The first T starts from that
    limit, ψ₀ = g_K/ε - q + c (`_kantorovich_rung`); each later T keeps
    ε·b of the previous solution, ψ' = (ψ + q)·ε/ε' - q'.  Raises
    NotConverged at the first T that does not converge.
    """
    s = nu.support()
    y = mu.grid.axes[0][s]
    log_nu = np.log(nu.weights[s])
    eb = None                          # ε·(ψ + q) on supp ν
    for T in T_list:
        kern = GibbsKernel.heat(mu.grid, T) if kappa == 0.0 \
            else GibbsKernel.ou(mu.grid, T, kappa)
        eps, k = _eot_scale(T, kappa)
        q = k * y ** 2 + kern.reference.log_mass()[s] - log_nu
        if eb is None:
            eb = _kantorovich_rung(mu, nu, eps, k)
        init = np.zeros(s.size)
        init[s] = eb / eps - q
        sol = solve(mu, nu, kern, tol=tol, max_iter=max_iter, init_psi=init)
        require_converged(sol)
        yield sol
        eb = eps * (sol.psi[s] + q)


def small_time_cost_curve(mu: DiscreteMeasure, nu: DiscreteMeasure,
                          T_list, kappa: float = 0.0, tol: float = 1e-9,
                          max_iter: int = 100_000) -> list[dict]:
    """T·C_T against W2²/4 along decreasing times (1D grids).

    Returns one row per T with the relative gap; rows keep the order of
    ``T_list``.  κ = 0 uses the heat kernel, κ > 0 the OU kernel.  The
    solves run as one T-ladder (`_solves_along`): the first T starts from
    the Kantorovich potential, the T → 0 limit, and each later T from the
    solution before it.  Raises ValueError when W2(μ, ν) = 0, where the
    relative gap is undefined.
    """
    if mu.grid.ndim != 1:
        raise ValueError("the small-time curve uses the exact 1D W2")
    target = 0.25 * wasserstein2_1d(mu, nu) ** 2
    if not target > 0.0:
        raise ValueError("mu and nu coincide (W2 = 0), so the relative gap "
                         "of the small-time curve is undefined")
    rows = []
    for sol in _solves_along(mu, nu, T_list, kappa, tol, max_iter):
        tct = sol.T * sol.entropic_cost()
        gap = tct - target
        rows.append({
            "T": float(sol.T), "t_times_cost": tct, "w2sq_over_4": target,
            "gap": gap, "rel_gap": gap / target,
            "residual": sol.marginal_residual, "n_iter": sol.n_iter,
            "underresolved": sol.kernel.underresolved,
        })
    return rows


# ---------------------------------------------------------------------------
# Schrödinger maps versus the monotone rearrangement
# ---------------------------------------------------------------------------

@dataclass
class TransportMapPair:
    """Schrödinger map Id - 2T∇φ^T next to a Brenier map on supp μ."""

    T: float
    support_points: np.ndarray
    support_weights: np.ndarray
    schrodinger_map: np.ndarray
    brenier_map: np.ndarray
    l2_error: float
    pushforward_w2: float


def monotone_rearrangement(mu: DiscreteMeasure,
                           nu: DiscreteMeasure) -> np.ndarray:
    """Brenier map on the line: mass-midpoint CDF values of μ pushed
    through the quantile function of ν.  Defined on supp μ."""
    if mu.grid.ndim != 1:
        raise ValueError("the monotone rearrangement is one-dimensional")
    x = mu.grid.axes[0]
    s = mu.support()
    cum = np.cumsum(mu.weights)
    mid = cum[s] - 0.5 * mu.weights[s]
    cum_nu = np.cumsum(nu.weights)
    idx = np.minimum(np.searchsorted(cum_nu, mid, side="left"), x.size - 1)
    return x[idx]


def schrodinger_map(sol: SchrodingerSolution) -> tuple[np.ndarray, np.ndarray]:
    """(support indices, map values) of Id - 2T∇φ^T on supp μ (1D)."""
    if sol.mu.grid.ndim != 1:
        raise ValueError("map experiments are one-dimensional")
    s = sol.mu.support()
    grad = masked_gradient(sol.phi, sol.mu.grid, s)[0]
    x = sol.mu.grid.axes[0]
    return np.flatnonzero(s), (x - 2.0 * sol.T * grad)[s]


def gradient_convergence_experiment(mu: DiscreteMeasure, nu: DiscreteMeasure,
                                    T_list, kappa: float,
                                    brenier=None, tol: float = 1e-9,
                                    max_iter: int = 100_000
                                    ) -> tuple[list[dict],
                                               list[TransportMapPair]]:
    """L²(μ) distance of the Schrödinger map to the Brenier map along T ↓ 0.

    ``brenier`` is an optional callable x ↦ τ(x) (for analytic oracles);
    the default is the grid monotone rearrangement of (μ, ν).  The solves
    run as the T-ladder of `small_time_cost_curve` (`_solves_along`).
    """
    if mu.grid.ndim != 1:
        raise ValueError("map experiments are one-dimensional")
    x = mu.grid.axes[0]
    s_idx = np.flatnonzero(mu.support())
    tau = np.asarray(brenier(x[s_idx]), dtype=float) if brenier is not None \
        else monotone_rearrangement(mu, nu)
    w = mu.weights[s_idx]

    rows, pairs = [], []
    for sol in _solves_along(mu, nu, T_list, kappa, tol, max_iter):
        T = sol.T
        idx, smap = schrodinger_map(sol)
        assert np.array_equal(idx, s_idx)
        err = math.sqrt(float(w @ (smap - tau) ** 2))
        push_w2 = w2_atoms(smap, w, nu.grid.axes[0], nu.weights)
        rows.append({"T": float(T), "l2_error": err,
                     "pushforward_w2": push_w2,
                     "residual": sol.marginal_residual,
                     "n_iter": sol.n_iter,
                     "underresolved": sol.kernel.underresolved})
        pairs.append(TransportMapPair(
            T=float(T), support_points=x[s_idx], support_weights=w,
            schrodinger_map=smap, brenier_map=tau, l2_error=err,
            pushforward_w2=push_w2))
    return rows, pairs
