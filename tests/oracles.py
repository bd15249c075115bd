"""Reference paths that the fast paths of `bridgestab` must match.

* Pointwise transition densities (`heat_kernel`, `ou_kernel`) and the
  Wang lower bound on the OU log density: the references of the dense and
  separable kernels (`GibbsKernel.log_matrix`, `LogKernel.lse`).
* `row_mass_defect`: how far a kernel's rows are from unit mass against
  its reference measure, the quadrature bound that `apply_semigroup` of a
  constant must respect.
* `measure_to_csv`: the writer that `measure_from_csv` must read back
  exactly.
* `wasserstein2_exact_small`: W2 by a dense transport LP on small
  supports, the reference of the quantile W2 (`wasserstein2_1d`).
* `plan_relative_entropy`: H(π | ρ) of two dense plans; the sum of the two
  relative entropies is the reference of the one-pass symmetric entropy
  (`plan_symmetric_entropy`), and H(π | R) that of the dual costs.
* `log_domain_sinkhorn`: the anchored Sinkhorn loop with every half-step
  in the log domain, each potential moved by ω times its update and
  each reduction an `AnchoredLSE` call; the reference of the loop that
  keeps its potentials as weights against the anchors between them
  (`schrodinger._sinkhorn`).
* `zeroth_order_ladder`: the T-ladder that carries only ε·b from rung to
  rung, each rung an array start at ω = 1; the reference of the ladder
  whose solution starts continue first order in ε at a carried ω
  (`dynamics._solves_along`).
* Bridge time slices, one time at a time: each slice applies a kernel built
  for that time alone (`GibbsKernel.at_time(s)` then `apply_semigroup`),
  and each α(t) takes its own slices, density weights and gradient.  The
  solution computes the same quantities for a whole time mesh at once, from
  stacks of kernels, and must agree with these bit for bit.
"""

import csv
import math
import warnings

import numpy as np

from bridgestab import schrodinger
from bridgestab.kernels import (BandwidthWarning, GibbsKernel, _check_ou,
                                apply_semigroup)
from bridgestab.measures import MASS_FLOOR, gradient_energy, grad_sq_norm
from bridgestab.schrodinger import _eot_scale, _kantorovich_rung, solve

LP_MAX_ATOMS = 64


def heat_kernel(x, y, T: float) -> float:
    """Heat transition density p_T(x, y) w.r.t. Lebesgue in d = x.size."""
    if T <= 0:
        raise ValueError("kernel needs T > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r2 = float(np.sum((x - y) ** 2))
    return math.exp(-0.5 * x.size * math.log(4.0 * math.pi * T)
                    - r2 / (4.0 * T))


def ou_kernel(x, y, T: float, kappa: float) -> float:
    """OU transition density w.r.t. its stationary measure N(0, I/κ).

    log p_T(x,y) = -(d/2) log(1 - e^{-2κT})
                   - κ (|x|² - 2 e^{κT} x·y + |y|²) / (2 (e^{2κT} - 1)).
    """
    _check_ou(T, kappa)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.size
    quad = float(x @ x - 2.0 * math.exp(kappa * T) * (x @ y) + y @ y)
    log_p = -0.5 * d * math.log(-math.expm1(-2.0 * kappa * T)) \
        - kappa * quad / (2.0 * math.expm1(2.0 * kappa * T))
    return math.exp(log_p)


def wang_lower_bound(x, y, T: float, kappa: float) -> float:
    """Lower bound on log p_T for the OU kernel: -κ|x-y|²/(2(1-e^{-κT}))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r2 = float(np.sum((x - y) ** 2))
    return -kappa * r2 / (2.0 * -math.expm1(-kappa * T))


def row_mass_defect(kernel) -> float:
    """max_i |Σ_j p(x_i,x_j) m_j - 1| (quadrature quality diagnostic)."""
    rows = kernel.lse(kernel.reference.log_mass())
    return float(np.max(np.abs(np.exp(rows) - 1.0)))


def measure_to_csv(m, path) -> None:
    """Write a measure as CSV with header x[,y],weight (full repr floats)."""
    pts = m.grid.points()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"][:m.grid.ndim] + ["weight"])
        for i in range(m.grid.n_cells):
            w.writerow([repr(float(c)) for c in pts[i]] +
                       [repr(float(m.weights[i]))])


def wasserstein2_exact_small(mu, nu) -> float:
    """LP oracle for W2 on small supports (≤ 64 atoms each), any dimension."""
    import scipy.sparse as sp
    from scipy.optimize import linprog
    if not mu.grid.same_as(nu.grid):
        raise ValueError("measures live on different grids")
    ii = np.flatnonzero(mu.weights > 0)
    jj = np.flatnonzero(nu.weights > 0)
    if ii.size > LP_MAX_ATOMS or jj.size > LP_MAX_ATOMS:
        raise ValueError(
            f"LP oracle limited to {LP_MAX_ATOMS} atoms per side "
            f"(got {ii.size} and {jj.size})")
    pts = mu.grid.points()
    diff = pts[ii][:, None, :] - pts[jj][None, :, :]
    cost = np.sum(diff ** 2, axis=2).ravel()

    m, n = ii.size, jj.size
    # row-sum and column-sum constraints on the m×n transport matrix
    row_idx = np.repeat(np.arange(m), n)
    col_idx = np.tile(np.arange(n), m) + m
    var_idx = np.arange(m * n)
    A = sp.coo_matrix(
        (np.ones(2 * m * n),
         (np.concatenate([row_idx, col_idx]), np.tile(var_idx, 2))),
        shape=(m + n, m * n)).tocsr()
    rhs = np.concatenate([mu.weights[ii], nu.weights[jj]])
    res = linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return math.sqrt(max(float(res.fun), 0.0))


def semigroup_per_time(sol, s: float, log_f: np.ndarray) -> np.ndarray:
    """log P_s e^f from one kernel built at time s (P_0 is the identity,
    P_T the solution's own kernel)."""
    if s == 0.0:
        return log_f
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        kernel = sol.kernel if s == sol.T else sol.kernel.at_time(s)
    return apply_semigroup(kernel, log_f)


def log_slices_per_time(sol, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(log P_t e^φ, log P_{T-t} e^ψ), one kernel per time."""
    return (semigroup_per_time(sol, t, sol.phi),
            semigroup_per_time(sol, sol.T - t, sol.psi))


def alpha_per_time(sol, t: float) -> float:
    """α(t) = ∫ |∇ log P_t e^φ|² dρ_t from the slices at t alone; α(T)
    integrates against ν."""
    lp, lq = log_slices_per_time(sol, t)
    if t == sol.T:
        return gradient_energy(lp, sol.mu.grid, sol.nu.weights)
    w = np.exp(lp + lq + sol.reference.log_mass())
    return float(w @ grad_sq_norm(lp, sol.mu.grid, w > MASS_FLOOR))


def plan_relative_entropy(pi, rho) -> float:
    """H(π | ρ) for two plans on the same grid pair."""
    a, b = pi.log_weights, rho.log_weights
    pa = np.isfinite(a)
    if np.any(np.isneginf(b[pa])):
        return math.inf
    w = np.exp(a[pa])
    return float(np.sum(w * (a[pa] - b[pa])))


def zeroth_order_ladder(mu, nu, T_list, kappa, tol, max_iter):
    """Solutions at each T of ``T_list`` (1D): the first T from the
    Kantorovich potential, each later T from ε'b' = εb of the solution
    before it, with q = k·y² + log m - log ν and b = ψ + q on supp ν; every
    solve is an array start at ω = 1."""
    s = nu.support()
    y = mu.grid.axes[0][s]
    log_nu = np.log(nu.weights[s])
    eb = None
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
        yield sol
        eb = eps * (sol.psi[s] + q)


def log_domain_sinkhorn(ops, log_m, mu, nu, tol, max_iter, init_g,
                        start_omega):
    """`schrodinger._sinkhorn` with its half-steps in the log domain: same
    signature, stopping rule, ω rules, fallback and results.

    Each half-step sets  f' = log μ - log m - K.lse(g + log m)  on supp μ
    through the operator ``ops[1]`` (an `AnchoredLSE` call: a product near
    its anchor, a log-domain anchor otherwise) and moves f by ω(f' - f);
    g mirrors it through ``ops[0]``, from g = ``init_g`` on supp ν.  The
    marginals are μ̂ = e^{f + log m + K.lse(g + log m)} and ν̂ likewise."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    s_mu, s_nu = mu.support(), nu.support()
    lp, lq = log_m[s_mu], log_m[s_nu]
    a = mu.log_weights()[s_mu] - lp              # log dμ/dm
    b = nu.log_weights()[s_nu] - lq              # log dν/dm
    w_mu, w_nu = mu.weights[s_mu], nu.weights[s_nu]
    lse_on_f, lse_on_g = ops
    lse_g = lse_on_g(init_g + lq)

    history = []
    converged = False
    omega, since, retry_below = 1.0, 0, math.inf
    n_done = 0
    for n_done in range(1, max_iter + 1):
        f_new = a - lse_g
        f = f_new if omega == 1.0 else f + omega * (f_new - f)
        fp = f + lp
        lse_f = lse_on_f(fp)
        g_new = b - lse_f
        g = g_new if omega == 1.0 else g + omega * (g_new - g)
        gq = g + lq
        lse_g = lse_on_g(gq)

        mu_hat = np.exp(fp + lse_g)
        nu_hat = np.exp(gq + lse_f)
        res = max(float(np.abs(mu_hat - w_mu).sum()),
                  float(np.abs(nu_hat - w_nu).sum()))
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
        if n_done == 1 or (n_done - since > 2 * schrodinger._RATE_WINDOW
                           and res <= retry_below):
            w = start_omega if n_done == 1 \
                else schrodinger._implied_omega(history, omega)
            if w > omega:
                start = (f, g, lse_g, mu_hat, nu_hat, res)
                omega, since, best = w, n_done, res
    on_grid = schrodinger._on_grid
    return (on_grid(f, s_mu, -np.inf), on_grid(g, s_nu, -np.inf),
            on_grid(mu_hat, s_mu, 0.0), on_grid(nu_hat, s_nu, 0.0),
            n_done, history, converged, omega)
