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

from bridgestab.kernels import BandwidthWarning, _check_ou, apply_semigroup
from bridgestab.measures import MASS_FLOOR, gradient_energy, grad_sq_norm

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
