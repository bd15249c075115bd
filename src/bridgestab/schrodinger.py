"""Static Schrödinger problem and quadratic entropic optimal transport.

The Schrödinger problem minimizes H(π | R_{0,T}) over couplings of (μ, ν),
where R_{0,T} = p_T · (m ⊗ m) is the joint law of the reference process at
times 0 and T.  The minimizer factorizes as dπ/dR = e^{φ ⊕ ψ} and the pair
(φ, ψ) solves the Schrödinger system; we iterate the log-domain Sinkhorn
updates

    φ = log(dμ/dm) - log P_T e^ψ,      ψ = log(dν/dm) - log P_T e^φ,

stopping on the total-variation marginal residual, then re-center to the
symmetric normalization  ∫φ dμ - H(μ|m) = ∫ψ dν - H(ν|m).  Potentials stay
in the log domain; each log P_T e^ψ is evaluated by `kernels.AnchoredLSE`
as a matrix product against the exp buffer of a recent anchor ψ̄ with the
weights e^{ψ - ψ̄} bounded by e^τ (log-absorbed scaling), re-anchoring in
the log domain when ψ moves further.

Quadratic EOT,  S^ε = inf ∫|x-y|² dπ + ε H(π | μ⊗ν),  is solved by the same
iteration against the Gibbs factor e^{-|x-y|²/ε}: one loop, `_sinkhorn`,
serves both problems as plans π = e^{f ⊕ g + K}·(p ⊗ q), with K = log p_T and
p = q = m for SP, and K = -|x-y|²/ε, p = μ, q = ν for EOT.  Both K are
separable over grid axes and reach the loop as a `LogKernel` operator.  For
an OU reference at curvature κ the two problems are equivalent through the
time change ε = (4/κ) sinh(κT), and `eot_via_sp` evaluates S^ε through that
dictionary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (AnchoredLSE, GibbsKernel, LogKernel, _outer_sum,
                      _squared_distances)
from .measures import (DiscreteMeasure, Grid, ReferenceMeasure,
                       relative_entropy, second_moment)


class InfeasibleProblem(ValueError):
    """A marginal charges a cell where the reference measure vanishes."""


class NotConverged(RuntimeError):
    """A diagnostic was asked to consume a solution that did not converge."""


@dataclass(frozen=True)
class Plan:
    """Coupling stored as a dense log-weight matrix over grid × grid."""

    grid: Grid
    log_weights: np.ndarray

    def total_mass(self) -> float:
        return float(np.exp(self.log_weights, where=np.isfinite(self.log_weights),
                            out=np.zeros_like(self.log_weights)).sum())

    def weights(self) -> np.ndarray:
        out = np.zeros_like(self.log_weights)
        np.exp(self.log_weights, where=np.isfinite(self.log_weights), out=out)
        return out

    def marginals(self) -> tuple[DiscreteMeasure, DiscreteMeasure]:
        w = self.weights()
        return (DiscreteMeasure.from_weights(self.grid, w.sum(axis=1)),
                DiscreteMeasure.from_weights(self.grid, w.sum(axis=0)))


def plan_relative_entropy(pi: Plan, rho: Plan) -> float:
    """H(π | ρ) for two plans on the same grid pair."""
    a, b = pi.log_weights, rho.log_weights
    pa = np.isfinite(a)
    if np.any(np.isneginf(b[pa])):
        return math.inf
    w = np.exp(a[pa])
    return float(np.sum(w * (a[pa] - b[pa])))


def plan_symmetric_entropy(pi: Plan, rho: Plan) -> float:
    return plan_relative_entropy(pi, rho) + plan_relative_entropy(rho, pi)


@dataclass
class SchrodingerSolution:
    """Converged (or not) Schrödinger system for one (μ, ν, kernel) triple."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    kernel: GibbsKernel
    phi: np.ndarray
    psi: np.ndarray
    n_iter: int
    marginal_residual: float
    residual_history: np.ndarray
    converged: bool
    h_mu: float
    h_nu: float

    @property
    def reference(self) -> ReferenceMeasure:
        return self.kernel.reference

    @property
    def T(self) -> float:
        return self.kernel.T

    def entropic_cost(self) -> float:
        """C_T = ∫φ dμ + ∫ψ dν (the value H(π|R) at the optimum)."""
        s_mu = self.mu.support()
        s_nu = self.nu.support()
        return float(self.phi[s_mu] @ self.mu.weights[s_mu]
                     + self.psi[s_nu] @ self.nu.weights[s_nu])

    def schrodinger_cost(self) -> float:
        """S_T = T·C_T - T·H(μ|m) - T·H(ν|m) (vanishes as T → 0)."""
        return self.T * (self.entropic_cost() - self.h_mu - self.h_nu)

    def normalization_sides(self) -> tuple[float, float]:
        """(∫φdμ - H(μ|m), ∫ψdν - H(ν|m)); equal under the symmetric gauge."""
        s_mu = self.mu.support()
        s_nu = self.nu.support()
        a = float(self.phi[s_mu] @ self.mu.weights[s_mu]) - self.h_mu
        b = float(self.psi[s_nu] @ self.nu.weights[s_nu]) - self.h_nu
        return a, b

    def log_plan(self) -> Plan:
        """log π = φ ⊕ ψ + log p_T + log m ⊗ log m (dense)."""
        u = self.reference.log_mass()
        lw = (self.phi + u)[:, None] + (self.psi + u)[None, :] \
            + self.kernel.log_matrix
        return Plan(self.mu.grid, lw)

    def plan_marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw marginal weight vectors of the current plan."""
        u = self.reference.log_mass()
        a = self.kernel.lse(self.psi + u)
        b = self.kernel.lse(self.phi + u)
        mu_hat = np.exp(self.phi + u + a,
                        where=np.isfinite(self.phi), out=np.zeros_like(a))
        nu_hat = np.exp(self.psi + u + b,
                        where=np.isfinite(self.psi), out=np.zeros_like(b))
        return mu_hat, nu_hat


def _check_problem(mu: DiscreteMeasure, nu: DiscreteMeasure,
                   kernel: GibbsKernel):
    if not (mu.grid.same_as(nu.grid) and mu.grid.same_as(kernel.grid)):
        raise ValueError("marginals and kernel must share one grid")
    ref = kernel.reference
    bad = (mu.weights > 0) & (ref.cell_mass <= 0)
    bad |= (nu.weights > 0) & (ref.cell_mass <= 0)
    if np.any(bad):
        raise InfeasibleProblem(
            "a marginal charges a cell with zero reference mass")


def _sinkhorn(K: LogKernel, log_p: np.ndarray, log_q: np.ndarray,
              mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float,
              max_iter: int, init_g: np.ndarray | None = None):
    """Log-domain Sinkhorn for plans π = e^{f ⊕ g + K}·(p ⊗ q), K symmetric.

    Alternates  f = log μ - log p - K.lse(g + log q)  on supp μ and the
    mirror update for g on supp ν (both are -inf off the supports), and
    stops when the larger of the two L1 marginal residuals of the implied
    plan drops to ``tol``.  Each side evaluates K.lse through its own
    `AnchoredLSE`, so most half-steps are a matrix product against the exp
    buffer of a recent anchor.  Returns (f, g, n_iter, history, converged).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    log_mu = mu.log_weights()
    log_nu = nu.log_weights()
    s_mu, s_nu = mu.support(), nu.support()
    lse_on_f, lse_on_g = AnchoredLSE(K), AnchoredLSE(K)
    n = mu.grid.n_cells

    g = np.zeros(n) if init_g is None \
        else np.asarray(init_g, dtype=float).copy()
    lse_g = lse_on_g(g + log_q)

    history = []
    converged = False
    f = np.full(n, -np.inf)
    mu_hat = np.zeros(n)
    nu_hat = np.zeros(n)
    n_done = 0
    for n_done in range(1, max_iter + 1):
        f = np.full(n, -np.inf)
        f[s_mu] = log_mu[s_mu] - log_p[s_mu] - lse_g[s_mu]
        lse_f = lse_on_f(f + log_p)
        g = np.full(n, -np.inf)
        g[s_nu] = log_nu[s_nu] - log_q[s_nu] - lse_f[s_nu]
        lse_g = lse_on_g(g + log_q)

        mu_hat.fill(0.0)
        mu_hat[s_mu] = np.exp(f[s_mu] + log_p[s_mu] + lse_g[s_mu])
        nu_hat.fill(0.0)
        nu_hat[s_nu] = np.exp(g[s_nu] + log_q[s_nu] + lse_f[s_nu])
        res = max(float(np.abs(mu_hat - mu.weights).sum()),
                  float(np.abs(nu_hat - nu.weights).sum()))
        history.append(res)
        if res <= tol:
            converged = True
            break
    return f, g, n_done, history, converged


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, kernel: GibbsKernel,
          tol: float = 1e-9, max_iter: int = 100_000,
          init_psi: np.ndarray | None = None) -> SchrodingerSolution:
    """Log-domain Sinkhorn for the Schrödinger system.

    Stops when the larger of the two L1 marginal residuals of the implied
    plan drops to ``tol``.  The returned potentials are re-centered to the
    symmetric normalization; convergence failure is recorded, not raised.
    ``init_psi`` warm-starts ψ: one value per cell, finite on supp ν (the
    values off supp ν are ignored).
    """
    _check_problem(mu, nu, kernel)
    if init_psi is not None:
        init_psi = np.asarray(init_psi, dtype=float)
        s_nu = nu.support()
        if init_psi.shape != s_nu.shape or \
                not np.all(np.isfinite(init_psi[s_nu])):
            raise ValueError("init_psi needs shape (n_cells,) and finite "
                             "values on supp ν")
        init_psi = np.where(s_nu, init_psi, -np.inf)
    ref = kernel.reference
    u = ref.log_mass()
    phi, psi, n_done, history, converged = _sinkhorn(
        kernel, u, u, mu, nu, tol, max_iter, init_psi)

    h_mu = relative_entropy(mu, ref)
    h_nu = relative_entropy(nu, ref)

    # symmetric normalization: shift so both sides of the gauge agree
    s_mu, s_nu = mu.support(), nu.support()
    a = float(phi[s_mu] @ mu.weights[s_mu]) - h_mu
    b = float(psi[s_nu] @ nu.weights[s_nu]) - h_nu
    c = 0.5 * (b - a)
    phi = phi + c
    psi = psi - c

    return SchrodingerSolution(
        mu=mu, nu=nu, kernel=kernel, phi=phi, psi=psi, n_iter=n_done,
        marginal_residual=history[-1], residual_history=np.asarray(history),
        converged=converged, h_mu=h_mu, h_nu=h_nu)


def require_converged(sol) -> None:
    if not sol.converged:
        raise NotConverged(
            f"solution did not converge (residual {sol.marginal_residual:g} "
            f"after {sol.n_iter} iterations)")


def schrodinger_plan_entropy(sol: SchrodingerSolution) -> float:
    """H(π | R_{0,T}) evaluated directly on the plan (must equal C_T)."""
    u = sol.reference.log_mass()
    lw = sol.log_plan().log_weights
    lr = sol.kernel.log_matrix + u[:, None] + u[None, :]
    mask = np.isfinite(lw)
    w = np.exp(lw[mask])
    return float(np.sum(w * (lw[mask] - lr[mask])))


# ---------------------------------------------------------------------------
# entropic potentials (Kantorovich gauge)
# ---------------------------------------------------------------------------

def entropic_potentials(sol: SchrodingerSolution
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(Φ_T, Ψ_T) with T·φ = Φ_T + T·log(dμ/dm), normalized ∫Φdμ = ∫Ψdν.

    Defined on the supports of μ and ν; off-support entries are NaN.
    """
    T = sol.T
    u = sol.reference.log_mass()
    s_mu, s_nu = sol.mu.support(), sol.nu.support()
    Phi = np.full(sol.mu.grid.n_cells, np.nan)
    Psi = np.full(sol.mu.grid.n_cells, np.nan)
    Phi[s_mu] = T * (sol.phi[s_mu]
                     - (np.log(sol.mu.weights[s_mu]) - u[s_mu]))
    Psi[s_nu] = T * (sol.psi[s_nu]
                     - (np.log(sol.nu.weights[s_nu]) - u[s_nu]))
    ia = float(Phi[s_mu] @ sol.mu.weights[s_mu])
    ib = float(Psi[s_nu] @ sol.nu.weights[s_nu])
    c = 0.5 * (ib - ia)
    Phi[s_mu] += c
    Psi[s_nu] -= c
    return Phi, Psi


# ---------------------------------------------------------------------------
# quadratic entropic optimal transport
# ---------------------------------------------------------------------------

@dataclass
class EOTSolution:
    """Entropic OT with quadratic cost |x-y|² and regularizer ε, vs μ⊗ν."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    epsilon: float
    kernel: LogKernel                 # -|x-y|²/ε, one factor per axis
    a: np.ndarray                     # log-domain potentials against μ⊗ν
    b: np.ndarray
    cost: float                       # S^ε = ∫|x-y|²dπ + εH(π|μ⊗ν)
    n_iter: int
    marginal_residual: float
    residual_history: np.ndarray
    converged: bool

    def log_plan(self) -> Plan:
        lw = (self.a + self.mu.log_weights())[:, None] \
            + (self.b + self.nu.log_weights())[None, :] \
            + self.kernel.log_matrix
        return Plan(self.mu.grid, lw)


def eot_quadratic_direct(mu: DiscreteMeasure, nu: DiscreteMeasure,
                         epsilon: float, tol: float = 1e-9,
                         max_iter: int = 100_000) -> EOTSolution:
    """Sinkhorn for S^ε against μ⊗ν with log-domain potentials."""
    if not mu.grid.same_as(nu.grid):
        raise ValueError("marginals must share one grid")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d2 = tuple(_squared_distances(x) for x in mu.grid.axes)
    K = LogKernel(tuple(d / (-epsilon) for d in d2))
    log_mu = mu.log_weights()
    log_nu = nu.log_weights()
    a, b, n_done, history, converged = _sinkhorn(
        K, log_mu, log_nu, mu, nu, tol, max_iter)

    # primal value: transport term plus ε times entropy vs μ⊗ν; the entropy
    # equals Σ π (a ⊕ b + G) exactly by the factorized form of π
    G = K.log_matrix
    lw = (a + log_mu)[:, None] + (b + log_nu)[None, :] + G
    mask = np.isfinite(lw)
    w = np.exp(lw[mask])
    transport = float(np.sum(w * _outer_sum(d2)[mask]))
    ent = float(np.sum(w * (a[:, None] + b[None, :] + G)[mask]))
    cost = transport + epsilon * ent

    return EOTSolution(mu=mu, nu=nu, epsilon=float(epsilon), kernel=K,
                       a=a, b=b, cost=cost, n_iter=n_done,
                       marginal_residual=history[-1],
                       residual_history=np.asarray(history),
                       converged=converged)


# ---------------------------------------------------------------------------
# the SP ↔ EOT dictionary for the OU reference
# ---------------------------------------------------------------------------

def sp_time_from_epsilon(epsilon: float, kappa: float) -> float:
    """Invert ε = (4/κ)·sinh(κT):  T = arcsinh(εκ/4)/κ  (→ ε/4 as κ→0)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if kappa == 0.0:
        return epsilon / 4.0
    return float(math.asinh(epsilon * kappa / 4.0) / kappa)


def eot_cost_from_sp(sol: SchrodingerSolution, epsilon: float) -> float:
    """S^ε from a Schrödinger solution at T = arcsinh(εκ/4)/κ.

    S^ε = ε(C_T - H(μ|m) - H(ν|m)) - (dε/2)·log(1 - e^{-2κT})
          + (1 - e^{-κT})·(M2(μ) + M2(ν)).
    """
    kappa, T, d = sol.kernel.kappa, sol.T, sol.mu.grid.ndim
    if sol.kernel.kind != "ou":
        raise ValueError("the dictionary needs an OU kernel")
    core = epsilon * (sol.entropic_cost() - sol.h_mu - sol.h_nu)
    log_term = -0.5 * d * epsilon * math.log(-math.expm1(-2.0 * kappa * T))
    mom_term = (-math.expm1(-kappa * T)) * (second_moment(sol.mu)
                                            + second_moment(sol.nu))
    return core + log_term + mom_term


def eot_via_sp(mu: DiscreteMeasure, nu: DiscreteMeasure, epsilon: float,
               kappa: float, tol: float = 1e-9, max_iter: int = 100_000
               ) -> tuple[float, SchrodingerSolution]:
    """Solve the OU Schrödinger problem and translate its value to S^ε."""
    if kappa <= 0:
        raise ValueError("the dictionary needs kappa > 0")
    T = sp_time_from_epsilon(epsilon, kappa)
    kernel = GibbsKernel.ou(mu.grid, T, kappa)
    sol = solve(mu, nu, kernel, tol=tol, max_iter=max_iter)
    return eot_cost_from_sp(sol, epsilon), sol
