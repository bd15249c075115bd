"""Static Schrödinger problem and quadratic entropic optimal transport.

The Schrödinger problem minimizes H(π | R_{0,T}) over couplings of (μ, ν),
where R_{0,T} = p_T · (m ⊗ m) is the joint law of the reference process at
times 0 and T.  The minimizer factorizes as dπ/dR = e^{φ ⊕ ψ} and the pair
(φ, ψ) solves the Schrödinger system; we iterate over-relaxed log-domain
Sinkhorn, whose half-steps move each potential by ω times the Sinkhorn
update

    φ ← φ + ω(log(dμ/dm) - log P_T e^ψ - φ),
    ψ ← ψ + ω(log(dν/dm) - log P_T e^φ - ψ),

with ω = 1 (plain Sinkhorn) until the residual history shows a steady
plain rate ρ and Young's factor ω = 2/(1 + √(1 - ρ)) after that.  The loop
stops on the total-variation marginal residual, then re-centers to the
symmetric normalization  ∫φ dμ - H(μ|m) = ∫ψ dν - H(ν|m).  Potentials stay
in the log domain, and inside the loop they live on the supports only: φ
as one value per cell of supp μ, ψ per cell of supp ν.  Each log P_T e^ψ
on supp μ is evaluated by `kernels.AnchoredLSE` from supp ν to supp μ, as
a matrix product against the exp buffer of a recent anchor ψ̄ with the
weights e^{ψ - ψ̄} bounded by e^τ (log-absorbed scaling), re-anchoring in
the log domain when ψ moves further; log P_T e^φ mirrors it.  A solve
that starts from a solution with the same supports and kernel continues
on the operators that solution kept.

Quadratic EOT,  S^ε = inf ∫|x-y|² dπ + ε H(π | μ⊗ν),  is solved by the same
iteration against the Gibbs factor e^{-|x-y|²/ε}: one loop, `_sinkhorn`,
serves both problems as plans π = e^{f ⊕ g + K}·(p ⊗ q), with K = log p_T and
p = q = m for SP, and K = -|x-y|²/ε, p = μ, q = ν for EOT.  Both K are
separable over grid axes and reach the loop as a `LogKernel` operator.  For
an OU reference at curvature κ the two problems are equivalent through the
time change ε = (4/κ) sinh(κT), and `eot_via_sp` evaluates S^ε through that
dictionary.

Values come from the potentials: C_T = ∫φ dμ + ∫ψ dν and the dual value
S^ε = ε(∫a dμ + ∫b dν), which is second-order accurate in the stopping
residual.  The realized marginals μ̂, ν̂ of the plan are those the loop
computes for its stopping rule.  The dense n×n plan is built only by
`log_plan`, for the symmetric entropy of two plans and the test oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import (AnchoredLSE, BandwidthWarning, GibbsKernel, LogKernel,
                      _squared_distances, apply_semigroup)
from .measures import (DiscreteMeasure, Grid, ReferenceMeasure,
                       relative_entropy, second_moment)


class InfeasibleProblem(ValueError):
    """The problem data admit no solve or no check: a marginal charges a
    cell where the reference measure vanishes, or a solved problem breaks
    the premise of an estimate."""


class NotConverged(RuntimeError):
    """A diagnostic was asked to consume a solution that did not converge."""


@dataclass(frozen=True)
class Plan:
    """Coupling stored as a dense log-weight matrix over grid × grid."""

    grid: Grid
    log_weights: np.ndarray

    def weights(self) -> np.ndarray:
        out = np.zeros_like(self.log_weights)
        np.exp(self.log_weights, where=np.isfinite(self.log_weights), out=out)
        return out


def plan_relative_entropy(pi: Plan, rho: Plan) -> float:
    """H(π | ρ) for two plans on the same grid pair."""
    a, b = pi.log_weights, rho.log_weights
    pa = np.isfinite(a)
    if np.any(np.isneginf(b[pa])):
        return math.inf
    w = np.exp(a[pa])
    return float(np.sum(w * (a[pa] - b[pa])))


# Entries per block of `_symmetric_terms`.  Its two work buffers of 64 KB
# come from the heap and stay in cache, where n² temporaries would each
# fault in fresh pages (~128 minor faults per 256² array).
_SYMMETRIC_BLOCK = 8192


def _symmetric_terms(a: np.ndarray, b: np.ndarray) -> float:
    """Σ (e^a - e^b)(a - b) over all entries, each term evaluated as
    e^{max(a,b)}·|a - b|·(1 - e^{-|a - b|}): it is ≥ 0, overflows for no
    finite a, b, and is non-finite wherever a or b is."""
    a, b = np.ravel(a), np.ravel(b)
    w = np.empty(min(a.size, _SYMMETRIC_BLOCK))
    d = np.empty_like(w)
    total = 0.0
    for start in range(0, a.size, _SYMMETRIC_BLOCK):
        x = a[start:start + _SYMMETRIC_BLOCK]
        y = b[start:start + _SYMMETRIC_BLOCK]
        wb, db = w[:x.size], d[:x.size]
        np.maximum(x, y, out=wb)
        np.minimum(x, y, out=db)
        db -= wb                              # -|a - b|
        np.exp(wb, out=wb)
        wb *= db
        np.expm1(db, out=db)
        wb *= db
        total += wb.sum()
    return float(total)


def plan_symmetric_entropy(pi: Plan, rho: Plan) -> float:
    """H^sym = H(π | ρ) + H(ρ | π) = Σ (π_ij - ρ_ij)(log π_ij - log ρ_ij),
    summed in one pass over the common support; +inf when the supports
    (the finite entries of the two log-weight arrays) differ, exactly as
    the sum of the two relative entropies (`plan_relative_entropy`, the
    test oracle).

    Every term is ≥ 0, so nothing cancels: the two relative entropies are
    sums of O(ε) terms that cancel to O(ε²) for plans ε apart, and lose
    about a factor 1/ε in relative accuracy; the one-pass sum does not.
    The sum runs over the whole grid first, in blocks and without n²
    temporaries.  It is finite exactly when both plans have full support;
    otherwise the supports are compared, and the sum is taken again over
    the common one.
    """
    a, b = pi.log_weights, rho.log_weights
    with np.errstate(invalid="ignore"):
        h = _symmetric_terms(a, b)
    if math.isfinite(h):
        return h
    live = np.isfinite(a)
    if not np.array_equal(live, np.isfinite(b)):
        return math.inf
    return _symmetric_terms(a[live], b[live])


class _Reusable:
    """What a solution lends to a solve that starts from it (`_start`)."""

    def same_supports(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
        """Whether μ and ν have this solution's grid and supports, so that
        it warm-starts their solve."""
        return (self.mu.grid.same_as(mu.grid)
                and np.array_equal(self.mu.support(), mu.support())
                and np.array_equal(self.nu.support(), nu.support()))

    def drop_operators(self) -> None:
        """Free the operators kept by ``keep_operators``; later solves
        from this solution take fresh ones."""
        self._operators = ()


def _integrals(f: np.ndarray, g: np.ndarray, mu: DiscreteMeasure,
               nu: DiscreteMeasure) -> tuple[float, float]:
    """(∫f dμ, ∫g dν), summed over the supports (f, g may be -inf off them)."""
    s_mu, s_nu = mu.support(), nu.support()
    return (float(f[s_mu] @ mu.weights[s_mu]),
            float(g[s_nu] @ nu.weights[s_nu]))


@dataclass
class SchrodingerSolution(_Reusable):
    """Converged (or not) Schrödinger system for one (μ, ν, kernel) triple.

    Solved with ``keep_operators``, it keeps its two Sinkhorn operators
    (`kernels.AnchoredLSE`) for the solves that start from it: two
    n_rows×n_cols exp buffers in 1D, per-batch-row stacks in 2D."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    kernel: GibbsKernel
    phi: np.ndarray
    psi: np.ndarray
    mu_hat: np.ndarray                # realized marginals of the plan
    nu_hat: np.ndarray
    n_iter: int
    marginal_residual: float
    residual_history: np.ndarray
    converged: bool
    h_mu: float
    h_nu: float
    omega: float                      # ω of the last iteration (1: plain)
    # memos, per kernel time s, of log P_s e^φ and log P_s e^ψ
    # (`log_slices`), and per t of `dynamics` α(t)
    _slices: tuple = field(default_factory=lambda: ({}, {}), init=False,
                           repr=False, compare=False)
    _alphas: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    # with ``keep_operators``: `_sinkhorn`'s supp μ → supp ν, supp ν → supp μ
    _operators: tuple = field(default=(), init=False, repr=False,
                              compare=False)

    @property
    def reference(self) -> ReferenceMeasure:
        return self.kernel.reference

    @property
    def T(self) -> float:
        return self.kernel.T

    def entropic_cost(self) -> float:
        """C_T = ∫φ dμ + ∫ψ dν (the value H(π|R) at the optimum)."""
        a, b = _integrals(self.phi, self.psi, self.mu, self.nu)
        return a + b

    def schrodinger_cost(self) -> float:
        """S_T = T·C_T - T·H(μ|m) - T·H(ν|m) (vanishes as T → 0)."""
        return self.T * (self.entropic_cost() - self.h_mu - self.h_nu)

    def normalization_sides(self) -> tuple[float, float]:
        """(∫φdμ - H(μ|m), ∫ψdν - H(ν|m)); equal under the symmetric gauge."""
        a, b = _integrals(self.phi, self.psi, self.mu, self.nu)
        return a - self.h_mu, b - self.h_nu

    def log_slices(self, times):
        """(log P_t e^φ, log P_{T-t} e^ψ) for t in [0, T]; P_0 is the
        identity.  A sequence of times gives the two stacks, one row per
        time.  Each row is computed once per kernel time, so the checks on
        one solution share them (read-only): the kernels of all new times
        in (0, T) are built as stacks of at most _STACK_ENTRIES factor
        entries, each applied to e^φ and to e^ψ in one call, and P_T is
        the solution's own kernel."""
        ts = [float(t) for t in np.ravel(times)]
        if not all(0.0 <= t <= self.T for t in ts):
            raise ValueError(f"slice times must lie in [0, T = {self.T!r}]")
        rows = self._slices
        need = [{t for t in ts if t not in rows[0]},
                {self.T - t for t in ts if self.T - t not in rows[1]}]
        if need[0] or need[1]:
            self._fill(need)
        if np.ndim(times) == 0:
            return rows[0][ts[0]], rows[1][self.T - ts[0]]
        return (np.array([rows[0][t] for t in ts]),
                np.array([rows[1][self.T - t] for t in ts]))

    def _fill(self, need: list[set]) -> None:
        """Memoize log P_s e^φ for s in need[0] and log P_s e^ψ for s in
        need[1].  The two sides share one stack per batch of kernel times,
        and a side that needs any time of a batch applies all of it."""
        f = (self.phi, self.psi)
        s = sorted((need[0] | need[1]) - {0.0, self.T})
        for run in stack_runs(len(s), sum(n * n for n in self.kernel.shape)):
            batch = s[run]
            # quadratures in t probe s -> 0 on purpose: no warning per slice
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BandwidthWarning)
                stack = self.kernel.at_time(batch)
            for side in (0, 1):
                if not need[side].isdisjoint(batch):
                    self._keep(side, batch, apply_semigroup(stack, f[side]))
        for side in (0, 1):
            if 0.0 in need[side]:
                self._slices[side][0.0] = f[side]
            if self.T in need[side]:
                self._keep(side, [self.T],
                           apply_semigroup(self.kernel, f[side])[None])

    def _keep(self, side: int, s: list[float], out: np.ndarray) -> None:
        """Memoize the rows of `out` (read-only) under the kernel times s;
        a row already memoized keeps its array."""
        out.flags.writeable = False
        for si, row in zip(s, out):
            self._slices[side].setdefault(si, row)

    def log_plan(self) -> Plan:
        """log π = φ ⊕ ψ + log p_T + log m ⊗ log m (dense)."""
        u = self.reference.log_mass()
        lw = np.add.outer(self.phi + u, self.psi + u)
        lw += self.kernel.log_matrix
        return Plan(self.mu.grid, lw)


# Most entries of one stack built from a solution's time slices: the log
# factors of a stack of kernels in `SchrodingerSolution.log_slices` (summed
# over the grid axes), and the slice rows of one pass of `dynamics`.  2^20
# doubles are 8 MB; a 2D kernel stack holds as much again in shared exp
# factors.  A single row larger than that makes a stack of its own.
_STACK_ENTRIES = 1 << 20


def stack_runs(n_rows: int, row_entries: int) -> list[slice]:
    """Consecutive runs over n_rows rows of row_entries entries each, of at
    most _STACK_ENTRIES entries per run (at least one row)."""
    size = max(1, _STACK_ENTRIES // row_entries)
    return [slice(lo, lo + size) for lo in range(0, n_rows, size)]


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


# Over-relaxation in `_sinkhorn`.  The plain rate ρ is read off the
# residual history, over two consecutive windows of _RATE_WINDOW
# iterations that must agree to within _RATE_AGREE·(1 - ρ); ω is Young's
# factor for ρ, rounded down to a multiple of 1/_OMEGA_GRID (so that
# rounding noise in the residuals cannot change it), used from
# _OMEGA_MIN on (a faster plain loop has few iterations left to save) and
# capped at _OMEGA_MAX < 2; an _OMEGA_MAX of 1 keeps the loop plain.  A
# relaxed residual above _FALLBACK times its best sends the loop back to
# plain Sinkhorn, which may relax again once the residual is below
# _RETRY times the one it went back to.
_RATE_WINDOW = 5
_RATE_AGREE = 0.02
_OMEGA_GRID = 32
_OMEGA_MIN = 1.125
_OMEGA_MAX = 1.96875
_FALLBACK = 100.0
_RETRY = 0.3


def _omega(rho: float) -> float:
    """Young's SOR factor 2/(1 + √(1 - ρ)) for a plain rate ρ, rounded
    down to the 1/_OMEGA_GRID grid and capped at _OMEGA_MAX; 1 where it
    falls below _OMEGA_MIN."""
    w = math.floor(_OMEGA_GRID * 2.0 / (1.0 + math.sqrt(1.0 - rho)))
    w = min(w / _OMEGA_GRID, _OMEGA_MAX)
    return w if w >= _OMEGA_MIN else 1.0


def _plain_rate(r0: float, r1: float, omega: float) -> float | None:
    """The plain rate ρ implied by residuals r0 → r1 over _RATE_WINDOW
    iterations at relaxation ω; None where they tell nothing about ρ.

    The residual contracts by λ = (r1/r0)^(1/W) per iteration.  Young's
    relation between the eigenvalues of SOR and of the plain iteration
    gives  ρ = (λ + ω - 1)² / (λ ω²)  (ρ = λ at ω = 1) for λ > ω - 1; at
    or above the optimal ω every mode contracts by ω - 1 instead.
    """
    if not (r0 > 0.0 and r1 > 0.0):
        return None
    lam = (r1 / r0) ** (1.0 / _RATE_WINDOW)
    if not omega - 1.0 < lam < 1.0:
        return None
    return (lam + omega - 1.0) ** 2 / (lam * omega ** 2)


def _implied_omega(history: list[float], omega: float) -> float:
    """`_omega` of the plain rate that the last two windows of ``history``
    (all run at ω) agree on; 1 when they do not agree."""
    r = history[-1 - 2 * _RATE_WINDOW:]
    rho_old = _plain_rate(r[0], r[_RATE_WINDOW], omega)
    rho = _plain_rate(r[_RATE_WINDOW], r[-1], omega)
    if rho is None or rho_old is None \
            or abs(rho - rho_old) > _RATE_AGREE * (1.0 - rho):
        return 1.0
    return _omega(rho)


def _sinkhorn(K: LogKernel, log_p: np.ndarray, log_q: np.ndarray,
              mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float,
              max_iter: int, init_g: np.ndarray | None = None,
              ops: tuple[AnchoredLSE, AnchoredLSE] | None = None):
    """Over-relaxed log-domain Sinkhorn for plans π = e^{f ⊕ g + K}·(p ⊗ q),
    K symmetric.

    Each iteration takes the Sinkhorn half-step  f' = log μ - log p -
    K.lse(g + log q)  on supp μ and sets  f ← f + ω(f' - f)  there, then
    does the mirror update for g on supp ν.  It stops when the larger of
    the two L1 marginal residuals of the plan of the relaxed (f, g) drops
    to ``tol``.  f, g, μ̂, ν̂ and the residual are computed on the supports
    only (f and g are -inf off them); grid vectors are built on return.

    ω starts at 1, plain Sinkhorn.  When two consecutive windows of the
    residual history agree on a plain rate ρ (`_implied_omega`), ω rises to
    Young's factor 2/(1 + √(1 - ρ)), which shrinks the contraction per
    iteration from ρ to about ω - 1 and keeps the fixed point (Thibault,
    Chizat, Dossal & Papadakis 2021; Lehmann, von Renesse, Sambale &
    Uschmajew 2022).  Under relaxation the same windows read ρ through
    Young's relation, so an ω taken too low rises further.  If a relaxed
    residual exceeds `_FALLBACK` times the best since ω last rose, or is
    NaN, the loop returns to the potentials it had then and goes on with
    ω = 1; it relaxes again only once the residual is below `_RETRY`
    times theirs.

    Each side evaluates K.lse through its own `AnchoredLSE` from one
    support to the other, so most half-steps are a matrix product against
    the exp buffer of a recent anchor; ``ops`` are those two operators
    (`_start`), None for fresh ones.  ``init_g`` is a start for g on
    supp ν from `_warm_start`; None is the cold start g = 0 on every cell.
    Returns (f, g, mu_hat, nu_hat, n_iter, history, converged, omega) on
    the grid, where mu_hat and nu_hat are the marginals of the final plan
    that the stopping rule compared with μ and ν, and omega is the ω of
    the last iteration.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    # everything below lives on the supports: f, μ̂ on supp μ; g, ν̂ on supp ν
    s_mu, s_nu = mu.support(), nu.support()
    lp, lq = log_p[s_mu], log_q[s_nu]
    a = mu.log_weights()[s_mu] - lp              # log μ - log p
    b = nu.log_weights()[s_nu] - lq              # log ν - log q
    w_mu, w_nu = mu.weights[s_mu], nu.weights[s_nu]
    lse_on_f, lse_on_g = ops or _fresh_operators(K, mu, nu)

    # the cold start is g = 0 on every cell; where q has no mass off supp ν
    # (a full supp ν, or q = ν) that is g = 0 on supp ν, which anchors there
    if init_g is None and np.all(np.isneginf(log_q[~s_nu])):
        init_g = np.zeros(lq.size)
    lse_g = K.lse(log_q)[s_mu] if init_g is None else lse_on_g(init_g + lq)

    history = []
    converged = False
    omega, since, retry_below = 1.0, 0, math.inf
    n_done = 0
    for n_done in range(1, max_iter + 1):
        # at ω = 1 the half-step is taken as is: plain Sinkhorn bit for bit
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
            if res <= _FALLBACK * best:             # False on NaN
                best = min(best, res)
            else:
                f, g, lse_g, mu_hat, nu_hat, res = start
                omega, since, retry_below = 1.0, n_done, _RETRY * res
        history.append(res)
        if res <= tol:
            converged = True
            break
        if n_done - since > 2 * _RATE_WINDOW and res <= retry_below:
            w = _implied_omega(history, omega)
            if w > omega:
                start = (f, g, lse_g, mu_hat, nu_hat, res)
                omega, since, best = w, n_done, res
    return (_on_grid(f, s_mu, -np.inf), _on_grid(g, s_nu, -np.inf),
            _on_grid(mu_hat, s_mu, 0.0), _on_grid(nu_hat, s_nu, 0.0),
            n_done, history, converged, omega)


def _on_grid(x: np.ndarray, support: np.ndarray, fill: float) -> np.ndarray:
    """The compact ``x`` on ``support`` as a grid vector, ``fill`` off it."""
    out = np.full(support.shape, fill)
    out[support] = x
    return out


def _warm_start(init, nu: DiscreteMeasure, name: str) -> np.ndarray | None:
    """A warm start for the ν-side potential: its values on supp ν.

    Raises ValueError unless ``init`` has shape (n_cells,) and is finite on
    supp ν; its values off supp ν are ignored.  None stays None (cold).
    """
    if init is None:
        return None
    init = np.asarray(init, dtype=float)
    s_nu = nu.support()
    if init.shape != s_nu.shape or not np.all(np.isfinite(init[s_nu])):
        raise ValueError(f"{name} needs shape (n_cells,) and finite values "
                         "on supp ν")
    return init[s_nu]


def _fresh_operators(K: LogKernel, mu: DiscreteMeasure,
                     nu: DiscreteMeasure) -> tuple[AnchoredLSE, AnchoredLSE]:
    """Fresh operators of `_sinkhorn`: supp μ → supp ν, supp ν → supp μ."""
    s_mu, s_nu = mu.support(), nu.support()
    return AnchoredLSE(K, s_nu, s_mu), AnchoredLSE(K, s_mu, s_nu)


def _start(init, kind: type, K: LogKernel, mu: DiscreteMeasure,
           nu: DiscreteMeasure, name: str):
    """(g, ops): `_sinkhorn`'s start for g on supp ν (None: cold) and its
    two operators.  ``init`` is None, a grid vector (`_warm_start`) or a
    solution of type ``kind``.  A solution on the supports of μ and ν
    starts g at its ν-side potential and, when its kernel is K, hands on
    its kept operators (`AnchoredLSE.shared`); on other supports it gives
    a cold start, since its potential need not be finite on supp ν."""
    ops = None
    if isinstance(init, kind):
        base, init = init, None
        if base.same_supports(mu, nu):
            init = base.psi if kind is SchrodingerSolution else base.b
            if base.kernel is K and base._operators:
                ops = tuple(op.shared() for op in base._operators)
    return _warm_start(init, nu, name), ops or _fresh_operators(K, mu, nu)


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, kernel: GibbsKernel,
          tol: float = 1e-9, max_iter: int = 100_000,
          init_psi: np.ndarray | SchrodingerSolution | None = None,
          keep_operators: bool = False) -> SchrodingerSolution:
    """Log-domain Sinkhorn for the Schrödinger system.

    Stops when the larger of the two L1 marginal residuals of the implied
    plan drops to ``tol``.  The returned potentials are re-centered to the
    symmetric normalization; convergence failure is recorded, not raised.
    ``init_psi`` warm-starts ψ: one value per cell, finite on supp ν (the
    values off supp ν are ignored), or a solution (`_start`).
    ``keep_operators`` keeps the two Sinkhorn operators on the returned
    solution, for solves that start from it; otherwise their n² buffers
    are freed on return.
    """
    _check_problem(mu, nu, kernel)
    ref = kernel.reference
    u = ref.log_mass()
    init_g, ops = _start(init_psi, SchrodingerSolution, kernel, mu, nu,
                        "init_psi")
    phi, psi, mu_hat, nu_hat, n_done, history, converged, omega = _sinkhorn(
        kernel, u, u, mu, nu, tol, max_iter, init_g, ops)

    h_mu = relative_entropy(mu, ref)
    h_nu = relative_entropy(nu, ref)

    # symmetric normalization: shift so both sides of the gauge agree
    a, b = _integrals(phi, psi, mu, nu)
    c = 0.5 * ((b - h_nu) - (a - h_mu))
    phi = phi + c
    psi = psi - c

    sol = SchrodingerSolution(
        mu=mu, nu=nu, kernel=kernel, phi=phi, psi=psi, mu_hat=mu_hat,
        nu_hat=nu_hat, n_iter=n_done,
        marginal_residual=history[-1], residual_history=np.asarray(history),
        converged=converged, h_mu=h_mu, h_nu=h_nu, omega=omega)
    if keep_operators:
        sol._operators = ops
    return sol


def require_converged(sol) -> None:
    if not sol.converged:
        raise NotConverged(
            f"solution did not converge (residual {sol.marginal_residual:g} "
            f"after {sol.n_iter} iterations)")


# ---------------------------------------------------------------------------
# quadratic entropic optimal transport
# ---------------------------------------------------------------------------

@dataclass
class EOTSolution(_Reusable):
    """Entropic OT with quadratic cost |x-y|² and regularizer ε, vs μ⊗ν;
    keeps its operators as `SchrodingerSolution` does."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    epsilon: float
    kernel: LogKernel                 # -|x-y|²/ε, one factor per axis
    a: np.ndarray                     # log-domain potentials against μ⊗ν
    b: np.ndarray
    cost: float                       # S^ε = ε(∫a dμ + ∫b dν), dual value
    n_iter: int
    marginal_residual: float
    residual_history: np.ndarray
    converged: bool
    omega: float                      # ω of the last iteration (1: plain)
    _operators: tuple = field(default=(), init=False, repr=False,
                              compare=False)

    def log_plan(self) -> Plan:
        lw = np.add.outer(self.a + self.mu.log_weights(),
                          self.b + self.nu.log_weights())
        lw += self.kernel.log_matrix
        return Plan(self.mu.grid, lw)


def eot_quadratic_direct(mu: DiscreteMeasure, nu: DiscreteMeasure,
                         epsilon: float, tol: float = 1e-9,
                         max_iter: int = 100_000,
                         init_b: np.ndarray | EOTSolution | None = None,
                         keep_operators: bool = False) -> EOTSolution:
    """Sinkhorn for S^ε against μ⊗ν with log-domain potentials.

    The cost is the dual value S^ε = ε(∫a dμ + ∫b dν).  At the optimum it
    equals the primal ∫|x-y|²dπ + εH(π|μ⊗ν) = ε(∫a dμ̂ + ∫b dν̂), and its
    error is second order in the marginal residual where the primal's is
    first order.  That holds as well where the loop stops on a relaxed
    iterate: on the tested problems the default ``tol`` gives the cost of
    a ``tol=1e-13`` plain Sinkhorn solve to 1e-12 relative.

    ``init_b`` warm-starts b as ``init_psi`` does ψ in `solve`: one value
    per cell, finite on supp ν (the values off supp ν are ignored), or a
    solution, which at this ε on this grid also lends its kernel
    -|x-y|²/ε.  ``keep_operators`` is that of `solve`.
    """
    if not mu.grid.same_as(nu.grid):
        raise ValueError("marginals must share one grid")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if isinstance(init_b, EOTSolution) and init_b.epsilon == epsilon \
            and init_b.mu.grid.same_as(mu.grid):
        K = init_b.kernel
    else:
        K = LogKernel(tuple(_squared_distances(x) / (-epsilon)
                            for x in mu.grid.axes))
    init_g, ops = _start(init_b, EOTSolution, K, mu, nu, "init_b")
    a, b, _, _, n_done, history, converged, omega = _sinkhorn(
        K, mu.log_weights(), nu.log_weights(), mu, nu, tol, max_iter,
        init_g, ops)
    ia, ib = _integrals(a, b, mu, nu)
    sol = EOTSolution(mu=mu, nu=nu, epsilon=float(epsilon), kernel=K,
                      a=a, b=b, cost=epsilon * (ia + ib), n_iter=n_done,
                      marginal_residual=history[-1],
                      residual_history=np.asarray(history),
                      converged=converged, omega=omega)
    if keep_operators:
        sol._operators = ops
    return sol


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
    if kappa == 0.0:
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
