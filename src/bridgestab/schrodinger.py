"""Static Schrödinger problem and quadratic entropic optimal transport.

The Schrödinger problem minimizes H(π | R_{0,T}) over couplings of (μ, ν),
where R_{0,T} = p_T · (m ⊗ m) is the joint law of the reference process at
times 0 and T.  The minimizer factorizes as dπ/dR = e^{φ ⊕ ψ} and the pair
(φ, ψ) solves the Schrödinger system; we iterate over-relaxed Sinkhorn,
whose half-steps move each potential by ω times the Sinkhorn update

    φ ← φ + ω(log(dμ/dm) - log P_T e^ψ - φ),
    ψ ← ψ + ω(log(dν/dm) - log P_T e^φ - ψ),

with ω = 1 (plain Sinkhorn) until the residual history shows a steady
plain rate ρ and Young's factor ω = 2/(1 + √(1 - ρ)) after that.  The loop
stops on the total-variation marginal residual, then re-centers to the
symmetric normalization  ∫φ dμ - H(μ|m) = ∫ψ dν - H(ν|m).  Inside the
loop the potentials live on the supports only: φ as one value per cell of
supp μ, ψ per cell of supp ν.  Each log P_T e^ψ on supp μ is evaluated by
`kernels.AnchoredLSE` from supp ν to supp μ, as a matrix product against
the exp buffer of a recent anchor ψ̄ with the weights e^{ψ - ψ̄} bounded
by e^τ (log-absorbed scaling), re-anchoring in the log domain when ψ moves
further; log P_T e^φ mirrors it.  Between anchors each potential is held
as those weights, in the scaling domain (Peyré & Cuturi, *Computational
Optimal Transport*, §4.4): a plain half-step is one division of a
per-anchor constant by the other side's product, and potentials are
formed in the log domain only at anchors, at the fallback point and on
return.  A solve
that starts from a solution with the same supports and kernel continues
on the operators that solution kept, at its ω; one from a solution of
the same marginals at another time T (or ε) continues it through the
SP↔EOT dictionary below, at its ω carried to the new time.

Quadratic EOT,  S^ε = inf ∫|x-y|² dπ + ε H(π | μ⊗ν),  is this problem for
the heat kernel at T = ε/4, as e^{-|x-y|²/ε} = (πε)^{d/2}·p_T: with m the
cell volumes, S^ε = ε(C_T - H(μ|m) - H(ν|m)) - (dε/2)·log(πε).  For an OU
reference at curvature κ the two problems are equivalent through the time
change ε = (4/κ) sinh(κT), that is T = arcsinh(εκ/4)/κ.  That map is stated
once (`_eot_scale`, T ↦ ε): an `EOTSolution` reads its ε off its kernel's
time, and `eot_cost_from_sp(sol)` gives S^ε of any solution at the ε of
its own kernel, so no solution is paired with an ε it was not solved at.

Values come from the potentials, C_T = ∫φ dμ + ∫ψ dν, a dual value that
is second-order accurate in the stopping residual.  The realized marginals
μ̂, ν̂ of the plan are those the loop computes for its stopping rule.  The
dense n×n plan, and with it the dense kernel, is built only by `log_plan`,
for the symmetric entropy of two plans and the test oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import (AnchoredLSE, BandwidthWarning, GibbsKernel,
                      apply_semigroup)
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
    the sum of the two relative entropies (the test oracle).

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


def _integrals(f: np.ndarray, g: np.ndarray, mu: DiscreteMeasure,
               nu: DiscreteMeasure) -> tuple[float, float]:
    """(∫f dμ, ∫g dν), summed over the supports (f, g may be -inf off them)."""
    s_mu, s_nu = mu.support(), nu.support()
    return (float(f[s_mu] @ mu.weights[s_mu]),
            float(g[s_nu] @ nu.weights[s_nu]))


@dataclass
class SchrodingerSolution:
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
    omega: float                      # ω of the last iteration (1: plain);
    #                                   solves from this solution start there
    #                                   (`_start`, `_carried_omega`)
    shift: float                      # c: the loop stopped at (φ - c, ψ + c)
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
        """log π = φ ⊕ ψ + log p_T + log m ⊗ log m (dense), the one place
        that forms the kernel's n×n matrix: a 1D kernel's factor, or in 2D
        the broadcast sum of its two factors, summed before it is added."""
        u = self.reference.log_mass()
        lw = np.add.outer(self.phi + u, self.psi + u)
        F = self.kernel.log_factors
        lw += F[0] if len(F) == 1 else (
            F[0][:, None, :, None] + F[1][None, :, None, :]).reshape(lw.shape)
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
# _RETRY times the one it went back to.  A residual that falls by less
# than _RATE_STALL (64 ulps) per iteration reads no rate: a residual is a
# sum rounded to a few ulps, so the fall may be rounding alone.
_RATE_WINDOW = 5
_RATE_STALL = 64 * math.ulp(1.0)
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
    or above the optimal ω every mode contracts by ω - 1 instead.  A λ
    within _RATE_STALL of 1 is a stall, not a rate.
    """
    if not (r0 > 0.0 and r1 > 0.0):
        return None
    lam = (r1 / r0) ** (1.0 / _RATE_WINDOW)
    if not omega - 1.0 < lam < 1.0 - _RATE_STALL:
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


def _carried_omega(omega: float, ratio: float) -> float:
    """The start ω of a solve at time ratio·T from a solution that ended at
    ω at time T.  Sinkhorn's plain rate behaves as 1 - ρ ∝ T at small T,
    so 1 - ρ' = ratio·(1 - ρ), and Young's factor of ρ' is
    ω' = 2/(1 + (2/ω - 1)·√ratio) (ω itself at ratio 1), capped at
    _OMEGA_MAX and 1 below _OMEGA_MIN.  It is not rounded to the
    1/_OMEGA_GRID grid: a computed ω carries no residual noise."""
    omega = min(omega, _OMEGA_MAX)
    if ratio != 1.0:
        omega = min(2.0 / (1.0 + (2.0 / omega - 1.0) * math.sqrt(ratio)),
                    _OMEGA_MAX)
    return omega if omega >= _OMEGA_MIN else 1.0


# Largest |log C| of the per-anchor constants C = e^{log ρ - v̄ - s} of a
# scaling half-step (`_Side`).  Its weights W lie in [e^-τ, e^τ] and the
# sums S in [e^-τ, n·e^τ], so T = C/S lies within e^{±(_SCALE_LOG_MAX + τ +
# log n)}, r = W/T and r^{1-ω} (1 ≤ ω < 2) within e^{±(_SCALE_LOG_MAX + 2τ
# + log n)}, and T·r^{1-ω} within e^{±709} for τ = 50 and n < e^79: no
# half-step overflows.
_SCALE_LOG_MAX = 200.0


class _Side:
    """One potential f of `_sinkhorn` on its support, against the marginal
    ρ and the reference masses m there, with its operator ``op``
    (v ↦ log P_T e^v to the other support, for v = f + log m).

    Between anchors f is held as the weights W = e^{v - v̄} against the
    anchor v̄ of ``op``.  The other side hands over its reduction as a
    pair (s, S) with LSE = s + log S: its operator's row shifts and sums,
    or a log-domain LSE s and S = 1.  The plain Sinkhorn weights are then
    T = C/S  with  C = e^{log ρ - v̄ - s}  (`aim`), recomputed only when v̄
    or s changes, and the plan's marginal is ρ·r with r = W/T.  A
    half-step (`step`) relaxes  W ← W·(T/W)^ω = T·r^{1-ω}, after which
    the marginal ratio is r^{1-ω}, and reduces W by one product against
    the anchor's exp buffer.  A C out of e^{±_SCALE_LOG_MAX}, or weights
    out of the anchor radius (`AnchoredLSE.near`, non-finite ones
    included), take the log-domain half-step instead: f ← f + ω(f' - f)
    with f' = log ρ - log m - s - log S, reduced by ``op`` itself, which
    re-anchors unless v is near v̄.  W, T, r, s and S are never changed in
    place, so a state is kept by reference."""

    __slots__ = ("op", "log_rho", "rho", "lm", "a", "W", "ref", "f", "T",
                 "r", "s", "S", "hat", "C", "c_vbar", "c_s", "buf")

    def __init__(self, op: AnchoredLSE, rho: DiscreteMeasure,
                 log_m: np.ndarray):
        s = rho.support()
        self.op, self.rho, self.lm = op, rho.weights[s], log_m[s]
        self.log_rho = rho.log_weights()[s]
        self.a = self.log_rho - self.lm           # log dρ/dm
        self.W, self.ref, self.f = 1.0, None, None
        self.T = self.r = self.s = self.S = self.hat = self.C = None
        self.c_vbar = self.c_s = None     # the v̄ and s that C was made for
        self.buf = np.empty(self.rho.size)

    def aim(self, s: np.ndarray, S) -> None:
        """Take the plain Sinkhorn target T = C/S for the other side's
        s + log S (None where C is out of range)."""
        vbar = self.op.vbar
        if vbar is not self.c_vbar or s is not self.c_s:
            self.c_vbar, self.c_s, self.C = vbar, s, None
            if vbar is not None:
                log_c = self.log_rho - vbar - s
                if np.abs(log_c).max() <= _SCALE_LOG_MAX:   # False on NaN
                    self.C = np.exp(log_c)
        self.s, self.S, self.hat, self.r = s, S, None, None
        self.T = None if self.C is None else self.C / S

    def ratio(self) -> np.ndarray:
        """r = W/T: the plan's marginal over ρ."""
        if self.r is None:
            self.r = self.W / self.T
        return self.r

    def step(self, omega: float):
        """Relax f toward the target by ω and reduce it: the (s, S) of
        log P_T e^v on the other support."""
        op, T = self.op, self.T
        if T is not None:
            if omega == 1.0:
                W, r = T, None
            else:
                r = self.ratio() ** (1.0 - omega)
                W = T * r
            if op.near(W):
                self.W, self.r, self.ref, self.f = W, r, op.vbar, None
                return op.row_shift, op.product(W)
        # the log domain; at ω = 1 the half-step is taken as is
        lse = self.s + np.log(self.S)
        f = self.a - lse
        if omega != 1.0:
            f0 = self.potential()
            f = f0 + omega * (f - f0)
        v = f + self.lm
        reduced = op.reduce(v)
        self.ref, self.f, self.r = op.vbar, f, None
        self.W = np.exp(v - self.ref)
        self.hat = np.exp(v + lse)        # the marginal until the next `aim`
        return reduced

    def potential(self) -> np.ndarray:
        """f in the log domain."""
        return self.f if self.f is not None \
            else (self.ref - self.lm) + np.log(self.W)

    def marginal(self) -> np.ndarray:
        """ρ̂ of the plan: ρ·r, or e^{v + s + log S} in the log domain."""
        if self.hat is None:
            self.hat = self.rho * self.ratio() if self.T is not None \
                else np.exp(self.potential() + self.lm + self.s
                            + np.log(self.S))
        return self.hat

    def residual(self) -> float:
        """Σ|ρ̂ - ρ| = Σ ρ·|r - 1|; 0 right after a plain half-step."""
        if self.hat is None and self.T is not None:
            if self.W is self.T:
                return 0.0
            b = self.buf
            np.subtract(self.ratio(), 1.0, out=b)
            np.abs(b, out=b)
            return float(np.dot(self.rho, b))
        return float(np.abs(self.marginal() - self.rho).sum())

    def keep(self) -> tuple:
        """(f, ρ̂) in the log domain, for `restore`."""
        return self.potential(), self.marginal()

    def restore(self, kept: tuple) -> None:
        """Go back to a kept (f, ρ̂); its W is relative to f + log m
        itself, so the next half-step must be plain."""
        self.f, self.hat = kept
        self.ref, self.W, self.r = self.f + self.lm, 1.0, None


def _sinkhorn(ops: tuple[AnchoredLSE, AnchoredLSE], log_m: np.ndarray,
              mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float,
              max_iter: int, init_g: np.ndarray, start_omega: float):
    """Over-relaxed Sinkhorn for plans π = e^{f ⊕ g + K}·(m ⊗ m), K
    symmetric and m the reference measure, in the scaling domain between
    anchors.

    Each iteration takes the Sinkhorn half-step  f' = log μ - log m -
    LSE_K(g + log m)  on supp μ, with LSE_K(v)_i = LSE_j(K_ij + v_j), and
    sets  f ← f + ω(f' - f)  there, then does the mirror update for g on
    supp ν; the first half-step reads g = ``init_g``.  It stops when the
    larger of the two L1 marginal residuals of the plan of the relaxed
    (f, g) drops to ``tol``.  f, g, μ̂, ν̂ and the residual are computed
    on the supports only (f and g are -inf off them); grid vectors are
    built on return.

    ω starts at 1, plain Sinkhorn.  A ``start_omega`` above 1 (`_start`)
    takes over after the first iteration, which stays plain since f has no
    earlier value; the fallback point is set there.  When two consecutive
    windows of the residual history agree on a plain rate ρ
    (`_implied_omega`), ω rises to
    Young's factor 2/(1 + √(1 - ρ)), which shrinks the contraction per
    iteration from ρ to about ω - 1 and keeps the fixed point (Thibault,
    Chizat, Dossal & Papadakis 2021; Lehmann, von Renesse, Sambale &
    Uschmajew 2022).  Under relaxation the same windows read ρ through
    Young's relation, so an ω taken too low rises further; ω never falls
    but by the fallback.  If a relaxed residual exceeds `_FALLBACK` times
    the best since ω last rose, or is NaN, the loop returns to the
    potentials it had then and goes on with ω = 1; it relaxes again only
    once the residual is below `_RETRY` times theirs.

    The loop reaches K only through ``ops``, its `AnchoredLSE` operators
    supp μ → supp ν and supp ν → supp μ, and keeps each potential as
    weights against its operator's anchor (`_Side`): between anchors a
    half-step is one division, the relaxation, one matrix product against
    the anchor's exp buffer, and the residual Σρ·|W/T - 1|; potentials are
    formed in the log domain only at anchors, at the fallback point and on
    return.  `_start` resolves ``ops``, ``init_g`` and ``start_omega``.
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
    lse_on_f, lse_on_g = ops
    f, g = _Side(lse_on_f, mu, log_m), _Side(lse_on_g, nu, log_m)
    f.aim(*lse_on_g.reduce(init_g + g.lm))

    history = []
    converged = False
    omega, since, retry_below = 1.0, 0, math.inf
    n_done = 0
    for n_done in range(1, max_iter + 1):
        g.aim(*f.step(omega))
        s, S = g.step(omega)
        f.aim(s, S)
        res = max(f.residual(), g.residual())
        if omega != 1.0:
            if res <= _FALLBACK * best:             # False on NaN
                best = min(best, res)
            else:
                kept_f, kept_g, s, S, res = start
                f.aim(s, S)              # before `restore`, which sets ρ̂
                f.restore(kept_f)
                g.restore(kept_g)
                omega, since, retry_below = 1.0, n_done, _RETRY * res
        history.append(res)
        if res <= tol:
            converged = True
            break
        if n_done == 1 or (n_done - since > 2 * _RATE_WINDOW
                           and res <= retry_below):
            w = start_omega if n_done == 1 else _implied_omega(history, omega)
            if w > omega:
                start = (f.keep(), g.keep(), s, S, res)
                omega, since, best = w, n_done, res
    return (_on_grid(f.potential(), s_mu, -np.inf),
            _on_grid(g.potential(), s_nu, -np.inf),
            _on_grid(f.marginal(), s_mu, 0.0),
            _on_grid(g.marginal(), s_nu, 0.0),
            n_done, history, converged, omega)


def _on_grid(x: np.ndarray, support: np.ndarray, fill: float) -> np.ndarray:
    """The compact ``x`` on ``support`` as a grid vector, ``fill`` off it."""
    out = np.full(support.shape, fill)
    out[support] = x
    return out


def _warm_start(init, nu: DiscreteMeasure, name: str) -> np.ndarray:
    """The start of the ν-side potential: its values on supp ν; None is
    the cold start 0 there (u = 1; Peyré & Cuturi, §4.2).

    Raises ValueError unless ``init`` has shape (n_cells,) and is finite on
    supp ν; its values off supp ν are ignored.
    """
    s_nu = nu.support()
    if init is None:
        return np.zeros(np.count_nonzero(s_nu))
    init = np.asarray(init, dtype=float)
    if init.shape != s_nu.shape or not np.all(np.isfinite(init[s_nu])):
        raise ValueError(f"{name} needs shape (n_cells,) and finite values "
                         "on supp ν")
    return init[s_nu]


def _fresh_operators(K: GibbsKernel, mu: DiscreteMeasure,
                     nu: DiscreteMeasure) -> tuple[AnchoredLSE, AnchoredLSE]:
    """Fresh operators of `_sinkhorn`: supp μ → supp ν, supp ν → supp μ."""
    s_mu, s_nu = mu.support(), nu.support()
    return AnchoredLSE(K, s_nu, s_mu), AnchoredLSE(K, s_mu, s_nu)


def _start(base: SchrodingerSolution | None, init, K: GibbsKernel,
           mu: DiscreteMeasure, nu: DiscreteMeasure, name: str,
           lift: np.ndarray | float = 0.0):
    """(g, ω, ops): `_sinkhorn`'s start for g on supp ν, its
    ``start_omega`` and its two operators, for every kind of start.
    ``init`` is None (cold: 0) or a grid vector (`_warm_start`), taken to
    ψ by adding ``lift`` on supp ν (EOT's b ↦ ψ); ``base`` is None or the
    solution that ``init`` was read from.

    A base on the supports of μ and ν hands on its kept operators
    (`AnchoredLSE.shared`) when its kernel is K; on other supports the
    start is cold, since its potentials need not be finite on supp ν.  A
    base of K's family (κ) at K's time, or with the marginals μ and ν at
    another time, is continued: the loop starts at its ω carried to K's
    time (`_carried_omega`), and at another time ψ goes through the
    SP↔EOT dictionary (`_continued`).  Any other base starts from
    ``init`` at ω = 1."""
    g, omega, ops = None, 1.0, None
    if base is not None:
        if not base.same_supports(mu, nu):
            init = None
        else:
            if base.kernel is K and base._operators:
                ops = tuple(op.shared() for op in base._operators)
            if base.kernel.kappa == K.kappa and (
                    base.T == K.T
                    or (np.array_equal(base.mu.weights, mu.weights)
                        and np.array_equal(base.nu.weights, nu.weights))):
                omega = _carried_omega(base.omega, K.T / base.T)
                if base.T != K.T:
                    g = _continued(base, K)
    if g is None:
        g = _warm_start(init, nu, name) + lift
    return g, omega, ops or _fresh_operators(K, mu, nu)


def _solve(cls: type, mu: DiscreteMeasure, nu: DiscreteMeasure,
           kernel: GibbsKernel, tol: float, max_iter: int, start: tuple,
           keep_operators: bool) -> SchrodingerSolution:
    """The ``cls`` solution of `_sinkhorn` from the start (init_g, ω, ops)
    of `_start`, re-centered to the symmetric normalization; it keeps the
    operators with ``keep_operators``."""
    ref = kernel.reference
    init_g, start_omega, ops = start
    phi, psi, mu_hat, nu_hat, n_done, history, converged, omega = _sinkhorn(
        ops, ref.log_mass(), mu, nu, tol, max_iter, init_g, start_omega)

    h_mu = relative_entropy(mu, ref)
    h_nu = relative_entropy(nu, ref)

    # symmetric normalization: shift so both sides of the gauge agree
    a, b = _integrals(phi, psi, mu, nu)
    c = 0.5 * ((b - h_nu) - (a - h_mu))
    phi = phi + c
    psi = psi - c

    sol = cls(mu=mu, nu=nu, kernel=kernel, phi=phi, psi=psi, mu_hat=mu_hat,
              nu_hat=nu_hat, n_iter=n_done, marginal_residual=history[-1],
              residual_history=np.asarray(history), converged=converged,
              h_mu=h_mu, h_nu=h_nu, omega=omega, shift=c)
    if keep_operators:
        sol._operators = ops
    return sol


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, kernel: GibbsKernel,
          tol: float = 1e-9, max_iter: int = 100_000,
          init_psi: np.ndarray | SchrodingerSolution | None = None,
          keep_operators: bool = False) -> SchrodingerSolution:
    """Over-relaxed anchored Sinkhorn for the Schrödinger system.

    Stops when the larger of the two L1 marginal residuals of the implied
    plan drops to ``tol``.  The returned potentials are re-centered to the
    symmetric normalization; convergence failure is recorded, not raised.
    ``init_psi`` warm-starts ψ: one value per cell, finite on supp ν (the
    values off supp ν are ignored), or a solution (`_start`); None is ψ = 0
    on supp ν.  A solution of this kernel's family (κ) on the supports of
    μ and ν is continued when it has this kernel's time or the marginals
    μ, ν: the loop starts at its ω, carried to T (`_carried_omega`), and at
    another T from its ψ mapped through the SP↔EOT dictionary, first order
    in ε on the line (`_continued`); a T-ladder passes each rung's solution
    to the next.
    ``keep_operators`` keeps the two Sinkhorn operators on the returned
    solution, for solves that start from it; otherwise their n² buffers
    are freed on return.
    """
    _check_problem(mu, nu, kernel)
    base = init_psi if isinstance(init_psi, SchrodingerSolution) else None
    start = _start(base, init_psi if base is None else base.psi, kernel,
                   mu, nu, "init_psi")
    return _solve(SchrodingerSolution, mu, nu, kernel, tol, max_iter, start,
                  keep_operators)


def require_converged(sol) -> None:
    if not sol.converged:
        raise NotConverged(
            f"solution did not converge (residual {sol.marginal_residual:g} "
            f"after {sol.n_iter} iterations)")


# ---------------------------------------------------------------------------
# quadratic entropic optimal transport
# ---------------------------------------------------------------------------

class EOTSolution(SchrodingerSolution):
    """Quadratic EOT at ε: the solution of the heat kernel at T = ε/4, with
    its value S^ε and its potentials a, b against μ⊗ν, the plan being
    e^{a ⊕ b - |x-y|²/ε}·(μ ⊗ ν).  a and b are taken in the gauge the loop
    stopped in, where the operators it keeps were anchored."""

    # its own entry, which perfbench's tracer wraps by name
    log_plan = SchrodingerSolution.log_plan

    @property
    def epsilon(self) -> float:
        """ε = 4T, read off the kernel: the ε it was solved at, bit for
        bit, as the kernel was built at T = ε/4."""
        return _eot_scale(self.T, 0.0)[0]

    @property
    def cost(self) -> float:
        """S^ε, from C_T (`eot_cost_from_sp`)."""
        return eot_cost_from_sp(self)

    @property
    def a(self) -> np.ndarray:
        """φ - c + log m - log μ - (d/2)·log(πε) on supp μ (c = ``shift``)."""
        log_c = 0.5 * self.mu.grid.ndim * math.log(math.pi * self.epsilon)
        return self._against(self.mu, self.phi - self.shift - log_c)

    @property
    def b(self) -> np.ndarray:
        """ψ + c + log m - log ν on supp ν."""
        return self._against(self.nu, self.psi + self.shift)

    def _against(self, rho: DiscreteMeasure, f: np.ndarray) -> np.ndarray:
        s = rho.support()
        f = f[s] + self.reference.log_mass()[s] - rho.log_weights()[s]
        return _on_grid(f, s, -np.inf)


def eot_quadratic_direct(mu: DiscreteMeasure, nu: DiscreteMeasure,
                         epsilon: float, tol: float = 1e-9,
                         max_iter: int = 100_000,
                         init_b: np.ndarray | EOTSolution | None = None,
                         keep_operators: bool = False) -> EOTSolution:
    """Quadratic EOT at ε, solved as `solve` does on the heat kernel at
    T = ε/4; √(ε/2) below twice the cell width sets ``kernel.underresolved``
    and warns (`BandwidthWarning`).

    S^ε comes from C_T, a dual value: at the optimum it equals the primal
    ∫|x-y|²dπ + εH(π|μ⊗ν), and its error is second order in the marginal
    residual where the primal's is first order, also where the loop stops
    on a relaxed iterate (on the tested problems, the default ``tol`` gives
    the cost of a ``tol=1e-13`` plain solve to 1e-12 relative).

    ``init_b`` warm-starts b: one value per cell, finite on supp ν (the
    values off supp ν are ignored), or a solution, which starts from its b
    and, at this ε on this grid, lends its kernel.  ψ starts at
    b + log ν - log m on supp ν (b = 0 without ``init_b``).  A solution
    is continued as in `solve`: at this ε from its ω, and at another ε
    with the marginals μ, ν through the dictionary (T = ε/4).
    ``keep_operators`` is that of `solve`.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    base = init_b if isinstance(init_b, EOTSolution) else None
    if base is not None and base.epsilon == epsilon \
            and base.mu.grid.same_as(mu.grid):
        kernel = base.kernel
    else:
        kernel = GibbsKernel.heat(mu.grid, epsilon / 4.0)
    _check_problem(mu, nu, kernel)
    s = nu.support()
    lift = nu.log_weights()[s] - kernel.reference.log_mass()[s]   # b ↦ ψ
    start = _start(base, init_b if base is None else base.b, kernel, mu, nu,
                   "init_b", lift)
    return _solve(EOTSolution, mu, nu, kernel, tol, max_iter, start,
                  keep_operators)


# ---------------------------------------------------------------------------
# the SP ↔ EOT dictionary
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


def _dictionary(K: GibbsKernel,
                nu: DiscreteMeasure) -> tuple[float, float, np.ndarray]:
    """(ε, k, q) at the kernel K (`_eot_scale`), with
    q = k|y|² + log m - log ν on supp ν: ψ + q is the EOT potential b of
    (μ, ν) at ε up to a constant, and ε·b tends to the Kantorovich
    potential g_K as T ↓ 0."""
    eps, k = _eot_scale(K.T, K.kappa)
    s = nu.support()
    y2 = np.sum(nu.grid.points()[s] ** 2, axis=1)
    return eps, k, k * y2 + K.reference.log_mass()[s] - nu.log_weights()[s]


def _kantorovich_rung(mu: DiscreteMeasure, nu: DiscreteMeasure,
                      epsilon: float, k: float) -> np.ndarray:
    """ε·(ψ₀ + q) on supp ν for the T → 0 limit ψ₀ = g_K/ε - q + c
    (`_kantorovich_start`; 1D, O(n)).

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


def _kantorovich_start(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       K: GibbsKernel) -> np.ndarray:
    """The T → 0 start ψ₀ = g_K/ε - q + c of the problem (μ, ν, K) as a
    grid vector (`_kantorovich_rung`, `_dictionary`; 1D), 0 off supp ν."""
    eps, k, q = _dictionary(K, nu)
    init = np.zeros(nu.grid.n_cells)
    init[nu.support()] = _kantorovich_rung(mu, nu, eps, k) / eps - q
    return init


def _continued(base: SchrodingerSolution, K: GibbsKernel) -> np.ndarray:
    """ψ on supp ν that continues ``base`` to the kernel K of its family
    at another time, through the SP↔EOT dictionary (`_dictionary`): with
    b = ψ + q at ε and b' at ε', the start is ψ' = b' - q', where
    ε'b' = g_K(ε') + (ε'/ε)(εb - g_K(ε)) in 1D, first order in ε
    (g_K(ε) = `_kantorovich_rung` at ε), and ε'b' = εb elsewhere.  In 1D
    that is ψ' = ψ + (k - k')y² + g_K(ε')/ε' - g_K(ε)/ε, as the family
    and the grid fix m, so q - q' = (k - k')y²."""
    mu, nu = base.mu, base.nu
    s = nu.support()
    if nu.grid.ndim == 1:
        eps, k = _eot_scale(base.T, base.kernel.kappa)
        eps2, k2 = _eot_scale(K.T, K.kappa)
        return (base.psi[s] + (k - k2) * nu.grid.axes[0][s] ** 2
                + _kantorovich_rung(mu, nu, eps2, k2) / eps2
                - _kantorovich_rung(mu, nu, eps, k) / eps)
    eps, _, q = _dictionary(base.kernel, nu)
    eps2, _, q2 = _dictionary(K, nu)
    return eps / eps2 * (base.psi[s] + q) - q2


def eot_cost_from_sp(sol: SchrodingerSolution) -> float:
    """S^ε of a Schrödinger solution at the ε of its kernel
    (`_eot_scale`: ε = 4 sinh(κT)/κ, 4T for heat; m the cell volumes):

    heat:  S^ε = ε(C_T - H(μ|m) - H(ν|m)) - (dε/2)·log(πε),
    OU:    S^ε = ε(C_T - H(μ|m) - H(ν|m)) - (dε/2)·log(1 - e^{-2κT})
                 + (1 - e^{-κT})·(M2(μ) + M2(ν)).
    """
    kappa, T, d = sol.kernel.kappa, sol.T, sol.mu.grid.ndim
    epsilon = _eot_scale(T, kappa)[0]
    core = epsilon * (sol.entropic_cost() - sol.h_mu - sol.h_nu)
    if kappa == 0.0:
        return core - 0.5 * d * epsilon * math.log(math.pi * epsilon)
    log_term = -0.5 * d * epsilon * math.log(-math.expm1(-2.0 * kappa * T))
    mom_term = (-math.expm1(-kappa * T)) * (second_moment(sol.mu)
                                            + second_moment(sol.nu))
    return core + log_term + mom_term
