"""Gibbs kernels (heat and Ornstein-Uhlenbeck) and their discrete semigroup.

Heat and OU log transition densities on a tensor grid are sums of per-axis
1D log densities, so a kernel is stored as one log factor per axis,

    log p_T((x_0, x_1), (y_0, y_1)) = F_0[x_0, y_0] + F_1[x_1, y_1],

against a reference measure: heat transition densities are taken w.r.t.
Lebesgue, OU transition densities w.r.t. the stationary Gaussian N(0, I/κ).
Every use of a kernel goes through one operator, `LogKernel.lse`, which
computes LSE_j(K_ij + v_j) one axis at a time (Solomon et al. 2015,
*Convolutional Wasserstein Distances*) and never forms the n×n matrix.
Applying the semigroup to e^f adds the reference log masses:

    (log P_T e^f)_i = LSE_j( log p_T(x_i, x_j) + log m_j + f_j ),

which never leaves the log domain.  The one exception is `AnchoredLSE`,
the operator behind the Sinkhorn loop: near a cached anchor v̄ it computes
the same LSE as a matrix product against the exp buffer of v̄ with bounded
weights e^{v - v̄} (log-absorbed scaling, Schmitzer 2019,
arXiv:1610.06519), and re-anchors in the log domain otherwise.  The
curvature factor

    E_{2κ}(t) = ∫_0^t e^{2κs} ds = (e^{2κt} - 1) / (2κ)

is the conversion between entropic costs and squared-gradient norms used by
every estimate downstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .measures import Grid, ReferenceMeasure


class BandwidthWarning(UserWarning):
    """Kernel bandwidth below grid resolution: results are under-resolved."""


def curvature_factor(kappa: float, t: float) -> float:
    """E_{2κ}(t) = (e^{2κt} - 1)/(2κ), continuously extended to t at κ=0."""
    if t <= 0:
        raise ValueError("curvature factor needs t > 0")
    if kappa == 0.0:
        return float(t)
    return float(math.expm1(2.0 * kappa * t) / (2.0 * kappa))


def heat_kernel(x, y, T: float, d: int | None = None) -> float:
    """Heat transition density p_T(x, y) w.r.t. Lebesgue."""
    if T <= 0:
        raise ValueError("kernel needs T > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.size if d is None else d
    r2 = float(np.sum((x - y) ** 2))
    return math.exp(-0.5 * d * math.log(4.0 * math.pi * T) - r2 / (4.0 * T))


def ou_kernel(x, y, T: float, kappa: float) -> float:
    """OU transition density w.r.t. its stationary measure N(0, I/κ).

    log p_T(x,y) = -(d/2) log(1 - e^{-2κT})
                   - κ (|x|² - 2 e^{κT} x·y + |y|²) / (2 (e^{2κT} - 1)).
    """
    if T <= 0 or kappa <= 0:
        raise ValueError("OU kernel needs T > 0 and kappa > 0")
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


def _squared_distances(x: np.ndarray) -> np.ndarray:
    """|x_i - x_j|² over one axis of midpoints, exactly symmetric (each
    entry is one product and commutative sums) and clamped at 0."""
    sq = x ** 2
    d2 = sq[:, None] + sq[None, :] - 2.0 * np.multiply.outer(x, x)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _outer_sum(factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """Dense Σ_k factors[k][i_k, j_k] over cells in flat C order; a single
    factor is returned as is."""
    out = factors[0]
    for f in factors[1:]:
        n, m = out.shape[0], f.shape[0]
        out = (out[:, None, :, None] + f[None, :, None, :]).reshape(n * m,
                                                                    n * m)
    return out


@dataclass(frozen=True)
class LogKernel:
    """Log Gibbs factor K on a tensor grid, one square log factor per axis.

    Over cells in flat C order,
    ``K[(i_0, i_1), (j_0, j_1)] = log_factors[0][i_0, j_0]
    + log_factors[1][i_1, j_1]``; a single factor is K itself.  `lse` is
    the one operator every consumer uses (the Sinkhorn loop through
    `AnchoredLSE`, which re-anchors through the same per-axis reduction);
    `log_matrix` is a dense view for the dense plans and the test oracles.
    """

    log_factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        for f in self.log_factors:
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise ValueError("log factors must be square matrices")

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of cells along each factor's axis."""
        return tuple(f.shape[0] for f in self.log_factors)

    @property
    def log_matrix(self) -> np.ndarray:
        """Dense K over cells; with one factor this is the factor itself
        (no copy), otherwise it is built on each access."""
        return _outer_sum(self.log_factors)

    def scratch(self) -> tuple[np.ndarray, ...]:
        """One `lse_matvec` buffer per axis, shaped for the batched
        reduction of that axis in `lse`."""
        s = self.shape
        return tuple(np.empty(s[:k] + s[k + 1:] + f.shape)
                     for k, f in enumerate(self.log_factors))

    def lse(self, v: np.ndarray) -> np.ndarray:
        """out_i = LSE_j(K_ij + v_j) over flat cells, one axis at a time
        (last axis first); -inf entries of v carry zero mass."""
        x = v.reshape(self.shape)
        for k in reversed(range(len(self.log_factors))):
            x = lse_matvec(self.log_factors[k],
                           x.swapaxes(k, -1)).swapaxes(k, -1)
        return x.reshape(-1)


@dataclass(frozen=True)
class GibbsKernel(LogKernel):
    """Log transition density on a grid, one factor per axis.

    ``log_matrix[i, j] = log p_T(x_i, x_j)`` against ``reference``; every
    factor is exactly symmetric by construction.  ``underresolved`` is set
    when the kernel bandwidth sqrt(2T) falls below twice the largest cell
    width.
    """

    grid: Grid
    reference: ReferenceMeasure
    kind: str
    T: float
    kappa: float = 0.0
    underresolved: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.shape != self.grid.shape:
            raise ValueError("log factor shapes do not match the grid")

    @staticmethod
    def _bandwidth_flag(grid: Grid, T: float) -> bool:
        flag = math.sqrt(2.0 * T) < 2.0 * grid.max_cell_width()
        if flag:
            warnings.warn(
                f"kernel bandwidth sqrt(2T)={math.sqrt(2 * T):.3g} is below "
                f"twice the max cell width {grid.max_cell_width():.3g}; "
                "results are under-resolved", BandwidthWarning, stacklevel=3)
        return flag

    @staticmethod
    def heat(grid: Grid, T: float) -> "GibbsKernel":
        """Heat kernel at time T against the Lebesgue reference."""
        if T <= 0:
            raise ValueError("kernel needs T > 0")
        c = -0.5 * math.log(4.0 * math.pi * T)
        factors = tuple(c - _squared_distances(x) / (4.0 * T)
                        for x in grid.axes)
        return GibbsKernel(factors, grid, ReferenceMeasure.lebesgue(grid),
                           "heat", float(T), 0.0,
                           GibbsKernel._bandwidth_flag(grid, T))

    @staticmethod
    def ou(grid: Grid, T: float, kappa: float) -> "GibbsKernel":
        """OU kernel at time T against its stationary Gaussian N(0, I/κ)."""
        if T <= 0 or kappa <= 0:
            raise ValueError("OU kernel needs T > 0 and kappa > 0")
        c = -0.5 * math.log(-math.expm1(-2.0 * kappa * T))
        w = kappa / (2.0 * math.expm1(2.0 * kappa * T))
        e = 2.0 * math.exp(kappa * T)
        factors = []
        for x in grid.axes:
            sq = x ** 2
            quad = sq[:, None] + sq[None, :] - e * np.multiply.outer(x, x)
            factors.append(c - w * quad)
        return GibbsKernel(tuple(factors), grid,
                           ReferenceMeasure.gaussian(grid, kappa),
                           "ou", float(T), float(kappa),
                           GibbsKernel._bandwidth_flag(grid, T))

    def at_time(self, t: float) -> "GibbsKernel":
        """Same family and grid at a different time."""
        if self.kind == "heat":
            return GibbsKernel.heat(self.grid, t)
        return GibbsKernel.ou(self.grid, t, self.kappa)

    def curvature_factor(self) -> float:
        return curvature_factor(self.kappa, self.T)

    def row_mass_defect(self) -> float:
        """max_i |Σ_j p(x_i,x_j) m_j - 1| (quadrature quality diagnostic)."""
        rows = self.lse(self.reference.log_mass())
        return float(np.max(np.abs(np.exp(rows) - 1.0)))


def lse_matvec(A: np.ndarray, v: np.ndarray,
               buf: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log-sum-exp of A + v: out_i = LSE_j(A_ij + v_j).

    ``v`` is (m,) for one vector or (k, m) for a batch, giving (n,) or
    (k, n); each batch row is reduced exactly as a single call would.
    Handles -inf entries (treated as zero mass); rows that are entirely -inf
    come out as -inf.  ``buf`` optionally reuses a v.shape[:-1] + (n, m)
    scratch array; on return it holds exp(A_ij + v_j - M_i), with M_i the
    row maximum (0 on rows that are all -inf).
    """
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


# sup-norm radius τ of an `AnchoredLSE` anchor.  Weights e^{v - v̄} stay in
# [e^-τ, e^τ] and a live row sum stays above e^-τ, so flushing the entries
# of an anchor's exp buffer below tiny·e^τ (subnormal products make a matrix
# product several times slower) changes a row sum by less than
# m·tiny·e^{3τ} ≈ m·3e-243 relative.
ANCHOR_RADIUS = 50.0


class AnchoredLSE:
    """`K.lse(v)` for a sequence of nearby v, from a cached anchor.

    Re-anchoring at v̄ runs `K.lse(v̄)` through `lse_matvec`, which leaves
    E_k = exp(F_k + x̄_k - s_k) in the buffer of axis k, for that axis's
    input x̄_k and row shifts s_k.  While v keeps the -inf pattern of v̄ and
    max|v - v̄| ≤ τ on its other entries, each axis then returns

        LSE_j(F_k[i, j] + x_j) = s_k[i] + log Σ_j E_k[i, j] e^{x_j - x̄_j}

    (weight 0 where x̄_j = -inf): one batched matrix product, no exp of an
    n×n array.  LSE is 1-Lipschitz in the sup norm and keeps -inf patterns,
    so the input of every later axis stays within τ of its anchor as well.
    Any other v re-anchors; ``n_anchors`` counts the anchors taken.
    """

    def __init__(self, K: LogKernel):
        self.K = K
        self.buf = K.scratch()
        self.n_anchors = 0
        self._live: np.ndarray | None = None  # entries of v̄ above -inf
        self._v_live: np.ndarray | None = None  # v̄ on those entries
        # per axis in reduction order: (x̄ with +inf for -inf, row shifts)
        self._axes: list[tuple[np.ndarray, np.ndarray]] = []

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if not self._near(v):
            return self._anchor(v)
        x = v.reshape(self.K.shape)
        for k, (xbar, shift) in zip(reversed(range(len(self.buf))),
                                    self._axes):
            # e^{x - x̄}; where x = x̄ = -inf this is e^{-inf - inf} = 0
            w = np.exp(x.swapaxes(k, -1) - xbar)
            s = np.matmul(self.buf[k], w[..., None])[..., 0]
            with np.errstate(divide="ignore"):
                x = (shift + np.log(s)).swapaxes(k, -1)
        return x.reshape(-1)

    def _near(self, v: np.ndarray) -> bool:
        """Same -inf pattern as v̄ and max|v - v̄| ≤ τ (False on NaN)."""
        live = self._live
        if live is None or not np.array_equal(~np.isneginf(v), live):
            return False
        d = np.abs(v[live] - self._v_live)
        return bool(d.max(initial=0.0) <= ANCHOR_RADIUS)

    def _anchor(self, v: np.ndarray) -> np.ndarray:
        self.n_anchors += 1
        self._live = ~np.isneginf(v)
        self._v_live = v[self._live]
        self._axes = []
        floor = np.finfo(float).tiny * math.exp(ANCHOR_RADIUS)
        x = v.reshape(self.K.shape)
        for k in reversed(range(len(self.buf))):
            xk = x.swapaxes(k, -1)
            E = self.buf[k]
            out = lse_matvec(self.K.log_factors[k], xk, E)
            # s_k = out - log Σ_j E_k[i, j], so that v = v̄ returns out
            # itself; rows that are all -inf keep s_k = 0 and E_k = 0
            live = out > -np.inf
            shift = np.zeros(out.shape)
            np.log(E.sum(axis=-1), out=shift, where=live)
            np.subtract(out, shift, out=shift, where=live)
            np.copyto(E, 0.0, where=E < floor)
            self._axes.append((np.where(np.isneginf(xk), np.inf, xk), shift))
            x = out.swapaxes(k, -1)
        return x.reshape(-1)


def apply_semigroup(kernel: GibbsKernel, log_f: np.ndarray) -> np.ndarray:
    """log(P_T e^f) on the grid against the kernel's reference measure,
    computed entirely in the log domain.

    Raises if e^f is identically zero (all -inf input).
    """
    log_f = np.asarray(log_f, dtype=float)
    if log_f.shape != (kernel.grid.n_cells,):
        raise ValueError("log_f must be flat with one entry per cell")
    if np.all(np.isneginf(log_f)):
        raise ValueError("semigroup input is identically zero")
    if np.any(np.isnan(log_f)) or np.any(np.isposinf(log_f)):
        raise ValueError("log_f must be in [-inf, +inf)")
    return kernel.lse(log_f + kernel.reference.log_mass())
