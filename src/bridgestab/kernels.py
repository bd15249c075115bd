"""Gibbs kernels (heat and Ornstein-Uhlenbeck) and their discrete semigroup.

Kernels are stored as dense log-density matrices against a reference measure:
heat transition densities are taken w.r.t. Lebesgue, OU transition densities
w.r.t. the stationary Gaussian N(0, I/κ).  Applying the semigroup to e^f is a
single log-sum-exp reduction

    (log P_T e^f)_i = LSE_j( log p_T(x_i, x_j) + log m_j + f_j ),

which never leaves the log domain.  The curvature factor

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


def _mirrored_gram(pts: np.ndarray) -> np.ndarray:
    """pts @ pts.T made exactly symmetric by mirroring the upper triangle."""
    g = pts @ pts.T
    return np.triu(g) + np.triu(g, 1).T


def _squared_distances(grid: Grid) -> np.ndarray:
    """|x_i - x_j|² over grid × grid, exactly symmetric and clamped at 0."""
    pts = grid.points()
    sq = np.sum(pts ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * _mirrored_gram(pts)
    np.maximum(d2, 0.0, out=d2)
    return d2


@dataclass(frozen=True)
class GibbsKernel:
    """Dense log transition matrix on a grid.

    ``log_matrix[i, j] = log p_T(x_i, x_j)`` against ``reference``; the matrix
    is exactly symmetric by construction.  ``underresolved`` is set when the
    kernel bandwidth sqrt(2T) falls below twice the largest cell width.
    """

    grid: Grid
    log_matrix: np.ndarray
    reference: ReferenceMeasure
    kind: str
    T: float
    kappa: float = 0.0
    underresolved: bool = False

    def __post_init__(self):
        n = self.grid.n_cells
        if self.log_matrix.shape != (n, n):
            raise ValueError("log_matrix shape mismatch")

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
        log_m = -0.5 * grid.ndim * math.log(4.0 * math.pi * T) \
            - _squared_distances(grid) / (4.0 * T)
        return GibbsKernel(grid, log_m, ReferenceMeasure.lebesgue(grid),
                           "heat", float(T), 0.0,
                           GibbsKernel._bandwidth_flag(grid, T))

    @staticmethod
    def ou(grid: Grid, T: float, kappa: float) -> "GibbsKernel":
        """OU kernel at time T against its stationary Gaussian N(0, I/κ)."""
        if T <= 0 or kappa <= 0:
            raise ValueError("OU kernel needs T > 0 and kappa > 0")
        pts = grid.points()
        sq = np.sum(pts ** 2, axis=1)
        gram = _mirrored_gram(pts)
        denom = 2.0 * math.expm1(2.0 * kappa * T)
        quad = sq[:, None] + sq[None, :] - 2.0 * math.exp(kappa * T) * gram
        log_m = -0.5 * grid.ndim * math.log(-math.expm1(-2.0 * kappa * T)) \
            - (kappa / denom) * quad
        return GibbsKernel(grid, log_m, ReferenceMeasure.gaussian(grid, kappa),
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
        rows = lse_matvec(self.log_matrix,
                          self.reference.log_mass())
        return float(np.max(np.abs(np.exp(rows) - 1.0)))


def lse_matvec(A: np.ndarray, v: np.ndarray,
               buf: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log-sum-exp of A + v: out_i = LSE_j(A_ij + v_j).

    Handles -inf entries (treated as zero mass); rows that are entirely -inf
    come out as -inf.  ``buf`` optionally reuses an (n, m) scratch array.
    """
    if buf is None:
        buf = np.empty_like(A)
    np.add(A, v[None, :], out=buf)
    m = np.max(buf, axis=1)
    finite = m > -np.inf
    shift = np.where(finite, m, 0.0)
    np.subtract(buf, shift[:, None], out=buf)
    np.exp(buf, out=buf)
    s = buf.sum(axis=1)
    with np.errstate(divide="ignore"):
        out = shift + np.log(s)
    out[~finite] = -np.inf
    return out


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
    return lse_matvec(kernel.log_matrix,
                      log_f + kernel.reference.log_mass())
