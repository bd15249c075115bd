"""Weighted negative Sobolev norms and Wasserstein-2 distances on grids.

The homogeneous Ḣ^{-1}(μ) norm of a zero-mass signed measure ν is

    ‖ν‖²_{Ḣ^{-1}(μ)} = ⟨h, ν⟩   with   L_μ h = ν,

where L_μ is the weighted graph Laplacian on the grid with one edge per pair
of axis-adjacent cells and edge weight (μ_a + μ_b) / (2 Δx²) — a midpoint
discretization of -∇·(μ∇·).  If the rhs puts net mass on a connected
component of supp μ the problem is infeasible and the norm is +inf.

W2 on the line is evaluated exactly: both quantile functions are piecewise
constant, so integrating |F_μ^{-1} - F_ν^{-1}|² over the merged breakpoint
partition (midpoint per segment) incurs no quadrature error.  A dense LP on
small supports serves as the independent oracle in any dimension, and the
comparison  W2(μ, μ̄) ≤ 2 ‖μ - μ̄‖_{Ḣ^{-1}(μ)}  is packaged as a report.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import factorized

from .measures import (MASS_FLOOR, DiscreteMeasure, Grid, SignedMeasure,
                       difference)
from .reports import make_report

LP_MAX_ATOMS = 64


# ---------------------------------------------------------------------------
# weighted Laplacian and the H^{-1} norm
# ---------------------------------------------------------------------------

def grid_edges(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axis-adjacent cell pairs (ia, ib) with per-edge 1/Δx² factors."""
    idx = np.arange(grid.n_cells).reshape(grid.shape)
    all_a, all_b, all_inv = [], [], []
    for ax in range(grid.ndim):
        dx = np.diff(grid.axes[ax])
        lo = [slice(None)] * grid.ndim
        hi = [slice(None)] * grid.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        ia = idx[tuple(lo)].ravel()
        ib = idx[tuple(hi)].ravel()
        shape = [1] * grid.ndim
        shape[ax] = dx.size
        per_edge = np.broadcast_to(dx.reshape(shape),
                                   idx[tuple(lo)].shape).ravel()
        all_a.append(ia)
        all_b.append(ib)
        all_inv.append(1.0 / per_edge ** 2)
    return (np.concatenate(all_a), np.concatenate(all_b),
            np.concatenate(all_inv))


def edge_weights(grid: Grid, weight: DiscreteMeasure
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ia, ib, w) with w = (μ_a + μ_b)/(2Δx²), zero when both cells are empty."""
    ia, ib, inv_dx2 = grid_edges(grid)
    wa = weight.weights[ia]
    wb = weight.weights[ib]
    w = 0.5 * (wa + wb) * inv_dx2
    w[(wa < MASS_FLOOR) & (wb < MASS_FLOOR)] = 0.0
    return ia, ib, w


def weighted_laplacian(grid: Grid, weight: DiscreteMeasure) -> sp.csr_matrix:
    """L_μ = Σ_e w_e (e_a - e_b)(e_a - e_b)^T as a sparse matrix."""
    ia, ib, w = edge_weights(grid, weight)
    n = grid.n_cells
    rows = np.concatenate([ia, ib, ia, ib])
    cols = np.concatenate([ia, ib, ib, ia])
    vals = np.concatenate([w, w, -w, -w])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def dirichlet_energy(grid: Grid, weight: DiscreteMeasure,
                     h: np.ndarray) -> float:
    """Σ_e w_e (h_a - h_b)² (equals ⟨h, ν⟩ at the Poisson solution)."""
    ia, ib, w = edge_weights(grid, weight)
    return float(np.sum(w * (h[ia] - h[ib]) ** 2))


class WeightedPoissonProblem:
    """Assembled operator -∇·(μ∇·) on the grid, ready to take rhs vectors.

    Grounds one cell per connected component of the positive-weight edge
    graph and factors the remaining nonsingular Laplacian once with a sparse
    direct solver, so every rhs costs one exact triangular solve; `norm`
    returns the dual norm √⟨h, ν⟩ (+inf when a component carries net mass).
    """

    def __init__(self, weight: DiscreteMeasure):
        self.weight = weight
        self.grid = weight.grid
        n = self.grid.n_cells
        ia, ib, w = edge_weights(self.grid, weight)
        pos = w > 0
        adj = sp.coo_matrix((np.ones(int(pos.sum())), (ia[pos], ib[pos])),
                            shape=(n, n))
        self.n_components, self.labels = connected_components(
            adj, directed=False)
        self.sizes = np.bincount(self.labels, minlength=self.n_components)
        self.laplacian = weighted_laplacian(self.grid, weight)
        grounded = np.zeros(n, dtype=bool)
        grounded[np.unique(self.labels, return_index=True)[1]] = True
        self.free = np.flatnonzero(~grounded)
        self._solve_free = factorized(
            self.laplacian[self.free][:, self.free].tocsc())

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """Potential h with L h = b (zero mean per component), or None when
        some component carries net mass (infeasible rhs)."""
        net = np.bincount(self.labels, weights=b,
                          minlength=self.n_components)
        if np.any(np.abs(net) > 1e-10 * max(1.0, float(np.abs(b).sum()))):
            return None
        b = b - (net / self.sizes)[self.labels]
        h = np.zeros_like(b)
        h[self.free] = self._solve_free(b[self.free])
        h_sum = np.bincount(self.labels, weights=h,
                            minlength=self.n_components)
        return h - (h_sum / self.sizes)[self.labels]

    def norm(self, rhs: SignedMeasure) -> float:
        if not rhs.grid.same_as(self.grid):
            raise ValueError("rhs and weight live on different grids")
        b = rhs.weights
        scale = max(1.0, float(np.abs(b).sum()))
        if abs(b.sum()) > 1e-10 * scale:
            raise ValueError("rhs must have zero total mass")
        h = self.solve(b)
        if h is None:
            return math.inf  # net mass stuck on one component
        # h has zero mean per component, so pairing with b or its projection
        # gives the same value
        return math.sqrt(max(float(h @ b), 0.0))


def h_minus_one_norm(rhs: SignedMeasure, weight: DiscreteMeasure) -> float:
    """‖rhs‖_{Ḣ^{-1}(weight)} via the weighted grid Poisson problem.

    Requires rhs total mass ≈ 0; returns +inf when rhs puts net mass on a
    connected component of the support graph (disconnected-support case).
    """
    return WeightedPoissonProblem(weight).norm(rhs)


# ---------------------------------------------------------------------------
# Wasserstein-2
# ---------------------------------------------------------------------------

def w2_atoms(x_a: np.ndarray, w_a: np.ndarray,
             x_b: np.ndarray, w_b: np.ndarray) -> float:
    """W2 between two atomic measures on the line: the squared quantile
    difference integrated exactly over the merged breakpoint partition."""
    oa = np.argsort(x_a, kind="stable")
    ob = np.argsort(x_b, kind="stable")
    xa, wa = np.asarray(x_a, float)[oa], np.asarray(w_a, float)[oa]
    xb, wb = np.asarray(x_b, float)[ob], np.asarray(w_b, float)[ob]
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)

    breaks = np.unique(np.concatenate([[0.0, 1.0], ca, cb]))
    breaks = breaks[(breaks >= 0.0) & (breaks <= 1.0)]
    lengths = np.diff(breaks)
    keep = lengths > 0
    u = 0.5 * (breaks[:-1] + breaks[1:])[keep]
    lengths = lengths[keep]

    qa = xa[np.minimum(np.searchsorted(ca, u, side="left"), xa.size - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, u, side="left"), xb.size - 1)]
    return math.sqrt(float(np.sum(lengths * (qa - qb) ** 2)))


def wasserstein2_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W2 on a 1D grid (quantile functions)."""
    if mu.grid.ndim != 1:
        raise ValueError("quantile W2 is one-dimensional; use the LP oracle")
    if not mu.grid.same_as(nu.grid):
        raise ValueError("measures live on different grids")
    x = mu.grid.axes[0]
    return w2_atoms(x, mu.weights, x, nu.weights)


def wasserstein2_exact_small(mu: DiscreteMeasure,
                             nu: DiscreteMeasure) -> float:
    """LP oracle for W2 on small supports (≤ 64 atoms each), any dimension."""
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


def w2_h_minus_one_comparison(mu: DiscreteMeasure, mu_bar: DiscreteMeasure):
    """Report for W2(μ, μ̄) ≤ 2‖μ - μ̄‖_{Ḣ^{-1}(μ)}.

    1D uses the exact quantile W2; in higher dimension the LP oracle is used,
    so supports must fit its atom budget.
    """
    if mu.grid.ndim == 1:
        lhs = wasserstein2_1d(mu, mu_bar)
    else:
        lhs = wasserstein2_exact_small(mu, mu_bar)
    norm = h_minus_one_norm(difference(mu, mu_bar), mu)
    rhs = 2.0 * norm
    return make_report("w2_vs_hminus1", lhs, rhs, tol_abs=0.0, tol_rel=1e-6,
                       extras={"w2": lhs, "hminus1_norm": norm})
