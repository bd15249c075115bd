"""Weighted negative Sobolev norms and Wasserstein-2 distances on grids.

The homogeneous Ḣ^{-1}(μ) norm of a zero-mass signed measure ν is

    ‖ν‖²_{Ḣ^{-1}(μ)} = ⟨h, ν⟩   with   L_μ h = ν,

where L_μ is the weighted graph Laplacian on the grid with one edge per pair
of axis-adjacent cells and edge weight (μ_a + μ_b) / (2 Δx²) — a midpoint
discretization of -∇·(μ∇·).  If the rhs puts net mass on a connected
component of supp μ the problem is infeasible and the norm is +inf.

On a 1D grid the edge graph is a path, so L_μ h = ν needs no solve: the flux
through edge e is the cumulative sum F_e of ν up to e, and the norm is the
closed form  ‖ν‖² = Σ_e F_e² / w_e.  Grids with ndim ≥ 2 use a grounded
sparse direct solve (`WeightedPoissonProblem`).

W2 on the line is evaluated exactly: both quantile functions are piecewise
constant, so integrating |F_μ^{-1} - F_ν^{-1}|² over the merged breakpoint
partition (midpoint per segment) incurs no quadrature error, and the
comparison  W2(μ, μ̄) ≤ 2 ‖μ - μ̄‖_{Ḣ^{-1}(μ)}  is packaged as a report.
W2 is computed on 1D grids only.

scipy (the 2D sparse direct solve) is imported by the functions that use
it, so importing this module, and the package, and every 1D norm load
only numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import (MASS_FLOOR, DiscreteMeasure, Grid, SignedMeasure,
                       difference)
from .reports import make_report


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


def weighted_laplacian(grid: Grid, weight: DiscreteMeasure):
    """L_μ = Σ_e w_e (e_a - e_b)(e_a - e_b)^T as a scipy.sparse CSR matrix."""
    import scipy.sparse as sp
    ia, ib, w = edge_weights(grid, weight)
    n = grid.n_cells
    rows = np.concatenate([ia, ib, ia, ib])
    cols = np.concatenate([ia, ib, ib, ia])
    vals = np.concatenate([w, w, -w, -w])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


class WeightedPoissonProblem:
    """Assembled operator -∇·(μ∇·) on the grid, ready to take rhs vectors.

    Grounds one cell per connected component of the positive-weight edge
    graph and factors the remaining nonsingular Laplacian once with a sparse
    direct solver, so every rhs costs one exact triangular solve; `norm`
    returns the dual norm √⟨h, ν⟩ (+inf when a component carries net mass).
    `h_minus_one_norm` uses it for ndim ≥ 2; in 1D it is the test oracle of
    the closed form.
    """

    def __init__(self, weight: DiscreteMeasure):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components
        from scipy.sparse.linalg import factorized
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
        laplacian = weighted_laplacian(self.grid, weight)
        grounded = np.zeros(n, dtype=bool)
        grounded[np.unique(self.labels, return_index=True)[1]] = True
        self.free = np.flatnonzero(~grounded)
        self._solve_free = factorized(
            laplacian[self.free][:, self.free].tocsc())

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """Potential h with L h = b (zero mean per component), or None when
        some component carries net mass (infeasible rhs)."""
        net = np.bincount(self.labels, weights=b,
                          minlength=self.n_components)
        if np.any(np.abs(net) > _mass_tol(b)):
            return None
        b = b - (net / self.sizes)[self.labels]
        h = np.zeros_like(b)
        h[self.free] = self._solve_free(b[self.free])
        h_sum = np.bincount(self.labels, weights=h,
                            minlength=self.n_components)
        return h - (h_sum / self.sizes)[self.labels]

    def norm(self, rhs: SignedMeasure) -> float:
        b = _zero_mass_weights(rhs, self.grid)
        h = self.solve(b)
        if h is None:
            return math.inf  # net mass stuck on one component
        # h has zero mean per component, so pairing with b or its projection
        # gives the same value
        return math.sqrt(max(float(h @ b), 0.0))


def _mass_tol(b: np.ndarray) -> float:
    """Net mass of rhs b up to this counts as zero."""
    return 1e-10 * max(1.0, float(np.abs(b).sum()))


def _zero_mass_weights(rhs: SignedMeasure, grid: Grid) -> np.ndarray:
    """rhs weights, checked to live on `grid` and to carry zero total mass."""
    if not rhs.grid.same_as(grid):
        raise ValueError("rhs and weight live on different grids")
    b = rhs.weights
    if abs(b.sum()) > _mass_tol(b):
        raise ValueError("rhs must have zero total mass")
    return b


def _path_norm(b: np.ndarray, weight: DiscreteMeasure) -> float:
    """Closed-form Ḣ^{-1} norm on a 1D grid: √Σ_e F_e²/w_e over the
    positive-weight edges, with F the flux (cumulative sum of b after each
    run of cells between zero-weight edges has its net mass removed);
    +inf when a run carries net mass."""
    _, _, w = edge_weights(weight.grid, weight)
    cut = w == 0.0
    labels = np.concatenate(([0], np.cumsum(cut)))
    net = np.bincount(labels, weights=b)
    if np.any(np.abs(net) > _mass_tol(b)):
        return math.inf  # net mass stuck on one component
    # each run now sums to zero, so the running sum restarts at every cut
    flux = np.cumsum(b - (net / np.bincount(labels))[labels])[:-1]
    return math.sqrt(float(np.sum(flux[~cut] ** 2 / w[~cut])))


def h_minus_one_norm(rhs: SignedMeasure, weight: DiscreteMeasure) -> float:
    """‖rhs‖_{Ḣ^{-1}(weight)}: the closed-form flux sum on a 1D grid, the
    grounded sparse direct solve (which loads scipy) for ndim ≥ 2.

    Requires rhs total mass ≈ 0; returns +inf when rhs puts net mass on a
    connected component of the support graph (disconnected-support case).
    """
    b = _zero_mass_weights(rhs, weight.grid)
    if weight.grid.ndim > 1:
        return WeightedPoissonProblem(weight).norm(rhs)
    return _path_norm(b, weight)


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
        raise ValueError("quantile W2 is one-dimensional, got a "
                         f"{mu.grid.ndim}D grid")
    if not mu.grid.same_as(nu.grid):
        raise ValueError("measures live on different grids")
    x = mu.grid.axes[0]
    return w2_atoms(x, mu.weights, x, nu.weights)


def w2_h_minus_one_comparison(mu: DiscreteMeasure, mu_bar: DiscreteMeasure):
    """Report for W2(μ, μ̄) ≤ 2‖μ - μ̄‖_{Ḣ^{-1}(μ)} on a 1D grid, with the
    exact quantile W2."""
    lhs = wasserstein2_1d(mu, mu_bar)
    norm = h_minus_one_norm(difference(mu, mu_bar), mu)
    rhs = 2.0 * norm
    return make_report("w2_vs_hminus1", lhs, rhs, tol_abs=0.0, tol_rel=1e-6,
                       extras={"w2": lhs, "hminus1_norm": norm})
