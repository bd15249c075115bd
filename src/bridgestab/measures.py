"""Grids, discrete measures and entropy/information functionals.

Everything downstream works with probability vectors supported on a tensor
grid of cell midpoints.  A grid cell carries a quadrature weight (its
volume), a reference measure carries a mass per cell, and a discrete measure
is a nonnegative weight vector summing to one.  Entropies are plain finite
sums with the 0·log 0 = 0 convention; a hard mass floor (1e-12) decides what
counts as support for logs and finite differences.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# Cells with less mass than this count as empty for support, log-density and
# gradient purposes.
MASS_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Tensor product of 1D midpoint grids (d = 1 or 2).

    ``axes[k]`` holds the strictly increasing cell midpoints along axis k and
    ``axis_weights[k]`` the per-cell widths used for quadrature.  Cells are
    enumerated flat in C order (last axis fastest).
    """

    axes: tuple[np.ndarray, ...]
    axis_weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("only 1D and 2D grids are supported")
        for x, w in zip(self.axes, self.axis_weights):
            if x.ndim != 1 or x.size < 2:
                raise ValueError("each axis needs at least two midpoints")
            if not np.all(np.diff(x) > 0):
                raise ValueError("axis midpoints must be strictly increasing")
            if w.shape != x.shape or not np.all(w > 0):
                raise ValueError("axis weights must be positive, one per cell")

    @staticmethod
    def regular(bounds, shape) -> "Grid":
        """Uniform grid of cell midpoints on a box.

        ``bounds`` is (lo, hi) in 1D or ((lo, hi), (lo, hi)) in 2D, ``shape``
        an int or pair of ints (number of cells per axis).
        """
        if np.isscalar(bounds[0]):
            bounds = (bounds,)
        if np.isscalar(shape):
            shape = (shape,) * len(bounds)
        axes, weights = [], []
        for (lo, hi), n in zip(bounds, shape):
            if not (hi > lo and n >= 2):
                raise ValueError("need hi > lo and at least 2 cells")
            h = (hi - lo) / n
            axes.append(lo + h * (np.arange(n) + 0.5))
            weights.append(np.full(n, h))
        return Grid(tuple(axes), tuple(weights))

    @staticmethod
    def from_axes(axes) -> "Grid":
        """Grid from midpoint arrays; widths inferred from half-distances."""
        axes = tuple(np.asarray(x, dtype=float) for x in axes)
        weights = []
        for x in axes:
            d = np.diff(x)
            w = np.empty_like(x)
            w[1:-1] = 0.5 * (d[:-1] + d[1:])
            w[0] = d[0]
            w[-1] = d[-1]
            weights.append(w)
        return Grid(axes, tuple(weights))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(x.size for x in self.axes)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """(n_cells, ndim) midpoint coordinates in flat C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def cell_volumes(self) -> np.ndarray:
        """(n_cells,) quadrature volumes (product of axis widths)."""
        vol = self.axis_weights[0]
        for w in self.axis_weights[1:]:
            vol = np.multiply.outer(vol, w)
        return vol.ravel()

    def max_cell_width(self) -> float:
        return max(float(w.max()) for w in self.axis_weights)

    def same_as(self, other: "Grid") -> bool:
        return self.shape == other.shape and all(
            np.array_equal(a, b) for a, b in zip(self.axes, other.axes)
        )


def _check_same_grid(a, b):
    if not a.grid.same_as(b.grid):
        raise ValueError("measures live on different grids")


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceMeasure:
    """Reference measure m given by a positive mass per cell.

    `lebesgue` gives mass = cell volume, `gaussian` the N(0, I/κ) density
    times cell volume.  Gaussian reference masses are *not* renormalized:
    on a generous grid they sum to 1 up to truncation error, and that
    defect is part of what the diagnostics see.
    """

    grid: Grid
    cell_mass: np.ndarray

    def __post_init__(self):
        if self.cell_mass.shape != (self.grid.n_cells,):
            raise ValueError("cell_mass must be flat with one entry per cell")
        if np.any(self.cell_mass < 0) or not np.all(np.isfinite(self.cell_mass)):
            raise ValueError("reference masses must be finite and >= 0")

    @staticmethod
    def lebesgue(grid: Grid) -> "ReferenceMeasure":
        return ReferenceMeasure(grid, grid.cell_volumes())

    @staticmethod
    def gaussian(grid: Grid, kappa: float) -> "ReferenceMeasure":
        """m = N(0, I/κ) discretized by midpoint quadrature."""
        if kappa <= 0:
            raise ValueError("gaussian reference needs kappa > 0")
        pts = grid.points()
        d = grid.ndim
        logdens = 0.5 * d * math.log(kappa / (2.0 * math.pi)) \
            - 0.5 * kappa * np.sum(pts ** 2, axis=1)
        mass = np.exp(logdens) * grid.cell_volumes()
        return ReferenceMeasure(grid, mass)

    def log_mass(self) -> np.ndarray:
        """log cell masses, -inf where the mass underflows to zero."""
        out = np.full(self.cell_mass.shape, -np.inf)
        pos = self.cell_mass > 0
        out[pos] = np.log(self.cell_mass[pos])
        return out


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability vector on a grid; the support is where weights are > 0.

    `from_weights` floors cells below MASS_FLOOR to exact zeros.
    """

    grid: Grid
    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        if w.shape != (self.grid.n_cells,):
            raise ValueError("weights must be flat with one entry per cell")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and >= 0")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")

    @staticmethod
    def from_weights(grid: Grid, raw) -> "DiscreteMeasure":
        """Floor tiny cells to exact zero and normalize."""
        w = np.asarray(raw, dtype=float).ravel().copy()
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("raw weights must be finite and >= 0")
        total = w.sum()
        if total <= 0:
            raise ValueError("raw weights must have positive total mass")
        w /= total
        w[w < MASS_FLOOR] = 0.0
        w /= w.sum()
        return DiscreteMeasure(grid, w)

    def support(self) -> np.ndarray:
        return self.weights > 0

    def log_weights(self) -> np.ndarray:
        out = np.full(self.weights.shape, -np.inf)
        s = self.support()
        out[s] = np.log(self.weights[s])
        return out


@dataclass(frozen=True)
class SignedMeasure:
    """Signed cell weights on a grid (differences of measures, test data)."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (self.grid.n_cells,):
            raise ValueError("weights must be flat with one entry per cell")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")


def difference(mu: DiscreteMeasure, nu: DiscreteMeasure) -> SignedMeasure:
    _check_same_grid(mu, nu)
    return SignedMeasure(mu.grid, mu.weights - nu.weights)


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------

def gaussian_measure(grid: Grid, mean, sigma) -> DiscreteMeasure:
    """Discretized Gaussian with diagonal covariance diag(sigma^2)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    sigma = np.broadcast_to(np.atleast_1d(np.asarray(sigma, dtype=float)),
                            mean.shape)
    if mean.size != grid.ndim or np.any(sigma <= 0):
        raise ValueError("mean/sigma dimension mismatch or sigma <= 0")
    pts = grid.points()
    z = (pts - mean[None, :]) / sigma[None, :]
    return DiscreteMeasure.from_weights(
        grid, np.exp(-0.5 * np.sum(z ** 2, axis=1)) * grid.cell_volumes())


def uniform_measure(grid: Grid, lo, hi) -> DiscreteMeasure:
    """Uniform measure on the box [lo, hi] (per-axis bounds in 2D)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    pts = grid.points()
    inside = np.all((pts >= lo[None, :]) & (pts <= hi[None, :]), axis=1)
    if not inside.any():
        raise ValueError("box contains no grid cell")
    return DiscreteMeasure.from_weights(
        grid, inside.astype(float) * grid.cell_volumes())


def gaussian_mixture_measure(grid: Grid, components) -> DiscreteMeasure:
    """Mixture of Gaussians; components = [(weight, mean, sigma), ...]."""
    pts = grid.points()
    dens = np.zeros(grid.n_cells)
    for wgt, mean, sigma in components:
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        sigma = np.broadcast_to(np.atleast_1d(np.asarray(sigma, dtype=float)),
                                mean.shape)
        z = (pts - mean[None, :]) / sigma[None, :]
        norm = np.prod(np.sqrt(2.0 * math.pi) * sigma)
        dens += wgt * np.exp(-0.5 * np.sum(z ** 2, axis=1)) / norm
    return DiscreteMeasure.from_weights(grid, dens * grid.cell_volumes())


def random_smooth_pair(grid: Grid, rng: np.random.Generator):
    """Two independent random mixtures of 2 or 3 Gaussians (smooth, positive),
    with cores well inside the grid and per-axis σ in [0.6, 1.4]."""
    mean_box = [(x[0] + 0.2 * (x[-1] - x[0]), x[-1] - 0.2 * (x[-1] - x[0]))
                for x in grid.axes]
    out = []
    for _ in range(2):
        k = int(rng.integers(2, 4))
        raw = rng.uniform(0.2, 1.0, size=k)
        comps = []
        for j in range(k):
            mean = [rng.uniform(lo, hi) for lo, hi in mean_box]
            sigma = rng.uniform(0.6, 1.4, size=grid.ndim)
            comps.append((raw[j] / raw.sum(), mean, sigma))
        out.append(gaussian_mixture_measure(grid, comps))
    return out[0], out[1]


def smooth_zero_mean_field(grid: Grid, mu: DiscreteMeasure,
                           rng: np.random.Generator, n_modes: int = 3
                           ) -> np.ndarray:
    """Random smooth field h with ∫ h dμ = 0 and sup|h| = 1.

    Used for multiplicative perturbations (1 + ε h)μ, which stay positive on
    supp μ for ε < 1 and are automatically normalized.
    """
    pts = grid.points()
    h = np.zeros(grid.n_cells)
    for ax in range(grid.ndim):
        x = pts[:, ax]
        lo, hi = grid.axes[ax][0], grid.axes[ax][-1]
        span = hi - lo
        for k in range(1, n_modes + 1):
            amp = rng.normal() / k
            phase = rng.uniform(0.0, 2.0 * math.pi)
            h += amp * np.cos(math.pi * k * (x - lo) / span + phase)
    h -= float(h @ mu.weights)
    m = np.abs(h).max()
    if m == 0.0:  # astronomically unlikely, but keep the contract
        h = pts[:, 0] - float(pts[:, 0] @ mu.weights)
        m = np.abs(h).max()
    h /= m
    h -= float(h @ mu.weights)  # re-center after scaling (no-op up to fp)
    return h


def perturbed_measure(mu: DiscreteMeasure, h: np.ndarray,
                      eps: float) -> DiscreteMeasure:
    """(1 + ε h) μ for a bounded field h with ∫ h dμ = 0 and ε·sup|h| < 1.

    The result has exactly the support of μ: it is normalized once and not
    floored again, so cells of μ near MASS_FLOOR are kept (a floor here
    would give the two measures different supports and infinite entropies).
    """
    if abs(float(h @ mu.weights)) > 1e-8:
        raise ValueError("perturbation field must have zero mean under mu")
    fac = 1.0 + eps * h
    if np.any(fac[mu.support()] <= 0):
        raise ValueError("perturbation destroys positivity; shrink eps")
    w = fac * mu.weights
    return DiscreteMeasure(mu.grid, w / w.sum())


# ---------------------------------------------------------------------------
# entropies, information, moments
# ---------------------------------------------------------------------------

def relative_entropy_weights(p: np.ndarray, q: np.ndarray) -> float:
    """H(p|q) = Σ p_i log(p_i / q_i) over p_i > 0 for plain weight vectors,
    +inf unless supp p ⊆ supp q."""
    s = p > 0
    if np.any(q[s] <= 0):
        return math.inf
    ps, qs = p[s], q[s]
    with np.errstate(divide="ignore"):
        terms = ps * np.log(ps / qs)
    # a subnormal p_i over q_i > 1 underflows the ratio to 0 (a -inf term):
    # take the difference of logs on those terms only
    under = np.isneginf(terms)
    if np.any(under):
        terms[under] = ps[under] * (np.log(ps[under]) - np.log(qs[under]))
    return float(np.sum(terms))


def relative_entropy(p: DiscreteMeasure, ref) -> float:
    """H(p | ref) = Σ p_i log(p_i / ref_i), +inf unless supp p ⊆ supp ref.

    ``ref`` may be a ReferenceMeasure (cell masses) or a DiscreteMeasure.
    """
    _check_same_grid(p, ref)
    q = ref.cell_mass if isinstance(ref, ReferenceMeasure) else ref.weights
    return relative_entropy_weights(p.weights, q)


def symmetric_entropy(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """H(p|q) + H(q|p); +inf unless p and q share support."""
    return relative_entropy(p, q) + relative_entropy(q, p)


def masked_gradient(values: np.ndarray, grid: Grid,
                    mask: np.ndarray) -> list[np.ndarray]:
    """Per-axis finite differences of ``values`` restricted to ``mask``.

    Central differences where both neighbors are in the mask, one-sided at
    mask boundaries, zero where no in-mask neighbor exists.  Arrays are flat
    (C order), or stacks of flat rows with one mask row per values row;
    entries off the mask are zero, and values off the mask never enter the
    result.
    """
    lead = values.shape[:-1]
    v = values.reshape(lead + grid.shape)
    m = mask.reshape(lead + grid.shape)
    grads = []
    for ax, x in enumerate(grid.axes, start=-grid.ndim):
        va = np.moveaxis(v, ax, -1)
        ma = np.moveaxis(m, ax, -1)
        e = ma[..., :-1] & ma[..., 1:]  # cells i and i+1 both in the mask
        with np.errstate(invalid="ignore", divide="ignore"):
            one = (va[..., 1:] - va[..., :-1]) / (x[1:] - x[:-1])
            cen = (va[..., 2:] - va[..., :-2]) / (x[2:] - x[:-2])
        # forward where the right neighbor is in the mask, backward where
        # the left one is, central where both are
        g = np.zeros(va.shape)
        g[..., :-1] = np.where(e, one, 0.0)
        g[..., 1:] = np.where(e, one, g[..., 1:])
        g[..., 1:-1] = np.where(e[..., :-1] & e[..., 1:], cen, g[..., 1:-1])
        np.nan_to_num(g, copy=False, nan=0.0)
        grads.append(np.moveaxis(g, -1, ax).reshape(values.shape))
    return grads


def grad_sq_norm(values: np.ndarray, grid: Grid,
                 mask: np.ndarray) -> np.ndarray:
    """|∇values|² per cell on the mask (flat, zero off the mask; one row
    per row of a stack)."""
    out = np.zeros(values.shape)
    for g in masked_gradient(values, grid, mask):
        out += g ** 2
    return out


def gradient_energy(v: np.ndarray, grid: Grid, weights: np.ndarray,
                    floor: float = 0.0) -> float:
    """∫ |∇v|² w  for a weight vector w on the grid, with the gradient taken
    on the cells where w exceeds ``floor``.

    The corrector left-hand sides and the drift curve α(t) apply it to a
    slice log P_t e^φ from `SchrodingerSolution.log_slices`.
    """
    mask = weights > floor
    return float(weights @ grad_sq_norm(v, grid, mask))


def fisher_information(p: DiscreteMeasure, ref: ReferenceMeasure) -> float:
    """I(p|ref) = ∫ |∇ log(dp/dref)|² dp on the support of p.

    +inf when p charges a cell with zero reference mass.
    """
    _check_same_grid(p, ref)
    s = p.support()
    if np.any(ref.cell_mass[s] <= 0):
        return math.inf
    v = np.zeros(p.grid.n_cells)
    v[s] = np.log(p.weights[s]) - np.log(ref.cell_mass[s])
    return float(np.sum(p.weights * grad_sq_norm(v, p.grid, s)))


def second_moment(p: DiscreteMeasure) -> float:
    """M2(p) = Σ p_i |x_i|² about the origin."""
    pts = p.grid.points()
    return float(p.weights @ np.sum(pts ** 2, axis=1))


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

_COLS = {1: ["x", "weight"], 2: ["x", "y", "weight"]}


def measure_from_csv(path) -> DiscreteMeasure:
    """Read a measure from CSV with header x[,y],weight, one row per cell.

    Rows may come in any order; the grid is reconstructed from the unique
    sorted coordinates and must form a full tensor product.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in (_COLS[1], _COLS[2]):
            raise ValueError(f"unrecognized measure CSV header: {header}")
        d = len(header) - 1
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows or any(len(row) != d + 1 for row in rows):
        raise ValueError(f"measure CSV needs data rows of {d + 1} values")
    data = np.asarray(rows)
    coords, wvals = data[:, :d], data[:, d]
    axes = [np.unique(coords[:, k]) for k in range(d)]
    if any(x.size < 2 for x in axes):
        raise ValueError("measure CSV needs two coordinates per axis")
    grid = Grid.from_axes(axes)
    if grid.n_cells != len(rows):
        raise ValueError("rows do not form a full tensor-product grid")
    weights = np.zeros(grid.n_cells)
    idx = np.zeros(len(rows), dtype=int)
    for k in range(d):
        pos = np.searchsorted(axes[k], coords[:, k])
        idx = idx * axes[k].size + pos
    if np.unique(idx).size != len(rows):
        raise ValueError("duplicate grid cells in CSV")
    weights[idx] = wvals
    return DiscreteMeasure(grid, weights)
