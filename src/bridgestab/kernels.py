"""Gibbs kernels (heat and Ornstein-Uhlenbeck) and their discrete semigroup.

Heat and OU log transition densities on a tensor grid are sums of per-axis
1D log densities, so a kernel is stored as one log factor per axis,

    log p_T((x_0, x_1), (y_0, y_1)) = F_0[x_0, y_0] + F_1[x_1, y_1],

against a reference measure: heat transition densities are taken w.r.t.
Lebesgue, OU transition densities w.r.t. the stationary Gaussian N(0, I/κ).
A kernel is used through two operators, neither of which forms the n×n
matrix: `LogKernel.lse`, which computes LSE_j(K_ij + v_j) over the grid
one axis at a time for the semigroup (`apply_semigroup`), and
`AnchoredLSE` below, the Sinkhorn loop's operator from one support to
another.  A kernel has one or two factors, as a grid has one or two axes.
A 1D kernel is reduced in the log domain by `lse_matvec`.  A 2D kernel
reduces each axis by one matrix product against a shared exp
factor exp(F_k - r_k), r_k the row maxima of F_k, built once per kernel
(Solomon et al. 2015, *Convolutional Wasserstein Distances*), with the
inputs' row maxima taken out so that nothing overflows; the few entries
whose sums are too small to keep their accuracy are reduced again by
`lse_matvec`, which stays the log-domain oracle.  Applying the semigroup
to e^f adds the reference log masses:

    (log P_T e^f)_i = LSE_j( log p_T(x_i, x_j) + log m_j + f_j ),

with every exponential taken of a shifted, non-positive exponent.
`lse_matvec` first raises its exponents to a floor of -700
(`_EXP_FLOOR`): numpy's `exp` (2.4, x86-64) takes about 1 ns per entry
for a normal result but 6 ns at -inf, 18 ns below -745 and over 100 ns
for a subnormal result, where most entries of a steep kernel lie at small
T.  No output bit moves, since a raised entry is either flushed to 0 later
or added to a row sum far too large to change.

A kernel can also be a stack of kernels, one per time of a sequence
(`GibbsKernel.at_time`), with a leading axis on every factor; each of its
rows is bit-identical to the kernel built at that time alone.

The one exception to the log domain is `AnchoredLSE`, the operator
behind the Sinkhorn loop.  It maps a compact vector on one support to the
LSE values on another, with each factor restricted to the projections of
the two supports.  Near a cached anchor v̄ it computes the LSE as a matrix
product against the exp buffer of v̄ with bounded weights e^{v - v̄}
(log-absorbed scaling, Schmitzer 2019, arXiv:1610.06519), and re-anchors
in the log domain by `lse_matvec` otherwise; a shared copy starts from
another operator's anchor and re-anchors into buffers of its own.  Its
`product` takes the weights themselves and returns the sums S of the last
axis, with LSE = s + log S for the anchor's row shifts s, so that a
caller holding weights stays in the scaling domain between anchors.  The
curvature factor

    E_{2κ}(t) = ∫_0^t e^{2κs} ds = (e^{2κt} - 1) / (2κ)

is the conversion between entropic costs and squared-gradient norms used by
every estimate downstream.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import Grid, ReferenceMeasure


# Largest κT the OU formulas accept: e^{2κT} overflows a double once κT
# exceeds log(DBL_MAX)/2 ≈ 354.9.
OU_MAX_KAPPA_T = 350.0


def _check_ou(T: float, kappa: float) -> None:
    if T <= 0 or kappa <= 0:
        raise ValueError("OU kernel needs T > 0 and kappa > 0")
    if kappa * T > OU_MAX_KAPPA_T:
        raise ValueError(f"OU kernel needs kappa*T <= {OU_MAX_KAPPA_T:g}, "
                         f"got {kappa * T:g}")


class BandwidthWarning(UserWarning):
    """Kernel bandwidth below grid resolution: results are under-resolved."""


def curvature_factor(kappa: float, t: float) -> float:
    """E_{2κ}(t) = (e^{2κt} - 1)/(2κ), continuously extended to t at κ=0."""
    if t <= 0:
        raise ValueError("curvature factor needs t > 0")
    if kappa == 0.0:
        return float(t)
    if kappa * t > OU_MAX_KAPPA_T:
        raise ValueError(f"curvature factor needs kappa*t <= "
                         f"{OU_MAX_KAPPA_T:g}, got {kappa * t:g}")
    return float(math.expm1(2.0 * kappa * t) / (2.0 * kappa))


def _squared_distances(x: np.ndarray) -> np.ndarray:
    """|x_i - x_j|² over one axis of midpoints, exactly symmetric (each
    entry is one product and commutative sums) and clamped at 0."""
    sq = x ** 2
    d2 = np.add.outer(sq, sq)
    xx = np.multiply.outer(x, x)
    xx *= 2.0
    d2 -= xx
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


def _per_time(T, f) -> np.ndarray:
    """f(t) at a time T, or at each time of a sequence T, shaped to
    broadcast against one n×n log factor or a stack of them (one kernel per
    time along the leading axis)."""
    return np.reshape([f(float(t)) for t in np.ravel(T)],
                      np.shape(T) + (1, 1))


def _times(T) -> float | tuple[float, ...]:
    """The `GibbsKernel.T` of a time or of a sequence of times."""
    return float(T) if np.ndim(T) == 0 else tuple(map(float, T))


@dataclass(frozen=True)
class LogKernel:
    """Log Gibbs factor K on a tensor grid, one square log factor per axis.

    Over cells in flat C order,
    ``K[(i_0, i_1), (j_0, j_1)] = log_factors[0][i_0, j_0]
    + log_factors[1][i_1, j_1]``; a single factor is K itself, and no
    other count is accepted.  `lse` serves the semigroup
    (`apply_semigroup`): a single factor is reduced by `lse_matvec`, two
    by one matrix product per axis against the shared exp factors
    (`_lse_shared`), which are built on first use and held on the
    instance.  The Sinkhorn loop goes through `AnchoredLSE`, which anchors
    by the per-axis `lse_matvec` reduction over factors restricted to two
    supports.  `log_matrix` is a dense view for the dense plans and the
    test oracles.

    A stack of k kernels has factors of shape (k, n_a, n_a); `lse` and
    the shared exp factors broadcast over that leading axis, and a stacked
    1D factor is reduced one kernel per `lse_matvec` call.
    """

    log_factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.log_factors) not in (1, 2):
            raise ValueError("a kernel has one or two log factors")
        for f in self.log_factors:
            if f.ndim not in (2, 3) or f.shape[-1] != f.shape[-2]:
                raise ValueError("log factors must be square matrices or "
                                 "stacks of them")
        if len({f.shape[:-2] for f in self.log_factors}) != 1:
            raise ValueError("log factors must stack the same kernels")

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of cells along each factor's axis."""
        return tuple(f.shape[-1] for f in self.log_factors)

    @property
    def log_matrix(self) -> np.ndarray:
        """Dense K over cells; with one factor this is the factor itself
        (no copy), otherwise it is built on each access."""
        return _outer_sum(self.log_factors)

    @cached_property
    def _exp_factors(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per factor F_k, the shared factor E_k = exp(F_k - r_k) of
        `_lse_shared` and the row maxima r_k (0 on rows that are all -inf).
        Entries of E_k below e^{2·_LOG_SUM_FLOOR} are flushed to 0: they
        change a kept sum by less than m·e^_LOG_SUM_FLOOR relative, and
        their products with the inputs' weights can be subnormal, which
        makes a matrix product several times slower.  Cached on the
        instance outside the fields, so `dataclasses.replace` builds its
        own."""
        out = []
        for F in self.log_factors:
            r = F.max(axis=-1)
            r[np.isneginf(r)] = 0.0
            E = np.exp(F - r[..., None])
            E[E < math.exp(2.0 * _LOG_SUM_FLOOR)] = 0.0
            out.append((E, r))
        return tuple(out)

    def lse(self, v: np.ndarray) -> np.ndarray:
        """out_i = LSE_j(K_ij + v_j) over flat cells, one axis at a time
        (last axis first); -inf entries of v carry zero mass.  A single
        factor is reduced by `lse_matvec`; with two, each axis is one matrix
        product against its shared exp factor (`_lse_shared`).  A stack of
        kernels maps one flat v to one row per kernel."""
        x = v.reshape(self.shape)
        F = self.log_factors[0]
        if len(self.log_factors) == 1:
            return lse_matvec(F, x) if F.ndim == 2 \
                else np.array([lse_matvec(Fk, x) for Fk in F])
        d = len(self.shape)
        for k in reversed(range(d)):
            # grid axes counted from the end: a stack axis comes first
            x = _lse_shared(self.log_factors[k], *self._exp_factors[k],
                            x.swapaxes(k - d, -1)).swapaxes(k - d, -1)
        return x.reshape(F.shape[:-2] + (-1,))


@dataclass(frozen=True)
class GibbsKernel(LogKernel):
    """Log transition density on a grid, one factor per axis.

    ``log_matrix[i, j] = log p_T(x_i, x_j)`` against ``reference``; every
    factor is exactly symmetric by construction.  ``underresolved`` is set
    when the kernel bandwidth sqrt(2T) falls below twice the largest cell
    width.  κ = 0 is the heat kernel, κ > 0 the OU kernel.  A stack built
    at a sequence of times has ``T`` the tuple of times and
    ``underresolved`` set from the smallest.  ``reference`` depends on the
    family and the grid only: it is built on first use, and a kernel from
    `at_time` shares its parent's.
    """

    grid: Grid
    T: float | tuple[float, ...]
    kappa: float = 0.0
    underresolved: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.shape != self.grid.shape:
            raise ValueError("log factor shapes do not match the grid")

    @cached_property
    def reference(self) -> ReferenceMeasure:
        """Lebesgue for heat, N(0, I/κ) for OU; built on first use."""
        if self.kappa == 0.0:
            return ReferenceMeasure.lebesgue(self.grid)
        return ReferenceMeasure.gaussian(self.grid, self.kappa)

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
    def heat(grid: Grid, T) -> "GibbsKernel":
        """Heat kernel at time T against the Lebesgue reference; a sequence
        of times gives the stack of their kernels."""
        if np.any(np.asarray(T) <= 0):
            raise ValueError("kernel needs T > 0")
        c = _per_time(T, lambda t: -0.5 * math.log(4.0 * math.pi * t))
        q = _per_time(T, lambda t: 4.0 * t)
        factors = []
        for x in grid.axes:
            F = _squared_distances(x) / q
            factors.append(np.subtract(c, F, out=F))
        return GibbsKernel(tuple(factors), grid, _times(T), 0.0,
                           GibbsKernel._bandwidth_flag(grid, np.min(T)))

    @staticmethod
    def ou(grid: Grid, T, kappa: float) -> "GibbsKernel":
        """OU kernel at time T against its stationary Gaussian N(0, I/κ); a
        sequence of times gives the stack of their kernels."""
        for t in np.ravel(T):
            _check_ou(float(t), kappa)
        k2 = 2.0 * kappa
        c = _per_time(T, lambda t: -0.5 * math.log(-math.expm1(-k2 * t)))
        w = _per_time(T, lambda t: kappa / (2.0 * math.expm1(k2 * t)))
        e = _per_time(T, lambda t: 2.0 * math.exp(kappa * t))
        factors = []
        for x in grid.axes:
            # c - w·(x_i² + x_j² - e·x_i·x_j) on n×n arrays
            sq = x ** 2
            F = np.multiply.outer(x, x) * e
            np.subtract(np.add.outer(sq, sq), F, out=F)
            F *= w
            factors.append(np.subtract(c, F, out=F))
        return GibbsKernel(tuple(factors), grid, _times(T), float(kappa),
                           GibbsKernel._bandwidth_flag(grid, np.min(T)))

    def at_time(self, t) -> "GibbsKernel":
        """Same family, grid and reference measure at a different time, or
        the stack of kernels at a sequence of times."""
        kern = GibbsKernel.heat(self.grid, t) if self.kappa == 0.0 \
            else GibbsKernel.ou(self.grid, t, self.kappa)
        # fill its `reference` cache with this one rather than build it again
        kern.__dict__["reference"] = self.reference
        return kern


# Floor on the shifted exponents of `lse_matvec` (module docstring).
# e^_EXP_FLOOR is normal and below the flush threshold of the anchor
# buffers (tiny·e^ANCHOR_RADIUS ≈ e^-658 in `AnchoredLSE`), so a raised
# entry is flushed to 0 there or added to a row sum of `lse_matvec`, which
# is at least 1: m·e^-700 is far below half an ulp of it, and no output
# bit moves.
_EXP_FLOOR = -700.0


def lse_matvec(A: np.ndarray, v: np.ndarray, buf: np.ndarray | None = None,
               log_sums: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log-sum-exp of A + v: out_i = LSE_j(A_ij + v_j).

    ``v`` is (m,) for one vector or (k, m) for a batch, giving (n,) or
    (k, n); each batch row is reduced exactly as a single call would.
    Handles -inf entries (treated as zero mass); rows that are entirely -inf
    come out as -inf, and a row with a NaN term comes out NaN.  ``buf``
    optionally reuses a v.shape[:-1] + (n, m) scratch array; on return it
    holds exp(max(A_ij + v_j - M_i, _EXP_FLOOR)), with M_i the row maximum
    (0 on rows that are all -inf): the floor keeps `exp` off its slow path
    and moves no output bit (see `_EXP_FLOOR`).  ``log_sums`` optionally
    receives the log row sums of ``buf``, so that out = M + log_sums on
    rows that are not all -inf.
    """
    if buf is None:
        buf = np.empty(v.shape[:-1] + A.shape)
    np.add(A, v[..., None, :], out=buf)
    m = np.max(buf, axis=-1)
    empty = m == -np.inf
    shift = np.where(empty, 0.0, m)
    np.subtract(buf, shift[..., None], out=buf)
    np.maximum(buf, _EXP_FLOOR, out=buf)
    np.exp(buf, out=buf)
    log_sums = buf.sum(axis=-1, out=log_sums)
    out = shift + np.log(log_sums, out=log_sums)
    out[empty] = -np.inf
    return out


# Smallest sum S that `_lse_shared` keeps, as a log.  The terms that
# dominate S have exponents F - r and x - M of size |log S| or more, so
# rounding them, log S and r + M costs about eps·|log S| absolute, where
# the log-domain reduction costs about eps·|out|.  Keeping log S ≥ -100
# bounds that by ~2e-14, and a kept sum is too large for underflowed or
# flushed terms to matter.  (A floor of m·tiny·1e16, which guards against
# underflow only, gave twice the log-domain error on steep inputs at small
# T.)
_LOG_SUM_FLOOR = -100.0


def _lse_shared(F: np.ndarray, E: np.ndarray, r: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """`lse_matvec(F, x)` for a batch x, by one matrix product against the
    shared factor E = exp(F - r) of `LogKernel._exp_factors`:

        out[b, i] = r_i + M_b + log Σ_j E[i, j] e^{x_bj - M_b},

    with M_b the maximum of input row b.  Every factor of a term is at
    most 1, so nothing overflows, and a row that is all -inf gives -inf.
    An entry whose sum falls below e^_LOG_SUM_FLOOR (or is NaN) is reduced
    again in the log domain by `lse_matvec`, its terms F[i, j] + x_bj
    taken as one row.
    """
    m = x.max(axis=-1, keepdims=True)
    empty = m == -np.inf
    shift = np.where(empty, 0.0, m)
    s = np.exp(x - shift) @ np.swapaxes(E, -1, -2)
    ok = s >= math.exp(_LOG_SUM_FLOOR)
    out = np.full(s.shape, -np.inf)
    np.log(s, out=out, where=ok)
    out += np.expand_dims(r, tuple(range(r.ndim - 1, s.ndim - 1))) + shift
    redo = ~(ok | empty)
    if redo.any():
        *b, i = np.nonzero(redo)
        rows = F[(*b[:F.ndim - 2], i)] + np.broadcast_to(x, s.shape)[tuple(b)]
        out[redo] = lse_matvec(np.zeros((1, F.shape[-1])), rows)[:, 0]
    return out


# sup-norm radius τ of an `AnchoredLSE` anchor.  Weights e^{v - v̄} stay in
# [e^-τ, e^τ] and a live row sum stays above e^-τ, so flushing the entries
# of an anchor's exp buffer below tiny·e^τ (subnormal products make a matrix
# product several times slower) changes a row sum by less than
# m·tiny·e^{3τ} ≈ m·3e-243 relative.
ANCHOR_RADIUS = 50.0


def _support_box(mask: np.ndarray):
    """The projections of a nonempty ``mask`` onto its axes (a slice where
    one is an interval, else its indices), the shape of the box they span,
    and the flat positions of the mask's cells in that box (None when the
    mask fills it)."""
    axes = range(mask.ndim)
    idx = [np.flatnonzero(mask.any(axis=tuple(j for j in axes if j != k)))
           for k in axes]
    box = mask[np.ix_(*idx)]
    pos = None if box.all() else np.flatnonzero(box)
    ix = [slice(i[0], i[-1] + 1) if i[-1] - i[0] + 1 == i.size else i
          for i in idx]
    return ix, box.shape, pos


def _restrict(F: np.ndarray, r, c) -> np.ndarray:
    """F[r][:, c] for slices or index arrays r, c, copying at most once (a
    view when both are slices)."""
    if isinstance(c, slice):
        return F[:, c][r]
    if isinstance(r, slice):
        return F[r][:, c]
    return F[np.ix_(r, c)]


class AnchoredLSE:
    """`K.lse` from one support to another, for a sequence of nearby
    inputs, from a cached anchor.

    ``rows`` and ``cols`` are boolean masks over flat cells.  The operator
    maps a compact vector v, one finite value per cell of ``cols`` (in
    flat order), to  out_i = LSE_{j ∈ cols}(K_ij + v_j)  for each cell i of
    ``rows``: `K.lse` of v extended by -inf, read on ``rows``.  Each axis
    factor is restricted to the projections of the two supports onto its
    axis, so on a 1D kernel every product uses F[rows][:, cols] only, and a
    full support costs what `K.lse` does.  In 2D, v is embedded in the box
    of the ``cols`` projections (-inf on its other cells), reduced one axis
    at a time and read off on ``rows``.

    Anchoring at v̄ runs that reduction through `lse_matvec`, which leaves
    E_k = exp(F_k + x̄_k - s_k) in the buffer of axis k, for that axis's
    input x̄_k and row shifts s_k, and the log row sums that give s_k.
    While max|v - v̄| ≤ τ, each axis then returns

        LSE_j(F_k[i, j] + x_j) = s_k[i] + log Σ_j E_k[i, j] e^{x_j - x̄_j}

    (weight 0 where x̄_j = -inf): one batched matrix product, no exp of an
    n×n array.  The -inf entries of every axis's input are fixed by
    ``cols``, and LSE is 1-Lipschitz in the sup norm, so the input of
    every later axis stays within τ of its anchor as well.  Any other v
    (a non-finite one included) re-anchors; ``n_anchors`` counts the
    anchors taken.

    The one product loop is `product`, on the weights w = e^{v - v̄}
    themselves: inner axes return to the log domain, and the last axis
    returns its sums S, with LSE = ``row_shift`` + log S on ``rows``
    (``row_shift`` the last axis's s_k).  `reduce` hands back that pair,
    or an anchor's LSE with S = 1, and the call is its s + log S.  A
    caller that keeps its input as weights against ``vbar`` checks them
    with `near` and calls `product` directly, with no exp or log of an
    input or output vector.

    The operator holds K's log factors, not K, and keeps its anchor
    alive: one exp buffer per axis, n_rows×n_cols in 1D and a stack of
    them per row of the other axis's box in 2D, with the row shifts and
    v̄.  `shared` hands that anchor, row shifts included, on to a solve of
    nearby inputs on the same supports.
    """

    def __init__(self, K: LogKernel, rows: np.ndarray, cols: np.ndarray):
        self._factors = K.log_factors
        self.n_anchors = 0
        self._rows, _, self._row_pos = _support_box(rows.reshape(K.shape))
        self._cols, self._box, self._col_pos = _support_box(
            cols.reshape(K.shape))
        # e^{v - v̄} on the box, 0 off ``cols``, when ``cols`` is no box
        self._w = None if self._col_pos is None \
            else np.zeros(math.prod(self._box))
        self._buf: list[np.ndarray | None] = [None] * len(K.log_factors)
        self._owns_buf = True     # False while _buf is another operator's
        self._vbar: np.ndarray | None = None
        # row shifts of the last reduced axis, on ``rows`` (`product`)
        self.row_shift: np.ndarray | None = None
        # per axis in reduction order: (x̄ with +inf for -inf, None on the
        # first axis, which weighs by e^{v - v̄}; row shifts; the axis;
        # whether it is the last)
        self._axes: list[tuple] = []

    def shared(self) -> "AnchoredLSE":
        """A copy that starts from this operator's anchor.  It reads the
        buffers, row shifts and v̄, which no anchor changes in place, and
        re-anchors into buffers of its own, so its calls never change this
        operator or another copy's results.  ``n_anchors`` counts its own
        anchors, from 0."""
        op = copy.copy(self)
        op.n_anchors = 0
        op._owns_buf = False
        if self._w is not None:
            op._w = np.zeros_like(self._w)
        return op

    @property
    def vbar(self) -> np.ndarray | None:
        """The anchor v̄ (None before the first call); an anchor replaces
        it and never changes it in place."""
        return self._vbar

    def near(self, w: np.ndarray) -> bool:
        """Whether the weights w = e^{v - v̄} lie in [e^-τ, e^τ], τ =
        `ANCHOR_RADIUS` read at call time, so that `product` serves them;
        False before the first anchor and on NaN."""
        tau = ANCHOR_RADIUS
        return (self._vbar is not None
                and math.exp(-tau) <= np.minimum.reduce(w)
                and np.maximum.reduce(w) <= math.exp(tau))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        s, S = self.reduce(v)
        return s + np.log(S)

    def reduce(self, v: np.ndarray):
        """(s, S) with  LSE_j(K_ij + v_j) = s_i + log S_i  on ``rows``:
        ``row_shift`` and the `product` of e^{v - v̄} while max|v - v̄| ≤ τ,
        else the LSE of a new anchor at v and S = 1."""
        d = None if self._vbar is None else v - self._vbar
        if d is None or not np.abs(d).max() <= ANCHOR_RADIUS:  # NaN too
            return self._anchor(v), 1.0
        return self.row_shift, self.product(np.exp(d))

    def product(self, w: np.ndarray) -> np.ndarray:
        """S on ``rows`` with  LSE_j(K_ij + v_j) = row_shift_i + log S_i,
        for the weights w = e^{v - v̄} on ``cols`` of an input v within τ
        of the anchor: one matrix product per axis.  Inner axes return to
        the log domain (each takes its weights e^{x - x̄} from the axis
        before); the last axis returns its sums S against the exp buffer,
        whose row shifts are ``row_shift``."""
        if self._w is not None:
            self._w[self._col_pos] = w
            w = self._w
        x = w.reshape(self._box)
        for xbar, shift, k, last in self._axes:
            # e^{x - x̄}; where x = x̄ = -inf this is e^{-inf - inf} = 0
            w = x.swapaxes(k, -1) if xbar is None \
                else np.exp(x.swapaxes(k, -1) - xbar)
            s = np.matmul(self._buf[k], w[..., None])[..., 0]
            x = (s if last else shift + np.log(s)).swapaxes(k, -1)
        return self._on_rows(x)

    def _on_rows(self, x: np.ndarray) -> np.ndarray:
        out = x.reshape(-1)
        return out if self._row_pos is None else out[self._row_pos]

    def _anchor(self, v: np.ndarray) -> np.ndarray:
        self.n_anchors += 1
        if not self._owns_buf:
            self._buf = [None] * len(self._buf)
            self._owns_buf = True
        self._vbar = v.copy()
        self._axes = []
        floor = np.finfo(float).tiny * math.exp(ANCHOR_RADIUS)
        if self._col_pos is None:
            x = v.reshape(self._box)
        else:
            x = np.full(self._box, -np.inf)
            x.reshape(-1)[self._col_pos] = v
        for k in reversed(range(len(self._buf))):
            A = _restrict(self._factors[k], self._rows[k], self._cols[k])
            xk = x.swapaxes(k, -1)
            if self._buf[k] is None:
                self._buf[k] = np.empty(xk.shape[:-1] + A.shape)
            E = self._buf[k]
            shift = np.empty(E.shape[:-1])
            out = lse_matvec(A, xk, E, shift)
            # s_k = out - log Σ_j E_k[i, j], so that v = v̄ returns out
            # itself; rows that are all -inf keep s_k = 0 and E_k = 0
            live = out > -np.inf
            np.subtract(out, shift, out=shift, where=live)
            shift[~live] = 0.0
            np.copyto(E, 0.0, where=E < floor)
            # the first axis takes its weights from v - v̄ directly
            xbar = np.where(np.isneginf(xk), np.inf, xk) if self._axes \
                else None
            self._axes.append((xbar, shift, k, k == 0))
            x = out.swapaxes(k, -1)
        self.row_shift = self._on_rows(shift.swapaxes(k, -1))
        return self._on_rows(x)


def apply_semigroup(kernel: GibbsKernel, log_f: np.ndarray) -> np.ndarray:
    """log(P_T e^f) on the grid against the kernel's reference measure,
    computed entirely in the log domain; a stack of kernels gives one row
    per kernel time.

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
