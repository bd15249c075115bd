"""Machine-speed calibration for the run-time metrics.

On a shared machine the speed of one core drifts by tens of percent within
minutes (and by up to 3x in bursts), and the drift is common to all code
that runs at that moment.  A fixed unit of work that imitates the hot paths
of all three workloads is timed right next to each measured interval:
conjugate-gradient steps on a sparse weighted Laplacian plus a row-wise
log-sum-exp (as in battery-1d), a log-sum-exp whose exponentials mostly
underflow (as in smalltime-1d), and a log-sum-exp over a 1024 x 1024
kernel (as in bridge-2d).  A time t measured next to a calibration time c
is reported as t * NOMINAL_S / c: seconds at the speed the machine has
when the calibration takes its nominal time.  The calibration is code of the benchmark, so no change to
the program moves it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# median calibration time on the machine the benchmark was written on
# (2 vCPU x86-64, OpenBLAS 0.3.31, numpy 2.4, scipy 1.17, Python 3.11)
NOMINAL_S = 0.05
REPS = 2


def _lse(M: np.ndarray, out: np.ndarray) -> None:
    m = M.max(axis=1)
    np.subtract(M, m[:, None], out=out)
    np.exp(out, out=out)
    out.sum(axis=1)


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 256
        w = 1e-9 + rng.random(n - 1)
        self.L = sp.diags([-w, np.r_[w, 0.0] + np.r_[0.0, w], -w],
                          [-1, 0, 1]).tocsr()
        self.b = rng.random(n) - 0.5
        self.A = -30.0 * rng.random((256, 256))
        # arguments below -745 underflow to 0 through a slow path of exp
        self.U = -2000.0 * rng.random((320, 320))
        pts = rng.random((1024, 2))
        self.K = -0.5 * (pts @ pts.T)
        self.big = np.empty_like(self.K)
        self.bufs = {"A": np.empty_like(self.A), "U": np.empty_like(self.U)}
        self.last = self.measure()

    def _cg(self) -> None:
        L, r = self.L, self.b - self.b.mean()
        p, rs = r.copy(), float(r @ r)
        x = np.zeros_like(r)
        for _ in range(60):
            Lp = L @ p
            a = rs / float(p @ Lp)
            x += a * p
            r -= a * Lp
            r -= r.mean()
            rs_new = float(r @ r)
            p = r + (rs_new / rs) * p
            rs = rs_new
        for _ in range(6):
            _lse(self.A, self.bufs["A"])

    # The unit is single-threaded and writes its large arrays into
    # preallocated buffers.  A fresh 8 MB array per call costs page faults,
    # and a two-thread BLAS call waits for the second core; both made the
    # calibration time depend on the process's state and on the host's
    # load more than on the speed of the core.
    def _unit(self) -> None:
        for _ in range(3):
            self._cg()
            _lse(self.U, self.bufs["U"])
        _lse(self.K, self.big)

    def measure(self) -> float:
        """Seconds for the fixed calibration work."""
        t0 = time.perf_counter()
        for _ in range(REPS):
            self._unit()
        self.last = time.perf_counter() - t0
        return self.last

    def bracket(self) -> float:
        """Correction factor for the interval since the last calibration:
        the nominal time over the mean of that calibration and a new one."""
        before = self.last
        return NOMINAL_S / (0.5 * (before + self.measure()))
