"""Reference paths that the fast paths of `bridgestab` must match.

Bridge time slices, one time at a time: each slice applies a kernel built
for that time alone (`GibbsKernel.at_time(s)` then `apply_semigroup`), and
each α(t) takes its own slices, density weights and gradient.  The solution
computes the same quantities for a whole time mesh at once, from stacks of
kernels, and must agree with these bit for bit.
"""

import warnings

import numpy as np

from bridgestab.kernels import BandwidthWarning, apply_semigroup
from bridgestab.measures import MASS_FLOOR, gradient_energy


def semigroup_per_time(sol, s: float, log_f: np.ndarray) -> np.ndarray:
    """log P_s e^f from one kernel built at time s (P_0 is the identity,
    P_T the solution's own kernel)."""
    if s == 0.0:
        return log_f
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        kernel = sol.kernel if s == sol.T else sol.kernel.at_time(s)
    return apply_semigroup(kernel, log_f)


def log_slices_per_time(sol, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(log P_t e^φ, log P_{T-t} e^ψ), one kernel per time."""
    return (semigroup_per_time(sol, t, sol.phi),
            semigroup_per_time(sol, sol.T - t, sol.psi))


def alpha_per_time(sol, t: float) -> float:
    """α(t) = ∫ |∇ log P_t e^φ|² dρ_t from the slices at t alone; α(T)
    integrates against ν."""
    lp, lq = log_slices_per_time(sol, t)
    if t == sol.T:
        return gradient_energy(lp, sol.mu.grid, sol.nu.weights)
    w = np.exp(lp + lq + sol.reference.log_mass())
    return gradient_energy(lp, sol.mu.grid, w, floor=MASS_FLOOR)
