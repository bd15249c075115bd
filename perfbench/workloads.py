"""Seeded workload generator: turns (workload, seed) into bridgestab configs.

Every config is a plain dict that `bridgestab.cli.run` accepts.  The seed
fixes the marginal parameters, some kernel times and the per-config `seed`
field, so the same seed always gives the same configs.  Parameter ranges
are chosen so that every report passes and every solve converges.
"""

from __future__ import annotations

import random

WORKLOADS = ("battery-1d", "smalltime-1d", "bridge-2d")

_SOLVER = {"tol": 1.0e-9, "max_iter": 100000}


def _u(rng: random.Random, mid: float, half: float) -> float:
    """A draw from [mid - half, mid + half], rounded so that the YAML form
    of a config stays short and exact."""
    return round(mid + rng.uniform(-half, half), 6)


def _gauss(rng, means, sigma):
    return {"family": "gaussian", "mean": [_u(rng, m, 0.1) for m in means],
            "sigma": _u(rng, sigma, 0.05)}


# Marginals are jittered around fixed centres: the seed changes the inputs
# (and the random fields and pairs the configs draw from their own seeds),
# while the work per pass stays close to the same.  The 1D battery keeps
# every cell's mass far above the 1e-12 mass floor of `DiscreteMeasure`;
# see README.md for what happens on inputs that reach it.

def _battery_1d(rng):
    grid = {"bounds": [-6.0, 6.0], "shape": 256}
    marg = {"mu": _gauss(rng, [-0.8], 1.15), "nu": _gauss(rng, [0.8], 1.15)}
    pert = {"epsilons": [0.05, 0.2], "n_seeds": 1, "n_modes": 3}
    ou = {"kind": "ou", "T": _u(rng, 0.5, 0.05), "kappa": 1.0}
    sob_mu = {"family": "mixture", "components": [
        {"weight": 0.6, "mean": [-1.0], "sigma": 1.2},
        {"weight": 0.4, "mean": [1.2], "sigma": 1.1}]}
    return [
        {"scenario": "stability", "seed": rng.randrange(2 ** 31),
         "grid": grid, "kernel": ou, "marginals": marg,
         "perturbation": pert, "solver": _SOLVER},
        {"scenario": "cost-stability", "seed": rng.randrange(2 ** 31),
         "grid": grid, "kernel": ou, "marginals": marg,
         "perturbation": pert, "solver": _SOLVER},
        {"scenario": "eot-stability", "seed": rng.randrange(2 ** 31),
         "grid": grid, "kernel": {"epsilon": _u(rng, 0.5, 0.05)},
         "marginals": marg, "perturbation": pert, "solver": _SOLVER},
        {"scenario": "sobolev", "seed": rng.randrange(2 ** 31),
         "grid": {"bounds": [-6.0, 6.0], "shape": 512},
         "marginals": {"mu": sob_mu},
         "sobolev": {"n_instances": 4, "eps": 0.2}},
    ]


def _smalltime_1d(rng):
    grid = {"bounds": [-8.0, 10.0], "shape": 320}
    return [
        {"scenario": "smalltime", "grid": grid, "kernel": {"kappa": 0.0},
         "marginals": {"mu": _gauss(rng, [-1.0], 1.0),
                       "nu": _gauss(rng, [1.0], 1.0)},
         "smalltime": {"T_list": [0.05, 0.02],
                       "max_final_rel_gap": 0.05},
         "solver": _SOLVER},
        {"scenario": "gradient-map", "grid": grid, "kernel": {"kappa": 1.0},
         "marginals": {"mu": _gauss(rng, [-1.0], 1.0),
                       "nu": _gauss(rng, [1.0], 1.3)},
         "gradient_map": {"T_list": [0.1, 0.05]},
         "solver": _SOLVER},
    ]


def _bridge_2d(rng):
    grid = {"bounds": [[-5.0, 5.0], [-5.0, 5.0]], "shape": [32, 32]}
    return [
        {"scenario": "corrector", "seed": rng.randrange(2 ** 31),
         "grid": grid,
         "kernel": {"kind": "ou", "T": 3.0, "kappa": 1.0},
         "corrector": {"n_pairs": 3}, "solver": _SOLVER},
        {"scenario": "interpolate", "grid": grid,
         "kernel": {"kind": "ou", "T": 1.0, "kappa": 1.0},
         "marginals": {"mu": _gauss(rng, [-1.0, 0.0], 0.85),
                       "nu": _gauss(rng, [1.0, 0.0], 0.85)},
         "interpolate": {"n_times": 9, "n_slices": 8},
         "solver": _SOLVER},
    ]


_BUILDERS = {"battery-1d": _battery_1d, "smalltime-1d": _smalltime_1d,
             "bridge-2d": _bridge_2d}


def generate(workload: str, seed: int) -> list[dict]:
    """The configs of one workload for one seed, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng)


# per-layer counters that must be nonzero on each workload: a zero means
# the tracer lost a layer the workload exercises (for example a name that
# was imported somewhere the rebinding did not reach)
REQUIRED = {
    "battery-1d": ("kernels.build_calls", "kernels.lse_calls",
                   "schrodinger.solve_calls", "schrodinger.eot_calls",
                   "schrodinger.log_plan_calls", "sobolev.hm1_calls",
                   "diagnostics.check_calls", "measures.calls"),
    "smalltime-1d": ("kernels.build_calls", "kernels.lse_calls",
                     "schrodinger.solve_calls", "dynamics.calls",
                     "measures.calls"),
    "bridge-2d": ("kernels.build_calls", "kernels.lse_calls",
                  "kernels.apply_calls", "schrodinger.solve_calls",
                  "diagnostics.check_calls", "dynamics.calls",
                  "measures.calls"),
}


def kernel_cells(cfgs: list[dict]) -> int:
    """Largest number of grid cells among the configs that build a kernel:
    the size of the plain exp(K) @ v baseline."""
    n = 1
    for cfg in cfgs:
        if "kernel" in cfg:
            shape = cfg["grid"]["shape"]
            cells = 1
            for s in ([shape] if isinstance(shape, int) else shape):
                cells *= s
            n = max(n, cells)
    return n
