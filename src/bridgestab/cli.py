"""Batch front end: configure, run, and report the experiment batteries.

One declarative YAML config describes a scenario (solver run, stability
battery, small-time curve, ...).  `SCENARIOS` has one entry per scenario:
its description, kernel schema, marginals, config blocks, 1D and seed
flags, and runner.  `validate` and ``--list-scenarios`` walk that table;
`_BLOCKS` holds each block's field rules and runner defaults.  The runner
writes, into the output directory:

* ``report.jsonl``  — one inequality report or table descriptor per line,
  each carrying the config digest; byte-identical across reruns with the
  same config and seed;
* one CSV per result table (curves, battery rows, potentials);
* ``summary.txt``   — a human-readable tally (the only file with a
  timestamp).

Exit codes: 0 all checks pass, 1 at least one inequality fails,
2 configuration error (a field that breaks its rule, or marginal data
that cannot be built; stderr names the field), 3 numerical
non-convergence.  When several apply, 2 wins over 3 wins over 1.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np
import yaml

from .diagnostics import (
    corrector_check,
    cost_stability_check,
    plan_stability_check,
    quadratic_eot_stability_check,
)
from .dynamics import (
    dynamic_cost_check,
    gradient_convergence_experiment,
    gronwall_decay_check,
    interpolate,
    small_time_cost_curve,
)
from .kernels import OU_MAX_KAPPA_T, GibbsKernel
from .measures import (
    DiscreteMeasure,
    Grid,
    gaussian_measure,
    gaussian_mixture_measure,
    measure_from_csv,
    perturbed_measure,
    random_smooth_pair,
    smooth_zero_mean_field,
    uniform_measure,
)
from .orlicz import (
    OrliczContext,
    density_conjugate_norm,
    log_integrability_bound,
    orlicz_young_check,
    relative_entropy_weights,
)
from .reports import InequalityReport, make_equality_report, make_report
from .schrodinger import InfeasibleProblem, NotConverged, eot_quadratic_direct, solve
from .sobolev import w2_h_minus_one_comparison


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _grid(cfg) -> Grid:
    return Grid.regular(cfg["grid"]["bounds"], cfg["grid"]["shape"])


def _kernel(grid: Grid, k: dict) -> GibbsKernel:
    if k["kind"] == "heat":
        return GibbsKernel.heat(grid, k["T"])
    return GibbsKernel.ou(grid, k["T"], k["kappa"])


# marginal family -> (keys its spec needs, make(grid, spec, rng))
_FAMILIES = {
    "gaussian": (("mean", "sigma"), lambda g, s, rng: gaussian_measure(
        g, s["mean"], s["sigma"])),
    "uniform": (("lo", "hi"), lambda g, s, rng: uniform_measure(
        g, s["lo"], s["hi"])),
    "mixture": ((), lambda g, s, rng: gaussian_mixture_measure(
        g, [(c["weight"], c["mean"], c["sigma"]) for c in s["components"]])),
    "csv": (("path",), lambda g, s, rng: measure_from_csv(s["path"])),
    # one draw from the smooth-mixture family
    "random": ((), lambda g, s, rng: random_smooth_pair(g, rng)[0]),
}


def _measure(grid: Grid, cfg: dict, side: str,
             rng: np.random.Generator) -> DiscreteMeasure:
    """Marginal ``marginals.<side>``; data that cannot be built (an empty
    box, a missing CSV, ...) is a problem-data error naming the field."""
    spec = cfg["marginals"][side]
    try:
        m = _FAMILIES[spec["family"]][1](grid, spec, rng)
        if not m.grid.same_as(grid):
            raise ValueError("the measure lives on a different grid")
    except (OSError, TypeError, ValueError) as exc:
        raise InfeasibleProblem(f"marginals.{side}: {exc}") from exc
    return m


def _marginals(grid: Grid, cfg: dict, rng: np.random.Generator):
    return _measure(grid, cfg, "mu", rng), _measure(grid, cfg, "nu", rng)


@dataclass
class Table:
    """One result table, held by column: ``columns[j]`` holds the cells
    under ``header[j]``, either as a float64 array or as a sequence of
    floats, ints, bools, strings and None.  All columns have one length."""

    name: str
    header: list[str]
    columns: list

    @staticmethod
    def of_dicts(name: str, rows: list[dict]) -> "Table":
        return Table.of_rows(name, list(rows[0]), [r.values() for r in rows])

    @staticmethod
    def of_rows(name: str, header: list[str], rows: list) -> "Table":
        """The table of ``rows``; no rows gives empty columns."""
        return Table(name, header,
                     list(zip(*rows)) if rows else [[] for _ in header])


@dataclass
class ScenarioResult:
    reports: list[InequalityReport] = field(default_factory=list)
    tables: list[Table] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    nonconverged: bool = False
    battery: list[list] = field(default_factory=list)  # battery-table rows

    def not_converged(self, note: str) -> None:
        self.nonconverged = True
        self.notes.append(note)

    def converged(self, sol, where: str = "", tail: str = "") -> bool:
        """``sol.converged``; when False, noted with its final residual."""
        if not sol.converged:
            self.not_converged(f"{where}residual {sol.marginal_residual:.3e}"
                               f" after {sol.n_iter} iterations{tail}")
        return sol.converged

    def add_checks(self, tag: dict, reports) -> None:
        """Keep each report, and a battery row for it led by ``tag``."""
        for r in reports:
            self.reports.append(r)
            self.battery.append([*tag.values(), r.name, r.lhs, r.rhs,
                                 r.slack, r.relative_slack, r.passed,
                                 r.vacuous])

    def battery_table(self, *tags: str) -> None:
        self.tables.append(Table.of_rows("battery", [
            *tags, "name", "lhs", "rhs", "slack", "relative_slack", "passed",
            "vacuous"], self.battery))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _run_solve(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    mu, nu = _marginals(grid, cfg, rng)
    ker = _kernel(grid, cfg["kernel"])
    sv = _section(cfg, "solver")
    sol = solve(mu, nu, ker, **sv)
    res.converged(sol, "solve: ", f" (tol {sv['tol']:.1e})")
    res.reports.append(make_report(
        "solve_residual", sol.marginal_residual, sv["tol"],
        tol_abs=0.0, tol_rel=0.0))
    a, b = sol.normalization_sides()
    res.reports.append(make_equality_report(
        "normalization_sides", a, b, abs_tol=1e-8, rel_tol=1e-8))
    res.records.append({
        "record": "solution",
        "entropic_cost": sol.entropic_cost(),
        "schrodinger_cost": sol.schrodinger_cost(),
        "n_iter": sol.n_iter,
        "marginal_residual": sol.marginal_residual,
        "converged": sol.converged,
        "plan_total_mass": float(sol.mu_hat.sum()),
        "underresolved": ker.underresolved,
    })
    coords = [f"x{i}" for i in range(grid.ndim)]
    res.tables.append(Table(
        "potentials", [*coords, "mu", "nu", "phi", "psi"],
        [*grid.points().T, mu.weights, nu.weights, sol.phi, sol.psi]))
    return res


def _run_battery(cfg, rng) -> ScenarioResult:
    """Solve the base pair (quadratic EOT at ``kernel.epsilon``, else the
    Schrödinger problem of the configured kernel), then ``n_seeds``
    perturbation draws at each ε, and check every converged perturbed
    solution against the base with the scenario's ``check``.  Each
    perturbed solve starts from the base solution (`init_psi`, or
    `init_b` for EOT): from its ν-side potential, on the two Sinkhorn
    operators it keeps (``keep_operators``) and, for EOT, on its kernel,
    since `perturbed_measure` keeps the base supports; a perturbed
    marginal on another support starts cold.  The checks run after the
    last solve, once the base has dropped its operators' n² buffers.  The
    solver is looked up by name at each call, never captured."""
    res = ScenarioResult()
    scen = SCENARIOS[cfg["scenario"]]
    sv = _section(cfg, "solver")
    eot = scen.kernel == "epsilon"
    grid = _grid(cfg)
    arg = cfg["kernel"]["epsilon"] if eot else _kernel(grid, cfg["kernel"])

    def solve_pair(mu, nu, init=None, keep=False):
        if eot:
            return eot_quadratic_direct(mu, nu, arg, init_b=init,
                                        keep_operators=keep, **sv)
        return solve(mu, nu, arg, init_psi=init, keep_operators=keep, **sv)

    mu, nu = _marginals(grid, cfg, rng)
    pert = _section(cfg, "perturbation")
    base = solve_pair(mu, nu, keep=True)
    if not base.converged:
        res.not_converged("base problem did not converge; battery skipped")
        return res
    solved = []
    for s in range(pert["n_seeds"]):
        h = smooth_zero_mean_field(grid, mu, rng, n_modes=pert["n_modes"])
        k = smooth_zero_mean_field(grid, nu, rng, n_modes=pert["n_modes"])
        for eps in pert["epsilons"]:
            mu_p = perturbed_measure(mu, h, eps)
            nu_p = perturbed_measure(nu, k, eps)
            start = base if base.same_supports(mu_p, nu_p) else None
            solved.append((eps, s, solve_pair(mu_p, nu_p, start)))
    base.drop_operators()
    for eps, s, pert_sol in solved:
        if res.converged(pert_sol, f"eps={eps} draw={s}: "):
            res.add_checks({"eps": float(eps), "draw": s},
                           scen.check(base, pert_sol))
    res.battery_table("eps", "draw")
    return res


def _run_corrector(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    ker = _kernel(grid, cfg["kernel"])
    for i in range(_section(cfg, "corrector")["n_pairs"]):
        try:
            mu, nu = random_smooth_pair(grid, rng)
        except ValueError as exc:  # e.g. no mass left on a very wide grid
            raise InfeasibleProblem(f"corrector pair {i}: {exc}") from exc
        sol = solve(mu, nu, ker, **_section(cfg, "solver"))
        if res.converged(sol, f"pair {i}: "):
            res.add_checks({"pair": i}, corrector_check(sol))
    res.battery_table("pair")
    return res


def _run_smalltime(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    mu, nu = _marginals(_grid(cfg), cfg, rng)
    sect = _section(cfg, "smalltime")
    try:
        rows = small_time_cost_curve(mu, nu, sect["T_list"],
                                     kappa=cfg["kernel"]["kappa"],
                                     **_section(cfg, "solver"))
    except NotConverged as exc:
        res.not_converged(str(exc))
        return res
    except ValueError as exc:  # e.g. μ = ν, where no relative gap exists
        raise InfeasibleProblem(f"marginals: {exc}") from exc
    gaps = [abs(r["rel_gap"]) for r in rows]
    res.reports.append(make_report(
        "smalltime_monotone", max(gaps[i + 1] - gaps[i]
                                  for i in range(len(gaps) - 1)), 0.0,
        tol_abs=0.0, tol_rel=0.0,
        note="successive |relative gap| must not increase along T list"))
    res.reports.append(make_report(
        "smalltime_final_gap", gaps[-1], sect["max_final_rel_gap"],
        tol_abs=0.0, tol_rel=0.0))
    res.tables.append(Table.of_dicts("smalltime", rows))
    return res


def _run_gradient_map(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    mu, nu = _marginals(_grid(cfg), cfg, rng)
    try:
        rows, pairs = gradient_convergence_experiment(
            mu, nu, cfg["gradient_map"]["T_list"],
            kappa=cfg["kernel"]["kappa"], **_section(cfg, "solver"))
    except NotConverged as exc:
        res.not_converged(str(exc))
        return res
    errs = [r["l2_error"] for r in rows]
    res.reports.append(make_report(
        "gradient_map_decreasing",
        max(errs[i + 1] - errs[i] for i in range(len(errs) - 1)), 0.0,
        tol_abs=0.0, tol_rel=0.0,
        note="L²(μ) map error must not increase along T ↓ 0"))
    res.tables.append(Table.of_dicts("curve", rows))
    last = pairs[-1]
    res.tables.append(Table(
        "maps", ["x", "weight", "schrodinger_map", "brenier_map"],
        [last.support_points, last.support_weights, last.schrodinger_map,
         last.brenier_map]))
    return res


def _run_interpolate(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    mu, nu = _marginals(grid, cfg, rng)
    ker = _kernel(grid, cfg["kernel"])
    sect = _section(cfg, "interpolate")
    sol = solve(mu, nu, ker, **_section(cfg, "solver"))
    if not res.converged(sol):
        return res
    curve = interpolate(sol, n_times=sect["n_times"])
    coords = [f"x{i}" for i in range(grid.ndim)]
    res.tables.append(Table(
        "interpolation", ["t", *coords, "weight"],
        [np.repeat(curve.times, grid.n_cells),
         *np.tile(grid.points().T, len(curve.times)),
         curve.densities.reshape(-1)]))
    res.records.append({"record": "interpolation_mass",
                        "masses": [float(m) for m in curve.masses]})
    bbs, alpha_rows = dynamic_cost_check(sol, n_slices=sect["n_slices"])
    res.reports.append(bbs)
    res.tables.append(Table.of_dicts("dynamic_cost", alpha_rows))
    gr, gr_rows = gronwall_decay_check(sol)
    res.reports.append(gr)
    res.tables.append(Table.of_dicts("gronwall", gr_rows))
    return res


def _run_sobolev(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    sect = _section(cfg, "sobolev")
    redraw = cfg["marginals"]["mu"]["family"] == "random"
    mu = None
    for i in range(sect["n_instances"]):
        if mu is None or redraw:
            mu = _measure(grid, cfg, "mu", rng)
        h = smooth_zero_mean_field(grid, mu, rng)
        res.add_checks({"instance": i}, [w2_h_minus_one_comparison(
            mu, perturbed_measure(mu, h, sect["eps"]))])
    res.battery_table("instance")
    return res


def _orlicz_instance(rng, n: int, exp_lo: float, exp_hi: float, kind: str):
    q = rng.dirichlet(np.full(n, 2.0))
    tilt = np.log(q) + 0.6 * rng.normal(size=n)
    p = np.exp(tilt - tilt.max())
    p /= p.sum()
    pe = float(rng.uniform(exp_lo, exp_hi))
    qe = float(rng.uniform(exp_lo, exp_hi))
    if kind == "above":          # h ≥ 1 everywhere: q{h ≥ 1} = 1
        h = np.exp(np.abs(rng.normal(size=n)))
    elif kind == "below":        # h < 1 a.s.: q{h ≥ 1} = 0
        h = np.exp(-np.abs(rng.normal(size=n)) - 1e-3)
    else:
        h = np.exp(0.8 * rng.normal(size=n))
    return OrliczContext(q_weights=q, p_weights=p, h=h, p_exp=pe, q_exp=qe)


def _run_orlicz(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    sect = _section(cfg, "orlicz")
    kinds = ("general", "above", "below")
    for i in range(sect["n_instances"]):
        kind = kinds[i % 3]
        ctx = _orlicz_instance(rng, sect["n_atoms"], sect["exp_lo"],
                               sect["exp_hi"], kind)
        q, p = ctx.q_weights, ctx.p_weights
        ent = relative_entropy_weights(p, q)
        ident = make_equality_report(
            "conjugate_norm_identity", density_conjugate_norm(p, q),
            math.exp(ent - 1.0), abs_tol=0.0, rel_tol=1e-6)
        batch = [ident,
                 orlicz_young_check(np.log(ctx.h), p / q, q),
                 log_integrability_bound(ctx, "B1"),
                 log_integrability_bound(ctx, "B1_no_measure")]
        if min(ctx.p_exp, ctx.q_exp) <= 1.0:
            batch.append(log_integrability_bound(ctx, "final"))
        if kind != "general":
            batch.append(log_integrability_bound(ctx, "extreme"))
        res.add_checks({"instance": i, "kind": kind}, batch)
    res.battery_table("instance", "kind")
    return res


# ---------------------------------------------------------------------------
# the scenario table and its config blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Scenario:
    """What one scenario needs from its config, and the code that runs it.
    A scenario with a kernel or marginals also needs a grid."""

    description: str
    run: Callable[[dict, np.random.Generator], ScenarioResult]
    # "kind": kernel.kind with T (and κ for OU); "kappa": κ ≥ 0 only;
    # "epsilon": the EOT regularizer; None: no kernel
    kernel: str | None = None
    marginals: tuple[str, ...] = ("mu", "nu")
    blocks: tuple[str, ...] = ()   # scenario blocks, checked by _BLOCKS
    one_d: bool = False
    seeded: bool = False           # draws random data: `seed` is mandatory
    check: Callable | None = None  # battery check(base, perturbed)


# The battery checks are lambdas so that each call looks the check up by
# its module-level name; a captured function object would bypass anything
# that rebinds that name (the benchmark's tracer, for one).
SCENARIOS = {
    "solve": _Scenario(
        "solve one Schrödinger problem; write potentials and costs",
        _run_solve, kernel="kind"),
    "stability": _Scenario(
        "plan-stability battery over perturbed marginal pairs",
        _run_battery, kernel="kind", blocks=("perturbation",), seeded=True,
        check=lambda a, b: plan_stability_check(a, b)),
    "cost-stability": _Scenario(
        "cost-stability battery over perturbed marginal pairs",
        _run_battery, kernel="kind", blocks=("perturbation",), seeded=True,
        check=lambda a, b: cost_stability_check(a, b)),
    "eot-stability": _Scenario(
        "quadratic entropic-transport stability battery",
        _run_battery, kernel="epsilon", blocks=("perturbation",),
        seeded=True, check=lambda a, b: quadratic_eot_stability_check(a, b)),
    "corrector": _Scenario(
        "corrector bounds on random smooth marginal pairs",
        _run_corrector, kernel="kind", marginals=(), blocks=("corrector",),
        seeded=True),
    "smalltime": _Scenario(
        "T·cost against W2²/4 along a decreasing time list",
        _run_smalltime, kernel="kappa", blocks=("smalltime",), one_d=True),
    "gradient-map": _Scenario(
        "Schrödinger map against the monotone transport map",
        _run_gradient_map, kernel="kappa", blocks=("gradient_map",),
        one_d=True),
    "interpolate": _Scenario(
        "entropic interpolation, dynamic cost and decay checks",
        _run_interpolate, kernel="kind", blocks=("interpolate",)),
    "sobolev": _Scenario(
        "W2 against the weighted H^{-1} norm on perturbations",
        _run_sobolev, marginals=("mu",), blocks=("sobolev",), one_d=True,
        seeded=True),
    "orlicz": _Scenario(
        "exponential-Orlicz identities and log-integrability bounds",
        _run_orlicz, marginals=(), blocks=("orlicz",), seeded=True),
}


def _is_num(x, kinds=(int, float)) -> bool:
    return isinstance(x, kinds) and not isinstance(x, bool)


def _positive(v) -> bool:
    return _is_num(v) and v > 0


def _int_from(lo: int):
    return lambda v: _is_num(v, int) and v >= lo


def _ou_overflows(kappa, T) -> bool:
    """κT beyond the range the OU formulas take (e^{2κT} overflows)."""
    return _positive(kappa) and _positive(T) and kappa * T > OU_MAX_KAPPA_T


_OU_RANGE = (f"T <= {OU_MAX_KAPPA_T:g}/kappa required for the OU kernel "
             "(e^(2*kappa*T) overflows beyond)")


def _list_of(ok, min_len: int = 1):
    return lambda v: (isinstance(v, list) and len(v) >= min_len
                      and all(map(ok, v)))


_POSITIVE = ("positive number required", _positive)
_UNIT = ("number in (0, 1) required", lambda v: _is_num(v) and 0 < v < 1)
_COUNT = ("integer >= 1 required", _int_from(1))
_TWO_UP = ("integer >= 2 required", _int_from(2))
_T_LIST = (("list of >= 2 positive times required", _list_of(_positive, 2)),
           ("times must decrease strictly (the curve checks gaps along "
            "T ↓ 0)", lambda v: all(a > b for a, b in zip(v, v[1:]))))

# block -> field -> (default, or None if required, *rules).  A rule is a pair
# (message, predicate); a field reports the first rule its value breaks.
# Runners read defaults through `_section`, never through `_normalize`, so
# they stay out of the config digest (the solver defaults are in it).
_BLOCKS = {
    "grid": {
        "bounds": (None, (
            "list of [lo, hi] pairs with lo < hi required",
            _list_of(lambda p: isinstance(p, list) and len(p) == 2
                     and all(map(_is_num, p)) and p[0] < p[1]))),
        "shape": (None, ("list of integers >= 2 required",
                         _list_of(_int_from(2)))),
    },
    "solver": {"tol": (1e-9, _POSITIVE), "max_iter": (100_000, _COUNT)},
    "output": {"dir": ("out", ("string required",
                               lambda v: isinstance(v, str)))},
    "perturbation": {
        "epsilons": (None, ("list of numbers in (0, 1) required",
                            _list_of(_UNIT[1]))),
        "n_seeds": (None, _COUNT),
        "n_modes": (3, _COUNT),
    },
    "corrector": {"n_pairs": (20, _COUNT)},
    "smalltime": {"T_list": (None, *_T_LIST),
                  "max_final_rel_gap": (0.05, _POSITIVE)},
    "gradient_map": {"T_list": (None, *_T_LIST)},
    "interpolate": {"n_times": (9, _TWO_UP), "n_slices": (64, _TWO_UP)},
    "sobolev": {"n_instances": (50, _COUNT), "eps": (0.1, _UNIT)},
    "orlicz": {"n_instances": (100, _COUNT), "n_atoms": (16, _COUNT),
               "exp_lo": (0.5, _POSITIVE), "exp_hi": (2.0, _POSITIVE)},
}
# rules on a whole block once its fields pass; the first one broken counts
_JOINT = {
    "grid": (("bounds and shape must have equal length",
              lambda g: len(g["bounds"]) == len(g["shape"])),
             ("at most two dimensions are supported",
              lambda g: len(g["bounds"]) <= 2)),
    "orlicz": (("exp_lo <= exp_hi required",
                lambda s: s["exp_lo"] <= s["exp_hi"]),),
}


def _section(cfg: dict, name: str) -> dict:
    """Block ``name`` of a validated config, defaults filled in."""
    given = cfg.get(name, {})
    return {k: given.get(k, f[0]) for k, f in _BLOCKS[name].items()}


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------

def _normalize(cfg: dict) -> dict:
    """Fill shape conveniences (scalar bounds/shape in 1D) and the solver
    defaults."""
    out = json.loads(json.dumps(cfg))  # deep copy, YAML scalars only
    g = out.get("grid")
    if isinstance(g, dict):
        b = g.get("bounds")
        if (isinstance(b, list) and len(b) == 2 and all(_is_num(v) for v in b)):
            g["bounds"] = [b]
        if _is_num(g.get("shape")):
            g["shape"] = [g["shape"]]
    if isinstance(out.setdefault("solver", {}), dict):
        out["solver"] = {**out["solver"], **_section(out, "solver")}
    return out


def _check_block(cfg: dict, name: str, errs: list[str]) -> bool:
    """Appends the violations of block ``name``; True when it has none."""
    fields = _BLOCKS[name]
    required = [repr(k) for k, f in fields.items() if f[0] is None]
    sect = cfg.get(name, None if required else {})
    if not isinstance(sect, dict):
        errs.append(f"{name}: mapping with {' and '.join(required)} required"
                    if required else f"{name}: mapping expected")
        return False
    n_errs = len(errs)
    for key, (default, *rules) in fields.items():
        if key in sect or default is None:
            bad = next((m for m, ok in rules if not ok(sect.get(key))), None)
            if bad:
                errs.append(f"{name}.{key}: {bad}")
    if len(errs) == n_errs:
        filled = _section(cfg, name)
        bad = next((m for m, ok in _JOINT.get(name, ()) if not ok(filled)),
                   None)
        if bad:
            errs.append(f"{name}: {bad}")
    return len(errs) == n_errs


def _check_kernel(k, schema: str, scenario: str, errs: list[str]) -> None:
    if not isinstance(k, dict):
        errs.append("kernel: mapping required")
    elif schema == "epsilon":
        if not _positive(k.get("epsilon")):
            errs.append("kernel.epsilon: positive number required for "
                        f"{scenario}")
    elif schema == "kappa":
        if not (_is_num(k.get("kappa")) and k["kappa"] >= 0):
            errs.append("kernel.kappa: number >= 0 required "
                        f"(0 means heat kernel) for {scenario}")
    else:
        if k.get("kind") not in ("heat", "ou"):
            errs.append("kernel.kind: 'heat' or 'ou' required")
        if not _positive(k.get("T")):
            errs.append("kernel.T: positive number required")
        if k.get("kind") == "ou" and not _positive(k.get("kappa")):
            errs.append("kernel.kappa: positive number required when "
                        "kernel.kind is 'ou'")
        elif k.get("kind") == "ou" and _ou_overflows(k["kappa"], k.get("T")):
            errs.append(f"kernel.T: {_OU_RANGE}")


def _check_mean(mean, path: str, ndim: int, errs: list[str]) -> None:
    # ndim 0: the grid is unusable and already reported
    if ndim and not (_list_of(_is_num)(mean) and len(mean) == ndim):
        errs.append(f"{path}.mean: list of {ndim} numbers required")


def _check_marginal(spec, path: str, ndim: int, errs: list[str]) -> None:
    if not isinstance(spec, dict) or "family" not in spec:
        errs.append(f"{path}: mapping with a 'family' key required")
        return
    fam = spec["family"]
    if not isinstance(fam, str) or fam not in _FAMILIES:
        errs.append(f"{path}.family: unknown family {fam!r}")
    elif not set(_FAMILIES[fam][0]) <= set(spec):
        errs.append(f"{path}: {fam} needs "
                    + " and ".join(map(repr, _FAMILIES[fam][0])))
    elif fam == "gaussian":
        if not _positive(spec["sigma"]):
            errs.append(f"{path}.sigma: positive number required")
        _check_mean(spec["mean"], path, ndim, errs)
    elif fam == "mixture":
        comps = spec.get("components")
        if not isinstance(comps, list) or not comps:
            errs.append(f"{path}.components: nonempty list required")
            return
        for i, c in enumerate(comps):
            if not isinstance(c, dict) or \
                    not {"weight", "mean", "sigma"} <= set(c):
                errs.append(f"{path}.components[{i}]: needs "
                            "'weight', 'mean', 'sigma'")
            else:
                _check_mean(c["mean"], f"{path}.components[{i}]", ndim, errs)


def validate(cfg) -> list[str]:
    """All violations that make the config unrunnable, with field paths.

    An empty list means the config can run.  Soft conditions (for example a
    kernel bandwidth below the grid resolution) warn at run time and are not
    violations.
    """
    if not isinstance(cfg, dict):
        return ["config: top-level mapping required"]
    cfg = _normalize(cfg)
    name = cfg.get("scenario")
    if not isinstance(name, str) or name not in SCENARIOS:
        return [f"scenario: one of {sorted(SCENARIOS)} required, "
                f"got {name!r}"]
    scen = SCENARIOS[name]
    errs: list[str] = []
    if "seed" not in cfg:
        if scen.seeded:
            errs.append("seed: integer seed is mandatory for randomized "
                        f"scenario {name!r}")
    elif not _is_num(cfg["seed"], int):
        errs.append("seed: integer required")
    elif cfg["seed"] < 0:
        errs.append("seed: integer >= 0 required")
    ndim = 0
    if (scen.kernel or scen.marginals) and _check_block(cfg, "grid", errs):
        ndim = len(cfg["grid"]["bounds"])
        if scen.one_d and ndim > 1:
            errs.append(f"grid: scenario {name!r} is one-dimensional")
    if scen.kernel:
        _check_kernel(cfg.get("kernel"), scen.kernel, name, errs)
    m = cfg.get("marginals")
    if scen.marginals and not isinstance(m, dict):
        errs.append("marginals: mapping with 'mu' (and 'nu') required")
    elif scen.marginals:
        for side in scen.marginals:
            _check_marginal(m.get(side), f"marginals.{side}", ndim, errs)
        if "seed" not in cfg and not scen.seeded and any(
                isinstance(v, dict) and v.get("family") == "random"
                for v in m.values()):
            errs.append("seed: required when a marginal family is 'random'")
    for block in (*scen.blocks, "solver", "output"):
        _check_block(cfg, block, errs)
    if scen.kernel == "kappa" and isinstance(cfg.get("kernel"), dict):
        _check_ou_times(cfg["kernel"].get("kappa"), cfg.get(scen.blocks[0]),
                        scen.blocks[0], errs)
    return errs


def _check_ou_times(kappa, sect, name: str, errs: list[str]) -> None:
    """Every time of ``<name>.T_list`` within the OU range of κ."""
    times = sect.get("T_list") if isinstance(sect, dict) else None
    if isinstance(times, list):
        bad = next((i for i, T in enumerate(times)
                    if _ou_overflows(kappa, T)), None)
        if bad is not None:
            errs.append(f"{name}.T_list[{bad}]: {_OU_RANGE}")


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def config_digest(cfg: dict) -> str:
    """Digest of the effective config (12 hex chars); output paths excluded
    so that moving the artifact directory never changes report identity."""
    stripped = {k: v for k, v in cfg.items() if k != "output"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _csv_cell(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv_quote(s: str) -> str:
    """``s`` quoted as `csv.writer` quotes by default: in double quotes,
    inner quotes doubled, when it holds a comma, a quote or a line break."""
    if "," in s or '"' in s or "\r" in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


# a float64 column whose first _CSV_HEAD entries are distinct is formatted
# cell by cell without looking for repeats
_CSV_HEAD = 64


def _csv_column(col) -> Iterable[str]:
    """The CSV cells of one column, in order.  A float64 array is written
    as the repr of each float.  Unless its first _CSV_HEAD entries are
    distinct, each distinct bit pattern (so -0.0 apart from 0.0) is
    formatted once when at most half of its entries are distinct; both
    ways write the same bytes.  Any other column is formatted cell by
    cell."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        head = col[:_CSV_HEAD].tolist()
        if len(set(head)) < len(head):
            bits, inverse = np.unique(col.view(np.int64),
                                      return_inverse=True)
            if 2 * bits.size <= col.size:
                text = np.array(
                    list(map(repr, bits.view(np.float64).tolist())),
                    dtype=object)
                return text[inverse]
        return map(repr, col.tolist())
    return (_csv_quote(_csv_cell(v)) for v in col)


def _write_outputs(out: Path, cfg: dict, digest: str,
                   res: ScenarioResult, exit_code: int) -> None:
    """Write ``report.jsonl``, one CSV per table and ``summary.txt``.  Each
    table is formatted column by column (`_csv_column`) and written as a
    header line plus one line per row, comma-separated with CRLF ends: the
    bytes `csv.writer` writes for the same rows."""
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for r in res.reports:
        r.inputs_digest = digest
        lines.append(json.dumps({"record": "report", **r.to_json_dict()},
                                sort_keys=True))
    for rec in res.records:
        lines.append(json.dumps({**rec, "inputs_digest": digest},
                                sort_keys=True))
    for t in res.tables:
        path = f"{t.name}.csv"
        rows = map(",".join, zip(*map(_csv_column, t.columns)))
        with open(out / path, "w", newline="") as fh:
            fh.write(",".join(map(_csv_quote, t.header)) + "\r\n")
            # blocks of rows: a whole 2D interpolation at once would hold
            # every line of it in memory
            while block := list(islice(rows, 1024)):
                fh.write("\r\n".join(block) + "\r\n")
        lines.append(json.dumps(
            {"record": "table", "name": t.name, "path": path,
             "rows": len(t.columns[0]), "inputs_digest": digest},
            sort_keys=True))
    (out / "report.jsonl").write_text("".join(f"{ln}\n" for ln in lines))

    tally: dict[str, list[int]] = {}
    for r in res.reports:
        c = tally.setdefault(r.name, [0, 0, 0])
        c[0] += r.passed
        c[1] += not r.passed
        c[2] += r.vacuous
    stamp = datetime.datetime.now(datetime.timezone.utc) \
        .strftime("%Y-%m-%dT%H:%M:%SZ")
    txt = [
        f"scenario: {cfg['scenario']}",
        f"generated: {stamp}  (timestamp lives only in this file)",
        f"config digest: {digest}",
        "standing assumption: marginals have finite relative entropy and",
        "exponentially integrable log-densities; every bound is checked in",
        "that regime.",
        "",
        f"{'check':34s} {'pass':>6s} {'fail':>6s} {'vacuous':>8s}",
    ]
    for name in sorted(tally):
        p, f, v = tally[name]
        txt.append(f"{name:34s} {p:6d} {f:6d} {v:8d}")
    if not tally:
        txt.append("(no inequality reports)")
    if res.notes:
        txt.append("")
        txt.extend(f"note: {n}" for n in res.notes)
    txt.append("")
    txt.append(f"exit status: {exit_code}")
    (out / "summary.txt").write_text("".join(f"{ln}\n" for ln in txt))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(cfg: dict, out_dir: Path | None = None,
        seed_override: int | None = None) -> int:
    """Validate, execute, and write artifacts; returns the exit code."""
    if seed_override is not None and isinstance(cfg, dict):
        cfg = {**cfg, "seed": seed_override}
    violations = validate(cfg)
    if violations:
        for v in violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    cfg = _normalize(cfg)
    out = Path(out_dir if out_dir is not None
               else _section(cfg, "output")["dir"])
    digest = config_digest(cfg)
    rng = np.random.default_rng(cfg.get("seed", 0))
    try:
        res = SCENARIOS[cfg["scenario"]].run(cfg, rng)
    except InfeasibleProblem as exc:
        print(f"config error: problem data: {exc}", file=sys.stderr)
        return 2
    failing = sorted({r.name for r in res.reports if not r.passed})
    code = 3 if res.nonconverged else 1 if failing else 0
    _write_outputs(out, cfg, digest, res, code)
    for n in res.notes:
        print(f"note: {n}", file=sys.stderr)
    if failing:
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bridgestab",
        description="Run Schrödinger-bridge experiment batteries from a "
                    "YAML config and write inequality reports.")
    ap.add_argument("--config", type=Path, help="YAML experiment config")
    ap.add_argument("--out", type=Path, default=None,
                    help="output directory (default: config output.dir "
                         "or ./out)")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    ap.add_argument("--list-scenarios", action="store_true",
                    help="print the available scenarios and exit")
    args = ap.parse_args(argv)

    if args.list_scenarios:
        for name, scen in SCENARIOS.items():
            print(f"{name:15s} {scen.description}")
        return 0
    if args.config is None:
        ap.error("--config is required (or use --list-scenarios)")
    try:
        cfg = yaml.safe_load(args.config.read_text())
    except (OSError, yaml.YAMLError) as exc:
        print(f"config error: cannot load {args.config}: {exc}",
              file=sys.stderr)
        return 2
    return run(cfg, out_dir=args.out, seed_override=args.seed)


if __name__ == "__main__":
    sys.exit(main())
