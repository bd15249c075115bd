"""Batch front end: configure, run, and report the experiment batteries.

One declarative YAML config describes a scenario (solver run, stability
battery, small-time curve, ...).  The runner writes, into the output
directory:

* ``report.jsonl``  — one inequality report or table descriptor per line,
  each carrying the config digest; byte-identical across reruns with the
  same config and seed;
* one CSV per result table (curves, battery rows, potentials);
* ``summary.txt``   — a human-readable tally (the only file with a
  timestamp).

Exit codes: 0 all checks pass, 1 at least one inequality fails,
2 configuration error, 3 numerical non-convergence.  When several apply,
2 wins over 3 wins over 1.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
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
from .kernels import GibbsKernel
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

SCENARIOS = {
    "solve": "solve one Schrödinger problem; write potentials and costs",
    "stability": "plan-stability battery over perturbed marginal pairs",
    "cost-stability": "cost-stability battery over perturbed marginal pairs",
    "eot-stability": "quadratic entropic-transport stability battery",
    "corrector": "corrector bounds on random smooth marginal pairs",
    "smalltime": "T·cost against W2²/4 along a decreasing time list",
    "gradient-map": "Schrödinger map against the monotone transport map",
    "interpolate": "entropic interpolation, dynamic cost and decay checks",
    "sobolev": "W2 against the weighted H^{-1} norm on perturbations",
    "orlicz": "exponential-Orlicz identities and log-integrability bounds",
}

_RANDOMIZED = {"stability", "cost-stability", "eot-stability", "corrector",
               "sobolev", "orlicz"}
_NEEDS_1D = {"smalltime", "gradient-map", "sobolev"}


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------

def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _normalize(cfg: dict) -> dict:
    """Fill shape conveniences (scalar bounds/shape in 1D) and defaults."""
    out = json.loads(json.dumps(cfg))  # deep copy, YAML scalars only
    g = out.get("grid")
    if isinstance(g, dict):
        b = g.get("bounds")
        if (isinstance(b, list) and len(b) == 2 and all(_is_num(v) for v in b)):
            g["bounds"] = [b]
        s = g.get("shape")
        if _is_num(s):
            g["shape"] = [int(s)]
    out.setdefault("solver", {})
    if isinstance(out["solver"], dict):
        out["solver"].setdefault("tol", 1e-9)
        out["solver"].setdefault("max_iter", 100_000)
    return out


def _check_marginal(spec, path: str, ndim: int, errs: list[str]):
    if not isinstance(spec, dict) or "family" not in spec:
        errs.append(f"{path}: mapping with a 'family' key required")
        return
    fam = spec["family"]
    if fam == "gaussian":
        if "mean" not in spec or "sigma" not in spec:
            errs.append(f"{path}: gaussian needs 'mean' and 'sigma'")
        elif not _is_num(spec["sigma"]) or spec["sigma"] <= 0:
            errs.append(f"{path}.sigma: positive number required")
    elif fam == "uniform":
        if "lo" not in spec or "hi" not in spec:
            errs.append(f"{path}: uniform needs 'lo' and 'hi'")
    elif fam == "mixture":
        comps = spec.get("components")
        if not isinstance(comps, list) or not comps:
            errs.append(f"{path}.components: nonempty list required")
        else:
            for i, c in enumerate(comps):
                if not isinstance(c, dict) or \
                        not {"weight", "mean", "sigma"} <= set(c):
                    errs.append(f"{path}.components[{i}]: needs "
                                "'weight', 'mean', 'sigma'")
    elif fam == "random":
        pass
    elif fam == "csv":
        if "path" not in spec:
            errs.append(f"{path}: csv needs 'path'")
    else:
        errs.append(f"{path}.family: unknown family {fam!r}")


def validate(cfg) -> list[str]:
    """All violations that make the config unrunnable, with field paths.

    An empty list means the config can run.  Soft conditions (for example a
    kernel bandwidth below the grid resolution) warn at run time and are not
    violations.
    """
    errs: list[str] = []
    if not isinstance(cfg, dict):
        return ["config: top-level mapping required"]
    cfg = _normalize(cfg)
    scen = cfg.get("scenario")
    if scen not in SCENARIOS:
        errs.append(f"scenario: one of {sorted(SCENARIOS)} required, "
                    f"got {scen!r}")
        return errs

    if scen in _RANDOMIZED and not isinstance(cfg.get("seed"), int):
        errs.append("seed: integer seed is mandatory for randomized "
                    f"scenario {scen!r}")
    if "seed" in cfg and not isinstance(cfg["seed"], int):
        errs.append("seed: integer required")

    ndim = 0
    if scen != "orlicz":
        g = cfg.get("grid")
        if not isinstance(g, dict):
            errs.append("grid: mapping with 'bounds' and 'shape' required")
        else:
            b, s = g.get("bounds"), g.get("shape")
            if not (isinstance(b, list) and b and
                    all(isinstance(p, list) and len(p) == 2 and
                        all(_is_num(v) for v in p) and p[0] < p[1]
                        for p in b)):
                errs.append("grid.bounds: list of [lo, hi] pairs with "
                            "lo < hi required")
            if not (isinstance(s, list) and s and
                    all(isinstance(n, int) and n >= 2 for n in s)):
                errs.append("grid.shape: list of integers >= 2 required")
            if isinstance(b, list) and isinstance(s, list) and \
                    len(b) != len(s):
                errs.append("grid: bounds and shape must have equal length")
            elif isinstance(b, list) and len(b) > 2:
                errs.append("grid: at most two dimensions are supported")
            elif isinstance(b, list):
                ndim = len(b)
        if scen in _NEEDS_1D and ndim not in (0, 1):
            errs.append(f"grid: scenario {scen!r} is one-dimensional")

    k = cfg.get("kernel")
    needs_kernel = scen not in {"sobolev", "orlicz"}
    if needs_kernel and not isinstance(k, dict):
        errs.append("kernel: mapping required")
    elif isinstance(k, dict):
        if scen == "eot-stability":
            if not (_is_num(k.get("epsilon")) and k["epsilon"] > 0):
                errs.append("kernel.epsilon: positive number required for "
                            "eot-stability")
        elif scen in {"smalltime", "gradient-map"}:
            if not (_is_num(k.get("kappa")) and k["kappa"] >= 0):
                errs.append("kernel.kappa: number >= 0 required "
                            f"(0 means heat kernel) for {scen}")
        elif needs_kernel:
            kind = k.get("kind")
            if kind not in {"heat", "ou"}:
                errs.append("kernel.kind: 'heat' or 'ou' required")
            if not (_is_num(k.get("T")) and k["T"] > 0):
                errs.append("kernel.T: positive number required")
            if kind == "ou" and not (_is_num(k.get("kappa"))
                                     and k["kappa"] > 0):
                errs.append("kernel.kappa: positive number required when "
                            "kernel.kind is 'ou'")

    needs_marginals = scen in {"solve", "stability", "cost-stability",
                               "eot-stability", "smalltime", "gradient-map",
                               "interpolate"}
    m = cfg.get("marginals")
    if needs_marginals or scen == "sobolev":
        if not isinstance(m, dict):
            errs.append("marginals: mapping with 'mu' (and 'nu') required")
        else:
            _check_marginal(m.get("mu"), "marginals.mu", ndim, errs)
            if scen != "sobolev":
                _check_marginal(m.get("nu"), "marginals.nu", ndim, errs)
            if any(isinstance(v, dict) and v.get("family") == "random"
                   for v in m.values()) and not isinstance(cfg.get("seed"),
                                                           int):
                errs.append("seed: required when a marginal family is "
                            "'random'")

    if scen in {"stability", "cost-stability", "eot-stability"}:
        p = cfg.get("perturbation")
        if not isinstance(p, dict):
            errs.append("perturbation: mapping with 'epsilons' and "
                        "'n_seeds' required")
        else:
            eps = p.get("epsilons")
            if not (isinstance(eps, list) and eps and
                    all(_is_num(e) and 0 < e < 1 for e in eps)):
                errs.append("perturbation.epsilons: list of numbers in "
                            "(0, 1) required")
            if not (isinstance(p.get("n_seeds"), int) and p["n_seeds"] >= 1):
                errs.append("perturbation.n_seeds: integer >= 1 required")

    if scen == "corrector":
        c = cfg.get("corrector", {})
        if not isinstance(c, dict) or \
                not (isinstance(c.get("n_pairs", 1), int)
                     and c.get("n_pairs", 1) >= 1):
            errs.append("corrector.n_pairs: integer >= 1 required")

    for scen_key, key in (("smalltime", "smalltime"),
                          ("gradient-map", "gradient_map")):
        if scen == scen_key:
            sect = cfg.get(key)
            tl = sect.get("T_list") if isinstance(sect, dict) else None
            if not (isinstance(tl, list) and len(tl) >= 2 and
                    all(_is_num(t) and t > 0 for t in tl)):
                errs.append(f"{key}.T_list: list of >= 2 positive times "
                            "required")
            elif any(tl[i + 1] >= tl[i] for i in range(len(tl) - 1)):
                errs.append(f"{key}.T_list: times must decrease strictly "
                            "(the curve checks gaps along T ↓ 0)")

    if scen == "interpolate":
        sect = cfg.get("interpolate", {})
        if isinstance(sect, dict):
            for kk, lo in (("n_times", 2), ("n_slices", 2)):
                if kk in sect and not (isinstance(sect[kk], int)
                                       and sect[kk] >= lo):
                    errs.append(f"interpolate.{kk}: integer >= {lo} required")
        else:
            errs.append("interpolate: mapping expected")

    sv = cfg.get("solver")
    if isinstance(sv, dict):
        if not (_is_num(sv.get("tol", 1e-9)) and sv.get("tol", 1e-9) > 0):
            errs.append("solver.tol: positive number required")
        if not (isinstance(sv.get("max_iter", 1), int)
                and sv.get("max_iter", 1) >= 1):
            errs.append("solver.max_iter: integer >= 1 required")
    elif sv is not None:
        errs.append("solver: mapping expected")
    return errs


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _grid(cfg) -> Grid:
    return Grid.regular(cfg["grid"]["bounds"], cfg["grid"]["shape"])


def _kernel(grid: Grid, k: dict, T: float | None = None) -> GibbsKernel:
    T = k["T"] if T is None else T
    if k.get("kind", "ou" if k.get("kappa") else "heat") == "heat" \
            or not k.get("kappa"):
        return GibbsKernel.heat(grid, T)
    return GibbsKernel.ou(grid, T, k["kappa"])


def _measure(grid: Grid, spec: dict,
             rng: np.random.Generator | None) -> DiscreteMeasure:
    fam = spec["family"]
    if fam == "gaussian":
        return gaussian_measure(grid, spec["mean"], spec["sigma"])
    if fam == "uniform":
        return uniform_measure(grid, spec["lo"], spec["hi"])
    if fam == "mixture":
        comps = [(c["weight"], c["mean"], c["sigma"])
                 for c in spec["components"]]
        return gaussian_mixture_measure(grid, comps)
    if fam == "csv":
        m = measure_from_csv(spec["path"])
        if not m.grid.same_as(grid):
            raise InfeasibleProblem("csv measure lives on a different grid")
        return m
    # random: one draw from the smooth-mixture family
    return random_smooth_pair(grid, rng)[0]


@dataclass
class Table:
    name: str
    header: list[str]
    rows: list[list]


@dataclass
class ScenarioResult:
    reports: list[InequalityReport] = field(default_factory=list)
    tables: list[Table] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    nonconverged: bool = False


def _battery_row(tag: dict, r: InequalityReport) -> list:
    return [*tag.values(), r.name, r.lhs, r.rhs, r.slack, r.relative_slack,
            r.passed, r.vacuous]


_BATTERY_HEADER = ["name", "lhs", "rhs", "slack", "relative_slack",
                   "passed", "vacuous"]


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _run_solve(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    mu = _measure(grid, cfg["marginals"]["mu"], rng)
    nu = _measure(grid, cfg["marginals"]["nu"], rng)
    ker = _kernel(grid, cfg["kernel"])
    sv = cfg["solver"]
    sol = solve(mu, nu, ker, tol=sv["tol"], max_iter=sv["max_iter"])
    if not sol.converged:
        res.nonconverged = True
        res.notes.append(
            f"solve: residual {sol.marginal_residual:.3e} after "
            f"{sol.n_iter} iterations (tol {sv['tol']:.1e})")
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
        "plan_total_mass": sol.log_plan().total_mass(),
        "underresolved": ker.underresolved,
    })
    pts = grid.points()
    coords = [f"x{i}" for i in range(grid.ndim)]
    rows = [[*map(float, pts[i]), float(mu.weights[i]), float(nu.weights[i]),
             float(sol.phi[i]), float(sol.psi[i])]
            for i in range(grid.n_cells)]
    res.tables.append(Table("potentials",
                            [*coords, "mu", "nu", "phi", "psi"], rows))
    return res


def _perturbation_battery(cfg, rng, solve_pair, check) -> ScenarioResult:
    """Shared driver for the stability batteries: solve the base pair, then
    ``n_seeds`` perturbation draws at each ε and ``check`` every converged
    perturbed solution against the base.  ``solve_pair(mu, nu)`` returns a
    solution carrying ``converged``, ``n_iter`` and ``marginal_residual``."""
    res = ScenarioResult()
    grid = _grid(cfg)
    mu = _measure(grid, cfg["marginals"]["mu"], rng)
    nu = _measure(grid, cfg["marginals"]["nu"], rng)
    pert = cfg["perturbation"]
    n_modes = pert.get("n_modes", 3)
    base = solve_pair(mu, nu)
    if not base.converged:
        res.nonconverged = True
        res.notes.append("base problem did not converge; battery skipped")
        return res
    rows = []
    for s in range(pert["n_seeds"]):
        h = smooth_zero_mean_field(grid, mu, rng, n_modes=n_modes)
        k = smooth_zero_mean_field(grid, nu, rng, n_modes=n_modes)
        for eps in pert["epsilons"]:
            tag = {"eps": float(eps), "draw": s}
            pert_sol = solve_pair(perturbed_measure(mu, h, eps),
                                  perturbed_measure(nu, k, eps))
            if not pert_sol.converged:
                res.nonconverged = True
                res.notes.append(
                    f"eps={eps} draw={s}: residual "
                    f"{pert_sol.marginal_residual:.3e} after "
                    f"{pert_sol.n_iter} iterations")
                continue
            for r in check(base, pert_sol):
                res.reports.append(r)
                rows.append(_battery_row(tag, r))
    res.tables.append(Table("battery", ["eps", "draw", *_BATTERY_HEADER],
                            rows))
    return res


def _sp_battery(cfg, rng, check) -> ScenarioResult:
    ker = _kernel(_grid(cfg), cfg["kernel"])
    sv = cfg["solver"]
    return _perturbation_battery(
        cfg, rng, lambda mu, nu: solve(mu, nu, ker, tol=sv["tol"],
                                       max_iter=sv["max_iter"]), check)


def _run_stability(cfg, rng) -> ScenarioResult:
    return _sp_battery(cfg, rng, plan_stability_check)


def _run_cost_stability(cfg, rng) -> ScenarioResult:
    return _sp_battery(cfg, rng, cost_stability_check)


def _run_eot_stability(cfg, rng) -> ScenarioResult:
    eps_reg = cfg["kernel"]["epsilon"]
    sv = cfg["solver"]
    return _perturbation_battery(
        cfg, rng, lambda mu, nu: eot_quadratic_direct(
            mu, nu, eps_reg, tol=sv["tol"], max_iter=sv["max_iter"]),
        quadratic_eot_stability_check)


def _run_corrector(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    ker = _kernel(grid, cfg["kernel"])
    sv = cfg["solver"]
    n_pairs = cfg.get("corrector", {}).get("n_pairs", 20)
    rows = []
    for i in range(n_pairs):
        mu, nu = random_smooth_pair(grid, rng)
        sol = solve(mu, nu, ker, tol=sv["tol"], max_iter=sv["max_iter"])
        if not sol.converged:
            res.nonconverged = True
            res.notes.append(f"pair {i}: residual "
                             f"{sol.marginal_residual:.3e} after "
                             f"{sol.n_iter} iterations")
            continue
        for r in corrector_check(sol).reports:
            res.reports.append(r)
            rows.append(_battery_row({"pair": i}, r))
    res.tables.append(Table("battery", ["pair", *_BATTERY_HEADER], rows))
    return res


def _run_smalltime(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    mu = _measure(grid, cfg["marginals"]["mu"], rng)
    nu = _measure(grid, cfg["marginals"]["nu"], rng)
    sv = cfg["solver"]
    sect = cfg["smalltime"]
    try:
        rows = small_time_cost_curve(mu, nu, sect["T_list"],
                                     kappa=cfg["kernel"].get("kappa", 0.0),
                                     tol=sv["tol"], max_iter=sv["max_iter"])
    except NotConverged as exc:
        res.nonconverged = True
        res.notes.append(str(exc))
        return res
    gaps = [abs(r["rel_gap"]) for r in rows]
    res.reports.append(make_report(
        "smalltime_monotone", max(gaps[i + 1] - gaps[i]
                                  for i in range(len(gaps) - 1)), 0.0,
        tol_abs=0.0, tol_rel=0.0,
        note="successive |relative gap| must not increase along T list"))
    res.reports.append(make_report(
        "smalltime_final_gap", gaps[-1],
        sect.get("max_final_rel_gap", 0.05), tol_abs=0.0, tol_rel=0.0))
    hdr = list(rows[0].keys())
    res.tables.append(Table("smalltime", hdr,
                            [[r[c] for c in hdr] for r in rows]))
    return res


def _run_gradient_map(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    mu = _measure(grid, cfg["marginals"]["mu"], rng)
    nu = _measure(grid, cfg["marginals"]["nu"], rng)
    sv = cfg["solver"]
    sect = cfg["gradient_map"]
    try:
        rows, pairs = gradient_convergence_experiment(
            mu, nu, sect["T_list"], kappa=cfg["kernel"].get("kappa", 0.0),
            tol=sv["tol"], max_iter=sv["max_iter"])
    except NotConverged as exc:
        res.nonconverged = True
        res.notes.append(str(exc))
        return res
    errs = [r["l2_error"] for r in rows]
    res.reports.append(make_report(
        "gradient_map_decreasing",
        max(errs[i + 1] - errs[i] for i in range(len(errs) - 1)), 0.0,
        tol_abs=0.0, tol_rel=0.0,
        note="L²(μ) map error must not increase along T ↓ 0"))
    hdr = list(rows[0].keys())
    res.tables.append(Table("curve", hdr, [[r[c] for c in hdr] for r in rows]))
    last = pairs[-1]
    res.tables.append(Table(
        "maps", ["x", "weight", "schrodinger_map", "brenier_map"],
        [[float(a), float(b), float(c), float(d)]
         for a, b, c, d in zip(last.support_points, last.support_weights,
                               last.schrodinger_map, last.brenier_map)]))
    return res


def _run_interpolate(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    mu = _measure(grid, cfg["marginals"]["mu"], rng)
    nu = _measure(grid, cfg["marginals"]["nu"], rng)
    ker = _kernel(grid, cfg["kernel"])
    sv = cfg["solver"]
    sect = cfg.get("interpolate", {})
    sol = solve(mu, nu, ker, tol=sv["tol"], max_iter=sv["max_iter"])
    if not sol.converged:
        res.nonconverged = True
        res.notes.append(f"residual {sol.marginal_residual:.3e} after "
                         f"{sol.n_iter} iterations")
        return res
    curve = interpolate(sol, n_times=sect.get("n_times", 9))
    pts = grid.points()
    coords = [f"x{i}" for i in range(grid.ndim)]
    rows = []
    for k, t in enumerate(curve.times):
        for i in range(grid.n_cells):
            rows.append([float(t), *map(float, pts[i]),
                         float(curve.densities[k][i])])
    res.tables.append(Table("interpolation", ["t", *coords, "weight"], rows))
    res.records.append({"record": "interpolation_mass",
                        "masses": [float(m) for m in curve.masses]})
    bbs, alpha_rows = dynamic_cost_check(sol,
                                         n_slices=sect.get("n_slices", 64))
    res.reports.append(bbs)
    res.tables.append(Table("dynamic_cost", ["t", "alpha"],
                            [[r["t"], r["alpha"]] for r in alpha_rows]))
    gr, gr_rows = gronwall_decay_check(sol)
    res.reports.append(gr)
    hdr = list(gr_rows[0].keys())
    res.tables.append(Table("gronwall", hdr,
                            [[r[c] for c in hdr] for r in gr_rows]))
    return res


def _run_sobolev(cfg, rng) -> ScenarioResult:
    res = ScenarioResult()
    grid = _grid(cfg)
    sect = cfg.get("sobolev", {})
    n = sect.get("n_instances", 50)
    eps = sect.get("eps", 0.1)
    spec = cfg["marginals"]["mu"]
    fixed = None if spec["family"] == "random" else _measure(grid, spec, rng)
    rows = []
    for i in range(n):
        mu = fixed if fixed is not None else random_smooth_pair(grid, rng)[0]
        h = smooth_zero_mean_field(grid, mu, rng)
        r = w2_h_minus_one_comparison(mu, perturbed_measure(mu, h, eps))
        res.reports.append(r)
        rows.append(_battery_row({"instance": i}, r))
    res.tables.append(Table("battery", ["instance", *_BATTERY_HEADER], rows))
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
    sect = cfg.get("orlicz", {})
    n_inst = sect.get("n_instances", 100)
    n_atoms = sect.get("n_atoms", 16)
    exp_lo = sect.get("exp_lo", 0.5)
    exp_hi = sect.get("exp_hi", 2.0)
    kinds = ("general", "above", "below")
    rows = []
    for i in range(n_inst):
        kind = kinds[i % 3]
        ctx = _orlicz_instance(rng, n_atoms, exp_lo, exp_hi, kind)
        q = np.asarray(ctx.q_weights)
        p = np.asarray(ctx.p_weights)
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
        for r in batch:
            res.reports.append(r)
            rows.append(_battery_row({"instance": i, "kind": kind}, r))
    res.tables.append(Table("battery",
                            ["instance", "kind", *_BATTERY_HEADER], rows))
    return res


_RUNNERS = {
    "solve": _run_solve,
    "stability": _run_stability,
    "cost-stability": _run_cost_stability,
    "eot-stability": _run_eot_stability,
    "corrector": _run_corrector,
    "smalltime": _run_smalltime,
    "gradient-map": _run_gradient_map,
    "interpolate": _run_interpolate,
    "sobolev": _run_sobolev,
    "orlicz": _run_orlicz,
}


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


def _write_outputs(out: Path, cfg: dict, digest: str,
                   res: ScenarioResult, exit_code: int) -> None:
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
        with open(out / path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(t.header)
            for row in t.rows:
                w.writerow([_csv_cell(v) for v in row])
        lines.append(json.dumps(
            {"record": "table", "name": t.name, "path": path,
             "rows": len(t.rows), "inputs_digest": digest}, sort_keys=True))
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
    if seed_override is not None:
        cfg = {**cfg, "seed": seed_override}
    violations = validate(cfg)
    if violations:
        for v in violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    cfg = _normalize(cfg)
    out = Path(out_dir) if out_dir is not None \
        else Path(cfg.get("output", {}).get("dir", "out"))
    digest = config_digest(cfg)
    rng = np.random.default_rng(cfg.get("seed", 0))
    try:
        res = _RUNNERS[cfg["scenario"]](cfg, rng)
    except InfeasibleProblem as exc:
        print(f"config error: problem data: {exc}", file=sys.stderr)
        return 2
    if res.nonconverged:
        code = 3
    elif any(not r.passed for r in res.reports):
        code = 1
    else:
        code = 0
    _write_outputs(out, cfg, digest, res, code)
    for n in res.notes:
        print(f"note: {n}", file=sys.stderr)
    failing = [r.name for r in res.reports if not r.passed]
    if failing:
        print(f"failing checks: {', '.join(sorted(set(failing)))}",
              file=sys.stderr)
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
        for name, desc in SCENARIOS.items():
            print(f"{name:15s} {desc}")
        return 0
    if args.config is None:
        ap.error("--config is required (or use --list-scenarios)")
    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}",
              file=sys.stderr)
        return 2
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        print(f"config error: invalid YAML: {exc}", file=sys.stderr)
        return 2
    return run(cfg, out_dir=args.out, seed_override=args.seed)


if __name__ == "__main__":
    sys.exit(main())
