"""Correctness gate for one pass over a workload's configs.

A pass is correct when every config exits with code 0, `report.jsonl`
holds exactly the expected report names and counts, every report passed
with a finite lhs and rhs, every solve converged, the number of solver
calls is the expected one, and each lhs and rhs is within REL_TOL (plus
ABS_TOL) of the reference value recorded in `refs/<workload>.json` for the
seed.  REL_TOL leaves room for the ~5e-4 relative correction that exact
Ḣ⁻¹ solves will bring to the stability right-hand sides.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

REL_TOL = 2e-3
ABS_TOL = 1e-9
REFS = Path(__file__).resolve().parent / "refs"

_PAIR_REPORTS = {
    "stability": ("stab_plans", "stab_plans_fisher"),
    "cost-stability": ("stab_cost", "stab_cost_fisher"),
    "eot-stability": ("eot_cost_stab", "eot_plan_stab"),
}


def expected(cfg: dict) -> tuple[Counter, int]:
    """(report name -> count, number of solver calls) for one config."""
    scen = cfg["scenario"]
    if scen in _PAIR_REPORTS:
        p = cfg["perturbation"]
        pairs = p["n_seeds"] * len(p["epsilons"])
        return Counter({n: pairs for n in _PAIR_REPORTS[scen]}), 1 + pairs
    if scen == "sobolev":
        return Counter({"w2_vs_hminus1": cfg["sobolev"]["n_instances"]}), 0
    if scen == "smalltime":
        return (Counter({"smalltime_monotone": 1, "smalltime_final_gap": 1}),
                len(cfg["smalltime"]["T_list"]))
    if scen == "gradient-map":
        return (Counter({"gradient_map_decreasing": 1}),
                len(cfg["gradient_map"]["T_list"]))
    if scen == "corrector":
        n = cfg["corrector"]["n_pairs"]
        return Counter({"corrector_nu": n, "corrector_mu": n}), n
    if scen == "interpolate":
        return Counter({"bbs_identity": 1, "gronwall_decay": 1}), 1
    raise ValueError(f"no expectation for scenario {scen!r}")


def reports(report_jsonl: bytes) -> list[dict]:
    """The inequality reports of one `report.jsonl`, in file order."""
    out = []
    for line in report_jsonl.decode().splitlines():
        rec = json.loads(line)
        if rec.get("record") == "report":
            out.append(rec)
    return out


def values(report_jsonl: bytes) -> list[list[float]]:
    """[lhs, rhs] of every report, as floats ('inf' strings become inf)."""
    return [[float(r["lhs"]), float(r["rhs"])]
            for r in reports(report_jsonl)]


def load_refs(workload: str, seed: int) -> list | None:
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def check_config(cfg: dict, code: int, report_jsonl: bytes | None,
                 solver_calls: int, nonconverged: int,
                 ref: list | None) -> list[str]:
    """Every violation of the gate for one config run (empty: correct)."""
    tag = cfg["scenario"]
    errs = []
    if code != 0:
        errs.append(f"{tag}: exit code {code}")
    if report_jsonl is None:
        return errs + [f"{tag}: no report.jsonl"]
    reps = reports(report_jsonl)
    want_names, want_solves = expected(cfg)
    got_names = Counter(r["name"] for r in reps)
    if got_names != want_names:
        errs.append(f"{tag}: reports {dict(got_names)}, "
                    f"expected {dict(want_names)}")
    if solver_calls != want_solves:
        errs.append(f"{tag}: {solver_calls} solver calls, "
                    f"expected {want_solves}")
    if nonconverged:
        errs.append(f"{tag}: {nonconverged} solves did not converge")
    for i, r in enumerate(reps):
        lhs, rhs = float(r["lhs"]), float(r["rhs"])
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            errs.append(f"{tag}[{i}] {r['name']}: lhs {lhs} rhs {rhs} "
                        "not finite")
        if not r["passed"] or r["vacuous"]:
            errs.append(f"{tag}[{i}] {r['name']}: did not pass")
    if ref is not None:
        got = values(report_jsonl)
        if len(got) != len(ref):
            errs.append(f"{tag}: {len(got)} reports, reference has "
                        f"{len(ref)}")
        for i, (pair, ref_pair) in enumerate(zip(got, ref)):
            for side, x, x_ref in zip(("lhs", "rhs"), pair, ref_pair):
                if not abs(x - x_ref) <= REL_TOL * abs(x_ref) + ABS_TOL:
                    errs.append(f"{tag}[{i}] {side} {x!r} differs from "
                                f"reference {x_ref!r}")
    return errs


def round_ref(x: float) -> float:
    """Reference values keep 10 significant digits (far below REL_TOL)."""
    return float(f"{x:.10g}")
