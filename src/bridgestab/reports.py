"""Inequality reports: the one record type every diagnostic emits.

A report says "lhs ≤ rhs held (or not) with this much slack".  Two pass
rules exist: the default inequality rule

    pass  ⇔  lhs ≤ rhs + tol_abs + tol_rel·|rhs|

and an equality rule (|a - b| small relative to scale) used for identities.
A report whose rhs is +inf is *vacuous*: it cannot fail, but it is flagged
and never counted as evidence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

DEFAULT_TOL_ABS = 1e-8
DEFAULT_TOL_REL = 1e-4


@dataclass
class InequalityReport:
    """Outcome of one checked inequality or identity."""

    name: str
    lhs: float
    rhs: float
    slack: float
    relative_slack: float
    passed: bool
    vacuous: bool = False
    note: str = ""
    inputs_digest: str = ""
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        for k in ("lhs", "rhs", "slack", "relative_slack"):
            v = d[k]
            if isinstance(v, float) and not math.isfinite(v):
                d[k] = repr(v)  # 'inf' / 'nan' survive JSON round trips
        d["extras"] = {k: (repr(v) if isinstance(v, float)
                           and not math.isfinite(v) else v)
                       for k, v in d["extras"].items()}
        return d


def make_report(name: str, lhs: float, rhs: float,
                tol_abs: float = DEFAULT_TOL_ABS,
                tol_rel: float = DEFAULT_TOL_REL,
                note: str = "", extras: dict | None = None
                ) -> InequalityReport:
    """Report for lhs ≤ rhs under the additive/relative tolerance rule."""
    lhs = float(lhs)
    rhs = float(rhs)
    vacuous = math.isinf(rhs) and rhs > 0
    slack = rhs - lhs
    rel = slack / abs(rhs) if rhs not in (0.0, math.inf, -math.inf) \
        else (math.inf if vacuous else slack)
    passed = bool(vacuous or lhs <= rhs + tol_abs + tol_rel * abs(rhs))
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, slack=slack,
                            relative_slack=rel, passed=passed,
                            vacuous=vacuous, note=note,
                            extras=dict(extras or {}))


def make_equality_report(name: str, lhs: float, rhs: float,
                         rel_tol: float, abs_tol: float = 0.0,
                         note: str = "", extras: dict | None = None
                         ) -> InequalityReport:
    """Report for |lhs - rhs| ≤ abs_tol + rel_tol·max(|lhs|, |rhs|)."""
    lhs = float(lhs)
    rhs = float(rhs)
    gap = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    passed = bool(gap <= abs_tol + rel_tol * scale)
    rel = gap / scale if scale > 0 else 0.0
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, slack=rhs - lhs,
                            relative_slack=rel, passed=passed, vacuous=False,
                            note=note, extras=dict(extras or {}))


def cross_check_rhs(rhs_fast: float, terms: dict[str, float],
                    context: str) -> float:
    """Guard against formula drift: an independently assembled sum of named
    terms must reproduce the vectorized rhs to 1e-10 (absolute, scaled)."""
    rhs_slow = math.fsum(terms.values())
    if math.isinf(rhs_fast) or math.isinf(rhs_slow):
        if rhs_fast != rhs_slow:
            raise AssertionError(
                f"{context}: rhs assemblies disagree ({rhs_fast} vs {rhs_slow})")
        return rhs_fast
    if abs(rhs_fast - rhs_slow) > 1e-10 * max(1.0, abs(rhs_fast)):
        raise AssertionError(
            f"{context}: rhs assemblies disagree "
            f"({rhs_fast!r} vs {rhs_slow!r}, terms {terms})")
    return rhs_fast
