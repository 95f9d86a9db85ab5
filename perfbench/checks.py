"""Output checks against the oracle references.

Each check takes one request's exit code and standard output, the instance
document and its references from oracles.py, and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json

OBJECTIVE_RTOL = 1e-6   # the MILP solves to HiGHS' feasibility tolerance
SUM_RTOL = 1e-9


def unit_count(doc: dict) -> int:
    return sum(1 if "id" in spec else int(spec.get("count", 1)) for spec in doc["unit_types"])


def opt_tol(doc: dict) -> float:
    return float(doc.get("tolerances", {}).get("opt_tol", 1e-6))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_report(payload: dict, doc: dict, ref: dict) -> list[str]:
    problems = []
    if not _close(payload["objective"], ref["objective"], OBJECTIVE_RTOL):
        problems.append(f"objective {payload['objective']!r} != MILP {ref['objective']!r}")
    if payload["verified"] is not True:
        problems.append("report is not verified")
    limit = unit_count(doc) * opt_tol(doc)
    if not payload["uplift_after"] <= limit:
        problems.append(f"uplift after amendment {payload['uplift_after']!r} > {limit!r}")
    return problems


def check_uplift(payload: dict, doc: dict, ref: dict) -> list[str]:
    problems = []
    rows = payload["units"]
    negative = [r["unit_id"] for r in rows if not r["uplift"] >= 0.0]
    if negative:
        problems.append(f"negative uplift for {negative}")
    total = sum(r["uplift"] for r in rows)
    if not _close(total, payload["total"], SUM_RTOL):
        problems.append(f"uplift rows sum to {total!r}, table total {payload['total']!r}")
    # every unit's dispatched profit is p'g - cost and the outputs meet
    # demand, so the dispatch cost is p'd minus the summed profits
    revenue = sum(p * float(d) for p, d in zip(payload["price"], doc["demand"]))
    objective = revenue - sum(r["pi_star"] for r in rows)
    if not _close(objective, ref["objective"], OBJECTIVE_RTOL):
        problems.append(f"objective implied by the table {objective!r} != MILP {ref['objective']!r}")
    return problems


def reported_dual(command: str, payload: dict, doc: dict) -> float:
    """The Lagrangian dual value the output states or implies."""
    if command == "report":
        return float(payload["dual_value"])
    revenue = sum(p * float(d) for p, d in zip(payload["price"], doc["demand"]))
    return revenue - sum(r["pi_plus"] for r in payload["units"])


_CHECKS = {"report": check_report, "uplift": check_uplift}


def check_output(argv: list[str], rc, stdout: str, doc: dict, ref: dict) -> tuple[list[str], float | None]:
    """(problems, relative dual gap or None when the request is not chp-priced)."""
    if rc != 0:
        return [f"exit code {rc!r}"], None
    try:
        payload = json.loads(stdout)
        problems = _CHECKS[argv[0]](payload, doc, ref)
        gap = None
        if argv[argv.index("--price-method") + 1] == "chp":
            exact = ref["exact_dual"]
            gap = (exact - reported_dual(argv[0], payload, doc)) / max(1.0, abs(exact))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"], None
    return problems, gap
