"""Independent reference values for checking the program's outputs.

Nothing here imports the program.  For each instance document:

* objective: the optimal dispatch cost from a scipy HiGHS MILP that picks
  one feasible status vector per unit (as a count of units per vector for
  identical units) and continuous outputs inside the committed boxes;
* exact_dual and exact_price: the maximum of the Lagrangian dual, from the
  dual LP of convex-hull pricing (Gribik, Hogan & Pope 2007)

      max  q'd - sum_i z_i
      s.t. z_i >= sum_{t in w} y_it - S_i starts(w)   every feasible w of unit i
           y_it >= (q_t - c_i) g                       g in {g_min_i, g_max_i}

  with identical units sharing one z.  exact_dual is the dual function
  evaluated at the LP's price, so it is a true dual value.

Run as a script it reads instance documents and writes their references:

    python3 perfbench/oracles.py IN.json OUT.json

after running `self_check`, which must reproduce the known exact duals.
It exits 1 without writing OUT when the self-check fails.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

# Exact Lagrangian dual maxima of the Scarf market at these demands.  The
# multi-period values are the ones the program's subgradient misses.
KNOWN_DUALS = (
    ((10.0,), 62.857143),
    ((40.0,), 251.5625),
    ((10.0, 20.0), 145.714286),
    ((10.0, 20.0, 30.0, 40.0), 371.5625),
)
KNOWN_TOL = 1e-6
SCAN_TOL = 1e-12

_SCARF_TYPES = (
    ("Smokestack", 6, 0.0, 16.0, 3.0, 53.0),
    ("High Tech", 5, 0.0, 7.0, 2.0, 30.0),
    ("Med Tech", 5, 2.0, 6.0, 7.0, 0.0),
)


def scarf_doc(demand) -> dict:
    """Instance document of the Scarf market over the given demand vector."""
    return {
        "periods": len(demand),
        "demand": list(demand),
        "unit_types": [
            {"name": n, "count": c, "g_min": lo, "g_max": hi,
             "marginal_cost": mc, "startup_cost": s}
            for n, c, lo, hi, mc, s in _SCARF_TYPES
        ],
    }


def unit_groups(doc: dict) -> list[tuple[dict, int]]:
    """(unit parameters, count) per distinct parameter set, in document order."""
    groups: dict[tuple, list] = {}
    for spec in doc["unit_types"]:
        params = {
            "g_min": float(spec["g_min"]),
            "g_max": float(spec["g_max"]),
            "c": float(spec["marginal_cost"]),
            "S": float(spec["startup_cost"]),
            "init": int(spec.get("initial_status", 0)),
            "min_up": int(spec.get("min_up", 0)),
            "min_down": int(spec.get("min_down", 0)),
        }
        key = tuple(sorted(params.items()))
        count = 1 if "id" in spec else int(spec.get("count", 1))
        groups.setdefault(key, [params, 0])[1] += count
    return [(p, n) for p, n in groups.values()]


def _feasible(params: dict, w: tuple[int, ...]) -> bool:
    # A run continuing the initial status, or cut off by the horizon end,
    # is always allowed; any other run must last min_up (on) or min_down
    # (off) periods.
    T = len(w)
    start = 0
    while start < T:
        end = start
        while end < T and w[end] == w[start]:
            end += 1
        continued = start == 0 and w[start] == params["init"]
        if not continued and end < T:
            need = params["min_up"] if w[start] == 1 else params["min_down"]
            if end - start < need:
                return False
        start = end
    return True


def status_vectors(params: dict, periods: int) -> list[tuple[int, ...]]:
    return [w for w in itertools.product((0, 1), repeat=periods) if _feasible(params, w)]


def starts(params: dict, w: tuple[int, ...]) -> int:
    prev, n = params["init"], 0
    for b in w:
        n += b == 1 and prev == 0
        prev = b
    return n


def dispatch_objective(doc: dict) -> float:
    """Optimal total cost from the MILP over status vectors.

    Identical units are interchangeable, so per parameter group the MILP
    picks how many units take each feasible status vector (an integer
    count in [0, group size]); a singleton group is a binary choice of one
    vector.  The group's output in a period is bounded by the summed boxes
    of its online units.
    """
    T = int(doc["periods"])
    demand = [float(d) for d in doc["demand"]]
    groups = unit_groups(doc)
    cost: list[float] = []
    upper_bounds: list[float] = []
    n_index: list[list[tuple[int, tuple[int, ...]]]] = []
    for p, n in groups:
        cols = []
        for w in status_vectors(p, T):
            cols.append((len(cost), w))
            cost.append(p["S"] * starts(p, w))
            upper_bounds.append(n)
        n_index.append(cols)
    g0 = len(cost)
    for p, n in groups:
        cost.extend([p["c"]] * T)
        upper_bounds.extend([n * p["g_max"]] * T)
    nvar = len(cost)
    integrality = [1] * g0 + [0] * (nvar - g0)
    rows, lo, hi = [], [], []
    for k, cols in enumerate(n_index):
        p, n = groups[k]
        row = np.zeros(nvar)
        for j, _ in cols:
            row[j] = 1.0
        rows.append(row); lo.append(n); hi.append(n)
        for t in range(T):
            on = [j for j, w in cols if w[t] == 1]
            g = g0 + k * T + t
            upper = np.zeros(nvar); upper[g] = 1.0; upper[on] = -p["g_max"]
            lower = np.zeros(nvar); lower[g] = 1.0; lower[on] = -p["g_min"]
            rows += [upper, lower]; lo += [-np.inf, 0.0]; hi += [0.0, np.inf]
    for t in range(T):
        row = np.zeros(nvar)
        row[[g0 + k * T + t for k in range(len(groups))]] = 1.0
        rows.append(row); lo.append(demand[t]); hi.append(demand[t])
    res = milp(
        np.array(cost),
        constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=np.array(integrality),
        bounds=Bounds(np.zeros(nvar), np.array(upper_bounds)),
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"dispatch MILP failed: {res.message}")
    return float(res.fun)


def dual_value(doc: dict, q) -> float:
    """Lagrangian dual at price q: revenue of demand minus every unit's
    best profit over its feasible status vectors and box outputs."""
    T = int(doc["periods"])
    value = sum(qt * float(d) for qt, d in zip(q, doc["demand"]))
    for p, n in unit_groups(doc):
        best_margin = [max((qt - p["c"]) * p["g_min"], (qt - p["c"]) * p["g_max"]) for qt in q]
        best = max(
            sum(m for m, b in zip(best_margin, w) if b) - p["S"] * starts(p, w)
            for w in status_vectors(p, T)
        )
        value -= n * best
    return value


def exact_hull_price(doc: dict) -> tuple[float, list[float]]:
    """(exact dual maximum, maximising price) from the dual LP."""
    T = int(doc["periods"])
    demand = [float(d) for d in doc["demand"]]
    groups = unit_groups(doc)
    K = len(groups)
    # variables: q_0..q_{T-1}, then z_k, then y_kt
    nq, nz = T, K
    nvar = nq + nz + K * T
    c = np.zeros(nvar)
    c[:T] = -np.array(demand)
    for k, (_, n) in enumerate(groups):
        c[nq + k] = n
    rows, rhs = [], []
    for k, (p, _) in enumerate(groups):
        for w in status_vectors(p, T):
            # sum_{t in w} y_kt - z_k <= S starts(w)
            row = np.zeros(nvar)
            row[nq + k] = -1.0
            for t in range(T):
                if w[t]:
                    row[nq + nz + k * T + t] = 1.0
            rows.append(row); rhs.append(p["S"] * starts(p, w))
        for t in range(T):
            for g in {p["g_min"], p["g_max"]}:
                # (q_t - c) g - y_kt <= 0
                row = np.zeros(nvar)
                row[t] = g
                row[nq + nz + k * T + t] = -1.0
                rows.append(row); rhs.append(p["c"] * g)
    res = linprog(
        c, A_ub=np.array(rows), b_ub=np.array(rhs),
        bounds=[(None, None)] * nvar, method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"dual LP failed: {res.message}")
    q = [float(v) for v in res.x[:T]]
    return dual_value(doc, q), q


def breakpoint_scan(doc: dict) -> float:
    """Single-period dual maximum: the dual is concave piecewise linear in
    the price with kinks at marginal costs and full-output average costs."""
    candidates = {0.0}
    for p, _ in unit_groups(doc):
        candidates.add(p["c"])
        if p["g_max"] > 0:
            candidates.add(p["c"] + p["S"] / p["g_max"])
    return max(dual_value(doc, (q,)) for q in candidates)


def self_check(single_period_docs=()) -> list[str]:
    """Problems found; empty when the LP reproduces the known exact duals
    and matches the breakpoint scan on every single-period document."""
    problems = []
    for demand, expected in KNOWN_DUALS:
        got, _ = exact_hull_price(scarf_doc(demand))
        if abs(got - expected) > KNOWN_TOL:
            problems.append(f"Scarf {list(demand)}: dual LP gives {got!r}, expected {expected}")
    for doc in (scarf_doc((10.0,)), scarf_doc((40.0,))) + tuple(single_period_docs):
        lp, _ = exact_hull_price(doc)
        scan = breakpoint_scan(doc)
        if abs(lp - scan) > SCAN_TOL * max(1.0, abs(scan)):
            problems.append(f"demand {doc['demand']}: dual LP {lp!r} vs breakpoint scan {scan!r}")
    return problems


def references(doc: dict) -> dict:
    exact, q = exact_hull_price(doc)
    return {"objective": dispatch_objective(doc), "exact_dual": exact, "exact_price": q}


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: oracles.py IN.json OUT.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        docs = json.load(fh)
    problems = self_check(d for d in docs if int(d["periods"]) == 1)
    if problems:
        for line in problems:
            print(f"oracle self-check failed: {line}", file=sys.stderr)
        return 1
    out = [references(doc) for doc in docs]
    with open(argv[1], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
