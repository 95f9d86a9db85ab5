"""Seeded workload generation.

Each workload is a request list: every request is one `uplift-zero` argv
list over an instance file.  Everything here is a pure function of the
workload name and the seed, so the same seed gives byte-identical instance
files and argv lists.  The program under test only ever sees the files.

Why each workload exists, and which metrics it is predicted to leave
alone, is written down in perfbench/README.md.
"""

from __future__ import annotations

import itertools
import json
import os
import random

SCARF_TYPES = (
    {"name": "Smokestack", "g_min": 0.0, "g_max": 16.0,
     "marginal_cost": 3.0, "startup_cost": 53.0},
    {"name": "High Tech", "g_min": 0.0, "g_max": 7.0,
     "marginal_cost": 2.0, "startup_cost": 30.0},
    {"name": "Med Tech", "g_min": 2.0, "g_max": 6.0,
     "marginal_cost": 7.0, "startup_cost": 0.0},
)
SCARF_COUNTS = (6, 5, 5)
SCARF_CAPACITY = sum(t["g_max"] * n for t, n in zip(SCARF_TYPES, SCARF_COUNTS))

# (family, formulation, price method) triples that apply and verify on the
# Scarf market.  Status families need marginal prices; linear-unit and the
# status families are defined on status and output only.
SCARF_T1_COMBOS = (
    ("uplift-delta", "xu", "chp"),
    ("constant-profit", "xu", "chp"),
    ("general-form", "xu", "chp"),
    ("linear-unit", "xu", "chp"),
    ("convex-hull", "xu", "chp"),
    ("uplift-delta", "g", "chp"),
    ("constant-profit", "g", "chp"),
    ("general-form", "g", "chp"),
    ("convex-hull", "g", "chp"),
    ("status-delta", "xu", "marginal"),
    ("status-profile", "xu", "marginal"),
    ("linear-unit", "xu", "marginal"),
    ("convex-hull", "xu", "marginal"),
)

# families that run over more than one period
SCARF_T2_COMBOS = (
    ("uplift-delta", "xu", "chp"),
    ("constant-profit", "xu", "chp"),
    ("general-form", "xu", "chp"),
    ("uplift-delta", "g", "chp"),
    ("constant-profit", "g", "chp"),
    ("general-form", "g", "chp"),
    ("status-delta", "xu", "marginal"),
    ("status-profile", "xu", "marginal"),
    ("uplift-delta", "xu", "marginal"),
)

# (periods, units) shapes of hetero-uplift, visited in this order.  Their
# request times differ by shape (about 0.1, 0.3, 0.5 and 0.6 s for 6, 12,
# 7 and 13 units); with 12 units twice in five, the median request falls
# inside one shape's range instead of in the gap between two.
HETERO_SHAPES = ((1, 12), (2, 6), (1, 12), (1, 13), (2, 7))

# distinct instances per workload; requests cycle through them
POOL_SIZE = {"scarf-t1": 128, "scarf-t2": 108, "hetero-uplift": 130}

WORKLOADS = tuple(POOL_SIZE)


def _stratified(rng: random.Random, n: int, hi: float) -> list[float]:
    """n values in (0, hi], one from each of n equal strata, in seeded order.
    One value per stratum keeps the mix of easy and hard demands the same
    from seed to seed."""
    values = [max(round(hi * (k + 1.0 - rng.random()) / n, 3), 0.001) for k in range(n)]
    rng.shuffle(values)
    return values


def _scarf_doc(counts, demand) -> dict:
    types = [dict(t, count=n) for t, n in zip(SCARF_TYPES, counts)]
    return {"periods": len(demand), "demand": list(demand), "unit_types": types}


def _report_argv(family: str, formulation: str, method: str) -> list[str]:
    return ["report", "--family", family, "--formulation", formulation,
            "--price-method", method, "--json"]


def _scarf_t1(rng: random.Random) -> tuple[list[dict], list[tuple[int, list[str]]]]:
    n = POOL_SIZE["scarf-t1"]
    docs = [_scarf_doc(SCARF_COUNTS, [d]) for d in _stratified(rng, n, SCARF_CAPACITY)]
    combos = len(SCARF_T1_COMBOS)
    # n and the combo count are coprime, so every (instance, combo) pair
    # appears once in n * combos requests
    requests = [(j % n, _report_argv(*SCARF_T1_COMBOS[j % combos])) for j in range(n * combos)]
    return docs, requests


def _scarf_t2(rng: random.Random) -> tuple[list[dict], list[tuple[int, list[str]]]]:
    # A run holds only a few dozen of these requests, so the mix is fixed
    # by design rather than left to chance.  Instance k is first requested
    # with combo k % 9, so each group of 9 instances meets every combo once.
    # The 27 shapes (units per type), ranked by unit count, form 9 tiers of
    # 3; each group takes one shape from every tier, so every group has the
    # same spread of sizes, and each block of 3 groups has every shape once.
    # In each group one chp-priced instance, always from the middle tier
    # (6 units), has a near-capacity demand: a share of capacity in
    # [0.95, 1] in one period, where the subgradient price runs to its
    # iteration cap.  All other demand shares are stratified over (0, 0.8];
    # shares in between hit or miss that cap by chance, which no run of
    # this length could average out.
    shapes = sorted(itertools.product((1, 2, 3), repeat=3), key=lambda c: (sum(c), c))
    combos = len(SCARF_T2_COMBOS)
    tiers = [shapes[i:i + 3] for i in range(0, len(shapes), 3)]
    middle = len(tiers) // 2
    chp = [c for c, combo in enumerate(SCARF_T2_COMBOS) if combo[2] == "chp"]
    docs = []
    for _ in range(POOL_SIZE["scarf-t2"] // len(shapes)):
        picks = [rng.sample(tier, len(tier)) for tier in tiers]
        moderate = [_stratified(rng, len(shapes), 0.8) for _ in range(2)]
        for g in range(len(shapes) // combos):
            peak = rng.choice(chp)
            others = [picks[t][g] for t in range(len(tiers)) if t != middle]
            rng.shuffle(others)
            others.insert(peak, picks[middle][g])
            for pos, counts in enumerate(others):
                k = len(docs) % len(shapes)
                shares = [moderate[0][k], moderate[1][k]]
                if pos == peak:
                    shares[rng.randrange(2)] = round(rng.uniform(0.95, 1.0), 3)
                cap = sum(t["g_max"] * c for t, c in zip(SCARF_TYPES, counts))
                docs.append(_scarf_doc(counts, [max(round(cap * x, 3), 0.001) for x in shares]))
    # shift the combo by one each pass over the pool, so every (instance,
    # combo) pair appears within 9 passes
    n = len(docs)
    requests = [
        (j % n, _report_argv(*SCARF_T2_COMBOS[(j + j // n) % combos]))
        for j in range(n * combos)
    ]
    return docs, requests


def _hetero_unit(rng: random.Random, k: int, g_min_zero: bool, min_up_down: bool) -> dict:
    g_min = 0.0 if g_min_zero else round(rng.uniform(0.5, 4.0), 2)
    unit = {
        "id": f"U{k:02d}",
        "g_min": g_min,
        "g_max": round(g_min + rng.uniform(3.0, 15.0), 2),
        "marginal_cost": round(rng.uniform(1.0, 10.0), 2),
        "startup_cost": round(rng.uniform(0.0, 60.0), 2),
    }
    if min_up_down:
        unit["min_up"] = 2
        unit["min_down"] = 2
    return unit


def _feasible_vectors(unit: dict, periods: int) -> list[tuple[int, ...]]:
    # units start offline; a run of 1s that the horizon does not cut off
    # must last min_up periods (the model's rule, restated for T <= 2)
    out = []
    for u in itertools.product((0, 1), repeat=periods):
        if periods == 2 and u == (1, 0) and unit.get("min_up", 0) > 1:
            continue
        out.append(u)
    return out


def _hetero_doc(rng: random.Random, periods: int, n_units: int) -> dict:
    # The request's cost follows the number of commitment profiles and how
    # many of them can meet demand, so those are fixed per shape and only
    # the parameters vary: two in five units have g_min = 0, a third of the
    # units of a two-period instance have min up/down times of 2, and half
    # the units are online in every period of the commitment that sets the
    # demand.
    zero = set(rng.sample(range(n_units), (2 * n_units) // 5))
    slow = set(rng.sample(range(n_units), n_units // 3)) if periods > 1 else set()
    while True:
        units = [_hetero_unit(rng, k + 1, k in zero, k in slow) for k in range(n_units)]
        params = {tuple(v for key, v in sorted(u.items()) if key != "id") for u in units}
        if len(params) == n_units:
            break
    # demand lies strictly inside the output window of that commitment, so
    # every instance is feasible and rounding cannot push it out
    while True:
        commitment = [rng.choice(_feasible_vectors(unit, periods)) for unit in units]
        if all(sum(u[t] for u in commitment) == n_units // 2 for t in range(periods)):
            break
    demand = [0.0] * periods
    for unit, u in zip(units, commitment):
        for t in range(periods):
            if u[t]:
                share = rng.uniform(0.05, 0.95)
                demand[t] += unit["g_min"] + share * (unit["g_max"] - unit["g_min"])
    return {"periods": periods, "demand": [round(d, 3) for d in demand], "unit_types": units}


def _hetero_uplift(rng: random.Random) -> tuple[list[dict], list[tuple[int, list[str]]]]:
    n = POOL_SIZE["hetero-uplift"]
    docs = [_hetero_doc(rng, *HETERO_SHAPES[k % len(HETERO_SHAPES)]) for k in range(n)]
    # Single-period instances take chp and marginal in turn, from one pass
    # over the pool to the next.  Two-period instances take marginal only:
    # their chp price is the subgradient, which runs into its 10,000
    # iteration cap (4-5 s instead of 0.5 s) on about one request in
    # twelve, at random, and that alone moved a run's throughput by a
    # sixth from seed to seed.  scarf-t2 measures it instead.
    requests = []
    for j in range(2 * n):
        k = j % n
        chp = docs[k]["periods"] == 1 and (k + j // n) % 2 == 0
        requests.append((k, ["uplift", "--price-method", "chp" if chp else "marginal", "--json"]))
    return docs, requests


_GENERATORS = {"scarf-t1": _scarf_t1, "scarf-t2": _scarf_t2, "hetero-uplift": _hetero_uplift}


def generate(workload: str, seed: int) -> tuple[list[dict], list[tuple[int, list[str]]]]:
    """Instance documents and (instance index, argv without the file) pairs."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def instance_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"instance-{index:04d}.json")


def write_instances(directory: str, docs: list[dict]) -> list[str]:
    """Write one JSON file per instance; returns the paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k, doc in enumerate(docs):
        path = instance_path(directory, k)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def argv_lists(paths: list[str], requests: list[tuple[int, list[str]]]) -> list[list[str]]:
    """Full argv per request: the subcommand, then the instance file, then flags."""
    return [[argv[0], paths[k]] + argv[1:] for k, argv in requests]
