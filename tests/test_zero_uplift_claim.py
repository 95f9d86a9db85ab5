"""The paper's claim on a seeded pool of small markets: every family, in
both formulations and at both prices, either refuses by its precondition
or leaves zero total uplift with every unit's contract verified."""

import random

from uplift_zero import (
    Formulation,
    MarketInstance,
    PreconditionError,
    UnitParams,
    build_family,
    check_zero_total_uplift,
    price_for_method,
    solve_centralized,
)
from uplift_zero.amendments import FAMILIES
from uplift_zero.model import feasible_status_vectors

POOL = 50


def small_market(rng: random.Random) -> MarketInstance:
    """Two to four units over one or two periods, each of one of three
    kinds: zero minimum without a startup cost, cheap with a startup cost
    of 10 to 60, or a minimum of at least 1.  Demand is met by a random
    feasible commitment."""
    periods = 2 if rng.random() < 0.2 else 1
    units = []
    for k in range(rng.randint(2, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            g_min, c, w = 0.0, round(rng.uniform(1.0, 6.0), 2), 0.0
        elif kind == 1:
            g_min, c, w = 0.0, round(rng.uniform(0.0, 2.0), 2), round(rng.uniform(10.0, 60.0), 1)
        else:
            g_min = round(rng.uniform(1.0, 3.0), 2)
            c = round(rng.uniform(2.0, 8.0), 2)
            w = rng.choice((0.0, round(rng.uniform(1.0, 20.0), 1)))
        g_max = g_min + rng.choice((1.0, round(rng.uniform(1.0, 10.0), 1)))
        units.append(UnitParams(f"U{k + 1}", g_min, g_max, c, w))
    demand = [0.0] * periods
    for unit in units:
        u = rng.choice(feasible_status_vectors(unit, periods))
        for t in range(periods):
            if u[t]:
                inside = round(rng.uniform(unit.g_min, unit.g_max), 2)
                demand[t] += rng.choice((unit.g_min, unit.g_max, inside))
    return MarketInstance(periods, tuple(demand), tuple(units))


def test_every_family_refuses_or_removes_all_uplift():
    rng = random.Random(2019)
    failures = []
    for n in range(POOL):
        instance = small_market(rng)
        x_star = solve_centralized(instance).schedule
        for method in ("chp", "marginal"):
            p = price_for_method(instance, method, x_star).price
            for family in FAMILIES:
                for formulation in Formulation:
                    try:
                        bundles = build_family(family, instance, p, x_star, formulation)
                    except PreconditionError:
                        continue
                    market = check_zero_total_uplift(instance, p, bundles, x_star)
                    failed = [f"{uid}: {c.condition}" for uid, rep in market.units.items()
                              for c in rep.failures()]
                    failed += [f"market: {c.condition}" for c in market.failures()]
                    if failed:
                        failures.append((n, method, family, formulation.value, instance, failed))
    assert not failures, failures[:3]
