"""Shared fixtures: canonical scenario pipelines, random instance and
constraint generators, and the terminal summary block for the acceptance
suite."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from uplift_zero import (
    DispatchResult,
    Expr,
    MarketInstance,
    Schedule,
    UnitParams,
    UnitSchedule,
    convex_hull_price,
    scarf_instance,
    solve_centralized,
)
from uplift_zero.expr import Const, Delta, Max, Min, Output, Status, Sub, add, neg, scale
from uplift_zero.model import feasible_set_samples


@dataclass(frozen=True)
class Scenario:
    instance: MarketInstance
    result: DispatchResult
    price: tuple[float, ...]
    dual: float


def _scenario(demand: float) -> Scenario:
    instance = scarf_instance(demand)
    result = solve_centralized(instance)
    pr = convex_hull_price(instance)
    return Scenario(instance=instance, result=result, price=pr.price, dual=pr.dual_value)


@pytest.fixture(scope="session")
def scarf10() -> Scenario:
    return _scenario(10.0)


@pytest.fixture(scope="session")
def scarf40() -> Scenario:
    return _scenario(40.0)


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def random_unit(rng: random.Random, uid: str, periods: int = 1,
                max_param: float = 20.0) -> UnitParams:
    g_max = round(rng.uniform(0.5, max_param), 3)
    g_min = round(rng.uniform(0.0, 0.8 * g_max), 3) if rng.random() < 0.7 else 0.0
    marginal = round(rng.uniform(0.0, max_param), 3)
    startup = round(rng.uniform(0.0, max_param), 3) if rng.random() < 0.8 else 0.0
    min_up = rng.choice((0, 0, 2)) if periods > 1 else 0
    min_down = rng.choice((0, 0, 2)) if periods > 1 else 0
    return UnitParams(
        id=uid,
        g_min=g_min,
        g_max=g_max,
        marginal_cost=marginal,
        startup_cost=startup,
        initial_status=rng.choice((0, 1)) if periods > 1 else 0,
        min_up=min_up,
        min_down=min_down,
    )


def random_instance(rng: random.Random, max_units: int = 5, periods: int = 1,
                    max_param: float = 20.0) -> MarketInstance:
    """Instance whose demand comes from a sampled feasible schedule, so the
    dispatch problem is feasible by construction."""
    from uplift_zero.model import feasible_status_vectors

    n = rng.randint(1, max_units)
    units = [random_unit(rng, f"U{k + 1}", periods, max_param) for k in range(n)]
    demand = [0.0] * periods
    for unit in units:
        vectors = feasible_status_vectors(unit, periods)
        u = rng.choice(vectors)
        for t in range(periods):
            if u[t]:
                demand[t] += round(rng.uniform(unit.g_min, unit.g_max), 3)
    return MarketInstance(periods=periods, demand=tuple(demand), units=tuple(units))


def unshared_instance(seed: int, periods: int, n_units: int) -> MarketInstance:
    """Instance shaped like the hetero-uplift workload: units that share no
    parameters (`unit_key`), so every group of identical units is one unit.
    Some units have g_min of 0.0 or -0.0, a negative marginal cost, a zero
    startup cost or initial_status = 1, and at T > 1 some have min up/down
    times of 2.  Demand is met by a random feasible commitment."""
    from uplift_zero.model import feasible_status_vectors, unit_key

    rng = random.Random(seed)
    units, keys = [], set()
    while len(units) < n_units:
        g_min = rng.choice((0.0, -0.0, 0.0, 0.5, 1.25, 3.0))
        slow = periods > 1 and rng.random() < 0.4
        unit = UnitParams(
            id=f"U{len(units) + 1:02d}",
            g_min=g_min,
            g_max=g_min + round(rng.uniform(2.0, 12.0), 2),
            marginal_cost=rng.choice((-2.5, 0.0, round(rng.uniform(1.0, 10.0), 2))),
            startup_cost=rng.choice((0.0, round(rng.uniform(1.0, 60.0), 2))),
            initial_status=int(rng.random() < 0.3),
            min_up=2 if slow else 0,
            min_down=2 if slow else 0,
        )
        if unit_key(unit) not in keys:
            keys.add(unit_key(unit))
            units.append(unit)
    demand = [0.0] * periods
    for unit in units:
        u = rng.choice(feasible_status_vectors(unit, periods))
        for t in range(periods):
            if u[t]:
                demand[t] += rng.uniform(unit.g_min, unit.g_max)
    return MarketInstance(periods, tuple(round(d, 3) for d in demand), tuple(units))


def rebind(monkeypatch, original, replacement) -> None:
    """Point every package module's name for `original` at `replacement`."""
    import sys

    for name, module in list(sys.modules.items()):
        if name == "uplift_zero" or name.startswith("uplift_zero."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def random_price(rng: random.Random, periods: int = 1, max_param: float = 20.0):
    return tuple(round(rng.uniform(0.0, 1.5 * max_param), 3) for _ in range(periods))


def random_redundant_constraints(
    rng: random.Random,
    unit: UnitParams,
    p,
    count: int,
    x_anchor: UnitSchedule | None = None,
) -> tuple[Expr, ...]:
    """Random constraints that are non-positive on the unit's feasible set:
    combinations of the box arms, point deltas, and min/max mixes."""
    anchors = (x_anchor,) if x_anchor is not None else ()
    lattice = feasible_set_samples(unit, anchors=anchors, periods=1)
    box = (
        Sub(scale(unit.g_min, Status(0)), Output(0)),
        Sub(Output(0), scale(unit.g_max, Status(0))),
        Sub(Status(0), Const(1.0)),
    )

    def atom() -> Expr:
        roll = rng.random()
        if roll < 0.4:
            return scale(round(rng.uniform(0.1, 3.0), 3), rng.choice(box))
        if roll < 0.7:
            point = rng.choice(lattice)
            return neg(Delta(u_ref=point.u, g_ref=point.g))
        a, b = rng.sample(box, 2)
        combine = Max if rng.random() < 0.5 else Min
        return combine((a, scale(round(rng.uniform(0.1, 2.0), 3), b)))

    out = []
    for _ in range(count):
        rho = atom()
        if rng.random() < 0.3:
            rho = add(rho, atom())
        out.append(rho)
    return tuple(out)


def delta_partition_constraints(
    rng: random.Random, unit: UnitParams, p, count: int,
    x_anchor: UnitSchedule | None = None,
) -> tuple[Expr, ...]:
    """Point-delta constraints on distinct lattice points: their supports are
    pairwise disjoint by construction."""
    anchors = (x_anchor,) if x_anchor is not None else ()
    lattice = list(feasible_set_samples(unit, anchors=anchors, periods=1))
    rng.shuffle(lattice)
    picked = lattice[: min(count, len(lattice))]
    if x_anchor is not None and x_anchor not in picked:
        picked[0] = x_anchor
    return tuple(neg(Delta(u_ref=s.u, g_ref=s.g)) for s in picked)


def online_schedule(unit: UnitParams, g: float) -> UnitSchedule:
    return UnitSchedule((1,), (g,))


OFFLINE = UnitSchedule((0,), (0.0,))


def schedule_of(instance: MarketInstance, mapping: dict) -> Schedule:
    full = {
        u.id: mapping.get(u.id, UnitSchedule((0,) * instance.periods, (0.0,) * instance.periods))
        for u in instance.units
    }
    return Schedule(units=full)


# ---------------------------------------------------------------------------
# acceptance summary
# ---------------------------------------------------------------------------

ACCEPTANCE_TITLES = {
    1: "demand-10 scenario goldens (dispatch, hull price, total uplift)",
    2: "demand-40 scenario goldens (dispatch, price, per-unit uplifts)",
    3: "closed-form amendment coefficients on both scenarios",
    4: "every applicable family verifies and removes all uplift (scenarios + 50 random instances)",
    5: "duality gap equals pre-amendment uplift and survives the aggregate constraint",
    6: "multiplier caps match closed forms; membership box geometry; necessity filter",
    7: "dispatch and hull price agree with independent oracles",
    8: "support-based multiplier verdict agrees with the direct one; scan baseline",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and status == "passed":
                continue
            number = int(nodeid.split("test_criterion_")[1].split("_")[0])
            if outcomes.get(number) != "FAIL":
                outcomes[number] = label
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(ACCEPTANCE_TITLES):
        label = outcomes.get(number, "NOT RUN")
        title = ACCEPTANCE_TITLES[number]
        terminalreporter.write_line(f"criterion {number}: {label} - {title}")
