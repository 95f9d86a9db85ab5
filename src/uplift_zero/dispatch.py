"""Centralized dispatch by exhaustive commitment enumeration.

The commitment space is enumerated with a symmetry reduction: units sharing
identical parameters are interchangeable, so per parameter group only the
multiset of status vectors matters.  Each candidate commitment is priced by
merit-order economic dispatch, which is exact for constant marginal costs.

Ties on total cost resolve deterministically: the commitment whose flattened
status matrix is lexicographically largest wins, which puts low-index units
online first; the merit-order output fill is itself deterministic (ties by
unit index).

The search is set up once per solve: the feasible status vectors of every
group, the startup cost of every (unit, status vector) pair and the merit
order (units by marginal cost, then index).  One kernel, `_merit_order_fill`,
dispatches a commitment from them; `economic_dispatch` runs the same kernel
after validating its commitment.

Before a profile is dispatched it is bounded from below by its startup cost
plus sum_t E_t, where E_t is the least energy cost of producing d_t to within
eq_tol with every unit free to run anywhere in [0, g_max].  The bound is
exact: the profile's own merit-order dispatch is one such way of producing
d_t, because it keeps every output in [g_min, g_max] with g_min >= 0 and
meets demand to within eq_tol.  A profile whose bound exceeds the best cost
so far plus the tie band, by more than a margin far above floating-point
rounding, could never be accepted by the tie rule, so it is skipped without
being dispatched.  The schedule, its cost and the profile count are the same
as if every profile had been dispatched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import EnumerationLimitError, InfeasibleError, ValidationError
from .model import (
    MarketInstance,
    Schedule,
    UnitParams,
    UnitSchedule,
    cost,
    feasible_status_vectors,
    startup_flags,
    status_vector_feasible,
    unit_key,
)

PROFILE_LIMIT = 1_000_000

# A profile is skipped only when its bound exceeds the acceptance limit by
# this share of T * (sum of startup costs + dearest marginal cost * total
# capacity), which bounds every term of every profile's cost; rounding in a
# float sum of n * T such terms is about n * T * 2.2e-16 of it, far below.
BOUND_MARGIN = 1e-9


def _merit_order_fill(
    instance: MarketInstance,
) -> Callable[[Sequence[Sequence[int]], Sequence[float]],
              tuple[list[list[float]], float] | None]:
    """The merit-order kernel for one instance.

    The returned function takes a validated commitment (one status vector
    per unit) and each unit's startup cost under it, and returns (outputs,
    total cost), or None when some period's demand falls outside the
    committed [sum g_min, sum g_max] window.  Online units start at g_min;
    the rest of the demand goes to them in merit order.
    """
    units = instance.units
    n = len(units)
    periods = range(instance.periods)
    demand = instance.demand
    eq_tol = instance.tolerances.eq_tol
    g_min = [u.g_min for u in units]
    g_max = [u.g_max for u in units]
    span = [u.g_max - u.g_min for u in units]
    marginal = [u.marginal_cost for u in units]
    order = sorted(range(n), key=lambda i: (units[i].marginal_cost, i))

    def fill(commitment, startup_costs):
        outputs = [[0.0] * instance.periods for _ in range(n)]
        for t in periods:
            online = [i for i in range(n) if commitment[i][t] == 1]
            lo = sum(g_min[i] for i in online)
            hi = sum(g_max[i] for i in online)
            d = demand[t]
            if d < lo - eq_tol or d > hi + eq_tol:
                return None
            for i in online:
                outputs[i][t] = g_min[i]
            remaining = d - lo
            for i in order:
                if remaining <= 0:
                    break
                if commitment[i][t] == 1:
                    take = min(remaining, span[i])
                    outputs[i][t] += take
                    remaining -= take
        total = 0.0
        for i in range(n):
            total += startup_costs[i]
            total += marginal[i] * sum(outputs[i])
        return outputs, total

    return fill


def _startup_cost(unit: UnitParams, u: Sequence[int]) -> float:
    return unit.startup_cost * sum(startup_flags(unit, u))


def economic_dispatch(
    instance: MarketInstance, commitment: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[float, ...], ...], float] | None:
    """Merit-order dispatch under a fixed commitment.

    `commitment` holds one status vector per unit, aligned with
    instance.units.  Returns (outputs, total cost) with outputs[i][t] the
    unit-i output in period t, or None when some period's demand falls
    outside the committed [sum g_min, sum g_max] window.
    """
    if len(commitment) != len(instance.units):
        raise ValidationError("commitment must cover every unit")
    commitment = tuple(tuple(int(v) for v in u) for u in commitment)
    for unit, u in zip(instance.units, commitment):
        if len(u) != instance.periods:
            raise ValidationError(f"unit {unit.id}: commitment has wrong horizon")
        if not status_vector_feasible(unit, u):
            raise ValidationError(
                f"unit {unit.id}: status vector {u} violates min up/down times"
            )
    startup_costs = [_startup_cost(unit, u) for unit, u in zip(instance.units, commitment)]
    dispatched = _merit_order_fill(instance)(commitment, startup_costs)
    if dispatched is None:
        return None
    outputs, total = dispatched
    return tuple(tuple(row) for row in outputs), total


def _energy_floor(instance: MarketInstance) -> float:
    """sum_t E_t: the least energy cost of producing each period's demand to
    within eq_tol when every unit may run anywhere in [0, g_max].  Units of
    negative marginal cost run as far as d_t + eq_tol allows, the others
    only until d_t - eq_tol is met."""
    eq_tol = instance.tolerances.eq_tol
    units = sorted(instance.units, key=lambda u: u.marginal_cost)
    floor = 0.0
    for d in instance.demand:
        made = 0.0
        for unit in units:
            room = (d + eq_tol if unit.marginal_cost < 0 else d - eq_tol) - made
            if room <= 0:
                break
            take = min(room, unit.g_max)
            made += take
            floor += unit.marginal_cost * take
    return floor


@dataclass(frozen=True)
class DispatchResult:
    """The optimal schedule and its cost.  `profiles_enumerated` counts the
    symmetry-reduced commitment profiles searched, `profiles_dispatched`
    those of them that the cost bound did not skip."""

    schedule: Schedule
    total_cost: float
    profiles_enumerated: int
    profiles_dispatched: int


def _group_units(instance: MarketInstance) -> list[list[int]]:
    """Indices of interchangeable units, grouped by identical parameters."""
    groups: dict[tuple, list[int]] = {}
    for i, u in enumerate(instance.units):
        groups.setdefault(unit_key(u), []).append(i)
    return list(groups.values())


def solve_centralized(instance: MarketInstance) -> DispatchResult:
    """Globally optimal commitment and dispatch.

    Raises InfeasibleError when no feasible commitment covers demand and
    EnumerationLimitError when the symmetry-reduced profile count exceeds
    PROFILE_LIMIT.
    """
    groups = _group_units(instance)
    per_group_vectors = [
        feasible_status_vectors(instance.units[g[0]], instance.periods) for g in groups
    ]
    count = 1
    for g, vecs in zip(groups, per_group_vectors):
        count *= math.comb(len(vecs) + len(g) - 1, len(g))
    if count > PROFILE_LIMIT:
        raise EnumerationLimitError(
            f"{count} commitment profiles exceed the supported budget of {PROFILE_LIMIT}"
        )

    n = len(instance.units)
    # per group, every multiset of its status vectors in enumeration order,
    # as (startup cost, vectors); within a group the "most-on" vectors go to
    # the lowest unit indices
    options = []
    startup_costs_by_group = []
    for g, vecs in zip(groups, per_group_vectors):
        unit = instance.units[g[0]]
        by_vector = {u: _startup_cost(unit, u) for u in vecs}
        startup_costs_by_group.append(by_vector)
        options.append([
            (sum(by_vector[u] for u in vectors), tuple(sorted(vectors, reverse=True)))
            for vectors in itertools.combinations_with_replacement(vecs, len(g))
        ])

    eq_tol = instance.tolerances.eq_tol
    fill = _merit_order_fill(instance)
    floor = _energy_floor(instance)
    units = instance.units
    margin = BOUND_MARGIN * instance.periods * (
        sum(u.startup_cost for u in units)
        + max(abs(u.marginal_cost) for u in units) * sum(u.g_max for u in units)
    )
    # best = (cost, commitment, outputs).  Among costs within the tie band
    # the lexicographically largest commitment wins: 1s at low flattened
    # positions.
    best = None
    limit = math.inf  # profiles whose bound exceeds this are never accepted
    dispatched = 0
    for choice in itertools.product(*options):
        bound = floor
        for startup, _ in choice:
            bound += startup
        if bound > limit:
            continue
        commitment: list = [None] * n
        startup_costs = [0.0] * n
        for g, by_vector, (_, vectors) in zip(groups, startup_costs_by_group, choice):
            for idx, u in zip(g, vectors):
                commitment[idx] = u
                startup_costs[idx] = by_vector[u]
        dispatched += 1
        hit = fill(commitment, startup_costs)
        if hit is None:
            continue
        outputs, total = hit
        commitment = tuple(commitment)
        if best is None:
            best = (total, commitment, outputs)
        else:
            tie_band = eq_tol * max(1.0, abs(best[0]))
            if total < best[0] - tie_band:
                best = (total, commitment, outputs)
            elif total <= best[0] + tie_band and commitment > best[1]:
                best = (min(total, best[0]), commitment, outputs)
            else:
                continue
        limit = best[0] + eq_tol * max(1.0, abs(best[0])) + margin

    if best is None:
        raise InfeasibleError("no feasible commitment covers the demand profile")
    _, commitment, outputs = best
    schedule = Schedule(
        {
            unit.id: UnitSchedule(commitment[i], outputs[i])
            for i, unit in enumerate(instance.units)
        }
    )
    total = sum(
        cost(unit, schedule.unit(unit.id), instance.tolerances.eq_tol)
        for unit in instance.units
    )
    return DispatchResult(
        schedule=schedule,
        total_cost=total,
        profiles_enumerated=count,
        profiles_dispatched=dispatched,
    )
