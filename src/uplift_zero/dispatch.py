"""Centralized dispatch by exhaustive commitment enumeration.

The commitment space is enumerated with a symmetry reduction: units sharing
identical parameters are interchangeable, so per parameter group only the
multiset of status vectors matters.  Each candidate commitment is priced by
merit-order economic dispatch, which is exact for constant marginal costs.

Ties on total cost resolve deterministically: the commitment whose flattened
status matrix is lexicographically largest wins, which puts low-index units
online first; the merit-order output fill is itself deterministic (ties by
unit index).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import EnumerationLimitError, InfeasibleError, ValidationError
from .model import (
    MarketInstance,
    Schedule,
    UnitSchedule,
    cost,
    feasible_status_vectors,
    status_vector_feasible,
)

PROFILE_LIMIT = 1_000_000


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
    eq_tol = instance.tolerances.eq_tol
    n = len(instance.units)
    outputs = [[0.0] * instance.periods for _ in range(n)]
    total = 0.0
    for t in range(instance.periods):
        online = [i for i in range(n) if commitment[i][t] == 1]
        lo = sum(instance.units[i].g_min for i in online)
        hi = sum(instance.units[i].g_max for i in online)
        d = instance.demand[t]
        if d < lo - eq_tol or d > hi + eq_tol:
            return None
        for i in online:
            outputs[i][t] = instance.units[i].g_min
        remaining = d - lo
        for i in sorted(online, key=lambda i: (instance.units[i].marginal_cost, i)):
            if remaining <= 0:
                break
            take = min(remaining, instance.units[i].g_max - instance.units[i].g_min)
            outputs[i][t] += take
            remaining -= take
    for i, unit in enumerate(instance.units):
        starts = sum(
            int(u_t == 1 and prev == 0)
            for u_t, prev in zip(commitment[i], (unit.initial_status,) + commitment[i][:-1])
        )
        total += unit.startup_cost * starts
        total += unit.marginal_cost * sum(outputs[i])
    return tuple(tuple(row) for row in outputs), total


@dataclass(frozen=True)
class DispatchResult:
    schedule: Schedule
    total_cost: float
    profiles_enumerated: int


def _group_units(instance: MarketInstance) -> list[list[int]]:
    """Indices of interchangeable units, grouped by identical parameters."""
    groups: dict[tuple, list[int]] = {}
    for i, u in enumerate(instance.units):
        key = (u.g_min, u.g_max, u.marginal_cost, u.startup_cost,
               u.initial_status, u.min_up, u.min_down)
        groups.setdefault(key, []).append(i)
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

    def expand(assignment: tuple[tuple[tuple[int, ...], ...], ...]) -> tuple[tuple[int, ...], ...]:
        # within a group the "most-on" vectors go to the lowest unit indices
        commitment: list[tuple[int, ...] | None] = [None] * n
        for g, vectors in zip(groups, assignment):
            for idx, vec in zip(g, sorted(vectors, reverse=True)):
                commitment[idx] = vec
        return tuple(commitment)

    def evaluate(chunk) -> tuple:
        # best = (cost, tie_key, commitment, outputs); tie_key prefers 1s at
        # low flattened positions => lexicographically largest status matrix
        best = None
        for assignment in chunk:
            commitment = expand(assignment)
            dispatched = economic_dispatch(instance, commitment)
            if dispatched is None:
                continue
            outputs, total = dispatched
            tie_key = tuple(1 - b for row in commitment for b in row)
            cand = (total, tie_key, commitment, outputs)
            if best is None:
                best = cand
                continue
            tie_band = instance.tolerances.eq_tol * max(1.0, abs(best[0]))
            if total < best[0] - tie_band:
                best = cand
            elif total <= best[0] + tie_band and tie_key < best[1]:
                best = (min(total, best[0]), tie_key, commitment, outputs)
        return best

    assignments = itertools.product(
        *(
            itertools.combinations_with_replacement(vecs, len(g))
            for g, vecs in zip(groups, per_group_vectors)
        )
    )
    best = evaluate(assignments)
    if best is None:
        raise InfeasibleError("no feasible commitment covers the demand profile")
    _, _, commitment, outputs = best
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
    return DispatchResult(schedule=schedule, total_cost=total, profiles_enumerated=count)
