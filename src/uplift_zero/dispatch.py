"""Centralized dispatch by exhaustive commitment search, pruned by subtrees.

The commitment space is enumerated with a symmetry reduction: units sharing
identical parameters are interchangeable, so per parameter group only the
multiset of status vectors matters.  Each candidate commitment is priced by
merit-order economic dispatch, which is exact for constant marginal costs.

Ties on total cost resolve deterministically: the commitment whose flattened
status matrix is lexicographically largest wins, which puts low-index units
online first; the merit-order output fill is itself deterministic (ties by
unit index).

The search is set up once per solve: the status table of every group (its
feasible status vectors and their startup counts, `model.status_table`,
which pricing reads too), the startup cost of every (unit, status vector)
pair and the merit order (units by marginal cost, then index).  One kernel,
`_merit_order_fill`, dispatches a commitment from them; `economic_dispatch`
runs the same kernel after validating its commitment.

The search is a depth-first branch and bound over the groups.  A node at
depth k has decided the multisets of groups 0 .. k-1; its children take
group k's multisets in enumeration order.  The leaves are therefore visited
in exactly the order of `itertools.product` over the groups, and each leaf
that is reached is dispatched and judged by the tie rule as before.  The
search state is the best (cost, commitment, outputs) so far and the limit,
best + tie band + margin; it changes only when a profile is accepted.  A
subtree is pruned only when no profile under it could be accepted.  Visited
in turn, each of them would have left the state as it found it, so the
schedule, its cost and every float on the way are the same as if every
profile had been dispatched, and `profiles_enumerated` still counts them
all.  A subtree is pruned in three cases.

- Infeasible window.  In some period the node's online g_min exceeds
  d_t + eq_tol, or its online plus undecided g_max falls short of
  d_t - eq_tol.  Every profile below keeps the node's online units online
  and has no others but undecided ones, so `fill` would return None for it.
  Both edges are widened by a slack of BOUND_MARGIN * (total capacity +
  eq_tol + |d_t|), because the node adds its groups in another order than
  `fill` adds its units: the rounding of a float sum of n such terms is
  about n * 1.1e-16 of that scale, far below the slack.
- Energy bound.  E_t(node) is the least energy cost of producing d_t to
  within eq_tol when the node's online units run in [g_min, g_max], its
  offline units stay at 0 and its undecided units run anywhere in
  [0, g_max].  The merit order solves it: units of negative marginal cost
  run as far as d_t + eq_tol allows, the others only until d_t - eq_tol is
  met.  Every profile below dispatches inside those boxes (g_min >= 0) and
  meets demand to within eq_tol, so it costs at least its startup cost plus
  sum_t E_t(node).  The node is pruned when its startup prefix (the startup
  cost of its decided groups) plus sum_t E_t(node) exceeds the limit.  At
  the root, where every unit is undecided, sum_t E_t is the energy floor of
  every profile.
- Startup prefix.  Startup costs are >= 0, and E_t only rises from a node
  to its children, whose problems are the node's with fewer choices.  So a
  child is pruned, before its own bound is computed, when its startup prefix
  plus its parent's sum_t E_t exceeds the limit.

A pruned profile could never have been accepted.  Acceptance needs a total
of at most best + tie band, and the limit lies `margin` above that.  The
margin, BOUND_MARGIN * T * (sum of startup costs + dearest |marginal cost|
* total capacity), bounds every term of every profile's cost, so the
rounding in the bound and in the dispatched total, sums of about n * T such
terms, is far below it.  A bound above the limit thus means a dispatched
total above best + tie band.

E_t is recomputed for a child only in the periods where the parent's
merit-order optimum does not fit it: a unit decided off had been raised, or
a unit decided on with g_min > 0 had not been run to g_max.  Otherwise that
optimum is feasible for the child's problem, a restriction of the parent's,
and so optimal for it too.  A value taken from the parent is in any case a
lower bound for the child.
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
    _groups,
    cost,
    startup_count,
    status_table,
    status_vector_feasible,
    unit_key,
)

PROFILE_LIMIT = 1_000_000

# A subtree is pruned by cost only when its bound exceeds the acceptance
# limit by this share of T * (sum of startup costs + dearest marginal cost *
# total capacity), which bounds every term of every profile's cost; rounding
# in a float sum of n * T such terms is about n * T * 2.2e-16 of it, far
# below.  The window test keeps the same share of slack.
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
    return unit.startup_cost * startup_count(unit, u)


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


def _energy_bound(
    instance: MarketInstance,
) -> tuple[Callable[[int, Sequence[Sequence[int] | None], float, float],
                    tuple[float, int, int]], list[int]]:
    """The node bound kernel for one instance, and each unit's rank in its
    merit order (units by marginal cost, then index).

    The returned function takes a period t, a partial commitment (a status
    vector per decided unit, None per undecided one), the sum of the online
    units' g_min in t and its cost.  It returns (E_t, last, stop): E_t is
    the least energy cost of producing d_t to within eq_tol when online
    units run in [g_min, g_max], offline ones stay at 0 and undecided ones
    may run anywhere in [0, g_max].  Units of negative marginal cost run as
    far as d_t + eq_tol allows, the others only until d_t - eq_tol is met.
    `stop` is the rank where the merit order stopped (n if it never did)
    and `last` the rank of the last unit it reached before (0 if none): the
    units it reached before `last` run at their upper bound, and those from
    `stop` on at their lower bound."""
    units = instance.units
    eq_tol = instance.tolerances.eq_tol
    order = sorted(range(len(units)), key=lambda i: (units[i].marginal_cost, i))
    rank = [0] * len(units)
    for r, i in enumerate(order):
        rank[i] = r
    walk = [
        (r, i, units[i].marginal_cost, units[i].g_max, units[i].g_max - units[i].g_min,
         units[i].marginal_cost < 0)
        for r, i in enumerate(order)
    ]
    targets = [(d + eq_tol, d - eq_tol) for d in instance.demand]

    def period_bound(t, commitment, made, energy):
        up, down = targets[t]
        last = 0
        for r, i, marginal, g_max, span, negative in walk:
            u = commitment[i]
            if u is None:
                room = g_max
            elif u[t] == 1:
                room = span
            else:
                continue
            need = (up if negative else down) - made
            if need <= 0:
                return energy, last, r
            take = room if room < need else need
            made += take
            energy += marginal * take
            last = r
        return energy, last, len(walk)

    return period_bound, rank


@dataclass(frozen=True)
class DispatchResult:
    """The optimal schedule and its cost.  `profiles_enumerated` counts the
    symmetry-reduced commitment profiles in the search space, pruned or
    not.  `profiles_dispatched` counts those handed to the merit-order fill:
    the leaves the branch and bound reached, each under no pruned subtree
    and past its own energy bound."""

    schedule: Schedule
    total_cost: float
    profiles_enumerated: int
    profiles_dispatched: int


def solve_centralized(instance: MarketInstance) -> DispatchResult:
    """Globally optimal commitment and dispatch.

    Raises InfeasibleError when no feasible commitment covers demand and
    EnumerationLimitError when the symmetry-reduced profile count exceeds
    PROFILE_LIMIT.
    """
    # the indices of each group of interchangeable units (`unit_key`)
    firsts, group_of = _groups(map(unit_key, instance.units))
    groups = [[] for _ in firsts]
    for i, g in enumerate(group_of):
        groups[g].append(i)
    tables = [status_table(instance.units[g[0]], instance.periods) for g in groups]
    count = 1
    for g, table in zip(groups, tables):
        count *= math.comb(len(table.vectors) + len(g) - 1, len(g))
    if count > PROFILE_LIMIT:
        raise EnumerationLimitError(
            f"{count} commitment profiles exceed the supported budget of {PROFILE_LIMIT}"
        )

    units = instance.units
    n = len(units)
    periods = range(instance.periods)
    bound, rank = _energy_bound(instance)
    # per group, every multiset of its status vectors in enumeration order,
    # as (startup cost, vectors, steps); within a group the "most-on"
    # vectors go to the lowest unit indices.  steps[t] holds what the
    # multiset adds in period t to the online g_min, g_max and g_min cost,
    # then the lowest merit rank among its units that are off in t (n if
    # none) and the highest among those on in t with g_min > 0 (-1 if none)
    options = []
    startup_costs_by_group = []
    for g, table in zip(groups, tables):
        unit = units[g[0]]
        by_vector = {u: unit.startup_cost * k for u, k in zip(table.vectors, table.starts)}
        startup_costs_by_group.append(by_vector)
        group_options = []
        for vectors in itertools.combinations_with_replacement(table.vectors, len(g)):
            vectors = tuple(sorted(vectors, reverse=True))
            steps = []
            for t in periods:
                on = sum(u[t] for u in vectors)
                steps.append((
                    on * unit.g_min,
                    on * unit.g_max,
                    on * unit.g_min * unit.marginal_cost,
                    min([rank[i] for i, u in zip(g, vectors) if not u[t]], default=n),
                    max([rank[i] for i, u in zip(g, vectors) if u[t]], default=-1)
                    if unit.g_min > 0 else -1,
                ))
            group_options.append((sum(by_vector[u] for u in vectors), vectors, steps))
        options.append(group_options)
    # capacity of the units in groups k, k + 1, ...
    undecided = [0.0] * (len(groups) + 1)
    for k in range(len(groups) - 1, -1, -1):
        undecided[k] = undecided[k + 1] + sum(units[i].g_max for i in groups[k])

    eq_tol = instance.tolerances.eq_tol
    fill = _merit_order_fill(instance)
    capacity = undecided[0]
    margin = BOUND_MARGIN * instance.periods * (
        sum(u.startup_cost for u in units)
        + max(abs(u.marginal_cost) for u in units) * capacity
    )
    # per period (t, over, under): a node is infeasible when its online
    # g_min exceeds over or its online and undecided g_max fall short of
    # under, which are d_t + eq_tol and d_t - eq_tol widened by a rounding
    # slack
    windows = []
    for t, d in enumerate(instance.demand):
        slack = BOUND_MARGIN * (capacity + eq_tol + abs(d))
        windows.append((t, d + eq_tol + slack, d - eq_tol - slack))
    commitment: list = [None] * n
    startup_costs = [0.0] * n
    # a node's state per period: online g_min, online g_max, online g_min
    # cost, then (E_t, last, stop) from the bound kernel
    root = [(0.0, 0.0, 0.0, *bound(t, commitment, 0.0, 0.0)) for t in periods]
    # best = (cost, commitment, outputs).  Among costs within the tie band
    # the lexicographically largest commitment wins: 1s at low flattened
    # positions.
    best = None
    limit = math.inf  # profiles whose cost exceeds this are never accepted
    dispatched = 0

    def search(k, startup, energy, state):
        """Visit, in enumeration order, the profiles below the node whose
        groups before k are decided, with that startup cost, energy bound
        sum_t E_t and per-period state."""
        nonlocal best, limit, dispatched
        if k == len(groups):
            dispatched += 1
            hit = fill(commitment, startup_costs)
            if hit is None:
                return
            outputs, total = hit
            profile = tuple(commitment)
            if best is None:
                best = (total, profile, outputs)
            else:
                tie_band = eq_tol * max(1.0, abs(best[0]))
                if total < best[0] - tie_band:
                    best = (total, profile, outputs)
                elif total <= best[0] + tie_band and profile > best[1]:
                    best = (min(total, best[0]), profile, outputs)
                else:
                    return
            limit = best[0] + eq_tol * max(1.0, abs(best[0])) + margin
            return
        g = groups[k]
        by_vector = startup_costs_by_group[k]
        spare = undecided[k + 1]
        for prefix, vectors, steps in options[k]:
            prefix += startup
            if prefix + energy > limit:
                continue  # startup prefix: the parent's energy bound only rises below
            for idx, u in zip(g, vectors):
                commitment[idx] = u
                startup_costs[idx] = by_vector[u]
            child = []
            child_energy = 0.0
            for (lo, hi, lo_cost, e, last, stop), (add_lo, add_hi, add_cost, first_off, last_on), (
                    t, over, under) in zip(state, steps, windows):
                lo += add_lo
                hi += add_hi
                if lo > over or hi + spare < under:
                    break  # infeasible window
                lo_cost += add_cost
                if first_off < stop or last_on >= last:
                    # the parent's merit-order optimum does not fit the child
                    e, last, stop = bound(t, commitment, lo, lo_cost)
                child_energy += e
                child.append((lo, hi, lo_cost, e, last, stop))
            else:
                if prefix + child_energy <= limit:  # else pruned by the energy bound
                    search(k + 1, prefix, child_energy, child)
        for idx in g:
            commitment[idx] = None

    search(0, 0.0, sum(part[3] for part in root), root)
    # search refers to itself through its closure; breaking that cycle lets
    # reference counting free the search state now rather than the cyclic
    # garbage collector later
    del search

    if best is None:
        raise InfeasibleError("no feasible commitment covers the demand profile")
    _, profile, outputs = best
    schedule = Schedule(
        {
            unit.id: UnitSchedule(profile[i], outputs[i])
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
