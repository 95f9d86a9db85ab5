"""Centralized dispatch by exhaustive commitment search, pruned by subtrees.

The commitment space is enumerated with a symmetry reduction: units sharing
identical parameters are interchangeable, so per parameter group only the
multiset of status vectors matters.  Each candidate commitment is priced by
merit-order economic dispatch, which is exact for constant marginal costs.

Ties on total cost resolve deterministically: the commitment whose flattened
status matrix is lexicographically largest wins, which puts low-index units
online first; the merit-order output fill is itself deterministic (ties by
unit index).

The search is set up once per solve.  It reads the instance's plan
(`model._plan_of`), which the instance makes on first use and which the
price rules read too: the groups of interchangeable units, each
commitment rule's status-vector count, each group's status table (its
feasible status vectors and the startup cost of each, listed once per
rule, `model._shared_status_table`) and the walk of the energy bound
(`_walk`).  It adds the merit order (units by marginal cost, then index)
and the multisets of every group.  One kernel,
`_merit_order_fill`, dispatches a commitment from them; `economic_dispatch`
runs the same kernel after validating its commitment, with each vector's
startup cost from the same helper (`model._startup_cost`).

The search is a depth-first branch and bound over the groups.  A node at
depth k has decided the multisets of groups 0 .. k-1; its children take
group k's multisets in enumeration order.  The leaves are therefore visited
in exactly the order of `itertools.product` over the groups, and each leaf
that is reached is dispatched and judged by the tie rule as before.  The
search state is the best (cost, commitment, outputs) so far and the limit,
best + tie band + margin (but no more than the incumbent's ceiling, below);
it changes only when a profile is accepted.  A subtree is pruned only when
no profile under it could be accepted, or could change the answer.  Visited
in turn, each of them would have left the answer as it found it, so the
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
- Energy bound.  A unit's hull rate is c + S / (T * g_max) when it starts
  offline and g_max > 0, and c otherwise.  No status vector costs less per
  unit of energy: a unit that runs in any period pays at least one startup
  S and produces at most T * g_max.  E_t(node) is the least cost of
  producing d_t to within eq_tol when the node's online units run in
  [g_min, g_max] at c, its offline units stay at 0 and its undecided units
  run anywhere in [0, g_max] at their hull rate.  A merit order solves it
  over at most two entries per group: one at c for the group's online
  units and, where the hull rate differs from c, one at the hull rate for
  the group while it is undecided (a group whose hull rate is c has its
  one entry serve both).  Entries of negative rate run as far as d_t +
  eq_tol allows, the others only until d_t - eq_tol is met.  Every profile
  below the node dispatches inside those boxes (g_min >= 0) and meets
  demand to within eq_tol, and the startups of its undecided units pay at
  least the hull rate's excess over c on all they produce; so it costs at
  least its startup prefix (the startup cost of the decided groups) plus
  sum_t E_t(node).  The node is pruned when that bound exceeds the limit.
  Every node walks its own E_t afresh from its decided groups.
  At T = 1 the root bound is the convex-hull dual value of `pricing` up to
  the eq_tol demand band: the Lagrangian dual of the relaxed power balance
  at its best price, with no price computed.
- Startup prefix.  A child's bound is at least its parent's: the child's
  problem is the parent's with fewer choices, and its newly decided units'
  startups pay for the hull rate they were charged while undecided.  That
  charge covers one startup S per unit that runs, so the child's further
  startups (all of them where the hull rate is c) are not in the parent's
  sum_t E_t.  A child is pruned, before its own bound is computed, when the
  parent's bound plus those further startups exceeds the limit.

A pruned profile could never have been accepted.  Acceptance needs a total
of at most best + tie band, and the limit lies `margin` above that.  The
margin, BOUND_MARGIN * T * (sum of startup costs + dearest |marginal cost|
* total capacity), bounds every term of every profile's cost and of every
bound (a hull-rate term is at most |c| * g_max + S / T), so the rounding in
the bound and in the dispatched total, sums of about n * T such terms, is
far below it.  A bound above the limit thus means a dispatched total above
best + tie band.

Incumbent.  Before it searches, the solve rounds the root walk of the
energy bound, the relaxed problem with every unit at its hull rate, up to a
commitment (`_rounded_root`; Fisher 1973, Muckstadt & Koenig 1977): in each
period, the first ceil(taken / g_max) units of every group whose undecided
entry the walk reached, taken being what the walk took from that entry.
Within a group a lower index is online whenever a higher one is, so this
seed S is one of the profiles, with r others before it in leaf order.  When
every vector is in its group's status table and every period's [sum g_min,
sum g_max] window covers d_t to within eq_tol, S is filled once, at cost s;
otherwise there is no seed, and no fill is made where no commitment meets
demand.  The limit then starts at the ceiling H + margin and, after each
acceptance, is the lesser of that and best + tie band + margin.  H is s +
k / (1 - k) * max(1, |s|) with k = (r + 4) * (eq_tol + epsilon); where k >= 1
there is no such H, and the limit starts infinite as before.  The seed's
fill is counted in neither `profiles_dispatched` nor `nodes_visited`.

Why skipping profiles above H keeps the answer.  A band, band(b) = eq_tol *
max(1, |b|), grows with |b|: upwards above 1 and downwards below -1.  On
[s, H] it is largest at the end of larger |b|, and H - s is at least r + 4
bands of that size, since k * (max(1, |s|) + H - s) = H - s.  Both b -
band(b) and b + band(b) rise with b.  The epsilon term in k covers the
rounding of b -/+ band(b) in the tie rule's tests and of H, at most epsilon
* max(1, |b|) each; the margin covers the bound's rounding, as for the
limit.  Compare the search with a run that visits every profile.  The
search skips some profiles above H, and otherwise only profiles it would
reject.  A skipped profile changes the full run's state only while its best
b has b + band(b) >= its cost > H, so that both runs' bests then lie above H
- band.  From there the two states may differ, and they join again at the
first profile that undercuts both bests by more than a band, which both then
take.  Until then each profile lowers the lesser best m by at most band(m):
a tie leaves min(x, b) >= b - band(b), and a profile that undercuts one best
alone lies within a band of the other.  To stay apart at S, whose cost s
would undercut both, m must reach s + band, more than r + 1 such steps down
from H - band, yet fewer than r profiles lie between the split and S.  Once
S is seen both bests have b - band(b) <= s, so b + band(b) < H, and neither
run accepts a profile above H again.  The schedule, its cost and every float
are therefore those of the full run; leaf order, the tie rule and
BOUND_MARGIN are unchanged.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import EnumerationLimitError, InfeasibleError, ValidationError
from .model import (
    MarketInstance,
    Schedule,
    UnitParams,
    UnitSchedule,
    _plan_of,
    _shared_status_table,
    _startup_cost,
    status_vector_feasible,
    unchecked_cost,
)

# the most commitment profiles a search enumerates; pricing's per-unit
# oracle (`pricing._UnitOracle`) holds each unit's status vectors to it
# too, read at call time
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


def _hull_rate(unit: UnitParams, periods: int) -> float:
    """A lower bound on the unit's cost per unit of energy over the horizon:
    c + S / (T * g_max) when it starts offline and can run, since running
    at all then costs a startup and yields at most T * g_max; c otherwise,
    and c where that sum is not finite."""
    c = unit.marginal_cost
    if unit.initial_status == 0 and unit.g_max > 0:
        rate = c + unit.startup_cost / (periods * unit.g_max)
        if math.isfinite(rate):
            return rate
    return c


def _walk_entries(
    instance: MarketInstance, groups: Sequence[Sequence[int]],
) -> list[tuple[float, int, float | None, bool]]:
    """The entries of the energy bound's walk, by rate and then group: per
    group (rate, group, room while undecided or None, whether it serves the
    group's online units)."""
    units = instance.units
    entries = []
    for grp, g in enumerate(groups):
        unit = units[g[0]]
        c, hull = unit.marginal_cost, _hull_rate(unit, instance.periods)
        if hull == c:
            entries.append((c, grp, len(g) * unit.g_max, True))
        else:
            entries.append((c, grp, None, True))
            entries.append((hull, grp, len(g) * unit.g_max, False))
    entries.sort(key=lambda e: e[:2])
    return entries


def _walk(instance: MarketInstance) -> list[tuple[float, int, float | None, bool]]:
    """The walk entries (`_walk_entries`) of the instance's groups
    (`_interchangeable`), built once and held by the instance's plan
    (`model._plan_of`): the energy bound, the incumbent and the T = 1 hull
    price read the same list."""
    plan = _plan_of(instance)
    if plan.walk is None:
        plan.walk = _walk_entries(instance, plan.groups)
    return plan.walk


def _energy_bound(
    instance: MarketInstance, groups: Sequence[Sequence[int]],
) -> Callable[[int, int, Sequence[Sequence[float]], float, float], float]:
    """The node bound kernel for one instance whose units fall into
    `groups` of identical units (`_interchangeable`), decided in that
    order.

    The walk (`_walk`, held by the instance) is a merit order over at
    most two entries per group, by rate and then group.  A group whose
    hull rate (`_hull_rate`) differs from its marginal cost c has an entry
    at c for its online periods and a later one at the hull rate, with
    room n_g * g_max, while it is undecided; any other group has one entry
    at c, with that room while undecided.  Once decided, a group's entry
    at c has the room its online units leave above their g_min.

    The returned function takes a period t, the number k of decided groups,
    the per-period online room of each decided group (n_on * (g_max -
    g_min)), and the decided groups' online g_min in t and its cost.  It
    returns E_t, the least cost of producing d_t to within eq_tol when
    online units run in [g_min, g_max] at c, offline ones stay at 0 and
    undecided ones may run anywhere in [0, g_max] at their hull rate.
    Entries of negative rate run as far as d_t + eq_tol allows, the others
    only until d_t - eq_tol is met."""
    eq_tol = instance.tolerances.eq_tol
    walk = [(grp, rate, free, online, rate < 0) for rate, grp, free, online in _walk(instance)]
    targets = [(d + eq_tol, d - eq_tol) for d in instance.demand]

    def period_bound(t, k, rooms, made, energy):
        up, down = targets[t]
        for grp, rate, free, online, negative in walk:
            if grp >= k:
                room = free
            elif online:
                room = rooms[grp][t]
            else:
                continue
            if not room:
                continue
            need = (up if negative else down) - made
            if need <= 0:
                break
            take = room if room < need else need
            made += take
            energy += rate * take
        return energy

    return period_bound


def _rounded_root(
    instance: MarketInstance, groups: Sequence[Sequence[int]],
) -> list[tuple[int, ...]]:
    """The root walk of `_energy_bound`, every unit undecided, rounded up to
    one status vector per unit: in each period, the first ceil(taken /
    g_max) units of each group, where taken is what the walk takes from the
    group's undecided entry.  Within a group a lower index is online
    whenever a higher one is, so the vectors are in the search's order."""
    units = instance.units
    eq_tol = instance.tolerances.eq_tol
    on = [[0] * instance.periods for _ in units]
    undecided = [e for e in _walk(instance) if e[2]]
    for t, d in enumerate(instance.demand):
        made = 0.0
        for rate, grp, room, _ in undecided:
            need = (d + eq_tol if rate < 0 else d - eq_tol) - made
            if need <= 0:
                break
            take = room if room < need else need
            made += take
            g = groups[grp]
            for i in g[:math.ceil(take / units[g[0]].g_max)]:
                on[i][t] = 1
    return [tuple(u) for u in on]


def _interchangeable(instance: MarketInstance) -> list[list[int]]:
    """The indices of each group of interchangeable units (`unit_key`), in
    order of their first unit, as the instance's plan holds them
    (`model._plan_of`)."""
    return _plan_of(instance).groups


@dataclass(frozen=True)
class DispatchResult:
    """The optimal schedule and its cost.  `profiles_enumerated` counts the
    symmetry-reduced commitment profiles in the search space, pruned or
    not.  `profiles_dispatched` counts those handed to the merit-order fill:
    the leaves the branch and bound reached, each under no pruned subtree
    and past its own energy bound.  `nodes_visited` counts the nodes the
    search entered, the root and the dispatched leaves included."""

    schedule: Schedule
    total_cost: float
    profiles_enumerated: int
    profiles_dispatched: int
    nodes_visited: int


def solve_centralized(instance: MarketInstance) -> DispatchResult:
    """Globally optimal commitment and dispatch.

    Raises InfeasibleError when no feasible commitment covers demand and
    EnumerationLimitError when the symmetry-reduced profile count exceeds
    PROFILE_LIMIT.
    """
    plan = _plan_of(instance)
    groups = plan.groups
    # the profiles are counted before any status vector is listed
    count = 1
    for g in groups:
        count *= math.comb(plan.count(instance.units[g[0]]) + len(g) - 1, len(g))
    if count > PROFILE_LIMIT:
        raise EnumerationLimitError(
            f"{count} commitment profiles exceed the supported budget of {PROFILE_LIMIT}"
        )
    tables = [_shared_status_table(instance, g[0]) for g in groups]

    units = instance.units
    n = len(units)
    periods = range(instance.periods)
    bound = _energy_bound(instance, groups)
    # per group, every multiset of its status vectors in enumeration order,
    # as (startup cost, extra, vectors, on_rooms, steps); within a group the
    # "most-on" vectors go to the lowest unit indices.  `extra` is the part
    # of the startup cost that the hull rate does not count: all of it for a
    # group with one walk entry (hull rate c), and beyond one startup per
    # unit that runs for the others.  on_rooms[t] is the online units' room
    # above g_min in period t.  steps[t] holds what the multiset adds in t
    # to the online g_min, g_max and g_min cost
    options = []
    startup_costs_by_group = []
    for g, table in zip(groups, tables):
        unit = units[g[0]]
        two_entries = _hull_rate(unit, instance.periods) != unit.marginal_cost
        by_vector = dict(zip(table.vectors, table.costs))
        startup_costs_by_group.append(by_vector)
        group_options = []
        for vectors in itertools.combinations_with_replacement(table.vectors, len(g)):
            vectors = tuple(sorted(vectors, reverse=True))
            startup = extra = sum(by_vector[u] for u in vectors)
            if two_entries:
                extra -= unit.startup_cost * sum(1 in u for u in vectors)
            on_rooms = []
            steps = []
            for t in periods:
                on = sum(u[t] for u in vectors)
                on_rooms.append(on * (unit.g_max - unit.g_min))
                steps.append(
                    (on * unit.g_min, on * unit.g_max, on * unit.g_min * unit.marginal_cost))
            group_options.append((startup, extra, vectors, on_rooms, steps))
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
    # per period (over, under): a node is infeasible when its online
    # g_min exceeds over or its online and undecided g_max fall short of
    # under, which are d_t + eq_tol and d_t - eq_tol widened by a rounding
    # slack
    windows = []
    for d in instance.demand:
        slack = BOUND_MARGIN * (capacity + eq_tol + abs(d))
        windows.append((d + eq_tol + slack, d - eq_tol - slack))
    commitment: list = [None] * n
    startup_costs = [0.0] * n
    rooms: list = [None] * len(groups)  # per decided group, its on_rooms
    # a node's state per period: online g_min, online g_max, online g_min cost
    root = [(0.0, 0.0, 0.0)] * instance.periods
    # the incumbent (see "Incumbent"): the root walk rounded up and, where
    # every vector is feasible and every window covers demand, filled once
    ceiling = math.inf
    seed = _rounded_root(instance, groups)
    seed_costs = [None] * n
    for g, by_vector in zip(groups, startup_costs_by_group):
        for i in g:
            seed_costs[i] = by_vector.get(seed[i])
    if None not in seed_costs and all(
            sum(units[i].g_min for i in range(n) if seed[i][t]) - eq_tol <= d
            <= sum(units[i].g_max for i in range(n) if seed[i][t]) + eq_tol
            for t, d in enumerate(instance.demand)):
        rank = 0  # the profiles before the seed in leaf order
        for g, group_options in zip(groups, options):
            vectors = tuple(seed[i] for i in g)
            rank = rank * len(group_options) + next(
                j for j, option in enumerate(group_options) if option[2] == vectors)
        # rank + 4 bands, as a share of a band's scale max(1, |cost|): eq_tol,
        # and epsilon for the rounding of the tie rule's tests
        slack = (rank + 4) * (eq_tol + sys.float_info.epsilon)
        if slack < 1:
            s = fill(seed, seed_costs)[1]
            ceiling = s + slack * max(1.0, abs(s)) / (1.0 - slack) + margin
    # best = (cost, commitment, outputs).  Among costs within the tie band
    # the lexicographically largest commitment wins: 1s at low flattened
    # positions.
    best = None
    limit = ceiling  # profiles whose cost exceeds this cannot change the answer
    dispatched = visited = 0

    def search(k, startup, energy, state):
        """Visit, in enumeration order, the profiles below the node whose
        groups before k are decided, with that startup cost, energy bound
        sum_t E_t and per-period state."""
        nonlocal best, limit, dispatched, visited
        visited += 1
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
            limit = min(ceiling, best[0] + eq_tol * max(1.0, abs(best[0])) + margin)
            return
        g = groups[k]
        by_vector = startup_costs_by_group[k]
        spare = undecided[k + 1]
        for prefix, extra, vectors, on_rooms, steps in options[k]:
            if startup + extra + energy > limit:
                continue  # startup prefix: the parent's bound only rises below
            prefix += startup
            rooms[k] = on_rooms
            for idx, u in zip(g, vectors):
                commitment[idx] = u
                startup_costs[idx] = by_vector[u]
            child = []
            for (lo, hi, lo_cost), (add_lo, add_hi, add_cost), (over, under) in zip(
                    state, steps, windows):
                lo += add_lo
                hi += add_hi
                if lo > over or hi + spare < under:
                    break  # infeasible window
                child.append((lo, hi, lo_cost + add_cost))
            else:
                child_energy = 0.0
                for t, (lo, _, lo_cost) in enumerate(child):
                    child_energy += bound(t, k + 1, rooms, lo, lo_cost)
                if prefix + child_energy <= limit:  # else pruned by the energy bound
                    search(k + 1, prefix, child_energy, child)
        for idx in g:
            commitment[idx] = None

    search(0, 0.0, sum(bound(t, 0, rooms, 0.0, 0.0) for t in periods), root)
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
    # the fill puts every output at 0 or at g_min plus at most g_max - g_min,
    # inside its unit's box, so the schedule needs no validation
    total = sum(unchecked_cost(unit, schedule.unit(unit.id)) for unit in instance.units)
    return DispatchResult(
        schedule=schedule,
        total_cost=total,
        profiles_enumerated=count,
        profiles_dispatched=dispatched,
        nodes_visited=visited,
    )
