"""Domain types for small non-convex electricity markets.

A market instance is a list of generating units and a demand vector over a
short horizon.  Each unit has a dispatchable output range [g_min, g_max], a
constant marginal cost, a fixed startup cost, and optional minimum up/down
times.  A per-unit schedule is a pair of vectors (u, g): binary commitment
statuses and continuous outputs.

The module also provides the verification lattice (`feasible_set_samples`),
a deterministic finite sample of a unit's feasible set; it does not depend
on the price.  Every "for every feasible point" check in the rest of the
package reads it through one lattice table (`pricing.lattice_table`), which
holds it a column at a time: the points' outputs by period, their costs
(`unchecked_cost`, a period at a time), the checked expressions' values
(`expr.evaluate_columns`) and the standard profits at one price.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError

SAMPLE_GRID_POINTS = 21


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances used throughout.

    eq_tol: equality / redundancy comparisons.
    opt_tol: optimality gaps and verification slack.
    report_digits: significant digits used when printing reports.
    """

    eq_tol: float = 1e-7
    opt_tol: float = 1e-6
    report_digits: int = 4

    def __post_init__(self):
        if not (self.eq_tol > 0 and self.opt_tol > 0):
            raise ValidationError("tolerances must be positive")
        if not (math.isfinite(self.eq_tol) and math.isfinite(self.opt_tol)):
            raise ValidationError("tolerances must be finite")
        if not (isinstance(self.report_digits, int) and self.report_digits > 0):
            raise ValidationError("report_digits must be a positive integer")


DEFAULT_TOLERANCES = ToleranceConfig()


class Formulation(str, Enum):
    """Variable space used by amendment and constraint expressions.

    STATUS_OUTPUT ("xu"): expressions over both commitment and output.
    OUTPUT_ONLY ("g"): expressions over output alone; valid only when the
    status is uniquely determined by the output (g_min > 0, or w == 0 so the
    distinction never affects cost).
    """

    STATUS_OUTPUT = "xu"
    OUTPUT_ONLY = "g"


@dataclass(frozen=True)
class UnitParams:
    """Static parameters of one generating unit."""

    id: str
    g_min: float
    g_max: float
    marginal_cost: float
    startup_cost: float
    initial_status: int = 0
    min_up: int = 0
    min_down: int = 0

    def __post_init__(self):
        if not self.id:
            raise ValidationError("unit id must be non-empty")
        for name in ("g_min", "g_max", "marginal_cost", "startup_cost"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"unit {self.id}: {name} must be finite")
        if not (0 <= self.g_min <= self.g_max):
            raise ValidationError(
                f"unit {self.id}: need 0 <= g_min <= g_max, got [{self.g_min}, {self.g_max}]"
            )
        if self.startup_cost < 0:
            raise ValidationError(f"unit {self.id}: startup_cost must be >= 0")
        if self.initial_status not in (0, 1):
            raise ValidationError(f"unit {self.id}: initial_status must be 0 or 1")
        if self.min_up < 0 or self.min_down < 0:
            raise ValidationError(f"unit {self.id}: min up/down times must be >= 0")

    def output_determines_status(self) -> bool:
        """True when the OUTPUT_ONLY formulation is unambiguous for this unit."""
        return self.g_min > 0 or self.startup_cost == 0


# the names of the unit's parameters but its id, in `unit_key` order
_PARAMS = ("g_min", "g_max", "marginal_cost", "startup_cost", "initial_status", "min_up",
           "min_down")


def unit_key(unit: UnitParams) -> tuple:
    """Every parameter of the unit but its id.  Units with equal keys are
    interchangeable: dispatch enumerates one multiset of status vectors per
    key, and pricing solves one profit maximum per key.

    The key compares with ==, under which -0.0 equals 0.0 and 1 equals 1.0.
    That is harmless where only values leave the computation (a cost, a
    profit maximum); where a unit's own numbers reach the output, group on
    `exact_key(unit_key(unit), ...)` instead."""
    return (unit.g_min, unit.g_max, unit.marginal_cost, unit.startup_cost,
            unit.initial_status, unit.min_up, unit.min_down)


def exact_key(*parts) -> str:
    """A key that is equal for two tuples of values only when every number
    in them has the same type and bits: unlike ==, it tells -0.0 from 0.0
    and 1 from 1.0.  A result computed from one such tuple therefore stands
    bit for bit for a result computed from the other.

    The parts are best plain tuples, strings and numbers: `unit_key(unit)`,
    a schedule's `u` and `g`, an enum's `value`.  Their `repr` is exact and
    cheap, where a dataclass's or an enum's `repr` also spells out names."""
    return repr(parts)


def _groups(keys: Iterable) -> tuple[list[int], list[int]]:
    """The one rule by which items with equal keys share a result: per
    group the index of its first item, and per item the index of its group,
    groups numbered in order of their first item.  The result is computed
    once, for the group's first item, and every item reads it back through
    its group index.

    Dispatch and pricing group units on `unit_key`; the amendment builders
    and verification, whose output carries the unit's own numbers, group on
    `exact_key(unit_key(unit), ...)`."""
    firsts: list[int] = []
    group_of: list[int] = []
    slots: dict = {}
    for i, key in enumerate(keys):
        group = slots.setdefault(key, len(firsts))
        if group == len(firsts):
            firsts.append(i)
        group_of.append(group)
    return firsts, group_of


@dataclass(frozen=True)
class UnitSchedule:
    """Commitment statuses and outputs of one unit over the horizon."""

    u: tuple[int, ...]
    g: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(map(int, self.u)))
        object.__setattr__(self, "g", tuple(map(float, self.g)))
        if len(self.u) != len(self.g):
            raise ValidationError("u and g must have the same length")

    @property
    def periods(self) -> int:
        return len(self.u)

    def to_json(self) -> dict:
        return {"u": list(self.u), "g": list(self.g)}

    @staticmethod
    def from_json(obj: Mapping) -> "UnitSchedule":
        try:
            return UnitSchedule(tuple(obj["u"]), tuple(obj["g"]))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad unit schedule object: {obj!r}") from exc


@dataclass(frozen=True)
class Schedule:
    """Full market schedule: one UnitSchedule per unit id."""

    units: Mapping[str, UnitSchedule]

    def __post_init__(self):
        object.__setattr__(self, "units", dict(self.units))

    def unit(self, unit_id: str) -> UnitSchedule:
        try:
            return self.units[unit_id]
        except KeyError:
            raise ValidationError(f"schedule has no unit {unit_id!r}") from None

    def total_output(self, t: int) -> float:
        return sum(s.g[t] for s in self.units.values())

    def to_json(self) -> dict:
        return {uid: s.to_json() for uid, s in sorted(self.units.items())}

    @staticmethod
    def from_json(obj: Mapping) -> "Schedule":
        return Schedule({uid: UnitSchedule.from_json(s) for uid, s in obj.items()})


@dataclass(frozen=True)
class MarketInstance:
    """A dispatch problem: units, demand per period, tolerances."""

    periods: int
    demand: tuple[float, ...]
    units: tuple[UnitParams, ...]
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)

    def __post_init__(self):
        object.__setattr__(self, "demand", tuple(float(d) for d in self.demand))
        object.__setattr__(self, "units", tuple(self.units))
        if self.periods < 1:
            raise ValidationError("periods must be >= 1")
        if len(self.demand) != self.periods:
            raise ValidationError(
                f"demand has {len(self.demand)} entries for {self.periods} periods"
            )
        if not all(math.isfinite(d) for d in self.demand):
            raise ValidationError("demand must be finite")
        if any(d < 0 for d in self.demand):
            raise ValidationError("demand must be non-negative")
        if not self.units:
            raise ValidationError("instance needs at least one unit")
        ids = [u.id for u in self.units]
        if len(set(ids)) != len(ids):
            raise ValidationError("unit ids must be unique")
        cap = sum(u.g_max for u in self.units)
        for t, d in enumerate(self.demand):
            if d > cap + self.tolerances.eq_tol:
                raise ValidationError(
                    f"demand {d} in period {t + 1} exceeds total capacity {cap}"
                )
        # price_bound bounds every price the breakpoint scan and the marginal
        # rule can return, so scale bounds every schedule's cost and every
        # revenue at those prices
        rates = [abs(u.marginal_cost) for u in self.units]
        rates += [abs(u.marginal_cost + u.startup_cost / u.g_max)
                  for u in self.units if u.g_max > 0]
        price_bound = max(r for r in rates if math.isfinite(r))
        scale = self.periods * (
            sum(u.startup_cost for u in self.units)
            + price_bound * (cap + self.tolerances.eq_tol)
        )
        if not math.isfinite(scale):
            raise ValidationError("costs or revenues of this instance overflow a float")
        # what dispatch and the price rules read off the units, made on
        # first use (`_plan_of`)
        object.__setattr__(self, "_plan", None)


# ---------------------------------------------------------------------------
# status-vector feasibility
# ---------------------------------------------------------------------------

def _status_steps(unit: UnitParams, state: tuple) -> tuple:
    """The statuses that may follow a prefix in `state`, in increasing
    order, each with the state it leads to.  A state is (the last status,
    the length of its run capped at its minimum, whether the run continues
    the initial status); a run may end once it has lasted its minimum, or at
    any time when it continues the initial status.  The prefix before
    period 1 is in state (initial status, 0, True)."""
    last, run, exempt = state
    minimum = unit.min_up if last else unit.min_down
    stay = (last, min(run + 1, minimum), exempt)
    if not (exempt or run >= minimum):
        return ((last, stay),)
    switch = (1 - last, 1, False)
    return ((0, stay), (1, switch)) if last == 0 else ((0, switch), (1, stay))


def status_vector_feasible(unit: UnitParams, u: Sequence[int]) -> bool:
    """Min-up/min-down feasibility of a status vector: each status must be
    a step `_status_steps` allows after the statuses before it.

    The unit is assumed to have been in its initial status long enough that a
    transition in period 1 is always allowed, and a run cut off by the end of
    the horizon is never rejected.
    """
    state = (unit.initial_status, 0, True)
    for v in u:
        for status, step in _status_steps(unit, state):
            if v == status:
                state = step
                break
        else:
            return False
    return True


def _status_vector_count(unit: UnitParams, periods: int) -> int:
    """The number of feasible status vectors, counted a period at a time
    over the prefix states of `_status_steps` without listing any."""
    counts = {(unit.initial_status, 0, True): 1}
    for _ in range(periods):
        after: dict = {}
        for state, n in counts.items():
            for _, step in _status_steps(unit, state):
                after[step] = after.get(step, 0) + n
        counts = after
    return sum(counts.values())


def feasible_status_vectors(unit: UnitParams, periods: int) -> tuple[tuple[int, ...], ...]:
    """All feasible status vectors, in lexicographic order.  They are built
    a period at a time (`_status_steps`), so no infeasible prefix is
    extended."""
    prefixes = [((), (unit.initial_status, 0, True))]
    for _ in range(periods):
        prefixes = [(u + (v,), step)
                    for u, state in prefixes for v, step in _status_steps(unit, state)]
    return tuple(u for u, _ in prefixes)


@dataclass(frozen=True)
class StatusTable:
    """The price-free part of a unit's commitment choices over a horizon:
    its feasible status vectors in lexicographic order and the startup
    cost of each (`_startup_cost`).

    Dispatch reads the startup costs once per solve, and pricing's per-unit
    oracle prices the vectors' margins once per price; neither multiplies
    a startup count by the unit's startup cost itself."""

    vectors: tuple[tuple[int, ...], ...]
    costs: tuple[float, ...]


def status_table(unit: UnitParams, periods: int) -> StatusTable:
    """List the unit's feasible status vectors once, each with its startup
    cost."""
    vectors = feasible_status_vectors(unit, periods)
    return StatusTable(vectors, tuple(_startup_cost(unit, u) for u in vectors))


def _rule(unit: UnitParams) -> tuple:
    """The unit's commitment rule: the parameters its feasible status
    vectors and their startup counts depend on."""
    return unit.initial_status, unit.min_up, unit.min_down


class _Plan:
    """What dispatch and the price rules read off an instance's units,
    worked out once per instance (`_plan_of`):

    - `groups` and `group_of`: the units grouped by `unit_key` (`_groups`),
      as the indices of each group's units and, per unit, its group;
    - `counts`: per commitment rule (`_rule`), the number of feasible
      status vectors, counted without listing any;
    - `listings`: per rule, its status vectors and the `startup_count` of
      each, listed by `_shared_status_table` once a caller has checked its
      budget against the count, and `tables`: per unit index, its
      `StatusTable`;
    - `walk`: the entries of dispatch's hull-rate walk
      (`dispatch._walk`), which the T = 1 hull price reads too;
    - `oracles`: pricing's per-group oracles (`pricing._group_oracles`);
    - `dispatched`: the units' groups on the last schedule asked for
      (`_dispatched`).

    It refers to no instance and holds no closure, so it dies with its
    instance, by reference counting."""

    __slots__ = ("groups", "group_of", "counts", "listings", "tables", "walk", "oracles",
                 "dispatched")

    def __init__(self, units: Sequence[UnitParams], periods: int):
        firsts, self.group_of = _groups(map(unit_key, units))
        self.groups = [[] for _ in firsts]
        for i, g in enumerate(self.group_of):
            self.groups[g].append(i)
        self.counts = {}
        for i in firsts:
            rule = _rule(units[i])
            if rule not in self.counts:
                self.counts[rule] = _status_vector_count(units[i], periods)
        self.listings = {}
        self.tables = {}
        self.walk = None
        self.oracles = None
        self.dispatched = None

    def count(self, unit: UnitParams) -> int:
        """The number of the unit's feasible status vectors."""
        return self.counts[_rule(unit)]


def _plan_of(instance: MarketInstance) -> _Plan:
    """The instance's plan, made on first use and then held by the instance
    for as long as it lives.  Nothing is kept between two instances, even
    equal ones."""
    plan = instance._plan
    if plan is None:
        plan = _Plan(instance.units, instance.periods)
        object.__setattr__(instance, "_plan", plan)
    return plan


def _shared_status_table(instance: MarketInstance, i: int) -> StatusTable:
    """The status table of the instance's unit i, held by the instance's
    plan (`_plan_of`).  The unit's rule is listed once per instance, with
    each vector's `startup_count`, and a unit's costs are its startup cost
    times those counts: `_startup_cost`'s product, so the table is
    `status_table(unit, periods)` bit for bit.  Dispatch and the price
    rules read each group's table here, for the group's first unit, so a
    request that dispatches and prices lists each rule once.  Callers
    check their budget against the plan's count before they ask for a
    table."""
    plan = _plan_of(instance)
    table = plan.tables.get(i)
    if table is None:
        unit = instance.units[i]
        rule = _rule(unit)
        listing = plan.listings.get(rule)
        if listing is None:
            vectors = feasible_status_vectors(unit, instance.periods)
            listing = plan.listings[rule] = (
                vectors, tuple(startup_count(unit, u) for u in vectors))
        vectors, startups = listing
        table = plan.tables[i] = StatusTable(
            vectors, tuple(map(operator.mul, itertools.repeat(unit.startup_cost), startups)))
    return table


def validate_unit_schedule(
    unit: UnitParams,
    sched: UnitSchedule,
    periods: int,
    eq_tol: float = DEFAULT_TOLERANCES.eq_tol,
) -> None:
    """Raise ValidationError unless sched lies in the unit's feasible set."""
    if sched.periods != periods:
        raise ValidationError(
            f"unit {unit.id}: schedule covers {sched.periods} periods, expected {periods}"
        )
    if not status_vector_feasible(unit, sched.u):
        raise ValidationError(
            f"unit {unit.id}: status vector {sched.u} violates min up/down times"
        )
    for t, (u_t, g_t) in enumerate(zip(sched.u, sched.g)):
        lo = u_t * unit.g_min
        hi = u_t * unit.g_max
        if not (lo - eq_tol <= g_t <= hi + eq_tol):
            raise ValidationError(
                f"unit {unit.id}: output {g_t} in period {t + 1} outside "
                f"[{lo}, {hi}] for status {u_t}"
            )


def validate_schedule(instance: MarketInstance, schedule: Schedule) -> None:
    """Raise ValidationError unless every unit schedule is feasible: once
    per group of units with the same parameters and schedule, and once per
    schedule of the instance (`_dispatched`)."""
    _dispatched(instance, schedule)


class _Dispatched:
    """The units of an instance grouped on one schedule (`_dispatched`):

    - `scheds`: per unit in instance order, its UnitSchedule;
    - `firsts` and `group_of`: per group, the index of its first unit, and
      per unit, the index of its group (`_groups`).  A group is the units of
      one of the plan's `unit_key` groups with the same exact key
      (`exact_key`) of their parameters and schedule, since a bundle, a
      report and the schedule's JSON carry the unit's own numbers, down to
      the sign of a zero;
    - `types`: per group, the index of its unit type, the groups' exact
      `unit_key`s numbered in group order.

    Each group's first unit's schedule is validated once, at the instance's
    eq_tol, and stands for the group's: the first unit in instance order
    whose schedule fails is the first of its group."""

    __slots__ = ("scheds", "firsts", "group_of", "types")

    def __init__(self, instance: MarketInstance, plan: _Plan, scheds: list[UnitSchedule]):
        units = instance.units
        self.scheds = scheds
        if len(plan.groups) == len(units):
            # no two units share a `unit_key`, so each is a group of its own
            self.firsts = self.group_of = self.types = range(len(units))
        else:
            self.firsts, self.group_of = _groups(
                exact_key(unit_key(unit), s.u, s.g) for unit, s in zip(units, scheds))
            numbers: dict[str, int] = {}
            self.types = [numbers.setdefault(exact_key(unit_key(units[i])), len(numbers))
                          for i in self.firsts]
        for i in self.firsts:
            validate_unit_schedule(units[i], scheds[i], instance.periods, instance.tolerances.eq_tol)


def _dispatched(instance: MarketInstance, schedule: Schedule) -> _Dispatched:
    """The instance's units grouped and validated on `schedule`, which
    raises ValidationError as `validate_schedule` does.  The instance's plan
    holds the record of the last schedule, with its UnitSchedule objects,
    and hands it out while every unit's entry of `schedule` is the object it
    holds: a schedule with an entry replaced is grouped and validated
    afresh, and no id is reused."""
    plan = _plan_of(instance)
    scheds = [schedule.units.get(unit.id) for unit in instance.units]
    if plan.dispatched is None or not all(map(operator.is_, plan.dispatched.scheds, scheds)):
        missing = {u.id for u in instance.units} - set(schedule.units)
        if missing:
            raise ValidationError(f"schedule missing units {sorted(missing)}")
        plan.dispatched = _Dispatched(instance, plan, scheds)
    return plan.dispatched


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def startup_count(unit: UnitParams, u: Sequence[int]) -> int:
    """Number of startups in a status vector: the sum of u_t (1 - u_{t-1})
    with the initial status supplying u_0."""
    prev = unit.initial_status
    count = 0
    for u_t in u:
        count += int(u_t == 1 and prev == 0)
        prev = u_t
    return count


def _startup_cost(unit: UnitParams, u: Sequence[int]) -> float:
    """The startup cost of a status vector: the unit's startup cost times
    its `startup_count`.  Every startup cost in the package is this one
    product."""
    return unit.startup_cost * startup_count(unit, u)


def cost(
    unit: UnitParams,
    sched: UnitSchedule,
    eq_tol: float = DEFAULT_TOLERANCES.eq_tol,
) -> float:
    """Production plus startup cost of one unit schedule."""
    validate_unit_schedule(unit, sched, sched.periods, eq_tol)
    return unchecked_cost(unit, sched)


def unchecked_cost(unit: UnitParams, sched: UnitSchedule) -> float:
    """`cost` without validation, for schedules already known to be
    feasible, such as the points of the verification lattice."""
    energy = sum(unit.marginal_cost * g for g in sched.g)
    return energy + _startup_cost(unit, sched.u)


def schedule_cost(instance: MarketInstance, schedule: Schedule) -> float:
    return sum(cost(u, schedule.unit(u.id), instance.tolerances.eq_tol) for u in instance.units)


# ---------------------------------------------------------------------------
# verification lattice
# ---------------------------------------------------------------------------

def feasible_set_samples(
    unit: UnitParams,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    anchors: Iterable[UnitSchedule] = (),
    periods: int | None = None,
    eq_tol: float = DEFAULT_TOLERANCES.eq_tol,
) -> tuple[UnitSchedule, ...]:
    """Deterministic finite sample of the unit's feasible set.

    For every feasible status vector, online periods carry an equally spaced
    output grid of SAMPLE_GRID_POINTS values over [g_min, g_max] plus the
    outputs of any anchor schedule, offline periods carry output 0; the
    cross product over periods is taken per status vector and the result is
    deduplicated.  Anchor schedules must themselves be feasible.  Each is
    represented among the samples by the one point with its key
    (`_point_key`): itself, unless an output of the grid or of an earlier
    anchor shares its output's key in some period, as 0.8 does for
    0.8000000000000002.

    The deduplication works on the sorted online values, once
    (`_online_values`): values that round to the same 12 decimals are one
    value, the first of them, except that g_min and g_max are never merged
    with another.  The cross product of the distinct values then holds no
    two equal points, and the points are built without re-checking them
    (`UnitSchedule.__post_init__` would only copy their tuples).  An anchor
    that the cross product does not hold under these rules is appended
    after it.  This is the only code that knows the lattice's point order.
    """
    anchors = tuple(anchors)
    if periods is None:
        periods = anchors[0].periods if anchors else 1
    _check_sample_args(unit, formulation, anchors, periods, eq_tol)
    online_values = _online_values(unit, anchors)

    vectors = feasible_status_vectors(unit, periods)
    samples: list[UnitSchedule] = []
    for u_vec in vectors:
        outputs = itertools.product(*[online_values if u_t == 1 else (0.0,) for u_t in u_vec])
        samples.extend(map(_lattice_point, itertools.repeat(u_vec), outputs))
    # safety net: an anchor (whose status vector is feasible, as validated
    # above) that the cross product does not hold under its key, one with
    # an offline output of 1e-9, say, is added after it, once; its online
    # outputs are among the online values by their keys
    offline_key = _output_key(unit, 0.0)
    seen: set[tuple] = set()
    for a in anchors:
        a_key = _point_key(unit, a)
        on_grid = all(u_t == 1 or k == offline_key for u_t, k in zip(a.u, a_key[1]))
        if not on_grid and a_key not in seen:
            seen.add(a_key)
            samples.append(_lattice_point(a.u, a.g))
    return tuple(samples)


def _check_sample_args(
    unit: UnitParams,
    formulation: Formulation,
    anchors: tuple[UnitSchedule, ...],
    periods: int,
    eq_tol: float,
) -> None:
    """The checks `feasible_set_samples` makes before it samples: every
    anchor is feasible, and the formulation can read the unit's status."""
    for a in anchors:
        validate_unit_schedule(unit, a, periods, eq_tol)
    if formulation is Formulation.OUTPUT_ONLY and not unit.output_determines_status():
        raise ValidationError(
            f"unit {unit.id}: output-only formulation is ambiguous "
            "(g_min == 0 with positive startup cost)"
        )


def _sample_grid(unit: UnitParams) -> list[float]:
    """The SAMPLE_GRID_POINTS equally spaced online outputs over [g_min,
    g_max], which end at g_max exactly; g_min alone when the box is a
    point."""
    if unit.g_max == unit.g_min:
        return [unit.g_min]
    step = (unit.g_max - unit.g_min) / (SAMPLE_GRID_POINTS - 1)
    grid = [unit.g_min + k * step for k in range(SAMPLE_GRID_POINTS)]
    grid[-1] = unit.g_max
    return grid


def _online_values(unit: UnitParams, anchors: Iterable[UnitSchedule] = ()) -> list[float]:
    """The online outputs of the lattice anchored at `anchors`: the grid's
    and the anchors' online outputs in increasing order, the first of each
    key (`_output_key`) kept.  Two points with one status vector coincide
    when their outputs do period by period, so deduplicating these once
    leaves the cross product (`feasible_set_samples`) no two equal points.

    Only the box ends are their own keys; the other outputs' keys increase
    with the outputs, so an output shares a key with an earlier one only if
    it shares it with the last one kept that is not a box end.  Two outputs
    1e-11 or more apart never round to one 12-decimal key (where g + 1e-11
    rounds to g, the ulp of g exceeds 1e-12 and g is its own key), so the
    keys, whose rounding is the costly part, are compared only for outputs
    closer than that."""
    anchor_outputs = {g for a in anchors for g, u_t in zip(a.g, a.u) if u_t == 1}
    ends = (unit.g_min, unit.g_max)
    values: list[float] = []
    last = None   # the last output kept that is not a box end
    for g in sorted(set(_sample_grid(unit)) | anchor_outputs):
        if g in ends:
            values.append(float(g))
        elif last is None or g - last >= 1e-11 or _output_key(unit, g) != _output_key(unit, last):
            values.append(float(g))
            last = g
    return values


def _on_grid(unit: UnitParams, grid: Sequence[float], sched: UnitSchedule) -> bool:
    """Whether `feasible_set_samples` anchored at the feasible `sched`
    gives the points it gives with no anchor, where `grid` is the grid's
    online outputs, `_online_values(unit)`: every online output is a grid
    output under ==, and every offline output has the offline key.

    Membership is ==, not the 12-decimal key: 0.7999999999999999 sorts
    before the grid's 0.8 and would become the lattice value, and an
    offline 1e-9 adds a point after the cross product."""
    offline_key = _output_key(unit, 0.0)
    return all(g in grid if u_t == 1 else _output_key(unit, g) == offline_key
               for u_t, g in zip(sched.u, sched.g))


def _output_key(unit: UnitParams, g: float):
    # outputs within rounding of each other are one sample, but an anchor
    # output within rounding of g_min or g_max must not displace that box
    # end: the profit-maximizing outputs are box ends
    return (g,) if g in (unit.g_min, unit.g_max) else round(g, 12)


def _point_key(unit: UnitParams, sched: UnitSchedule) -> tuple:
    """The key by which `feasible_set_samples` identifies a schedule with
    its lattice point: the status vector and each output's key."""
    return sched.u, tuple(_output_key(unit, g) for g in sched.g)


def _lattice_point(u: tuple[int, ...], g: tuple[float, ...]) -> UnitSchedule:
    # a UnitSchedule from an int status tuple and a float output tuple of
    # one length, which __post_init__ would only copy
    point = object.__new__(UnitSchedule)
    fields = point.__dict__
    fields["u"] = u
    fields["g"] = g
    return point


# ---------------------------------------------------------------------------
# instance I/O
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    """Whether a value read from JSON is a number; int() and float() would
    also read the string "1" and true as 1."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value) -> float:
    """A field that holds a quantity: a JSON number, as a float.  Raises
    ValueError otherwise, for a JSON boolean or string too."""
    if not _is_number(value):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """A field that counts or indexes something: an int, or a float with an
    integral value such as 1.0.  Raises ValueError otherwise, for a JSON
    boolean or string too."""
    if not _is_number(value) or isinstance(value, float) and not value.is_integer():  # NaN, inf too
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _string(value) -> str:
    """A field that names something: a JSON string.  Raises ValueError
    otherwise, for a JSON null, number or boolean too, which str() would
    spell out as a name."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _expand_unit_type(spec: Mapping) -> list[UnitParams]:
    """One entry of "unit_types": either a counted type ("name", "count")
    expanded to ids name-1..name-count, or a single unit with explicit "id".
    The id and the name are JSON strings."""
    try:
        base = dict(
            g_min=_number(spec["g_min"]),
            g_max=_number(spec["g_max"]),
            marginal_cost=_number(spec["marginal_cost"]),
            startup_cost=_number(spec["startup_cost"]),
            initial_status=_integer(spec.get("initial_status", 0)),
            min_up=_integer(spec.get("min_up", 0)),
            min_down=_integer(spec.get("min_down", 0)),
        )
        if "id" in spec:
            return [UnitParams(id=_string(spec["id"]), **base)]
        name = _string(spec["name"])
        count = _integer(spec.get("count", 1))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad unit type entry: {spec!r} ({exc})") from exc
    if count < 1:
        raise ValidationError(f"unit type {name!r}: count must be >= 1")
    return [UnitParams(id=f"{name}-{k}", **base) for k in range(1, count + 1)]


def instance_from_dict(obj: Mapping) -> MarketInstance:
    if not isinstance(obj, Mapping):
        raise ValidationError("instance document must be a JSON object")
    try:
        periods = _integer(obj["periods"])
        demand = [_number(d) for d in obj["demand"]]
        type_specs = obj["unit_types"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"instance document missing or malformed field: {exc}") from exc
    if not isinstance(type_specs, (list, tuple)):
        raise ValidationError("unit_types must be a list")
    units: list[UnitParams] = []
    for spec in type_specs:
        units.extend(_expand_unit_type(spec))
    tol_obj = obj.get("tolerances", {})
    if not isinstance(tol_obj, Mapping):
        raise ValidationError("tolerances must be an object")
    try:
        eq_tol = _number(tol_obj.get("eq_tol", DEFAULT_TOLERANCES.eq_tol))
        opt_tol = _number(tol_obj.get("opt_tol", DEFAULT_TOLERANCES.opt_tol))
        report_digits = _integer(tol_obj.get("report_digits", DEFAULT_TOLERANCES.report_digits))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed tolerances: {exc}") from exc
    tolerances = ToleranceConfig(eq_tol=eq_tol, opt_tol=opt_tol, report_digits=report_digits)
    return MarketInstance(periods=periods, demand=tuple(demand), units=tuple(units), tolerances=tolerances)


def instance_to_dict(instance: MarketInstance) -> dict:
    """Inverse of instance_from_dict; collapses runs of identical units whose
    ids follow the name-1..name-n pattern back into counted unit types, and
    keeps any other id verbatim."""
    groups: list[dict] = []
    units = instance.units
    i = 0
    while i < len(units):
        unit = units[i]
        name, dash, suffix = unit.id.rpartition("-")
        params = dict(zip(_PARAMS, unit_key(unit)))
        if dash and name and suffix == "1":
            count = 1
            while (
                i + count < len(units)
                and units[i + count].id == f"{name}-{count + 1}"
                and unit_key(units[i + count]) == unit_key(unit)
            ):
                count += 1
            groups.append({"name": name, "count": count, **params})
            i += count
        else:
            groups.append({"id": unit.id, **params})
            i += 1
    return {
        "periods": instance.periods,
        "demand": list(instance.demand),
        "unit_types": groups,
        "tolerances": {
            "eq_tol": instance.tolerances.eq_tol,
            "opt_tol": instance.tolerances.opt_tol,
            "report_digits": instance.tolerances.report_digits,
        },
    }


def load_instance(path: str) -> MarketInstance:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read instance file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"instance file {path!r} is not valid JSON: {exc}") from exc
    return instance_from_dict(obj)


def save_instance(instance: MarketInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# built-in example market
# ---------------------------------------------------------------------------

_SCARF_TYPES = (
    {"name": "Smokestack", "count": 6, "g_min": 0.0, "g_max": 16.0,
     "marginal_cost": 3.0, "startup_cost": 53.0},
    {"name": "High Tech", "count": 5, "g_min": 0.0, "g_max": 7.0,
     "marginal_cost": 2.0, "startup_cost": 30.0},
    {"name": "Med Tech", "count": 5, "g_min": 2.0, "g_max": 6.0,
     "marginal_cost": 7.0, "startup_cost": 0.0},
)


def scarf_instance(demand) -> MarketInstance:
    """Classic three-technology example market at the given demand.

    `demand` may be a scalar (single period) or a sequence of per-period
    values.
    """
    if isinstance(demand, (int, float)):
        demand = [float(demand)]
    demand = [float(d) for d in demand]
    return instance_from_dict(
        {"periods": len(demand), "demand": demand, "unit_types": list(_SCARF_TYPES)}
    )
