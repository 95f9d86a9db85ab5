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
holds the points, their costs (`unchecked_cost`), the checked expressions'
values and the standard profits at one price.
"""

from __future__ import annotations

import itertools
import json
import math
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


# ---------------------------------------------------------------------------
# status-vector feasibility
# ---------------------------------------------------------------------------

def _runs(values: Sequence[int]) -> list[tuple[int, int, int]]:
    """Maximal constant runs as (value, start, length)."""
    runs = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            runs.append((values[start], start, i - start))
            start = i
    return runs


def status_vector_feasible(unit: UnitParams, u: Sequence[int]) -> bool:
    """Min-up/min-down feasibility of a status vector.

    The unit is assumed to have been in its initial status long enough that a
    transition in period 1 is always allowed, and a run cut off by the end of
    the horizon is never rejected.
    """
    if any(v not in (0, 1) for v in u):
        return False
    runs = _runs(list(u))
    horizon = len(u)
    for idx, (value, start, length) in enumerate(runs):
        if start == 0 and value == unit.initial_status:
            continue  # continuation of the pre-horizon state
        if start + length == horizon:
            continue  # truncated by the horizon end
        required = unit.min_up if value == 1 else unit.min_down
        if length < required:
            return False
    return True


def feasible_status_vectors(unit: UnitParams, periods: int) -> tuple[tuple[int, ...], ...]:
    """All feasible status vectors, in lexicographic order."""
    out = []
    for u in itertools.product((0, 1), repeat=periods):
        if status_vector_feasible(unit, u):
            out.append(u)
    return tuple(out)


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
    """Raise ValidationError unless every unit schedule is feasible."""
    missing = {u.id for u in instance.units} - set(schedule.units)
    if missing:
        raise ValidationError(f"schedule missing units {sorted(missing)}")
    for unit in instance.units:
        validate_unit_schedule(
            unit, schedule.unit(unit.id), instance.periods, instance.tolerances.eq_tol
        )


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def startup_flags(unit: UnitParams, u: Sequence[int]) -> tuple[int, ...]:
    """Per-period startup indicators u_t (1 - u_{t-1}) with the initial status
    supplying u_0."""
    prev = unit.initial_status
    flags = []
    for u_t in u:
        flags.append(int(u_t == 1 and prev == 0))
        prev = u_t
    return tuple(flags)


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
    starts = sum(startup_flags(unit, sched.u))
    return energy + unit.startup_cost * starts


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
    deduplicated.  Anchor schedules must themselves be feasible and always
    appear among the samples.
    """
    anchors = tuple(anchors)
    if periods is None:
        periods = anchors[0].periods if anchors else 1
    for a in anchors:
        validate_unit_schedule(unit, a, periods, eq_tol)
    if formulation is Formulation.OUTPUT_ONLY and not unit.output_determines_status():
        raise ValidationError(
            f"unit {unit.id}: output-only formulation is ambiguous "
            "(g_min == 0 with positive startup cost)"
        )

    if unit.g_max == unit.g_min:
        grid = [unit.g_min]
    else:
        step = (unit.g_max - unit.g_min) / (SAMPLE_GRID_POINTS - 1)
        grid = [unit.g_min + k * step for k in range(SAMPLE_GRID_POINTS)]
        grid[-1] = unit.g_max
    anchor_outputs = sorted(
        {g for a in anchors for g, u_t in zip(a.g, a.u) if u_t == 1}
    )
    online_values = sorted(set(grid) | set(anchor_outputs))

    seen: set[tuple] = set()
    samples: list[UnitSchedule] = []

    def add(u_vec: tuple[int, ...], g_vec: tuple[float, ...]) -> None:
        # an anchor output within rounding of g_min or g_max must not displace
        # that box end: the profit-maximizing outputs are box ends
        key = (u_vec, tuple((g,) if g in (unit.g_min, unit.g_max) else round(g, 12) for g in g_vec))
        if key not in seen:
            seen.add(key)
            samples.append(UnitSchedule(u_vec, g_vec))

    for u_vec in feasible_status_vectors(unit, periods):
        per_period = [online_values if u_t == 1 else [0.0] for u_t in u_vec]
        for g_vec in itertools.product(*per_period):
            add(u_vec, tuple(g_vec))
    for a in anchors:
        add(a.u, a.g)  # safety net; the cross product already contains it
    return tuple(samples)


# ---------------------------------------------------------------------------
# instance I/O
# ---------------------------------------------------------------------------

def _expand_unit_type(spec: Mapping) -> list[UnitParams]:
    """One entry of "unit_types": either a counted type ("name", "count")
    expanded to ids name-1..name-count, or a single unit with explicit "id"."""
    try:
        base = dict(
            g_min=float(spec["g_min"]),
            g_max=float(spec["g_max"]),
            marginal_cost=float(spec["marginal_cost"]),
            startup_cost=float(spec["startup_cost"]),
            initial_status=int(spec.get("initial_status", 0)),
            min_up=int(spec.get("min_up", 0)),
            min_down=int(spec.get("min_down", 0)),
        )
        if "id" in spec:
            return [UnitParams(id=str(spec["id"]), **base)]
        name = spec["name"]
        count = int(spec.get("count", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad unit type entry: {spec!r}") from exc
    if count < 1:
        raise ValidationError(f"unit type {name!r}: count must be >= 1")
    return [UnitParams(id=f"{name}-{k}", **base) for k in range(1, count + 1)]


def instance_from_dict(obj: Mapping) -> MarketInstance:
    if not isinstance(obj, Mapping):
        raise ValidationError("instance document must be a JSON object")
    try:
        periods = int(obj["periods"])
        demand = [float(d) for d in obj["demand"]]
        type_specs = obj["unit_types"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"instance document missing or malformed field: {exc}") from exc
    units: list[UnitParams] = []
    for spec in type_specs:
        units.extend(_expand_unit_type(spec))
    tol_obj = obj.get("tolerances", {})
    if not isinstance(tol_obj, Mapping):
        raise ValidationError("tolerances must be an object")
    tolerances = ToleranceConfig(
        eq_tol=float(tol_obj.get("eq_tol", DEFAULT_TOLERANCES.eq_tol)),
        opt_tol=float(tol_obj.get("opt_tol", DEFAULT_TOLERANCES.opt_tol)),
        report_digits=int(tol_obj.get("report_digits", DEFAULT_TOLERANCES.report_digits)),
    )
    return MarketInstance(periods=periods, demand=tuple(demand), units=tuple(units), tolerances=tolerances)


def _unit_fields(unit: UnitParams) -> dict:
    return dict(
        g_min=unit.g_min,
        g_max=unit.g_max,
        marginal_cost=unit.marginal_cost,
        startup_cost=unit.startup_cost,
        initial_status=unit.initial_status,
        min_up=unit.min_up,
        min_down=unit.min_down,
    )


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
        params = _unit_fields(unit)
        if dash and name and suffix == "1":
            count = 1
            while (
                i + count < len(units)
                and units[i + count].id == f"{name}-{count + 1}"
                and _unit_fields(units[i + count]) == params
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
