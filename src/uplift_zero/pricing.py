"""Prices and per-unit profit maximization.

Two price rules are provided for a solved instance:

* convex_hull_price: the price vector maximizing the Lagrangian dual of the
  dispatch problem.  On a single-period horizon the dual is piecewise linear
  in the price and the exact maximizer is found by scanning its breakpoints;
  on longer horizons a projected subgradient ascent with diminishing steps
  returns the best iterate found.
* marginal_price: the per-period dual price of the dispatch LP with the
  optimal commitment fixed (merit-order marginal cost rule).

Per-unit profit maximization under a fixed price has a closed form: for each
feasible status vector the optimal output sits at a box corner per period,
so the maximum is a finite scan over status vectors.  The vectors and their
startup counts do not depend on the price.  They form the unit's status
table (`model.status_table`), which is built once per call, or once per
price search for each group of identical units (`unit_key`, grouped by
`model._groups`, the package's one sharing rule); every unit of a group
reads its group's values back.
`_status_values` prices a table: two margin terms per period, then one sum
per vector, less its startup cost.  `unit_profit_max` is the table at one
price, with its argmax schedules and per-status outputs, and
`profit_given_status` prices a single vector.

The price search reads values only.  The breakpoint scan evaluates the dual
at every candidate price from the units' maxima alone, and the subgradient
reads each unit's maximum and the outputs of its first status vector within
opt_tol of it.  Neither builds a ProfitMax, a schedule or a dict per unit
and price.  Neither do the amendment builders, which read one unit's
maximum (`_unit_max_profit`), nor the market check at its perturbed
prices, which reads every unit's maxima at all of them from one
`_max_profits` call; at the market price it reads both maxima off the
unit reports of verification.  Every float is computed by the same
expression, in the same order, as when each unit is solved alone at each
price.

The verification lattice table (`LatticeTable`, built by `lattice_table`)
is held a column at a time.  Its costs, its expression columns and its
profits at a price are computed a period or a node at a time for every
point together, by the per-point formulas (`unchecked_cost`, `_profit`,
`Expr.evaluate`) with the same operations in the same order, so every
value is bit for bit the one a point-by-point walk gives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import dispatch
from .errors import EnumerationLimitError, PreconditionError, ValidationError
from .expr import Expr, evaluate_columns
from .model import (
    DEFAULT_TOLERANCES,
    Formulation,
    MarketInstance,
    Schedule,
    StatusTable,
    ToleranceConfig,
    UnitParams,
    UnitSchedule,
    _groups,
    _status_vector_count,
    cost,
    feasible_set_samples,
    startup_count,
    status_table,
    status_vector_feasible,
    unit_key,
    validate_schedule,
)

SUBGRADIENT_MAX_ITERS = 10_000
SUBGRADIENT_PATIENCE = 100
SUBGRADIENT_STEP = 1.0


def as_price(p, periods: int) -> tuple[float, ...]:
    """Normalize a scalar or sequence price to a per-period tuple of finite
    numbers."""
    if isinstance(p, (int, float)):
        p = (float(p),) * periods
    else:
        p = tuple(float(v) for v in p)
        if len(p) != periods:
            raise ValidationError(f"price vector has {len(p)} entries for {periods} periods")
    if not all(map(math.isfinite, p)):
        raise ValidationError(f"price must be finite, got {list(p)}")
    return p


def _profit(p: Sequence[float], g: Sequence[float], c: float) -> float:
    # the one per-point profit formula: revenue at p minus the cost c; the
    # sum starts at int 0 and adds p_t * g_t in period order
    return sum(map(operator.mul, p, g)) - c


def standard_profit(unit: UnitParams, p: Sequence[float], sched: UnitSchedule) -> float:
    """Revenue at price p minus the unit's cost, for one schedule."""
    p = as_price(p, sched.periods)
    return _profit(p, sched.g, cost(unit, sched))


def _best_outputs_for_status(
    unit: UnitParams, p: Sequence[float], u: Sequence[int]
) -> tuple[float, ...]:
    """Profit-maximizing outputs for a fixed status vector: g_max whenever the
    price covers marginal cost (ties go to g_max), else g_min."""
    return tuple(
        (unit.g_max if pt >= unit.marginal_cost else unit.g_min) if u_t == 1 else 0.0
        for pt, u_t in zip(p, u)
    )


@dataclass(frozen=True)
class ProfitMax:
    """Result of maximizing one unit's standard profit over its feasible set."""

    value: float
    argmax_points: tuple[UnitSchedule, ...]
    per_status: Mapping[tuple[int, ...], tuple[float, tuple[float, ...]]]


def _status_values(
    unit: UnitParams, table: StatusTable, prices: Iterable[tuple[float, ...]]
) -> list[list[float]]:
    """Per normalized price, the best profit of each status vector of the
    table, in table order: the margin of `_best_outputs_for_status` less
    the startup cost.

    The startup costs are priced once.  At each price, each period has two
    margin terms, (p_t - c) * 0.0 offline and (p_t - c) * g_max or g_min
    online, computed once; a vector's margin is the `sum` of its terms in
    period order."""
    mc, g_min, g_max, sc = unit.marginal_cost, unit.g_min, unit.g_max, unit.startup_cost
    startup_costs = [(u, sc * k) for u, k in zip(table.vectors, table.starts)]
    pick = tuple.__getitem__
    out = []
    for p in prices:
        # plain loops: a comprehension costs a frame per call here
        terms = []
        for pt in p:
            margin = pt - mc
            terms.append((margin * 0.0, margin * (g_max if pt >= mc else g_min)))
        values = []
        for u, c in startup_costs:
            values.append(sum(map(pick, terms, u)) - c)
        out.append(values)
    return out


def _profit_max(
    unit: UnitParams, table: StatusTable, p: tuple[float, ...], tol: ToleranceConfig
) -> ProfitMax:
    # the value is the first largest status value (a later one must be
    # strictly larger to replace it), as max() returns
    values = _status_values(unit, table, (p,))[0]
    best = max(values)
    per_status = {
        u: (value, _best_outputs_for_status(unit, p, u))
        for u, value in zip(table.vectors, values)
    }
    argmax = tuple(
        UnitSchedule(u, g)
        for u, (value, g) in per_status.items()
        if value >= best - tol.opt_tol
    )
    return ProfitMax(value=best, argmax_points=argmax, per_status=per_status)


def _unit_max_profit(unit: UnitParams, p: tuple[float, ...]) -> float:
    """`unit_profit_max(unit, p).value` at a normalized price, from the
    status values alone."""
    return max(_status_values(unit, status_table(unit, len(p)), (p,))[0])


def unit_profit_max(
    unit: UnitParams,
    p,
    periods: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ProfitMax:
    """Closed-form profit maximization over all feasible status vectors: the
    unit's status table (`model.status_table`) priced at p.

    The all-off vector is always feasible, so the value is never negative.
    per_status maps each feasible status vector, in lexicographic order, to
    its best profit and outputs; argmax_points lists the corner schedules
    whose profit is within opt_tol of the maximum, in the same order.
    """
    if periods is None:
        periods = len(p) if not isinstance(p, (int, float)) else 1
    return _profit_max(unit, status_table(unit, periods), as_price(p, periods), tol)


def profit_given_status(unit: UnitParams, p, u: Sequence[int]) -> float:
    """Maximum standard profit achievable with the status vector fixed: the
    one vector's entry of `unit_profit_max(...).per_status`, in O(T)."""
    p = as_price(p, len(u))
    if not status_vector_feasible(unit, u):
        raise ValidationError(f"unit {unit.id}: status vector {tuple(u)} is infeasible")
    u = tuple(int(v) for v in u)
    return _status_values(unit, StatusTable((u,), (startup_count(unit, u),)), (p,))[0][0]


def _column_sums(columns: list, n: int) -> Iterator:
    """Per point, the builtin `sum`, from int 0, of the columns' values in
    column order; int 0 at each of the n points when there is no column."""
    return map(sum, zip(*columns)) if columns else repeat(0, n)


@dataclass(frozen=True)
class LatticeTable:
    """One unit's verification lattice, with everything the "for every
    feasible point" checks read off it, held a column at a time.

    The points, their outputs and costs and the expression columns do not
    depend on the price: outputs[t][k] is points[k].g[t], and columns[j][k]
    is the j-th expression the table was built with, evaluated at
    points[k].  The rest is the table priced at one price p: profits[k] =
    p' g_k - costs[k] and gaps[k] = profits[k] - profit_max.value <= 0.
    `at_price` re-prices the same table.
    """

    unit: UnitParams
    points: tuple[UnitSchedule, ...]
    outputs: tuple[tuple[float, ...], ...]
    costs: tuple[float, ...]
    columns: tuple[tuple[float, ...], ...]
    tol: ToleranceConfig
    profits: tuple[float, ...] = ()
    gaps: tuple[float, ...] = ()
    profit_max: ProfitMax | None = None

    @property
    def values(self) -> tuple[tuple[float, ...], ...]:
        """The expression values a point at a time: values[k][j] =
        columns[j][k]."""
        return tuple(zip(*self.columns)) if self.columns else ((),) * len(self.points)

    def profits_at(self, q: tuple[float, ...]) -> Iterator[float]:
        """Every point's profit at a normalized price q, in point order:
        `_profit`, with each period's products taken for all points at
        once."""
        revenue = _column_sums([map(operator.mul, repeat(qt), col)
                                for qt, col in zip(q, self.outputs)], len(self.points))
        return map(operator.sub, revenue, self.costs)

    def at_price(self, q) -> "LatticeTable":
        """The same points, costs and columns priced at q, with the unit's
        profit maximum at q."""
        q = as_price(q, self.points[0].periods)
        pm = unit_profit_max(self.unit, q, len(q), self.tol)
        profits = tuple(self.profits_at(q))
        return replace(
            self, profits=profits,
            gaps=tuple(map(operator.sub, profits, repeat(pm.value))), profit_max=pm,
        )

    def weighted(self, multipliers: Sequence[float], skip: int | None = None) -> list[float]:
        """mu' rho at every point: the sum, from int 0, of m * value over
        the multipliers and the leading columns, in column order, leaving
        out column `skip`."""
        terms = [[m * v for v in col]
                 for l, (m, col) in enumerate(zip(multipliers, self.columns)) if l != skip]
        return list(_column_sums(terms, len(self.points)))

    def require_redundant(self) -> None:
        """Raise PreconditionError unless every column is a constraint
        rho <= 0 with a finite value at every point."""
        eq_tol = self.tol.eq_tol
        for l, col in enumerate(self.columns):
            for point, v in zip(self.points, col):
                if not -math.inf < v <= eq_tol:
                    what = "not finite" if v == -math.inf else "positive"
                    raise PreconditionError(
                        f"unit {self.unit.id}: constraint {l} is {what} ({v:.3g}) "
                        f"at {point.to_json()}, not redundant"
                    )

    def gap_violations(self, multipliers: Sequence[float], tol: float) -> Iterator[int]:
        """Indices of the points where mu' rho(x) >= pi(x) - pi_max - tol
        fails; the multipliers weight the leading columns."""
        for k, (weighted, gap) in enumerate(zip(self.weighted(multipliers), self.gaps)):
            if not weighted >= gap - tol:
                yield k

    def is_member(self, multipliers: Sequence[float], tol: float) -> bool:
        """Whether mu keeps the unit's profit maximum unchanged on the lattice."""
        return next(self.gap_violations(multipliers, tol), None) is None


def lattice_table(
    unit: UnitParams,
    p,
    exprs: Sequence[Expr] = (),
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    anchors: Iterable[UnitSchedule] = (),
    periods: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> LatticeTable:
    """Build the unit's verification lattice anchored at `anchors`, evaluate
    its costs and each of `exprs` a column at a time
    (`expr.evaluate_columns`), and price it at p.

    A point's cost is `unchecked_cost`: the energy sum over its periods,
    plus the startup cost of its status vector, which is computed once per
    vector.  The lattice does not depend on p: the profit-maximizing
    schedules at any price have outputs g_min, g_max or 0 per period, and
    those are on the grid of every feasible status vector already."""
    anchors = tuple(anchors)
    if periods is None:
        periods = anchors[0].periods if anchors else (len(p) if not isinstance(p, (int, float)) else 1)
    p = as_price(p, periods)
    points = feasible_set_samples(unit, formulation, anchors, periods, tol.eq_tol)
    outputs = tuple(zip(*map(operator.attrgetter("g"), points)))
    statuses = list(map(operator.attrgetter("u"), points))
    startups = {u: unit.startup_cost * startup_count(unit, u) for u in dict.fromkeys(statuses)}
    energy = _column_sums([map(operator.mul, repeat(unit.marginal_cost), col) for col in outputs],
                          len(points))
    return LatticeTable(
        unit=unit,
        points=points,
        outputs=outputs,
        costs=tuple(map(operator.add, energy, map(startups.__getitem__, statuses))),
        columns=evaluate_columns(exprs, points, tol.eq_tol, outputs),
        tol=tol,
    ).at_price(p)


def _unit_groups(
    instance: MarketInstance,
) -> tuple[list[tuple[UnitParams, StatusTable]], list[int]]:
    """Group the instance's identical units (`unit_key`) once: per group its
    first unit and that unit's status table, and per unit in instance order
    the index of its group.  A price search groups once for all its prices.
    Raises EnumerationLimitError, before listing any status vector, when a
    unit has more than `dispatch.PROFILE_LIMIT`."""
    firsts, group_of = _groups(map(unit_key, instance.units))
    units = [instance.units[i] for i in firsts]
    for unit in units:
        count = _status_vector_count(unit, instance.periods)
        if count > dispatch.PROFILE_LIMIT:
            raise EnumerationLimitError(
                f"unit {unit.id}: {count} status vectors over {instance.periods} periods "
                f"exceed the supported budget of {dispatch.PROFILE_LIMIT}"
            )
    return [(unit, status_table(unit, instance.periods)) for unit in units], group_of


def _max_profits(
    instance: MarketInstance, prices: Sequence[tuple[float, ...]]
) -> list[list[float]]:
    """`max_profits` at each of the normalized prices, with the units
    grouped once."""
    groups, group_of = _unit_groups(instance)
    by_group = [[max(values) for values in _status_values(unit, table, prices)]
                for unit, table in groups]
    return [[row[g] for g in group_of] for row in zip(*by_group)]


def _dual_value(instance: MarketInstance, q: tuple[float, ...], values: Iterable[float]) -> float:
    # revenue minus the profit maxima, added unit by unit in instance order
    revenue = sum(qt * dt for qt, dt in zip(q, instance.demand))
    return revenue - sum(values)


def max_profits(instance: MarketInstance, q) -> list[float]:
    """Every unit's profit maximum at q, in instance order: the value of
    `unit_profit_max`, solved once per group of identical units
    (`unit_key`) for the group's first unit, without building the argmax
    schedules and per-status outputs.

    The key compares with ==, so a unit with a parameter of -0.0 (or 1)
    can share the maximum of one with 0.0 (or 1.0)."""
    return _max_profits(instance, [as_price(q, instance.periods)])[0]


def dual_function(instance: MarketInstance, q) -> float:
    """Lagrangian dual of the dispatch problem at price vector q: revenue
    minus every unit's profit maximum (`max_profits`)."""
    q = as_price(q, instance.periods)
    return _dual_value(instance, q, max_profits(instance, q))


@dataclass(frozen=True)
class PriceResult:
    price: tuple[float, ...]
    dual_value: float
    method: str
    converged: bool
    iterations: int = 0


def _hull_price_single_period(instance: MarketInstance) -> PriceResult:
    # The dual is concave piecewise linear in the scalar price; its kinks lie
    # where some unit's best response changes, i.e. at marginal cost or at
    # the average cost of running flat out from cold.  Ties resolve to the
    # smallest maximizing price.  The dual is evaluated at every candidate
    # from the units' profit maxima alone.
    candidates = {0.0}
    for u in instance.units:
        candidates.add(u.marginal_cost)
        if u.g_max > 0:
            candidates.add(u.marginal_cost + u.startup_cost / u.g_max)
    candidates = sorted(candidates)
    prices = [as_price((q,), 1) for q in candidates]
    best_q, best_val = None, None
    for q, price, maxima in zip(candidates, prices, _max_profits(instance, prices)):
        val = _dual_value(instance, price, maxima)
        if best_val is None or val > best_val:
            best_q, best_val = q, val
    return PriceResult(
        price=(best_q,), dual_value=best_val, method="breakpoint-scan", converged=True
    )


def _best_responses_at(
    instance: MarketInstance,
) -> Callable[[tuple[float, ...]], list[tuple[float, tuple[float, ...]]]]:
    """Per unit in instance order, its profit maximum at a normalized price
    and the outputs of `unit_profit_max(...).argmax_points[0]`: those of the
    first status vector within opt_tol of the maximum.  Units are grouped
    once."""
    groups, group_of = _unit_groups(instance)
    opt_tol = instance.tolerances.opt_tol

    def respond(unit: UnitParams, table: StatusTable, q: tuple[float, ...]):
        values = _status_values(unit, table, (q,))[0]
        best = max(values)
        for u, value in zip(table.vectors, values):
            if value >= best - opt_tol:
                return best, _best_outputs_for_status(unit, q, u)

    def at(q: tuple[float, ...]) -> list[tuple[float, tuple[float, ...]]]:
        solved = [respond(unit, table, q) for unit, table in groups]
        return [solved[g] for g in group_of]

    return at


def _hull_price_subgradient(instance: MarketInstance) -> PriceResult:
    tol = instance.tolerances
    T = instance.periods
    responses_at = _best_responses_at(instance)
    q = (0.0,) * T
    responses = responses_at(q)
    best_q, best_val = q, _dual_value(instance, q, (value for value, _ in responses))
    last_improvement = 0
    k = 0
    for k in range(1, SUBGRADIENT_MAX_ITERS + 1):
        # supergradient of the dual: demand minus the aggregate best response
        # at q, read off the responses that gave the dual value at q
        total = [0.0] * T
        for _, g in responses:
            for t in range(T):
                total[t] += g[t]
        step = SUBGRADIENT_STEP / k
        q = as_price([max(0.0, qt + step * (dt - gt))
                      for qt, dt, gt in zip(q, instance.demand, total)], T)
        responses = responses_at(q)
        val = _dual_value(instance, q, (value for value, _ in responses))
        if val > best_val + tol.opt_tol:
            best_q, best_val, last_improvement = q, val, k
        elif val > best_val:
            best_q, best_val = q, val
        if k - last_improvement >= SUBGRADIENT_PATIENCE:
            return PriceResult(best_q, best_val, "subgradient", True, k)
    return PriceResult(best_q, best_val, "subgradient", False, k)


def convex_hull_price(instance: MarketInstance) -> PriceResult:
    """Price vector maximizing the Lagrangian dual.

    Exact on a single-period horizon; on longer horizons the result carries
    converged=False when the subgradient ascent hit its iteration budget
    without settling.
    """
    if instance.periods == 1:
        return _hull_price_single_period(instance)
    return _hull_price_subgradient(instance)


def marginal_price(instance: MarketInstance, x_star: Schedule) -> tuple[float, ...]:
    """Per-period marginal cost of the price-setting unit under the dispatched
    commitment: the most expensive unit dispatched strictly above its minimum;
    if every online unit sits at a bound, the cheapest online unit; 0 with
    nothing online."""
    validate_schedule(instance, x_star)
    eq_tol = instance.tolerances.eq_tol
    prices = []
    for t in range(instance.periods):
        online = [
            unit for unit in instance.units if x_star.unit(unit.id).u[t] == 1
        ]
        if not online:
            prices.append(0.0)
            continue
        above_min = [
            unit for unit in online
            if x_star.unit(unit.id).g[t] > unit.g_min + eq_tol
        ]
        if above_min:
            prices.append(max(u.marginal_cost for u in above_min))
        else:
            prices.append(min(u.marginal_cost for u in online))
    return tuple(prices)


def price_for_method(
    instance: MarketInstance, method: str, x_star: Schedule | None = None
) -> PriceResult:
    """Price the instance with the named rule ("chp" or "marginal"); the
    marginal rule needs the dispatched schedule."""
    if method == "chp":
        return convex_hull_price(instance)
    if method == "marginal":
        if x_star is None:
            raise PreconditionError("marginal pricing needs the dispatched schedule")
        p = marginal_price(instance, x_star)
        return PriceResult(p, dual_function(instance, p), "marginal", True)
    raise ValidationError(f"unknown price method {method!r}")
