"""Prices and per-unit profit maximization.

Two price rules are provided for a solved instance:

* convex_hull_price: the price vector maximizing the Lagrangian dual of the
  dispatch problem.  On a single-period horizon the dual is concave and
  piecewise linear in the price, and its exact maximizer is the breakpoint
  where the hull-rate merit order meets demand.  That breakpoint is the
  guess; it is certified against its two neighbours within a rounding
  bound, and where the certificate fails every breakpoint is scanned and
  the best wins; on longer horizons a projected subgradient ascent with
  diminishing steps returns the best iterate found.
* marginal_price: the per-period dual price of the dispatch LP with the
  optimal commitment fixed (merit-order marginal cost rule).

Per-unit profit maximization under a fixed price has a closed form: for each
feasible status vector the optimal output sits at a box corner per period,
so the maximum is a finite scan over status vectors.  One private object,
`_UnitOracle`, is the only code that prices a unit's status vectors.  It is
built from the unit and the horizon: it holds the unit's status table (its
feasible status vectors and their startup costs, `model.status_table`),
which does not depend on the price, and it checks the per-unit budget
(`dispatch.PROFILE_LIMIT` status vectors) before listing any.  It answers
the unit's values at one or many prices, its maximum, its first response
within opt_tol, its full ProfitMax and the value of one given vector.
`unit_profit_max` and `profit_given_status` build one per call.  The price
rules and the market check read one per group of identical units
(`unit_key`, grouped by `model._groups`, the package's one sharing rule),
and every unit of a group reads its group's answers back.  Those oracles
are built once per instance and held by its plan (`model._plan_of`), which
dispatch reads too: it groups the units once, counts each commitment
rule's status vectors once and lists them once, and every call checks
each group's budget against its rule's count before any vector is listed
(`_group_oracles`).  The T = 1 hull price reads the plan's hull-rate walk
(`dispatch._walk`), which the dispatch bound walks too.

The price search reads values only.  The breakpoint scan evaluates the dual
from the units' maxima alone, at the candidate prices its certificate
needs (three when the dual has a strict peak), and the subgradient reads
each unit's first response.  Neither builds a ProfitMax, a schedule or
a dict per unit and price.  Neither do the amendment builders, which read
one unit's maximum, nor the market check at its perturbed prices, which
reads every unit's maxima at all of them from one `_maxima_at` call on
the group oracles; at the market price it reads both maxima off the unit
reports of verification.
Every price rule returns the maxima its dual value was computed from
(`PriceResult.maxima`), and the CLI's uplift table reads them there.
Every float is computed by the same expression, in the same order, as when
each unit is solved alone at each price.

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
import sys
from dataclasses import dataclass, field, replace
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
    _check_sample_args,
    _plan_of,
    _shared_status_table,
    _startup_cost,
    _status_vector_count,
    cost,
    feasible_set_samples,
    status_table,
    status_vector_feasible,
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


def _check_budget(unit: UnitParams, periods: int, count: int) -> None:
    """Raise EnumerationLimitError when the unit's `count` feasible status
    vectors exceed `dispatch.PROFILE_LIMIT`, read at call time."""
    if count > dispatch.PROFILE_LIMIT:
        raise EnumerationLimitError(
            f"unit {unit.id}: {count} status vectors over {periods} periods "
            f"exceed the supported budget of {dispatch.PROFILE_LIMIT}"
        )


class _UnitOracle:
    """One unit's best responses over a horizon: the only code that prices
    the unit's status vectors.

    It is built from the unit and the horizon.  It counts the unit's
    feasible status vectors first and raises EnumerationLimitError, before
    listing any, when there are more than `dispatch.PROFILE_LIMIT`
    (`_check_budget`); then it lists them once, with their startup costs
    (`model.status_table`).  A price search passes the unit's status table
    instead, read from its instance after checking the budget itself
    (`_group_oracles`).

    At a normalized price p each period has two margin terms, (p_t - c) *
    0.0 offline and (p_t - c) * g_max or g_min online (the outputs of
    `_best_outputs_for_status`), computed once; a vector's value is the
    `sum` of its terms in period order less its startup cost.  The first
    largest value is the maximum, as max() returns it."""

    def __init__(self, unit: UnitParams, periods: int, table: StatusTable | None = None):
        if table is None:
            _check_budget(unit, periods, _status_vector_count(unit, periods))
            table = status_table(unit, periods)
        self.unit = unit
        self.periods = periods
        self.table = table

    def values(self, prices: Iterable[tuple[float, ...]]) -> list[list[float]]:
        """Per normalized price, every status vector's value, in table
        order."""
        mc, g_min, g_max = self.unit.marginal_cost, self.unit.g_min, self.unit.g_max
        vectors, costs = self.table.vectors, self.table.costs
        pick = tuple.__getitem__
        out = []
        for p in prices:
            # plain loops: a comprehension costs a frame per call here
            terms = []
            for pt in p:
                margin = pt - mc
                terms.append((margin * 0.0, margin * (g_max if pt >= mc else g_min)))
            values = []
            for u, c in zip(vectors, costs):
                values.append(sum(map(pick, terms, u)) - c)
            out.append(values)
        return out

    def maximum(self, p: tuple[float, ...]) -> float:
        """The unit's profit maximum at a normalized price."""
        return max(self.values((p,))[0])

    def respond(self, p: tuple[float, ...], opt_tol: float) -> tuple[float, tuple[float, ...]]:
        """The maximum at a normalized price and the outputs of the first
        status vector within opt_tol of it: those of
        `unit_profit_max(...).argmax_points[0]`."""
        values = self.values((p,))[0]
        best = max(values)
        for u, value in zip(self.table.vectors, values):
            if value >= best - opt_tol:
                return best, _best_outputs_for_status(self.unit, p, u)

    def profit_max(self, p: tuple[float, ...], tol: ToleranceConfig) -> ProfitMax:
        """The full `ProfitMax` at a normalized price."""
        values = self.values((p,))[0]
        best = max(values)
        per_status = {
            u: (value, _best_outputs_for_status(self.unit, p, u))
            for u, value in zip(self.table.vectors, values)
        }
        argmax = tuple(
            UnitSchedule(u, g)
            for u, (value, g) in per_status.items()
            if value >= best - tol.opt_tol
        )
        return ProfitMax(value=best, argmax_points=argmax, per_status=per_status)

    def value(self, p: tuple[float, ...], u: tuple[int, ...]) -> float:
        """The value of one feasible status vector at a normalized price:
        its entry of `values`."""
        return self.values((p,))[0][self.table.vectors.index(u)]


def unit_profit_max(
    unit: UnitParams,
    p,
    periods: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ProfitMax:
    """Closed-form profit maximization over all feasible status vectors: the
    unit's status table priced at p.

    The all-off vector is always feasible, so the value is never negative.
    per_status maps each feasible status vector, in lexicographic order, to
    its best profit and outputs; argmax_points lists the corner schedules
    whose profit is within opt_tol of the maximum, in the same order.
    Raises EnumerationLimitError, before listing any vector, when the unit
    has more than `dispatch.PROFILE_LIMIT` of them.
    """
    if periods is None:
        periods = len(p) if not isinstance(p, (int, float)) else 1
    return _UnitOracle(unit, periods).profit_max(as_price(p, periods), tol)


def profit_given_status(unit: UnitParams, p, u: Sequence[int]) -> float:
    """Maximum standard profit achievable with the status vector fixed: the
    one vector's entry of `unit_profit_max(...).per_status`."""
    p = as_price(p, len(u))
    if not status_vector_feasible(unit, u):
        raise ValidationError(f"unit {unit.id}: status vector {tuple(u)} is infeasible")
    return _UnitOracle(unit, len(u)).value(p, tuple(int(v) for v in u))


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
    those are on the grid of every feasible status vector already.  This
    is the only builder of lattice tables; the market check hands a table
    it built on to a unit of the same type whose anchor adds no point
    (`_hand_on`), which re-evaluates only the expression columns."""
    anchors = tuple(anchors)
    if periods is None:
        periods = anchors[0].periods if anchors else (len(p) if not isinstance(p, (int, float)) else 1)
    p = as_price(p, periods)
    points = feasible_set_samples(unit, formulation, anchors, periods, tol.eq_tol)
    outputs = tuple(zip(*map(operator.attrgetter("g"), points)))
    statuses = list(map(operator.attrgetter("u"), points))
    startups = {u: _startup_cost(unit, u) for u in dict.fromkeys(statuses)}
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


def _hand_on(
    table: LatticeTable,
    unit: UnitParams,
    exprs: Sequence[Expr],
    formulation: Formulation,
    anchor: UnitSchedule,
) -> LatticeTable:
    """`table` handed on to a unit with the same exact `unit_key`,
    formulation and horizon, where neither unit's anchor adds a point to
    the grid (`model._on_grid`), so that `lattice_table` would build the
    same points: it keeps the points, outputs, costs, profits, gaps and
    profit maximum, and evaluates only `exprs` as its columns.  The anchor
    gets the checks of a fresh build first."""
    _check_sample_args(unit, formulation, (anchor,), anchor.periods, table.tol.eq_tol)
    columns = evaluate_columns(exprs, table.points, table.tol.eq_tol, table.outputs)
    return replace(table, unit=unit, columns=columns)


def _group_oracles(instance: MarketInstance) -> tuple[list[_UnitOracle], list[int]]:
    """One oracle per group of identical units (`unit_key`), for the
    group's first unit, and per unit in instance order the index of its
    group, as the instance's plan holds them (`model._plan_of`).  Every
    call checks each group's budget against its rule's count, all of them
    before any vector is listed; the oracles are built on the first call
    that passes, each on the group's status table from the plan
    (`model._shared_status_table`), and every price rule and the market
    check on the instance reads the same ones."""
    plan = _plan_of(instance)
    units, periods = instance.units, instance.periods
    firsts = [g[0] for g in plan.groups]
    for i in firsts:
        _check_budget(units[i], periods, plan.count(units[i]))
    if plan.oracles is None:
        plan.oracles = [_UnitOracle(units[i], periods, _shared_status_table(instance, i))
                        for i in firsts]
    return plan.oracles, plan.group_of


def _maxima_at(
    oracles: Sequence[_UnitOracle], group_of: Sequence[int],
    prices: Sequence[tuple[float, ...]],
) -> list[list[float]]:
    """Per normalized price, every unit's profit maximum in instance order,
    read from its group's oracle."""
    by_group = [list(map(max, oracle.values(prices))) for oracle in oracles]
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
    return _maxima_at(*_group_oracles(instance), [as_price(q, instance.periods)])[0]


def dual_function(instance: MarketInstance, q) -> float:
    """Lagrangian dual of the dispatch problem at price vector q: revenue
    minus every unit's profit maximum (`max_profits`)."""
    q = as_price(q, instance.periods)
    return _dual_value(instance, q, max_profits(instance, q))


@dataclass(frozen=True)
class PriceResult:
    """A price and the dual value at it.  `maxima` holds every unit's
    profit maximum at `price`, in instance order: the values `dual_value`
    is computed from (`max_profits` at `price`, bit for bit), so that the
    uplift table needs no second solve."""

    price: tuple[float, ...]
    dual_value: float
    method: str
    converged: bool
    iterations: int = 0
    maxima: tuple[float, ...] = field(default=(), repr=False, compare=False)


def _hull_price_single_period(instance: MarketInstance) -> PriceResult:
    """The candidate price with the largest dual value, the smallest on a
    tie: the one a scan of every candidate returns, found by pricing only
    the candidates that a certificate needs.

    The dual D(q) = q d - sum_i max(0, (q - c_i) g_max_i - S_i) (with S_i
    0 for a unit already online) is concave and piecewise linear in the
    scalar price.  Its kinks lie where some unit's best response changes,
    at its marginal cost c or at the average cost c + S / g_max of running
    flat out from cold.  Those and 0 are the candidates, in increasing
    order; one at infinity, from a g_max near 0, is never the maximizer
    and is dropped.  D~(q) is the dual as computed from the units' profit
    maxima (`_maxima_at`, `_dual_value`).

    Guess.  The slope of D just above q is d less the capacity of the
    units whose hull rate is at most q, so D peaks at the hull rate where
    that capacity first reaches d: where the root walk of the dispatch
    bound, the hull-rate merit order (`dispatch._walk`), meets d.  That
    candidate k and its two neighbours are priced.  Nothing moves k: D
    peaks there, so no neighbour's D~ exceeds D~(k) by more than 2 delta.

    Certificate.  k is accepted when each neighbour's D~ is lower than
    D~(k) by more than 2 delta, where delta bounds |D~(q) - D(q)| at every
    candidate q.  With u = epsilon / 2, q^ the largest |candidate| and B_i
    = (q^ + |c_i|) g_max_i + S_i, which bounds unit i's profit maximum and
    each term of it, a unit's maximum rounds three times (q - c, the
    product, less the startup cost), within 3 u B_i; their sum from int 0
    adds (n - 1) u sum_i B_i, the revenue q d adds u q^ |d| and the final
    difference u M, with M = q^ |d| + sum_i B_i: (n + 3) u M to first
    order.  delta = 2 (n + 4) (epsilon M + eta) is four times (n + 4) u M,
    which covers the second-order terms and the rounding of delta and of
    the tests; eta, the smallest subnormal, covers each of the n + 1
    products that may underflow.  Then D(k +- 1) <= D~(k +- 1) + delta <
    D~(k) - delta <= D(k): the exact dual rises into k and falls out of
    it.  By concavity every other candidate j has D(j) < D(k +- 1) on its
    side of k, so D~(j) <= D(j) + delta < D~(k) too, and k is the first
    largest D~ of all candidates, the scan's answer.

    Fallback.  Where the certificate does not hold, on a plateau of the
    dual or within rounding of one (Scarf at demand 35 or 131), every
    candidate is priced, each once, and the first largest D~ wins, as in
    the full scan.  Every D~ and its maxima come from the same float
    expressions whichever candidates are priced, so the price, its dual
    value and its maxima are bit for bit the full scan's."""
    candidates = {0.0}
    for u in instance.units:
        candidates.add(u.marginal_cost)
        if u.g_max > 0:
            candidates.add(u.marginal_cost + u.startup_cost / u.g_max)
    candidates = sorted(filter(math.isfinite, candidates))
    oracles, group_of = _group_oracles(instance)
    priced: dict[int, tuple[float, list[float]]] = {}  # index -> (D~, maxima)

    def price(indices: Iterable[int]) -> None:
        new = [j for j in indices if j not in priced]
        if new:
            prices = [as_price((candidates[j],), 1) for j in new]
            for j, q, maxima in zip(new, prices, _maxima_at(oracles, group_of, prices)):
                priced[j] = (_dual_value(instance, q, maxima), maxima)

    need = d = instance.demand[0]
    for rate, _, room, _ in dispatch._walk(instance):
        if room is not None:  # at the root every group is undecided
            need -= room
            if need <= 0:
                break
    k = candidates.index(rate)
    q_hat = max(abs(candidates[0]), abs(candidates[-1]))
    scale = q_hat * abs(d)
    for u in instance.units:
        scale += (q_hat + abs(u.marginal_cost)) * u.g_max + u.startup_cost
    twice_delta = 4 * (len(instance.units) + 4) * (sys.float_info.epsilon * scale + math.ulp(0.0))
    last = len(candidates) - 1
    price(range(max(k - 1, 0), min(k + 1, last) + 1))
    here = priced[k][0]
    left = priced[k - 1][0] if k > 0 else -math.inf
    right = priced[k + 1][0] if k < last else -math.inf
    if not (here - left > twice_delta and here - right > twice_delta):
        price(range(last + 1))
        k = 0
        for j in range(1, last + 1):
            if priced[j][0] > priced[k][0]:
                k = j
    dual_value, maxima = priced[k]
    return PriceResult(
        price=(candidates[k],), dual_value=dual_value, method="breakpoint-scan", converged=True,
        maxima=tuple(maxima),
    )


def _best_responses_at(
    instance: MarketInstance,
) -> Callable[[tuple[float, ...]], list[tuple[float, tuple[float, ...]]]]:
    """Per unit in instance order, its best response at a normalized price
    (`_UnitOracle.respond`).  Units are grouped once."""
    oracles, group_of = _group_oracles(instance)
    opt_tol = instance.tolerances.opt_tol

    def at(q: tuple[float, ...]) -> list[tuple[float, tuple[float, ...]]]:
        solved = [oracle.respond(q, opt_tol) for oracle in oracles]
        return [solved[g] for g in group_of]

    return at


def _hull_price_subgradient(instance: MarketInstance) -> PriceResult:
    tol = instance.tolerances
    T = instance.periods
    responses_at = _best_responses_at(instance)
    q = (0.0,) * T
    responses = responses_at(q)
    best_q, best_val = q, _dual_value(instance, q, (value for value, _ in responses))
    best_responses = responses
    last_improvement = 0
    converged = False
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
            best_q, best_val, best_responses, last_improvement = q, val, responses, k
        elif val > best_val:
            best_q, best_val, best_responses = q, val, responses
        if k - last_improvement >= SUBGRADIENT_PATIENCE:
            converged = True
            break
    return PriceResult(best_q, best_val, "subgradient", converged, k,
                       maxima=tuple(value for value, _ in best_responses))


def convex_hull_price(instance: MarketInstance) -> PriceResult:
    """Price vector maximizing the Lagrangian dual.

    Exact on a single-period horizon: the smallest breakpoint price with
    the largest dual value, found at the hull-rate merit order's marginal
    breakpoint with a certificate, or by pricing every breakpoint where
    none holds (`_hull_price_single_period`).  On longer horizons the
    result carries converged=False when the subgradient ascent hit its
    iteration budget without settling.
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
        q = as_price(p, instance.periods)
        maxima = tuple(max_profits(instance, q))
        return PriceResult(p, _dual_value(instance, q, maxima), "marginal", True, maxima=maxima)
    raise ValidationError(f"unknown price method {method!r}")
