"""Independent reference implementations used only by the tests.

These deliberately avoid the package's solution paths: dispatch is solved by
exhaustive commitment enumeration plus LP vertex enumeration (no symmetry
reduction, no merit order), the hull price by a fine scan of the dual, the
per-unit profit maximum by a dense output grid, and the hull amendment by an
explicit lower convex envelope.  `reference_dispatch` is the package's
former dispatch enumerator, kept verbatim so the current one can be held to
it exactly.  The `reference_*` pricing, uplift and amendment functions are
the package's former per-unit loops, kept verbatim: they solve every unit on
its own, where the package now solves each group of identical units once.
`reference_unit_profit_max` is the package's former profit maximum, kept
verbatim: it enumerates and checks every status vector and builds every
schedule on each call, where the package prices a status table built once
per unit and price search.  The reference loops solve through it.
`reference_feasible_set_samples` is the package's former verification
lattice, kept verbatim: it builds every point of the cross product as a
UnitSchedule and deduplicates the points one by one, where the package
deduplicates the one-dimensional output list once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from uplift_zero import MarketInstance, Schedule, UnitParams, UnitSchedule, model
from uplift_zero.amendments import (
    DUAL_PRICE_OFFSETS,
    FAMILIES,
    MarketReport,
    verify_conditions,
)
from uplift_zero.dispatch import PROFILE_LIMIT
from uplift_zero.errors import (
    EnumerationLimitError,
    InfeasibleError,
    PreconditionError,
    ValidationError,
)
from uplift_zero.model import (
    DEFAULT_TOLERANCES,
    Formulation,
    ToleranceConfig,
    cost,
    feasible_status_vectors,
    status_vector_feasible,
    validate_schedule,
    validate_unit_schedule,
)
from uplift_zero.pricing import (
    SUBGRADIENT_MAX_ITERS,
    SUBGRADIENT_PATIENCE,
    SUBGRADIENT_STEP,
    PriceResult,
    ProfitMax,
    as_price,
    standard_profit,
)
from uplift_zero.reporting import ConditionCheck
from uplift_zero.uplift import UnitUplift, UpliftReport


def _period_vertex_dispatch(lows, highs, costs, demand, eq_tol):
    """Exact min-cost split of demand across closed intervals [lo, hi] with
    linear costs, by enumerating LP vertices: every unit at a bound except at
    most one."""
    n = len(lows)
    best = None
    for pattern in itertools.product((0, 1), repeat=n):
        base = [lows[i] if side == 0 else highs[i] for i, side in enumerate(pattern)]
        total = sum(base)
        if abs(total - demand) <= eq_tol:
            cost = sum(c * g for c, g in zip(costs, base))
            if best is None or cost < best[0]:
                best = (cost, base)
        for j in range(n):
            need = demand - (total - base[j])
            if lows[j] - eq_tol <= need <= highs[j] + eq_tol:
                g = list(base)
                g[j] = min(max(need, lows[j]), highs[j])
                cost = sum(c * v for c, v in zip(costs, g))
                if best is None or cost < best[0]:
                    best = (cost, g)
    return best


def brute_force_dispatch(instance: MarketInstance):
    """(total cost, Schedule) or None, by exhaustive commitment enumeration."""
    units = instance.units
    eq_tol = instance.tolerances.eq_tol
    per_unit_vectors = [feasible_status_vectors(u, instance.periods) for u in units]
    best = None
    for commitment in itertools.product(*per_unit_vectors):
        startup_cost = 0.0
        for unit, u in zip(units, commitment):
            prev = unit.initial_status
            for t in range(instance.periods):
                if u[t] and not prev:
                    startup_cost += unit.startup_cost
                prev = u[t]
        outputs = [[0.0] * instance.periods for _ in units]
        cost = startup_cost
        feasible = True
        for t in range(instance.periods):
            on = [i for i, u in enumerate(commitment) if u[t]]
            lows = [units[i].g_min for i in on]
            highs = [units[i].g_max for i in on]
            costs = [units[i].marginal_cost for i in on]
            hit = _period_vertex_dispatch(lows, highs, costs, instance.demand[t], eq_tol)
            if hit is None:
                feasible = False
                break
            cost += hit[0]
            for i, g in zip(on, hit[1]):
                outputs[i][t] = g
        if not feasible:
            continue
        if best is None or cost < best[0] - eq_tol:
            best = (
                cost,
                Schedule(units={
                    unit.id: UnitSchedule(tuple(u), tuple(g))
                    for unit, u, g in zip(units, commitment, outputs)
                }),
            )
    return best


def _reference_economic_dispatch(instance, commitment):
    """Merit-order dispatch under a fixed commitment, as the package computed
    it before the dispatch search was set up once per solve."""
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


def _reference_group_units(instance):
    """Indices of interchangeable units, grouped by identical parameters."""
    groups = {}
    for i, u in enumerate(instance.units):
        key = (u.g_min, u.g_max, u.marginal_cost, u.startup_cost,
               u.initial_status, u.min_up, u.min_down)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def reference_dispatch(instance: MarketInstance):
    """(schedule, total cost, profiles enumerated) by the former enumerator:
    every symmetry-reduced profile dispatched in full, ties broken towards
    the lexicographically largest status matrix."""
    groups = _reference_group_units(instance)
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

    def expand(assignment):
        # within a group the "most-on" vectors go to the lowest unit indices
        commitment = [None] * n
        for g, vectors in zip(groups, assignment):
            for idx, vec in zip(g, sorted(vectors, reverse=True)):
                commitment[idx] = vec
        return tuple(commitment)

    def evaluate(chunk):
        # best = (cost, tie_key, commitment, outputs); tie_key prefers 1s at
        # low flattened positions => lexicographically largest status matrix
        best = None
        for assignment in chunk:
            commitment = expand(assignment)
            dispatched = _reference_economic_dispatch(instance, commitment)
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
    return schedule, total, count


# ---------------------------------------------------------------------------
# the former per-unit loops, one computation per unit
# ---------------------------------------------------------------------------

def _reference_best_outputs_for_status(unit, p, u):
    """Profit-maximizing outputs for a fixed status vector: g_max whenever the
    price covers marginal cost (ties go to g_max), else g_min."""
    return tuple(
        (unit.g_max if pt >= unit.marginal_cost else unit.g_min) if u_t == 1 else 0.0
        for pt, u_t in zip(p, u)
    )


def _reference_startup_flags(unit, u):
    """Per-period startup indicators u_t (1 - u_{t-1}) with the initial status
    supplying u_0."""
    prev = unit.initial_status
    flags = []
    for u_t in u:
        flags.append(int(u_t == 1 and prev == 0))
        prev = u_t
    return tuple(flags)


def reference_unit_profit_max(
    unit: UnitParams,
    p,
    periods: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ProfitMax:
    """Closed-form profit maximization over all feasible status vectors.

    The all-off vector is always feasible, so the value is never negative.
    argmax_points lists the corner schedules whose profit is within opt_tol
    of the maximum.
    """
    if periods is None:
        periods = len(p) if not isinstance(p, (int, float)) else 1
    p = as_price(p, periods)
    per_status: dict[tuple[int, ...], tuple[float, tuple[float, ...]]] = {}
    best = None
    for u in feasible_status_vectors(unit, periods):
        g = _reference_best_outputs_for_status(unit, p, u)
        margin = sum((pt - unit.marginal_cost) * gt for pt, gt in zip(p, g))
        value = margin - unit.startup_cost * sum(_reference_startup_flags(unit, u))
        per_status[u] = (value, g)
        if best is None or value > best:
            best = value
    argmax = tuple(
        UnitSchedule(u, g)
        for u, (value, g) in per_status.items()
        if value >= best - tol.opt_tol
    )
    return ProfitMax(value=best, argmax_points=argmax, per_status=per_status)


def reference_dual_function(instance: MarketInstance, q) -> float:
    """Lagrangian dual of the dispatch problem at price vector q."""
    q = as_price(q, instance.periods)
    revenue = sum(qt * dt for qt, dt in zip(q, instance.demand))
    return revenue - sum(
        reference_unit_profit_max(u, q, instance.periods, instance.tolerances).value
        for u in instance.units
    )


def _reference_hull_price_single_period(instance: MarketInstance) -> PriceResult:
    candidates = {0.0}
    for u in instance.units:
        candidates.add(u.marginal_cost)
        if u.g_max > 0:
            candidates.add(u.marginal_cost + u.startup_cost / u.g_max)
    best_q, best_val = None, None
    # a breakpoint at infinity, from a g_max near 0, is never the maximizer
    for q in sorted(filter(math.isfinite, candidates)):
        val = reference_dual_function(instance, (q,))
        if best_val is None or val > best_val:
            best_q, best_val = q, val
    return PriceResult(
        price=(best_q,), dual_value=best_val, method="breakpoint-scan", converged=True
    )


def _reference_hull_price_subgradient(instance: MarketInstance) -> PriceResult:
    tol = instance.tolerances
    T = instance.periods
    q = [0.0] * T
    best_q, best_val = tuple(q), reference_dual_function(instance, q)
    last_improvement = 0
    k = 0
    for k in range(1, SUBGRADIENT_MAX_ITERS + 1):
        # supergradient of the dual: demand minus the aggregate best response
        total = [0.0] * T
        for unit in instance.units:
            pm = reference_unit_profit_max(unit, q, T, tol)
            g = pm.argmax_points[0].g
            for t in range(T):
                total[t] += g[t]
        step = SUBGRADIENT_STEP / k
        q = [max(0.0, qt + step * (dt - gt)) for qt, dt, gt in zip(q, instance.demand, total)]
        val = reference_dual_function(instance, q)
        if val > best_val + tol.opt_tol:
            best_q, best_val, last_improvement = tuple(q), val, k
        elif val > best_val:
            best_q, best_val = tuple(q), val
        if k - last_improvement >= SUBGRADIENT_PATIENCE:
            return PriceResult(best_q, best_val, "subgradient", True, k)
    return PriceResult(best_q, best_val, "subgradient", False, k)


def reference_convex_hull_price(instance: MarketInstance) -> PriceResult:
    """Price vector maximizing the Lagrangian dual, every unit solved on its own."""
    if instance.periods == 1:
        return _reference_hull_price_single_period(instance)
    return _reference_hull_price_subgradient(instance)


def reference_uplift_report(instance: MarketInstance, p, x_star: Schedule) -> UpliftReport:
    """Per-unit dispatched profit, best profit, and uplift at price p."""
    validate_schedule(instance, x_star)
    p = as_price(p, instance.periods)
    tol = instance.tolerances
    entries = []
    for unit in instance.units:
        dispatched = standard_profit(unit, p, x_star.unit(unit.id))
        best = reference_unit_profit_max(unit, p, instance.periods, tol).value
        gap = best - dispatched
        if abs(gap) <= tol.opt_tol:
            gap = 0.0
        entries.append(
            UnitUplift(
                unit_id=unit.id,
                dispatch_profit=dispatched,
                max_profit=best,
                uplift=gap,
            )
        )
    return UpliftReport(entries=tuple(entries))


def reference_build_family(
    family: str,
    instance: MarketInstance,
    p,
    x_star: Schedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
):
    """Build one bundle per unit with the named family."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValidationError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        ) from None
    validate_schedule(instance, x_star)
    p = as_price(p, instance.periods)
    if formulation is not Formulation.STATUS_OUTPUT and family in (
        "status-delta", "status-profile", "linear-unit"
    ):
        raise PreconditionError(f"family {family} is defined on status and output")
    bundles = {}
    for unit in instance.units:
        form = formulation
        # units whose status cannot be read off the output keep status terms
        if form is Formulation.OUTPUT_ONLY and not unit.output_determines_status():
            form = Formulation.STATUS_OUTPUT
        bundles[unit.id] = builder(
            unit, p, x_star.unit(unit.id), form, instance.tolerances
        )
    return bundles


def reference_check_zero_total_uplift(instance: MarketInstance, p, bundles, x_star: Schedule):
    """Market-level outcome checks, with verify_conditions run once per unit."""
    tol = instance.tolerances
    p = as_price(p, instance.periods)
    validate_schedule(instance, x_star)
    for unit in instance.units:
        if unit.id not in bundles:
            raise ValidationError(f"no bundle for unit {unit.id}")
    report = MarketReport(units={
        unit.id: verify_conditions(unit, p, bundles[unit.id], x_star.unit(unit.id), tol)
        for unit in instance.units
    })
    tables = [rep.table for rep in report.units.values()]

    def profit_maxima(priced):
        # per unit: (standard, amended) profit maximum; the amendment is the last column
        return [
            (t.profit_max.value, max(profit + row[-1] for profit, row in zip(t.profits, t.values)))
            for t in priced
        ]

    at_price = profit_maxima(tables)
    total_residual = 0.0
    worst = None
    for unit, (_, amended_max) in zip(instance.units, at_price):
        sched_star = x_star.unit(unit.id)
        residual = amended_max - (
            standard_profit(unit, p, sched_star)
            + bundles[unit.id].amendment.evaluate(sched_star, tol.eq_tol)
        )
        total_residual += residual
        if worst is None or residual > worst[1]:
            worst = (unit.id, residual)
    report.add(
        ConditionCheck(
            "zero-total-uplift",
            total_residual <= tol.opt_tol * len(instance.units),
            lhs=total_residual,
            rhs=0.0,
            witness={"worst_unit": worst[0], "residual": worst[1]} if worst else None,
        )
    )

    for offset in (0.0,) + DUAL_PRICE_OFFSETS:
        maxima = at_price if offset == 0.0 else profit_maxima(
            t.at_price(tuple(pt + offset for pt in p)) for t in tables
        )
        unamended_total = 0.0
        amended_total = 0.0
        for unamended, amended in maxima:
            unamended_total += unamended
            amended_total += amended
        band = tol.opt_tol * len(instance.units)
        if offset == 0.0:
            # at the market price the amended and unamended duals coincide
            report.add(
                ConditionCheck(
                    "amended-dual-at-price",
                    abs(amended_total - unamended_total) <= band,
                    lhs=amended_total,
                    rhs=unamended_total,
                    note="sum of profit maxima with vs without the amendments",
                )
            )
        else:
            # elsewhere amendments only raise profit maxima, so pricing the
            # aggregate constraint never improves the dual value
            report.add(
                ConditionCheck(
                    f"amended-dual-not-improved[{offset:+g}]",
                    amended_total >= unamended_total - band,
                    lhs=amended_total,
                    rhs=unamended_total,
                    note="pricing the aggregate constraint cannot raise the dual",
                )
            )
    return report


def unit_profit_max_oracle(unit: UnitParams, p, periods: int, grid: int = 2001) -> float:
    """Dense-grid profit maximum over the unit's feasible set."""
    p = (p,) * periods if isinstance(p, (int, float)) else tuple(p)
    best = None
    for u in feasible_status_vectors(unit, periods):
        axes = []
        for t in range(periods):
            if u[t]:
                axes.append(np.linspace(unit.g_min, unit.g_max, grid))
            else:
                axes.append(np.array([0.0]))
        startup = 0.0
        prev = unit.initial_status
        for t in range(periods):
            if u[t] and not prev:
                startup += unit.startup_cost
            prev = u[t]
        profit = -startup
        for t, axis in enumerate(axes):
            stage = (p[t] - unit.marginal_cost) * axis
            profit = profit + stage.max()
        if best is None or profit > best:
            best = float(profit)
    return best


def chp_scan(instance: MarketInstance, step: float = 1e-4):
    """Single-period hull price by scanning the dual on a uniform price grid.

    Returns (best price, best dual value)."""
    assert instance.periods == 1
    demand = instance.demand[0]
    top = max(
        (u.marginal_cost + (u.startup_cost / u.g_max if u.g_max > 0 else 0.0))
        for u in instance.units
    )
    qs = np.arange(0.0, top + 2.0 * step, step)
    dual = qs * demand
    for unit in instance.units:
        margin = qs - unit.marginal_cost
        online_best = np.maximum(margin * unit.g_max, margin * unit.g_min)
        if unit.initial_status == 0:
            online_best -= unit.startup_cost
        best = np.maximum(online_best, 0.0)
        dual = dual - best
    k = int(np.argmax(dual))
    return float(qs[k]), float(dual[k])


def dual_value_oracle(instance: MarketInstance, q: float) -> float:
    """Closed-form single-period dual at price q."""
    assert instance.periods == 1
    total = q * instance.demand[0]
    for unit in instance.units:
        margin = q - unit.marginal_cost
        online = max(margin * unit.g_max, margin * unit.g_min)
        if unit.initial_status == 0:
            online -= unit.startup_cost
        total -= max(online, 0.0)
    return total


def lower_envelope(points):
    """Lower convex envelope of 2-D points as a list of hull vertices sorted
    by x (monotone chain, lower hull only)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def envelope_eval(hull, x: float) -> float:
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 - 1e-12 <= x <= x2 + 1e-12:
            if x2 == x1:
                return min(y1, y2)
            lam = (x - x1) / (x2 - x1)
            return (1 - lam) * y1 + lam * y2
    raise ValueError(f"{x} outside envelope domain")


def hull_amendment_oracle_output_only(unit: UnitParams, gap: float, g_star: float):
    """The output-only hull amendment as N(g) = C(g) - env(g) where env is
    the lower convex envelope of the cost function minus a dip of `gap` at
    the dispatch output.  Returns a callable on g."""

    def cost(g: float) -> float:
        if g <= 0.0:
            return 0.0
        return unit.marginal_cost * g + unit.startup_cost * (1 - unit.initial_status)

    samples = {0.0, unit.g_min, unit.g_max, g_star}
    samples.update(np.linspace(unit.g_min, unit.g_max, 401).tolist())
    pts = []
    for g in sorted(samples):
        if 0.0 < g < unit.g_min:
            continue
        h = cost(g) - (gap if abs(g - g_star) < 1e-12 else 0.0)
        pts.append((g, h))
    hull = lower_envelope(pts)

    def amendment(g: float) -> float:
        return cost(g) - envelope_eval(hull, g)

    return amendment


def hull_amendment_oracle_online(unit: UnitParams, gap: float, g_star: float):
    """Online (u = 1) branch of the status+output hull amendment: envelope of
    the cost restricted to [g_min, g_max] with the dip at the dispatch
    output.  Returns a callable on g."""

    def cost(g: float) -> float:
        return unit.marginal_cost * g + unit.startup_cost * (1 - unit.initial_status)

    pts = []
    for g in sorted({unit.g_min, g_star, unit.g_max}):
        pts.append((g, cost(g) - (gap if abs(g - g_star) < 1e-12 else 0.0)))
    hull = lower_envelope(pts)

    def amendment(g: float) -> float:
        return cost(g) - envelope_eval(hull, g)

    return amendment


def reference_feasible_set_samples(
    unit: UnitParams,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    anchors=(),
    periods: int | None = None,
    eq_tol: float = DEFAULT_TOLERANCES.eq_tol,
) -> tuple[UnitSchedule, ...]:
    """The former `model.feasible_set_samples`, kept verbatim (it reads the
    grid size from the model module, as the package does)."""
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
        step = (unit.g_max - unit.g_min) / (model.SAMPLE_GRID_POINTS - 1)
        grid = [unit.g_min + k * step for k in range(model.SAMPLE_GRID_POINTS)]
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
