"""Revenue amendment builders and their verification.

An amendment is a per-unit function N(p, x) added to standard profit so that
the dispatched schedule becomes individually optimal at the market price.
Every builder returns an AmendmentBundle tying the amendment expression to
the redundant-constraint family and multipliers that generate it via
N = -mu' rho; the verifier checks the full contract: the per-unit profit
maximum is unchanged, the dispatch point earns exactly its lost profit back,
the amendment is non-negative and vanishes at every unamended profit
maximizer, the constraints are redundant, and the multipliers absorb the
dispatch-point gap while dominating the profit gap everywhere.

Builder families
----------------
uplift-delta      lump payment at the dispatched schedule only
constant-profit   pays the gap to the profit maximum everywhere
general-form      min of the constant-profit cap and a shifted delta payment
status-delta      lump payment on the dispatched status vector
status-profile    pays the gap to the best profit of each status vector
linear-unit       linear multipliers on the unit's own box constraints
convex-hull       exact convex-hull price amendment (tightest closed form)

The last four require single-period horizons or marginal-pricing style
preconditions; builders raise PreconditionError when their setting fails.
So does every builder asked for the output-only formulation on a unit
whose status its output does not determine.

linear-unit and convex-hull share one single-period case analysis
(`_box_case`): one period, an initially offline unit and g_min < g_max,
then pi(x*) and the profit maximum, where x* sits in the unit's box
(offline, at g_min or at g_max within eq_tol, or interior), and whether the
price covers a cold start at full output, p >= c + w / g_max.  Each closed
form branches on that result alone.

Identical units share work by the package's one rule (`model._groups`),
under an exact key (`exact_key(unit_key(unit), ...)`) because a bundle and
a report carry the unit's own numbers, down to the sign of a zero.
`build_family` runs the builder once per group of units with the same
parameters, dispatched schedule and formulation; verification runs
`verify_conditions` once per group that also shares its bundle.  Each
UnitReport keeps what the market check reads at the market price: the
lattice table, the amended profit maximum and the residual uplift.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping

from .errors import PreconditionError, ValidationError
from .expr import (
    Const,
    Expr,
    Max,
    Min,
    Mul,
    Output,
    Status,
    Step,
    Sub,
    ZERO,
    add,
    delta_of,
    evaluate_columns,
    expr_from_dict,
    neg,
    scale,
    status_delta_of,
)
from .model import (
    DEFAULT_TOLERANCES,
    Formulation,
    MarketInstance,
    Schedule,
    ToleranceConfig,
    UnitParams,
    UnitSchedule,
    _groups,
    exact_key,
    feasible_set_samples,
    unchecked_cost,
    unit_key,
    validate_schedule,
    validate_unit_schedule,
)
from .pricing import (
    LatticeTable,
    _max_profits,
    _profit,
    _unit_max_profit,
    as_price,
    lattice_table,
    profit_given_status,
    standard_profit,
    unit_profit_max,
)
from .reporting import ConditionCheck, VerificationReport

DUAL_PRICE_OFFSETS = (-1.0, -0.5, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class AmendmentBundle:
    """One unit's amendment together with its generating constraint family."""

    unit_id: str
    family: str
    formulation: Formulation
    amendment: Expr
    constraints: tuple[Expr, ...]
    multipliers: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "multipliers", tuple(float(m) for m in self.multipliers))
        if len(self.constraints) != len(self.multipliers):
            raise ValidationError("constraints and multipliers must align")
        if not all(map(math.isfinite, self.multipliers)):
            raise ValidationError(f"unit {self.unit_id}: multipliers must be finite")
        if any(m < 0 for m in self.multipliers):
            raise ValidationError("multipliers must be non-negative")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "formulation": self.formulation.value,
            "N": self.amendment.to_dict(),
            "rho": [c.to_dict() for c in self.constraints],
            "mu": list(self.multipliers),
        }

    @staticmethod
    def from_json(unit_id: str, obj: Mapping) -> "AmendmentBundle":
        try:
            return AmendmentBundle(
                unit_id=unit_id,
                family=str(obj["family"]),
                formulation=Formulation(obj["formulation"]),
                amendment=expr_from_dict(obj["N"]),
                constraints=tuple(expr_from_dict(c) for c in obj["rho"]),
                multipliers=tuple(float(m) for m in obj["mu"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad amendment bundle for unit {unit_id!r}") from exc


def bundles_to_json(bundles: Mapping[str, AmendmentBundle]) -> dict:
    return {uid: b.to_json() for uid, b in sorted(bundles.items())}


def bundles_from_json(obj: Mapping) -> dict[str, AmendmentBundle]:
    if not isinstance(obj, Mapping):
        raise ValidationError("amendment file must map unit ids to bundles")
    return {uid: AmendmentBundle.from_json(uid, b) for uid, b in obj.items()}


# ---------------------------------------------------------------------------
# profit expressions
# ---------------------------------------------------------------------------

def _require_status_readable(unit: UnitParams, formulation: Formulation) -> None:
    """The output-only formulation reads the status off the output, which a
    unit allows when g_min > 0 or it has no startup cost."""
    if formulation is Formulation.OUTPUT_ONLY and not unit.output_determines_status():
        raise PreconditionError(
            f"unit {unit.id}: output-only formulation is ambiguous "
            "(g_min == 0 with positive startup cost)"
        )


def _status_term(unit: UnitParams, t: int, formulation: Formulation) -> Expr:
    if formulation is Formulation.OUTPUT_ONLY:
        return Step(Output(t))
    return Status(t)


def profit_expr(unit: UnitParams, p, periods: int = 1,
                formulation: Formulation = Formulation.STATUS_OUTPUT) -> Expr:
    """Standard profit p'g - C(x) as an expression tree."""
    _require_status_readable(unit, formulation)
    p = as_price(p, periods)
    terms: list[Expr] = []
    for t in range(periods):
        terms.append(scale(p[t] - unit.marginal_cost, Output(t)))
        if unit.startup_cost != 0.0:
            now = _status_term(unit, t, formulation)
            if t == 0:
                started = scale(1 - unit.initial_status, now)
            else:
                prev = _status_term(unit, t - 1, formulation)
                started = Mul((now, Sub(Const(1.0), prev)))
            terms.append(scale(-unit.startup_cost, started))
    return add(*terms)


def _dispatch_profit(unit: UnitParams, p: tuple[float, ...], x_i_star: UnitSchedule,
                     tol: ToleranceConfig) -> float:
    # validate the dispatched schedule once, at tol, and price it as is
    validate_unit_schedule(unit, x_i_star, x_i_star.periods, tol.eq_tol)
    return _profit(p, x_i_star.g, unchecked_cost(unit, x_i_star))


def _uplift_at(unit: UnitParams, p, x_i_star: UnitSchedule,
               tol: ToleranceConfig) -> tuple[float, float, float]:
    p = as_price(p, x_i_star.periods)
    star = _dispatch_profit(unit, p, x_i_star, tol)
    best = _unit_max_profit(unit, p)
    gap = best - star
    if gap < 0.0:
        # the maximum is computed in closed form per status vector, so the
        # dispatched point can only exceed it by rounding noise
        if gap < -tol.opt_tol * max(1.0, abs(best)):
            raise ValidationError(
                f"unit {unit.id}: dispatch profit {star:.9g} exceeds the "
                f"computed maximum {best:.9g}"
            )
        gap = 0.0
    return star, best, gap


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_uplift_delta(
    unit: UnitParams,
    p,
    x_i_star: UnitSchedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> AmendmentBundle:
    """Lump payment of the lost profit, at the dispatched point only."""
    _require_status_readable(unit, formulation)
    star, best, gap = _uplift_at(unit, p, x_i_star, tol)
    marker = delta_of(x_i_star, formulation)
    return AmendmentBundle(
        unit_id=unit.id,
        family="uplift-delta",
        formulation=formulation,
        amendment=scale(gap, marker),
        constraints=(neg(marker),),
        multipliers=(gap,),
    )


def build_constant_profit(
    unit: UnitParams,
    p,
    periods: int = 1,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> AmendmentBundle:
    """Pays every point the gap to the profit maximum (flat amended profit)."""
    p = as_price(p, periods)
    best = _unit_max_profit(unit, p)
    profit = profit_expr(unit, p, periods, formulation)
    return AmendmentBundle(
        unit_id=unit.id,
        family="constant-profit",
        formulation=formulation,
        amendment=Sub(Const(best), profit),
        constraints=(Sub(profit, Const(best)),),
        multipliers=(1.0,),
    )


def build_general_form(
    unit: UnitParams,
    p,
    x_i_star: UnitSchedule,
    gamma: Expr = ZERO,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> AmendmentBundle:
    """Canonical valid amendment: min of the constant-profit cap and a
    delta payment shifted by any non-negative expression gamma."""
    _require_status_readable(unit, formulation)
    star, best, gap = _uplift_at(unit, p, x_i_star, tol)
    p_vec = as_price(p, x_i_star.periods)
    if isinstance(gamma, Const):
        if not gamma.value >= -tol.eq_tol:
            raise PreconditionError(f"unit {unit.id}: gamma is negative ({gamma.value:.3g})")
    else:
        # gamma is read on the verification lattice, which needs no price here
        points = feasible_set_samples(unit, formulation, (x_i_star,), x_i_star.periods,
                                      tol.eq_tol)
        (gammas,) = evaluate_columns((gamma,), points, tol.eq_tol)
        for point, val in zip(points, gammas):
            if not val >= -tol.eq_tol:
                raise PreconditionError(
                    f"unit {unit.id}: gamma is negative ({val:.3g}) at {point.to_json()}"
                )
    profit = profit_expr(unit, p_vec, x_i_star.periods, formulation)
    amendment = Min(
        (
            Sub(Const(best), profit),
            add(scale(gap, delta_of(x_i_star, formulation)), gamma),
        )
    )
    return AmendmentBundle(
        unit_id=unit.id,
        family="general-form",
        formulation=formulation,
        amendment=amendment,
        constraints=(neg(amendment),),
        multipliers=(1.0,),
    )


def _require_status_consistency(
    unit: UnitParams, p, x_i_star: UnitSchedule, tol: ToleranceConfig, family: str
) -> tuple[float, float, float]:
    star, best, gap = _uplift_at(unit, p, x_i_star, tol)
    by_status = profit_given_status(unit, p, x_i_star.u)
    if abs(star - by_status) > tol.opt_tol:
        raise PreconditionError(
            f"unit {unit.id}: {family} family needs the dispatched outputs to be "
            f"profit-maximal for their status vector (dispatch profit {star:.6g}, "
            f"best for status {by_status:.6g}); use marginal pricing"
        )
    return star, best, gap


def build_status_delta(
    unit: UnitParams,
    p,
    x_i_star: UnitSchedule,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> AmendmentBundle:
    """Lump payment on the dispatched status vector.  Needs the dispatched
    outputs to already be profit-maximal given that status (holds under
    marginal pricing of an optimal dispatch)."""
    star, best, gap = _require_status_consistency(unit, p, x_i_star, tol, "status-delta")
    marker = status_delta_of(x_i_star.u)
    return AmendmentBundle(
        unit_id=unit.id,
        family="status-delta",
        formulation=Formulation.STATUS_OUTPUT,
        amendment=scale(gap, marker),
        constraints=(neg(marker),),
        multipliers=(gap,),
    )


def build_status_profile(
    unit: UnitParams,
    p,
    x_i_star: UnitSchedule | None = None,
    periods: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> AmendmentBundle:
    """Pays the gap between the profit maximum and the best profit of the
    realized status vector, via one delta constraint per feasible status
    vector.  The same marginal-pricing precondition as status-delta applies
    when the dispatched schedule is supplied."""
    if x_i_star is None and periods is None:
        raise ValidationError("build_status_profile needs x_i_star or periods")
    if periods is None:
        periods = x_i_star.periods
    if x_i_star is not None:
        _require_status_consistency(unit, p, x_i_star, tol, "status-profile")
    pm = unit_profit_max(unit, p, periods, tol)
    best = pm.value
    # per_status runs over the feasible status vectors in lexicographic order
    vectors = tuple(pm.per_status)
    constraints = tuple(neg(status_delta_of(w)) for w in vectors)
    multipliers = tuple(best - value for value, _ in pm.per_status.values())
    if periods == 1:
        online = pm.per_status[(1,)][0]
        amendment = Sub(Const(best), scale(online, Status(0)))
    else:
        amendment = add(
            *(scale(m, status_delta_of(w)) for m, w in zip(multipliers, vectors))
        )
    return AmendmentBundle(
        unit_id=unit.id,
        family="status-profile",
        formulation=Formulation.STATUS_OUTPUT,
        amendment=amendment,
        constraints=constraints,
        multipliers=multipliers,
    )


def _box_case(
    unit: UnitParams, p, x_i_star: UnitSchedule, formulation: Formulation,
    tol: ToleranceConfig, family: str,
) -> tuple[float, float, float, float, str, bool]:
    """The single-period box setting, checked and read once: returns
    (p0, g*, pi(x*), pi_max, where x* sits, whether p0 >= c + w / g_max).
    x* sits "offline", at the "min" or "max" of its box (within eq_tol) or
    in its "interior".  In a box no wider than eq_tol, x* at g_max also lies
    within eq_tol of g_min; it sits at the "max", since the at-minimum
    multipliers divide by g_max - g*."""
    if x_i_star.periods != 1:
        raise PreconditionError(f"{family} family needs a single-period horizon")
    if unit.initial_status != 0:
        raise PreconditionError(f"{family} family needs an initially offline unit")
    if not unit.g_min < unit.g_max:
        raise PreconditionError(f"{family} family needs g_min < g_max")
    (p0,) = as_price(p, 1)
    _require_status_readable(unit, formulation)
    star = _dispatch_profit(unit, (p0,), x_i_star, tol)
    best = _unit_max_profit(unit, (p0,))
    g_star = x_i_star.g[0]
    if x_i_star.u[0] == 0:
        at = "offline"
    elif g_star <= unit.g_min + tol.eq_tol and g_star != unit.g_max:
        at = "min"
    elif g_star >= unit.g_max - tol.eq_tol:
        at = "max"
    else:
        at = "interior"
    return p0, g_star, star, best, at, p0 >= unit.marginal_cost + unit.startup_cost / unit.g_max


def _box_case_multipliers(unit: UnitParams, case: tuple) -> tuple[float, float, float]:
    """Multipliers on u*g_min - g <= 0, g - u*g_max <= 0, u - 1 <= 0."""
    p0, g_star, star, best, at, covered = case
    span = unit.g_max - unit.g_min
    if at == "offline":
        return 0.0, 0.0, best if covered else 0.0
    if at == "min":
        return 0.0, (best - star) / (unit.g_max - g_star), 0.0
    if at == "max":
        return (0.0, 0.0, 0.0) if covered else (-star / span, 0.0, 0.0)
    if covered:
        return 0.0, p0 - unit.marginal_cost, 0.0
    online_max = standard_profit(unit, (p0,), UnitSchedule((1,), (unit.g_max,)))
    online_min = standard_profit(unit, (p0,), UnitSchedule((1,), (unit.g_min,)))
    return -online_max / span, -online_min / span, 0.0


_BOX_CONSTRAINTS = (
    lambda unit: Sub(scale(unit.g_min, Status(0)), Output(0)),   # u g_min - g
    lambda unit: Sub(Output(0), scale(unit.g_max, Status(0))),   # g - u g_max
    lambda unit: Sub(Status(0), Const(1.0)),                     # u - 1
)


def build_linear_unit(
    unit: UnitParams,
    p,
    x_i_star: UnitSchedule,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> AmendmentBundle:
    """Multipliers on the unit's own box constraints (single period,
    initially offline): N = mu1 (g - u g_min) + mu2 (u g_max - g)
    + mu3 (1 - u), with the closed-form case analysis on the dispatch
    point's position and the price."""
    case = _box_case(unit, p, x_i_star, Formulation.STATUS_OUTPUT, tol, "linear-unit")
    mu = _box_case_multipliers(unit, case)
    constraints = tuple(build(unit) for build in _BOX_CONSTRAINTS)
    amendment = add(*(scale(m, neg(rho)) for m, rho in zip(mu, constraints)))
    return AmendmentBundle(
        unit_id=unit.id,
        family="linear-unit",
        formulation=Formulation.STATUS_OUTPUT,
        amendment=amendment,
        constraints=constraints,
        multipliers=mu,
    )


def _hull_status_output(unit: UnitParams, case: tuple) -> tuple[Expr, Expr, float]:
    _, g_star, star, best, at, _ = case
    if at != "interior":
        # outside the interior case the hull amendment coincides with the
        # dominant box constraint: the first positive of mu3, mu2, mu1
        mus = _box_case_multipliers(unit, case)
        l = next((k for k in (2, 1, 0) if mus[k] > 0), None)
        rho, mu = (ZERO, 0.0) if l is None else (_BOX_CONSTRAINTS[l](unit), mus[l])
        return scale(mu, neg(rho)), rho, mu
    up = scale(
        1.0 / (g_star - unit.g_min),
        Sub(Output(0), scale(unit.g_min, Status(0))),
    )
    down = scale(
        1.0 / (unit.g_max - g_star),
        Sub(scale(unit.g_max, Status(0)), Output(0)),
    )
    gap = best - star
    return scale(gap, Min((up, down))), Max((neg(up), neg(down))), gap


def _hull_output_only(unit: UnitParams, case: tuple) -> tuple[Expr, Expr, float]:
    p0, g_star, star, best, at, covered = case
    profit_g = profit_expr(unit, (p0,), 1, Formulation.OUTPUT_ONLY)
    w = unit.startup_cost
    if covered and (at == "offline" or (at == "min" and g_star == 0.0)):
        # a zero output reads as offline: cap the profit at its maximum
        return Sub(Const(best), profit_g), Sub(profit_g, Const(best)), 1.0
    if at == "offline" or (at == "max" and covered):
        return ZERO, ZERO, 0.0
    if at == "min":
        if covered:
            cap = scale(best, Step(Output(0)))
            return Sub(cap, profit_g), Sub(profit_g, cap), 1.0
        online_min = standard_profit(unit, (p0,), UnitSchedule((1,), (unit.g_min,)))
        mu = -online_min / (unit.g_max - unit.g_min)
        rho = Sub(Output(0), scale(unit.g_max, Step(Output(0))))
        return scale(mu, neg(rho)), rho, mu
    if at == "max":
        return neg(profit_g), profit_g, 1.0
    # interior dispatch
    if covered:
        first = scale(
            1.0 / g_star,
            add(
                scale(best - star, Output(0)),
                scale(w, Sub(scale(g_star, Step(Output(0))), Output(0))),
            ),
        )
        amendment = Min((first, Sub(Const(best), profit_g)))
        return amendment, neg(amendment), 1.0
    online_max = standard_profit(unit, (p0,), UnitSchedule((1,), (unit.g_max,)))
    second = scale(
        1.0 / (unit.g_max - g_star),
        add(
            scale(g_star, Sub(profit_g, Const(online_max))),
            scale(w, Sub(scale(unit.g_max, Step(Output(0))), Output(0))),
        ),
    )
    amendment = Min((neg(profit_g), second))
    return amendment, neg(amendment), 1.0


def build_convex_hull_amendment(
    unit: UnitParams,
    p,
    x_i_star: UnitSchedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> AmendmentBundle:
    """Amendment induced by convex-hull pricing of the single unit: the
    tightest closed form, piecewise linear around the dispatch point."""
    case = _box_case(unit, p, x_i_star, formulation, tol, "convex-hull")
    hull = _hull_output_only if formulation is Formulation.OUTPUT_ONLY else _hull_status_output
    amendment, rho, mu = hull(unit, case)
    return AmendmentBundle(
        unit_id=unit.id,
        family="convex-hull",
        formulation=formulation,
        amendment=amendment,
        constraints=(rho,),
        multipliers=(mu,),
    )


Builder = Callable[..., AmendmentBundle]

FAMILIES: dict[str, Builder] = {
    "uplift-delta": lambda unit, p, x, formulation, tol: build_uplift_delta(
        unit, p, x, formulation, tol
    ),
    "constant-profit": lambda unit, p, x, formulation, tol: build_constant_profit(
        unit, p, x.periods, formulation, tol
    ),
    "general-form": lambda unit, p, x, formulation, tol: build_general_form(
        unit, p, x, ZERO, formulation, tol
    ),
    "status-delta": lambda unit, p, x, formulation, tol: build_status_delta(
        unit, p, x, tol
    ),
    "status-profile": lambda unit, p, x, formulation, tol: build_status_profile(
        unit, p, x, None, tol
    ),
    "linear-unit": lambda unit, p, x, formulation, tol: build_linear_unit(
        unit, p, x, tol
    ),
    "convex-hull": lambda unit, p, x, formulation, tol: build_convex_hull_amendment(
        unit, p, x, formulation, tol
    ),
}


def build_family(
    family: str,
    instance: MarketInstance,
    p,
    x_star: Schedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
) -> dict[str, AmendmentBundle]:
    """Build one bundle per unit with the named family.

    The builder runs once per group of units with the same parameters,
    dispatched schedule and effective formulation, for the group's first
    unit in instance order; every other unit of the group gets a copy of
    that bundle under its own id.  The group key is exact (`exact_key`):
    the bundle carries the unit's own numbers, down to the sign of a zero.
    """
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
    units = instance.units
    scheds = [x_star.unit(unit.id) for unit in units]
    # units whose status cannot be read off the output keep status terms
    forms = [Formulation.STATUS_OUTPUT
             if formulation is Formulation.OUTPUT_ONLY and not unit.output_determines_status()
             else formulation for unit in units]
    firsts, group_of = _groups(map(exact_key, map(unit_key, units), scheds, forms))
    built = [builder(units[i], p, scheds[i], forms[i], instance.tolerances) for i in firsts]
    return {unit.id: built[g] if i == firsts[g] else replace(built[g], unit_id=unit.id)
            for i, (unit, g) in enumerate(zip(units, group_of))}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class UnitReport(VerificationReport):
    """One unit's contract checks and the lattice table they read, with the
    amended profit maximum on it at the price and the residual uplift
    amended_max - (pi(x*) + N(x*)), which the market check sums."""

    table: LatticeTable | None = field(default=None, repr=False, compare=False)
    amended_max: float | None = field(default=None, repr=False, compare=False)
    residual: float | None = field(default=None, repr=False, compare=False)


@dataclass
class MarketReport(VerificationReport):
    """The market checks, and each unit's report by unit id in instance order."""

    units: dict[str, UnitReport] = field(default_factory=dict)


def _witness(flags: Callable[[], Iterable], last: bool = False) -> int | None:
    """The first (or last) point at which a check fails, None when it
    holds at every point; `flags` gives the check's per-point flags, and is
    read a second time only when one fails."""
    if all(flags()):
        return None
    failing = [k for k, ok in enumerate(flags()) if not ok]
    return failing[-1] if last else failing[0]


def verify_conditions(
    unit: UnitParams,
    p,
    bundle: AmendmentBundle,
    x_i_star: UnitSchedule,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> UnitReport:
    """Full check of the amendment contract on the unit's lattice table; the
    report keeps the table for the market check.

    Each "for every lattice point" check is a reduction over the table's
    columns, and a witness is searched for only when a check fails:
    `nonnegative` and `constraint-nonpositive` name the first failing
    point, `dominates-profit-gap` and `amendment-matches-constraints` the
    last, and `max-profit-unchanged` the first point with the largest
    amended profit."""
    p = as_price(p, x_i_star.periods)
    constraints, multipliers = bundle.constraints, bundle.multipliers
    # the amendment is the last column, after the constraints
    table = lattice_table(
        unit, p, constraints + (bundle.amendment,), bundle.formulation,
        anchors=(x_i_star,), periods=x_i_star.periods, tol=tol,
    )
    pm = table.profit_max
    best = pm.value
    star = _profit(p, x_i_star.g, unchecked_cost(unit, x_i_star))
    gap = best - star
    scale_tol = tol.opt_tol * max(1.0, abs(best), abs(star))
    points, profits, n_col = table.points, table.profits, table.columns[-1]

    amended = list(map(operator.add, profits, n_col))
    amended_best = max(amended)
    amended_best_k = amended.index(amended_best)   # the first maximiser
    nonneg_k = _witness(lambda: map(operator.ge, n_col, repeat(-scale_tol)))
    strictly_below = any(n < best - pi - scale_tol for n, pi in zip(n_col, profits))
    redundant_witness = None
    first_bad = [_witness(lambda col=col: map(operator.le, col, repeat(tol.eq_tol)))
              for col in table.columns[:-1]]
    if any(k is not None for k in first_bad):
        # the first failing point, and the first constraint failing there
        k = min(k for k in first_bad if k is not None)
        l = next(l for l, col in enumerate(table.columns[:-1]) if not col[k] <= tol.eq_tol)
        redundant_witness = {"axis": l, "point": points[k].to_json()}
    weighted = table.weighted(multipliers)
    dominates_k = _witness(lambda: map(
        operator.ge, weighted,
        map(operator.sub, map(operator.sub, profits, repeat(best)), repeat(scale_tol))), last=True)
    matches_k = _witness(lambda: map(
        operator.le, map(abs, map(operator.add, n_col, weighted)), repeat(scale_tol)), last=True)

    argmax_ok, argmax_witness = True, None
    slack_ok, slack_witness = True, None
    for point in pm.argmax_points:
        if not abs(bundle.amendment.evaluate(point, tol.eq_tol)) <= scale_tol:
            argmax_ok, argmax_witness = False, point.to_json()
        for l, (m, rho) in enumerate(zip(multipliers, constraints)):
            if not abs(m * rho.evaluate(point, tol.eq_tol)) <= scale_tol:
                slack_ok = False
                slack_witness = {"axis": l, "point": point.to_json()}

    n_star = bundle.amendment.evaluate(x_i_star, tol.eq_tol)
    absorbed = sum(
        m * rho.evaluate(x_i_star, tol.eq_tol) for m, rho in zip(multipliers, constraints)
    )

    def witness(k: int | None) -> dict | None:
        return None if k is None else points[k].to_json()

    report = UnitReport(
        table=table, amended_max=amended_best, residual=amended_best - (star + n_star)
    )
    report.add(
        ConditionCheck(
            "max-profit-unchanged",
            abs(amended_best - best) <= scale_tol,
            lhs=amended_best,
            rhs=best,
            witness=witness(amended_best_k),
        )
    )
    report.add(
        ConditionCheck(
            "zero-uplift-at-dispatch",
            abs(n_star - gap) <= scale_tol,
            lhs=n_star,
            rhs=gap,
        )
    )
    report.add(ConditionCheck("nonnegative", nonneg_k is None, witness=witness(nonneg_k)))
    report.add(
        ConditionCheck(
            "strictly-below-profit-cap-somewhere",
            strictly_below,
            required=False,
            note="informational; constant-profit style amendments sit at the cap",
        )
    )
    report.add(ConditionCheck("zero-at-profit-argmax", argmax_ok, witness=argmax_witness))
    report.add(
        ConditionCheck("constraint-nonpositive", redundant_witness is None,
                       witness=redundant_witness)
    )
    report.add(
        ConditionCheck(
            "absorbs-uplift-at-dispatch",
            abs(absorbed - (star - best)) <= scale_tol,
            lhs=absorbed,
            rhs=star - best,
        )
    )
    report.add(ConditionCheck("dominates-profit-gap", dominates_k is None,
                              witness=witness(dominates_k)))
    report.add(ConditionCheck("complementary-slackness", slack_ok, witness=slack_witness))
    report.add(
        ConditionCheck("amendment-matches-constraints", matches_k is None,
                       witness=witness(matches_k))
    )
    return report


@dataclass(frozen=True)
class AggregateConstraint:
    """Single market-wide redundant constraint -sum_i N_i(p, x_i) <= 0,
    priced with multiplier nu."""

    amendments: Mapping[str, Expr]
    nu: float = 1.0

    def evaluate(self, schedule: Schedule, eq_tol: float = DEFAULT_TOLERANCES.eq_tol) -> float:
        return -sum(
            expr.evaluate(schedule.unit(uid), eq_tol)
            for uid, expr in self.amendments.items()
        )

    def to_json(self) -> dict:
        return {
            "nu": self.nu,
            "amendments": {uid: e.to_dict() for uid, e in sorted(self.amendments.items())},
        }


def _unit_reports(
    instance: MarketInstance,
    p,
    bundles: Mapping[str, AmendmentBundle],
    x_star: Schedule,
) -> tuple[list[int], list[int], Iterator[UnitReport]]:
    """Group the units (`model._groups`) and verify each group once.
    Returns per group the index of its first unit, per unit the index of
    its group, and an iterator over the groups' verify_conditions reports
    in group order.  The iterator verifies lazily, so a caller that stops
    at a bad group has verified no unit after it.

    A group is the units with the same parameters, dispatched schedule and
    bundle apart from its unit id, under an exact key (`exact_key`): the
    report carries the unit's own numbers, down to the sign of a zero.  The
    group's first unit is verified, and a missing bundle or schedule raises
    only when its unit is reached.

    The copies `build_family` makes share their amendment, constraints and
    multipliers, so each such object's `repr` is computed once per call.
    Bundles read from JSON are equal objects, not the same ones; they get
    a `repr` each and group as before."""
    units = instance.units
    # id -> (object, repr); holding the object keeps its id from being reused
    reprs: dict[int, tuple[object, str]] = {}

    def once(obj) -> str:
        hit = reprs.get(id(obj))
        if hit is None:
            hit = reprs[id(obj)] = (obj, exact_key(obj))
        return hit[1]

    def key(unit: UnitParams) -> tuple[str, ...]:
        bundle, sched = bundles.get(unit.id), x_star.units.get(unit.id)
        if bundle is None:
            return (exact_key(unit_key(unit), sched),)
        return (exact_key(unit_key(unit), sched, bundle.family, bundle.formulation),
                once(bundle.amendment), once(bundle.constraints), once(bundle.multipliers))

    firsts, group_of = _groups(map(key, units))

    def reports() -> Iterator[UnitReport]:
        for i in firsts:
            unit = units[i]
            bundle = bundles.get(unit.id)
            if bundle is None:
                raise ValidationError(f"no bundle for unit {unit.id}")
            yield verify_conditions(unit, p, bundle, x_star.unit(unit.id), instance.tolerances)

    return firsts, group_of, reports()


def aggregate_constraint(
    instance: MarketInstance,
    p,
    bundles: Mapping[str, AmendmentBundle],
    x_star: Schedule,
) -> AggregateConstraint:
    """Combine verified per-unit amendments into the single market-wide
    redundant constraint whose pricing removes all uplift.  Units are
    verified in instance order, once per group of identical units as in
    check_zero_total_uplift; the first unit whose bundle fails raises."""
    firsts, _, reports = _unit_reports(instance, p, bundles, x_star)
    for i, report in zip(firsts, reports):
        needed = ("max-profit-unchanged", "zero-uplift-at-dispatch", "nonnegative")
        bad = [c for c in needed if not report.check_named(c).passed]
        if bad:
            raise PreconditionError(
                f"unit {instance.units[i].id}: bundle fails verification ({', '.join(bad)})"
            )
    return AggregateConstraint(
        amendments={uid: b.amendment for uid, b in bundles.items()}
    )


def check_zero_total_uplift(
    instance: MarketInstance,
    p,
    bundles: Mapping[str, AmendmentBundle],
    x_star: Schedule,
) -> MarketReport:
    """Market-level outcome checks: residual uplift sums to zero and pricing
    the aggregate constraint leaves the dual value unchanged at the market
    price and at perturbed prices.

    Each unit's verify_conditions report is kept in `units`, by unit id in
    instance order; units with the same parameters, dispatched schedule and
    bundle apart from its unit id share one report, verified once for the
    first of them (so its table is that unit's).  The market checks read
    values only.  At the market price, the residual and both profit maxima
    are read off each distinct report, which computed them.  At the
    perturbed prices, the standard maxima come from the units' status
    tables, once per parameter group and for all prices together
    (`_max_profits`), and the amended maximum of each distinct table is the
    best of its stored points' profit plus amendment; no table or ProfitMax
    is re-priced.  The totals still add them unit by unit in instance
    order."""
    tol = instance.tolerances
    p = as_price(p, instance.periods)
    validate_schedule(instance, x_star)
    for unit in instance.units:
        if unit.id not in bundles:
            raise ValidationError(f"no bundle for unit {unit.id}")
    firsts, group_of, reports = _unit_reports(instance, p, bundles, x_star)
    reports = list(reports)

    # per price, per group: (standard, amended) profit maximum; the
    # amendment is the table's last column
    maxima_at = [[(r.table.profit_max.value, r.amended_max) for r in reports]]
    prices = [as_price(tuple(pt + offset for pt in p), instance.periods)
              for offset in DUAL_PRICE_OFFSETS]
    for q, standard in zip(prices, _max_profits(instance, prices)):
        maxima_at.append([
            (standard[i], max(map(operator.add, r.table.profits_at(q), r.table.columns[-1])))
            for i, r in zip(firsts, reports)
        ])
    report = MarketReport()
    total_residual = 0.0
    worst = None
    totals = [[0.0, 0.0] for _ in maxima_at]   # per price: unamended, amended
    for unit, group in zip(instance.units, group_of):
        rep = report.units[unit.id] = reports[group]
        total_residual += rep.residual
        if worst is None or rep.residual > worst[1]:
            worst = (unit.id, rep.residual)
        for total, maxima in zip(totals, maxima_at):
            total[0] += maxima[group][0]
            total[1] += maxima[group][1]
    band = tol.opt_tol * len(instance.units)
    report.add(
        ConditionCheck(
            "zero-total-uplift",
            total_residual <= band,
            lhs=total_residual,
            rhs=0.0,
            witness={"worst_unit": worst[0], "residual": worst[1]} if worst else None,
        )
    )
    for offset, (unamended_total, amended_total) in zip((0.0,) + DUAL_PRICE_OFFSETS, totals):
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
