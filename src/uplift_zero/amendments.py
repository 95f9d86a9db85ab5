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
(offline, at g_min or g_max, within eq_tol of one of them, or interior),
and whether the price covers a cold start at full output, p >= c + w /
g_max.  Each closed form branches on that result alone.

Identical units share work through one record of the dispatched groups
per instance and schedule (`model._dispatched`, held by the instance's
plan): the units with the same parameters and schedule, under an exact key
because a bundle, a report and the schedule's JSON carry the unit's own
numbers, down to the sign of a zero.  The record validates the schedule
once per group, and every layer after dispatch reads its groups instead of
grouping the units again.  A bundle names no unit, so a mapping from unit
ids to bundles is the group data: every unit of a group maps to one bundle
object.  `build_family` runs the builder once per group, on the unit's
oracle from the plan; `bundles_from_json` loads equal bundles as one
object; verification checks once per group, split only where its units
hold different bundle objects.  Each UnitReport keeps the lattice table
its checks read, the amended profit maximum and the residual uplift; the
market check reads its maxima off each table as soon as the group is
verified, and drops it.  A group's table is either its unit type's table
of the grid's points alone, handed on from the type's group before when
neither group's anchor adds a point, with only its own columns evaluated,
or a fresh `lattice_table` build, priced with the profit maximum from the
instance's plan.  No table is derived from another.
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
    _dispatched,
    _groups,
    _is_number,
    _on_grid,
    _online_values,
    exact_key,
    unchecked_cost,
    validate_unit_schedule,
)
from .pricing import (
    LatticeTable,
    _UnitOracle,
    _group_oracles,
    _maxima_at,
    _profit,
    _unit_oracle,
    _with_columns,
    as_price,
    lattice_table,
    standard_profit,
)
from .reporting import ConditionCheck, VerificationReport

DUAL_PRICE_OFFSETS = (-1.0, -0.5, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class AmendmentBundle:
    """An amendment together with its generating constraint family.  It
    names no unit: a mapping from unit ids to bundles gives every unit of a
    group of identical units one bundle object."""

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
            raise ValidationError("multipliers must be finite")
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
    def from_json(obj: Mapping) -> "AmendmentBundle":
        """The bundle `to_json` wrote: the family a string, `rho` and `mu`
        lists, and each multiplier a JSON number, not a bool or a string."""
        try:
            family, rho, mu = obj["family"], obj["rho"], obj["mu"]
            if not (isinstance(family, str) and type(rho) is list and type(mu) is list
                    and all(map(_is_number, mu))):
                raise TypeError("expected a string family and lists rho and mu of numbers")
            return AmendmentBundle(family, Formulation(obj["formulation"]),
                                   expr_from_dict(obj["N"]), tuple(map(expr_from_dict, rho)), mu)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("bad amendment bundle") from exc


def bundles_to_json(bundles: Mapping[str, AmendmentBundle]) -> dict:
    """Each bundle's `to_json` by unit id, in sorted order.  Units that hold
    one bundle object, as a group of identical units does, share one dict,
    which callers must not mutate."""
    # the mapping holds the bundles, so no id is reused during the call
    distinct = {id(b): b for b in bundles.values()}
    shared = {key: b.to_json() for key, b in distinct.items()}
    return {uid: shared[id(b)] for uid, b in sorted(bundles.items())}


def bundles_from_json(obj: Mapping) -> dict[str, AmendmentBundle]:
    """The bundles `bundles_to_json` wrote, by unit id.  Equal bundles load
    as one object: the exact key of their family, formulation, expressions
    and multipliers, which tells -0.0 from 0.0, decides.  A malformed
    bundle raises ValidationError naming its unit."""
    if not isinstance(obj, Mapping):
        raise ValidationError("amendment file must map unit ids to bundles")
    shared: dict[str, AmendmentBundle] = {}
    out = {}
    for uid, b in obj.items():
        try:
            bundle = AmendmentBundle.from_json(b)
        except ValidationError as exc:
            malformed = str(exc) == "bad amendment bundle"
            raise ValidationError(f"{exc} for unit {uid!r}" if malformed
                                  else f"unit {uid}: {exc}") from exc
        key = exact_key(bundle.family, bundle.formulation.value, bundle.amendment,
                        bundle.constraints, bundle.multipliers)
        out[uid] = shared.setdefault(key, bundle)
    return out


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
    validate_unit_schedule(unit, x_i_star, len(p), tol.eq_tol)
    return _profit(p, x_i_star.g, unchecked_cost(unit, x_i_star))


def _uplift_at(oracle: _UnitOracle, p, x_i_star: UnitSchedule,
               tol: ToleranceConfig) -> tuple[float, float, float]:
    p = as_price(p, oracle.periods)
    star = _dispatch_profit(oracle.unit, p, x_i_star, tol)
    best = oracle.maximum(p)
    gap = best - star
    if gap < 0.0:
        # the maximum is computed in closed form per status vector, so the
        # dispatched point can only exceed it by rounding noise
        if gap < -tol.opt_tol * max(1.0, abs(best)):
            raise ValidationError(
                f"unit {oracle.unit.id}: dispatch profit {star:.9g} exceeds the "
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
    return _uplift_delta(unit, p, x_i_star, formulation, tol)


def _uplift_delta(unit, p, x_i_star, formulation, tol, oracle=None) -> AmendmentBundle:
    _require_status_readable(unit, formulation)
    star, best, gap = _uplift_at(oracle or _UnitOracle(unit, x_i_star.periods), p, x_i_star, tol)
    marker = delta_of(x_i_star, formulation)
    return AmendmentBundle(
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
    return _constant_profit(unit, p, periods, formulation, tol)


def _constant_profit(unit, p, periods, formulation, tol, oracle=None) -> AmendmentBundle:
    p = as_price(p, periods)
    best = (oracle or _UnitOracle(unit, periods)).maximum(p)
    profit = profit_expr(unit, p, periods, formulation)
    return AmendmentBundle(
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
    return _general_form(unit, p, x_i_star, formulation, tol, gamma=gamma)


def _general_form(unit, p, x_i_star, formulation, tol, oracle=None, gamma=ZERO) -> AmendmentBundle:
    _require_status_readable(unit, formulation)
    star, best, gap = _uplift_at(oracle or _UnitOracle(unit, x_i_star.periods), p, x_i_star, tol)
    p_vec = as_price(p, x_i_star.periods)
    if isinstance(gamma, Const):
        if not gamma.value >= -tol.eq_tol:
            raise PreconditionError(f"unit {unit.id}: gamma is negative ({gamma.value:.3g})")
    else:
        # gamma is read on the verification lattice
        table = lattice_table(unit, p_vec, (gamma,), formulation, (x_i_star,), tol=tol)
        for point, val in zip(table.points, table.columns[0]):
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
        family="general-form",
        formulation=formulation,
        amendment=amendment,
        constraints=(neg(amendment),),
        multipliers=(1.0,),
    )


def _require_status_consistency(
    oracle: _UnitOracle, p, x_i_star: UnitSchedule, tol: ToleranceConfig, family: str
) -> tuple[float, float, float]:
    star, best, gap = _uplift_at(oracle, p, x_i_star, tol)
    by_status = oracle.value(as_price(p, oracle.periods), x_i_star.u)
    if abs(star - by_status) > tol.opt_tol:
        raise PreconditionError(
            f"unit {oracle.unit.id}: {family} family needs the dispatched outputs to be "
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
    return _status_delta(unit, p, x_i_star, Formulation.STATUS_OUTPUT, tol)


def _status_delta(unit, p, x_i_star, formulation, tol, oracle=None) -> AmendmentBundle:
    star, best, gap = _require_status_consistency(
        oracle or _UnitOracle(unit, x_i_star.periods), p, x_i_star, tol, "status-delta")
    marker = status_delta_of(x_i_star.u)
    return AmendmentBundle(
        family="status-delta",
        formulation=Formulation.STATUS_OUTPUT,
        amendment=scale(gap, marker),
        constraints=(neg(marker),),
        multipliers=(gap,),
    )


def build_status_profile(
    unit: UnitParams,
    p,
    x_i_star: UnitSchedule,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> AmendmentBundle:
    """Pays the gap between the profit maximum and the best profit of the
    realized status vector, via one delta constraint per feasible status
    vector.  The same marginal-pricing precondition as status-delta
    applies."""
    return _status_profile(unit, p, x_i_star, Formulation.STATUS_OUTPUT, tol)


def _status_profile(unit, p, x_i_star, formulation, tol, oracle=None) -> AmendmentBundle:
    periods = x_i_star.periods
    oracle = oracle or _UnitOracle(unit, periods)
    _require_status_consistency(oracle, p, x_i_star, tol, "status-profile")
    pm = oracle.profit_max(as_price(p, periods), tol)
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
        family="status-profile",
        formulation=Formulation.STATUS_OUTPUT,
        amendment=amendment,
        constraints=constraints,
        multipliers=multipliers,
    )


def _box_case(
    unit: UnitParams, p, x_i_star: UnitSchedule, formulation: Formulation,
    tol: ToleranceConfig, family: str, oracle: _UnitOracle | None,
) -> tuple[float, float, float, float, str, bool]:
    """The single-period box setting, checked and read once: returns
    (p0, g*, pi(x*), pi_max, where x* sits, whether p0 >= c + w / g_max).
    x* sits "offline"; at the "min" or "max" of its box, its output at the
    end or beyond it; "near-min" or "near-max", inside the box but within
    eq_tol of that end (the nearer one, g_min on a tie); or in its
    "interior".  The end forms are stated at the end's output, so near
    an end each closed form takes one that holds at x*'s own output
    instead, or, where the end form does, the end form."""
    if x_i_star.periods != 1:
        raise PreconditionError(f"{family} family needs a single-period horizon")
    if unit.initial_status != 0:
        raise PreconditionError(f"{family} family needs an initially offline unit")
    if not unit.g_min < unit.g_max:
        raise PreconditionError(f"{family} family needs g_min < g_max")
    (p0,) = as_price(p, 1)
    _require_status_readable(unit, formulation)
    star = _dispatch_profit(unit, (p0,), x_i_star, tol)
    best = (oracle or _UnitOracle(unit, 1)).maximum((p0,))
    g_star = x_i_star.g[0]
    if x_i_star.u[0] == 0:
        at = "offline"
    elif g_star <= unit.g_min:
        at = "min"
    elif g_star >= unit.g_max:
        at = "max"
    elif g_star - unit.g_min <= min(tol.eq_tol, unit.g_max - g_star):
        at = "near-min"
    elif unit.g_max - g_star <= tol.eq_tol:
        at = "near-max"
    else:
        at = "interior"
    return p0, g_star, star, best, at, p0 >= unit.marginal_cost + unit.startup_cost / unit.g_max


def _box_case_multipliers(unit: UnitParams, case: tuple) -> tuple[float, float, float]:
    """Multipliers on u*g_min - g <= 0, g - u*g_max <= 0, u - 1 <= 0.  The
    interior forms hold at any output in the box: covered, the amended
    profit is pi(g_max) on the whole online box, otherwise 0.  Near an end
    they serve, except that near g_min a covered price keeps the at-minimum
    form, which pays best - pi(x*) at x* and so holds there too."""
    p0, g_star, star, best, at, covered = case
    span = unit.g_max - unit.g_min
    if at == "offline":
        return 0.0, 0.0, best if covered else 0.0
    if at == "min" or (at == "near-min" and covered):
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
    return _linear_unit(unit, p, x_i_star, Formulation.STATUS_OUTPUT, tol)


def _linear_unit(unit, p, x_i_star, formulation, tol, oracle=None) -> AmendmentBundle:
    case = _box_case(unit, p, x_i_star, Formulation.STATUS_OUTPUT, tol, "linear-unit", oracle)
    mu = _box_case_multipliers(unit, case)
    constraints = tuple(build(unit) for build in _BOX_CONSTRAINTS)
    amendment = add(*(scale(m, neg(rho)) for m, rho in zip(mu, constraints)))
    return AmendmentBundle(
        family="linear-unit",
        formulation=Formulation.STATUS_OUTPUT,
        amendment=amendment,
        constraints=constraints,
        multipliers=mu,
    )


def _hull_status_output(unit: UnitParams, case: tuple) -> tuple[Expr, Expr, float]:
    p0, g_star, star, best, at, covered = case
    if at in ("near-min", "near-max") and not covered:
        # the profit is at most 0 on the whole box: pay it back
        profit = profit_expr(unit, (p0,), 1, Formulation.STATUS_OUTPUT)
        return neg(profit), profit, 1.0
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
    if at != "interior" and covered:
        cap = scale(best, Step(Output(0)))
        return Sub(cap, profit_g), Sub(profit_g, cap), 1.0
    if at == "min":
        online_min = standard_profit(unit, (p0,), UnitSchedule((1,), (unit.g_min,)))
        mu = -online_min / (unit.g_max - unit.g_min)
        rho = Sub(Output(0), scale(unit.g_max, Step(Output(0))))
        return scale(mu, neg(rho)), rho, mu
    if at != "interior":
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
    return _convex_hull(unit, p, x_i_star, formulation, tol)


def _convex_hull(unit, p, x_i_star, formulation, tol, oracle=None) -> AmendmentBundle:
    case = _box_case(unit, p, x_i_star, formulation, tol, "convex-hull", oracle)
    hull = _hull_output_only if formulation is Formulation.OUTPUT_ONLY else _hull_status_output
    amendment, rho, mu = hull(unit, case)
    return AmendmentBundle(
        family="convex-hull",
        formulation=formulation,
        amendment=amendment,
        constraints=(rho,),
        multipliers=(mu,),
    )


# Each family's builder takes (unit, p, x_i_star, formulation, tol,
# oracle=None): the arguments of the public builders, and the unit's
# `_UnitOracle` over the horizon, which `build_family` reads from the
# instance's plan (`pricing._unit_oracle`) and the public builders leave
# to the builder to make.
FAMILIES: dict[str, Callable[..., AmendmentBundle]] = {
    "uplift-delta": _uplift_delta,
    "constant-profit": lambda unit, p, x, formulation, tol, oracle=None: _constant_profit(
        unit, p, x.periods, formulation, tol, oracle),
    "general-form": _general_form,
    "status-delta": _status_delta,
    "status-profile": _status_profile,
    "linear-unit": _linear_unit,
    "convex-hull": _convex_hull,
}


def build_family(
    family: str,
    instance: MarketInstance,
    p,
    x_star: Schedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
) -> dict[str, AmendmentBundle]:
    """Build one bundle per unit with the named family.

    The builder runs once per group of units with the same parameters and
    dispatched schedule (`model._dispatched`, which validates x_star once
    per group and holds the groups for the rest of the request), for the
    group's first unit in instance order, with its oracle from the
    instance's plan (`pricing._unit_oracle`), so no status table is listed
    here; every unit of the group maps to that one bundle object.  The
    groups are exact (`exact_key`): the bundle carries the unit's own
    numbers, down to the sign of a zero.  A unit's effective formulation
    follows from its parameters, so it splits no group.
    """
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValidationError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        ) from None
    dispatched = _dispatched(instance, x_star)
    p = as_price(p, instance.periods)
    if formulation is not Formulation.STATUS_OUTPUT and family in (
        "status-delta", "status-profile", "linear-unit"
    ):
        raise PreconditionError(f"family {family} is defined on status and output")
    units = instance.units
    built = []
    for i in dispatched.firsts:
        # units whose status cannot be read off the output keep status terms
        form = (Formulation.STATUS_OUTPUT if formulation is Formulation.OUTPUT_ONLY
                and not units[i].output_determines_status() else formulation)
        built.append(builder(units[i], p, dispatched.scheds[i], form, instance.tolerances,
                             _unit_oracle(instance, i)))
    return {unit.id: built[g] for unit, g in zip(units, dispatched.group_of)}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class UnitReport(VerificationReport):
    """One unit's contract checks and the lattice table they read, with the
    amended profit maximum on it at the price and the residual uplift
    amended_max - (pi(x*) + N(x*)), which the market check sums.  The
    market check reads what it needs off the table and keeps the report
    with `table` None."""

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
    report keeps the table, which the market check reads and then drops.

    Each "for every lattice point" check is a reduction over the table's
    columns, and a witness is searched for only when a check fails:
    `nonnegative` and `constraint-nonpositive` name the first failing
    point, `dominates-profit-gap` and `amendment-matches-constraints` the
    last, and `max-profit-unchanged` the first point with the largest
    amended profit."""
    p = as_price(p, x_i_star.periods)
    # the amendment is the last column, after the constraints
    table = lattice_table(
        unit, p, bundle.constraints + (bundle.amendment,), bundle.formulation,
        anchors=(x_i_star,), periods=x_i_star.periods, tol=tol,
    )
    return _verify_on(table, unit, p, bundle, x_i_star, tol)


def _verify_on(
    table: LatticeTable,
    unit: UnitParams,
    p: tuple[float, ...],
    bundle: AmendmentBundle,
    x_i_star: UnitSchedule,
    tol: ToleranceConfig,
) -> UnitReport:
    """`verify_conditions` on a table already built at the normalized
    price p, with the bundle's constraints and then its amendment as the
    columns."""
    constraints, multipliers = bundle.constraints, bundle.multipliers
    pm = table.profit_max
    best = pm.value
    star = _profit(p, x_i_star.g, unchecked_cost(unit, x_i_star))
    gap = best - star
    scale_tol = tol.opt_tol * max(1.0, abs(best), abs(star))
    points, profits, n_col = table.points, table.profits, table.columns[-1]

    # the amended profits are read twice rather than held, so that a large
    # lattice holds no further column: the first maximiser is the first
    # point equal to the maximum, or the first point when the maximum is
    # NaN, which max() returns only from the first point
    amended_best = max(map(operator.add, profits, n_col))
    amended_best_k = (operator.indexOf(map(operator.add, profits, n_col), amended_best)
                      if amended_best == amended_best else 0)
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
    """Verify each group of units once.  Returns per group the index of its
    first unit, per unit the index of its group, and an iterator over the
    groups' reports in group order, each the one verify_conditions gives
    the group's first unit alone.  Every unit's bundle is looked up and the
    schedule validated first, so a missing one raises before any unit is
    verified; the iterator then verifies lazily, so a caller that stops at
    a bad group has verified no unit after it.

    The groups are the instance's groups on x_star (`model._dispatched`):
    units with the same parameters and schedule, under an exact key, since
    the report carries the unit's own numbers, down to the sign of a zero.
    `build_family` and `bundles_from_json` give each such group one bundle
    object; where its units hold different ones, the group is split by
    bundle.

    A run is the groups, one after another in group order, of one unit type
    (`_Dispatched.types`) with one formulation.  It computes the grid's
    online outputs (`model._online_values`) and the unit's profit maximum
    from the instance's plan (`pricing._unit_oracle`) once.  A group whose
    anchor is on the grid (`model._on_grid`) after a group whose table was
    built for an anchor on the grid keeps that table's points, costs and
    profits and evaluates only its own columns (`pricing._with_columns`);
    every other group's table is built afresh (`lattice_table`), with the
    run's profit maximum.  The table before is dropped before
    `lattice_table` builds the next, and its columns are dropped before the
    next group's are evaluated, so at most one table is alive here between
    groups."""
    units = instance.units
    dispatched = _dispatched(instance, x_star)
    held = [bundles.get(unit.id) for unit in units]
    if None in held:
        raise ValidationError(f"no bundle for unit {units[held.index(None)].id}")
    firsts, group_of = dispatched.firsts, dispatched.group_of
    if any(b is not held[firsts[g]] for b, g in zip(held, group_of)):
        # the mapping holds the bundles, so no id in the keys is reused
        firsts, group_of = _groups(zip(group_of, map(id, held)))
    tol, periods = instance.tolerances, instance.periods
    p = as_price(p, periods)

    def reports() -> Iterator[UnitReport]:
        # the run's unit type and formulation, its grid's online outputs and
        # its profit maximum; the last table, and whether it holds the
        # grid's points alone
        kind = grid = pm = table = None
        gridded = False
        for i in firsts:
            unit, bundle, x = units[i], held[i], dispatched.scheds[i]
            exprs = bundle.constraints + (bundle.amendment,)
            same = (dispatched.types[dispatched.group_of[i]], bundle.formulation)
            if same != kind:
                kind, gridded = same, False
                grid, pm = _online_values(unit), _unit_oracle(instance, i).profit_max(p, tol)
            on_grid = _on_grid(unit, grid, x)
            if gridded and on_grid:
                # the last group's columns go before this group's are
                # evaluated: a large lattice never holds two groups' columns
                table = replace(table, columns=())
                table = _with_columns(table, unit, exprs)
            else:
                table = None   # so that one table is alive while the next is built
                table = lattice_table(unit, p, exprs, bundle.formulation, (x,), periods, tol, pm)
            gridded = on_grid
            yield _verify_on(table, unit, p, bundle, x, tol)

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
    check_zero_total_uplift; an invalid schedule or a missing bundle raises
    before any unit is verified, and the first unit whose bundle fails
    raises."""
    firsts, _, reports = _unit_reports(instance, p, bundles, x_star)
    for i, report in zip(firsts, reports):
        needed = ("max-profit-unchanged", "zero-uplift-at-dispatch", "nonnegative")
        bad = [c for c in needed if not report.check_named(c).passed]
        if bad:
            raise PreconditionError(
                f"unit {instance.units[i].id}: bundle fails verification ({', '.join(bad)})"
            )
        report.table = None   # so that one table is alive while the next is built
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
    instance order, without its lattice table (`table` is None); units with
    the same parameters and dispatched schedule that hold one bundle object
    share one report, verified once for the first of them.  The schedule is
    validated, and the units grouped on it, once per instance and schedule
    (`model._dispatched`), so a request whose `build_family` has read the
    same schedule validates nothing here.  An invalid schedule, or a unit
    with no bundle, raises before any unit is verified.  The groups of one
    unit type that follow one another with anchors on the grid share one
    table, and every other group builds its own (`_unit_reports`); the
    market check lists no status table.  The market checks read
    values only, and read them off each distinct report's table as soon as
    it is verified, so that at most one table is alive at a time: at the
    market price the residual and both profit maxima, which the report
    computed, the standard one from the instance's plan, and at each
    perturbed price the amended maximum, the best of the table's points'
    profit plus amendment, computed for each group's table.  The standard
    maxima at the perturbed prices come from the units' status tables, once
    per parameter group and for all prices together (`_maxima_at` on the
    instance's `_group_oracles`), after every group is verified; no table
    or ProfitMax is re-priced.  The totals still add the maxima unit by
    unit in instance order."""
    p = as_price(p, instance.periods)
    firsts, group_of, verified = _unit_reports(instance, p, bundles, x_star)
    prices = [as_price(tuple(pt + offset for pt in p), instance.periods)
              for offset in DUAL_PRICE_OFFSETS]

    # per group: (standard, amended) profit maximum at p, and the amended
    # maximum at each perturbed price, read off its table (the amendment is
    # the last column) and kept without it, so that the table is freed
    # before the next group is verified
    reports, at_price, amended_at = [], [], []
    for rep in verified:
        at_price.append((rep.table.profit_max.value, rep.amended_max))
        amended_at.append([max(map(operator.add, rep.table.profits_at(q), rep.table.columns[-1]))
                           for q in prices])
        rep.table = None
        reports.append(rep)
    maxima_at = [at_price]
    for j, standard in enumerate(_maxima_at(*_group_oracles(instance), prices)):
        maxima_at.append([(standard[i], amended[j]) for i, amended in zip(firsts, amended_at)])
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
    band = instance.tolerances.opt_tol * len(instance.units)
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
