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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

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
    validate_schedule,
    validate_unit_schedule,
)
from .pricing import (
    LatticeTable,
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

def _status_term(unit: UnitParams, t: int, formulation: Formulation) -> Expr:
    if formulation is Formulation.OUTPUT_ONLY:
        return Step(Output(t))
    return Status(t)


def profit_expr(unit: UnitParams, p, periods: int = 1,
                formulation: Formulation = Formulation.STATUS_OUTPUT) -> Expr:
    """Standard profit p'g - C(x) as an expression tree."""
    if formulation is Formulation.OUTPUT_ONLY and not unit.output_determines_status():
        raise PreconditionError(
            f"unit {unit.id}: output-only profit is ambiguous "
            "(g_min == 0 with positive startup cost)"
        )
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


def _uplift_at(unit: UnitParams, p, x_i_star: UnitSchedule,
               tol: ToleranceConfig) -> tuple[float, float, float]:
    p = as_price(p, x_i_star.periods)
    validate_unit_schedule(unit, x_i_star, x_i_star.periods, tol.eq_tol)
    star = standard_profit(unit, p, x_i_star)
    best = unit_profit_max(unit, p, x_i_star.periods, tol).value
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
    if formulation is Formulation.OUTPUT_ONLY and not unit.output_determines_status():
        raise PreconditionError(
            f"unit {unit.id}: output-only formulation is ambiguous "
            "(g_min == 0 with positive startup cost)"
        )
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
    best = unit_profit_max(unit, p, periods, tol).value
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
    star, best, gap = _uplift_at(unit, p, x_i_star, tol)
    p_vec = as_price(p, x_i_star.periods)
    table = lattice_table(
        unit, p_vec, (gamma,), formulation, anchors=(x_i_star,),
        periods=x_i_star.periods, tol=tol,
    )
    for point, (val,) in zip(table.points, table.values):
        if val < -tol.eq_tol:
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


def _single_period_box_setting(
    unit: UnitParams, p, x_i_star: UnitSchedule, family: str
) -> float:
    if x_i_star.periods != 1:
        raise PreconditionError(f"{family} family needs a single-period horizon")
    if unit.initial_status != 0:
        raise PreconditionError(f"{family} family needs an initially offline unit")
    if not unit.g_min < unit.g_max:
        raise PreconditionError(f"{family} family needs g_min < g_max")
    (p0,) = as_price(p, 1)
    return p0


def _box_case_multipliers(
    unit: UnitParams, p0: float, x_i_star: UnitSchedule, tol: ToleranceConfig
) -> tuple[float, float, float, str]:
    """Case analysis for the single-period box family: multipliers on
    u*g_min - g <= 0, g - u*g_max <= 0, u - 1 <= 0."""
    star = standard_profit(unit, (p0,), x_i_star)
    best = unit_profit_max(unit, (p0,), 1, tol).value
    threshold = unit.marginal_cost + unit.startup_cost / unit.g_max
    span = unit.g_max - unit.g_min
    u_star, g_star = x_i_star.u[0], x_i_star.g[0]
    if u_star == 0:
        if p0 >= threshold:
            return 0.0, 0.0, best, "offline-profitable-price"
        return 0.0, 0.0, 0.0, "offline-unprofitable-price"
    if g_star <= unit.g_min + tol.eq_tol:
        return 0.0, (best - star) / (unit.g_max - g_star), 0.0, "at-minimum"
    if g_star >= unit.g_max - tol.eq_tol:
        if p0 >= threshold:
            return 0.0, 0.0, 0.0, "at-maximum-profitable-price"
        return -star / span, 0.0, 0.0, "at-maximum-unprofitable-price"
    if p0 >= threshold:
        return 0.0, p0 - unit.marginal_cost, 0.0, "interior-profitable-price"
    online_max = standard_profit(unit, (p0,), UnitSchedule((1,), (unit.g_max,)))
    online_min = standard_profit(unit, (p0,), UnitSchedule((1,), (unit.g_min,)))
    return -online_max / span, -online_min / span, 0.0, "interior-unprofitable-price"


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
    p0 = _single_period_box_setting(unit, p, x_i_star, "linear-unit")
    mu = _box_case_multipliers(unit, p0, x_i_star, tol)[:3]
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


def _hull_status_output(
    unit: UnitParams, p0: float, x_i_star: UnitSchedule, tol: ToleranceConfig
) -> AmendmentBundle:
    star = standard_profit(unit, (p0,), x_i_star)
    best = unit_profit_max(unit, (p0,), 1, tol).value
    u_star, g_star = x_i_star.u[0], x_i_star.g[0]
    interior = (
        u_star == 1
        and unit.g_min + tol.eq_tol < g_star < unit.g_max - tol.eq_tol
    )
    if not interior:
        # outside the interior case the hull amendment coincides with the
        # dominant box constraint
        mu1, mu2, mu3, _ = _box_case_multipliers(unit, p0, x_i_star, tol)
        if mu3 > 0:
            rho = Sub(Status(0), Const(1.0))
            mu = mu3
        elif mu2 > 0:
            rho = Sub(Output(0), scale(unit.g_max, Status(0)))
            mu = mu2
        elif mu1 > 0:
            rho = Sub(scale(unit.g_min, Status(0)), Output(0))
            mu = mu1
        else:
            rho, mu = ZERO, 0.0
        return AmendmentBundle(
            unit_id=unit.id,
            family="convex-hull",
            formulation=Formulation.STATUS_OUTPUT,
            amendment=scale(mu, neg(rho)),
            constraints=(rho,),
            multipliers=(mu,),
        )
    gap = best - star
    up = scale(
        1.0 / (g_star - unit.g_min),
        Sub(Output(0), scale(unit.g_min, Status(0))),
    )
    down = scale(
        1.0 / (unit.g_max - g_star),
        Sub(scale(unit.g_max, Status(0)), Output(0)),
    )
    rho = Max((neg(up), neg(down)))
    return AmendmentBundle(
        unit_id=unit.id,
        family="convex-hull",
        formulation=Formulation.STATUS_OUTPUT,
        amendment=scale(gap, Min((up, down))),
        constraints=(rho,),
        multipliers=(gap,),
    )


def _hull_output_only(
    unit: UnitParams, p0: float, x_i_star: UnitSchedule, tol: ToleranceConfig
) -> AmendmentBundle:
    if not unit.output_determines_status():
        raise PreconditionError(
            f"unit {unit.id}: output-only amendment is ambiguous "
            "(g_min == 0 with positive startup cost)"
        )
    star = standard_profit(unit, (p0,), x_i_star)
    best = unit_profit_max(unit, (p0,), 1, tol).value
    threshold = unit.marginal_cost + unit.startup_cost / unit.g_max
    profit_g = profit_expr(unit, (p0,), 1, Formulation.OUTPUT_ONLY)
    u_star, g_star = x_i_star.u[0], x_i_star.g[0]
    w = unit.startup_cost

    def bundle(amendment: Expr, rho: Expr, mu: float) -> AmendmentBundle:
        return AmendmentBundle(
            unit_id=unit.id,
            family="convex-hull",
            formulation=Formulation.OUTPUT_ONLY,
            amendment=amendment,
            constraints=(rho,),
            multipliers=(mu,),
        )

    if u_star == 0:
        if p0 < threshold:
            return bundle(ZERO, ZERO, 0.0)
        return bundle(Sub(Const(best), profit_g), Sub(profit_g, Const(best)), 1.0)
    if g_star <= unit.g_min + tol.eq_tol:
        if p0 >= threshold:
            cap = scale(best, Step(Output(0)))
            return bundle(Sub(cap, profit_g), Sub(profit_g, cap), 1.0)
        online_min = standard_profit(unit, (p0,), UnitSchedule((1,), (unit.g_min,)))
        mu = -online_min / (unit.g_max - unit.g_min)
        rho = Sub(Output(0), scale(unit.g_max, Step(Output(0))))
        return bundle(scale(mu, neg(rho)), rho, mu)
    if g_star >= unit.g_max - tol.eq_tol:
        if p0 >= threshold:
            return bundle(ZERO, ZERO, 0.0)
        return bundle(neg(profit_g), profit_g, 1.0)
    # interior dispatch
    if p0 >= threshold:
        first = scale(
            1.0 / g_star,
            add(
                scale(best - star, Output(0)),
                scale(w, Sub(scale(g_star, Step(Output(0))), Output(0))),
            ),
        )
        amendment = Min((first, Sub(Const(best), profit_g)))
        return bundle(amendment, neg(amendment), 1.0)
    online_max = standard_profit(unit, (p0,), UnitSchedule((1,), (unit.g_max,)))
    second = scale(
        1.0 / (unit.g_max - g_star),
        add(
            scale(g_star, Sub(profit_g, Const(online_max))),
            scale(w, Sub(scale(unit.g_max, Step(Output(0))), Output(0))),
        ),
    )
    amendment = Min((neg(profit_g), second))
    return bundle(amendment, neg(amendment), 1.0)


def build_convex_hull_amendment(
    unit: UnitParams,
    p,
    x_i_star: UnitSchedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> AmendmentBundle:
    """Amendment induced by convex-hull pricing of the single unit: the
    tightest closed form, piecewise linear around the dispatch point."""
    p0 = _single_period_box_setting(unit, p, x_i_star, "convex-hull")
    if formulation is Formulation.OUTPUT_ONLY:
        return _hull_output_only(unit, p0, x_i_star, tol)
    return _hull_status_output(unit, p0, x_i_star, tol)


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


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class UnitReport(VerificationReport):
    """One unit's contract checks and the lattice table they read."""

    table: LatticeTable | None = field(default=None, repr=False, compare=False)


@dataclass
class MarketReport(VerificationReport):
    """The market checks, and each unit's report by unit id in instance order."""

    units: dict[str, UnitReport] = field(default_factory=dict)


def verify_conditions(
    unit: UnitParams,
    p,
    bundle: AmendmentBundle,
    x_i_star: UnitSchedule,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> UnitReport:
    """Full check of the amendment contract on the unit's lattice table, in
    one pass over its points; the report keeps the table for the market check."""
    p = as_price(p, x_i_star.periods)
    constraints, multipliers = bundle.constraints, bundle.multipliers
    # the amendment is the last column, after the constraints
    table = lattice_table(
        unit, p, constraints + (bundle.amendment,), bundle.formulation,
        anchors=(x_i_star,), periods=x_i_star.periods, tol=tol,
    )
    pm = table.profit_max
    best = pm.value
    star = standard_profit(unit, p, x_i_star)
    gap = best - star
    scale_tol = tol.opt_tol * max(1.0, abs(best), abs(star))

    amended_best_k, amended_best = None, None
    nonneg, nonneg_witness = True, None
    strictly_below = False
    redundant_ok, redundant_witness = True, None
    dominates, dominates_witness = True, None
    matches, match_witness = True, None
    for k, (point, profit, row) in enumerate(zip(table.points, table.profits, table.values)):
        n_val = row[-1]
        amended = profit + n_val
        if amended_best is None or amended > amended_best:
            amended_best_k, amended_best = k, amended
        if n_val < -scale_tol and nonneg:
            nonneg, nonneg_witness = False, point.to_json()
        if n_val < best - profit - scale_tol:
            strictly_below = True
        if redundant_ok:
            for l, val in enumerate(row[:-1]):
                if val > tol.eq_tol:
                    redundant_ok = False
                    redundant_witness = {"axis": l, "point": point.to_json()}
                    break
        weighted = sum(m * s for m, s in zip(multipliers, row))
        if weighted < profit - best - scale_tol:
            dominates, dominates_witness = False, point.to_json()
        if abs(n_val + weighted) > scale_tol:
            matches, match_witness = False, point.to_json()

    argmax_ok, argmax_witness = True, None
    slack_ok, slack_witness = True, None
    for point in pm.argmax_points:
        if abs(bundle.amendment.evaluate(point, tol.eq_tol)) > scale_tol:
            argmax_ok, argmax_witness = False, point.to_json()
        for l, (m, rho) in enumerate(zip(multipliers, constraints)):
            if abs(m * rho.evaluate(point, tol.eq_tol)) > scale_tol:
                slack_ok = False
                slack_witness = {"axis": l, "point": point.to_json()}

    n_star = bundle.amendment.evaluate(x_i_star, tol.eq_tol)
    absorbed = sum(
        m * rho.evaluate(x_i_star, tol.eq_tol) for m, rho in zip(multipliers, constraints)
    )

    report = UnitReport(table=table)
    report.add(
        ConditionCheck(
            "max-profit-unchanged",
            abs(amended_best - best) <= scale_tol,
            lhs=amended_best,
            rhs=best,
            witness=table.points[amended_best_k].to_json(),
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
    report.add(ConditionCheck("nonnegative", nonneg, witness=nonneg_witness))
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
        ConditionCheck("constraint-nonpositive", redundant_ok, witness=redundant_witness)
    )
    report.add(
        ConditionCheck(
            "absorbs-uplift-at-dispatch",
            abs(absorbed - (star - best)) <= scale_tol,
            lhs=absorbed,
            rhs=star - best,
        )
    )
    report.add(ConditionCheck("dominates-profit-gap", dominates, witness=dominates_witness))
    report.add(ConditionCheck("complementary-slackness", slack_ok, witness=slack_witness))
    report.add(
        ConditionCheck("amendment-matches-constraints", matches, witness=match_witness)
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


def aggregate_constraint(
    instance: MarketInstance,
    p,
    bundles: Mapping[str, AmendmentBundle],
    x_star: Schedule,
) -> AggregateConstraint:
    """Combine verified per-unit amendments into the single market-wide
    redundant constraint whose pricing removes all uplift."""
    for unit in instance.units:
        bundle = bundles.get(unit.id)
        if bundle is None:
            raise ValidationError(f"no bundle for unit {unit.id}")
        report = verify_conditions(
            unit, p, bundle, x_star.unit(unit.id), instance.tolerances
        )
        needed = ("max-profit-unchanged", "zero-uplift-at-dispatch", "nonnegative")
        bad = [c for c in needed if not report.check_named(c).passed]
        if bad:
            raise PreconditionError(
                f"unit {unit.id}: bundle fails verification ({', '.join(bad)})"
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
    price and at perturbed prices.  They read the lattice table of each unit's
    verify_conditions report (kept in `units`) and re-price it at every perturbed price."""
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

    def profit_maxima(priced) -> list[tuple[float, float]]:
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
