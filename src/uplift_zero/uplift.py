"""Uplift accounting and multiplier search.

Uplift is the gap between a unit's best achievable profit at a price and the
profit of its dispatched schedule.  Amending revenue by -mu' rho(p, x) for
redundant constraints rho <= 0 shrinks that gap; this module measures the
amended uplift, tests multiplier vectors for membership in the set that
keeps the per-unit profit maximum unchanged, and searches that set for the
multipliers minimizing residual uplift.  All three read the unit's lattice
table (`pricing.lattice_table`), so "for every feasible point" means every
point of the sampled verification lattice.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .expr import Expr
from .model import (
    DEFAULT_TOLERANCES,
    Formulation,
    MarketInstance,
    Schedule,
    ToleranceConfig,
    UnitParams,
    UnitSchedule,
    validate_schedule,
)
from .pricing import as_price, lattice_table, max_profits, standard_profit
from .redundant import constraint_cap

COORDINATE_SWEEP_LIMIT = 50


@dataclass(frozen=True)
class UnitUplift:
    unit_id: str
    dispatch_profit: float
    max_profit: float
    uplift: float


@dataclass(frozen=True)
class UpliftReport:
    entries: tuple[UnitUplift, ...]

    @property
    def total(self) -> float:
        return sum(e.uplift for e in self.entries)

    def entry(self, unit_id: str) -> UnitUplift:
        for e in self.entries:
            if e.unit_id == unit_id:
                return e
        raise ValidationError(f"no uplift entry for unit {unit_id!r}")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["unit_id", "pi_star", "pi_plus", "uplift"])
        for e in self.entries:
            writer.writerow(
                [e.unit_id, repr(e.dispatch_profit), repr(e.max_profit), repr(e.uplift)]
            )
        return buf.getvalue()


def uplift_report(instance: MarketInstance, p, x_star: Schedule) -> UpliftReport:
    """Per-unit dispatched profit, best profit, and uplift at price p.  The
    best profit is solved once per group of identical units
    (`pricing.max_profits`).

    Uplift within opt_tol of zero is clamped to exactly zero.
    """
    validate_schedule(instance, x_star)
    p = as_price(p, instance.periods)
    tol = instance.tolerances
    entries = []
    for unit, best in zip(instance.units, max_profits(instance, p)):
        dispatched = standard_profit(unit, p, x_star.unit(unit.id))
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


def amended_uplift(
    unit: UnitParams,
    p,
    constraints: Sequence[Expr],
    multipliers: Sequence[float],
    x_i_star: UnitSchedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> float:
    """Residual uplift of the unit once revenue is amended by
    -mu' rho(p, x): max over the lattice of amended profit minus amended
    profit at the dispatched point."""
    if len(multipliers) != len(constraints):
        raise ValidationError("multiplier vector length must match constraint count")
    if any(m < 0 for m in multipliers):
        raise ValidationError("multipliers must be non-negative")
    p = as_price(p, x_i_star.periods)
    table = lattice_table(
        unit, p, constraints, formulation, anchors=(x_i_star,),
        periods=x_i_star.periods, tol=tol,
    )
    table.require_redundant()
    at_star = standard_profit(unit, p, x_i_star) - sum(
        m * rho.evaluate(x_i_star, tol.eq_tol) for m, rho in zip(multipliers, constraints)
    )
    return max(
        profit - sum(m * s for m, s in zip(multipliers, row))
        for profit, row in zip(table.profits, table.values)
    ) - at_star


def in_m_plus(
    unit: UnitParams,
    p,
    constraints: Sequence[Expr],
    multipliers: Sequence[float],
    periods: int = 1,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> bool:
    """Membership test: mu keeps the unit's profit maximum unchanged, i.e.
    mu' rho(p, x) >= pi(p, x) - pi_max(p) on the lattice table."""
    if len(multipliers) != len(constraints):
        raise ValidationError("multiplier vector length must match constraint count")
    if any(m < 0 for m in multipliers):
        return False
    table = lattice_table(unit, p, constraints, formulation, periods=periods, tol=tol)
    table.require_redundant()
    return table.is_member(multipliers, tol.opt_tol)


@dataclass(frozen=True)
class MinUpliftResult:
    value: float
    multipliers: tuple[float, ...]
    stalled: bool = False


def _max_feasible_coordinate(
    l: int,
    multipliers: list[float],
    gaps: list[float],
    slacks: list[list[float]],
    opt_tol: float,
) -> float:
    """Largest mu_l keeping membership with the other coordinates fixed.

    gaps[k] = pi(x_k) - pi_max, slacks[k][l] = rho_l(x_k) over the lattice.
    Returns +inf when no lattice point has rho_l != 0.
    """
    bound = float("inf")
    for gap, slack in zip(gaps, slacks):
        if slack[l] >= 0:
            continue
        rest = sum(m * s for j, (m, s) in enumerate(zip(multipliers, slack)) if j != l)
        bound = min(bound, (gap - rest) / slack[l])
    return bound


def min_uplift(
    unit: UnitParams,
    p,
    constraints: Sequence[Expr],
    x_i_star: UnitSchedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> MinUpliftResult:
    """Multipliers minimizing residual uplift over the membership set.

    The objective uplift + mu' rho(x_star) is linear with rho(x_star) <= 0,
    so the per-coordinate caps are pushed as high as membership allows:
    start at the box corner of per-constraint maxima and, if that corner is
    not a member, run monotone coordinate sweeps.  With one constraint the
    corner is exactly the optimum.  `stalled` is set when the sweeps had to
    back off the corner, in which case the result is feasible but may be
    conservative.
    """
    p = as_price(p, x_i_star.periods)
    table = lattice_table(
        unit, p, constraints, formulation, anchors=(x_i_star,),
        periods=x_i_star.periods, tol=tol,
    )
    table.require_redundant()
    base_uplift = table.profit_max.value - standard_profit(unit, p, x_i_star)
    gaps, slacks = table.gaps, table.values
    star_slack = [rho.evaluate(x_i_star, tol.eq_tol) for rho in constraints]

    # per-constraint caps; coordinates that cannot lower the objective stay 0
    caps = []
    for l, rho in enumerate(constraints):
        if star_slack[l] >= -tol.eq_tol:
            caps.append(0.0)
        else:
            cap = constraint_cap(gaps, [s[l] for s in slacks], tol)
            caps.append(0.0 if cap is None else max(0.0, cap))
    multipliers = list(caps)

    stalled = False
    if not table.is_member(multipliers, tol.opt_tol):
        stalled = True
        for _ in range(COORDINATE_SWEEP_LIMIT):
            changed = False
            for l in range(len(constraints)):
                if caps[l] == 0.0:
                    continue
                limit = _max_feasible_coordinate(l, multipliers, gaps, slacks, tol.opt_tol)
                new = min(caps[l], max(0.0, limit))
                if new < multipliers[l] - tol.eq_tol:
                    multipliers[l] = new
                    changed = True
            if table.is_member(multipliers, tol.opt_tol) or not changed:
                break
        if not table.is_member(multipliers, tol.opt_tol):
            multipliers = [0.0] * len(constraints)

    value = base_uplift + sum(m * s for m, s in zip(multipliers, star_slack))
    if abs(value) <= tol.opt_tol:
        value = 0.0
    return MinUpliftResult(
        value=value, multipliers=tuple(multipliers), stalled=stalled
    )
