"""Redundant constraints and the multiplier sets that price them.

A constraint rho(p, x) <= 0 that holds on the unit's whole feasible set can
be priced into revenue with any multiplier mu >= 0 without cutting feasible
points.  The multipliers that leave the unit's profit maximum unchanged
form the set M+; per constraint it is an interval [0, cap].  This module
classifies constraints and computes their caps, tests membership in M+,
measures the uplift left after amending revenue by -mu' rho, searches M+
for the multipliers that leave the least, and provides the structural
checks used by the verification suite: duality of that search, the box
geometry of M+, a necessary condition for zero residual uplift, the
support-based optimality test for multiplier vectors, and a repair
transform that restores exact uplift absorption at the dispatch point.

Every analysis reads one table, built the same way: the unit's lattice
table (`pricing.lattice_table`) over the constraints, anchored at the
dispatched point x* when there is one, and rejected unless every
constraint is finite and non-positive on it (`_table`).  The analyses read
the table's columns: one per constraint, and the weighted sum mu' rho at
every point (`LatticeTable.weighted`).  The terms at x* come from
`_at_dispatch`, the multiplier vector is checked by `_check_multipliers`,
and every single-axis cap, conditional or not, comes from one loop
(`_cap_scan`), whose support is the points where rho < -eq_tol: a point
within eq_tol of zero never bounds a multiplier.  All quantifiers
therefore run over the sampled lattice, not the whole feasible set, and
every check here is sampled between lattice points.  Two are approximate
on top of that: `min_uplift`'s coordinate sweep may stop short of the
optimum (it says so in `stalled`), and `strong_duality_scan` minimizes
over a multiplier grid.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import PreconditionError, ValidationError
from .expr import Const, Delta, Expr, Mul, add
from .model import (
    DEFAULT_TOLERANCES,
    Formulation,
    ToleranceConfig,
    UnitParams,
    UnitSchedule,
    _point_key,
    unchecked_cost,
)
from .pricing import LatticeTable, _profit, as_price, lattice_table
from .reporting import ConditionCheck, VerificationReport

SCAN_POINTS_PER_AXIS = 11
COORDINATE_SWEEP_LIMIT = 50


def _table(unit: UnitParams, p, constraints: Sequence[Expr], formulation: Formulation,
           tol: ToleranceConfig, periods: Optional[int] = None,
           x_i_star: Optional[UnitSchedule] = None) -> LatticeTable:
    """The unit's lattice table over the constraints, anchored at x_i_star
    (which it validates at tol) when one is given; PreconditionError unless
    every constraint is redundant on it."""
    anchors = () if x_i_star is None else (x_i_star,)
    table = lattice_table(unit, p, constraints, formulation, anchors, periods, tol)
    table.require_redundant()
    return table


def _at_dispatch(table: LatticeTable, p, constraints: Sequence[Expr],
                 x_i_star: UnitSchedule) -> tuple[float, list[float]]:
    """pi(x_star) and rho(x_star).  The table was anchored at x_star, so the
    schedule is already validated and is priced without a second check."""
    star = _profit(as_price(p, x_i_star.periods), x_i_star.g, unchecked_cost(table.unit, x_i_star))
    return star, [rho.evaluate(x_i_star, table.tol.eq_tol) for rho in constraints]


def _check_multipliers(multipliers: Sequence[float], constraints: Sequence[Expr],
                       negative_ok: bool = False, what: str = "vector") -> bool:
    """Whether no multiplier is negative.  Raises ValidationError unless
    there is one per constraint, and on a negative one unless negative_ok."""
    if len(multipliers) != len(constraints):
        raise ValidationError(f"multiplier {what} length must match constraint count")
    nonnegative = not any(m < 0 for m in multipliers)
    if not (nonnegative or negative_ok):
        raise ValidationError("multipliers must be non-negative")
    return nonnegative


def _cap_scan(gaps: Sequence[float], slacks: Sequence[float], tol: ToleranceConfig,
              rests: Optional[Sequence[float]] = None) -> tuple:
    """The single-axis cap loop.  The support is the points k with
    slacks[k] < -eq_tol; the cap is the least (gaps[k] - rests[k]) /
    slacks[k] over it, where rests[k] is the other multipliers' term at the
    point (0 when rests is None).  Returns the cap (None on an empty
    support), the support points within opt_tol of the running minimum,
    and the first point on and the first point off the support."""
    cap, near, first_on, first_off = None, [], None, None
    for k, (gap, slack, rest) in enumerate(zip(gaps, slacks, rests or itertools.repeat(0.0))):
        if not slack < -tol.eq_tol:
            first_off = k if first_off is None else first_off
            continue
        first_on = k if first_on is None else first_on
        ratio = (gap - rest) / slack
        if cap is None or ratio < cap - tol.opt_tol:
            cap, near = ratio, [k]
        elif ratio <= cap + tol.opt_tol:
            cap = min(cap, ratio)
            near.append(k)
    return cap, near, first_on, first_off


@dataclass(frozen=True)
class ConstraintClass:
    """Lattice classification of one redundant constraint."""

    kind: str  # "identically_zero" | "strictly_negative" | "mixed"
    upper: Optional[float]  # multiplier interval is [0, upper], None = unbounded
    support_witness: Optional[dict] = None
    zero_witness: Optional[dict] = None


def _classify(table: LatticeTable, l: int, tol: ToleranceConfig) -> ConstraintClass:
    cap, _, on, off = _cap_scan(table.gaps, table.columns[l], tol)
    zero_witness = None if off is None else table.points[off].to_json()
    if on is None:
        return ConstraintClass("identically_zero", None, None, zero_witness)
    kind = "strictly_negative" if off is None else "mixed"
    return ConstraintClass(kind, cap, table.points[on].to_json(), zero_witness)


def classify_constraint(
    unit: UnitParams,
    p,
    rho: Expr,
    periods: int = 1,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ConstraintClass:
    """Classify one constraint on the verification lattice.

    identically_zero: any multiplier keeps the profit maximum (interval
    unbounded).  strictly_negative: only 0 does.  mixed: interval [0, upper].
    """
    return _classify(_table(unit, p, (rho,), formulation, tol, periods), 0, tol)


def mu_max(
    unit: UnitParams,
    p,
    rho: Expr,
    periods: int = 1,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> float:
    """Largest multiplier keeping the profit maximum, for a mixed constraint."""
    cls = classify_constraint(unit, p, rho, periods, formulation, tol)
    if cls.kind != "mixed":
        raise PreconditionError(
            f"unit {unit.id}: mu_max needs a mixed constraint, got {cls.kind}"
        )
    return cls.upper


def _axis_caps(table: LatticeTable, tol: ToleranceConfig) -> list[Optional[float]]:
    return [_classify(table, l, tol).upper for l in range(len(table.columns))]


def _unbounded_probe(table: LatticeTable) -> float:
    # finite stand-in for an unbounded multiplier axis: twice the profit range
    spread = -min(table.gaps) if table.gaps else 1.0
    return 2.0 * max(spread, 1.0)


def strong_duality_scan(
    unit: UnitParams,
    p,
    constraints: Sequence[Expr],
    periods: int = 1,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Numeric check that pricing redundant constraints cannot lower the
    unit's profit maximum: over a multiplier grid covering twice each axis
    cap, the minimum of max_x [pi - mu' rho] equals pi_max, attained at 0."""
    table = _table(unit, p, constraints, formulation, tol, periods)
    caps = _axis_caps(table, tol)
    probe = _unbounded_probe(table)
    axes = []
    for cap in caps:
        top = 2.0 * cap if cap is not None else probe
        axes.append(
            sorted({top * k / (SCAN_POINTS_PER_AXIS - 1) for k in range(SCAN_POINTS_PER_AXIS)})
        )
    best_val, best_mu = None, None
    for mu in itertools.product(*axes):
        val = max(map(operator.sub, table.gaps, table.weighted(mu)))
        if best_val is None or val < best_val:
            best_val, best_mu = val, mu
    report = VerificationReport()
    report.add(
        ConditionCheck(
            condition="amended-max-never-below-standard",
            passed=best_val >= -tol.opt_tol,
            lhs=table.profit_max.value + best_val,
            rhs=table.profit_max.value,
            witness={"multipliers": list(best_mu)},
        )
    )
    at_zero = max(table.gaps)
    report.add(
        ConditionCheck(
            condition="minimum-attained-at-zero",
            passed=abs(at_zero) <= tol.opt_tol and at_zero <= best_val + tol.opt_tol,
            lhs=table.profit_max.value + at_zero,
            rhs=table.profit_max.value + best_val,
        )
    )
    return report


def box_structure(
    unit: UnitParams,
    p,
    constraints: Sequence[Expr],
    mu_samples: Sequence[Sequence[float]],
    periods: int = 1,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Geometry of the membership set.

    Containment: every sampled member has each coordinate inside its own
    single-constraint interval.  When constraint supports are pairwise
    disjoint the membership set is exactly the product box, so every box
    corner must be a member.
    """
    table = _table(unit, p, constraints, formulation, tol, periods)
    caps = _axis_caps(table, tol)
    report = VerificationReport()
    contained = True
    witness = None
    for mu in mu_samples:
        nonnegative = _check_multipliers(mu, constraints, True, "sample")
        if not nonnegative or not table.is_member(mu, tol.opt_tol):
            continue
        for l, cap in enumerate(caps):
            if cap is not None and mu[l] > cap + tol.opt_tol:
                contained = False
                witness = {"multipliers": list(mu), "axis": l, "cap": cap}
                break
        if not contained:
            break
    report.add(
        ConditionCheck(
            condition="members-inside-axis-intervals",
            passed=contained,
            witness=witness,
        )
    )

    disjoint = True
    for l1 in range(len(constraints)):
        for l2 in range(l1 + 1, len(constraints)):
            if any(
                a < -tol.eq_tol and b < -tol.eq_tol
                for a, b in zip(table.columns[l1], table.columns[l2])
            ):
                disjoint = False
    report.add(
        ConditionCheck(
            condition="supports-pairwise-disjoint",
            passed=disjoint,
            required=False,
            note="informational; box equality is only claimed under disjoint supports",
        )
    )
    if disjoint:
        probe = _unbounded_probe(table)
        corners_ok = True
        witness = None
        corner_axes = [(0.0, cap if cap is not None else probe) for cap in caps]
        for corner in itertools.product(*corner_axes):
            if not table.is_member(corner, tol.opt_tol):
                corners_ok = False
                witness = {"multipliers": list(corner)}
                break
        report.add(
            ConditionCheck(
                condition="box-corners-are-members",
                passed=corners_ok,
                witness=witness,
            )
        )
    return report


def zero_uplift_necessary(
    unit: UnitParams,
    p,
    constraints: Sequence[Expr],
    x_i_star: UnitSchedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Necessary condition for some member to absorb all uplift: the box
    corner of bounded axis caps must reach pi_star - pi_max at the dispatch
    point.  Failure proves the residual uplift is positive."""
    table = _table(unit, p, constraints, formulation, tol, x_i_star=x_i_star)
    caps = _axis_caps(table, tol)
    star, star_slack = _at_dispatch(table, p, constraints, x_i_star)
    star_gap = star - table.profit_max.value
    lhs = sum(
        cap * s for cap, s in zip(caps, star_slack) if cap is not None
    )
    report = VerificationReport()
    report.add(
        ConditionCheck(
            condition="box-corner-reaches-dispatch-gap",
            passed=lhs <= star_gap + tol.opt_tol,
            lhs=lhs,
            rhs=star_gap,
        )
    )
    return report


def multiplier_optimality(
    unit: UnitParams,
    p,
    constraints: Sequence[Expr],
    multipliers: Sequence[float],
    x_i_star: UnitSchedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Support-based test that (rho, mu) absorbs all uplift, cross-checked
    against the direct membership + absorption conditions.

    Requires strictly positive uplift at the dispatch point.  The support
    conditions: some constraint is active at the dispatch point; every
    coordinate stays below its conditional cap (the cap computed with the
    other coordinates fixed), active coordinates attain that cap exactly,
    and the dispatch point is among the minimizers defining it.  The report
    carries both verdicts plus an agreement check.
    """
    _check_multipliers(multipliers, constraints)
    table = _table(unit, p, constraints, formulation, tol, x_i_star=x_i_star)
    star, star_slack = _at_dispatch(table, p, constraints, x_i_star)
    star_gap = star - table.profit_max.value
    if star_gap > -tol.opt_tol:
        raise PreconditionError(
            f"unit {unit.id}: the dispatch point has no uplift to absorb"
        )
    active = [l for l, s in enumerate(star_slack) if s < -tol.eq_tol]

    report = VerificationReport()
    support_ok = True

    check = ConditionCheck(
        condition="active-at-dispatch-nonempty",
        passed=bool(active),
        note=f"active constraints: {active}",
    )
    report.add(check)
    support_ok &= check.passed

    scale = max(1.0, max((abs(m) for m in multipliers), default=1.0))
    below, at_cap, star_attains = True, True, True
    star_key = _point_key(unit, x_i_star)  # the lattice holds x* as the point with this key
    witness_below = witness_cap = witness_star = None
    cap_witnesses = []
    for l in range(len(constraints)):
        rests = table.weighted(multipliers, skip=l)
        bound, near, _, _ = _cap_scan(table.gaps, table.columns[l], tol, rests)
        if bound is None:
            continue  # empty support: no restriction on this coordinate
        if l in active:
            if abs(multipliers[l] - bound) > tol.opt_tol * scale:
                at_cap = False
                witness_cap = {"axis": l, "multiplier": multipliers[l], "cap": bound}
            else:
                cap_witnesses.append(l)
            bound_points = [table.points[k] for k in near]
            if not any(_point_key(unit, pt) == star_key for pt in bound_points):
                star_attains = False
                witness_star = {"axis": l, "minimizers": [pt.to_json() for pt in bound_points]}
        elif multipliers[l] > bound + tol.opt_tol * scale:
            below = False
            witness_below = {"axis": l, "multiplier": multipliers[l], "cap": bound}

    report.add(ConditionCheck("inactive-coordinates-below-cap", below, witness=witness_below))
    report.add(
        ConditionCheck(
            "active-coordinates-at-cap",
            at_cap,
            witness=witness_cap,
            note=f"cap attained by axes {cap_witnesses}",
        )
    )
    report.add(ConditionCheck("dispatch-attains-cap-minimum", star_attains, witness=witness_star))
    support_ok = support_ok and below and at_cap and star_attains

    absorbed = sum(m * s for m, s in zip(multipliers, star_slack))
    direct_17 = abs(absorbed - star_gap) <= tol.opt_tol * scale
    violation = next(table.gap_violations(multipliers, tol.opt_tol * scale), None)
    direct_18 = violation is None
    witness_18 = None if direct_18 else table.points[violation].to_json()
    report.add(
        ConditionCheck(
            "absorbs-uplift-at-dispatch", direct_17, lhs=absorbed, rhs=star_gap
        )
    )
    report.add(ConditionCheck("dominates-profit-gap", direct_18, witness=witness_18))

    report.add(
        ConditionCheck(
            condition="criteria-agreement",
            passed=support_ok == (direct_17 and direct_18),
            note=f"support-based verdict {support_ok}, direct verdict {direct_17 and direct_18}",
        )
    )
    return report


def repair(
    unit: UnitParams,
    p,
    constraints: Sequence[Expr],
    multipliers: Sequence[float],
    x_i_star: UnitSchedule,
    formulation: Formulation = Formulation.STATUS_OUTPUT,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> tuple[Expr, ...]:
    """Shift a family that dominates the profit gap so that it also absorbs
    the dispatch-point uplift exactly.

    Adds c * mu_l * delta(x_star) to each constraint with
    c = (gap(x_star) - mu' rho(x_star)) / sum(mu^2), which is non-positive
    under the preconditions, so redundancy is preserved and the repaired
    family satisfies both membership and exact absorption.
    """
    _check_multipliers(multipliers, constraints)
    norm_sq = sum(m * m for m in multipliers)
    if norm_sq <= 0.0:
        raise PreconditionError("repair needs a non-zero multiplier vector")
    table = _table(unit, p, constraints, formulation, tol, x_i_star=x_i_star)
    violation = next(table.gap_violations(multipliers, tol.opt_tol), None)
    if violation is not None:
        raise PreconditionError(
            f"unit {unit.id}: family does not dominate the profit gap at "
            f"{table.points[violation].to_json()}; repair would not restore membership"
        )
    star, star_slack = _at_dispatch(table, p, constraints, x_i_star)
    star_gap = star - table.profit_max.value
    c = (star_gap - sum(m * s for m, s in zip(multipliers, star_slack))) / norm_sq
    marker = Delta(u_ref=x_i_star.u, g_ref=x_i_star.g)
    repaired = tuple(
        add(rho, Mul((Const(c * m), marker))) if c * m != 0.0 else rho
        for rho, m in zip(constraints, multipliers)
    )
    absorbed = sum(
        m * rho.evaluate(x_i_star, tol.eq_tol) for m, rho in zip(multipliers, repaired)
    )
    assert abs(absorbed - star_gap) <= tol.opt_tol * max(1.0, abs(star_gap))
    return repaired


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
    _check_multipliers(multipliers, constraints)
    table = _table(unit, p, constraints, formulation, tol, x_i_star=x_i_star)
    star, star_slack = _at_dispatch(table, p, constraints, x_i_star)
    at_star = star - sum(m * s for m, s in zip(multipliers, star_slack))
    return max(map(operator.sub, table.profits, table.weighted(multipliers))) - at_star


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
    if not _check_multipliers(multipliers, constraints, negative_ok=True):
        return False
    table = _table(unit, p, constraints, formulation, tol, periods)
    return table.is_member(multipliers, tol.opt_tol)


@dataclass(frozen=True)
class MinUpliftResult:
    value: float
    multipliers: tuple[float, ...]
    stalled: bool = False


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
    not a member, run monotone coordinate sweeps, each lowering a
    coordinate to its cap with the others fixed.  Every cap, the corner's
    and the sweeps', is `_cap_scan`'s, over the points where rho <
    -eq_tol.  With one constraint the corner is exactly the optimum.
    `stalled` is set when the sweeps had to back off the corner, in which
    case the result is feasible but may be conservative.
    """
    table = _table(unit, p, constraints, formulation, tol, x_i_star=x_i_star)
    star, star_slack = _at_dispatch(table, p, constraints, x_i_star)
    base_uplift = table.profit_max.value - star
    gaps = table.gaps

    # per-constraint caps; coordinates that cannot lower the objective stay 0
    caps = []
    for l, rho in enumerate(constraints):
        if star_slack[l] >= -tol.eq_tol:
            caps.append(0.0)
        else:
            cap = _cap_scan(gaps, table.columns[l], tol)[0]
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
                rests = table.weighted(multipliers, skip=l)
                limit = _cap_scan(gaps, table.columns[l], tol, rests)[0]
                new = caps[l] if limit is None else min(caps[l], max(0.0, limit))
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
