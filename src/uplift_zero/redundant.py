"""Analysis of redundant constraints and their multiplier sets.

A constraint rho(p, x) <= 0 that holds on the unit's whole feasible set can
be priced into revenue with any multiplier mu >= 0 without cutting feasible
points.  The set of multipliers that leave the unit's profit maximum
unchanged is an interval per constraint; this module classifies constraints,
computes the interval caps, and provides the structural checks used by the
verification suite: duality of the multiplier search, the box geometry of
the multi-constraint membership set, a necessary condition for zero residual
uplift, and the support-based optimality test for multiplier vectors, plus a
repair transform that restores exact uplift absorption at the dispatch
point.

All quantifiers run over the unit's lattice table (`pricing.lattice_table`):
the verification lattice with standard profit, the gap to the profit
maximum and every constraint evaluated once per point.  The checks are
therefore sampled, not exact, between lattice points.
"""

from __future__ import annotations

import itertools
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
)
from .pricing import LatticeTable, as_price, lattice_table, standard_profit
from .reporting import ConditionCheck, VerificationReport

SCAN_POINTS_PER_AXIS = 11


def constraint_cap(
    gaps: Sequence[float],
    slacks: Sequence[float],
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> Optional[float]:
    """Largest single-constraint multiplier keeping the profit maximum.

    gaps[k] = pi(x_k) - pi_max and slacks[k] = rho(x_k) over the lattice;
    the cap is the minimum of gap/slack over the support, None when the
    support is empty (multiplier unbounded).
    """
    best = None
    for gap, slack in zip(gaps, slacks):
        if slack < -tol.eq_tol:
            ratio = gap / slack
            if best is None or ratio < best:
                best = ratio
    return best


@dataclass(frozen=True)
class ConstraintClass:
    """Lattice classification of one redundant constraint."""

    kind: str  # "identically_zero" | "strictly_negative" | "mixed"
    upper: Optional[float]  # multiplier interval is [0, upper], None = unbounded
    support_witness: Optional[dict] = None
    zero_witness: Optional[dict] = None


def _classify(table: LatticeTable, l: int, tol: ToleranceConfig) -> ConstraintClass:
    support_witness = None
    zero_witness = None
    for point, slack in zip(table.points, table.values):
        if slack[l] < -tol.eq_tol:
            if support_witness is None:
                support_witness = point.to_json()
        elif zero_witness is None:
            zero_witness = point.to_json()
    if support_witness is None:
        return ConstraintClass("identically_zero", None, None, zero_witness)
    kind = "strictly_negative" if zero_witness is None else "mixed"
    cap = constraint_cap(table.gaps, [s[l] for s in table.values], tol)
    return ConstraintClass(kind, cap, support_witness, zero_witness)


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
    table = lattice_table(unit, p, (rho,), formulation, periods=periods, tol=tol)
    table.require_redundant()
    return _classify(table, 0, tol)


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
    return [_classify(table, l, tol).upper for l in range(len(table.values[0]) if table.values else 0)]


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
    table = lattice_table(unit, p, constraints, formulation, periods=periods, tol=tol)
    table.require_redundant()
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
        val = max(
            gap - sum(m * s for m, s in zip(mu, slack))
            for gap, slack in zip(table.gaps, table.values)
        )
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
    table = lattice_table(unit, p, constraints, formulation, periods=periods, tol=tol)
    table.require_redundant()
    caps = _axis_caps(table, tol)
    report = VerificationReport()
    contained = True
    witness = None
    for mu in mu_samples:
        if len(mu) != len(constraints):
            raise ValidationError("multiplier sample length must match constraint count")
        if any(m < 0 for m in mu) or not table.is_member(mu, tol.opt_tol):
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
                s[l1] < -tol.eq_tol and s[l2] < -tol.eq_tol for s in table.values
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
    table = lattice_table(
        unit, p, constraints, formulation, (x_i_star,), x_i_star.periods, tol
    )
    table.require_redundant()
    caps = _axis_caps(table, tol)
    p_vec = as_price(p, x_i_star.periods)
    star_gap = standard_profit(unit, p_vec, x_i_star) - table.profit_max.value
    star_slack = [rho.evaluate(x_i_star, tol.eq_tol) for rho in constraints]
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
    if len(multipliers) != len(constraints):
        raise ValidationError("multiplier vector length must match constraint count")
    if any(m < 0 for m in multipliers):
        raise ValidationError("multipliers must be non-negative")
    table = lattice_table(
        unit, p, constraints, formulation, (x_i_star,), x_i_star.periods, tol
    )
    table.require_redundant()
    p_vec = as_price(p, x_i_star.periods)
    star_gap = standard_profit(unit, p_vec, x_i_star) - table.profit_max.value
    if star_gap > -tol.opt_tol:
        raise PreconditionError(
            f"unit {unit.id}: the dispatch point has no uplift to absorb"
        )
    star_slack = [rho.evaluate(x_i_star, tol.eq_tol) for rho in constraints]
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
    witness_below = witness_cap = witness_star = None
    cap_witnesses = []
    for l in range(len(constraints)):
        bound, bound_points = None, []
        for point, gap, slack in zip(table.points, table.gaps, table.values):
            if slack[l] >= -tol.eq_tol:
                continue
            rest = sum(
                m * s for j, (m, s) in enumerate(zip(multipliers, slack)) if j != l
            )
            ratio = (gap - rest) / slack[l]
            if bound is None or ratio < bound - tol.opt_tol:
                bound, bound_points = ratio, [point]
            elif ratio <= bound + tol.opt_tol:
                bound = min(bound, ratio)
                bound_points.append(point)
        if bound is None:
            continue  # empty support: no restriction on this coordinate
        if l in active:
            if abs(multipliers[l] - bound) > tol.opt_tol * scale:
                at_cap = False
                witness_cap = {"axis": l, "multiplier": multipliers[l], "cap": bound}
            else:
                cap_witnesses.append(l)
            if not any(pt == x_i_star for pt in bound_points):
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
    if len(multipliers) != len(constraints):
        raise ValidationError("multiplier vector length must match constraint count")
    if any(m < 0 for m in multipliers):
        raise ValidationError("multipliers must be non-negative")
    norm_sq = sum(m * m for m in multipliers)
    if norm_sq <= 0.0:
        raise PreconditionError("repair needs a non-zero multiplier vector")
    table = lattice_table(
        unit, p, constraints, formulation, (x_i_star,), x_i_star.periods, tol
    )
    table.require_redundant()
    violation = next(table.gap_violations(multipliers, tol.opt_tol), None)
    if violation is not None:
        raise PreconditionError(
            f"unit {unit.id}: family does not dominate the profit gap at "
            f"{table.points[violation].to_json()}; repair would not restore membership"
        )
    p_vec = as_price(p, x_i_star.periods)
    star_gap = standard_profit(unit, p_vec, x_i_star) - table.profit_max.value
    star_slack = [rho.evaluate(x_i_star, tol.eq_tol) for rho in constraints]
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
