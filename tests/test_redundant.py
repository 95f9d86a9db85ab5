"""Redundant-constraint analysis: classification, multiplier caps and their
closed forms, the duality scan, box geometry of the membership set, the
zero-uplift necessary condition, support-based optimality, and repair."""

import random

import pytest

from uplift_zero import (
    Const,
    Output,
    PreconditionError,
    Status,
    Sub,
    UnitParams,
    UnitSchedule,
    ValidationError,
    build_constant_profit,
    build_convex_hull_amendment,
    box_structure,
    build_uplift_delta,
    classify_constraint,
    delta_of,
    in_m_plus,
    min_uplift,
    mu_max,
    multiplier_optimality,
    neg,
    repair,
    scale,
    standard_profit,
    strong_duality_scan,
    unit_profit_max,
    zero_uplift_necessary,
)
from uplift_zero.model import feasible_set_samples

from conftest import (
    delta_partition_constraints,
    random_price,
    random_redundant_constraints,
    random_unit,
)

MT = UnitParams(id="m", g_min=2.0, g_max=6.0, marginal_cost=7.0, startup_cost=0.0)
CHP10 = (44.0 / 7.0,)
MT_STAR = UnitSchedule((1,), (3.0,))


def lower_box(unit):
    # u*g_min - g <= 0
    return Sub(scale(unit.g_min, Status(0)), Output(0))


def upper_box(unit):
    # g - u*g_max <= 0
    return Sub(Output(0), scale(unit.g_max, Status(0)))


class TestClassification:
    def test_identically_zero(self):
        cls = classify_constraint(MT, CHP10, Const(0.0))
        assert cls.kind == "identically_zero"
        assert cls.upper is None
        assert cls.support_witness is None

    def test_strictly_negative(self):
        cls = classify_constraint(MT, CHP10, Const(-1.0))
        assert cls.kind == "strictly_negative"
        # raising the multiplier immediately lifts the profit maximum
        assert cls.upper == pytest.approx(0.0)
        assert cls.zero_witness is None

    def test_mixed_delta(self):
        cls = classify_constraint(MT, CHP10, neg(delta_of(MT_STAR)))
        assert cls.kind == "mixed"
        assert cls.upper == pytest.approx(15.0 / 7.0)

    def test_mixed_box(self):
        cls = classify_constraint(MT, CHP10, lower_box(MT))
        assert cls.kind == "mixed"
        assert cls.support_witness is not None
        assert cls.zero_witness is not None

    def test_positive_constraint_rejected(self):
        with pytest.raises(PreconditionError, match="not redundant"):
            classify_constraint(MT, CHP10, Const(0.5))

    def test_nan_constraint_rejected(self):
        # NaN is not <= eq_tol: it must not pass as a constraint that is 0
        unit, nan = UnitParams("X", 0, 1, 1, 0), Const(float("nan"))
        with pytest.raises(PreconditionError, match=r"positive \(nan\).* not redundant"):
            classify_constraint(unit, 2.0, nan)
        with pytest.raises(PreconditionError, match="not redundant"):
            in_m_plus(unit, 2.0, [nan], [1.0])


class TestMuMaxClosedForms:
    def test_needs_mixed_kind(self):
        with pytest.raises(PreconditionError, match="mixed"):
            mu_max(MT, CHP10, Const(0.0))
        with pytest.raises(PreconditionError, match="mixed"):
            mu_max(MT, CHP10, Const(-1.0))

    def test_upper_box_profitable_price(self):
        # with the price at or above the capacity breakeven, the profit gap
        # to the maximum is exactly (p - a)(g_max - g), so the cap on
        # g - u*g_max <= 0 is the margin itself
        rng = random.Random(71)
        for k in range(30):
            u = random_unit(rng, f"C{k}", periods=1)
            if u.g_max - u.g_min < 0.05:
                continue
            th = u.marginal_cost + u.startup_cost / u.g_max
            p = th + rng.uniform(0.0, 5.0)
            got = mu_max(u, (p,), upper_box(u))
            assert got == pytest.approx(p - u.marginal_cost, abs=1e-6)

    def test_lower_box_unprofitable_price(self):
        # below the breakeven the best profit is zero, and the binding ratio
        # sits at capacity: cap = -profit(online, g_max) / (g_max - g_min)
        rng = random.Random(73)
        for k in range(30):
            u = random_unit(rng, f"D{k}", periods=1)
            if u.g_max - u.g_min < 0.05:
                continue
            th = u.marginal_cost + u.startup_cost / u.g_max
            p = max(0.0, th - rng.uniform(0.05, 5.0))
            if p >= th:
                continue
            online_max = standard_profit(u, (p,), UnitSchedule((1,), (u.g_max,)))
            want = -online_max / (u.g_max - u.g_min)
            got = mu_max(u, (p,), lower_box(u))
            assert got == pytest.approx(want, abs=1e-6)

    def test_delta_cap_equals_gap(self):
        rng = random.Random(79)
        for k in range(15):
            u = random_unit(rng, f"G{k}", periods=1)
            p = random_price(rng, 1)
            best = unit_profit_max(u, p, 1).value
            lattice = feasible_set_samples(u, periods=1)
            point = min(lattice, key=lambda s: standard_profit(u, p, s))
            gap = best - standard_profit(u, p, point)
            if gap <= 1e-6:
                continue
            got = mu_max(u, p, neg(delta_of(point)))
            assert got == pytest.approx(gap, abs=1e-7)


class TestStrongDualityScan:
    def test_scarf_unit(self):
        rep = strong_duality_scan(MT, CHP10, [lower_box(MT), upper_box(MT)])
        assert rep.passed, rep.failures()

    def test_baseline_is_profit_max(self):
        # the scan minimum is attained at mu = 0 where the amended maximum
        # is just the standard profit maximum
        rep = strong_duality_scan(MT, CHP10, [lower_box(MT), upper_box(MT)])
        check = rep.check_named("minimum-attained-at-zero")
        assert check.lhs == pytest.approx(unit_profit_max(MT, CHP10, 1).value)

    def test_random_families(self):
        rng = random.Random(83)
        for k in range(12):
            u = random_unit(rng, f"S{k}", periods=1)
            p = random_price(rng, 1)
            rhos = random_redundant_constraints(rng, u, p, rng.randint(1, 3), None)
            rep = strong_duality_scan(u, p, rhos)
            assert rep.passed, (u, p, rep.failures())
            check = rep.check_named("minimum-attained-at-zero")
            assert check.lhs == pytest.approx(
                unit_profit_max(u, p, 1).value, abs=1e-7
            )


class TestBoxStructure:
    def test_members_stay_inside_intervals(self):
        from uplift_zero import box_structure

        rng = random.Random(89)
        for k in range(12):
            u = random_unit(rng, f"B{k}", periods=1)
            p = random_price(rng, 1)
            rhos = random_redundant_constraints(rng, u, p, rng.randint(1, 3), None)
            samples = []
            for _ in range(8):
                samples.append([rng.uniform(0.0, 3.0) for _ in rhos])
            rep = box_structure(u, p, rhos, samples)
            assert rep.check_named("members-inside-axis-intervals").passed

    def test_disjoint_supports_box_equality(self):
        from uplift_zero import box_structure

        rng = random.Random(97)
        for k in range(12):
            u = random_unit(rng, f"P{k}", periods=1)
            p = random_price(rng, 1)
            rhos = delta_partition_constraints(rng, u, p, rng.randint(2, 4))
            rep = box_structure(u, p, rhos, [[0.0] * len(rhos)])
            assert rep.check_named("supports-pairwise-disjoint").passed
            assert rep.check_named("box-corners-are-members").passed

    def test_overlapping_supports_skip_corner_check(self):
        from uplift_zero import box_structure

        rho = neg(delta_of(MT_STAR))
        rep = box_structure(MT, CHP10, [rho, rho], [[0.0, 0.0]])
        assert not rep.check_named("supports-pairwise-disjoint").passed
        with pytest.raises(KeyError):
            rep.check_named("box-corners-are-members")
        # the informational disjointness flag must not fail the report
        assert rep.passed


class TestZeroUpliftNecessary:
    def test_never_rejects_absorbing_families(self, scarf10):
        inst, p, sched = scarf10.instance, scarf10.price, scarf10.result.schedule
        for unit in inst.units:
            star = sched.unit(unit.id)
            for build in (build_uplift_delta, build_convex_hull_amendment):
                b = build(unit, p, star)
                res = min_uplift(unit, p, list(b.constraints), star)
                assert res.value == 0.0
                rep = zero_uplift_necessary(unit, p, list(b.constraints), star)
                assert rep.passed, (unit.id, rep.failures())

    def test_detects_unreachable_dispatch_gap(self):
        # a family that never touches the dispatch point cannot absorb its
        # uplift; the necessary condition proves the residual is positive
        other = UnitSchedule((1,), (5.0,))
        rhos = [neg(delta_of(other))]
        rep = zero_uplift_necessary(MT, CHP10, rhos, MT_STAR)
        assert not rep.passed
        res = min_uplift(MT, CHP10, rhos, MT_STAR)
        assert res.value > 1e-6

    def test_random_consistency(self):
        rng = random.Random(101)
        for k in range(20):
            u = random_unit(rng, f"Z{k}", periods=1)
            p = random_price(rng, 1)
            lattice = feasible_set_samples(u, periods=1)
            star = rng.choice(lattice)
            rhos = random_redundant_constraints(rng, u, p, rng.randint(1, 3), star)
            res = min_uplift(u, p, rhos, star)
            rep = zero_uplift_necessary(u, p, rhos, star)
            if res.value == 0.0:
                assert rep.passed, (u, p, star, rep.failures())


class TestMultiplierOptimality:
    def test_exact_family_passes(self, scarf10):
        unit = next(u for u in scarf10.instance.units if u.id == "Med Tech-1")
        star = scarf10.result.schedule.unit(unit.id)
        b = build_uplift_delta(unit, scarf10.price, star)
        rep = multiplier_optimality(
            unit, scarf10.price, list(b.constraints), list(b.multipliers), star
        )
        assert rep.passed, rep.failures()
        assert rep.check_named("absorbs-uplift-at-dispatch").passed
        assert rep.check_named("dominates-profit-gap").passed

    def test_requires_positive_uplift(self, scarf10):
        unit = next(u for u in scarf10.instance.units if u.id == "High Tech-1")
        star = scarf10.result.schedule.unit(unit.id)
        b = build_uplift_delta(unit, scarf10.price, star)
        with pytest.raises(PreconditionError, match="no uplift"):
            multiplier_optimality(
                unit, scarf10.price, list(b.constraints), list(b.multipliers), star
            )

    def test_undershoot_flagged_consistently(self):
        rho = neg(delta_of(MT_STAR))
        rep = multiplier_optimality(MT, CHP10, [rho], [1.0], MT_STAR)
        assert not rep.check_named("absorbs-uplift-at-dispatch").passed
        assert not rep.check_named("active-coordinates-at-cap").passed
        assert rep.check_named("criteria-agreement").passed

    def test_criteria_agree_on_random_input(self):
        rng = random.Random(103)
        tried = 0
        for k in range(60):
            u = random_unit(rng, f"A{k}", periods=1)
            p = random_price(rng, 1)
            lattice = feasible_set_samples(u, periods=1)
            star = min(lattice, key=lambda s: standard_profit(u, p, s))
            best = unit_profit_max(u, p, 1).value
            if best - standard_profit(u, p, star) < 1e-3:
                continue
            rhos = random_redundant_constraints(rng, u, p, rng.randint(1, 3), star)
            pick = rng.random()
            if pick < 0.4:
                mu = list(min_uplift(u, p, rhos, star).multipliers)
            elif pick < 0.8:
                factor = rng.uniform(0.0, 1.5)
                mu = [factor * m for m in min_uplift(u, p, rhos, star).multipliers]
            else:
                mu = [rng.uniform(0.0, 2.0) for _ in rhos]
            rep = multiplier_optimality(u, p, rhos, mu, star)
            assert rep.check_named("criteria-agreement").passed, (u, p, mu)
            tried += 1
        assert tried >= 30


class TestRepair:
    def test_restores_absorption(self):
        # constant-profit constraints dominate at any scale below one but
        # absorb only part of the dispatch gap; repair adds the missing
        # point payment
        b = build_constant_profit(MT, CHP10, 1)
        mu = [0.4]
        fixed = repair(MT, CHP10, list(b.constraints), mu, MT_STAR)
        absorbed = sum(
            m * rho.evaluate(MT_STAR) for m, rho in zip(mu, fixed)
        )
        star_gap = standard_profit(MT, CHP10, MT_STAR) - unit_profit_max(
            MT, CHP10, 1
        ).value
        assert absorbed == pytest.approx(star_gap, abs=1e-9)
        rep = multiplier_optimality(MT, CHP10, list(fixed), mu, MT_STAR)
        assert rep.check_named("absorbs-uplift-at-dispatch").passed
        assert rep.check_named("dominates-profit-gap").passed

    def test_repaired_constraints_stay_redundant(self):
        b = build_constant_profit(MT, CHP10, 1)
        fixed = repair(MT, CHP10, list(b.constraints), [0.25], MT_STAR)
        lattice = feasible_set_samples(MT, anchors=(MT_STAR,), periods=1)
        for rho in fixed:
            assert all(rho.evaluate(s) <= 1e-9 for s in lattice)

    def test_rejects_non_dominating_family(self):
        # an oversized point payment dips below the profit gap at dispatch
        rho = neg(delta_of(MT_STAR))
        with pytest.raises(PreconditionError, match="dominate"):
            repair(MT, CHP10, [rho], [10.0], MT_STAR)

    def test_rejects_zero_multipliers(self):
        b = build_constant_profit(MT, CHP10, 1)
        with pytest.raises(PreconditionError, match="non-zero"):
            repair(MT, CHP10, list(b.constraints), [0.0], MT_STAR)

    def test_noop_when_already_exact(self):
        b = build_uplift_delta(MT, CHP10, MT_STAR)
        fixed = repair(MT, CHP10, list(b.constraints), list(b.multipliers), MT_STAR)
        lattice = feasible_set_samples(MT, anchors=(MT_STAR,), periods=1)
        for old, new in zip(b.constraints, fixed):
            for s in lattice:
                assert new.evaluate(s) == pytest.approx(old.evaluate(s), abs=1e-9)

    def test_random_round_trip(self):
        rng = random.Random(107)
        done = 0
        for k in range(40):
            u = random_unit(rng, f"R{k}", periods=1)
            p = random_price(rng, 1)
            lattice = feasible_set_samples(u, periods=1)
            star = min(lattice, key=lambda s: standard_profit(u, p, s))
            best = unit_profit_max(u, p, 1).value
            star_gap = standard_profit(u, p, star) - best
            if star_gap > -1e-3:
                continue
            b = build_constant_profit(u, p, 1)
            mu = [rng.uniform(0.05, 0.95)]
            fixed = repair(u, p, list(b.constraints), mu, star)
            absorbed = sum(m * rho.evaluate(star) for m, rho in zip(mu, fixed))
            assert absorbed == pytest.approx(star_gap, abs=1e-7)
            for rho in fixed:
                assert all(rho.evaluate(s) <= 1e-9 for s in lattice)
            done += 1
        assert done >= 15


def test_dispatch_point_an_ulp_off_a_grid_output_attains_the_cap():
    # the lattice keeps the grid's 0.8 for x*'s 0.8000000000000002 (same
    # 12-decimal key); x* must still be found among the cap's minimizers
    unit = UnitParams("X", 0.0, 16.0, 3.0, 0.0)
    for g in (0.8000000000000002, 0.8, 0.7999999999999999):
        x = UnitSchedule((1,), (g,))
        report = multiplier_optimality(unit, (2.0,), [neg(delta_of(x))], [g], x)
        assert report.passed, (g, [c.condition for c in report.failures()])


class TestBoxStructureFailures:
    UNIT = UnitParams("X", 0.0, 1.0, 1.0, 0.0)  # profit maximum at price 2: g = 1

    def test_member_outside_its_axis_interval(self):
        # rho = -2e-7 everywhere: the cap is 0 (the argmax has gap 0), yet
        # within opt_tol = 1e-6 every mu up to 5 is a member
        report = box_structure(self.UNIT, (2.0,), [Const(-2e-7)], [[4.0]])
        check = report.check_named("members-inside-axis-intervals")
        assert not check.passed
        assert check.witness["multipliers"] == [4.0] and check.witness["axis"] == 0

    def test_box_corner_that_is_not_a_member(self):
        # rho = 0.001 (g - 1) - 5e-8 u: off the support (|rho| <= eq_tol)
        # only at g = 1, where the gap is 0, so the cap of about 1000 comes
        # from the other points, and mu = cap pays 5e-5 > opt_tol at g = 1
        rho = Sub(scale(0.001, Sub(Output(0), Const(1.0))), scale(5e-8, Status(0)))
        report = box_structure(self.UNIT, (2.0,), [rho], [])
        assert report.check_named("supports-pairwise-disjoint").passed
        check = report.check_named("box-corners-are-members")
        assert not check.passed
        assert check.witness["multipliers"][0] > 999.0
