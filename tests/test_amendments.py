"""Amendment builders: golden coefficients, the full verification contract
on the two stock scenarios, preconditions, serialization, the aggregate
constraint, and agreement with convex-envelope oracles."""

import dataclasses
import random

import pytest

from uplift_zero import (
    AmendmentBundle,
    Const,
    Formulation,
    MarketInstance,
    Output,
    PreconditionError,
    UnitParams,
    UnitSchedule,
    ValidationError,
    aggregate_constraint,
    build_constant_profit,
    build_convex_hull_amendment,
    build_family,
    build_general_form,
    build_linear_unit,
    build_status_delta,
    build_status_profile,
    build_uplift_delta,
    bundles_from_json,
    bundles_to_json,
    check_zero_total_uplift,
    expr_to_text,
    marginal_price,
    scale,
    standard_profit,
    unit_profit_max,
    uplift_report,
    verify_conditions,
)
from uplift_zero import amendments
from uplift_zero.amendments import FAMILIES
from uplift_zero.model import _groups, exact_key, feasible_set_samples, unit_key

from _oracles import (
    hull_amendment_oracle_online,
    hull_amendment_oracle_output_only,
)
from conftest import OFFLINE, online_schedule, random_price, random_unit

HULL_FAMILIES = (
    "uplift-delta",
    "constant-profit",
    "general-form",
    "linear-unit",
    "convex-hull",
)
ALL_FAMILIES = tuple(FAMILIES)


def mt_unit(inst):
    return next(u for u in inst.units if u.id == "Med Tech-1")


class TestGoldenCoefficients:
    def test_uplift_delta_demand_10(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_uplift_delta(unit, scarf10.price, star)
        assert b.multipliers == pytest.approx((15.0 / 7.0,))
        assert b.family == "uplift-delta"

    def test_hull_text_demand_10(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_convex_hull_amendment(unit, scarf10.price, star)
        assert expr_to_text(b.amendment) == "2.143*min[g - 2*u, 0.3333*(6*u - g)]"

    def test_hull_output_form_demand_10(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_convex_hull_amendment(
            unit, scarf10.price, star, formulation=Formulation.OUTPUT_ONLY
        )
        for g, want in ((0.0, 0.0), (2.0, 10.0 / 7.0), (3.0, 15.0 / 7.0),
                        (4.5, 7.5 / 7.0), (6.0, 0.0)):
            sched = UnitSchedule((1 if g > 0 else 0,), (g,))
            assert b.amendment.evaluate(sched) == pytest.approx(want, abs=1e-9)

    def test_hull_multiplier_demand_40(self, scarf40):
        unit = mt_unit(scarf40.instance)
        star = scarf40.result.schedule.unit(unit.id)
        b = build_convex_hull_amendment(unit, scarf40.price, star)
        assert b.multipliers == pytest.approx((2.0625,))

    def test_linear_unit_demand_40(self, scarf40):
        unit = mt_unit(scarf40.instance)
        star = scarf40.result.schedule.unit(unit.id)
        b = build_linear_unit(unit, scarf40.price, star)
        assert b.multipliers == pytest.approx((1.03125, 0.34375, 0.0))
        assert expr_to_text(b.amendment) == "1.031*(g - 2*u) + 0.3438*(6*u - g)"

    def test_linear_unit_idle_unit_demand_40(self, scarf40):
        # an idle high-margin unit is paid its forgone profit when offline
        inst = scarf40.instance
        sched = scarf40.result.schedule
        idle = next(
            u for u in inst.units
            if u.id.startswith("High Tech") and sched.unit(u.id).u == (0,)
        )
        b = build_linear_unit(idle, scarf40.price, sched.unit(idle.id))
        assert b.multipliers == pytest.approx((0.0, 0.0, 0.1875))
        assert expr_to_text(b.amendment) == "0.1875*(1 - u)"

    def test_constant_profit_caps_at_best(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_constant_profit(unit, scarf10.price, star.periods)
        # amended profit is constant at the cap on every lattice point
        lattice = feasible_set_samples(
            unit, anchors=(star,), periods=1
        )
        best = unit_profit_max(unit, scarf10.price, 1).value
        for s in lattice:
            amended = standard_profit(unit, scarf10.price, s) + b.amendment.evaluate(s)
            assert amended == pytest.approx(best, abs=1e-9)


class TestFamiliesOnStockScenarios:
    @pytest.mark.parametrize("family", HULL_FAMILIES)
    def test_hull_price_families(self, family, scarf10, scarf40):
        for sc in (scarf10, scarf40):
            bundles = build_family(family, sc.instance, sc.price, sc.result.schedule)
            assert set(bundles) == {u.id for u in sc.instance.units}
            for unit in sc.instance.units:
                rep = verify_conditions(
                    unit, sc.price, bundles[unit.id], sc.result.schedule.unit(unit.id)
                )
                assert rep.passed, f"{family}/{unit.id}: {rep.failures()}"
            outcome = check_zero_total_uplift(
                sc.instance, sc.price, bundles, sc.result.schedule
            )
            assert outcome.passed, f"{family}: {outcome.failures()}"

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_marginal_price_families(self, family, scarf10, scarf40):
        for sc in (scarf10, scarf40):
            p = marginal_price(sc.instance, sc.result.schedule)
            bundles = build_family(family, sc.instance, p, sc.result.schedule)
            for unit in sc.instance.units:
                rep = verify_conditions(
                    unit, p, bundles[unit.id], sc.result.schedule.unit(unit.id)
                )
                assert rep.passed, f"{family}/{unit.id}: {rep.failures()}"
            outcome = check_zero_total_uplift(sc.instance, p, bundles, sc.result.schedule)
            assert outcome.passed, f"{family}: {outcome.failures()}"

    @pytest.mark.parametrize("family", ("uplift-delta", "general-form", "convex-hull"))
    def test_output_only_families(self, family, scarf10):
        sc = scarf10
        bundles = build_family(
            family, sc.instance, sc.price, sc.result.schedule,
            formulation=Formulation.OUTPUT_ONLY,
        )
        # units whose status is ambiguous at zero output keep status terms
        assert bundles["Smokestack-1"].formulation is Formulation.STATUS_OUTPUT
        assert bundles["Med Tech-1"].formulation is Formulation.OUTPUT_ONLY
        for unit in sc.instance.units:
            rep = verify_conditions(
                unit, sc.price, bundles[unit.id], sc.result.schedule.unit(unit.id)
            )
            assert rep.passed, f"{family}/{unit.id}: {rep.failures()}"


class TestMarketReportUnits:
    @staticmethod
    def doubled(bundles):
        return {
            uid: dataclasses.replace(
                b,
                amendment=scale(2.0, b.amendment),
                multipliers=tuple(2.0 * m for m in b.multipliers),
            )
            for uid, b in bundles.items()
        }

    @pytest.mark.parametrize("case", ("convex-hull", "uplift-delta", "doubled"))
    def test_unit_reports_equal_verify_conditions_alone(self, case, scarf10, scarf40):
        for sc in (scarf10, scarf40):
            family = "uplift-delta" if case == "doubled" else case
            bundles = build_family(family, sc.instance, sc.price, sc.result.schedule)
            if case == "doubled":
                bundles = self.doubled(bundles)
            outcome = check_zero_total_uplift(sc.instance, sc.price, bundles, sc.result.schedule)
            assert list(outcome.units) == [u.id for u in sc.instance.units]
            for unit in sc.instance.units:
                alone = verify_conditions(
                    unit, sc.price, bundles[unit.id], sc.result.schedule.unit(unit.id),
                    sc.instance.tolerances,
                )
                assert outcome.units[unit.id].to_json() == alone.to_json()
            assert all(rep.passed for rep in outcome.units.values()) == (case != "doubled")


class TestPreconditions:
    def test_status_families_need_marginal_style_prices(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        for build in (build_status_delta, build_status_profile):
            with pytest.raises(PreconditionError, match="marginal pricing"):
                build(unit, scarf10.price, star)

    def test_linear_unit_single_period_only(self):
        u = UnitParams(id="x", g_min=1.0, g_max=4.0, marginal_cost=2.0, startup_cost=1.0)
        star = UnitSchedule((1, 1), (2.0, 2.0))
        with pytest.raises(PreconditionError, match="single-period"):
            build_linear_unit(u, (3.0, 3.0), star)

    def test_linear_unit_needs_initially_offline(self):
        u = UnitParams(
            id="x", g_min=1.0, g_max=4.0, marginal_cost=2.0, startup_cost=1.0,
            initial_status=1,
        )
        with pytest.raises(PreconditionError, match="initially offline"):
            build_linear_unit(u, (3.0,), online_schedule(u, 2.0))

    def test_linear_unit_needs_capacity_range(self):
        u = UnitParams(id="x", g_min=4.0, g_max=4.0, marginal_cost=2.0, startup_cost=0.0)
        with pytest.raises(PreconditionError, match="g_min < g_max"):
            build_linear_unit(u, (3.0,), online_schedule(u, 4.0))

    def test_output_only_rejected_when_status_ambiguous(self):
        # zero minimum with a startup cost: an output of zero does not
        # determine whether the startup cost was paid
        u = UnitParams(id="x", g_min=0.0, g_max=4.0, marginal_cost=2.0, startup_cost=5.0)
        with pytest.raises(PreconditionError):
            build_constant_profit(u, (3.0,), 1, formulation=Formulation.OUTPUT_ONLY)
        with pytest.raises(PreconditionError):
            build_convex_hull_amendment(
                u, (3.0,), online_schedule(u, 2.0), formulation=Formulation.OUTPUT_ONLY
            )
        with pytest.raises(PreconditionError):
            build_uplift_delta(u, (3.0,), OFFLINE, formulation=Formulation.OUTPUT_ONLY)
        with pytest.raises(PreconditionError):
            build_general_form(u, (3.0,), OFFLINE, formulation=Formulation.OUTPUT_ONLY)

    def test_status_families_rejected_for_output_only(self, scarf10):
        p = marginal_price(scarf10.instance, scarf10.result.schedule)
        for family in ("status-delta", "status-profile"):
            with pytest.raises(PreconditionError):
                build_family(
                    family, scarf10.instance, p, scarf10.result.schedule,
                    formulation=Formulation.OUTPUT_ONLY,
                )

    def test_unknown_family(self, scarf10):
        with pytest.raises(ValidationError, match="unknown family"):
            build_family("magic", scarf10.instance, scarf10.price, scarf10.result.schedule)


class TestGeneralForm:
    def test_positive_shift_still_verifies(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_general_form(unit, scarf10.price, star, gamma=Const(0.7))
        rep = verify_conditions(unit, scarf10.price, b, star)
        assert rep.passed, rep.failures()

    def test_negative_shift_rejected(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        with pytest.raises(PreconditionError, match="gamma"):
            build_general_form(unit, scarf10.price, star, gamma=Const(-0.2))

    def test_nan_shift_rejected(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        with pytest.raises(PreconditionError, match="gamma"):
            build_general_form(unit, scarf10.price, star, gamma=Const(float("nan")))

    def test_zero_shift_matches_uplift_delta_at_dispatch(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        gf = build_general_form(unit, scarf10.price, star)
        ud = build_uplift_delta(unit, scarf10.price, star)
        assert gf.amendment.evaluate(star) == pytest.approx(
            ud.amendment.evaluate(star), abs=1e-12
        )


class TestBundleSerde:
    def test_round_trip_preserves_evaluation(self, scarf10):
        sc = scarf10
        for family in HULL_FAMILIES:
            bundles = build_family(family, sc.instance, sc.price, sc.result.schedule)
            back = bundles_from_json(bundles_to_json(bundles))
            assert set(back) == set(bundles)
            for unit in sc.instance.units:
                star = sc.result.schedule.unit(unit.id)
                lattice = feasible_set_samples(
                    unit, anchors=(star,), periods=1
                )
                a, b = bundles[unit.id], back[unit.id]
                assert b.family == a.family
                assert b.multipliers == a.multipliers
                for s in lattice:
                    assert b.amendment.evaluate(s) == pytest.approx(
                        a.amendment.evaluate(s), abs=1e-12
                    )
                    for ra, rb in zip(a.constraints, b.constraints):
                        assert rb.evaluate(s) == pytest.approx(
                            ra.evaluate(s), abs=1e-12
                        )

    def test_copies_share_their_multipliers(self, scarf40):
        # every unit of a group holds its first unit's bundle, and so its
        # multipliers tuple, not an equal one
        sc = scarf40
        units = sc.instance.units
        bundles = build_family("convex-hull", sc.instance, sc.price, sc.result.schedule)
        firsts, group_of = _groups(
            exact_key(unit_key(unit), sc.result.schedule.unit(unit.id)) for unit in units)
        for unit, g in zip(units, group_of):
            first = bundles[units[firsts[g]].id]
            assert bundles[unit.id].multipliers is first.multipliers
        assert len({id(b.multipliers) for b in bundles.values()}) <= len(firsts) < len(units)
        # anything but a tuple of floats is still converted
        b = dataclasses.replace(first, multipliers=[1] * len(first.multipliers))
        assert b.multipliers == (1.0,) * len(first.multipliers)
        assert all(type(m) is float for m in b.multipliers)

    def test_negative_multiplier_rejected(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_uplift_delta(unit, scarf10.price, star)
        with pytest.raises(ValidationError):
            dataclasses.replace(b, multipliers=(-1.0,))

    def test_length_mismatch_rejected(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_uplift_delta(unit, scarf10.price, star)
        with pytest.raises(ValidationError):
            dataclasses.replace(b, multipliers=(1.0, 1.0))

    def test_load_errors_name_the_unit(self, scarf10):
        # a bundle names no unit, so the loader puts the unit in its errors
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        obj = build_uplift_delta(unit, scarf10.price, star).to_json()
        no_n = {k: v for k, v in obj.items() if k != "N"}
        for bad, text in (
            (dict(obj, mu=[True]), "bad amendment bundle for unit 'Med Tech-1'"),
            (no_n, "bad amendment bundle for unit 'Med Tech-1'"),
            (dict(obj, mu=[float("nan")]), "unit Med Tech-1: multipliers must be finite"),
        ):
            with pytest.raises(ValidationError) as caught:
                bundles_from_json({"High Tech-1": obj, unit.id: bad})
            assert str(caught.value) == text
        with pytest.raises(ValidationError) as caught:
            AmendmentBundle.from_json(dict(obj, mu="1"))
        assert str(caught.value) == "bad amendment bundle"

    @pytest.mark.parametrize("value", ("NaN", "Infinity"))
    def test_non_finite_multiplier_rejected(self, scarf10, value):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        obj = build_uplift_delta(unit, scarf10.price, star).to_json()
        obj["mu"] = [float(value)]
        with pytest.raises(ValidationError, match="multipliers must be finite"):
            bundles_from_json({unit.id: obj})


class TestAggregate:
    def test_evaluates_to_minus_total_uplift(self, scarf10, scarf40):
        for sc, total in ((scarf10, 15.0 / 7.0), (scarf40, 2.4375)):
            bundles = build_family(
                "convex-hull", sc.instance, sc.price, sc.result.schedule
            )
            agg = aggregate_constraint(sc.instance, sc.price, bundles, sc.result.schedule)
            assert agg.evaluate(sc.result.schedule) == pytest.approx(-total, abs=1e-9)
            assert agg.nu == 1.0

    def test_verify_flag_catches_bad_bundles(self, scarf10):
        sc = scarf10
        bundles = dict(
            build_family("uplift-delta", sc.instance, sc.price, sc.result.schedule)
        )
        uid = "Med Tech-1"
        bad = bundles[uid]
        bundles[uid] = dataclasses.replace(
            bad,
            amendment=scale(3.0, bad.amendment),
            constraints=tuple(scale(3.0, r) for r in bad.constraints),
        )
        with pytest.raises(PreconditionError):
            aggregate_constraint(sc.instance, sc.price, bundles, sc.result.schedule)

    def test_first_bad_unit_raises_before_later_units_are_verified(self, scarf10):
        sc = scarf10
        bundles = dict(
            build_family("uplift-delta", sc.instance, sc.price, sc.result.schedule)
        )
        bad = bundles["Med Tech-1"]
        bundles["Med Tech-1"] = dataclasses.replace(
            bad,
            amendment=scale(3.0, bad.amendment),
            constraints=tuple(scale(3.0, r) for r in bad.constraints),
        )
        # verifying Med Tech-5 would raise: its amendment reads period 2 of
        # a one-period schedule
        bundles["Med Tech-5"] = dataclasses.replace(bundles["Med Tech-5"], amendment=Output(1))
        with pytest.raises(ValidationError, match="period 2"):
            unit = next(u for u in sc.instance.units if u.id == "Med Tech-5")
            verify_conditions(unit, sc.price, bundles[unit.id], sc.result.schedule.unit(unit.id))
        with pytest.raises(PreconditionError, match="unit Med Tech-1:"):
            aggregate_constraint(sc.instance, sc.price, bundles, sc.result.schedule)

    def test_missing_bundle_raises(self, scarf10):
        sc = scarf10
        bundles = build_family("convex-hull", sc.instance, sc.price, sc.result.schedule)
        del bundles["High Tech-2"]
        for check in (aggregate_constraint, check_zero_total_uplift):
            with pytest.raises(ValidationError, match="no bundle for unit High Tech-2"):
                check(sc.instance, sc.price, bundles, sc.result.schedule)

    def test_missing_bundle_raises_before_any_unit_is_verified(self, scarf10, monkeypatch):
        # every unit's bundle is looked up before the first is verified, so
        # the units before the last one in instance order are not verified
        sc = scarf10
        bundles = build_family("convex-hull", sc.instance, sc.price, sc.result.schedule)
        last = sc.instance.units[-1].id
        del bundles[last]
        verified = []
        monkeypatch.setattr(amendments, "_verify_on", lambda *args: verified.append(args))
        with pytest.raises(ValidationError, match=f"^no bundle for unit {last}$"):
            aggregate_constraint(sc.instance, sc.price, bundles, sc.result.schedule)
        assert verified == []

    def test_json_shape(self, scarf10):
        sc = scarf10
        bundles = build_family("convex-hull", sc.instance, sc.price, sc.result.schedule)
        agg = aggregate_constraint(sc.instance, sc.price, bundles, sc.result.schedule)
        doc = agg.to_json()
        assert set(doc) == {"amendments", "nu"}
        assert set(doc["amendments"]) == {u.id for u in sc.instance.units}


class TestEnvelopeOracles:
    def grid(self, unit, n=57):
        span = unit.g_max - unit.g_min
        return [0.0] + [unit.g_min + span * k / (n - 1) for k in range(n)]

    def test_output_form_matches_envelope(self):
        # interior dispatch points only: at a bound or offline the builder
        # degenerates to box-constraint forms instead of the full envelope
        rng = random.Random(61)
        done = 0
        while done < 20:
            u = random_unit(rng, f"E{done}", periods=1)
            if u.g_min <= 0.05 or u.g_max - u.g_min < 0.1:
                continue
            p = random_price(rng, 1)
            pm = unit_profit_max(u, p, 1)
            span = u.g_max - u.g_min
            g_star = round(u.g_min + rng.uniform(0.05, 0.95) * span, 3)
            star = UnitSchedule((1,), (g_star,))
            gap = pm.value - standard_profit(u, p, star)
            b = build_convex_hull_amendment(
                u, p, star, formulation=Formulation.OUTPUT_ONLY
            )
            oracle = hull_amendment_oracle_output_only(u, gap, g_star)
            for g in self.grid(u):
                sched = UnitSchedule((1 if g > 0 else 0,), (g,))
                assert b.amendment.evaluate(sched) == pytest.approx(
                    oracle(g), abs=1e-7
                ), (u, p, g_star, g)
            done += 1

    @pytest.mark.parametrize("unit,price,star", (
        # offline at a price that covers the cold start at full output
        (UnitParams("O", 2.0, 6.0, 3.0, 6.0), 5.0, OFFLINE),
        # at g_min, price covers the cold start
        (UnitParams("M", 2.0, 6.0, 3.0, 6.0), 5.0, UnitSchedule((1,), (2.0,))),
        # at g_max, price does not cover the cold start
        (UnitParams("X", 2.0, 6.0, 3.0, 12.0), 4.0, UnitSchedule((1,), (6.0,))),
        # online at a zero g_min, which the output reads as offline
        (UnitParams("C", 0.0, 1.0, 3.0, 0.0), 6.0, UnitSchedule((1,), (0.0,))),
    ), ids=("offline-covered", "min-covered", "max-uncovered", "zero-min-covered"))
    def test_output_form_box_ends_match_envelope(self, unit, price, star):
        b = build_convex_hull_amendment(unit, (price,), star, formulation=Formulation.OUTPUT_ONLY)
        gap = unit_profit_max(unit, (price,), 1).value - standard_profit(unit, (price,), star)
        oracle = hull_amendment_oracle_output_only(unit, gap, star.g[0])
        for g in self.grid(unit):
            sched = UnitSchedule((1 if g > 0 else 0,), (g,))
            assert b.amendment.evaluate(sched) == pytest.approx(oracle(g), abs=1e-9), g
        rep = verify_conditions(unit, (price,), b, star)
        assert rep.passed, rep.failures()

    def test_online_branch_matches_envelope(self):
        rng = random.Random(67)
        done = 0
        while done < 20:
            u = random_unit(rng, f"F{done}", periods=1)
            if u.g_max - u.g_min < 0.1:
                continue
            p = random_price(rng, 1)
            pm = unit_profit_max(u, p, 1)
            g_star = rng.choice(
                (u.g_min, u.g_max, round(rng.uniform(u.g_min, u.g_max), 3))
            )
            star = UnitSchedule((1,), (g_star,))
            gap = pm.value - standard_profit(u, p, star)
            b = build_convex_hull_amendment(u, p, star)
            oracle = hull_amendment_oracle_online(u, gap, g_star)
            for g in self.grid(u)[1:]:
                sched = UnitSchedule((1,), (g,))
                assert b.amendment.evaluate(sched) == pytest.approx(
                    oracle(g), abs=1e-7
                ), (u, p, g_star, g)
            done += 1


class TestVerifyDetectsBreakage:
    def tampered(self, scarf10, factor):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_uplift_delta(unit, scarf10.price, star)
        broken = dataclasses.replace(
            b,
            amendment=scale(factor, b.amendment),
            multipliers=tuple(factor * m for m in b.multipliers),
        )
        return unit, star, broken

    def test_undershoot_leaves_uplift(self, scarf10):
        unit, star, broken = self.tampered(scarf10, 0.5)
        rep = verify_conditions(unit, scarf10.price, broken, star)
        assert not rep.passed
        failed = {c.condition for c in rep.failures()}
        assert "zero-uplift-at-dispatch" in failed

    def test_overshoot_raises_profit_cap(self, scarf10):
        unit, star, broken = self.tampered(scarf10, 2.0)
        rep = verify_conditions(unit, scarf10.price, broken, star)
        assert not rep.passed
        failed = {c.condition for c in rep.failures()}
        assert "max-profit-unchanged" in failed

    def test_amendment_constraint_mismatch_detected(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_uplift_delta(unit, scarf10.price, star)
        broken = dataclasses.replace(b, amendment=scale(1.5, b.amendment))
        rep = verify_conditions(unit, scarf10.price, broken, star)
        assert not rep.passed
        failed = {c.condition for c in rep.failures()}
        assert "amendment-matches-constraints" in failed

    def test_negative_amendment_detected(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_uplift_delta(unit, scarf10.price, star)
        broken = dataclasses.replace(
            b,
            amendment=scale(-1.0, b.amendment),
            constraints=tuple(scale(-1.0, r) for r in b.constraints),
        )
        rep = verify_conditions(unit, scarf10.price, broken, star)
        assert not rep.passed
        failed = {c.condition for c in rep.failures()}
        assert "nonnegative" in failed

    def test_nan_constraint_detected(self, scarf10):
        unit = mt_unit(scarf10.instance)
        star = scarf10.result.schedule.unit(unit.id)
        b = build_uplift_delta(unit, scarf10.price, star)
        broken = dataclasses.replace(b, constraints=(Const(float("nan")),))
        rep = verify_conditions(unit, scarf10.price, broken, star)
        assert not rep.check_named("constraint-nonpositive").passed


class TestCallerTolerance:
    """A schedule accepted at the instance's eq_tol is priced as it is, not
    validated again at the default eq_tol."""

    UNIT = UnitParams("U", 1.0, 10.0, 2.0, 5.0)

    def market(self):
        from uplift_zero import Schedule, ToleranceConfig
        from uplift_zero.model import validate_schedule

        x_star = Schedule({"U": UnitSchedule((1,), (10.005,))})   # 0.005 above g_max
        instance = MarketInstance(1, (10.005,), (self.UNIT,), ToleranceConfig(eq_tol=0.01))
        validate_schedule(instance, x_star)
        return instance, x_star

    @pytest.mark.parametrize("family", ("uplift-delta", "general-form", "linear-unit",
                                        "convex-hull"))
    def test_schedule_within_instance_tolerance(self, family):
        instance, x_star = self.market()
        price = (1.5,)
        report = uplift_report(instance, price, x_star)
        assert report.entry("U").dispatch_profit == 1.5 * 10.005 - (2.0 * 10.005 + 5.0)
        bundles = build_family(family, instance, price, x_star)
        market = check_zero_total_uplift(instance, price, bundles, x_star)
        assert set(market.units) == {"U"}

    # A known defect, kept here until it is fixed.  x* lies 0.005 above
    # g_max, within eq_tol = 0.01.  `uplift-delta` pays its lump sum at every
    # point within eq_tol of x*, the lattice point at g_max among them, whose
    # profit is higher; `linear-unit` and `convex-hull` fail there too.
    _AT_G_MAX = ("U: max-profit-unchanged, dominates-profit-gap; "
                 "market: zero-total-uplift, amended-dual-at-price")
    _AT_END = ("U: max-profit-unchanged, zero-uplift-at-dispatch, absorbs-uplift-at-dispatch, "
               "dominates-profit-gap; market: amended-dual-at-price")

    @pytest.mark.parametrize("family", (
        pytest.param("uplift-delta", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=_AT_G_MAX)),
        "general-form",
        pytest.param("linear-unit", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=_AT_END)),
        pytest.param("convex-hull", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=_AT_END)),
    ))
    def test_zero_total_uplift_within_instance_tolerance(self, family):
        instance, x_star = self.market()
        price = (1.5,)
        bundles = build_family(family, instance, price, x_star)
        market = check_zero_total_uplift(instance, price, bundles, x_star)
        failed = [f"U: {c.condition}" for c in market.units["U"].failures()]
        failed += [f"market: {c.condition}" for c in market.failures()]
        assert market.passed and not failed, failed


def test_amendment_paying_at_the_profit_argmax_fails_with_a_witness():
    # the unit's profit maximum at price 2 is online at g_max = 1; a bundle
    # that pays 1 everywhere pays there too
    unit = UnitParams(id="X", g_min=0.0, g_max=1.0, marginal_cost=1.0, startup_cost=0.0)
    bundle = AmendmentBundle(
        family="test", formulation=Formulation.STATUS_OUTPUT,
        amendment=Const(1.0), constraints=(Const(-1.0),), multipliers=(1.0,),
    )
    report = verify_conditions(unit, (2.0,), bundle, OFFLINE)
    check = report.check_named("zero-at-profit-argmax")
    assert not check.passed
    assert check.witness == {"u": [1], "g": [1.0]}


def test_single_period_forms_verify_near_a_box_end():
    # An output within eq_tol of an end but off it (by an ulp or by most of
    # eq_tol), in boxes from half eq_tol to 5 wide, at prices that cover a
    # cold start at full output or do not: every single-period closed form
    # must verify and leave no residual uplift at x*.  Stated at the end's
    # output, the end forms failed on hundreds of these cases.
    from uplift_zero.model import ToleranceConfig

    rng = random.Random(1603)
    for _ in range(300):
        tol = ToleranceConfig(eq_tol=rng.choice((1e-7, 1e-6)))
        g_min = rng.choice((0.0, 0.5, 1.0, 1.9))
        g_max = g_min + rng.choice((0.5, 1.5, 1e5, 5e5, 1e6, 5e7)) * tol.eq_tol
        c = rng.choice((-1.0, 0.0, 1.0, 3.0))
        w = rng.choice((0.0, 0.5, 5.0))
        unit = UnitParams("N", g_min, g_max, c, w)
        p = rng.choice((c, c + w / g_max, c + 0.5 * w / g_max, c + rng.uniform(-1.0, 3.0)))
        delta = rng.choice((2e-16 * max(1.0, g_max), rng.uniform(0.3, 0.99) * tol.eq_tol))
        g = min(g_min + delta, g_max) if rng.random() < 0.5 else max(g_max - delta, g_min)
        x = UnitSchedule((1,), (g,))
        builders = [lambda: build_linear_unit(unit, p, x, tol),
                    lambda: build_convex_hull_amendment(unit, p, x, Formulation.STATUS_OUTPUT, tol)]
        if g_min > 0 or w == 0:
            builders.append(lambda: build_convex_hull_amendment(
                unit, p, x, Formulation.OUTPUT_ONLY, tol))
        for build in builders:
            bundle = build()
            report = verify_conditions(unit, p, bundle, x, tol)
            assert report.passed, (unit, p, g, bundle, report.failures())
            assert abs(report.residual) <= tol.opt_tol * max(1.0, abs(report.amended_max))
