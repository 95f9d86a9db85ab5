"""Acceptance gate: one test per release criterion, with pinned tolerances.

Each test covers exactly one criterion and is named for it; the terminal
summary hook in conftest prints a one-line PASS/FAIL verdict per criterion.
Tolerances are fixed here, not imported, so a drive-by change to the library
defaults cannot silently weaken the gate.
"""

import random
import time

import pytest

from uplift_zero import (
    Formulation,
    UnitSchedule,
    aggregate_constraint,
    box_structure,
    build_convex_hull_amendment,
    build_family,
    build_linear_unit,
    check_zero_total_uplift,
    convex_hull_price,
    dual_function,
    expr_to_text,
    marginal_price,
    min_uplift,
    mu_max,
    multiplier_optimality,
    scarf_instance,
    solve_centralized,
    standard_profit,
    strong_duality_scan,
    unit_profit_max,
    uplift_report,
    verify_conditions,
    zero_uplift_necessary,
)
from uplift_zero import Output, Status, Sub, scale
from uplift_zero.amendments import FAMILIES
from uplift_zero.model import feasible_set_samples

from _oracles import brute_force_dispatch, chp_scan, dual_value_oracle
from conftest import (
    delta_partition_constraints,
    random_instance,
    random_price,
    random_redundant_constraints,
    random_unit,
)

GOLDEN_TOL = 5e-4 + 1e-12
THEOREM_TOL = 1e-5
DUAL_TOL = 1e-6
CAP_TOL = 1e-6
ORACLE_TOL = 1e-5  # 10x the optimization tolerance

HULL_FAMILIES = (
    "uplift-delta",
    "constant-profit",
    "general-form",
    "linear-unit",
    "convex-hull",
)


def test_criterion_1_demand_10_goldens():
    started = time.perf_counter()
    inst = scarf_instance(10.0)
    result = solve_centralized(inst)
    assert result.total_cost == pytest.approx(65.0, abs=GOLDEN_TOL)
    online = {
        uid: s.g[0] for uid, s in result.schedule.units.items() if s.u[0] == 1
    }
    assert online == {"High Tech-1": pytest.approx(7.0), "Med Tech-1": pytest.approx(3.0)}

    pr = convex_hull_price(inst)
    assert pr.price[0] == pytest.approx(6.2857, abs=GOLDEN_TOL)
    assert pr.dual_value == pytest.approx(62.8571, abs=GOLDEN_TOL)

    rep = uplift_report(inst, pr.price, result.schedule)
    assert rep.total == pytest.approx(2.1429, abs=GOLDEN_TOL)
    assert rep.entry("Med Tech-1").uplift == pytest.approx(2.1429, abs=GOLDEN_TOL)

    assert time.perf_counter() - started < 1.0


def test_criterion_2_demand_40_goldens():
    inst = scarf_instance(40.0)
    result = solve_centralized(inst)
    assert result.total_cost == pytest.approx(254.0, abs=GOLDEN_TOL)
    outputs = sorted(
        round(s.g[0], 6) for s in result.schedule.units.values() if s.u[0] == 1
    )
    assert outputs == [3.0, 7.0, 7.0, 7.0, 16.0]

    pr = convex_hull_price(inst)
    assert pr.price[0] == pytest.approx(6.3125, abs=GOLDEN_TOL)
    assert pr.dual_value == pytest.approx(251.5625, abs=GOLDEN_TOL)

    rep = uplift_report(inst, pr.price, result.schedule)
    assert rep.total == pytest.approx(2.4375, abs=GOLDEN_TOL)
    assert rep.entry("Med Tech-1").uplift == pytest.approx(2.0625, abs=GOLDEN_TOL)
    idle_ht = sorted(
        e.uplift for e in rep.entries
        if e.unit_id.startswith("High Tech") and e.uplift > 1e-9
    )
    assert idle_ht == pytest.approx([0.1875, 0.1875], abs=GOLDEN_TOL)


def test_criterion_3_amendment_coefficient_goldens():
    # demand 10, mid-size unit, both formulations of the hull amendment
    inst10 = scarf_instance(10.0)
    sched10 = solve_centralized(inst10).schedule
    p10 = convex_hull_price(inst10).price
    mt = next(u for u in inst10.units if u.id == "Med Tech-1")
    star = sched10.unit("Med Tech-1")

    xu = build_convex_hull_amendment(mt, p10, star)
    assert xu.multipliers[0] == pytest.approx(2.1429, abs=GOLDEN_TOL)
    assert expr_to_text(xu.amendment) == "2.143*min[g - 2*u, 0.3333*(6*u - g)]"

    g_form = build_convex_hull_amendment(
        mt, p10, star, formulation=Formulation.OUTPUT_ONLY
    )
    for g, want in ((0.0, 0.0), (2.0, 1.4286), (3.0, 2.1429), (4.5, 1.0714), (6.0, 0.0)):
        sched = UnitSchedule((1 if g > 0 else 0,), (g,))
        assert g_form.amendment.evaluate(sched) == pytest.approx(want, abs=GOLDEN_TOL)
        # 0.714*min[g, 6-g] in closed form
        assert g_form.amendment.evaluate(sched) == pytest.approx(
            (5.0 / 7.0) * min(g, 6.0 - g), abs=1e-9
        )

    # demand 40: hull multiplier, box-family multipliers, idle-unit payment
    inst40 = scarf_instance(40.0)
    sched40 = solve_centralized(inst40).schedule
    p40 = convex_hull_price(inst40).price
    mt40 = next(u for u in inst40.units if u.id == "Med Tech-1")
    star40 = sched40.unit("Med Tech-1")

    hull40 = build_convex_hull_amendment(mt40, p40, star40)
    assert hull40.multipliers[0] == pytest.approx(2.0625, abs=GOLDEN_TOL)

    lin40 = build_linear_unit(mt40, p40, star40)
    assert lin40.multipliers[0] == pytest.approx(1.0313, abs=GOLDEN_TOL)
    assert lin40.multipliers[1] == pytest.approx(0.3438, abs=GOLDEN_TOL)
    assert lin40.multipliers[2] == pytest.approx(0.0, abs=GOLDEN_TOL)

    ht = next(u for u in inst40.units if u.id == "High Tech-4")
    ht_star = sched40.unit("High Tech-4")
    lin_ht = build_linear_unit(ht, p40, ht_star)
    assert lin_ht.multipliers == pytest.approx((0.0, 0.0, 0.1875), abs=GOLDEN_TOL)
    assert expr_to_text(lin_ht.amendment) == "0.1875*(1 - u)"
    # amended profit 0.1875 + 4.3125 g - 30.1875 u at the hull price
    for u_s, g in ((0, 0.0), (1, 0.0), (1, 3.5), (1, 7.0)):
        sched = UnitSchedule((u_s,), (g,))
        amended = standard_profit(ht, p40, sched) + lin_ht.amendment.evaluate(sched)
        assert amended == pytest.approx(
            0.1875 + 4.3125 * g - 30.1875 * u_s, abs=GOLDEN_TOL
        )


def test_criterion_4_families_remove_all_uplift():
    started = time.perf_counter()

    def check_instance(inst, p, result, families, formulation=Formulation.STATUS_OUTPUT):
        unamended_dual = dual_function(inst, p)
        revenue = sum(q * d for q, d in zip(p, inst.demand))
        for family in families:
            bundles = build_family(family, inst, p, result.schedule, formulation)
            for unit in inst.units:
                rep = verify_conditions(
                    unit, p, bundles[unit.id], result.schedule.unit(unit.id)
                )
                assert rep.passed, (family, unit.id, rep.failures())
            outcome = check_zero_total_uplift(inst, p, bundles, result.schedule)
            assert outcome.passed, (family, outcome.failures())
            total = outcome.check_named("zero-total-uplift")
            assert abs(total.lhs) <= THEOREM_TOL, (family, total.lhs)
            # the check reports sums of profit maxima; dual = revenue - sum
            dual_at_p = outcome.check_named("amended-dual-at-price")
            assert abs(dual_at_p.lhs - dual_at_p.rhs) <= DUAL_TOL, family
            assert revenue - dual_at_p.rhs == pytest.approx(
                unamended_dual, abs=DUAL_TOL
            ), family

    for demand in (10.0, 40.0):
        inst = scarf_instance(demand)
        result = solve_centralized(inst)
        chp = convex_hull_price(inst).price
        check_instance(inst, chp, result, HULL_FAMILIES)
        marg = marginal_price(inst, result.schedule)
        check_instance(inst, marg, result, tuple(FAMILIES))

    rng = random.Random(424242)
    for k in range(50):
        inst = random_instance(rng, max_units=5, periods=1, max_param=20)
        result = solve_centralized(inst)
        chp = convex_hull_price(inst).price
        check_instance(inst, chp, result, HULL_FAMILIES)
        marg = marginal_price(inst, result.schedule)
        check_instance(inst, marg, result, tuple(FAMILIES))

    assert time.perf_counter() - started < 30.0


def test_criterion_5_gap_identity_and_aggregate():
    cases = []
    for demand in (10.0, 40.0):
        inst = scarf_instance(demand)
        cases.append(inst)
    rng = random.Random(515151)
    for _ in range(10):
        cases.append(random_instance(rng, max_units=4, periods=1, max_param=20))

    for inst in cases:
        result = solve_centralized(inst)
        pr = convex_hull_price(inst)
        rep = uplift_report(inst, pr.price, result.schedule)
        # the duality gap at the hull price is exactly the total uplift
        assert result.total_cost - pr.dual_value == pytest.approx(
            rep.total, abs=THEOREM_TOL
        )
        # pricing the aggregate amendment keeps the dual value at the hull
        # price: the gap is unchanged, only its uplift expression vanishes
        bundles = build_family("convex-hull", inst, pr.price, result.schedule)
        agg = aggregate_constraint(inst, pr.price, bundles, result.schedule)
        assert agg.evaluate(result.schedule) == pytest.approx(-rep.total, abs=THEOREM_TOL)
        outcome = check_zero_total_uplift(inst, pr.price, bundles, result.schedule)
        dual_at_p = outcome.check_named("amended-dual-at-price")
        assert dual_at_p.passed
        revenue = sum(q * d for q, d in zip(pr.price, inst.demand))
        assert revenue - dual_at_p.lhs == pytest.approx(pr.dual_value, abs=DUAL_TOL)


def test_criterion_6_caps_box_geometry_necessity():
    rng = random.Random(626262)

    # closed forms of the single-constraint caps
    checked_hi = checked_lo = 0
    while checked_hi < 20 or checked_lo < 20:
        u = random_unit(rng, "K", periods=1)
        if u.g_max - u.g_min < 0.05:
            continue
        th = u.marginal_cost + u.startup_cost / u.g_max
        if checked_hi < 20:
            p = th + rng.uniform(0.0, 5.0)
            got = mu_max(u, (p,), Sub(Output(0), scale(u.g_max, Status(0))))
            assert got == pytest.approx(p - u.marginal_cost, abs=CAP_TOL)
            checked_hi += 1
        if checked_lo < 20 and th > 0.1:
            p = max(0.0, th - rng.uniform(0.05, min(5.0, th)))
            if p < th:
                online_max = standard_profit(u, (p,), UnitSchedule((1,), (u.g_max,)))
                got = mu_max(u, (p,), Sub(scale(u.g_min, Status(0)), Output(0)))
                assert got == pytest.approx(
                    -online_max / (u.g_max - u.g_min), abs=CAP_TOL
                )
                checked_lo += 1

    # box geometry on 100 random families
    for k in range(100):
        u = random_unit(rng, f"B{k}", periods=1)
        p = random_price(rng, 1)
        if k % 2 == 0:
            rhos = random_redundant_constraints(rng, u, p, rng.randint(1, 3), None)
            samples = [[rng.uniform(0.0, 3.0) for _ in rhos] for _ in range(6)]
            rep = box_structure(u, p, rhos, samples)
            assert rep.check_named("members-inside-axis-intervals").passed
        else:
            rhos = delta_partition_constraints(rng, u, p, rng.randint(2, 4))
            rep = box_structure(u, p, rhos, [[0.0] * len(rhos)])
            assert rep.check_named("supports-pairwise-disjoint").passed
            assert rep.check_named("box-corners-are-members").passed

    # the necessary condition never rejects a family that reaches zero
    for k in range(30):
        u = random_unit(rng, f"N{k}", periods=1)
        p = random_price(rng, 1)
        lattice = feasible_set_samples(u, periods=1)
        star = rng.choice(lattice)
        rhos = random_redundant_constraints(rng, u, p, rng.randint(1, 3), star)
        if min_uplift(u, p, rhos, star).value == 0.0:
            rep = zero_uplift_necessary(u, p, rhos, star)
            assert rep.passed, (u, p, star)


def test_criterion_7_oracle_agreement():
    rng = random.Random(727272)
    for k in range(25):
        periods = 1 if k % 2 == 0 else 2
        inst = random_instance(rng, max_units=5, periods=periods, max_param=20)
        result = solve_centralized(inst)
        oracle = brute_force_dispatch(inst)
        assert oracle is not None
        assert result.total_cost == pytest.approx(oracle[0], abs=ORACLE_TOL)

    for k in range(8):
        inst = random_instance(rng, max_units=4, periods=1, max_param=20)
        pr = convex_hull_price(inst)
        q_scan, v_scan = chp_scan(inst, step=1e-4)
        assert dual_value_oracle(inst, pr.price[0]) >= v_scan - ORACLE_TOL
        assert abs(pr.price[0] - q_scan) <= 1e-4 + 1e-9

    for demand, want_q in ((10.0, 44.0 / 7.0), (40.0, 6.3125)):
        inst = scarf_instance(demand)
        q_scan, v_scan = chp_scan(inst, step=1e-4)
        assert abs(want_q - q_scan) <= 1e-4 + 1e-9
        pr = convex_hull_price(inst)
        assert pr.dual_value >= v_scan - ORACLE_TOL


def test_criterion_8_support_verdict_agreement():
    rng = random.Random(828282)
    agreed = 0
    attempts = 0
    while agreed < 50 and attempts < 400:
        attempts += 1
        u = random_unit(rng, f"V{attempts}", periods=1)
        p = random_price(rng, 1)
        lattice = feasible_set_samples(u, periods=1)
        star = min(lattice, key=lambda s: standard_profit(u, p, s))
        best = unit_profit_max(u, p, 1).value
        if best - standard_profit(u, p, star) < 1e-3:
            continue
        rhos = random_redundant_constraints(rng, u, p, rng.randint(1, 3), star)
        pick = rng.random()
        base = min_uplift(u, p, rhos, star).multipliers
        if pick < 0.4:
            mu = list(base)
        elif pick < 0.8:
            mu = [rng.uniform(0.0, 1.5) * m for m in base]
        else:
            mu = [rng.uniform(0.0, 2.0) for _ in rhos]
        rep = multiplier_optimality(u, p, rhos, mu, star)
        assert rep.check_named("criteria-agreement").passed, (u, p, mu)
        agreed += 1
    assert agreed == 50

    for k in range(12):
        u = random_unit(rng, f"W{k}", periods=1)
        p = random_price(rng, 1)
        rhos = random_redundant_constraints(rng, u, p, rng.randint(1, 3), None)
        rep = strong_duality_scan(u, p, rhos)
        assert rep.passed, (u, p, rep.failures())
        baseline = rep.check_named("minimum-attained-at-zero")
        assert baseline.lhs == pytest.approx(unit_profit_max(u, p, 1).value, abs=1e-7)
