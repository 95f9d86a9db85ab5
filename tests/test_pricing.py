"""Prices and profits: hull price goldens, scan oracle, marginal rule,
profit maxima, dual function."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from uplift_zero import (
    EnumerationLimitError,
    MarketInstance,
    PreconditionError,
    UnitParams,
    ValidationError,
    UnitSchedule,
    convex_hull_price,
    dual_function,
    marginal_price,
    price_for_method,
    solve_centralized,
    standard_profit,
    unit_profit_max,
)

from uplift_zero import model, pricing
from uplift_zero.pricing import as_price, profit_given_status

from _oracles import (
    chp_scan,
    dual_value_oracle,
    reference_convex_hull_price,
    unit_profit_max_oracle,
)
from conftest import random_instance, random_price, random_unit, rebind, unshared_instance


class TestStandardProfit:
    def test_hand_values(self):
        u = UnitParams(id="x", g_min=2.0, g_max=6.0, marginal_cost=7.0, startup_cost=0.0)
        assert standard_profit(u, (6.2857,), UnitSchedule((1,), (3.0,))) == pytest.approx(
            (6.2857 - 7.0) * 3.0
        )
        assert standard_profit(u, (6.2857,), UnitSchedule((0,), (0.0,))) == 0.0

    def test_startup_cost_subtracted_once(self):
        u = UnitParams(id="x", g_min=0.0, g_max=7.0, marginal_cost=2.0, startup_cost=30.0)
        s = UnitSchedule((1, 1), (7.0, 7.0))
        assert standard_profit(u, (5.0, 5.0), s) == pytest.approx(3.0 * 14 - 30.0)

    def test_scalar_price_broadcasts(self):
        u = UnitParams(id="x", g_min=0.0, g_max=7.0, marginal_cost=2.0, startup_cost=0.0)
        s = UnitSchedule((1, 1), (7.0, 7.0))
        assert standard_profit(u, 5.0, s) == standard_profit(u, (5.0, 5.0), s)

    @pytest.mark.parametrize("price", (float("nan"), (5.0, float("inf")), (-float("inf"), 5.0)))
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(ValidationError, match="price must be finite"):
            as_price(price, 2)


class TestProfitMax:
    def test_closed_form_single_period(self):
        u = UnitParams(id="x", g_min=0.0, g_max=7.0, marginal_cost=2.0, startup_cost=30.0)
        # below threshold 2 + 30/7: off is best
        assert unit_profit_max(u, (6.0,), 1).value == pytest.approx(0.0)
        # above threshold: run at capacity
        assert unit_profit_max(u, (7.0,), 1).value == pytest.approx(5.0 * 7 - 30)

    def test_argmax_points_reported(self):
        u = UnitParams(id="x", g_min=2.0, g_max=6.0, marginal_cost=7.0, startup_cost=0.0)
        pm = unit_profit_max(u, (7.0,), 1)
        assert pm.value == pytest.approx(0.0)
        # every online point earns zero margin, so off and online extremes tie
        assert UnitSchedule((0,), (0.0,)) in pm.argmax_points

    def test_against_grid_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            periods = rng.choice((1, 2))
            u = random_unit(rng, "R", periods=periods)
            p = random_price(rng, periods)
            got = unit_profit_max(u, p, periods).value
            want = unit_profit_max_oracle(u, p, periods)
            assert got == pytest.approx(want, abs=1e-8)


class TestProfitGivenStatus:
    def test_infeasible_vector_rejected(self):
        u = UnitParams(id="x", g_min=0.0, g_max=7.0, marginal_cost=2.0, startup_cost=30.0,
                       min_up=2)
        message = r"unit x: status vector \(0, 1, 0\) is infeasible"
        with pytest.raises(ValidationError, match=message):
            profit_given_status(u, (5.0, 5.0, 5.0), [0, 1, 0])

    def test_reads_the_one_vector_of_the_profit_max(self):
        u = UnitParams(id="x", g_min=1.0, g_max=7.0, marginal_cost=2.0, startup_cost=30.0,
                       initial_status=1, min_down=2)
        p = (5.0, 1.5, 2.0)
        for vector, (value, _) in unit_profit_max(u, p).per_status.items():
            assert repr(profit_given_status(u, p, vector)) == repr(value)
        # status entries that compare equal to 0 and 1 read the same entry
        assert profit_given_status(u, p, (1.0, True, 1)) == profit_given_status(u, p, (1, 1, 1))


class TestPriceSearchWork:
    """The price search prices each unit's status table: it enumerates the
    status vectors once per unit, and it builds no ProfitMax, schedule or
    per-status outputs beyond the one best response per unit and price
    that the subgradient reads."""

    @staticmethod
    def _counted(monkeypatch, instance):
        counts: Counter = Counter()

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                counts[kind] += 1
                return fn(*args, **kwargs)
            return wrapper

        rebind(monkeypatch, model.feasible_status_vectors,
               counted("vectors", model.feasible_status_vectors))
        rebind(monkeypatch, pricing.unit_profit_max, counted("profit_max", pricing.unit_profit_max))
        rebind(monkeypatch, pricing._best_outputs_for_status,
               counted("outputs", pricing._best_outputs_for_status))
        monkeypatch.setattr(UnitSchedule, "__post_init__",
                            counted("schedule", UnitSchedule.__post_init__))
        result = convex_hull_price(instance)
        monkeypatch.undo()
        return result, counts

    def test_scan_enumerates_each_unit_once_and_builds_no_schedule(self, monkeypatch):
        # 13 units that share no parameters and 22 candidate prices: solving
        # every unit at every candidate would enumerate 286 times
        instance = unshared_instance(901, 1, 13)
        expected = reference_convex_hull_price(instance)
        result, counts = self._counted(monkeypatch, instance)
        assert repr(result) == repr(expected)
        assert counts["vectors"] == 13
        assert counts["profit_max"] == counts["schedule"] == counts["outputs"] == 0

    def test_subgradient_enumerates_each_unit_once(self, monkeypatch):
        instance = unshared_instance(903, 2, 7)
        expected = reference_convex_hull_price(instance)
        result, counts = self._counted(monkeypatch, instance)
        assert repr(result) == repr(expected)
        assert result.iterations > 200
        assert counts["vectors"] == 7
        assert counts["profit_max"] == counts["schedule"] == 0
        # one best response per unit at q = 0 and at each iterate
        assert counts["outputs"] == 7 * (result.iterations + 1)


class TestHullPriceGoldens:
    def test_demand_10(self, scarf10):
        assert scarf10.price[0] == pytest.approx(44.0 / 7.0, abs=1e-9)
        assert scarf10.dual == pytest.approx(440.0 / 7.0, abs=1e-9)

    def test_demand_40(self, scarf40):
        assert scarf40.price[0] == pytest.approx(6.3125, abs=1e-12)
        assert scarf40.dual == pytest.approx(251.5625, abs=1e-9)

    def test_exact_breakpoint_method_reported(self, scarf10):
        pr = convex_hull_price(scarf10.instance)
        assert pr.method == "breakpoint-scan"
        assert pr.converged


class TestHullPriceOracle:
    def test_scan_agreement_random(self):
        rng = random.Random(21)
        for _ in range(10):
            inst = random_instance(rng, max_units=4, periods=1)
            pr = convex_hull_price(inst)
            q_scan, v_scan = chp_scan(inst, step=1e-3)
            # the exact breakpoint beats any grid point and sits within one
            # grid step of the best one
            assert dual_value_oracle(inst, pr.price[0]) >= v_scan - 1e-9
            assert abs(pr.price[0] - q_scan) <= 1e-3 + 1e-9

    def test_dual_value_matches_oracle(self):
        rng = random.Random(22)
        for _ in range(10):
            inst = random_instance(rng, max_units=5, periods=1)
            pr = convex_hull_price(inst)
            assert pr.dual_value == pytest.approx(
                dual_value_oracle(inst, pr.price[0]), abs=1e-8
            )


class TestSubgradient:
    def test_two_period_dual_never_beats_primal(self):
        rng = random.Random(31)
        for _ in range(6):
            inst = random_instance(rng, max_units=3, periods=2)
            result = solve_centralized(inst)
            pr = convex_hull_price(inst)
            assert pr.method == "subgradient"
            assert pr.dual_value <= result.total_cost + 1e-6
            assert all(q >= 0 for q in pr.price)

    def test_convex_instance_closes_the_gap(self):
        # no startup costs and zero minimums: dual equals primal
        units = (
            UnitParams(id="a", g_min=0.0, g_max=6.0, marginal_cost=2.0, startup_cost=0.0),
            UnitParams(id="b", g_min=0.0, g_max=6.0, marginal_cost=5.0, startup_cost=0.0),
        )
        inst = MarketInstance(periods=2, demand=(8.0, 3.0), units=units)
        result = solve_centralized(inst)
        pr = convex_hull_price(inst)
        # subgradient steps shrink harmonically, so expect modest accuracy
        assert pr.dual_value == pytest.approx(result.total_cost, rel=1e-3)

    def test_single_period_uses_exact_path(self, scarf10):
        pr = convex_hull_price(scarf10.instance)
        assert pr.iterations == 0


class TestMarginalPrice:
    def test_strictly_above_minimum_sets_price(self, scarf10):
        p = marginal_price(scarf10.instance, scarf10.result.schedule)
        assert p == (7.0,)

    def test_all_at_minimum_uses_cheapest_online(self):
        # tight capacity windows force both units to their minimum
        a = UnitParams(id="a", g_min=4.0, g_max=4.5, marginal_cost=3.0, startup_cost=0.0)
        b = UnitParams(id="b", g_min=2.0, g_max=2.5, marginal_cost=9.0, startup_cost=0.0)
        inst = MarketInstance(periods=1, demand=(6.0,), units=(a, b))
        result = solve_centralized(inst)
        assert result.schedule.unit("a").g == (4.0,)
        assert result.schedule.unit("b").g == (2.0,)
        assert marginal_price(inst, result.schedule) == (3.0,)

    def test_no_units_online_prices_zero(self):
        a = UnitParams(id="a", g_min=0.0, g_max=8.0, marginal_cost=3.0, startup_cost=1.0)
        inst = MarketInstance(periods=1, demand=(0.0,), units=(a,))
        result = solve_centralized(inst)
        assert marginal_price(inst, result.schedule) == (0.0,)

    def test_dispatched_point_is_status_optimal(self):
        # at the marginal price, dispatched outputs maximize profit for their
        # own status vector; the status families rely on this
        rng = random.Random(41)
        for _ in range(15):
            inst = random_instance(rng, max_units=5, periods=1)
            result = solve_centralized(inst)
            p = marginal_price(inst, result.schedule)
            from uplift_zero.pricing import profit_given_status

            for unit in inst.units:
                sched = result.schedule.unit(unit.id)
                star = standard_profit(unit, p, sched)
                by_status = profit_given_status(unit, p, sched.u)
                assert star == pytest.approx(by_status, abs=1e-7)


class TestPriceForMethod:
    def test_marginal_needs_schedule(self, scarf10):
        with pytest.raises(PreconditionError):
            price_for_method(scarf10.instance, "marginal")

    def test_unknown_method(self, scarf10):
        with pytest.raises(ValidationError):
            price_for_method(scarf10.instance, "vcg")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), offset=st.floats(-3, 3, allow_nan=False))
def test_hull_price_maximizes_dual(seed, offset):
    rng = random.Random(seed)
    inst = random_instance(rng, max_units=3, periods=1)
    pr = convex_hull_price(inst)
    q = max(0.0, pr.price[0] + offset)
    assert dual_function(inst, (q,)) <= pr.dual_value + 1e-7


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_weak_duality(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_units=3, periods=1)
    f_star = solve_centralized(inst).total_cost
    q = random_price(rng, 1)
    assert dual_function(inst, q) <= f_star + 1e-7


class TestStatusVectorBudget:
    """A price search counts each unit's status vectors, and refuses more
    than the dispatch budget before it lists any."""

    @pytest.mark.parametrize("minimum,count", ((0, 2 ** 40), (2, 267914296)))
    def test_long_horizon_is_refused_before_listing(self, monkeypatch, minimum, count):
        rebind(monkeypatch, model.feasible_status_vectors, None)  # nothing is listed
        unit = UnitParams("A", 0.0, 10.0, 1.0, 0.0, min_up=minimum, min_down=minimum)
        instance = MarketInstance(periods=40, demand=(1.0,) * 40, units=(unit,))
        with pytest.raises(EnumerationLimitError,
                           match=f"unit A: {count} status vectors over 40 periods exceed"):
            pricing.convex_hull_price(instance)

    def test_the_budget_is_the_dispatch_budget(self, monkeypatch):
        import uplift_zero.dispatch as dispatch_mod

        monkeypatch.setattr(dispatch_mod, "PROFILE_LIMIT", 3)
        instance = MarketInstance(periods=2, demand=(1.0, 1.0),
                                  units=(UnitParams("A", 0.0, 10.0, 1.0, 0.0),))
        with pytest.raises(EnumerationLimitError, match="4 status vectors over 2 periods"):
            pricing.max_profits(instance, (2.0, 2.0))
