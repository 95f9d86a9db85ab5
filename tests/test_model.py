"""Instance model: validation, feasibility, serialization, sampling."""

import json
import random

import pytest

from uplift_zero import (
    MarketInstance,
    Schedule,
    ToleranceConfig,
    UnitParams,
    UnitSchedule,
    ValidationError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    scarf_instance,
)
from uplift_zero.model import (
    _groups,
    cost,
    exact_key,
    feasible_set_samples,
    feasible_status_vectors,
    schedule_cost,
    status_vector_feasible,
    unit_key,
    validate_schedule,
    validate_unit_schedule,
)

from conftest import random_instance


def unit(**kw) -> UnitParams:
    base = dict(id="X", g_min=0.0, g_max=10.0, marginal_cost=5.0, startup_cost=7.0)
    base.update(kw)
    return UnitParams(**base)


class TestValidation:
    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValidationError):
            ToleranceConfig(eq_tol=0.0)
        with pytest.raises(ValidationError):
            ToleranceConfig(opt_tol=-1.0)
        with pytest.raises(ValidationError):
            ToleranceConfig(report_digits=0)

    def test_tolerances_must_be_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            ToleranceConfig(eq_tol=float("inf"))
        with pytest.raises(ValidationError):
            ToleranceConfig(opt_tol=float("nan"))

    @pytest.mark.parametrize("field", ("g_min", "g_max", "marginal_cost", "startup_cost"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
    def test_unit_parameters_must_be_finite(self, field, value):
        with pytest.raises(ValidationError):
            unit(**{field: value})

    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    def test_demand_must_be_finite(self, value):
        with pytest.raises(ValidationError, match="finite"):
            MarketInstance(periods=1, demand=(value,), units=(unit(),))

    def test_unit_bounds_ordering(self):
        with pytest.raises(ValidationError):
            unit(g_min=5.0, g_max=4.0)
        with pytest.raises(ValidationError):
            unit(g_min=-1.0)
        with pytest.raises(ValidationError):
            unit(startup_cost=-2.0)
        with pytest.raises(ValidationError):
            unit(initial_status=2)

    def test_instance_requires_capacity_window(self):
        u = unit()
        with pytest.raises(ValidationError):
            MarketInstance(periods=1, demand=(11.0,), units=(u,))
        with pytest.raises(ValidationError):
            MarketInstance(periods=2, demand=(1.0,), units=(u,))
        with pytest.raises(ValidationError):
            MarketInstance(periods=1, demand=(1.0,), units=(u, u))  # duplicate id

    def test_schedule_bounds_checked(self):
        u = unit(g_min=2.0)
        validate_unit_schedule(u, UnitSchedule((1,), (2.0,)), 1)
        with pytest.raises(ValidationError):
            validate_unit_schedule(u, UnitSchedule((1,), (1.0,)), 1)
        with pytest.raises(ValidationError):
            validate_unit_schedule(u, UnitSchedule((0,), (1.0,)), 1)
        with pytest.raises(ValidationError):
            validate_unit_schedule(u, UnitSchedule((1,), (2.0,)), 2)

    def test_schedule_must_cover_all_units(self):
        inst = scarf_instance(10.0)
        sched = Schedule(units={"High Tech-1": UnitSchedule((1,), (7.0,))})
        with pytest.raises(ValidationError):
            validate_schedule(inst, sched)


class TestGroups:
    def test_groups_are_numbered_by_first_appearance(self):
        assert _groups("babca") == ([0, 1, 3], [0, 1, 0, 2, 1])
        assert _groups([]) == ([], [])

    def test_unit_key_joins_a_signed_zero_twin_and_exact_key_does_not(self):
        units = (unit(id="A", g_min=0.0), unit(id="B", g_min=-0.0), unit(id="C", g_min=1.0))
        assert _groups(map(unit_key, units)) == ([0, 2], [0, 0, 1])
        assert _groups(exact_key(unit_key(u)) for u in units) == ([0, 1, 2], [0, 1, 2])


class TestStatusVectors:
    def test_min_up_blocks_short_runs(self):
        u = unit(min_up=2)
        assert status_vector_feasible(u, (1, 1, 0))
        assert not status_vector_feasible(u, (1, 0, 0))
        assert not status_vector_feasible(u, (0, 1, 0))
        # a run cut off by the horizon end is allowed
        assert status_vector_feasible(u, (0, 0, 1))

    def test_min_down_blocks_short_gaps(self):
        u = unit(min_down=2)
        assert status_vector_feasible(u, (1, 0, 0))
        assert not status_vector_feasible(u, (1, 0, 1))
        assert status_vector_feasible(u, (0, 0, 1))

    def test_initial_run_is_not_constrained(self):
        # the unit enters the horizon already on; switching off immediately
        # is allowed because pre-horizon duration is unknown
        u = unit(min_up=3, initial_status=1)
        assert status_vector_feasible(u, (0, 0, 0))
        assert status_vector_feasible(u, (1, 1, 1))
        assert not status_vector_feasible(u, (0, 1, 0))

    def test_enumeration_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(20):
            u = unit(
                min_up=rng.choice((0, 2, 3)),
                min_down=rng.choice((0, 2)),
                initial_status=rng.choice((0, 1)),
            )
            periods = rng.randint(1, 5)
            got = set(feasible_status_vectors(u, periods))
            import itertools
            expect = {
                v for v in itertools.product((0, 1), repeat=periods)
                if status_vector_feasible(u, v)
            }
            assert got == expect


class TestSampling:
    def test_samples_respect_bounds(self):
        u = unit(g_min=3.0)
        for s in feasible_set_samples(u, periods=1):
            validate_unit_schedule(u, s, 1)

    def test_anchor_is_kept_exactly(self):
        u = unit(g_min=3.0)
        anchor = UnitSchedule((1,), (4.321,))
        assert anchor in feasible_set_samples(u, anchors=(anchor,), periods=1)

    def test_offline_point_present(self):
        u = unit(g_min=3.0)
        assert UnitSchedule((0,), (0.0,)) in feasible_set_samples(u, periods=1)


class TestCost:
    def test_startup_charged_on_transition_only(self):
        u = unit(marginal_cost=2.0, startup_cost=10.0)
        assert cost(u, UnitSchedule((1, 1), (5.0, 5.0))) == pytest.approx(2.0 * 10 + 10.0)
        assert cost(u, UnitSchedule((1, 0), (5.0, 0.0))) == pytest.approx(10 + 10.0)
        warm = unit(initial_status=1, marginal_cost=2.0, startup_cost=10.0)
        assert cost(warm, UnitSchedule((1, 1), (5.0, 5.0))) == pytest.approx(20.0)
        # two separate starts both pay the startup cost
        assert cost(u, UnitSchedule((1, 0, 1), (5.0, 0.0, 5.0))) == pytest.approx(20 + 20.0)

    def test_schedule_cost_sums_units(self, scarf10):
        assert schedule_cost(scarf10.instance, scarf10.result.schedule) == pytest.approx(65.0)


class TestSerialization:
    def test_instance_round_trip(self, tmp_path):
        rng = random.Random(3)
        inst = random_instance(rng, max_units=4, periods=2)
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        back = load_instance(str(path))
        assert back == inst

    def test_unit_types_expand_with_numbered_ids(self):
        obj = {
            "periods": 1,
            "demand": [10.0],
            "unit_types": [
                {"name": "A", "count": 2, "g_min": 0.0, "g_max": 6.0,
                 "marginal_cost": 1.0, "startup_cost": 2.0},
            ],
        }
        inst = instance_from_dict(obj)
        assert [u.id for u in inst.units] == ["A-1", "A-2"]
        again = instance_to_dict(inst)
        assert again["unit_types"][0]["count"] == 2

    def test_schedule_json_round_trip(self, scarf10):
        blob = json.dumps(scarf10.result.schedule.to_json())
        assert Schedule.from_json(json.loads(blob)) == scarf10.result.schedule

    def test_bad_instance_file_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_instance(str(path))
        with pytest.raises(ValidationError):
            load_instance(str(tmp_path / "missing.json"))


class TestScarf:
    def test_parameter_table(self):
        inst = scarf_instance(10.0)
        by_type = {}
        for u in inst.units:
            key = u.id.rsplit("-", 1)[0]
            by_type.setdefault(key, []).append(u)
        assert len(by_type["Smokestack"]) == 6
        assert len(by_type["High Tech"]) == 5
        assert len(by_type["Med Tech"]) == 5
        ss = by_type["Smokestack"][0]
        assert (ss.g_min, ss.g_max, ss.marginal_cost, ss.startup_cost) == (0.0, 16.0, 3.0, 53.0)
        ht = by_type["High Tech"][0]
        assert (ht.g_min, ht.g_max, ht.marginal_cost, ht.startup_cost) == (0.0, 7.0, 2.0, 30.0)
        mt = by_type["Med Tech"][0]
        assert (mt.g_min, mt.g_max, mt.marginal_cost, mt.startup_cost) == (2.0, 6.0, 7.0, 0.0)

    def test_demand_parameterized(self):
        assert scarf_instance(40.0).demand == (40.0,)
