"""Work shared between identical units gives every unit exactly what it got
when each unit was solved on its own.

Pricing, uplift, the amendment builders and verification solve each group
of identical units once and hand the result to every unit of the group.
The references in `tests/_oracles.py` are the former per-unit loops; on
seeded instances with repeated unit types (some of them twins that differ
only in the sign of a zero), min up/down times and initially online units,
every value must match them in `repr` and every bundle and report in
`to_json()`.

Pricing also reads each unit's status table (`model.status_table`) instead
of enumerating its status vectors per price, and the price search reads
values and best responses only.  On instances whose units share nothing,
where every group is one unit, the prices, duals and uplift reports must
still match the references, which solve each unit with the former profit
maximum (`reference_unit_profit_max`) at every price.

The market check reads each group's lattice table and drops it before the
next group is verified, so at most one table is alive at a time and no
report in `units` keeps one.  It hands a table on to the next group of the
same unit type when neither group's anchor adds a point to the grid; on
one-type markets with anchors on, one ulp off and between grid outputs,
and offline at 0.0, -0.0 and 1e-9, every report and table must be the one
`verify_conditions` gives the unit alone.  It keys the bundles by
identity: every unit of a group holds one bundle object, as `build_family`
builds it and as `bundles_from_json` loads equal bundles.
"""

import collections
import math
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import (
    reference_build_family,
    reference_check_zero_total_uplift,
    reference_convex_hull_price,
    reference_dual_function,
    reference_unit_profit_max,
    reference_uplift_report,
)
from conftest import rebind, unshared_instance
from test_golden import COMBOS
from uplift_zero import amendments, cli, dispatch, model, pricing
from uplift_zero.amendments import (
    FAMILIES,
    AmendmentBundle,
    _unit_reports,
    build_family,
    bundles_from_json,
    bundles_to_json,
    check_zero_total_uplift,
    verify_conditions,
)
from uplift_zero.dispatch import solve_centralized
from uplift_zero.errors import EnumerationLimitError, UpliftZeroError
from uplift_zero.expr import Expr, Output, Sub
from uplift_zero.model import (
    Formulation,
    MarketInstance,
    Schedule,
    UnitParams,
    UnitSchedule,
    _shared_status_table,
    feasible_status_vectors,
    save_instance,
    scarf_instance,
    status_table,
)
from uplift_zero.pricing import convex_hull_price, dual_function, marginal_price, price_for_method
from uplift_zero.uplift import uplift_report

# (seed, periods, unit types, most units per type) of the seeded instances;
# the two-period seed is one whose dispatch leaves some units of a type on
# the same schedule, so that builds and checks are shared there too (its
# lattices have 21^2 outputs per status vector, so there is only one)
CASES = ((2718, 1, 3, 4), (2719, 1, 2, 4), (2720, 1, 3, 3), (2721, 1, 2, 5),
         (3014, 2, 2, 3))


def _instance(seed: int, periods: int, n_types: int, most: int) -> MarketInstance:
    rng = random.Random(seed)
    units = []
    for k in range(n_types):
        g_min = rng.choice((0.0, 0.0, 1.0, 2.5))
        params = dict(
            g_min=g_min,
            g_max=g_min + rng.choice((3.0, 6.0, 7.5)),
            marginal_cost=rng.choice((1.0, 2.0, 3.5, 7.0)),
            startup_cost=rng.choice((0.0, 10.0, 30.0, 53.0)),
            initial_status=int(rng.random() < 0.4),
            min_up=rng.choice((0, 2)) if periods > 1 else 0,
            min_down=rng.choice((0, 2)) if periods > 1 else 0,
        )
        for j in range(rng.randint(2, most)):
            unit = dict(params)
            # a twin that == cannot tell from its siblings
            if j == 1 and unit["g_min"] == 0.0:
                unit["g_min"] = -0.0
            elif j == 1 and unit["startup_cost"] == 0.0:
                unit["startup_cost"] = -0.0
            units.append(UnitParams(f"T{k}-{j + 1}", **unit))
    # demand met by a random feasible commitment, so dispatch always succeeds
    demand = [0.0] * periods
    for unit in units:
        u = rng.choice(feasible_status_vectors(unit, periods))
        for t in range(periods):
            if u[t]:
                demand[t] += rng.uniform(unit.g_min, unit.g_max)
    return MarketInstance(periods, tuple(round(d, 3) for d in demand), tuple(units))


def _outcome(fn, *args):
    """The result, or the exception type and message it raised."""
    try:
        return fn(*args)
    except UpliftZeroError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"seed{case[0]}-T{case[1]}")
def test_shared_results_equal_per_unit_results(case):
    instance = _instance(*case)
    x_star = solve_centralized(instance).schedule

    chp = convex_hull_price(instance)
    assert repr(chp) == repr(reference_convex_hull_price(instance))
    rng = random.Random(case[0])
    for q in [chp.price] + [tuple(rng.uniform(-1.0, 9.0) for _ in range(instance.periods))
                            for _ in range(5)]:
        assert repr(dual_function(instance, q)) == repr(reference_dual_function(instance, q))

    checked = 0
    for p in (chp.price, marginal_price(instance, x_star)):
        assert repr(uplift_report(instance, p, x_star)) == repr(
            reference_uplift_report(instance, p, x_star))
        for family in FAMILIES:
            for formulation in Formulation:
                bundles = _outcome(build_family, family, instance, p, x_star, formulation)
                expected = _outcome(reference_build_family, family, instance, p, x_star,
                                    formulation)
                assert repr(bundles) == repr(expected)
                if not isinstance(bundles, dict):
                    continue
                assert {uid: b.to_json() for uid, b in bundles.items()} == {
                    uid: b.to_json() for uid, b in expected.items()}

                verified_sets = [bundles]
                if formulation is Formulation.STATUS_OUTPUT:
                    # every second unit's multipliers doubled: identical
                    # units with different bundles must not share a report
                    verified_sets.append({
                        uid: replace(b, multipliers=tuple(2.0 * m for m in b.multipliers))
                        if k % 2 else b
                        for k, (uid, b) in enumerate(bundles.items())
                    })
                for verified in verified_sets:
                    report = _outcome(check_zero_total_uplift, instance, p, verified, x_star)
                    expected = _outcome(reference_check_zero_total_uplift, instance, p,
                                        verified, x_star)
                    assert repr(report) == repr(expected)
                    assert list(report.units) == list(expected.units) == [
                        u.id for u in instance.units]
                    assert report.to_json() == expected.to_json()
                    for uid, rep in report.units.items():
                        assert rep.to_json() == expected.units[uid].to_json()
                checked += 1
    # every instance gets past the builders for several families
    assert checked >= 4


@pytest.mark.parametrize("method", ("chp", "marginal"))
@pytest.mark.parametrize("demand", (10.0, 40.0))
def test_bundles_to_json_writes_each_group_once(demand, method):
    # the units of a group hold one bundle object and share one dict, which
    # is each unit's own to_json; bundles read back from JSON load equal
    # bundles as one object, so they share at least as much
    instance = scarf_instance(demand)
    x_star = solve_centralized(instance).schedule
    p = price_for_method(instance, method, x_star).price
    built = 0
    for family in FAMILIES:
        for formulation in Formulation:
            bundles = _outcome(build_family, family, instance, p, x_star, formulation)
            if not isinstance(bundles, dict):
                continue
            built += 1
            out = bundles_to_json(bundles)
            assert list(out) == sorted(bundles)
            assert out == {uid: b.to_json() for uid, b in bundles.items()}
            for a in bundles:
                for b in bundles:
                    assert (out[a] is out[b]) == (bundles[a] is bundles[b])
            assert len({id(d) for d in out.values()}) < len(out)

            loaded = bundles_from_json(out)
            back = bundles_to_json(loaded)
            assert back == {uid: b.to_json() for uid, b in loaded.items()} == out
            for a in loaded:
                for b in loaded:
                    assert (back[a] is back[b]) == (loaded[a] is loaded[b]) == (
                        repr(loaded[a]) == repr(loaded[b]))
            assert len({id(d) for d in back.values()}) <= len({id(d) for d in out.values()})
    assert built >= 4


@pytest.mark.parametrize("demand", (10.0, 40.0))
def test_market_check_releases_each_table(demand, monkeypatch):
    # the market check reads each group's table and drops it before the
    # next group is verified, so every table built before is dead when a
    # new one is built, and no report keeps one
    instance = scarf_instance(demand)
    x_star = solve_centralized(instance).schedule
    build = amendments.lattice_table
    built = []

    def tracked(*args, **kwargs):
        assert not [ref for ref in built if ref() is not None]
        table = build(*args, **kwargs)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(amendments, "lattice_table", tracked)
    for family, formulation, method in COMBOS:
        p = price_for_method(instance, method, x_star).price
        bundles = build_family(family, instance, p, x_star, Formulation(formulation))
        built.clear()
        report = check_zero_total_uplift(instance, p, bundles, x_star)
        assert len(built) > 1
        assert [rep.table for rep in report.units.values()] == [None] * len(report.units)


def _grid(unit: UnitParams) -> list[float]:
    # the lattice's online outputs when no anchor adds one, spaced as
    # `model.feasible_set_samples` spaces them
    step = (unit.g_max - unit.g_min) / (model.SAMPLE_GRID_POINTS - 1)
    grid = [unit.g_min + k * step for k in range(model.SAMPLE_GRID_POINTS)]
    grid[-1] = unit.g_max
    return grid


def _one_type(params: dict, schedules, p, family: str, formulation: str = "xu"):
    """An instance of one unit per schedule, all with `params`, and its
    schedule, price, family and formulation."""
    units = tuple(UnitParams(f"U{k + 1}", **params) for k in range(len(schedules)))
    instance = MarketInstance(len(p), (0.0,) * len(p), units)
    x_star = Schedule({unit.id: UnitSchedule(u, g) for unit, (u, g) in zip(units, schedules)})
    return instance, x_star, p, family, Formulation(formulation)


@st.composite
def _one_type_market(draw):
    g_max = draw(st.sampled_from((1.6, 4.0, 6.5)))
    params = dict(
        g_min=draw(st.sampled_from((0.0, 0.25 * g_max, g_max))),
        g_max=g_max,
        marginal_cost=draw(st.sampled_from((0.0, 2.0, 3.5))),
        startup_cost=draw(st.sampled_from((0.0, -0.0, 4.0))),
        initial_status=draw(st.sampled_from((0, 1))),
        min_up=draw(st.integers(0, 2)),
        min_down=draw(st.integers(0, 2)),
    )
    periods = draw(st.sampled_from((1, 2)))
    unit = UnitParams("U", **params)
    grid = _grid(unit)
    online = st.one_of(
        st.sampled_from((unit.g_min, unit.g_max)),
        st.sampled_from(grid),
        # one ulp off a grid output: 0.7999999999999999 replaces the grid's
        # 0.8 on the lattice, 0.8000000000000002 does not
        st.builds(math.nextafter, st.sampled_from(grid), st.sampled_from((-math.inf, math.inf))),
        st.floats(unit.g_min, unit.g_max, allow_nan=False),
    )
    # an offline 1e-9 is a point of its own, after the cross product
    offline = st.sampled_from((0.0, -0.0, 1e-9))
    vectors = feasible_status_vectors(unit, periods)
    schedules = []
    for _ in range(draw(st.integers(2, 4))):
        u = draw(st.sampled_from(vectors))
        schedules.append((u, tuple(draw(online if u_t else offline) for u_t in u)))
    price = st.one_of(st.just(unit.marginal_cost), st.floats(-5.0, 15.0, allow_nan=False))
    p = tuple(draw(price) for _ in range(periods))
    family = draw(st.sampled_from(("uplift-delta", "general-form")))
    formulation = draw(st.sampled_from(("xu", "g"))) if unit.output_determines_status() else "xu"
    return _one_type(params, schedules, p, family, formulation)


_ONE_TYPE = dict(g_min=0.0, g_max=4.0, marginal_cost=2.0, startup_cost=0.0)
_BELOW = math.nextafter(0.8, 0.0)   # 0.7999999999999999


@settings(max_examples=150, deadline=None)
@given(_one_type_market())
# an anchor one ulp below a grid output, after or before a group on the grid
@example(_one_type(_ONE_TYPE, [((1,), (0.8,)), ((1,), (_BELOW,))], (3.0,), "uplift-delta"))
@example(_one_type(_ONE_TYPE, [((1,), (_BELOW,)), ((1,), (0.8,))], (3.0,), "general-form"))
@example(_one_type(_ONE_TYPE, [((1,), (0.8,)), ((1,), (math.nextafter(0.8, 1.0),))], (3.0,),
                   "uplift-delta", "g"))
# an offline 1e-9 before an offline -0.0 or 0.0, whose lump sum the
# 1e-9 point would earn within eq_tol
@example(_one_type(_ONE_TYPE, [((0,), (1e-9,)), ((0,), (-0.0,))], (3.0,), "uplift-delta"))
@example(_one_type(_ONE_TYPE, [((1, 0), (4.0, 1e-9)), ((1, 0), (4.0, 0.0))], (1.0, 3.0),
                   "uplift-delta"))
def test_handed_on_tables_equal_tables_built_alone(case):
    # the market check hands a group's table on to the next group of the
    # same unit type when neither anchor adds a point to the grid; every
    # unit's report is the one verify_conditions gives it alone, and every
    # group's table, handed on or built, is the one built for it alone
    instance, x_star, p, family, formulation = case
    bundles = build_family(family, instance, p, x_star, formulation)
    tol = instance.tolerances
    alone = {unit.id: verify_conditions(unit, p, bundles[unit.id], x_star.unit(unit.id), tol)
             for unit in instance.units}
    market = check_zero_total_uplift(instance, p, bundles, x_star)
    for uid, rep in market.units.items():
        assert repr((rep.checks, rep.amended_max, rep.residual)) == repr(
            (alone[uid].checks, alone[uid].amended_max, alone[uid].residual))
    firsts, _, reports = _unit_reports(instance, p, bundles, x_star)
    for i, rep in zip(firsts, reports):
        assert repr(rep.table) == repr(alone[instance.units[i].id].table)


def _holds_expr(part) -> bool:
    return isinstance(part, Expr) or (isinstance(part, tuple) and any(map(_holds_expr, part)))


@pytest.mark.parametrize("demand", (10.0, 40.0))
def test_market_check_keys_built_bundles_by_identity(demand, monkeypatch):
    # the units of a group hold one built bundle, so the market check keys
    # them by identity and takes no exact key of an expression tree; the
    # same bundles read back from JSON give the same report, with each
    # group verified once
    instance = scarf_instance(demand)
    x_star = solve_centralized(instance).schedule
    pairs = len({model.exact_key(model.unit_key(unit), x_star.unit(unit.id).u,
                                 x_star.unit(unit.id).g) for unit in instance.units})
    exact, verify_on = model.exact_key, amendments._verify_on
    verified = []

    def keyed(*parts):
        assert not any(map(_holds_expr, parts))
        return exact(*parts)

    for family, formulation, method in COMBOS:
        p = price_for_method(instance, method, x_star).price
        bundles = build_family(family, instance, p, x_star, Formulation(formulation))
        with monkeypatch.context() as m:
            rebind(m, exact, keyed)
            report = check_zero_total_uplift(instance, p, bundles, x_star).to_json()
        loaded = bundles_from_json(bundles_to_json(bundles))
        with monkeypatch.context() as m:
            rebind(m, verify_on, lambda *args: verified.append(args[1].id) or verify_on(*args))
            assert check_zero_total_uplift(instance, p, loaded, x_star).to_json() == report
        assert len(verified) == pairs
        verified.clear()
    assert pairs == (6 if demand == 40.0 else 5)


def test_signed_zero_multipliers_get_their_own_reports():
    # one type on one schedule, one amendment and one constraint object:
    # multipliers 0.0 and -0.0 are two bundles and two reports, and the
    # units that hold one bundle object share one report
    params = dict(g_min=0.0, g_max=4.0, marginal_cost=2.0, startup_cost=0.0)
    instance, x_star, p, _, _ = _one_type(params, [((1,), (4.0,))] * 3, (3.0,), "")
    amendment = Sub(Output(0), Output(0))
    rho = (Sub(Output(0), Output(0)),)
    zero = AmendmentBundle("custom", Formulation.STATUS_OUTPUT, amendment, rho, (0.0,))
    bundles = {"U1": zero, "U2": replace(zero, multipliers=(-0.0,)), "U3": zero}
    reports = check_zero_total_uplift(instance, p, bundles, x_star).units
    assert reports["U1"] is not reports["U2"]
    assert reports["U1"] is reports["U3"]
    for unit in instance.units:
        alone = verify_conditions(unit, p, bundles[unit.id], x_star.unit(unit.id))
        assert repr(reports[unit.id].checks) == repr(alone.checks)


def test_equal_bundles_load_as_one_object():
    # two identical units on one schedule: a file that gives them the
    # multipliers 0.0 and -0.0 loads two bundles and gets two reports, one
    # that gives them 1 and 1.0 loads one bundle and gets one report
    params = dict(g_min=0.0, g_max=4.0, marginal_cost=2.0, startup_cost=0.0)
    instance, x_star, p, _, _ = _one_type(params, [((1,), (4.0,))] * 2, (3.0,), "")
    zero = Sub(Output(0), Output(0)).to_dict()
    obj = {"family": "custom", "formulation": "xu", "N": zero, "rho": [zero]}
    for mus, shared in ((([0.0], [-0.0]), False), (([1], [1.0]), True)):
        loaded = bundles_from_json({"U1": dict(obj, mu=mus[0]), "U2": dict(obj, mu=mus[1])})
        assert (loaded["U1"] is loaded["U2"]) == shared
        reports = check_zero_total_uplift(instance, p, loaded, x_star).units
        assert (reports["U1"] is reports["U2"]) == shared
        assert repr(reports["U1"].checks) == repr(
            verify_conditions(instance.units[0], p, loaded["U1"], x_star.unit("U1")).checks)


def test_market_check_keys_loaded_bundles_by_identity(monkeypatch):
    # bundles read from JSON share objects as built ones do, so the market
    # check takes no exact key of their expression trees either
    instance = scarf_instance(40.0)
    x_star = solve_centralized(instance).schedule
    exact = model.exact_key

    def keyed(*parts):
        assert not any(map(_holds_expr, parts))
        return exact(*parts)

    for family, formulation, method in COMBOS:
        p = price_for_method(instance, method, x_star).price
        bundles = build_family(family, instance, p, x_star, Formulation(formulation))
        loaded = bundles_from_json(bundles_to_json(bundles))
        report = check_zero_total_uplift(instance, p, bundles, x_star).to_json()
        with monkeypatch.context() as m:
            rebind(m, exact, keyed)
            assert check_zero_total_uplift(instance, p, loaded, x_star).to_json() == report


# (seed, periods, units) of instances whose units share no parameters; the
# two- and three-period ones are priced by the subgradient, which runs 100
# to 400 iterations on them
UNSHARED = ((901, 1, 13), (903, 1, 8), (901, 2, 6), (903, 2, 7), (900, 3, 5), (904, 3, 5))


def test_unshared_cases_cover_the_edge_parameters():
    units = [u for case in UNSHARED for u in unshared_instance(*case).units]
    assert any(u.g_min == 0.0 and math.copysign(1.0, u.g_min) < 0 for u in units)
    assert any(u.g_min == 0.0 and math.copysign(1.0, u.g_min) > 0 for u in units)
    assert any(u.marginal_cost < 0 for u in units)
    assert any(u.startup_cost == 0.0 for u in units)
    assert any(u.initial_status == 1 for u in units)
    assert any(u.min_up == u.min_down == 2 for u in units)


@pytest.mark.parametrize("case", UNSHARED, ids=lambda case: f"seed{case[0]}-T{case[1]}-n{case[2]}")
def test_unshared_units_price_as_the_references(case):
    instance = unshared_instance(*case)
    x_star = solve_centralized(instance).schedule

    chp = convex_hull_price(instance)
    assert repr(chp) == repr(reference_convex_hull_price(instance))
    assert chp.method == ("breakpoint-scan" if instance.periods == 1 else "subgradient")
    rng = random.Random(case[0])
    prices = [chp.price, marginal_price(instance, x_star)]
    for q in prices + [tuple(rng.uniform(-4.0, 12.0) for _ in range(instance.periods))
                       for _ in range(5)]:
        assert repr(dual_function(instance, q)) == repr(reference_dual_function(instance, q))
    for p in prices:
        assert repr(uplift_report(instance, p, x_star)) == repr(
            reference_uplift_report(instance, p, x_star))


@st.composite
def _unit_and_price(draw):
    g_min = draw(st.sampled_from((0.0, -0.0, 0.5, 2.0)))
    unit = UnitParams(
        "U", g_min, g_min + draw(st.sampled_from((0.0, 1.0, 6.5))),
        marginal_cost=draw(st.sampled_from((-2.5, -0.0, 0.0, 3.0, 7.1))),
        startup_cost=draw(st.sampled_from((0.0, -0.0, 4.0, 53.3))),
        initial_status=draw(st.sampled_from((0, 1))),
        min_up=draw(st.integers(0, 3)),
        min_down=draw(st.integers(0, 3)),
    )
    periods = draw(st.integers(1, 4))
    # prices on the marginal cost hit the tie that sends outputs to g_max
    price = st.one_of(st.just(unit.marginal_cost), st.floats(-10.0, 20.0, allow_nan=False))
    return unit, tuple(draw(price) for _ in range(periods))


@settings(max_examples=300, deadline=None)
@given(_unit_and_price())
def test_value_only_kernel_equals_the_reference_profit_max(case):
    unit, p = case
    periods = len(p)
    ref = reference_unit_profit_max(unit, p, periods)
    instance = MarketInstance(periods, (0.0,) * periods, (unit,))
    assert repr(pricing.max_profits(instance, p)) == repr([ref.value])
    ((value, g),) = pricing._best_responses_at(instance)(p)
    assert repr(value) == repr(ref.value)
    assert repr(g) == repr(ref.argmax_points[0].g)
    assert repr(pricing.unit_profit_max(unit, p, periods)) == repr(ref)
    for u, (by_status, _) in ref.per_status.items():
        assert repr(pricing.profit_given_status(unit, p, u)) == repr(by_status)


@pytest.mark.parametrize("method", ("chp", "marginal"))
@pytest.mark.parametrize("case", ((901, 1, 13), (903, 2, 7)),
                         ids=lambda case: f"seed{case[0]}-T{case[1]}-n{case[2]}")
def test_uplift_request_reads_one_plan(case, method, monkeypatch, tmp_path, capsys):
    # units that share no parameters fall under two commitment rules: the
    # request lists and counts each rule's status vectors once, where it
    # used to list one table per unit and count each unit twice, and it
    # groups the units and walks the hull rates once, where dispatch and
    # the T = 1 hull price each did both
    instance = unshared_instance(*case)
    path = tmp_path / "instance.json"
    save_instance(instance, str(path))
    calls = collections.Counter()

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    for kind, fn in (("listings", model.feasible_status_vectors),
                     ("counts", model._status_vector_count),
                     ("walks", dispatch._walk_entries),
                     ("groupings", model._groups)):
        rebind(monkeypatch, fn, counted(kind, fn))
    code = cli.main(["uplift", str(path), "--price-method", method, "--json"])
    monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (0, "")
    assert len({(u.initial_status, u.min_up, u.min_down) for u in instance.units}) == 2
    assert calls == {"listings": 2, "counts": 2, "walks": 1, "groupings": 1}


@pytest.mark.parametrize("case", ((901, 1, 13), (903, 2, 7)),
                         ids=lambda case: f"seed{case[0]}-T{case[1]}-n{case[2]}")
def test_shared_status_tables_equal_each_units_own(case):
    # two more units on one rule, twins under == that differ in the sign of
    # a zero startup cost: each unit's table carries its own costs
    base = unshared_instance(*case)
    twins = tuple(UnitParams(f"Z{k}", 0.0, 5.0, 4.0, startup, min_up=2, min_down=2)
                  for k, startup in ((1, 0.0), (2, -0.0)))
    instance = MarketInstance(base.periods, base.demand, base.units + twins)
    solve_centralized(instance)
    convex_hull_price(instance)
    for i, unit in enumerate(instance.units):
        assert repr(_shared_status_table(instance, i)) == repr(
            status_table(unit, instance.periods))
    assert repr(_shared_status_table(instance, len(base.units))) != repr(
        _shared_status_table(instance, len(base.units) + 1))


@pytest.mark.parametrize("dispatch_first", (True, False), ids=("dispatch-first", "price-first"))
@pytest.mark.parametrize("minimum,count", ((0, 2 ** 40), (2, 267914296)))
def test_every_caller_checks_the_budget_on_one_plan(monkeypatch, minimum, count, dispatch_first):
    # two units on one rule share its count: whichever caller counts it,
    # every caller refuses before any status vector is listed, that of the
    # unit before them (41 vectors, within the budget) included
    rebind(monkeypatch, model.feasible_status_vectors, None)
    units = (UnitParams("S", 0.0, 10.0, 3.0, 0.0, min_up=40, min_down=40),) + tuple(
        UnitParams(uid, 0.0, 10.0, c, 0.0, min_up=minimum, min_down=minimum)
        for uid, c in (("A", 1.0), ("B", 2.0)))
    instance = MarketInstance(periods=40, demand=(1.0,) * 40, units=units)
    per_unit = f"unit A: {count} status vectors over 40 periods exceed"
    entries = [
        (lambda: solve_centralized(instance), f"{41 * count ** 2} commitment profiles exceed"),
        (lambda: convex_hull_price(instance), per_unit),
        (lambda: pricing.max_profits(instance, (1.0,) * 40), per_unit),
    ]
    if not dispatch_first:
        entries.append(entries.pop(0))
    for entry, message in entries:
        with pytest.raises(EnumerationLimitError, match=message):
            entry()


def test_held_oracles_still_check_the_budget(monkeypatch):
    # the plan keeps the oracles a price search built; a later call reads
    # `dispatch.PROFILE_LIMIT` afresh
    instance = unshared_instance(903, 2, 7)
    pricing.max_profits(instance, (1.0, 1.0))
    monkeypatch.setattr(dispatch, "PROFILE_LIMIT", 3)
    with pytest.raises(EnumerationLimitError, match="4 status vectors over 2 periods"):
        pricing.max_profits(instance, (1.0, 1.0))
