"""Centralized dispatch: goldens, merit order, symmetry, oracles, and exact
agreement with the former enumerator."""

import gc
import itertools
import math
import random

import pytest

from uplift_zero import (
    EnumerationLimitError,
    InfeasibleError,
    MarketInstance,
    UnitParams,
    UnitSchedule,
    scarf_instance,
    solve_centralized,
)
from uplift_zero import ValidationError, dispatch, pricing
from uplift_zero.dispatch import economic_dispatch
from uplift_zero.model import (
    ToleranceConfig, schedule_cost, status_table, unit_key, validate_schedule,
)

from _oracles import brute_force_dispatch, reference_dispatch
from conftest import random_instance


class TestScarfGoldens:
    def test_demand_10(self, scarf10):
        assert scarf10.result.total_cost == pytest.approx(65.0, abs=1e-9)
        sched = scarf10.result.schedule
        online = sorted(uid for uid, s in sched.units.items() if any(s.u))
        assert online == ["High Tech-1", "Med Tech-1"]
        assert sched.unit("High Tech-1").g == (7.0,)
        assert sched.unit("Med Tech-1").g == (3.0,)

    def test_demand_40(self, scarf40):
        assert scarf40.result.total_cost == pytest.approx(254.0, abs=1e-9)
        sched = scarf40.result.schedule
        online = sorted(uid for uid, s in sched.units.items() if any(s.u))
        assert online == [
            "High Tech-1", "High Tech-2", "High Tech-3", "Med Tech-1", "Smokestack-1",
        ]
        assert sched.unit("Smokestack-1").g == (16.0,)
        for k in (1, 2, 3):
            assert sched.unit(f"High Tech-{k}").g == (7.0,)
        assert sched.unit("Med Tech-1").g == (3.0,)

    def test_power_balance(self, scarf10, scarf40):
        for scen in (scarf10, scarf40):
            total = scen.result.schedule.total_output(0)
            assert total == pytest.approx(scen.instance.demand[0], abs=1e-9)
            validate_schedule(scen.instance, scen.result.schedule)

    def test_symmetry_reduction_count(self, scarf10):
        # three groups of identical units with 2 feasible status vectors each:
        # multisets of size (6, 5, 5) over 2 choices -> 7 * 6 * 6
        assert scarf10.result.profiles_enumerated == 7 * 6 * 6


class TestEconomicDispatch:
    def test_merit_order_fill(self):
        cheap = UnitParams(id="cheap", g_min=0.0, g_max=5.0, marginal_cost=1.0, startup_cost=0.0)
        dear = UnitParams(id="dear", g_min=0.0, g_max=5.0, marginal_cost=3.0, startup_cost=0.0)
        inst = MarketInstance(periods=1, demand=(7.0,), units=(cheap, dear))
        hit = economic_dispatch(inst, ((1,), (1,)))
        assert hit is not None
        outputs, cost = hit
        assert outputs[0] == (5.0,)
        assert outputs[1] == (2.0,)
        assert cost == pytest.approx(5.0 + 6.0)

    def test_minimums_are_respected(self):
        a = UnitParams(id="a", g_min=4.0, g_max=6.0, marginal_cost=1.0, startup_cost=0.0)
        b = UnitParams(id="b", g_min=0.0, g_max=6.0, marginal_cost=2.0, startup_cost=0.0)
        inst = MarketInstance(periods=1, demand=(5.0,), units=(a, b))
        outputs, _ = economic_dispatch(inst, ((1,), (1,)))
        assert outputs[0][0] >= 4.0
        assert outputs[0][0] + outputs[1][0] == pytest.approx(5.0)

    def test_window_violation_returns_none(self):
        a = UnitParams(id="a", g_min=4.0, g_max=6.0, marginal_cost=1.0, startup_cost=0.0)
        inst = MarketInstance(periods=1, demand=(2.0,), units=(a,))
        assert economic_dispatch(inst, ((1,),)) is None


class TestSolver:
    def test_infeasible_demand_raises(self):
        # demand below every committable minimum but above zero
        a = UnitParams(id="a", g_min=5.0, g_max=9.0, marginal_cost=1.0, startup_cost=0.0)
        inst = MarketInstance(periods=1, demand=(2.0,), units=(a,))
        with pytest.raises(InfeasibleError):
            solve_centralized(inst)

    def test_enumeration_cap(self, monkeypatch):
        import uplift_zero.dispatch as dispatch_mod

        monkeypatch.setattr(dispatch_mod, "PROFILE_LIMIT", 10)
        with pytest.raises(EnumerationLimitError):
            solve_centralized(scarf_instance(10.0))

    def test_startup_cost_changes_commitment(self):
        # a cheap-energy unit with a huge startup cost loses to a dearer one
        big_start = UnitParams(id="bs", g_min=0.0, g_max=10.0, marginal_cost=1.0, startup_cost=100.0)
        steady = UnitParams(id="st", g_min=0.0, g_max=10.0, marginal_cost=5.0, startup_cost=0.0)
        inst = MarketInstance(periods=1, demand=(10.0,), units=(big_start, steady))
        result = solve_centralized(inst)
        assert result.schedule.unit("st").g == (10.0,)
        assert result.schedule.unit("bs").u == (0,)

    def test_warm_unit_avoids_restart_cost(self):
        warm = UnitParams(id="w", g_min=0.0, g_max=10.0, marginal_cost=5.0,
                          startup_cost=100.0, initial_status=1)
        cold = UnitParams(id="c", g_min=0.0, g_max=10.0, marginal_cost=4.0, startup_cost=100.0)
        inst = MarketInstance(periods=1, demand=(10.0,), units=(warm, cold))
        result = solve_centralized(inst)
        assert result.schedule.unit("w").g == (10.0,)

    def test_two_periods_with_min_up(self):
        u1 = UnitParams(id="u1", g_min=2.0, g_max=10.0, marginal_cost=1.0,
                        startup_cost=5.0, min_up=2)
        u2 = UnitParams(id="u2", g_min=0.0, g_max=10.0, marginal_cost=6.0, startup_cost=0.0)
        inst = MarketInstance(periods=2, demand=(8.0, 2.0), units=(u1, u2))
        result = solve_centralized(inst)
        oracle = brute_force_dispatch(inst)
        assert result.total_cost == pytest.approx(oracle[0], abs=1e-8)
        validate_schedule(inst, result.schedule)


class TestOracleAgreement:
    @pytest.mark.parametrize("periods", [1, 2])
    def test_random_instances(self, periods):
        rng = random.Random(100 + periods)
        for _ in range(8):
            inst = random_instance(rng, max_units=4, periods=periods)
            result = solve_centralized(inst)
            oracle = brute_force_dispatch(inst)
            assert oracle is not None
            assert result.total_cost == pytest.approx(oracle[0], abs=1e-7)
            validate_schedule(inst, result.schedule)
            for t in range(periods):
                assert result.schedule.total_output(t) == pytest.approx(
                    inst.demand[t], abs=1e-7
                )

    def test_reduced_scarf_against_oracle(self):
        # two units of each canonical type; the full 16-unit instance is out
        # of reach for the doubly exhaustive oracle
        full = scarf_instance(10.0)
        kept = tuple(u for u in full.units if u.id.endswith(("-1", "-2")))
        inst = MarketInstance(periods=1, demand=(10.0,), units=kept)
        result = solve_centralized(inst)
        oracle = brute_force_dispatch(inst)
        assert result.total_cost == pytest.approx(oracle[0], abs=1e-9)
        assert result.total_cost == pytest.approx(65.0, abs=1e-9)


def test_dispatch_cost_minimal_among_sampled_commitments():
    rng = random.Random(9)
    for _ in range(10):
        inst = random_instance(rng, max_units=4, periods=1)
        result = solve_centralized(inst)
        # any feasible commitment's economic dispatch costs at least f*
        from uplift_zero.model import feasible_status_vectors
        import itertools

        per_unit = [feasible_status_vectors(u, 1) for u in inst.units]
        for commitment in itertools.product(*per_unit):
            hit = economic_dispatch(inst, commitment)
            if hit is not None:
                assert hit[1] >= result.total_cost - 1e-7


def integer_instance(rng: random.Random, periods: int, max_units: int) -> MarketInstance:
    """Instance with integer capacities and costs (some marginal costs
    negative), some of its units in groups of identical parameters, so that
    profiles often tie on cost."""
    units = []
    for k in range(rng.randint(1, 4)):
        g_min = rng.choice((0, 0, 1, 2))
        params = dict(
            g_min=float(g_min),
            g_max=float(g_min + rng.randint(1, 6)),
            marginal_cost=float(rng.randint(-1, 4)),
            startup_cost=float(rng.choice((0, 2, 4, 6))),
            initial_status=rng.choice((0, 0, 1)),
            min_up=rng.choice((0, 2)) if periods > 1 else 0,
            min_down=rng.choice((0, 2)) if periods > 1 else 0,
        )
        for j in range(rng.choice((1, 1, 2, 3))):
            units.append(UnitParams(id=f"T{k}-{j + 1}", **params))
    units = units[:max_units]
    cap = sum(u.g_max for u in units)
    demand = tuple(float(rng.randint(0, int(cap))) for _ in range(periods))
    return MarketInstance(periods=periods, demand=demand, units=tuple(units))


def hetero_instance(rng: random.Random, periods: int, max_units: int) -> MarketInstance:
    """Instance whose units share no parameters, so every group is one unit.
    Some units have g_min > 0, negative marginal costs, initial_status = 1
    or min up/down times of 2.  Each period's demand lies on, or eq_tol / 2
    either side of, an edge of some commitment's output window, so the
    window test meets its tolerance.  The tie band is eq_tol times the best
    cost; with eq_tol = 1e-300 it is below rounding, and decimal costs make
    the node bound and the dispatched total round differently."""
    eq_tol = rng.choice((1e-7, 0.01, 0.25, 1e-300))
    units, keys = [], set()
    for k in range(rng.randint(1, max_units)):
        g_min = rng.choice((0.0, 0.0, 0.7, 1.0, 2.0))
        slow = periods > 1 and rng.random() < 0.5
        unit = UnitParams(
            id=f"U{k}",
            g_min=g_min,
            g_max=g_min + rng.choice((0.2, 0.6, 1.0, 3.0, 6.0)),
            marginal_cost=rng.choice((-3.0, -1.0, 0.0, 0.1, 0.3, 0.3, 1.0, 2.0)),
            startup_cost=rng.choice((0.0, 0.1, 0.3, 2.0, 6.0)),
            initial_status=rng.choice((0, 0, 1)),
            min_up=2 if slow else 0,
            min_down=2 if slow else 0,
        )
        if unit_key(unit) not in keys:
            keys.add(unit_key(unit))
            units.append(unit)
    demand = []
    for _ in range(periods):
        online = [u for u in units if rng.random() < 0.5]
        edge = sum(u.g_max if rng.random() < 0.5 else u.g_min for u in online)
        demand.append(max(0.0, edge + rng.choice((0.0, 0.5, -0.5)) * eq_tol))
    return MarketInstance(periods=periods, demand=tuple(demand), units=tuple(units),
                          tolerances=ToleranceConfig(eq_tol=eq_tol))


class TestReferenceEquality:
    @pytest.mark.parametrize("periods,max_units", [(1, 12), (2, 8), (3, 5)])
    def test_matches_former_enumerator_exactly(self, periods, max_units):
        rng = random.Random(7000 + periods)
        solved = skipped = 0
        while solved < 40:
            inst = integer_instance(rng, periods, max_units)
            try:
                schedule, total, count = reference_dispatch(inst)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_centralized(inst)
                continue
            result = solve_centralized(inst)
            assert result.schedule == schedule
            assert repr(result.total_cost) == repr(total)
            assert result.profiles_enumerated == count
            assert result.profiles_dispatched <= count
            skipped += result.profiles_dispatched < count
            solved += 1
        assert skipped > 0  # the cost bound is exercised

    def test_negative_marginal_cost_tie(self):
        # Both commitments cost -0.5; the tie goes to the later one, with both
        # units online.  The energy floor must let negative-cost units run up
        # to d + eq_tol, or that profile's bound lands above the limit and it
        # is skipped.
        twin = dict(g_min=0.0, g_max=10.0, marginal_cost=-10.0, startup_cost=0.0)
        inst = MarketInstance(periods=1, demand=(0.05,), units=(
            UnitParams(id="a", **twin), UnitParams(id="b", **twin)))
        schedule, total, count = reference_dispatch(inst)
        result = solve_centralized(inst)
        assert (result.schedule, result.total_cost, result.profiles_enumerated) == (
            schedule, total, count)
        assert result.schedule.unit("b").u == (1,)

    def test_scarf_dispatch_counts(self, scarf10):
        result = scarf10.result
        assert 0 < result.profiles_dispatched <= result.profiles_enumerated

    @pytest.mark.parametrize("periods,max_units", [(1, 10), (2, 6), (3, 4)])
    def test_heterogeneous_units_match_exactly(self, periods, max_units):
        # fails if the window test drops eq_tol, if the node bound runs
        # negative-cost units only to d_t - eq_tol, or if subtrees are
        # pruned at the limit less the rounding margin
        rng = random.Random(8000 + periods)
        dispatched = enumerated = 0
        for _ in range(100):
            inst = hetero_instance(rng, periods, max_units)
            try:
                expected = reference_dispatch(inst)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_centralized(inst)
                continue
            result = solve_centralized(inst)
            assert (result.schedule, result.total_cost, result.profiles_enumerated) == expected
            assert repr(result.total_cost) == repr(expected[1])
            dispatched += result.profiles_dispatched
            enumerated += result.profiles_enumerated
        assert dispatched < enumerated / 4  # whole subtrees are pruned


def thirteen_unit_instance() -> MarketInstance:
    # a single-period instance of 13 units that share no parameters: 8,192
    # profiles
    rows = (
        (3.08, 12.46, 1.03, 3.2), (0.0, 8.45, 2.48, 1.97), (3.13, 9.16, 6.86, 16.56),
        (2.35, 13.35, 5.9, 22.69), (0.6, 14.01, 1.22, 14.36), (3.69, 14.97, 1.07, 15.56),
        (0.0, 10.64, 2.32, 38.35), (0.0, 5.77, 2.85, 33.33), (3.33, 13.93, 9.07, 16.47),
        (3.14, 18.01, 9.09, 22.43), (0.0, 13.93, 2.58, 55.14), (0.0, 10.31, 2.8, 4.63),
        (0.6, 14.86, 7.71, 37.86),
    )
    return MarketInstance(periods=1, demand=(60.191,), units=tuple(
        UnitParams(f"U{k:02d}", *row) for k, row in enumerate(rows, 1)))


def test_thirteen_heterogeneous_units_dispatch_few_profiles():
    # Of the 8,192 profiles the former search dispatched 2,449 and the
    # subtree bound dispatches 23.
    inst = thirteen_unit_instance()
    result = solve_centralized(inst)
    assert (result.schedule, result.total_cost, result.profiles_enumerated) == (
        reference_dispatch(inst))
    assert result.profiles_dispatched <= 30


def test_thirteen_heterogeneous_units_visit_few_nodes():
    # With undecided units priced at marginal cost and no startup cost, the
    # search entered 484 nodes; the hull rate's bound, 135.46 at the root
    # instead of 90.74, cuts that to 197 and dispatches the same 23 leaves.
    # The incumbent's ceiling leaves 14 nodes and the one optimal leaf.
    result = solve_centralized(thirteen_unit_instance())
    assert result.profiles_dispatched == 1
    assert result.nodes_visited <= 250


def test_incumbent_leaves_few_nodes_on_thirteen_units():
    # The root walk rounded up is the optimal commitment here, so the
    # ceiling at its cost leaves 14 of the 197 nodes the bound alone visits.
    result = solve_centralized(thirteen_unit_instance())
    assert result.nodes_visited <= 14


def test_scarf_three_periods_with_the_budget_lifted(monkeypatch):
    # 1,076,385,024 profiles, over the default budget.  Without an
    # incumbent the search visits 793 nodes and dispatches 775 profiles.
    # The seed, three High Tech units, comes after 78,408 profiles in leaf
    # order; its ceiling lies 0.8% above its cost of 180, and the search
    # then enters 6 nodes for the same schedule.
    monkeypatch.setattr(dispatch, "PROFILE_LIMIT", 2_000_000_000)
    inst = MarketInstance(3, (10.0, 20.0, 15.0), scarf_instance(10.0).units)
    result = solve_centralized(inst)
    assert result.profiles_enumerated == 1_076_385_024
    assert result.total_cost == 180.0
    online = {uid: (s.u, s.g) for uid, s in result.schedule.units.items() if any(s.u)}
    assert online == {
        "High Tech-1": ((1, 1, 1), (7.0, 7.0, 7.0)),
        "High Tech-2": ((1, 1, 1), (3.0, 7.0, 7.0)),
        "High Tech-3": ((1, 1, 1), (0.0, 6.0, 1.0)),
    }
    assert result.nodes_visited <= 6


def _root_bound(inst: MarketInstance) -> float:
    groups = dispatch._interchangeable(inst)
    bound = dispatch._energy_bound(inst, groups)
    rooms = [None] * len(groups)
    return sum(bound(t, 0, rooms, 0.0, 0.0) for t in range(inst.periods))


def hull_edge_instance(rng: random.Random, periods: int, max_units: int) -> MarketInstance:
    """Instance at the edges of the hull rate c + S / (T * g_max): units
    that start online with a startup cost (rate c), units with g_max = 0
    (rate c) or g_min = g_max, negative marginal costs whose hull rate has
    either sign, min up/down times of 2 at T > 1, and pairs of identical
    units, whose group shares one walk entry.  Demand lies on, or eq_tol / 2
    either side of, an edge of some commitment's output window, or anywhere
    in [0, capacity]."""
    eq_tol = rng.choice((1e-7, 0.25, 1e-300))
    units = []
    for k in range(rng.randint(1, max_units)):
        g_min = rng.choice((0.0, 0.0, 0.5, 2.0))
        g_max = g_min + rng.choice((0.0, 1.0, 1.5, 4.0))
        slow = periods > 1 and rng.random() < 0.4
        unit = dict(
            g_min=g_min,
            g_max=g_max,
            marginal_cost=rng.choice((-4.0, -1.0, -0.5, 0.0, 0.3, 1.0, 2.5)),
            startup_cost=rng.choice((0.0, 0.5, 2.0, 6.0, 15.0)),
            initial_status=rng.choice((0, 0, 1)),
            min_up=2 if slow else 0,
            min_down=2 if slow else 0,
        )
        for j in range(rng.choice((1, 1, 1, 2))):
            units.append(UnitParams(id=f"H{k}-{j}", **unit))
    units = units[:max_units]
    demand = []
    for _ in range(periods):
        if rng.random() < 0.5:
            online = [u for u in units if rng.random() < 0.5]
            edge = sum(u.g_max if rng.random() < 0.5 else u.g_min for u in online)
            demand.append(max(0.0, edge + rng.choice((0.0, 0.5, -0.5)) * eq_tol))
        else:
            demand.append(round(rng.uniform(0.0, sum(u.g_max for u in units)), 2))
    return MarketInstance(periods=periods, demand=tuple(demand), units=tuple(units),
                          tolerances=ToleranceConfig(eq_tol=eq_tol))


def test_root_bound_is_the_convex_hull_dual_at_one_period():
    # At T = 1 the hull rate is the slope of each unit's convex-hull cost on
    # [0, g_max], so the root's merit order solves the hull LP: the dual
    # value at the best price, less at most eq_tol * the dearest rate for the
    # demand band.  Pricing undecided units at marginal cost alone gives
    # 90.74 against 135.46 on the 13-unit instance.
    rng = random.Random(9100)
    cases = [thirteen_unit_instance()]
    while len(cases) < 150:
        inst = hull_edge_instance(rng, 1, 8)
        if inst.demand[0] <= sum(u.g_max for u in inst.units):
            cases.append(inst)
    kinds = set()
    for inst in cases:
        eq_tol = inst.tolerances.eq_tol
        dual = pricing.convex_hull_price(inst).dual_value
        rates = [dispatch._hull_rate(u, 1) for u in inst.units]
        scale = 1.0 + sum(u.startup_cost for u in inst.units) + max(map(abs, rates)) * (
            sum(u.g_max for u in inst.units) + inst.demand[0])
        root = _root_bound(inst)
        assert dual - eq_tol * max(map(abs, rates)) - 1e-12 * scale <= root
        assert root <= dual + 1e-12 * scale
        for u, rate in zip(inst.units, rates):
            kinds.add(("online with S", u.initial_status == 1 and u.startup_cost > 0))
            kinds.add(("g_max = 0", u.g_max == 0))
            kinds.add(("g_min = g_max > 0", 0 < u.g_min == u.g_max))
            kinds.add(("hull rate sign from c < 0", u.marginal_cost < 0 and rate > 0))
        kinds.add(("eq_tol", eq_tol))
    assert _root_bound(cases[0]) == pytest.approx(135.46, abs=0.01)
    assert len(kinds) == 4 * 2 + 3


@pytest.mark.parametrize("periods,max_units", [(1, 9), (2, 6), (3, 4)])
def test_hull_rate_edges_match_the_reference(periods, max_units):
    # fails if an online unit kept its hull rate, if a unit that starts
    # online paid its startup in the rate, or if the startup prefix
    # counted a new unit's first startup on top of the parent's bound
    rng = random.Random(9200 + periods)
    solved = 0
    for _ in range(80):
        inst = hull_edge_instance(rng, periods, max_units)
        try:
            expected = reference_dispatch(inst)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_centralized(inst)
            continue
        result = solve_centralized(inst)
        assert (result.schedule, result.total_cost, result.profiles_enumerated) == expected
        assert repr(result.total_cost) == repr(expected[1])
        solved += 1
    assert solved >= 40


@pytest.mark.parametrize("periods", [1, 2])
def test_node_bound_holds_below_every_node(periods):
    # At a random node (the root, a leaf or in between), the decided groups'
    # startup cost plus sum_t E_t, with the node's state built as the
    # search builds it, is at most the cheapest feasible completion, found
    # by trying every status vector of every undecided unit.  Fails if
    # online units keep their hull rate, if E_t is walked with the parent's
    # k, or if the walk drops the eq_tol demand band.
    rng = random.Random(9500 + periods)
    kinds = set()
    for _ in range(300):
        inst = hull_edge_instance(rng, periods, 5)
        units = inst.units
        groups = dispatch._interchangeable(inst)
        bound = dispatch._energy_bound(inst, groups)
        k = rng.randint(0, len(groups))
        fixed = [None] * len(units)
        rooms = [None] * len(groups)
        made = [0.0] * periods
        energy = [0.0] * periods
        startup = 0.0
        for grp, g in enumerate(groups[:k]):
            unit = units[g[0]]
            table = status_table(unit, periods)
            costs = dict(zip(table.vectors, table.costs))
            vectors = sorted(rng.choices(table.vectors, k=len(g)), reverse=True)
            for i, u in zip(g, vectors):
                fixed[i] = u
                startup += costs[u]
            on = [sum(u[t] for u in vectors) for t in range(periods)]
            rooms[grp] = [n * (unit.g_max - unit.g_min) for n in on]
            for t, n in enumerate(on):
                made[t] += n * unit.g_min
                energy[t] += n * unit.g_min * unit.marginal_cost
        node = startup
        for t in range(periods):
            node += bound(t, k, rooms, made[t], energy[t])
        choices = [status_table(unit, periods).vectors if u is None else [u]
                   for unit, u in zip(units, fixed)]
        totals = [hit[1] for commitment in itertools.product(*choices)
                  if (hit := economic_dispatch(inst, commitment)) is not None]
        if not totals:
            continue
        margin = dispatch.BOUND_MARGIN * periods * (
            sum(u.startup_cost for u in units)
            + max(abs(u.marginal_cost) for u in units) * sum(u.g_max for u in units))
        assert node <= min(totals) + margin
        depth = "root" if k == 0 else "leaf" if k == len(groups) else "inner"
        kinds.add((depth, inst.tolerances.eq_tol))
        kinds.update(kind for kind, seen in (
            ("identical units", any(len(g) > 1 for g in groups)),
            ("min up/down 2", any(u.min_up == 2 for u in units)),
            ("initial_status = 1", any(u.initial_status == 1 for u in units)),
            ("g_max = 0", any(u.g_max == 0 for u in units)),
            ("c < 0", any(u.marginal_cost < 0 for u in units)),
        ) if seen)
    expected = {(depth, eq_tol) for depth in ("root", "inner", "leaf") for eq_tol in (1e-7, 0.25)}
    expected |= {"identical units", "initial_status = 1", "g_max = 0", "c < 0"}
    if periods == 2:
        expected.add("min up/down 2")
    assert expected <= kinds


def test_demand_no_commitment_meets_raises_without_dispatching(monkeypatch):
    # A alone cannot reach d = 5 and B alone cannot go below g_min = 10, so
    # every node fails the window test before a profile is dispatched.
    calls = []
    kernel = dispatch._merit_order_fill

    def counted(instance):
        fill = kernel(instance)

        def wrapper(*args):
            calls.append(args)
            return fill(*args)
        return wrapper

    monkeypatch.setattr(dispatch, "_merit_order_fill", counted)
    a = UnitParams(id="a", g_min=0.0, g_max=3.0, marginal_cost=1.0, startup_cost=0.0)
    b = UnitParams(id="b", g_min=10.0, g_max=12.0, marginal_cost=2.0, startup_cost=0.0)
    for periods, demand in ((1, (5.0,)), (2, (1.0, 5.0))):
        inst = MarketInstance(periods=periods, demand=demand, units=(a, b))
        with pytest.raises(InfeasibleError):
            solve_centralized(inst)
    assert calls == []


def test_solve_leaves_no_cyclic_garbage():
    # cycles wait for the collector, and a long run of solves piles them up
    gc.collect()
    gc.disable()
    try:
        solve_centralized(scarf_instance(40.0))
        assert gc.collect() == 0
    finally:
        gc.enable()


def near_tie_instance(rng: random.Random, periods: int) -> MarketInstance:
    """Instance whose profiles tie or nearly tie on cost, for the tie rule
    against the incumbent's ceiling.  Two or three unit types share a
    marginal cost c (negative for some instances) up to steps of a fraction
    of a tie band, or of 1 for integer costs and exact ties; their startup
    costs are a few such steps.  The first type's units come first and last
    in unit order, with the others' in between, so that leaf order and the
    tie rule's commitment order disagree.  At T = 2 some types have min
    up/down times of 2; some units start online; eq_tol is 1e-7 or 0.25."""
    eq_tol = rng.choice((1e-7, 1e-7, 1e-7, 0.25))
    c = float(rng.choice((1, 2, 3, -1)))
    # 0.35 of a band at a cost of about 3 |c|
    step = 0.35 * eq_tol * 3 * abs(c) if rng.random() < 0.7 else 1.0
    types = []
    for _ in range(rng.randint(2, 3)):
        g_min = float(rng.choice((0, 1, 1, 2)))
        slow = periods > 1 and rng.random() < 0.3
        types.append(dict(
            g_min=g_min,
            g_max=g_min + float(rng.randint(1, 2)),
            marginal_cost=c + rng.randint(0, 4) * step,
            startup_cost=rng.choice((0, 0, 1, 3)) * step,
            initial_status=rng.choice((0, 1, 1)),
            min_up=2 if slow else 0,
            min_down=2 if slow else 0,
        ))
    middle = [t for t in types[1:] for _ in range(rng.randint(1, 2))]
    layout = [types[0]] + middle + [types[0]] * rng.randint(1, 2)
    units = tuple(UnitParams(id=f"N{j}", **t) for j, t in enumerate(layout))
    cap = int(sum(u.g_max for u in units))
    demand = tuple(float(rng.randint(0, cap)) for _ in range(periods))
    return MarketInstance(periods=periods, demand=demand, units=units,
                          tolerances=ToleranceConfig(eq_tol=eq_tol))


@pytest.mark.parametrize("periods", [1, 2])
def test_incumbent_keeps_the_tie_rule(periods):
    # The incumbent's ceiling prunes profiles that the search would have
    # dispatched with no incumbent.  On near-tied profiles the answer still
    # equals the former enumerator's exactly.  Fails if the ceiling lies one
    # band above the seed's cost instead of rank + 4 bands, or if the seed
    # is taken as an accepted best.
    rng = random.Random(9400 + periods)
    cases = [near_tie_instance(rng, periods) for _ in range(300)]
    # seeds that cannot be used: a rounded-up unit whose g_min exceeds
    # demand, and a vector that breaks a minimum up time
    heavy = UnitParams("X", 2.0, 3.0, 1.0, 0.0)
    light = UnitParams("Y", 0.0, 1.0, 2.0, 0.0)
    cases.append(MarketInstance(periods, (1.0,) * periods, (heavy, light)))
    if periods == 2:
        slow = UnitParams("X", 0.0, 2.0, 1.0, 1.0, min_up=2, min_down=2)
        cases.append(MarketInstance(2, (2.0, 0.0), (slow, UnitParams("Y", 0.0, 2.0, 3.0, 0.0))))
    kinds = set()
    for inst in cases:
        try:
            expected = reference_dispatch(inst)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_centralized(inst)
            continue
        result = solve_centralized(inst)
        assert (result.schedule, result.total_cost, result.profiles_enumerated) == expected
        assert repr(result.total_cost) == repr(expected[1])
        seed = dispatch._rounded_root(inst, dispatch._interchangeable(inst))
        try:
            seeded = "window" if economic_dispatch(inst, seed) is None else "seed"
        except ValidationError:
            seeded = "min up/down"
        kinds.add((inst.tolerances.eq_tol, seeded))
    expected_kinds = {(1e-7, "seed"), (1e-7, "window"), (0.25, "seed")}
    if periods == 2:
        expected_kinds.add((1e-7, "min up/down"))
    assert expected_kinds <= kinds
