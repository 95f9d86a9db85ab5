"""The lattice a column at a time.

`expr.evaluate_columns` evaluates expression trees over many points at
once; it must give bit for bit what `Expr.evaluate` gives point by point
(compared in `repr`, so the sign of a zero and int against float count),
and raise what the point-by-point walk raises first.
`model.feasible_set_samples` deduplicates the one-dimensional output list
once; it must give the points of the former lattice
(`reference_feasible_set_samples`), in the same order.  A `report` calls
`Expr.evaluate` at single points only (the dispatched schedule, the profit
argmax points), never per lattice point, so the number of calls does not
grow with the lattice.
"""

import contextlib
import io
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import uplift_zero.cli as cli
from _oracles import reference_feasible_set_samples
from uplift_zero import expr, model
from uplift_zero.amendments import _unit_reports, build_family, bundles_from_json, bundles_to_json
from uplift_zero.dispatch import solve_centralized
from uplift_zero.errors import PreconditionError
from uplift_zero.expr import (
    Abs,
    Add,
    Const,
    Delta,
    Max,
    Min,
    Mul,
    Output,
    Status,
    Step,
    Sub,
    evaluate_columns,
)
from uplift_zero.model import (
    UnitParams,
    UnitSchedule,
    feasible_set_samples,
    feasible_status_vectors,
    scarf_instance,
)
from uplift_zero.pricing import convex_hull_price, lattice_table
from uplift_zero.redundant import classify_constraint, min_uplift

EQ_TOL = 1e-7
# signed zeros come up often, so that sums and products of zeros do too
OUTPUTS = (0.0, -0.0, -0.0, 1.0, 2.5, 3.0 + 0.5 * EQ_TOL, 3.0, 3.0 - 1.5 * EQ_TOL, 6.0, 1e-300)
CONSTS = (0.0, -0.0, -0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e300, -1e300, 2, -0, math.inf, 5e-324)


def _reference(exprs, points, eq_tol):
    """The point-by-point walk: per point, every expression in order."""
    rows = [tuple(e.evaluate(s, eq_tol) for e in exprs) for s in points]
    return tuple(zip(*rows)) if exprs else ()


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:   # the error's type and message must match
        return type(exc).__name__, str(exc)


def _trees(periods: int):
    """Trees of all 11 node types; periods and Delta references are mostly
    inside the horizon, sometimes one past it."""
    horizon = st.integers(0, periods - 1) | st.just(periods)
    ref_len = st.sampled_from((periods, periods, periods, periods + 1))
    u_ref = st.none() | ref_len.flatmap(lambda n: st.tuples(*[st.sampled_from((0, 1))] * n))
    g_ref = st.none() | ref_len.flatmap(
        lambda n: st.tuples(*[st.sampled_from(OUTPUTS).flatmap(_nudged)] * n))
    delta = st.tuples(u_ref, g_ref).filter(lambda r: r != (None, None)).map(
        lambda r: Delta(u_ref=r[0], g_ref=r[1]))
    leaves = (
        st.sampled_from(CONSTS).map(Const)
        | horizon.map(Status)
        | horizon.map(Output)
        | delta
    )

    def branches(children):
        args = st.lists(children, min_size=2, max_size=4).map(tuple)
        return (
            args.map(Add) | args.map(Mul) | args.map(Min) | args.map(Max)
            | st.tuples(children, children).map(lambda a: Sub(*a))
            | children.map(Step) | children.map(Abs)
        )

    return st.recursive(leaves, branches, max_leaves=12)


def _nudged(g: float):
    # a reference exactly at, within or just outside eq_tol of an output
    return st.sampled_from((g, g + 0.5 * EQ_TOL, g - EQ_TOL, g + 1.5 * EQ_TOL))


@st.composite
def _case(draw):
    periods = draw(st.sampled_from((1, 2, 3)))
    exprs = draw(st.lists(_trees(periods), min_size=1, max_size=3))
    if draw(st.booleans()):
        # points of the unit's own lattice, small enough at T = 3
        g_max = draw(st.sampled_from((0.0, 6.0) if periods == 3 else (6.0, 16.0)))
        unit = UnitParams("U", draw(st.sampled_from((0.0, g_max))), g_max, 1.0, 2.0,
                          initial_status=draw(st.sampled_from((0, 1))),
                          min_up=draw(st.integers(0, 2)), min_down=draw(st.integers(0, 2)))
        points = feasible_set_samples(unit, periods=periods)
    else:
        # any schedules of one horizon, signed zeros among the outputs
        point = st.tuples(
            st.tuples(*[st.sampled_from((0, 1))] * periods),
            st.tuples(*[st.sampled_from(OUTPUTS)] * periods),
        ).map(lambda ug: UnitSchedule(*ug))
        points = tuple(draw(st.lists(point, min_size=1, max_size=30)))
    return exprs, points


@settings(max_examples=200, deadline=None)
@given(_case())
def test_columns_equal_the_point_by_point_walk(case):
    exprs, points = case
    assert _outcome(evaluate_columns, exprs, points, EQ_TOL) == _outcome(
        _reference, exprs, points, EQ_TOL)


def test_columns_keep_the_edge_values():
    points = (UnitSchedule((0, 1), (0.0, 3.0)), UnitSchedule((1, 1), (-0.0, 3.0 + 0.5 * EQ_TOL)),
              UnitSchedule((1, 0), (3.0 + 1.5 * EQ_TOL, 0.0)))
    exprs = (
        Add((Output(0), Const(-0.0))),          # 0 + -0.0 is 0.0 at the first term
        Mul((Const(-1.0), Output(0))),          # 1.0 * -1.0 * 0.0 is -0.0
        Step(Output(0)),                        # strict: 0.0 and -0.0 give 0.0
        Step(Sub(Output(1), Const(3.0))),
        Delta(g_ref=(3.0 + EQ_TOL, 3.0)),       # |a - b| > eq_tol fails at 1.5 eq_tol only
        Delta(u_ref=(1, 1), g_ref=(0.0, 3.0)),
        Min((Const(0.0), Const(-0.0))),         # the builtin keeps the first of equals
        Max((Const(-0.0), Output(0))),
        Add((Const(2), Const(3))),              # ints stay ints
    )
    got = evaluate_columns(exprs, points, EQ_TOL)
    assert repr(got) == repr(_reference(exprs, points, EQ_TOL))
    assert repr(got[1]) == repr((-0.0, 0.0, -(3.0 + 1.5 * EQ_TOL)))


@pytest.mark.parametrize("exprs,message", [
    ((Output(0), Status(2)), "expression refers to period 3 of a 2-period schedule"),
    ((Add((Const(1.0), Output(5))),), "expression refers to period 6 of a 2-period schedule"),
    ((Delta(u_ref=(1,)),), "Delta reference has wrong horizon length"),
    # the outputs are compared only at points whose status matches
    ((Delta(u_ref=(1, 1), g_ref=(1.0,)),), "Delta reference has wrong horizon length"),
    # at the first point Delta returns early and Status fails first
    ((Add((Delta(u_ref=(1, 1), g_ref=(1.0,)), Status(7))),),
     "expression refers to period 8 of a 2-period schedule"),
])
def test_errors_are_those_of_the_point_by_point_walk(exprs, message):
    points = (UnitSchedule((0, 0), (0.0, 0.0)), UnitSchedule((1, 1), (1.0, 2.0)))
    want = _outcome(_reference, exprs, points, EQ_TOL)
    assert want == ("ValidationError", message)
    assert _outcome(evaluate_columns, exprs, points, EQ_TOL) == want


def test_a_status_only_mismatch_never_reads_the_outputs():
    # every point's status differs from u_ref, so the wrong-length g_ref is never read
    points = (UnitSchedule((0, 0), (0.0, 0.0)),)
    e = Delta(u_ref=(1, 1), g_ref=(1.0,))
    assert evaluate_columns((e,), points, EQ_TOL) == ((0.0,),) == _reference((e,), points, EQ_TOL)


# ---------------------------------------------------------------------------
# the lattice against the former one
# ---------------------------------------------------------------------------

def _seeded_units(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        g_min = rng.choice((0.0, 0.0, 1.0, 2.5))
        yield UnitParams(
            f"U{k}", g_min, g_min + rng.choice((0.0, 3.0, 6.0, 7.5)),
            marginal_cost=rng.choice((1.0, 3.5)), startup_cost=rng.choice((0.0, 4.0)),
            initial_status=rng.choice((0, 1)), min_up=rng.choice((0, 2, 3)),
            min_down=rng.choice((0, 2)),
        )


def _anchor(rng: random.Random, unit: UnitParams, periods: int, eq_tol: float) -> UnitSchedule:
    """A feasible schedule whose online outputs sit on or within 1e-13 of a
    grid value, g_min or g_max, or anywhere in the box, and whose offline
    outputs are 0 or a small non-zero value within eq_tol."""
    u = rng.choice(feasible_status_vectors(unit, periods))
    step = (unit.g_max - unit.g_min) / (model.SAMPLE_GRID_POINTS - 1)
    g = []
    for u_t in u:
        if not u_t:
            g.append(rng.choice((0.0, -0.0, 0.5 * eq_tol, -0.25 * eq_tol, 1e-12)))
            continue
        base = rng.choice((unit.g_min, unit.g_max,
                           unit.g_min + rng.randrange(model.SAMPLE_GRID_POINTS) * step,
                           rng.uniform(unit.g_min, unit.g_max)))
        g.append(min(unit.g_max, max(unit.g_min, base + rng.choice((0.0, 1e-13, -1e-13, 4e-13)))))
    return UnitSchedule(u, tuple(g))


@pytest.mark.parametrize("seed", range(4))
def test_lattice_equals_the_former_one(seed):
    rng = random.Random(1000 + seed)
    for unit in _seeded_units(seed, 6):
        for periods in (1, 2, 3):
            anchors = tuple(_anchor(rng, unit, periods, EQ_TOL) for _ in range(rng.randrange(3)))
            got = feasible_set_samples(unit, anchors=anchors, periods=periods, eq_tol=EQ_TOL)
            want = reference_feasible_set_samples(unit, anchors=anchors, periods=periods,
                                                  eq_tol=EQ_TOL)
            assert repr(got) == repr(want)
            assert got == want


def test_lattice_with_int_box_ends_holds_floats():
    unit = UnitParams("X", 1, 1, 1, 0)
    got = feasible_set_samples(unit, periods=2)
    assert repr(got) == repr(reference_feasible_set_samples(unit, periods=2))


# ---------------------------------------------------------------------------
# reports, groups and non-finite constraints
# ---------------------------------------------------------------------------

def _count_evaluate(monkeypatch) -> Counter:
    counts: Counter = Counter()
    stack = list(expr.Expr.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "evaluate" in vars(cls):
            original = vars(cls)["evaluate"]

            def counted(self, *args, _original=original, **kwargs):
                counts["evaluate"] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "evaluate", counted)
    return counts


@pytest.mark.parametrize("argv", [
    ["report", "--scarf", "40", "--family", "general-form"],
    ["report", "--scarf", "10", "--family", "uplift-delta", "--formulation", "g"],
    ["report", "--scarf", "40", "--family", "status-profile", "--price-method", "marginal"],
    ["report", "--scarf", "40", "--family", "convex-hull"],
])
def test_evaluate_calls_do_not_grow_with_the_lattice(monkeypatch, argv):
    counts = _count_evaluate(monkeypatch)
    calls = {}
    for grid in (21, 81):
        monkeypatch.setattr(model, "SAMPLE_GRID_POINTS", grid)
        counts.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        calls[grid] = counts["evaluate"]
    assert 0 < calls[21] == calls[81]


def test_bundles_read_from_json_group_as_built():
    instance = scarf_instance(40.0)
    x_star = solve_centralized(instance).schedule
    p = convex_hull_price(instance).price
    for family in ("uplift-delta", "general-form", "convex-hull"):
        built = build_family(family, instance, p, x_star)
        loaded = bundles_from_json(bundles_to_json(built))
        assert loaded == built
        # the units of a group hold one bundle object, built or loaded; the
        # loader also gives one object to equal bundles of units on different
        # schedules, which the schedule in the market check's key keeps apart
        for a in built:
            for b in built:
                assert (loaded[a] is loaded[b]) == (repr(built[a]) == repr(built[b]))
                assert loaded[a] is loaded[b] or built[a] is not built[b]
        assert len({id(b) for b in loaded.values()}) <= len({id(b) for b in built.values()})
        want_firsts, want_groups, _ = _unit_reports(instance, p, built, x_star)
        got_firsts, got_groups, _ = _unit_reports(instance, p, loaded, x_star)
        assert (got_firsts, got_groups) == (want_firsts, want_groups)
        assert len(want_firsts) < len(instance.units)


@pytest.mark.parametrize("value", (-math.inf, math.inf, math.nan))
def test_non_finite_constraints_are_not_redundant(value):
    unit = UnitParams("X", 0, 1, 1, 0)
    rho = Const(value)
    with pytest.raises(PreconditionError, match="not redundant"):
        lattice_table(unit, (2.0,), (rho,)).require_redundant()
    with pytest.raises(PreconditionError, match="not redundant"):
        classify_constraint(unit, 2.0, rho)


def test_minus_infinity_constraint_gives_no_nan_uplift():
    # 0 * -inf in the residual used to report value=nan
    with pytest.raises(PreconditionError, match=r"constraint 0 is not finite \(-inf\)"):
        min_uplift(UnitParams("X", 0, 1, 1, 0), 2.0, [Const(float("-inf"))],
                   UnitSchedule((0,), (0.0,)))
