"""The lattice table: one build per (unit, formulation, anchors, horizon),
shared by every "for all feasible x" check and re-priced per query.  The
market check hands a unit type's table of the grid's points alone on to
the type's next group whose anchor adds no point, so a Scarf report at
demand 40 builds one table per unit type."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import uplift_zero.cli as cli
from uplift_zero import amendments, model, pricing
from uplift_zero.errors import PreconditionError
from uplift_zero.expr import Const, Output, Status, Sub, scale
from uplift_zero.model import UnitParams, UnitSchedule

from conftest import rebind

MT = UnitParams("MT", 2.0, 6.0, 7.0, 0.0)
HT = UnitParams("HT", 0.0, 7.0, 2.0, 30.0)


def test_report_builds_one_lattice_and_one_profit_max_per_table(monkeypatch, capsys):
    counts: Counter = Counter()
    stages: list[str] = []   # innermost stage last: verify runs inside market

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            counts[(stages[-1] if stages else None, kind)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def staged(label, fn):
        def wrapper(*args, **kwargs):
            stages.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                stages.pop()
        return wrapper

    rebind(monkeypatch, model.feasible_set_samples,
           counted("lattice", model.feasible_set_samples))
    rebind(monkeypatch, pricing.unit_profit_max,
           counted("profit_max", pricing.unit_profit_max))
    monkeypatch.setattr(pricing.LatticeTable, "at_price",
                        counted("at_price", pricing.LatticeTable.at_price))
    rebind(monkeypatch, amendments.verify_conditions,
           staged("verify", amendments.verify_conditions))
    rebind(monkeypatch, amendments.check_zero_total_uplift,
           staged("market", amendments.check_zero_total_uplift))
    assert cli.main(["report", "--scarf", "40", "--family", "convex-hull"]) == 0
    capsys.readouterr()
    # 16 units of 3 types, which dispatch leaves in 6 distinct (type,
    # schedule) pairs with 6 distinct bundles; the market check builds one
    # table per type at the market price, with the profit maximum from the
    # instance's plan, and hands it on to the type's other pair; at
    # the five perturbed prices it reads values only, from the status
    # tables and each table's profits there, re-pricing no table
    assert counts[(None, "lattice")] == 0
    # pricing, uplift and the builders read profit maxima as values only
    assert counts[(None, "profit_max")] == 0
    assert counts[("market", "lattice")] == 3
    assert counts[("market", "profit_max")] == 0
    assert counts[("market", "at_price")] == 0
    # the market check verifies on its own tables, not through
    # verify_conditions, which would build a table per call
    assert not [key for key in counts if key[0] == "verify"]


def test_general_form_report_builds_one_lattice_per_table(monkeypatch, capsys):
    # the CLI's gamma is the constant 0, read by its one value: the builder
    # builds no lattice, and verification one per unit type, whose first
    # (type, schedule) pair's table is handed on to its second
    calls = []
    build = model.feasible_set_samples
    rebind(monkeypatch, build, lambda *args: calls.append(args) or build(*args))
    assert cli.main(["report", "--scarf", "40", "--family", "general-form"]) == 0
    assert "total uplift after amendment = 0.0000" in capsys.readouterr().out
    assert len(calls) == 3
    # any other gamma is still checked on the lattice, with a witness point
    star = UnitSchedule((1,), (3.0,))
    with pytest.raises(PreconditionError, match=r"gamma is negative \(.*\) at \{"):
        amendments.build_general_form(MT, (7.0,), star, gamma=Sub(Const(2.0), Output(0)))
    assert len(calls) == 4


def test_rows_hold_each_expression_once_per_point():
    rho = Sub(scale(MT.g_min, Status(0)), Output(0))
    table = pricing.lattice_table(MT, (6.0,), (rho, Const(1.5)))
    assert len(table.values) == len(table.points) == len(table.profits) == len(table.gaps)
    for point, row, profit, gap in zip(table.points, table.values, table.profits, table.gaps):
        assert row == (rho.evaluate(point), 1.5)
        assert profit == pricing.standard_profit(MT, (6.0,), point)
        assert gap == profit - table.profit_max.value
    assert set(table.profit_max.argmax_points) <= set(table.points)


def test_anchor_is_among_the_points():
    star = UnitSchedule((1,), (3.3,))
    table = pricing.lattice_table(MT, (7.0,), anchors=(star,))
    assert star in table.points


def test_anchor_next_to_a_box_end_keeps_the_box_end():
    # an anchor output one ulp inside g_max used to replace the g_max point,
    # so the profit argmax was not on the lattice
    unit = UnitParams("U", 0.0, 6.0, 0.0, 0.0)
    star = UnitSchedule((1,), (math.nextafter(6.0, 0.0),))
    table = pricing.lattice_table(unit, (0.0,), anchors=(star,))
    assert star in table.points
    assert set(table.profit_max.argmax_points) <= set(table.points)


def test_outputs_closer_than_1e_11_keep_keys_of_their_own():
    # 0.4200000000004 and 0.4200000000006 round to the 12-decimal keys 0.42
    # and 0.420000000001, so both are lattice outputs although they are
    # 2e-13 apart; 0.42000000000041 shares the first one's key and is not
    unit = UnitParams("U", 0.0, 1.0, 1.0, 0.0)
    lo, hi, same = 0.4200000000004, 0.4200000000006, 0.42000000000041
    anchors = [UnitSchedule((1,), (g,)) for g in (lo, hi, same)]
    outputs = [p.g[0] for p in model.feasible_set_samples(unit, anchors=anchors) if p.u == (1,)]
    assert lo in outputs and hi in outputs and same not in outputs


def test_require_redundant_names_the_first_positive_constraint():
    ok = Sub(Output(0), scale(HT.g_max, Status(0)))      # g - u g_max <= 0
    bad = Sub(Output(0), Const(3.0))                       # positive above g = 3
    table = pricing.lattice_table(HT, (4.0,), (ok, bad))
    with pytest.raises(PreconditionError, match=r"unit HT: constraint 1 is positive .* not redundant"):
        table.require_redundant()
    pricing.lattice_table(HT, (4.0,), (ok,)).require_redundant()


def test_membership_tolerance():
    # -u <= 0: online points may be charged up to their loss against the
    # offline maximum; online at g_max loses 30 - 7 = 23 at price 3
    rho = scale(-1.0, Status(0))
    table = pricing.lattice_table(HT, (3.0,), (rho,))
    assert table.profit_max.value == 0.0
    assert table.is_member((23.0,), 1e-6)
    assert not table.is_member((23.0 + 1e-3,), 1e-6)
    assert table.is_member((23.0 + 1e-3,), 1e-2)
    # violations come in lattice order: every online point losing less than 24
    losing_less = [k for k, point in enumerate(table.points)
                   if point.u == (1,) and 30.0 - point.g[0] < 24.0]
    assert list(table.gap_violations((24.0,), 1e-6)) == losing_less


@st.composite
def _unit_anchor_prices(draw):
    g_max = draw(st.sampled_from((1.0, 6.0, 16.0)))
    g_min = draw(st.sampled_from((0.0, 0.25 * g_max, g_max)))
    unit = UnitParams(
        "U", g_min, g_max,
        marginal_cost=draw(st.sampled_from((0.0, 2.0, 3.5, 7.0))),
        startup_cost=draw(st.sampled_from((0.0, 4.0, 53.0))),
        initial_status=draw(st.sampled_from((0, 1))),
        min_up=draw(st.integers(0, 2)),
        min_down=draw(st.integers(0, 2)),
    )
    periods = draw(st.sampled_from((1, 2)))
    u = draw(st.sampled_from(model.feasible_status_vectors(unit, periods)))
    g = tuple(
        draw(st.floats(g_min, g_max, allow_nan=False)) if u_t else 0.0 for u_t in u
    )
    price = st.tuples(*[st.floats(-5.0, 15.0, allow_nan=False)] * periods)
    return unit, UnitSchedule(u, g), draw(price), draw(price)


@settings(max_examples=150, deadline=None)
@given(_unit_anchor_prices())
def test_repricing_equals_a_table_built_at_the_new_price(case):
    unit, anchor, p, q = case
    exprs = (Sub(Output(0), Const(0.5 * unit.g_max)), scale(-1.0, Status(0)))
    repriced = pricing.lattice_table(unit, p, exprs, anchors=(anchor,)).at_price(q)
    built = pricing.lattice_table(unit, q, exprs, anchors=(anchor,))
    assert repriced.points == built.points
    assert repriced.profits == built.profits
    assert repriced.gaps == built.gaps
    assert repriced.values == built.values
    assert repriced.profit_max == built.profit_max
    # the profit argmax points are box corners, already on every grid
    assert set(pricing.unit_profit_max(unit, q, len(q)).argmax_points) <= set(built.points)
