"""Expression trees: evaluation, serialization, printing."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from uplift_zero import UnitSchedule, ValidationError
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
    ZERO,
    add,
    delta_of,
    expr_dumps,
    expr_from_dict,
    expr_loads,
    expr_to_text,
    neg,
    scale,
    status_delta_of,
)

ON3 = UnitSchedule((1,), (3.0,))
OFF = UnitSchedule((0,), (0.0,))


class TestEvaluation:
    def test_leaves(self):
        assert Const(2.5)(ON3) == 2.5
        assert Status(0)(ON3) == 1.0
        assert Output(0)(ON3) == 3.0
        assert Status(0)(OFF) == 0.0

    def test_arithmetic(self):
        e = Add((Const(1.0), Mul((Const(2.0), Output(0)))))
        assert e(ON3) == 7.0
        assert Sub(Output(0), Status(0))(ON3) == 2.0
        assert Min((Const(1.0), Output(0)))(ON3) == 1.0
        assert Max((Const(1.0), Output(0)))(ON3) == 3.0
        assert Abs(Sub(Status(0), Output(0)))(ON3) == 2.0

    def test_step_is_strict(self):
        assert Step(Output(0))(ON3) == 1.0
        assert Step(Output(0))(OFF) == 0.0
        assert Step(Const(-1.0))(OFF) == 0.0

    def test_delta_uses_tolerance(self):
        d = Delta(u_ref=(1,), g_ref=(3.0,))
        assert d(ON3) == 1.0
        assert d(UnitSchedule((1,), (3.0 + 1e-9,)), 1e-7) == 1.0
        assert d(UnitSchedule((1,), (3.1,))) == 0.0
        assert d(OFF) == 0.0
        # status-only and output-only markers
        assert Delta(u_ref=(1,))(ON3) == 1.0
        assert Delta(g_ref=(3.0,))(UnitSchedule((1,), (3.0,))) == 1.0

    def test_delta_needs_a_reference(self):
        with pytest.raises(ValidationError):
            Delta()

    def test_multi_period_indexing(self):
        s = UnitSchedule((1, 0), (4.0, 0.0))
        assert Output(1)(s) == 0.0
        assert Status(0)(s) == 1.0
        with pytest.raises(ValidationError):
            Output(2)(s)


class TestHelpers:
    def test_scale_folds_constants(self):
        assert scale(0.0, Output(0)) is ZERO
        assert scale(1.0, Output(0)) == Output(0)
        assert scale(2.0, Const(3.0)) == Const(6.0)
        nested = scale(2.0, scale(3.0, Output(0)))
        assert nested == Mul((Const(6.0), Output(0)))

    def test_neg_folds_sub(self):
        assert neg(Sub(Output(0), Status(0))) == Sub(Status(0), Output(0))
        assert neg(Const(2.0)) == Const(-2.0)

    def test_add_drops_zero_terms(self):
        assert add() is ZERO
        assert add(ZERO, Output(0)) == Output(0)
        assert add(Output(0), Status(0))(ON3) == 4.0

    def test_schedule_markers(self):
        d = delta_of(ON3)
        assert d(ON3) == 1.0 and d(OFF) == 0.0
        s = status_delta_of((1,))
        assert s(ON3) == 1.0 and s(UnitSchedule((1,), (5.0,))) == 1.0 and s(OFF) == 0.0


class TestSerde:
    CASES = [
        Const(1.5),
        Status(0),
        Output(1),
        Add((Const(1.0), Output(0))),
        Sub(Output(0), Const(2.0)),
        Mul((Const(3.0), Status(0))),
        Min((Output(0), Const(5.0))),
        Max((Output(0), Const(5.0), Status(0))),
        Delta(u_ref=(1, 0), g_ref=(3.0, 0.0)),
        Delta(u_ref=(1,)),
        Step(Output(0)),
        Abs(Sub(Output(0), Const(3.0))),
    ]

    @pytest.mark.parametrize("expr", CASES, ids=lambda e: type(e).__name__)
    def test_round_trip(self, expr):
        assert expr_from_dict(json.loads(expr_dumps(expr))) == expr
        assert expr_loads(expr_dumps(expr)) == expr

    def test_bad_documents_rejected(self):
        with pytest.raises(ValidationError):
            expr_from_dict({"op": "quux"})
        with pytest.raises(ValidationError):
            expr_from_dict({"no_op": 1})
        with pytest.raises(ValidationError):
            expr_loads("[]")

    @pytest.mark.parametrize("doc", (
        {"op": "g", "t": -1},
        {"op": "u", "t": -1},
        {"op": "u", "t": 1e400},
        {"op": "const", "value": float("nan")},
        {"op": "const", "value": float("inf")},
        {"op": "const", "value": "-inf"},
        {"op": "delta", "ref": {"g": [float("nan")]}},
        {"op": "delta", "ref": {"u": [1], "g": [3.0, float("inf")]}},
        {"op": "delta", "ref": {"u": [float("inf")]}},
        {"op": "add", "args": [{"op": "g"}, {"op": "const", "value": float("nan")}]},
    ), ids=repr)
    def test_negative_periods_and_non_finite_values_rejected(self, doc):
        with pytest.raises(ValidationError):
            expr_from_dict(doc)

    @pytest.mark.parametrize("text", (
        '{"op": "const", "value": NaN}',
        '{"op": "const", "value": 1e400}',
        '{"op": "delta", "ref": {"g": [-Infinity]}}',
    ))
    def test_json_non_finite_literals_rejected(self, text):
        with pytest.raises(ValidationError, match="finite"):
            expr_loads(text)


class TestText:
    def test_single_period_drops_indices(self):
        e = scale(2.143, Min((Sub(Output(0), scale(2.0, Status(0))),
                              scale(1 / 3, Sub(scale(6.0, Status(0)), Output(0))))))
        assert expr_to_text(e) == "2.143*min[g - 2*u, 0.3333*(6*u - g)]"

    def test_multi_period_keeps_indices(self):
        e = Sub(Output(1), Status(0))
        assert expr_to_text(e) == "g[2] - u[1]"

    def test_integers_render_without_trailing_zeros(self):
        assert expr_to_text(scale(2.0, Output(0))) == "2*g"
        assert expr_to_text(Const(0.1875)) == "0.1875"

    def test_negative_constant_subtraction_folds(self):
        assert expr_to_text(Sub(Output(0), Const(-4.286))) == "g + 4.286"


# random expression strategy: depth-bounded trees over 1-period schedules
def exprs(depth: int = 3):
    leaf = st.one_of(
        st.floats(-5, 5, allow_nan=False).map(lambda v: Const(round(v, 3))),
        st.just(Status(0)),
        st.just(Output(0)),
    )
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda ab: Add(ab)),
        st.tuples(sub, sub).map(lambda ab: Sub(*ab)),
        st.tuples(sub, sub).map(lambda ab: Mul(ab)),
        st.tuples(sub, sub).map(lambda ab: Min(ab)),
        st.tuples(sub, sub).map(lambda ab: Max(ab)),
        sub.map(Abs),
        sub.map(Step),
    )


@st.composite
def schedules(draw):
    u = draw(st.integers(0, 1))
    g = draw(st.floats(0.5, 9.5, allow_nan=False)) if u else 0.0
    return UnitSchedule((u,), (g,))


@settings(max_examples=200, deadline=None)
@given(expr=exprs(), sched=schedules())
def test_serde_preserves_evaluation(expr, sched):
    back = expr_loads(expr_dumps(expr))
    assert back(sched) == pytest.approx(expr(sched), abs=1e-12)
