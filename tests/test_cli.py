"""Command-line interface: output goldens, JSON modes, file round trips,
and exit codes."""

import dataclasses
import gc
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from uplift_zero import amendments, cli
from uplift_zero.cli import main
from uplift_zero.expr import scale
from uplift_zero.model import Formulation, instance_to_dict, scarf_instance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def doubled_hull(monkeypatch):
    """The convex-hull builder, with its amendment and multipliers doubled."""
    build = amendments.FAMILIES["convex-hull"]

    def doubled(*args):
        b = build(*args)
        return dataclasses.replace(b, amendment=scale(2.0, b.amendment),
                                   multipliers=tuple(2.0 * m for m in b.multipliers))

    monkeypatch.setitem(amendments.FAMILIES, "convex-hull", doubled)


def scarf10_file(tmp_path, report_digits):
    doc = instance_to_dict(scarf_instance(10.0))
    doc["tolerances"]["report_digits"] = report_digits
    path = tmp_path / "scarf10.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestDispatch:
    def test_text_golden(self, capsys):
        code, out, _ = run(capsys, "dispatch", "--scarf", "10")
        assert code == 0
        assert out.splitlines() == [
            "f* = 65.0000",
            "  High Tech-1: online, g = 7.0000",
            "  Med Tech-1: online, g = 3.0000",
        ]

    def test_demand_40_objective(self, capsys):
        code, out, _ = run(capsys, "dispatch", "--scarf", "40")
        assert code == 0
        assert out.splitlines()[0] == "f* = 254.0000"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dispatch", "--scarf", "10", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == pytest.approx(65.0)
        assert doc["schedule"]["Med Tech-1"]["g"] == [3.0]

    def test_out_file_round_trips(self, capsys, tmp_path):
        target = tmp_path / "sched.json"
        code, _, _ = run(capsys, "dispatch", "--scarf", "10", "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["High Tech-1"]["u"] == [1]

    def test_instance_file_input(self, capsys, tmp_path, scarf10):
        from uplift_zero import instance_to_dict

        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_to_dict(scarf10.instance)))
        code, out, _ = run(capsys, "dispatch", str(path))
        assert code == 0
        assert out.startswith("f* = 65.0000")


class TestPrice:
    def test_chp_demand_10(self, capsys):
        code, out, _ = run(capsys, "price", "--scarf", "10", "--method", "chp")
        assert code == 0
        assert out.splitlines() == [
            "price (chp) = 6.2857",
            "dual value = 62.8571",
        ]

    def test_chp_demand_40(self, capsys):
        code, out, _ = run(capsys, "price", "--scarf", "40")
        assert code == 0
        assert "price (chp) = 6.3125" in out
        assert "dual value = 251.5625" in out

    def test_marginal(self, capsys):
        code, out, _ = run(capsys, "price", "--scarf", "10", "--method", "marginal")
        assert code == 0
        assert out.splitlines()[0] == "price (marginal) = 7.0000"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "price", "--scarf", "40", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["price"] == [6.3125]
        assert doc["dual_value"] == pytest.approx(251.5625)


class TestUplift:
    def test_text_golden_demand_40(self, capsys):
        code, out, _ = run(capsys, "uplift", "--scarf", "40")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "price (chp) = 6.3125"
        assert "  Med Tech-1       -2.0625      0.0000      2.0625" in lines
        assert "  High Tech-4       0.0000      0.1875      0.1875" in lines
        assert lines[-1] == "total uplift = 2.438"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "uplift", "--scarf", "10", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "unit_id,pi_star,pi_plus,uplift"
        assert len(lines) == 17
        total = sum(float(l.split(",")[-1]) for l in lines[1:])
        assert total == pytest.approx(15.0 / 7.0)

    def test_json_total(self, capsys):
        code, out, _ = run(capsys, "uplift", "--scarf", "10", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == pytest.approx(15.0 / 7.0)


class TestAmend:
    def test_text_golden(self, capsys):
        code, out, _ = run(capsys, "amend", "--scarf", "10", "--family", "convex-hull")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family convex-hull (xu) at price 6.2857"
        assert "  N[Med Tech-1] = 2.143*min[g - 2*u, 0.3333*(6*u - g)]" in lines
        assert "verification: all conditions passed" in lines

    def test_output_formulation(self, capsys):
        code, out, _ = run(
            capsys, "amend", "--scarf", "10", "--family", "convex-hull",
            "--formulation", "g",
        )
        assert code == 0
        assert "family convex-hull (g) at price 6.2857" in out

    def test_linear_unit_demand_40(self, capsys):
        code, out, _ = run(capsys, "amend", "--scarf", "40", "--family", "linear-unit")
        assert code == 0
        lines = out.splitlines()
        assert "  N[High Tech-4] = 0.1875*(1 - u)" in lines
        assert "  N[Med Tech-1] = 1.031*(g - 2*u) + 0.3438*(6*u - g)" in lines

    def test_amend_verify_round_trip(self, capsys, tmp_path):
        bundle_file = tmp_path / "bundles.json"
        code, _, _ = run(
            capsys, "amend", "--scarf", "40", "--family", "convex-hull",
            "--out", str(bundle_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify", "--scarf", "40", "--amendments", str(bundle_file)
        )
        assert code == 0
        lines = out.splitlines()
        assert "  market: ok" in lines
        assert all(": ok" in l for l in lines if l.startswith("  "))

    def test_failed_verification_exits_one(self, capsys, doubled_hull):
        code, out, _ = run(capsys, "amend", "--scarf", "10")
        assert code == 1
        assert "  N[Med Tech-1] = 4.286*min[g - 2*u, 0.3333*(6*u - g)]" in out.splitlines()
        assert out.splitlines()[-1] == "verification: FAILED"

    def test_amendment_text_uses_report_digits(self, capsys, tmp_path):
        code, out, _ = run(capsys, "amend", scarf10_file(tmp_path, 6))
        assert code == 0
        assert out.splitlines()[:2] == [
            "family convex-hull (xu) at price 6.285714",
            "  N[Med Tech-1] = 2.14286*min[g - 2*u, 0.333333*(6*u - g)]",
        ]

    def test_json_bundles_parse(self, capsys):
        code, out, _ = run(
            capsys, "amend", "--scarf", "10", "--family", "uplift-delta", "--json"
        )
        assert code == 0
        from uplift_zero import bundles_from_json

        bundles = bundles_from_json(json.loads(out)["bundles"])
        assert bundles["Med Tech-1"].multipliers == pytest.approx((15.0 / 7.0,))


class TestReport:
    def test_demand_10_golden(self, capsys):
        code, out, _ = run(capsys, "report", "--scarf", "10", "--family", "convex-hull")
        assert code == 0
        assert out.splitlines() == [
            "unit type   online  output",
            "Smokestack  0 of 6  -",
            "High Tech   1 of 5  7.0000",
            "Med Tech    1 of 5  3.0000",
            "f* = 65.0000",
            "price (chp) = 6.2857",
            "dual value = 62.8571",
            "total uplift before amendment = 2.143",
            "amendments (family convex-hull, formulation xu):",
            "  N[Med Tech-1] = 2.143*min[g - 2*u, 0.3333*(6*u - g)]",
            "verification: all conditions passed",
            "total uplift after amendment = 0.0000",
        ]

    def test_failed_verification_lists_failures(self, capsys, doubled_hull):
        code, out, _ = run(capsys, "report", "--scarf", "10")
        assert code == 1
        lines = out.splitlines()
        at = lines.index("verification: FAILED")
        fails = lines[at + 1:-1]
        assert fails and all(l.startswith("  FAIL ") for l in fails)
        assert "  FAIL Med Tech-1: zero-uplift-at-dispatch" in fails
        assert "  FAIL market: amended-dual-at-price" in fails
        assert lines[-1].startswith("total uplift after amendment = ")

    def test_amendment_text_uses_report_digits(self, capsys, tmp_path):
        code, out, _ = run(capsys, "report", scarf10_file(tmp_path, 6))
        assert code == 0
        lines = out.splitlines()
        assert "  N[Med Tech-1] = 2.14286*min[g - 2*u, 0.333333*(6*u - g)]" in lines
        assert "total uplift after amendment = 0.000000" in lines

    def test_idle_zero_minimum_unit_output_only(self, capsys, tmp_path):
        # a unit with g_min = 0 and no startup cost, committed at zero output
        # at a price above its marginal cost: its output-only hull amendment
        # pays its lost profit at that zero output
        path = tmp_path / "idle.json"
        path.write_text(json.dumps({"periods": 1, "demand": [5.0], "unit_types": [
            {"id": "B", "g_min": 0.0, "g_max": 10.0, "marginal_cost": 1.0, "startup_cost": 50.0},
            {"id": "C", "g_min": 0.0, "g_max": 1.0, "marginal_cost": 3.0, "startup_cost": 0.0},
        ]}))
        code, out, _ = run(capsys, "report", str(path), "--family", "convex-hull",
                           "--formulation", "g")
        assert code == 0
        lines = out.splitlines()
        assert "  N[C] = 3 - 3*g" in lines
        assert "verification: all conditions passed" in lines
        assert lines[-1] == "total uplift after amendment = 0.0000"

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "report", "--scarf", "40", "--family", "linear-unit")
        _, second, _ = run(capsys, "report", "--scarf", "40", "--family", "linear-unit")
        assert first == second


class TestExitCodes:
    def test_precondition_failure_is_one(self, capsys):
        code, _, err = run(capsys, "amend", "--scarf", "10", "--family", "status-delta")
        assert code == 1
        assert "use marginal pricing" in err

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "dispatch", "/tmp/uplift-zero-no-such-file.json")
        assert code == 2
        assert "cannot read instance file" in err

    def test_scarf_and_path_conflict_is_two(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        code, _, err = run(capsys, "dispatch", "--scarf", "10", str(path))
        assert code == 2
        assert "not both" in err

    def test_no_instance_is_two(self, capsys):
        code, _, err = run(capsys, "dispatch")
        assert code == 2

    def test_unknown_family_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["amend", "--scarf", "10", "--family", "magic"])
        assert exc.value.code == 2

    def test_invalid_instance_payload_is_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"periods": 1, "demand": [5.0]}))
        code, _, err = run(capsys, "dispatch", str(path))
        assert code == 2

    def test_demand_above_capacity_is_validation(self, capsys, tmp_path):
        # statically detectable: rejected at load with exit 2
        path = tmp_path / "over.json"
        path.write_text(
            json.dumps(
                {
                    "periods": 1,
                    "demand": [100.0],
                    "unit_types": [
                        {
                            "id": "a",
                            "g_min": 0.0,
                            "g_max": 4.0,
                            "marginal_cost": 1.0,
                            "startup_cost": 0.0,
                        }
                    ],
                }
            )
        )
        code, _, err = run(capsys, "dispatch", str(path))
        assert code == 2
        assert "exceeds total capacity" in err

    def test_unreachable_demand_is_one(self, capsys, tmp_path):
        # passes validation but no commitment covers it: solver exit 1
        path = tmp_path / "inf.json"
        path.write_text(
            json.dumps(
                {
                    "periods": 1,
                    "demand": [1.0],
                    "unit_types": [
                        {
                            "id": "a",
                            "g_min": 2.0,
                            "g_max": 4.0,
                            "marginal_cost": 1.0,
                            "startup_cost": 0.0,
                        }
                    ],
                }
            )
        )
        code, _, err = run(capsys, "dispatch", str(path))
        assert code == 1
        assert "no feasible commitment" in err

    @pytest.mark.parametrize(
        "field,value",
        (("demand", "[NaN]"), ("marginal_cost", "NaN"), ("startup_cost", "Infinity")),
    )
    def test_non_finite_input_is_two(self, capsys, tmp_path, field, value):
        fields = {
            "demand": "[5.0]", "g_min": "0.0", "g_max": "10.0",
            "marginal_cost": "1.0", "startup_cost": "3.0",
        }
        fields[field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(
            '{"periods": 1, "demand": %(demand)s, "unit_types": [{"id": "a", '
            '"g_min": %(g_min)s, "g_max": %(g_max)s, "marginal_cost": %(marginal_cost)s, '
            '"startup_cost": %(startup_cost)s}]}' % fields
        )
        code, out, err = run(capsys, "report", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    _INSTANCE = (
        '{"periods": %(periods)s, "demand": [5.0], "unit_types": [{"name": "a", '
        '"count": %(count)s, "g_min": 0.0, "g_max": 10.0, "marginal_cost": 1.0, '
        '"startup_cost": 3.0, "min_up": %(min_up)s, "min_down": %(min_down)s, '
        '"initial_status": %(initial_status)s}], '
        '"tolerances": {"eq_tol": %(eq_tol)s, "report_digits": %(report_digits)s}}'
    )
    _FIELDS = {
        "periods": "1", "count": "2", "min_up": "0", "min_down": "0",
        "initial_status": "0", "eq_tol": "1e-7", "report_digits": "4",
    }

    @pytest.mark.parametrize(
        "field,value",
        (
            # 1e400 reads as infinity
            ("periods", "1e400"), ("min_up", "1e400"), ("report_digits", "1e400"),
            ("eq_tol", '"x"'), ("report_digits", '"x"'),
            # a count must not be truncated: 1.5 used to make one unit
            ("count", "1.5"), ("periods", "1.5"), ("min_up", "1.5"),
            ("min_down", "0.5"), ("initial_status", "0.5"), ("report_digits", "2.5"),
            ("eq_tol", "null"),
            # a JSON boolean is not a count: true used to make one unit
            ("count", "true"),
        ),
    )
    def test_malformed_integer_or_tolerance_is_two(self, capsys, tmp_path, field, value):
        path = tmp_path / "malformed.json"
        path.write_text(self._INSTANCE % {**self._FIELDS, field: value})
        code, out, err = run(capsys, "report", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unit_types_not_a_list_is_two(self, capsys, tmp_path):
        path = tmp_path / "malformed.json"
        path.write_text('{"periods": 1, "demand": [5.0], "unit_types": 5}')
        code, out, err = run(capsys, "report", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: unit_types must be a list\n"

    def test_integral_floats_are_integers(self, capsys, tmp_path):
        outputs = []
        for fields in (self._FIELDS, {**self._FIELDS, "periods": "1.0", "count": "2.0",
                                      "min_up": "0.0", "report_digits": "4.0"}):
            path = tmp_path / "instance.json"
            path.write_text(self._INSTANCE % fields)
            outputs.append(run(capsys, "report", str(path)))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def _bundle_file(self, capsys, tmp_path, edit):
        path = tmp_path / "bundles.json"
        code, _, _ = run(capsys, "amend", "--scarf", "10", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    def _assert_one_error_line(self, code, out, err):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nan_multipliers_are_two(self, capsys, tmp_path):
        # every multiplier NaN used to pass the market check and exit 1
        def edit(payload):
            for bundle in payload["bundles"].values():
                bundle["mu"] = [float("nan")] * len(bundle["mu"])

        path = self._bundle_file(capsys, tmp_path, edit)
        code, out, err = run(capsys, "verify", "--scarf", "10", "--amendments", str(path))
        self._assert_one_error_line(code, out, err)
        assert "multipliers must be finite" in err

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")))
    def test_non_finite_bundle_price_is_two(self, capsys, tmp_path, value):
        def edit(payload):
            payload["price"] = [value]

        path = self._bundle_file(capsys, tmp_path, edit)
        code, out, err = run(capsys, "verify", "--scarf", "10", "--amendments", str(path))
        self._assert_one_error_line(code, out, err)
        assert "price must be finite" in err

    @pytest.mark.parametrize("amendment", (
        '{"op": "g", "t": -1}',
        '{"op": "u", "t": -1}',
        '{"op": "const", "value": NaN}',
        '{"op": "const", "value": 1e400}',
        '{"op": "mul", "args": [{"op": "const", "value": Infinity}, {"op": "u"}]}',
        '{"op": "delta", "ref": {"u": [1], "g": [NaN]}}',
        # a fractional period or status used to be truncated
        '{"op": "u", "t": 0.5}',
        '{"op": "delta", "ref": {"u": [0.5]}}',
        '{"op": "delta", "ref": {"u": [2]}}',
    ))
    def test_malformed_amendment_expression_is_two(self, capsys, tmp_path, amendment):
        # a negative period used to read the last period and exit 1; a NaN
        # delta reference matched every output
        def edit(payload):
            payload["bundles"]["Med Tech-1"]["N"] = "__N__"

        path = self._bundle_file(capsys, tmp_path, edit)
        path.write_text(path.read_text().replace('"__N__"', amendment))
        code, out, err = run(capsys, "verify", "--scarf", "10", "--amendments", str(path))
        self._assert_one_error_line(code, out, err)

    @pytest.mark.parametrize("family,old,new", (
        ("linear-unit", '"t": 0', '"t": 0.5'),
        ("status-delta", '"u": [1]', '"u": [0.5]'),
        ("status-delta", '"u": [1]', '"u": [1.5]'),
    ))
    def test_fractional_period_or_status_in_bundle_file_is_two(
        self, capsys, tmp_path, family, old, new
    ):
        # "t": 0.5 used to read as period 0 and "u": [1.5] as status 1, and
        # the rewritten file verified with exit 0
        path = tmp_path / "bundles.json"
        code, _, _ = run(capsys, "amend", "--scarf", "10", "--family", family,
                         "--price-method", "marginal", "--out", str(path))
        assert code == 0
        text = json.dumps(json.loads(path.read_text()))   # one line, lists inline
        assert old in text
        path.write_text(text.replace(old, new))
        code, out, err = run(capsys, "verify", "--scarf", "10", "--price-method", "marginal",
                             "--amendments", str(path))
        self._assert_one_error_line(code, out, err)

    def test_bundle_file_missing_a_unit_is_two(self, capsys, tmp_path):
        def edit(payload):
            del payload["bundles"]["High Tech-3"]

        path = self._bundle_file(capsys, tmp_path, edit)
        code, out, err = run(capsys, "verify", "--scarf", "10", "--amendments", str(path))
        self._assert_one_error_line(code, out, err)
        assert "no bundle for units: High Tech-3" in err

    def test_bundle_file_that_is_not_an_object_is_two(self, capsys, tmp_path):
        path = tmp_path / "bundles.json"
        path.write_text("5")
        code, out, err = run(capsys, "verify", "--scarf", "10", "--amendments", str(path))
        self._assert_one_error_line(code, out, err)
        assert "needs 'price' and 'bundles'" in err

    def test_malformed_bundle_price_is_two(self, capsys, tmp_path):
        def edit(payload):
            payload["price"] = ["cheap"]

        path = self._bundle_file(capsys, tmp_path, edit)
        code, out, err = run(capsys, "verify", "--scarf", "10", "--amendments", str(path))
        self._assert_one_error_line(code, out, err)


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((-0.0, 5e-324, 1e16, 1e300, math.nan, math.inf, -math.inf)),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, st.text(), st.sampled_from(Formulation),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=25,
)


class TestJsonWriter:
    """--json output is json.dumps(obj, indent=2, sort_keys=True), written
    by the CLI's own writer."""

    @settings(max_examples=400, deadline=None)
    @given(_TREES)
    def test_equals_json_dumps(self, tree):
        assert cli._json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize("bad", (object(), [1, {1, 2}], {1: 2}))
    def test_unserializable_is_type_error(self, bad):
        with pytest.raises(TypeError):
            cli._json_text(bad)


def test_report_json_leaves_no_cyclic_garbage(capsys):
    # cycles wait for the collector, and a long run of reports piles them up
    gc.collect()
    gc.disable()
    try:
        assert main(["report", "--scarf", "40", "--family", "general-form", "--json"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


class TestMalformedInput:
    """Every malformed instance, output path or bundle file exits 2 with one
    `error:` line and nothing on stdout."""

    _UNIT = {"id": "a", "g_min": 0.0, "g_max": 10.0, "marginal_cost": 1.0, "startup_cost": 0.0}

    @staticmethod
    def _assert_one_error_line(code, out, err, message):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "doc,message",
        (
            ({"periods": 0, "demand": [], "unit_types": [_UNIT]}, "periods must be >= 1"),
            ({"periods": 1, "demand": [-1.0], "unit_types": [_UNIT]},
             "demand must be non-negative"),
            ({"periods": 1, "demand": [1.0], "unit_types": []}, "at least one unit"),
            ({"periods": 1, "demand": [1.0], "unit_types": [
                {"name": "a", "count": 0, "g_min": 0.0, "g_max": 10.0,
                 "marginal_cost": 1.0, "startup_cost": 0.0}]}, "count must be >= 1"),
            ([{"periods": 1}], "must be a JSON object"),
            ({"periods": 1, "demand": [1.0], "unit_types": [_UNIT], "tolerances": [1e-7]},
             "tolerances must be an object"),
        ),
    )
    def test_malformed_instance_is_two(self, capsys, tmp_path, doc, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        self._assert_one_error_line(*run(capsys, "report", str(path)), message)

    @pytest.mark.parametrize("command", ("dispatch", "amend"))
    def test_out_into_missing_directory_is_two(self, capsys, tmp_path, command):
        target = tmp_path / "no-such-directory" / "out.json"
        code, out, err = run(capsys, command, "--scarf", "10", "--out", str(target))
        self._assert_one_error_line(code, out, err, "No such file or directory")

    def test_missing_amendments_file_is_two(self, capsys, tmp_path):
        path = tmp_path / "no-such-bundles.json"
        code, out, err = run(capsys, "verify", "--scarf", "10", "--amendments", str(path))
        self._assert_one_error_line(code, out, err, "cannot read amendments file")

    def test_amendments_file_that_is_not_json_is_two(self, capsys, tmp_path):
        path = tmp_path / "bundles.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "verify", "--scarf", "10", "--amendments", str(path))
        self._assert_one_error_line(code, out, err, "amendments file is not valid JSON")


class TestBoxNoWiderThanEqTol:
    """A unit dispatched at g_max of a box narrower than eq_tol is within
    eq_tol of both ends; the single-period families place it at the max
    instead of dividing by g_max - g* = 0."""

    @pytest.mark.parametrize(
        "args",
        (
            ("--family", "linear-unit"),
            ("--family", "linear-unit", "--price-method", "marginal"),
            ("--family", "convex-hull"),
            ("--family", "convex-hull", "--price-method", "marginal"),
            ("--family", "convex-hull", "--formulation", "g"),
        ),
    )
    def test_report_verifies(self, capsys, tmp_path, args):
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"periods": 1, "demand": [1.0000001], "unit_types": [
            {"id": "N", "g_min": 1.0, "g_max": 1.0000001, "marginal_cost": 1.0,
             "startup_cost": 0.0}]}))
        code, out, err = run(capsys, "report", str(path), *args)
        assert (code, err) == (0, "")
        assert "verification: all conditions passed" in out


class TestLongHorizon:
    """Status vectors are counted before any is listed, so a horizon with
    more of them than the budget is rejected at once by every command.  A
    horizon within the budget whose table is still large (46,368 vectors at
    T = 22 with minimum up and down times of 2) takes 4.9 to 26 s; it is
    expected to fail until the price search and dispatch stop pricing every
    status vector.  No table of more than 10,000 vectors is listed here, so
    every case ends quickly."""

    @pytest.mark.parametrize("command", ("dispatch", "price", "uplift", "report"))
    @pytest.mark.parametrize("periods,minimum", (
        (22, 0), (40, 0), (40, 2),
        pytest.param(22, 2, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="46,368 status vectors fit the budget and are priced one by one")),
    ))
    def test_rejected_before_enumerating(self, capsys, monkeypatch, tmp_path,
                                         command, periods, minimum):
        from conftest import rebind
        from uplift_zero import model

        listing = model.feasible_status_vectors

        def bounded(unit, n):
            vectors = listing(unit, n)
            assert len(vectors) <= 10_000, "a long horizon's status vectors are listed"
            return vectors

        rebind(monkeypatch, listing, bounded)
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"periods": periods, "demand": [1.0] * periods, "unit_types": [
            {"id": "A", "g_min": 0, "g_max": 10, "marginal_cost": 1, "startup_cost": 0,
             "min_up": minimum, "min_down": minimum}]}))
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceed the supported budget of 1000000" in err
