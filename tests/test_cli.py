"""Command-line interface: output goldens, JSON modes, file round trips,
and exit codes."""

import json

import pytest

from uplift_zero.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
