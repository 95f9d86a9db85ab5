"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import contextlib
import filecmp
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from uplift_zero import cli, pricing  # noqa: E402

REPORT_ARGV = ["report", "--family", "convex-hull", "--formulation", "xu",
               "--price-method", "chp", "--json"]
UPLIFT_ARGV = ["uplift", "--price-method", "chp", "--json"]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def scarf10(tmp_path_factory):
    """Scarf demand 10 as a generated instance file, with its references."""
    doc = oracles.scarf_doc((10.0,))
    (path,) = workloads.write_instances(str(tmp_path_factory.mktemp("scarf10")), [doc])
    return doc, path, oracles.references(doc)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_files_and_argv(workload, tmp_path):
    runs = []
    for name in ("a", "b"):
        docs, requests = workloads.generate(workload, 7)
        paths = workloads.write_instances(str(tmp_path / name), docs)
        argvs = workloads.argv_lists(paths, requests)
        runs.append((paths, [[a.replace(str(tmp_path / name), "") for a in argv] for argv in argvs]))
    (paths_a, argv_a), (paths_b, argv_b) = runs
    assert argv_a == argv_b
    assert all(filecmp.cmp(a, b, shallow=False) for a, b in zip(paths_a, paths_b))
    assert workloads.generate(workload, 8)[0] != workloads.generate(workload, 7)[0]


def test_hetero_units_never_share_parameters():
    docs, _ = workloads.generate("hetero-uplift", 3)
    for doc in docs:
        params = [tuple(v for k, v in sorted(u.items()) if k != "id") for u in doc["unit_types"]]
        assert len(set(params)) == len(params)


def test_oracle_self_check_reproduces_known_duals():
    assert oracles.self_check() == []
    exact, price = oracles.exact_hull_price(oracles.scarf_doc((10.0, 20.0, 30.0, 40.0)))
    assert exact == pytest.approx(371.5625, abs=1e-6)
    assert price == pytest.approx([2.0, 2.0, 2.0, 6.3125], abs=1e-9)


def test_checker_accepts_readme_goldens(scarf10):
    doc, path, ref = scarf10
    assert ref["objective"] == pytest.approx(65.0)
    golden = {"objective": 65.0, "price": [6.2857], "dual_value": 62.857142857142854,
              "uplift_before": 2.142857, "uplift_after": 0.0, "verified": True}
    assert checks.check_report(golden, doc, ref) == []

    rc, out = _cli(["uplift", path] + UPLIFT_ARGV[1:])
    problems, gap = checks.check_output(UPLIFT_ARGV, rc, out, doc, ref)
    payload = json.loads(out)
    assert problems == []
    assert payload["price"] == [pytest.approx(6.2857, abs=1e-4)]
    assert payload["total"] == pytest.approx(2.142857, abs=1e-6)
    assert abs(gap) <= 1e-12


def test_tampered_output_is_counted_as_failed(scarf10):
    doc, path, ref = scarf10
    argv = ["report", path] + REPORT_ARGV[1:]
    rc, out = _cli(argv)
    tampered = json.loads(out)
    tampered["objective"] += 1.0
    outputs = [(rc, out, None), (rc, json.dumps(tampered), None),
               (1, "", None), (None, "", "RuntimeError('crash')")]

    def send(j, argv):
        rc, stdout, error = outputs[j]
        if error:
            raise RuntimeError("crash")
        print(stdout, end="")
        return rc

    def check(j, rc, stdout, error):
        return run.check_request([(0, REPORT_ARGV)], [doc], [ref], j, rc, stdout, error)

    records = run.closed_loop(send, [argv], 60.0, check, limit=len(outputs))
    failed = [j for j, r in enumerate(records) if r[2]]
    assert failed == [1, 2, 3]
    assert "RuntimeError('crash')" in records[3][2]
    assert [r[3] for r in records] == [pytest.approx(0.0, abs=1e-12)] * 2 + [None, None]


def test_tail_latency_keeps_ten_requests_above():
    pct, value = run.tail_latency([float(k) for k in range(30)])
    assert value == 19.0 and pct == pytest.approx(100 * 20 / 30)
    assert run.tail_latency([1.0, 2.0]) == (100.0, 2.0)


def test_traced_layers_account_for_the_request_time(scarf10):
    _, path, _ = scarf10
    original = pricing.unit_profit_max
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pricing.unit_profit_max is not original
        rc = tracer.run_request(0, lambda argv: _cli(argv)[0], ["report", path] + REPORT_ARGV[1:])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert pricing.unit_profit_max is original
    m = {name: value for name, (value, _) in tracer.layer_metrics(1).items()}
    layers = ("cli.self_s", "model.load_busy_s", "model.lattice_busy_s", "dispatch.busy_s",
              "pricing.busy_s", "uplift.report_busy_s", "amendments.build_busy_s",
              "amendments.verify_busy_s", "amendments.market_busy_s")
    assert sum(m[k] for k in layers) == pytest.approx(m["cli.request_s"], rel=1e-9)
    assert m["dispatch.profiles"] == 252
    assert m["model.lattice_builds"] > 0 and m["expr.evaluate_calls"] > 0
