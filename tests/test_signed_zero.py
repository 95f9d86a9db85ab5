"""Byte-level goldens on units that differ only in the sign of a zero.

Python's == treats -0.0 and 0.0 as equal, so a key that groups units by
plain equality would put a unit with g_min = -0.0 (or startup_cost = -0.0)
in the group of an otherwise identical unit with 0.0.  Both signs reach the
output: dispatch leaves an idle unit at its own g_min, and the uplift-delta
bundle of that unit points at that output.  The instance below pairs such
units, and the digests were recorded before units started sharing work, so
any result handed from one unit of a pair to the other shows here.
"""

import contextlib
import hashlib
import io
import json

import pytest

from uplift_zero.cli import main

DOCUMENT = {
    "periods": 1,
    "demand": [10.0],
    "unit_types": [
        # idle at g_min when online: the tie rule keeps both online, at 0.0 and -0.0
        {"id": "Z-1", "g_min": 0.0, "g_max": 6.0, "marginal_cost": 4.0, "startup_cost": 0.0},
        {"id": "Z-2", "g_min": -0.0, "g_max": 6.0, "marginal_cost": 4.0, "startup_cost": 0.0},
        {"id": "S-1", "g_min": 1.0, "g_max": 5.0, "marginal_cost": 2.0, "startup_cost": 0.0},
        {"id": "S-2", "g_min": 1.0, "g_max": 5.0, "marginal_cost": 2.0, "startup_cost": -0.0},
        {"id": "H-1", "g_min": 0.0, "g_max": 7.0, "marginal_cost": 3.0, "startup_cost": 20.0},
        {"id": "H-2", "g_min": -0.0, "g_max": 7.0, "marginal_cost": 3.0, "startup_cost": 20.0},
    ],
}

FAMILIES = ("uplift-delta", "constant-profit", "general-form", "status-delta",
            "status-profile", "linear-unit", "convex-hull")
OUTPUT_ONLY_FAMILIES = ("uplift-delta", "constant-profit", "general-form", "convex-hull")
METHODS = ("chp", "marginal")

# (command, family, price method) -> (exit code, sha256 of stdout); for
# "bundles", the sha256 of the file that `amend --out` wrote
GOLDEN = {
    ('report --json', 'uplift-delta', 'chp'): (0, 'c798e8902a4c7cb3cba53321c14d5cefec5cc190f605ab063ed2ab22b424a78b'),
    ('report --json', 'constant-profit', 'chp'): (0, '38ff2844c8d5676fa7613034b854e779066252f5eb7012fe7a98af4f15e4c8df'),
    ('report --json', 'general-form', 'chp'): (0, '27be5f103b490c779090af477f39f7eb25dbd4ef80baac750270ce2c86850686'),
    ('report --json', 'status-delta', 'chp'): (0, '0388b59ae6c3ba54451cfd8de569972e16d24cd8e4b2680f13ee63f802542ecd'),
    ('report --json', 'status-profile', 'chp'): (0, '48a8a5eaefec89a28facc018ef2903de4f347a96ec1f1155cddd7c7565448a1d'),
    ('report --json', 'linear-unit', 'chp'): (0, 'a80c73cbbe2aa62c7fdda874886604d86ebde008837914a876265353f8cb57fe'),
    ('report --json', 'convex-hull', 'chp'): (0, 'b5983793cb5c386a072ec09e50d75d61fe3fed39b22bc68613be2e06cf2620ba'),
    ('amend --out', 'uplift-delta', 'chp'): (0, None),
    ('bundles', 'uplift-delta', 'chp'): (0, '555228b422f08c05924a8227da1c5a1622039c893e83b4c425c4c4989d4e59b1'),
    ('verify --json', 'uplift-delta', 'chp'): (0, '854ec5ef1f5e5abf6995fb5a826f0f869d11bab5360e755b2581da1b108176fc'),
    ('amend --out', 'constant-profit', 'chp'): (0, None),
    ('bundles', 'constant-profit', 'chp'): (0, '83b0e1bb4c2f9c7c305938bc5cb943039f48da23fd3db17e5698b6c633b832d3'),
    ('verify --json', 'constant-profit', 'chp'): (0, 'f43b4bdf54242ae31c38039843392d78864834de98fef96042a41feb1424fee3'),
    ('amend --out', 'general-form', 'chp'): (0, None),
    ('bundles', 'general-form', 'chp'): (0, 'c0fbc5e8c4c802b24e2cfafe535cecc3fb71b1cd4b53e3ee5b9ae779227b5b69'),
    ('verify --json', 'general-form', 'chp'): (0, '854ec5ef1f5e5abf6995fb5a826f0f869d11bab5360e755b2581da1b108176fc'),
    ('amend --out', 'convex-hull', 'chp'): (0, None),
    ('bundles', 'convex-hull', 'chp'): (0, 'de6b9f8bc34419a2192f9d7370b4cefede5f857a18f6914c9ea32d526e7ee481'),
    ('verify --json', 'convex-hull', 'chp'): (0, '854ec5ef1f5e5abf6995fb5a826f0f869d11bab5360e755b2581da1b108176fc'),
    ('report --json', 'uplift-delta', 'marginal'): (0, 'c798e8902a4c7cb3cba53321c14d5cefec5cc190f605ab063ed2ab22b424a78b'),
    ('report --json', 'constant-profit', 'marginal'): (0, '38ff2844c8d5676fa7613034b854e779066252f5eb7012fe7a98af4f15e4c8df'),
    ('report --json', 'general-form', 'marginal'): (0, '27be5f103b490c779090af477f39f7eb25dbd4ef80baac750270ce2c86850686'),
    ('report --json', 'status-delta', 'marginal'): (0, '0388b59ae6c3ba54451cfd8de569972e16d24cd8e4b2680f13ee63f802542ecd'),
    ('report --json', 'status-profile', 'marginal'): (0, '48a8a5eaefec89a28facc018ef2903de4f347a96ec1f1155cddd7c7565448a1d'),
    ('report --json', 'linear-unit', 'marginal'): (0, 'a80c73cbbe2aa62c7fdda874886604d86ebde008837914a876265353f8cb57fe'),
    ('report --json', 'convex-hull', 'marginal'): (0, 'b5983793cb5c386a072ec09e50d75d61fe3fed39b22bc68613be2e06cf2620ba'),
    ('amend --out', 'uplift-delta', 'marginal'): (0, None),
    ('bundles', 'uplift-delta', 'marginal'): (0, '555228b422f08c05924a8227da1c5a1622039c893e83b4c425c4c4989d4e59b1'),
    ('verify --json', 'uplift-delta', 'marginal'): (0, '854ec5ef1f5e5abf6995fb5a826f0f869d11bab5360e755b2581da1b108176fc'),
    ('amend --out', 'constant-profit', 'marginal'): (0, None),
    ('bundles', 'constant-profit', 'marginal'): (0, '83b0e1bb4c2f9c7c305938bc5cb943039f48da23fd3db17e5698b6c633b832d3'),
    ('verify --json', 'constant-profit', 'marginal'): (0, 'f43b4bdf54242ae31c38039843392d78864834de98fef96042a41feb1424fee3'),
    ('amend --out', 'general-form', 'marginal'): (0, None),
    ('bundles', 'general-form', 'marginal'): (0, 'c0fbc5e8c4c802b24e2cfafe535cecc3fb71b1cd4b53e3ee5b9ae779227b5b69'),
    ('verify --json', 'general-form', 'marginal'): (0, '854ec5ef1f5e5abf6995fb5a826f0f869d11bab5360e755b2581da1b108176fc'),
    ('amend --out', 'convex-hull', 'marginal'): (0, None),
    ('bundles', 'convex-hull', 'marginal'): (0, 'de6b9f8bc34419a2192f9d7370b4cefede5f857a18f6914c9ea32d526e7ee481'),
    ('verify --json', 'convex-hull', 'marginal'): (0, '854ec5ef1f5e5abf6995fb5a826f0f869d11bab5360e755b2581da1b108176fc'),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def outputs(tmp_path) -> dict:
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(DOCUMENT))
    assert "-0.0" in instance.read_text()
    bundles = tmp_path / "bundles.json"
    got = {}
    for method in METHODS:
        for family in FAMILIES:
            got[("report --json", family, method)] = _run(
                ["report", str(instance), "--family", family,
                 "--price-method", method, "--json"])
        for family in OUTPUT_ONLY_FAMILIES:
            # amend prints the path it wrote to, so only its exit code is pinned
            code, _ = _run(["amend", str(instance), "--family", family, "--formulation", "g",
                            "--price-method", method, "--out", str(bundles)])
            got[("amend --out", family, method)] = (code, None)
            got[("bundles", family, method)] = (
                0, hashlib.sha256(bundles.read_bytes()).hexdigest())
            got[("verify --json", family, method)] = _run(
                ["verify", str(instance), "--price-method", method,
                 "--amendments", str(bundles), "--json"])
    return got


def test_signed_zero_twins_match_golden(tmp_path):
    assert outputs(tmp_path) == GOLDEN

