"""Byte-level goldens of `report` on multi-period Scarf markets.

Two instances, written inline: the 16-unit Scarf market at demand
[10, 20], and a 6-unit market of two units of each Scarf type at demand
[10, 20, 15], whose lattices hold about 10,600 points per unit.  For the
families that apply on any horizon (uplift-delta, constant-profit,
general-form) the test runs `report` and `report --json` and compares the
exit code and the sha256 digest of standard output with recorded values.
"""

import contextlib
import hashlib
import io
import json

import pytest

from uplift_zero.cli import main
from uplift_zero.model import _SCARF_TYPES


def _scarf(demand: list[float], count: int | None = None) -> dict:
    types = [dict(spec) if count is None else dict(spec, count=count) for spec in _SCARF_TYPES]
    return {"periods": len(demand), "demand": demand, "unit_types": types}


INSTANCES = {
    "scarf-10-20": _scarf([10.0, 20.0]),
    "six-10-20-15": _scarf([10.0, 20.0, 15.0], count=2),
}

# (instance, family, command) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("scarf-10-20", "uplift-delta", "report"): (0, "4b3996b0e6f3380ee010af82deebc0749da6e569fe47c346d73abb2558ad1aa0"),
    ("scarf-10-20", "uplift-delta", "report --json"): (0, "d59d98ed3de8666ea3e8bae6b4b1d60a84668d50e4fcb61a4f2ff79029e31626"),
    ("scarf-10-20", "constant-profit", "report"): (0, "c08b7dff4ae0f5ad02a348b364fbf20fbb77085a36bb1214c000460cfa3f3fe9"),
    ("scarf-10-20", "constant-profit", "report --json"): (0, "53a30747318590bc795ce64db5a71d6aa22336f2c29011d200af406dbb84648e"),
    ("scarf-10-20", "general-form", "report"): (0, "ed93f605f57bd0e948c01b33286c35698c094f1491cc8a23ba23692547750acc"),
    ("scarf-10-20", "general-form", "report --json"): (0, "50be3099aeee695dc3bc31c93c124cda95166b13a5d73543bdd4139c5c633c97"),
    ("six-10-20-15", "uplift-delta", "report"): (0, "f7f61c94aeb8c59f0da6588d1bbe93910eb6d4daeadd0cfa13a398ef8068b7f7"),
    ("six-10-20-15", "uplift-delta", "report --json"): (0, "f36bb9635b4dac596770e6b680c5c27c39a4143f2eeacc2629d490d354ed9cdd"),
    ("six-10-20-15", "constant-profit", "report"): (0, "93a23c7895427954e427d18e745c95c1cc38dad045f34212ba092e71416cc073"),
    ("six-10-20-15", "constant-profit", "report --json"): (0, "886aa020e5647149e4c489b6756dc9fbdb108452e924114b6e3bec8188bfecd8"),
    ("six-10-20-15", "general-form", "report"): (0, "d2e3471a1c898efa01690ffb77ddc8c2d84a7bc2cdb3ed9d3fa64f483054120c"),
    ("six-10-20-15", "general-form", "report --json"): (0, "611f2e322f57ea9f432d07e991b615d130f6ffe44b6ab41d55ecf913bbc8735a"),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name,family,command", sorted(GOLDEN))
def test_multiperiod_report_matches_golden(name, family, command, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INSTANCES[name]))
    argv = ["report", str(path), "--family", family] + command.split()[1:]
    assert _run(argv) == GOLDEN[(name, family, command)]
