"""Byte-level goldens of the CLI on the built-in Scarf scenarios.

For the 13 family/formulation/price combinations the benchmark's
`scarf-t1` workload cycles through, at demand 10 and 40, the test runs
`report`, `report --json`, and `verify --json` on the bundles that
`amend --out` writes.  It compares each exit code and the sha256 digest of
each standard output against recorded values, so any change to a printed
byte or a verdict shows here.  A few bundles are also verified with their multipliers
zeroed or doubled, so that failing checks and their witnesses are pinned
too.

A second set pins `dispatch --json` and `uplift --json` (chp and
marginal prices) on heterogeneous instances built below from a fixed
seed: units that share no parameters, some with g_min = 0, min up/down
times of 2 or an initial online status, over one to three periods.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from uplift_zero.cli import main
from uplift_zero.model import UnitParams, feasible_status_vectors

COMBOS = (
    ("uplift-delta", "xu", "chp"),
    ("constant-profit", "xu", "chp"),
    ("general-form", "xu", "chp"),
    ("linear-unit", "xu", "chp"),
    ("convex-hull", "xu", "chp"),
    ("uplift-delta", "g", "chp"),
    ("constant-profit", "g", "chp"),
    ("general-form", "g", "chp"),
    ("convex-hull", "g", "chp"),
    ("status-delta", "xu", "marginal"),
    ("status-profile", "xu", "marginal"),
    ("linear-unit", "xu", "marginal"),
    ("convex-hull", "xu", "marginal"),
)

# (demand, family, formulation, price method) ->
#   {command: (exit code, sha256 of stdout)}
GOLDEN = {
    ('10', 'uplift-delta', 'xu', 'chp'): {
        'report': (0, 'b995c345994c597a0a050abc0c5f812900ee12f1cab488f7be4632fe6e7bd55b'),
        'report --json': (0, 'fa3bb940e3d24bd2defccd9c37b6d11e2e0cbcaebb210c983dfb1d55089052c4'),
        'amend --out': (0, None),
        'verify --json': (0, '6de6b357515efca3176fe2dd6b860059f33318da05e763805c93725008928680'),
    },
    ('10', 'constant-profit', 'xu', 'chp'): {
        'report': (0, '2773d476e74a9d20d1c802d91f188745b129a74b84e937b35353daa1d7c098c9'),
        'report --json': (0, 'b6acf4994eb887bcaaf8ec940b5e771b916e15ae8fb21ad22010c4f34511423d'),
        'amend --out': (0, None),
        'verify --json': (0, 'a3a673fcdfea9fecf4d4ef48a928de27c72b50c7be3efe9a03cfefd651196bb4'),
    },
    ('10', 'general-form', 'xu', 'chp'): {
        'report': (0, '477966a632437eb013bc1d1334bb4f61cf4006556bcc1974004461161f2da0bf'),
        'report --json': (0, 'd81f5ff6751de4c8c3e8c736df25787189267610aedbd1a8df9d4a9c9cda9cb1'),
        'amend --out': (0, None),
        'verify --json': (0, '6de6b357515efca3176fe2dd6b860059f33318da05e763805c93725008928680'),
    },
    ('10', 'linear-unit', 'xu', 'chp'): {
        'report': (0, 'bd54917192978cf9ce1e6bd11ee3852bce8b0046e1f25a15bf0e6dcd716ff8e5'),
        'report --json': (0, '14a6f7b8a92b9f2b4519c83ed74b93f056f857e37e78ae80a74d633acf425af9'),
        'amend --out': (0, None),
        'verify --json': (0, '7ff931d0faf871d8df72ae046808f0ef1b4da9c1a9a2acd8fbf000bf3045d328'),
    },
    ('10', 'convex-hull', 'xu', 'chp'): {
        'report': (0, '3e31a49638ade829431e47b9cd7cdd5f3802119d709179ff279224025c7a84c4'),
        'report --json': (0, '4e2df996904d014afea9589cb1aadc3896f06fe6aa67eb99bf03545611b8e890'),
        'amend --out': (0, None),
        'verify --json': (0, '6de6b357515efca3176fe2dd6b860059f33318da05e763805c93725008928680'),
    },
    ('10', 'uplift-delta', 'g', 'chp'): {
        'report': (0, 'b55561c2e6c6b90cedd6e08dcbd06de6e0ce671f816a8705ace6d8375dddee21'),
        'report --json': (0, '008b7645ac81434ed9f08c7c6ad8854c7c3e85e8d4e0210da5f9b79c4eee45d4'),
        'amend --out': (0, None),
        'verify --json': (0, '6de6b357515efca3176fe2dd6b860059f33318da05e763805c93725008928680'),
    },
    ('10', 'constant-profit', 'g', 'chp'): {
        'report': (0, '35f2c328859d31845fb65eea67f93388ade44824d61e0a3817d1b40ae0c4d631'),
        'report --json': (0, 'e19331310ad752e04b10fb5a9952f8b2d057e01bb18200e73a5be7cb1bcf60cc'),
        'amend --out': (0, None),
        'verify --json': (0, 'a3a673fcdfea9fecf4d4ef48a928de27c72b50c7be3efe9a03cfefd651196bb4'),
    },
    ('10', 'general-form', 'g', 'chp'): {
        'report': (0, '32f82dce189d1a7d8a9598d534a7a647d6c55866fe2a8b6b755b718300f9b197'),
        'report --json': (0, '53d9120ca8f6c28abe96c8f2c9d098397ed0ff8e0c19a55f169049b3661f5d8c'),
        'amend --out': (0, None),
        'verify --json': (0, '6de6b357515efca3176fe2dd6b860059f33318da05e763805c93725008928680'),
    },
    ('10', 'convex-hull', 'g', 'chp'): {
        'report': (0, 'bcff8304e169ac2cc12659df54472eaf3105a9e1b1b652ed05468a3a8a9dbb12'),
        'report --json': (0, 'bf4f60ddac9b44741176c9e96156f8e713629ee68039c6cd96f9ba3274336343'),
        'amend --out': (0, None),
        'verify --json': (0, 'bebb6c6d92a61ee901844610e3db99e0721fb909e1735dab42c98e11669ff93f'),
    },
    ('10', 'status-delta', 'xu', 'marginal'): {
        'report': (0, 'a5d3d2e676d03271fd7b5fdb48da6e5a733d2120ef30d968e8f67ed0566fbd36'),
        'report --json': (0, 'c8f7c1f10b1b52373183ef806e7641fd4f557102de7a4245745b64972b74b3ca'),
        'amend --out': (0, None),
        'verify --json': (0, 'bcbf8ad31eccb2a9c12ab5c5c45692c300c4e6c0055882221650a237e5e7e9e9'),
    },
    ('10', 'status-profile', 'xu', 'marginal'): {
        'report': (0, '3fa17dff77c73b8df3e8a87df0bd587eca3c05256a326e53b52d85e4e2936860'),
        'report --json': (0, 'bbe513a87cae8bde0ceb7a5e5f927bb2456d4bd5f2f6c1397837bf09d3cb86a7'),
        'amend --out': (0, None),
        'verify --json': (0, 'e24e133e53cac3aa1095368e91260b7895bcd05ac57af8c60843c6e3eef16b65'),
    },
    ('10', 'linear-unit', 'xu', 'marginal'): {
        'report': (0, '7d44fbbbd3e695ad2c307d23b3f80e8010d98ae62a31f1dd9f00272ba584e070'),
        'report --json': (0, '671796d1f261d1aaf19a21c9ce1e33ffba42df0cd814cfff1bd3b16487b6e9ff'),
        'amend --out': (0, None),
        'verify --json': (0, 'bcbf8ad31eccb2a9c12ab5c5c45692c300c4e6c0055882221650a237e5e7e9e9'),
    },
    ('10', 'convex-hull', 'xu', 'marginal'): {
        'report': (0, 'e6ca893a3fbb0195701a99af2f30e60ed27f980d842519a3ebe20a3cd922440a'),
        'report --json': (0, 'b64768874e6954c80cf084d0fe50f48e31f12a8d220b0fdbe206e833b7e6026a'),
        'amend --out': (0, None),
        'verify --json': (0, 'bcbf8ad31eccb2a9c12ab5c5c45692c300c4e6c0055882221650a237e5e7e9e9'),
    },
    ('40', 'uplift-delta', 'xu', 'chp'): {
        'report': (0, 'd6f73f5183ed782712dd12baf6d2b790d7257a247a9fb43aa23eb8a66092593c'),
        'report --json': (0, '7b0a98f0e3466d06383d5ff6183990dbaa88e74574aec379241594389205348f'),
        'amend --out': (0, None),
        'verify --json': (0, '66f008eec3b7aebeaea2640ee91cb1d175532eeeaa7e78c52b8e7051882d9162'),
    },
    ('40', 'constant-profit', 'xu', 'chp'): {
        'report': (0, 'caff802fc11ff49d49e67a0dc26036417135685bc99ff7f3a8af297ddea924e9'),
        'report --json': (0, '9171f0d98bc118e970d5796deaf6fa74f46f0f94f68c9078f9236675feb942f8'),
        'amend --out': (0, None),
        'verify --json': (0, 'f9c7770ce9a9612b001473db13ccb82d4eaa3f5db9c70bffd85409686739b56c'),
    },
    ('40', 'general-form', 'xu', 'chp'): {
        'report': (0, 'cf90505d4884ea76ec3c8ec082a476764b2f2b6b4e481dc0511c8e0b3bce2fb8'),
        'report --json': (0, 'f4a5e8d29f98ff7e9072ad190b047c8b144f575084cd128847f4c9a34942eb5f'),
        'amend --out': (0, None),
        'verify --json': (0, '66f008eec3b7aebeaea2640ee91cb1d175532eeeaa7e78c52b8e7051882d9162'),
    },
    ('40', 'linear-unit', 'xu', 'chp'): {
        'report': (0, '9318b13502c044a38cb9b85a3fc7a60d8d4a808eb11b8ef70fcae77eb755b7d0'),
        'report --json': (0, 'c768f52981ae760c9b68db12557d95dbc0cd98a750595613dee345a2eb5f3bcc'),
        'amend --out': (0, None),
        'verify --json': (0, '6fbc36b66be24f42d2a67589153a4e0683cbfa037c54754ec4ae3b4bf3d2063f'),
    },
    ('40', 'convex-hull', 'xu', 'chp'): {
        'report': (0, '8f4de1e6f4949d2a55d1c09e8f2a2436f8d7c8ec40e457962f0c24474347724e'),
        'report --json': (0, 'f7bff6eae1c6a1c65cc301eadd6975d102a44d78b291d77ac9392de0414eb3a7'),
        'amend --out': (0, None),
        'verify --json': (0, '66f008eec3b7aebeaea2640ee91cb1d175532eeeaa7e78c52b8e7051882d9162'),
    },
    ('40', 'uplift-delta', 'g', 'chp'): {
        'report': (0, '17a396993df835bc9acfa7deb95f8822298cd9e69abf69799c6743e71827ae09'),
        'report --json': (0, '14c30a2fd59b5745f30be6a0cb59c2ed392988c896b2ce9d1d5bc7d7e84a66ce'),
        'amend --out': (0, None),
        'verify --json': (0, '66f008eec3b7aebeaea2640ee91cb1d175532eeeaa7e78c52b8e7051882d9162'),
    },
    ('40', 'constant-profit', 'g', 'chp'): {
        'report': (0, '23f112889193fc9ad795f14f8b95220f70794ac2147ef742d606ad98b5026269'),
        'report --json': (0, '9820e1e01f3e4d1d36ff3cea5f6c527a22de4c4ce6ed6024c5c5ba799195bad4'),
        'amend --out': (0, None),
        'verify --json': (0, 'f9c7770ce9a9612b001473db13ccb82d4eaa3f5db9c70bffd85409686739b56c'),
    },
    ('40', 'general-form', 'g', 'chp'): {
        'report': (0, 'c7246a37cdc1149b1f448ca0f56f5c153422805ba0c40a552f7b5a75ce7ae7b2'),
        'report --json': (0, 'fcbe7b389899f5dd744d5dd1e7728e1f1d1559edc031cee915cd390517680ffd'),
        'amend --out': (0, None),
        'verify --json': (0, '66f008eec3b7aebeaea2640ee91cb1d175532eeeaa7e78c52b8e7051882d9162'),
    },
    ('40', 'convex-hull', 'g', 'chp'): {
        'report': (0, 'da423440957bdb145bc7e8e3ede8f1341747946b6b492502b1fff12dd348dba0'),
        'report --json': (0, '2cef8897f9d291593847e6c290930688d6bdf87510022dd7662eeba1efeed5f5'),
        'amend --out': (0, None),
        'verify --json': (0, '4d1ac68323bac34d10e09e301bcae5b81f4a95b02b8d1e9a662fa4793526c53b'),
    },
    ('40', 'status-delta', 'xu', 'marginal'): {
        'report': (0, '14870d89b6e22c076e2271ba112f7c741304684306f1120d5e7932025e6a76a0'),
        'report --json': (0, 'acf6184ba569ee193e5c922eedb7bd16b5adcddf77326bd7ffacf16ae15cf80e'),
        'amend --out': (0, None),
        'verify --json': (0, '8fdc4ea3c4758c36bf3ca1edde6d057ddf29b2e4df203d5859de30a810466de7'),
    },
    ('40', 'status-profile', 'xu', 'marginal'): {
        'report': (0, 'fc03c3ff3aefc33d31c8b891985f67310d0042c1e5018100331fdcb9977265a7'),
        'report --json': (0, '180aebc0ed5b3686471a34370319063b10d7c8946e976c6d39a7989447767fe5'),
        'amend --out': (0, None),
        'verify --json': (0, '4c3c5ff2b1bd5ae573fd125aa7de1af3901304f83fc8ead782ea21dfa1a0d9b0'),
    },
    ('40', 'linear-unit', 'xu', 'marginal'): {
        'report': (0, '51c1087c7c44eb07f1e4d0c55dd0116a67772673701499d472edcbb2ce11a4a1'),
        'report --json': (0, '1e6f99fc95d3753b87d9f54e375e1996ed6cf410496dee70431060bedc6ab8a4'),
        'amend --out': (0, None),
        'verify --json': (0, '8fdc4ea3c4758c36bf3ca1edde6d057ddf29b2e4df203d5859de30a810466de7'),
    },
    ('40', 'convex-hull', 'xu', 'marginal'): {
        'report': (0, 'caf8bafb9e9c0ab39d8ea4e0b4ea8c24574b87d51757bf2ea4057959896ba931'),
        'report --json': (0, '6c9fce992cbcad7b818fc0b3bef68af28ac14ebc2b75419f294d18f83b53d493'),
        'amend --out': (0, None),
        'verify --json': (0, '8fdc4ea3c4758c36bf3ca1edde6d057ddf29b2e4df203d5859de30a810466de7'),
    },
}

TAMPERED_COMBOS = (
    ("general-form", "g", "chp"),
    ("status-profile", "xu", "marginal"),
    ("linear-unit", "xu", "marginal"),
)

# (family, formulation, price method, multiplier factor) at demand 40 ->
#   (exit code, sha256 of stdout)
TAMPERED_GOLDEN = {
    ('general-form', 'g', 'chp', 0.0): (1, '6119b22738553b85cb01d7e14f6f9cd0d1c9bd06d32a122b28fe443b44328f35'),
    ('general-form', 'g', 'chp', 2.0): (1, 'bbf966a4df93d862c1cf9e6970a8bec646a87f3b5143d2c9160c2c855db33e2d'),
    ('status-profile', 'xu', 'marginal', 0.0): (1, 'e3e9e71908186075716185447d798382bbc80069e0ea670f7d069b0278188c97'),
    ('status-profile', 'xu', 'marginal', 2.0): (1, '13cadb57010154a0dec5587907b6612baddecf35e5743f3819f6842980c99780'),
    ('linear-unit', 'xu', 'marginal', 0.0): (1, '3a08bcb6df18c20eb67d9c6481b23d4b3682c917efd76a96070662e26bf88c42'),
    ('linear-unit', 'xu', 'marginal', 2.0): (1, 'f73b68fcd579ad1f2b0b8699e58f4f67ab0deee7238503af24ea8af3aac6c4df'),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def outputs(demand: str, family: str, formulation: str, method: str, bundle_path) -> dict:
    """Exit code and stdout digest of every golden command for one combination."""
    common = ["--scarf", demand, "--price-method", method]
    combo = ["--family", family, "--formulation", formulation]
    got = {
        "report": _run(["report", *common, *combo]),
        "report --json": _run(["report", *common, *combo, "--json"]),
    }
    code, _ = _run(["amend", *common, *combo, "--out", str(bundle_path)])
    got["amend --out"] = (code, None)
    got["verify --json"] = _run(["verify", *common, "--amendments", str(bundle_path), "--json"])
    return got


def tampered_outputs(demand: str, family: str, formulation: str, method: str,
                     factor: float, bundle_path) -> tuple[int, str]:
    """`verify --json` on the combination's bundles with every multiplier
    scaled by `factor`."""
    common = ["--scarf", demand, "--price-method", method]
    _run(["amend", *common, "--family", family, "--formulation", formulation,
          "--out", str(bundle_path)])
    payload = json.loads(bundle_path.read_text())
    for bundle in payload["bundles"].values():
        bundle["mu"] = [factor * m for m in bundle["mu"]]
    bundle_path.write_text(json.dumps(payload))
    return _run(["verify", *common, "--amendments", str(bundle_path), "--json"])


@pytest.mark.parametrize("demand", ("10", "40"))
@pytest.mark.parametrize("family,formulation,method", COMBOS)
def test_cli_output_matches_golden(demand, family, formulation, method, tmp_path):
    got = outputs(demand, family, formulation, method, tmp_path / "bundles.json")
    assert got == GOLDEN[(demand, family, formulation, method)]


@pytest.mark.parametrize("factor", (0.0, 2.0))
@pytest.mark.parametrize("family,formulation,method", TAMPERED_COMBOS)
def test_failing_verify_matches_golden(family, formulation, method, factor, tmp_path):
    got = tampered_outputs("40", family, formulation, method, factor, tmp_path / "bundles.json")
    assert got == TAMPERED_GOLDEN[(family, formulation, method, factor)]


# (periods, units) of the heterogeneous instances, in build order
HETERO_SHAPES = ((1, 6), (1, 9), (1, 7), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 4), (1, 8))


def hetero_documents() -> list[dict]:
    """Instance documents whose units share no parameters; the demand of
    each is met by a randomly drawn feasible commitment."""
    rng = random.Random(314159)
    docs = []
    for periods, n_units in HETERO_SHAPES:
        units = []
        for k in range(n_units):
            g_min = 0.0 if rng.random() < 0.4 else round(rng.uniform(0.5, 4.0), 2)
            slow = periods > 1 and rng.random() < 0.4
            units.append(UnitParams(
                id=f"U{k + 1:02d}",
                g_min=g_min,
                g_max=round(g_min + rng.uniform(2.0, 12.0), 2),
                marginal_cost=round(rng.uniform(1.0, 10.0), 2),
                startup_cost=round(rng.uniform(0.0, 60.0), 2),
                initial_status=int(rng.random() < 0.25),
                min_up=2 if slow else 0,
                min_down=2 if slow else 0,
            ))
        demand = [0.0] * periods
        for unit in units:
            u = rng.choice(feasible_status_vectors(unit, periods))
            for t in range(periods):
                if u[t]:
                    demand[t] += rng.uniform(unit.g_min, unit.g_max)
        docs.append({
            "periods": periods,
            "demand": [round(d, 3) for d in demand],
            "unit_types": [
                {"id": u.id, "g_min": u.g_min, "g_max": u.g_max,
                 "marginal_cost": u.marginal_cost, "startup_cost": u.startup_cost,
                 "initial_status": u.initial_status, "min_up": u.min_up,
                 "min_down": u.min_down}
                for u in units
            ],
        })
    return docs


HETERO_COMMANDS = {
    "dispatch --json": ["dispatch", "--json"],
    "uplift --json chp": ["uplift", "--price-method", "chp", "--json"],
    "uplift --json marginal": ["uplift", "--price-method", "marginal", "--json"],
}

# instance index -> {command: (exit code, sha256 of stdout)}
HETERO_GOLDEN = {
    0: {
        'dispatch --json': (0, 'c84cf0cf5e1533aaed7b5a97a0336ac2a838d60d1a3e7781161762a1ac1e41a7'),
        'uplift --json chp': (0, '8ed3f5a09b50319cf2ff74d1d93d488aace8192a7d2ae4f508e618116b445626'),
        'uplift --json marginal': (0, '0f30b9347f6bfaebd850d6b6bee17e61665fc1875f03d9dee94b1ace0c673af4'),
    },
    1: {
        'dispatch --json': (0, 'a6952096ba89f3e1e97e777fb091bfe7f3703b2fcd97f0d15f2d6cc015605449'),
        'uplift --json chp': (0, '51517551e67767e28e57293d0c63ef291168272e9e27d86d62e58aa242a93ad4'),
        'uplift --json marginal': (0, 'e94f9a2bd3adf0809eb7aa126e52facd49535b3f597268a2eacbbb60ee20a138'),
    },
    2: {
        'dispatch --json': (0, '47f73622fe5438b6708a8836ecc8276f34e49ac3c0e9e3fc6794366354bf3646'),
        'uplift --json chp': (0, '5d167b1232633468ce15a068060909c5425896b881c107cad26ffbf1528b12f2'),
        'uplift --json marginal': (0, '5d167b1232633468ce15a068060909c5425896b881c107cad26ffbf1528b12f2'),
    },
    3: {
        'dispatch --json': (0, 'fe0f4c4d0e228e063b29d3e8a1c51e865c29d03e373bf681c9014fa152b839f0'),
        'uplift --json chp': (0, 'c6c8a26de16f4acc9bafe2247a7b07704f0f1a68c919ba6a665723d0daa77365'),
        'uplift --json marginal': (0, 'f9313178e2a462d5d13740934006f460317e0c3407076de30b23876ec729e877'),
    },
    4: {
        'dispatch --json': (0, 'a888eae1f7b42e58648ca1a932cdbf9db5479734b12c69a844438d9bd66020db'),
        'uplift --json chp': (0, '5ed12b02cc3a89760dfdb5ee2c5afede543303e7e92f6c658d9b73ec2bfe62a4'),
        'uplift --json marginal': (0, 'e1a7a824d7abef5d78572ffabcdd8dc3dfce256b3a3f43c2d25eba75a2dc0650'),
    },
    5: {
        'dispatch --json': (0, '61eac092c135e0de37d2dc0cffafe6bf3ac698f533f878161861060320797cae'),
        'uplift --json chp': (0, '460a6f6de61cdbe7163501984c6c34997f36b6270f7580f3cc5932004e1f1a40'),
        'uplift --json marginal': (0, '819a4b1ea87085af32ae92a0249873431d576bed9ad51a204ea23c05c0a1d970'),
    },
    6: {
        'dispatch --json': (0, '553b1fa4347d4057e7d1bd093b2c11a75f712a13e53e94a8037bd8e9575ab465'),
        'uplift --json chp': (0, 'c8a5d7cf03fa29a0d9e8cedaec5912f37694725dd14e03a3b51a2b5a07c274ec'),
        'uplift --json marginal': (0, '2f84ff8df2d8fdab964046ca5b54ad083f82fef0a1c674a387ee554d9e9ecf70'),
    },
    7: {
        'dispatch --json': (0, 'b888fcbf7329bffb446347cd540a3a1a5c2a3cbb602d167e616e737e3daa48cc'),
        'uplift --json chp': (0, 'e35292c09b6891e27980517c8ef2f277318e7a1fbb4b80ea0d6752c6a929eb37'),
        'uplift --json marginal': (0, 'e1bdd30b859e32eb283ab948e293ad3b5c42d3cbcdb751d2ceb44afd3101f5ef'),
    },
    8: {
        'dispatch --json': (0, 'a11b2b2d2fc448da6e89490ee8017673c51a5fcd74170e7690eaa5f50cb8cf74'),
        'uplift --json chp': (0, '446de53189be55cbc2ac83ec05fb1d1e5b605b2c44b7522c55c9c84502ae05da'),
        'uplift --json marginal': (0, '21d98d682796f804e139b689cf611a8e0636f000a4c2e1ea2f9df1378c0b49c5'),
    },
    9: {
        'dispatch --json': (0, '0afcc77300dac508e20922c144a9d69d9c81b87c35efb285457419b8b6457efe'),
        'uplift --json chp': (0, '285d0275cbe5c2bd7e49087facfd0b1b22ff9077272ca156f51a5b5953b9d92b'),
        'uplift --json marginal': (0, '2e9bbaee8124038bade1eaf046f8e8210cdf9d904dcabde1a28feff0432f0418'),
    },
}


def hetero_outputs(index: int, instance_path) -> dict:
    instance_path.write_text(json.dumps(hetero_documents()[index]))
    return {name: _run([*argv, str(instance_path)]) for name, argv in HETERO_COMMANDS.items()}


@pytest.mark.parametrize("index", range(len(HETERO_SHAPES)))
def test_hetero_cli_output_matches_golden(index, tmp_path):
    assert hetero_outputs(index, tmp_path / "instance.json") == HETERO_GOLDEN[index]
