"""Command-line interface.

Pipeline commands over a market instance file (or the built-in --scarf
scenarios): dispatch, price, uplift, amend, verify, report.  Exit codes are
stable: 0 success, 1 infeasible or violated precondition, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii

from .amendments import (
    FAMILIES,
    build_family,
    bundles_from_json,
    bundles_to_json,
    check_zero_total_uplift,
)
from .dispatch import solve_centralized
from .errors import UpliftZeroError, ValidationError
from .expr import expr_to_text
from .model import (
    Formulation,
    MarketInstance,
    _groups,
    _is_number,
    load_instance,
    scarf_instance,
)
from .pricing import as_price, price_for_method
from .uplift import _uplift_table

_TYPE_SUFFIX = re.compile(r"-\d+$")


def _type_name(unit_id: str) -> str:
    return _TYPE_SUFFIX.sub("", unit_id)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uplift-zero",
        description=(
            "Centralized dispatch, convex-hull/marginal pricing, uplift, and "
            "uplift-eliminating revenue amendments for small non-convex markets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, price_flag: bool = False) -> None:
        p.add_argument("instance", nargs="?", help="instance JSON file")
        p.add_argument(
            "--scarf", type=int, choices=(10, 40), metavar="10|40",
            help="use the built-in scenario with this demand instead of a file",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if price_flag:
            p.add_argument(
                "--price-method", choices=("chp", "marginal"), default="chp",
                help="pricing rule (default chp)",
            )

    p = sub.add_parser("dispatch", help="solve the centralized dispatch problem")
    common(p)
    p.add_argument("--out", help="write the dispatched schedule JSON here")

    p = sub.add_parser("price", help="compute the market price")
    common(p)
    p.add_argument("--method", choices=("chp", "marginal"), default="chp")

    p = sub.add_parser("uplift", help="per-unit uplift at the market price")
    common(p, price_flag=True)
    p.add_argument("--csv", action="store_true", help="CSV table output")

    p = sub.add_parser("amend", help="build revenue amendments for every unit")
    common(p, price_flag=True)
    p.add_argument("--family", choices=sorted(FAMILIES), default="convex-hull")
    p.add_argument(
        "--formulation", choices=("xu", "g"), default="xu",
        help="variables the amendment may reference: status+output or output only",
    )
    p.add_argument("--out", help="write the amendment bundles JSON here")

    p = sub.add_parser("verify", help="check saved amendments against an instance")
    common(p, price_flag=True)
    p.add_argument("--amendments", required=True, help="bundle JSON from `amend --out`")

    p = sub.add_parser("report", help="full pipeline report")
    common(p, price_flag=True)
    p.add_argument("--family", choices=sorted(FAMILIES), default="convex-hull")
    p.add_argument("--formulation", choices=("xu", "g"), default="xu")
    return parser


def _load(args) -> MarketInstance:
    if args.scarf is not None:
        if args.instance is not None:
            raise ValidationError("give either an instance file or --scarf, not both")
        return scarf_instance(float(args.scarf))
    if args.instance is None:
        raise ValidationError("give an instance file or --scarf 10|40")
    return load_instance(args.instance)


def _write_json(o, out: list[str], nl: str, seen: dict) -> None:
    """Append the text of o, as json.dumps(o, indent=2, sort_keys=True)
    writes it, to out; nl is a newline and the indent o starts at.

    A non-empty dict, list or tuple written before at this indent is
    written again from its text.  `seen` maps (id, indent) to the object,
    which keeps its id from being reused during the call, and the span of
    `out` that holds its text; the span is joined on the second occurrence
    and then points at the joined text."""
    t = type(o)
    if t is str:
        out.append(encode_basestring_ascii(o))
    elif t is float:
        out.append(float.__repr__(o) if math.isfinite(o) else _float_text(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is dict or t is list or t is tuple:
        if not o:
            out.append("{}" if t is dict else "[]")
            return
        slot = (id(o), len(nl))
        hit = seen.get(slot)
        if hit is not None:
            text = "".join(out[hit[1]:hit[2]])
            seen[slot] = (o, len(out), len(out) + 1)
            out.append(text)
            return
        start = len(out)
        inner = nl + "  "
        if t is dict:
            sep = "{" + inner
            for key, value in sorted(o.items()):
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _write_json(value, out, inner, seen)
                sep = "," + inner
            out.append(nl + "}")
        else:
            sep = "[" + inner
            for value in o:
                out.append(sep)
                _write_json(value, out, inner, seen)
                sep = "," + inner
            out.append(nl + "]")
        seen[slot] = (o, start, len(out))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    # the one subclass the CLI writes: an str enum (`Formulation`) writes its value
    elif isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _float_text(value: float) -> str:
    # json's spelling of a float that is not finite
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _json_text(obj) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), for the types the
    CLI writes: None, bool, int, float, str (an str enum too), list, tuple
    and dict with str keys.  Any other type or key, subclasses of int,
    float, list and dict included, raises TypeError.

    A dict, list or tuple object that occurs more than once in obj, such as
    the bundle dict that `bundles_to_json` gives every unit of a group, is
    written once per indent and its text copied wherever it recurs.

    An indent makes json fall back to its pure-Python encoder, which is
    several times slower than this writer and leaves cyclic garbage (its
    closures refer to each other) on every call."""
    out: list[str] = []
    _write_json(obj, out, "\n", {})
    return "".join(out)


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}f}"


def _fmt_sig(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def cmd_dispatch(args) -> int:
    instance = _load(args)
    result = solve_centralized(instance)
    digits = instance.tolerances.report_digits
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_json_text(result.schedule.to_json()) + "\n")
    if args.json:
        print(_json_text({
            "objective": result.total_cost,
            "profiles_enumerated": result.profiles_enumerated,
            "schedule": result.schedule.to_json(),
        }))
        return 0
    print(f"f* = {_fmt(result.total_cost, digits)}")
    for unit in instance.units:
        sched = result.schedule.unit(unit.id)
        if any(sched.u):
            outputs = ", ".join(_fmt(g, digits) for g in sched.g)
            print(f"  {unit.id}: online, g = {outputs}")
    if args.out:
        print(f"schedule written to {args.out}")
    return 0


def cmd_price(args) -> int:
    instance = _load(args)
    x_star = solve_centralized(instance).schedule if args.method == "marginal" else None
    digits = instance.tolerances.report_digits
    pr = price_for_method(instance, args.method, x_star)
    p, dual = pr.price, pr.dual_value
    payload = {"method": args.method, "price": list(p), "dual_value": dual}
    if args.method == "chp":
        payload.update(converged=pr.converged, iterations=pr.iterations)
    if args.json:
        print(_json_text(payload))
        return 0
    print(f"price ({args.method}) = " + ", ".join(_fmt(q, digits) for q in p))
    print(f"dual value = {_fmt(dual, digits)}")
    return 0


def cmd_uplift(args) -> int:
    instance = _load(args)
    result = solve_centralized(instance)
    pr = price_for_method(instance, args.price_method, result.schedule)
    p = pr.price
    report = _uplift_table(instance, as_price(p, instance.periods), result.schedule, pr.maxima)
    digits = instance.tolerances.report_digits
    if args.json:
        print(_json_text({
            "price": list(p),
            "units": [
                {"unit_id": e.unit_id, "pi_star": e.dispatch_profit,
                 "pi_plus": e.max_profit, "uplift": e.uplift}
                for e in report.entries
            ],
            "total": report.total,
        }))
        return 0
    if args.csv:
        print(report.to_csv(), end="")
        return 0
    print(f"price ({args.price_method}) = " + ", ".join(_fmt(q, digits) for q in p))
    width = max(len(e.unit_id) for e in report.entries)
    print(f"  {'unit':<{width}}  {'pi_star':>10}  {'pi_plus':>10}  {'uplift':>10}")
    for e in report.entries:
        print(
            f"  {e.unit_id:<{width}}  {_fmt(e.dispatch_profit, digits):>10}"
            f"  {_fmt(e.max_profit, digits):>10}  {_fmt(e.uplift, digits):>10}"
        )
    print(f"total uplift = {_fmt_sig(report.total, digits)}")
    return 0


def _build_and_verify(instance: MarketInstance, args):
    result = solve_centralized(instance)
    pr = price_for_method(instance, args.price_method, result.schedule)
    formulation = Formulation(args.formulation)
    bundles = build_family(args.family, instance, pr.price, result.schedule, formulation)
    market = check_zero_total_uplift(instance, pr.price, bundles, result.schedule)
    return result, pr, bundles, market


def _verified(market) -> bool:
    """The verdict of amend, verify and report: the market check and every
    unit's report passed."""
    return market.passed and all(rep.passed for rep in market.units.values())


def _print_amendments(instance: MarketInstance, bundles, digits: int) -> None:
    for unit in instance.units:
        text = expr_to_text(bundles[unit.id].amendment, digits)
        if text != "0":
            print(f"  N[{unit.id}] = {text}")


def cmd_amend(args) -> int:
    instance = _load(args)
    result, pr, bundles, market = _build_and_verify(instance, args)
    p = pr.price
    digits = instance.tolerances.report_digits
    verified = _verified(market)
    payload = {
        "family": args.family,
        "formulation": args.formulation,
        "price": list(p),
        "bundles": bundles_to_json(bundles),
    }
    text = _json_text(payload) if args.out or args.json else None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        print(f"family {args.family} ({args.formulation}) at price "
              + ", ".join(_fmt(q, digits) for q in p))
        _print_amendments(instance, bundles, digits)
        print(f"verification: {'all conditions passed' if verified else 'FAILED'}")
        if args.out:
            print(f"bundles written to {args.out}")
    return 0 if verified else 1


def cmd_verify(args) -> int:
    instance = _load(args)
    try:
        with open(args.amendments) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read amendments file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"amendments file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "bundles" not in payload or "price" not in payload:
        raise ValidationError("amendments file needs 'price' and 'bundles' entries")
    bundles = bundles_from_json(payload["bundles"])
    price = payload["price"]
    try:
        # as_price would also read the string "1" and true as 1
        if not all(map(_is_number, price if type(price) is list else [price])):
            raise TypeError(f"expected a number or a list of numbers, got {price!r}")
        p = as_price(price, instance.periods)
    except (TypeError, OverflowError) as exc:
        raise ValidationError(f"amendments file has a malformed price: {exc}") from exc
    result = solve_centralized(instance)
    missing = [u.id for u in instance.units if u.id not in bundles]
    if missing:
        raise ValidationError(f"no bundle for units: {', '.join(missing)}")
    market = check_zero_total_uplift(instance, p, bundles, result.schedule)
    reports = market.units
    if args.json:
        # units that share a report share its list; the writer writes it once
        shared: dict[int, list] = {}
        units = {}
        for uid, rep in reports.items():
            if id(rep) not in shared:
                shared[id(rep)] = rep.to_json()
            units[uid] = shared[id(rep)]
        print(_json_text({"units": units, "market": market.to_json()}))
    else:
        for uid in sorted(reports):
            rep = reports[uid]
            verdict = "ok" if rep.passed else (
                "FAIL: " + ", ".join(c.condition for c in rep.failures())
            )
            print(f"  {uid}: {verdict}")
        verdict = "ok" if market.passed else (
            "FAIL: " + ", ".join(c.condition for c in market.failures())
        )
        print(f"  market: {verdict}")
    return 0 if _verified(market) else 1


def cmd_report(args) -> int:
    instance = _load(args)
    result, pr, bundles, market = _build_and_verify(instance, args)
    p, dual = pr.price, pr.dual_value
    digits = instance.tolerances.report_digits
    before = _uplift_table(instance, as_price(p, instance.periods), result.schedule, pr.maxima)

    residual = market.check_named("zero-total-uplift").lhs or 0.0
    verified = _verified(market)

    if args.json:
        print(_json_text({
            "objective": result.total_cost,
            "price": list(p),
            "dual_value": dual,
            "uplift_before": before.total,
            "uplift_after": residual,
            "family": args.family,
            "formulation": args.formulation,
            "verified": verified,
            "bundles": bundles_to_json(bundles),
            "schedule": result.schedule.to_json(),
        }))
        return 0 if verified else 1

    # units-online table, one row per type name
    names = [_type_name(unit.id) for unit in instance.units]
    firsts, group_of = _groups(names)
    width = max(map(len, names))
    print(f"{'unit type':<{width}}  online  output")
    for group, first in enumerate(firsts):
        scheds = [result.schedule.unit(unit.id)
                  for unit, g in zip(instance.units, group_of) if g == group]
        online = [sched for sched in scheds if any(sched.u)]
        outputs = ", ".join(_fmt(g, digits) for sched in online for g in sched.g)
        print(f"{names[first]:<{width}}  {len(online)} of {len(scheds)}  {outputs or '-'}")
    print(f"f* = {_fmt(result.total_cost, digits)}")
    print(f"price ({args.price_method}) = " + ", ".join(_fmt(q, digits) for q in p))
    print(f"dual value = {_fmt(dual, digits)}")
    print(f"total uplift before amendment = {_fmt_sig(before.total, digits)}")
    print(f"amendments (family {args.family}, formulation {args.formulation}):")
    _print_amendments(instance, bundles, digits)
    print(f"verification: {'all conditions passed' if verified else 'FAILED'}")
    if not verified:
        for uid in sorted(market.units):
            for check in market.units[uid].failures():
                print(f"  FAIL {uid}: {check.condition}")
        for check in market.failures():
            print(f"  FAIL market: {check.condition}")
    print(f"total uplift after amendment = {_fmt(max(residual, 0.0), digits)}")
    return 0 if verified else 1


_COMMANDS = {
    "dispatch": cmd_dispatch,
    "price": cmd_price,
    "uplift": cmd_uplift,
    "amend": cmd_amend,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UpliftZeroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
