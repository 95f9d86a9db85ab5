"""Command-line interface.

Pipeline commands over a market instance file (or the built-in --scarf
scenarios): dispatch, price, uplift, amend, verify, report.  Exit codes are
stable: 0 success, 1 infeasible or violated precondition, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

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
    load_instance,
    scarf_instance,
)
from .pricing import as_price, price_for_method
from .uplift import uplift_report

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
            json.dump(result.schedule.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps({
            "objective": result.total_cost,
            "profiles_enumerated": result.profiles_enumerated,
            "schedule": result.schedule.to_json(),
        }, indent=2, sort_keys=True))
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
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"price ({args.method}) = " + ", ".join(_fmt(q, digits) for q in p))
    print(f"dual value = {_fmt(dual, digits)}")
    return 0


def cmd_uplift(args) -> int:
    instance = _load(args)
    result = solve_centralized(instance)
    p = price_for_method(instance, args.price_method, result.schedule).price
    report = uplift_report(instance, p, result.schedule)
    digits = instance.tolerances.report_digits
    if args.json:
        print(json.dumps({
            "price": list(p),
            "units": [
                {"unit_id": e.unit_id, "pi_star": e.dispatch_profit,
                 "pi_plus": e.max_profit, "uplift": e.uplift}
                for e in report.entries
            ],
            "total": report.total,
        }, indent=2, sort_keys=True))
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
    p, dual = pr.price, pr.dual_value
    formulation = Formulation(args.formulation)
    bundles = build_family(args.family, instance, p, result.schedule, formulation)
    market = check_zero_total_uplift(instance, p, bundles, result.schedule)
    return result, p, dual, bundles, market.units, market


def cmd_amend(args) -> int:
    instance = _load(args)
    result, p, _, bundles, reports, market = _build_and_verify(instance, args)
    digits = instance.tolerances.report_digits
    failed = [uid for uid, rep in reports.items() if not rep.passed]
    payload = {
        "family": args.family,
        "formulation": args.formulation,
        "price": list(p),
        "bundles": bundles_to_json(bundles),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"family {args.family} ({args.formulation}) at price "
              + ", ".join(_fmt(q, digits) for q in p))
        for unit in instance.units:
            text = expr_to_text(bundles[unit.id].amendment)
            if text != "0":
                print(f"  N[{unit.id}] = {text}")
        status = "all conditions passed" if not failed and market.passed else "FAILED"
        print(f"verification: {status}")
        if args.out:
            print(f"bundles written to {args.out}")
    if failed or not market.passed:
        return 1
    return 0


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
    try:
        p = as_price(payload["price"], instance.periods)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"amendments file has a malformed price: {exc}") from exc
    result = solve_centralized(instance)
    missing = [u.id for u in instance.units if u.id not in bundles]
    if missing:
        raise ValidationError(f"no bundle for units: {', '.join(missing)}")
    market = check_zero_total_uplift(instance, p, bundles, result.schedule)
    reports = market.units
    if args.json:
        print(json.dumps({
            "units": {uid: rep.to_json() for uid, rep in reports.items()},
            "market": market.to_json(),
        }, indent=2, sort_keys=True))
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
    ok = market.passed and all(rep.passed for rep in reports.values())
    return 0 if ok else 1


def cmd_report(args) -> int:
    instance = _load(args)
    result, p, dual, bundles, reports, market = _build_and_verify(instance, args)
    digits = instance.tolerances.report_digits
    before = uplift_report(instance, p, result.schedule)

    residual = market.check_named("zero-total-uplift").lhs or 0.0
    verified = market.passed and all(rep.passed for rep in reports.values())

    if args.json:
        print(json.dumps({
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
        }, indent=2, sort_keys=True))
        return 0 if verified else 1

    # units-online table grouped by parameter type
    order: list[str] = []
    grouped: dict[str, list[str]] = {}
    for unit in instance.units:
        name = _type_name(unit.id)
        if name not in grouped:
            grouped[name] = []
            order.append(name)
        grouped[name].append(unit.id)
    width = max(len(n) for n in order)
    print(f"{'unit type':<{width}}  online  output")
    for name in order:
        ids = grouped[name]
        online = [
            uid for uid in ids if any(result.schedule.unit(uid).u)
        ]
        outputs = ", ".join(
            _fmt(g, digits)
            for uid in online
            for g in result.schedule.unit(uid).g
        )
        print(f"{name:<{width}}  {len(online)} of {len(ids)}  {outputs or '-'}")
    print(f"f* = {_fmt(result.total_cost, digits)}")
    print(f"price ({args.price_method}) = " + ", ".join(_fmt(q, digits) for q in p))
    print(f"dual value = {_fmt(dual, digits)}")
    print(f"total uplift before amendment = {_fmt_sig(before.total, digits)}")
    print(f"amendments (family {args.family}, formulation {args.formulation}):")
    for unit in instance.units:
        text = expr_to_text(bundles[unit.id].amendment)
        if text != "0":
            print(f"  N[{unit.id}] = {text}")
    print(f"verification: {'all conditions passed' if verified else 'FAILED'}")
    if not verified:
        for uid in sorted(reports):
            for check in reports[uid].failures():
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
