"""Per-layer tracing from outside the program.

`Tracer.install` rebinds the public functions of each layer, in every
module of the package that imported them, to wrappers that record a span
(name, start, end, parent, request) per call; `Expr.evaluate` is wrapped
per subclass for a call count only, and `economic_dispatch` for counts
only, because both run far too often for a span each.  Spans live in
flat arrays while the run lasts and are written out when it ends.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans of one request, plus the request's own
self time (`cli.self_s`), add up to the traced request time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, function, span name): the layer is the span name's prefix
SPANNED = (
    ("model", "load_instance", "model.load_instance"),
    ("model", "feasible_set_samples", "model.feasible_set_samples"),
    ("dispatch", "solve_centralized", "dispatch.solve_centralized"),
    ("pricing", "convex_hull_price", "pricing.convex_hull_price"),
    ("pricing", "marginal_price", "pricing.marginal_price"),
    ("pricing", "dual_function", "pricing.dual_function"),
    ("pricing", "unit_profit_max", "pricing.unit_profit_max"),
    ("uplift", "uplift_report", "uplift.uplift_report"),
    ("amendments", "build_family", "amendments.build_family"),
    ("amendments", "verify_conditions", "amendments.verify_conditions"),
    ("amendments", "check_zero_total_uplift", "amendments.check_zero_total_uplift"),
)
REQUEST = "cli.main"
PACKAGE = "uplift_zero"


def _unit_key(unit) -> tuple:
    return (unit.g_min, unit.g_max, unit.marginal_cost, unit.startup_cost,
            unit.initial_status, unit.min_up, unit.min_down)


def _price_key(p) -> tuple:
    return (float(p),) if isinstance(p, (int, float)) else tuple(float(v) for v in p)


def _bind(args, kwargs, names, defaults):
    """Positional and keyword arguments as one dict over `names`."""
    bound = dict(defaults)
    bound.update(zip(names, args))
    bound.update(kwargs)
    return bound


class Tracer:
    def __init__(self):
        self.names: list[str] = [REQUEST] + [name for _, _, name in SPANNED]
        self._name_index = {n: k for k, n in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_id = array("i")
        self._stack: list[int] = []
        self._request = -1
        self.counts: Counter = Counter()
        self._seen: dict[str, set] = {}
        self._expr_depth = 0
        self._restore: list[tuple] = []

    # -- span recording ----------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_id.append(self._request)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.end[idx] = time.perf_counter()

    def run_request(self, request: int, fn, *args):
        """Call fn(*args) as one traced request."""
        self._request = request
        self._seen = {}
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _repeat(self, kind: str, key: tuple) -> None:
        seen = self._seen.setdefault(kind, set())
        self.counts[f"{kind}.calls"] += 1
        if key in seen:
            self.counts[f"{kind}.repeats"] += 1
        else:
            seen.add(key)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, fn, name: str):
        name_id = self._name_index[name]
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_unit_profit_max(self, args, kwargs, result):
        b = _bind(args, kwargs, ("unit", "p", "periods"), {"periods": None})
        self._repeat("profit_max", (_unit_key(b["unit"]), _price_key(b["p"]), b["periods"]))

    def _observe_feasible_set_samples(self, args, kwargs, result):
        b = _bind(args, kwargs, ("unit", "formulation", "anchors", "periods"),
                  {"formulation": None, "anchors": (), "periods": None})
        anchors = tuple((a.u, a.g) for a in b["anchors"])
        self._repeat("lattice", (_unit_key(b["unit"]), str(b["formulation"]), anchors, b["periods"]))
        self.counts["lattice.points"] += len(result)

    def _observe_convex_hull_price(self, args, kwargs, result):
        self.counts["hull.calls"] += 1
        self.counts["hull.iterations"] += result.iterations

    def _counted_dispatch(self, fn):
        counts = self.counts

        def economic_dispatch(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["dispatch.profiles"] += 1
            if result is not None:
                counts["dispatch.feasible"] += 1
            return result

        economic_dispatch.__wrapped__ = fn
        return economic_dispatch

    def _counted_evaluate(self, fn):
        tracer = self

        def evaluate(self, *args, **kwargs):
            if tracer._expr_depth == 0:
                tracer.counts["expr.evaluate"] += 1
            tracer._expr_depth += 1
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer._expr_depth -= 1

        evaluate.__wrapped__ = fn
        return evaluate

    # -- installation ----------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        """Wrap every traced function; `uninstall` puts the originals back."""
        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in ("model", "dispatch", "pricing",
                                                               "uplift", "amendments", "expr")}
        for mod, func, name in SPANNED:
            original = getattr(modules[mod], func)
            self._rebind_everywhere(original, self._spanned(original, name))
        original = modules["dispatch"].economic_dispatch
        self._rebind_everywhere(original, self._counted_dispatch(original))
        expr = modules["expr"]
        stack = list(expr.Expr.__subclasses__())
        while stack:
            cls = stack.pop()
            stack.extend(cls.__subclasses__())
            if "evaluate" in vars(cls):
                original = vars(cls)["evaluate"]
                setattr(cls, "evaluate", self._counted_evaluate(original))
                self._restore.append((cls, "evaluate", original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.start, self.end)]
        selfs = durations[:]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                selfs[parent] -= durations[idx]
        return selfs

    def write_spans(self, path: str) -> None:
        """One CSV line per span: id, name, start, end, parent, request."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,request\n")
            for idx in range(len(self.name_id)):
                fh.write(f"{idx},{self.names[self.name_id[idx]]},{self.start[idx]!r},"
                         f"{self.end[idx]!r},{self.parent[idx]},{self.request_id[idx]}\n")

    def layer_metrics(self, requests: int, speed: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit).  Times and counts are means per
        traced request, and times are divided by `speed`; shares are of the
        traced request time."""
        names = self.names
        durations = [e - s for s, e in zip(self.start, self.end)]
        selfs = self.self_times()
        self_by: Counter = Counter()
        incl_by: Counter = Counter()
        marginal = 0.0
        for idx, nid in enumerate(self.name_id):
            name = names[nid]
            self_by[name] += selfs[idx]
            incl_by[name] += durations[idx]
            parent = self.parent[idx]
            if name == "pricing.marginal_price" or (
                name == "pricing.dual_function"
                and (parent < 0 or not names[self.name_id[parent]].startswith("pricing."))
            ):
                marginal += durations[idx]
        layer_self: Counter = Counter()
        for name, value in self_by.items():
            layer_self[name.split(".", 1)[0]] += value
        request_s = incl_by[REQUEST]
        c = self.counts
        n = max(requests, 1)

        def ratio(a, b):
            return (a / b if b else 0.0), "ratio"

        def per_request(count):
            return count / n, "count"

        def busy(seconds):
            return seconds / n / speed, "s"

        return {
            "cli.request_s": busy(request_s),
            "cli.self_s": busy(self_by[REQUEST]),
            "model.load_busy_s": busy(self_by["model.load_instance"]),
            "dispatch.busy_s": busy(layer_self["dispatch"]),
            "dispatch.share": ratio(layer_self["dispatch"], request_s),
            "dispatch.profiles": per_request(c["dispatch.profiles"]),
            "dispatch.us_per_profile": (
                1e6 * ratio(layer_self["dispatch"], c["dispatch.profiles"])[0] / speed, "us"),
            "dispatch.feasible_ratio": ratio(c["dispatch.feasible"], c["dispatch.profiles"]),
            "pricing.busy_s": busy(layer_self["pricing"]),
            "pricing.share": ratio(layer_self["pricing"], request_s),
            "pricing.hull_busy_s": busy(incl_by["pricing.convex_hull_price"]),
            "pricing.subgradient_iters": (ratio(c["hull.iterations"], c["hull.calls"])[0], "count"),
            "pricing.marginal_busy_s": busy(marginal),
            "pricing.profit_max_calls": per_request(c["profit_max.calls"]),
            "pricing.profit_max_busy_s": busy(incl_by["pricing.unit_profit_max"]),
            "pricing.profit_max_repeat_share": ratio(c["profit_max.repeats"], c["profit_max.calls"]),
            "uplift.report_busy_s": busy(self_by["uplift.uplift_report"]),
            "amendments.build_busy_s": busy(self_by["amendments.build_family"]),
            "amendments.verify_busy_s": busy(self_by["amendments.verify_conditions"]),
            "amendments.market_busy_s": busy(self_by["amendments.check_zero_total_uplift"]),
            "amendments.share": ratio(layer_self["amendments"], request_s),
            "model.lattice_builds": per_request(c["lattice.calls"]),
            "model.lattice_points": per_request(c["lattice.points"]),
            "model.lattice_busy_s": busy(self_by["model.feasible_set_samples"]),
            "model.lattice_repeat_share": ratio(c["lattice.repeats"], c["lattice.calls"]),
            "expr.evaluate_calls": per_request(c["expr.evaluate"]),
            "expr.evals_per_lattice_point": (ratio(c["expr.evaluate"], c["lattice.points"])[0], "count"),
        }
