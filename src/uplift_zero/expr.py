"""Expression trees over one unit's schedule variables.

Amendment functions and redundant constraints are stored as small expression
trees so they can be evaluated on arbitrary feasible points, serialized to
JSON, and printed.  Variables refer to a single unit's commitment status
u[t] and output g[t]; evaluation takes a UnitSchedule.

Node vocabulary (JSON "op" names in parentheses): Const ("const"),
Status ("u"), Output ("g"), Add ("add"), Sub ("sub"), Mul ("mul"),
Min ("min"), Max ("max"), Delta ("delta", indicator of equality with a
reference point), Step ("theta", 1 for strictly positive argument, 0 at 0),
Abs ("abs").

`Expr.evaluate` walks a tree at one point.  `evaluate_columns` evaluates
trees at many points that share a horizon, such as a verification
lattice: it visits each distinct node once and gives its values at every
point, bit for bit the values `evaluate` gives point by point.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationError
from .model import DEFAULT_TOLERANCES, Formulation, UnitSchedule, _integer, _is_number


class Expr:
    """Base class; subclasses implement evaluate() and to_dict()."""

    def evaluate(self, sched: UnitSchedule, eq_tol: float = DEFAULT_TOLERANCES.eq_tol) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __call__(self, sched: UnitSchedule, eq_tol: float = DEFAULT_TOLERANCES.eq_tol) -> float:
        return self.evaluate(sched, eq_tol)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        return self.value

    def to_dict(self):
        return {"op": "const", "value": self.value}


@dataclass(frozen=True)
class Status(Expr):
    t: int = 0

    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        if self.t >= sched.periods:
            raise ValidationError(
                f"expression refers to period {self.t + 1} of a {sched.periods}-period schedule"
            )
        return float(sched.u[self.t])

    def to_dict(self):
        return {"op": "u", "t": self.t}


@dataclass(frozen=True)
class Output(Expr):
    t: int = 0

    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        if self.t >= sched.periods:
            raise ValidationError(
                f"expression refers to period {self.t + 1} of a {sched.periods}-period schedule"
            )
        return float(sched.g[self.t])

    def to_dict(self):
        return {"op": "g", "t": self.t}


@dataclass(frozen=True)
class _Nary(Expr):
    args: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) < 2:
            raise ValidationError(f"{type(self).__name__} needs at least two arguments")


class Add(_Nary):
    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        return sum(a.evaluate(sched, eq_tol) for a in self.args)

    def to_dict(self):
        return {"op": "add", "args": [a.to_dict() for a in self.args]}


class Mul(_Nary):
    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        out = 1.0
        for a in self.args:
            out *= a.evaluate(sched, eq_tol)
        return out

    def to_dict(self):
        return {"op": "mul", "args": [a.to_dict() for a in self.args]}


class Min(_Nary):
    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        return min(a.evaluate(sched, eq_tol) for a in self.args)

    def to_dict(self):
        return {"op": "min", "args": [a.to_dict() for a in self.args]}


class Max(_Nary):
    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        return max(a.evaluate(sched, eq_tol) for a in self.args)

    def to_dict(self):
        return {"op": "max", "args": [a.to_dict() for a in self.args]}


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        return self.left.evaluate(sched, eq_tol) - self.right.evaluate(sched, eq_tol)

    def to_dict(self):
        return {"op": "sub", "args": [self.left.to_dict(), self.right.to_dict()]}


@dataclass(frozen=True)
class Delta(Expr):
    """Indicator of equality with a reference point, compared within eq_tol.

    With both references set it matches the full schedule; with only u_ref it
    matches the status vector; with only g_ref the output vector.
    """

    u_ref: Optional[tuple[int, ...]] = None
    g_ref: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.u_ref is None and self.g_ref is None:
            raise ValidationError("Delta needs at least one of u_ref, g_ref")
        if self.u_ref is not None:
            object.__setattr__(self, "u_ref", tuple(int(v) for v in self.u_ref))
        if self.g_ref is not None:
            object.__setattr__(self, "g_ref", tuple(float(v) for v in self.g_ref))

    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        if self.u_ref is not None:
            if len(self.u_ref) != len(sched.u):
                raise ValidationError("Delta reference has wrong horizon length")
            if any(a != b for a, b in zip(self.u_ref, sched.u)):
                return 0.0
        if self.g_ref is not None:
            if len(self.g_ref) != len(sched.g):
                raise ValidationError("Delta reference has wrong horizon length")
            if any(abs(a - b) > eq_tol for a, b in zip(self.g_ref, sched.g)):
                return 0.0
        return 1.0

    def to_dict(self):
        ref: dict = {}
        if self.u_ref is not None:
            ref["u"] = list(self.u_ref)
        if self.g_ref is not None:
            ref["g"] = list(self.g_ref)
        return {"op": "delta", "ref": ref}


@dataclass(frozen=True)
class Step(Expr):
    """Unit step: 1 for argument > 0, 0 otherwise (in particular at 0)."""

    arg: Expr

    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        return 1.0 if self.arg.evaluate(sched, eq_tol) > 0.0 else 0.0

    def to_dict(self):
        return {"op": "theta", "args": [self.arg.to_dict()]}


@dataclass(frozen=True)
class Abs(Expr):
    arg: Expr

    def evaluate(self, sched, eq_tol=DEFAULT_TOLERANCES.eq_tol):
        return abs(self.arg.evaluate(sched, eq_tol))

    def to_dict(self):
        return {"op": "abs", "args": [self.arg.to_dict()]}


# ---------------------------------------------------------------------------
# column evaluation
# ---------------------------------------------------------------------------

_SHARED, _PER_STATUS, _PER_POINT = 0, 1, 2


class _Columns:
    """Node values at every point of a sequence of schedules with one
    horizon.

    A node's column is a pair (kind, values).  A node over constants has
    one value that every point shares (_SHARED); a node over constants,
    status variables and status-only Deltas has one value per distinct
    status vector of the points (_PER_STATUS), in order of first
    appearance; any other node has one value per point (_PER_POINT).  An
    operation is computed at the widest kind of its arguments, the others
    repeated or expanded to it, with the operations `evaluate` applies at
    one point, in the same order.  Each node is computed once; a node type
    with no rule here raises TypeError."""

    def __init__(self, points: Sequence[UnitSchedule], eq_tol: float,
                 outputs: Optional[Sequence[Sequence[float]]] = None):
        self.points = points
        self.eq_tol = eq_tol
        slot: dict[tuple[int, ...], int] = {}
        self.u_index = [slot.setdefault(s.u, len(slot)) for s in points]
        self.statuses = list(slot)
        if len(set(map(len, self.statuses))) != 1:
            raise ValueError("the points do not share one horizon")
        self.periods = len(self.statuses[0])
        self.sizes = (1, len(self.statuses), len(points))
        self._outputs = outputs
        self._memo: dict[int, tuple] = {}   # by node identity; the caller holds the trees

    def outputs(self) -> Sequence[Sequence[float]]:
        if self._outputs is None:
            self._outputs = list(zip(*(s.g for s in self.points)))
        return self._outputs

    def spread(self, col: tuple, kind: int):
        """The column's values at the given kind."""
        have, values = col
        if have == kind:
            return values
        if have == _SHARED:
            return repeat(values[0], self.sizes[kind])
        return map(values.__getitem__, self.u_index)

    def column(self, node: Expr) -> tuple:
        col = self._memo.get(id(node))
        if col is None:
            col = self._memo[id(node)] = self._compute(node)
        return col

    def _apply(self, fn, cols: list) -> tuple:
        kind = max(have for have, _ in cols)
        return kind, fn(*(self.spread(col, kind) for col in cols))

    def _compute(self, node: Expr) -> tuple:
        kind = type(node)
        if kind is Const:
            return _SHARED, [node.value]
        if kind is Status or kind is Output:
            if node.t >= self.periods:
                raise ValidationError(
                    f"expression refers to period {node.t + 1} of a {self.periods}-period schedule"
                )
            if kind is Status:
                return _PER_STATUS, [float(u[node.t]) for u in self.statuses]
            return _PER_POINT, list(map(float, self.outputs()[node.t]))
        if kind is Add:
            return self._apply(lambda *cols: list(map(sum, zip(*cols))),
                               [self.column(a) for a in node.args])
        if kind is Min or kind is Max:
            fold = min if kind is Min else max
            return self._apply(lambda *cols: list(map(fold, *cols)),
                               [self.column(a) for a in node.args])
        if kind is Mul:
            out = (_SHARED, [1.0])
            for a in node.args:
                out = self._apply(lambda x, y: list(map(operator.mul, x, y)),
                                  [out, self.column(a)])
            return out
        if kind is Sub:
            return self._apply(lambda x, y: list(map(operator.sub, x, y)),
                               [self.column(node.left), self.column(node.right)])
        if kind is Step:
            return self._apply(lambda x: [1.0 if v > 0.0 else 0.0 for v in x],
                               [self.column(node.arg)])
        if kind is Abs:
            return self._apply(lambda x: list(map(abs, x)), [self.column(node.arg)])
        if kind is Delta:
            return self._delta(node)
        raise TypeError(f"no column rule for {kind.__name__}")

    def _delta(self, node: Delta) -> tuple:
        # a point whose status differs returns 0.0 before the outputs are read
        hit = [True] * len(self.statuses)
        if node.u_ref is not None:
            if len(node.u_ref) != self.periods:
                raise ValidationError("Delta reference has wrong horizon length")
            hit = [u == node.u_ref for u in self.statuses]
        if node.g_ref is None:
            return _PER_STATUS, [1.0 if h else 0.0 for h in hit]
        if len(node.g_ref) != self.periods:
            if any(hit):
                raise ValidationError("Delta reference has wrong horizon length")
            return _SHARED, [0.0]
        hit = list(self.spread((_PER_STATUS, hit), _PER_POINT))
        eq_tol = self.eq_tol
        for r, col in zip(node.g_ref, self.outputs()):
            hit = [h and not abs(r - g) > eq_tol for h, g in zip(hit, col)]
        return _PER_POINT, [1.0 if h else 0.0 for h in hit]


def evaluate_columns(
    exprs: Sequence[Expr],
    points: Sequence[UnitSchedule],
    eq_tol: float = DEFAULT_TOLERANCES.eq_tol,
    outputs: Optional[Sequence[Sequence[float]]] = None,
) -> tuple[tuple, ...]:
    """Each expression's values at every point, one tuple per expression:
    bit for bit `tuple(e.evaluate(s, eq_tol) for s in points)`.

    When the points share one horizon, each distinct node is visited once
    and computed for all points together (or once per status vector, when
    it reads no output): Add sums its arguments' values with the builtin
    `sum`, Mul multiplies them into 1.0 in order, Min and Max are the
    builtins over the arguments in order, Step is strictly > 0.0, and Delta
    compares within eq_tol.  `outputs`, when given, is the points' outputs
    a period at a time, outputs[t][k] = points[k].g[t].  If any tree fails,
    or holds a node type the kernel has no rule for, the points are walked
    one by one, expression by expression, with `evaluate`, so the error
    raised is the one that walk meets first."""
    points = tuple(points)
    if not points:
        return tuple(() for _ in exprs)
    try:
        cols = _Columns(points, eq_tol, outputs)
        return tuple(tuple(cols.spread(cols.column(e), _PER_POINT)) for e in exprs)
    except Exception:
        # nothing is swallowed: the walk below raises again, and raises
        # what it meets first, where the kernel may have failed elsewhere
        rows = [tuple(e.evaluate(s, eq_tol) for e in exprs) for s in points]
        return tuple(zip(*rows))


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

ZERO = Const(0.0)


def scale(c: float, e: Expr) -> Expr:
    """c * e with the trivial cases and nested constant factors folded away."""
    if c == 0.0:
        return ZERO
    if isinstance(e, Const):
        return Const(c * e.value)
    if isinstance(e, Mul) and len(e.args) == 2 and isinstance(e.args[0], Const):
        return scale(c * e.args[0].value, e.args[1])
    if c == 1.0:
        return e
    return Mul((Const(c), e))


def neg(e: Expr) -> Expr:
    if isinstance(e, Sub):
        return Sub(e.right, e.left)
    if isinstance(e, Const):
        return Const(-e.value)
    return scale(-1.0, e)


def add(*terms: Expr) -> Expr:
    terms = tuple(t for t in terms if not (isinstance(t, Const) and t.value == 0.0))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(terms)


def delta_of(sched: UnitSchedule, formulation: Formulation = Formulation.STATUS_OUTPUT) -> Delta:
    """Indicator of the given point in the requested variable space."""
    if formulation is Formulation.OUTPUT_ONLY:
        return Delta(g_ref=sched.g)
    return Delta(u_ref=sched.u, g_ref=sched.g)


def status_delta_of(u: Sequence[int]) -> Delta:
    return Delta(u_ref=tuple(u))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _period(obj: Mapping) -> int:
    t = _integer(obj.get("t", 0))
    if t < 0:
        raise ValidationError(f"expression period must be non-negative: {obj!r}")
    return t


def _status(value) -> int:
    u = _integer(value)
    if u not in (0, 1):
        raise ValueError(f"expected a status of 0 or 1, got {value!r}")
    return u


def _finite(values: Iterable, obj: Mapping) -> tuple[float, ...]:
    values = tuple(values)
    if not all(_is_number(v) and math.isfinite(v) for v in values):
        raise ValidationError(f"expression values must be finite numbers: {obj!r}")
    return tuple(map(float, values))


def expr_from_dict(obj: Mapping) -> Expr:
    """Read an expression tree from its JSON form; periods must be
    non-negative integers, status references 0 or 1, and constants and
    output references finite numbers."""
    if not isinstance(obj, Mapping) or "op" not in obj:
        raise ValidationError(f"bad expression node: {obj!r}")
    op = obj["op"]
    try:
        if op == "const":
            (value,) = _finite((obj["value"],), obj)
            return Const(value)
        if op == "u":
            return Status(_period(obj))
        if op == "g":
            return Output(_period(obj))
        if op in ("add", "mul", "min", "max"):
            args = tuple(expr_from_dict(a) for a in obj["args"])
            return {"add": Add, "mul": Mul, "min": Min, "max": Max}[op](args)
        if op == "sub":
            left, right = (expr_from_dict(a) for a in obj["args"])
            return Sub(left, right)
        if op == "delta":
            ref = obj["ref"]
            return Delta(
                u_ref=tuple(map(_status, ref["u"])) if "u" in ref else None,
                g_ref=_finite(ref["g"], obj) if "g" in ref else None,
            )
        if op == "theta":
            (arg,) = (expr_from_dict(a) for a in obj["args"])
            return Step(arg)
        if op == "abs":
            (arg,) = (expr_from_dict(a) for a in obj["args"])
            return Abs(arg)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad expression node for op {op!r}: {obj!r}") from exc
    raise ValidationError(f"unknown expression op {op!r}")


def expr_dumps(e: Expr) -> str:
    return json.dumps(e.to_dict())


def expr_loads(text: str) -> Expr:
    try:
        return expr_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"expression is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------

def _max_t(e: Expr) -> int:
    if isinstance(e, (Status, Output)):
        return e.t
    if isinstance(e, _Nary):
        return max(_max_t(a) for a in e.args)
    if isinstance(e, Sub):
        return max(_max_t(e.left), _max_t(e.right))
    if isinstance(e, (Step, Abs)):
        return _max_t(e.arg)
    return 0


def _fmt_num(x: float, digits: int) -> str:
    if x == int(x) and abs(x) < 1e12:
        return str(int(x))
    return f"{x:.{digits}g}"


def expr_to_text(e: Expr, digits: int = DEFAULT_TOLERANCES.report_digits) -> str:
    """Compact human-readable rendering; period indices are dropped on a
    single-period horizon."""
    single = _max_t(e) == 0

    def var(name: str, t: int) -> str:
        return name if single else f"{name}[{t + 1}]"

    def render(node: Expr, parent: str) -> str:
        if isinstance(node, Const):
            s = _fmt_num(node.value, digits)
            return f"({s})" if node.value < 0 and parent in ("mul", "sub") else s
        if isinstance(node, Status):
            return var("u", node.t)
        if isinstance(node, Output):
            return var("g", node.t)
        if isinstance(node, Add):
            s = " + ".join(render(a, "add") for a in node.args)
            return f"({s})" if parent in ("mul", "sub") else s
        if isinstance(node, Sub):
            if isinstance(node.right, Const) and node.right.value < 0:
                s = f"{render(node.left, 'add')} + {_fmt_num(-node.right.value, digits)}"
            else:
                s = f"{render(node.left, 'add')} - {render(node.right, 'sub')}"
            return f"({s})" if parent in ("mul", "sub") else s
        if isinstance(node, Mul):
            return "*".join(render(a, "mul") for a in node.args)
        if isinstance(node, Min):
            return "min[" + ", ".join(render(a, "add") for a in node.args) + "]"
        if isinstance(node, Max):
            return "max[" + ", ".join(render(a, "add") for a in node.args) + "]"
        if isinstance(node, Delta):
            parts = []
            if node.u_ref is not None:
                u = node.u_ref[0] if single else list(node.u_ref)
                parts.append(f"u={u}")
            if node.g_ref is not None:
                g = _fmt_num(node.g_ref[0], digits) if single else [
                    _fmt_num(v, digits) for v in node.g_ref
                ]
                parts.append(f"g={g}")
            return "delta[" + ", ".join(parts) + "]"
        if isinstance(node, Step):
            return f"theta({render(node.arg, 'add')})"
        if isinstance(node, Abs):
            return f"|{render(node.arg, 'add')}|"
        raise ValidationError(f"cannot render {node!r}")

    return render(e, "top")
