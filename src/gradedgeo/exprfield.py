"""Scalar fields on a coordinate chart, with exact derivatives via jet arithmetic.

A field is an immutable expression tree over chart coordinates built from
+, -, *, /, unary minus, rational powers and the elementary functions
exp, ln, sin, cos, tan, sqrt.  Evaluation produces a truncated multivariate
Taylor expansion (a jet), so all partial derivatives up to the requested
order come out of a single pass with no finite differencing.

Grammar accepted by :func:`parse_field`::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-')? atom ('^' atom)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Power exponents must be rational constants (they may be parenthesized
arithmetic over literals, e.g. ``t^(2/3)``).  ``pi`` is a built-in constant.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from itertools import zip_longest as _zip_longest

import numpy as np

from .errors import DomainError, JetOrderError, ParseError

FUNCTIONS = ("exp", "ln", "sin", "cos", "tan", "sqrt")
CONSTANTS = {"pi": math.pi}
RESERVED_NAMES = frozenset(FUNCTIONS) | frozenset(CONSTANTS)

DEFAULT_MAX_JET_ORDER = 3
MAX_ORDER_ENV = "GRADEDGEO_MAX_JET_ORDER"


def configured_max_order() -> int:
    """Maximum jet order honored by eval_jet, from the environment or the default."""
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_JET_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_ORDER_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{MAX_ORDER_ENV} must be nonnegative, got {value}")
    return value


# ---------------------------------------------------------------------------
# chart


@dataclass(frozen=True)
class ChartSpec:
    """Ordered coordinate names plus the closed box where evaluation is valid."""

    coord_names: tuple[str, ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        names = tuple(self.coord_names)
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "coord_names", names)
        object.__setattr__(self, "box", box)
        if len(names) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names in {names}")
        for name in names:
            if not name.isidentifier() or not name[0].isalpha():
                raise ValueError(f"invalid coordinate name {name!r}")
            if name in RESERVED_NAMES:
                raise ValueError(f"coordinate name {name!r} shadows a builtin")
        if len(box) != len(names):
            raise ValueError("box must have one interval per coordinate")
        for name, (lo, hi) in zip(names, box):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"empty or unbounded interval for {name!r}: ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def axis(self, name: str) -> int:
        try:
            return self.coord_names.index(name)
        except ValueError:
            raise KeyError(f"no coordinate {name!r} in chart {self.coord_names}") from None

    def require_point(self, p) -> tuple[float, ...]:
        """Validate p against the box (tiny slack for roundoff) and return it as floats."""
        pt = tuple(float(x) for x in p)
        if len(pt) != self.dim:
            raise ValueError(f"point has {len(pt)} coordinates, chart has {self.dim}")
        for x, name, (lo, hi) in zip(pt, self.coord_names, self.box):
            slack = 1e-9 * (hi - lo) + 1e-12
            if not (lo - slack <= x <= hi + slack):
                raise DomainError(f"coordinate {name}={x} outside box [{lo}, {hi}]")
        return pt

    def require_points(self, pts) -> np.ndarray:
        """Validate an array of point rows against the box, as require_point does."""
        arr = np.asarray(pts, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"expected an array of shape (npoints, {self.dim})")
        for a, (name, (lo, hi)) in enumerate(zip(self.coord_names, self.box)):
            slack = 1e-9 * (hi - lo) + 1e-12
            col = arr[:, a]
            bad = (col < lo - slack) | (col > hi + slack)
            if bad.any():
                x = float(col[int(np.argmax(bad))])
                raise DomainError(f"coordinate {name}={x} outside box [{lo}, {hi}]")
        return arr

    def midpoint(self) -> tuple[float, ...]:
        return tuple(0.5 * (lo + hi) for lo, hi in self.box)


# ---------------------------------------------------------------------------
# expression nodes


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Coord(Expr):
    index: int
    name: str


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Div(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _literal(e: Expr) -> float | None:
    """Numeric value of a Const or Neg(Const) leaf, else None."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Const):
        return -e.arg.value
    return None


def const_expr(v: float) -> Expr:
    """Literal node; negatives are Neg-wrapped so every Const prints as an atom."""
    v = float(v)
    if v < 0:
        return Neg(Const(-v))
    return Const(v)


# Smart constructors for programmatic field arithmetic.  They fold literal
# arithmetic and additive/multiplicative units, which keeps machine-built
# trees (Christoffel symbols, cofactor inverses) from drowning in zeros.
# The parser does not use them: parsed trees stay exactly as written.


def add_expr(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    la, lb = _literal(a), _literal(b)
    if la is not None and lb is not None:
        return const_expr(la + lb)
    return Add(a, b)


def sub_expr(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg_expr(b)
    la, lb = _literal(a), _literal(b)
    if la is not None and lb is not None:
        return const_expr(la - lb)
    return Sub(a, b)


def mul_expr(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    la, lb = _literal(a), _literal(b)
    if la is not None and lb is not None:
        return const_expr(la * lb)
    return Mul(a, b)


def div_expr(a: Expr, b: Expr) -> Expr:
    # Never folds a zero or vanishing divisor: that must stay a runtime domain error.
    if _is_const(b, 1.0):
        return a
    la, lb = _literal(a), _literal(b)
    if la is not None and lb is not None and lb != 0.0:
        return const_expr(la / lb)
    return Div(a, b)


def neg_expr(a: Expr) -> Expr:
    if isinstance(a, Neg):
        return a.arg
    if isinstance(a, Const):
        return const_expr(-a.value)
    return Neg(a)


def pow_expr(base: Expr, exponent) -> Expr:
    r = Fraction(exponent)
    if r == 1:
        return base
    if r == 0:
        return _ONE
    return Pow(base, r)


def call_expr(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    return Call(fn, arg)


# ---------------------------------------------------------------------------
# symbolic partial derivative (tree construction only, no simplification)


def diff_expr(e: Expr, axis: int) -> Expr:
    """Partial derivative of e along axis, built once per (node, axis).

    The result is memoized in the node's instance dict, outside the dataclass
    fields: it is freed with the node and takes no part in equality, hashing
    or repr.  Repeated derivatives of a long-lived subtree are therefore one
    object, which the id-keyed memo of jet evaluation shares.
    """
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Coord):
        return _ONE if e.index == axis else _ZERO
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression node: {e!r}")
    memo = vars(e).setdefault("_diff", {})
    d = memo.get(axis)
    if d is not None:
        return d
    match e:
        case Add(lhs=a, rhs=b):
            d = add_expr(diff_expr(a, axis), diff_expr(b, axis))
        case Sub(lhs=a, rhs=b):
            d = sub_expr(diff_expr(a, axis), diff_expr(b, axis))
        case Neg(arg=a):
            d = neg_expr(diff_expr(a, axis))
        case Mul(lhs=a, rhs=b):
            d = add_expr(mul_expr(diff_expr(a, axis), b), mul_expr(a, diff_expr(b, axis)))
        case Div(lhs=a, rhs=b):
            da, db = diff_expr(a, axis), diff_expr(b, axis)
            num = sub_expr(mul_expr(da, b), mul_expr(a, db))
            d = _ZERO if _is_const(num, 0.0) else div_expr(num, pow_expr(b, 2))
        case Pow(base=b, exponent=r):
            db = diff_expr(b, axis)
            if _is_const(db, 0.0):
                d = _ZERO
            else:
                d = mul_expr(mul_expr(const_expr(float(r)), pow_expr(b, r - 1)), db)
        case Call(arg=a):
            d = _chain_rule(e, diff_expr(a, axis))
    memo[axis] = d
    return d


def _chain_rule(e: Call, da: Expr) -> Expr:
    """Derivative of e = fn(a) given the derivative da of its argument."""
    if _is_const(da, 0.0):
        return _ZERO
    a = e.arg
    match e.fn:
        case "exp":
            outer = e
        case "ln":
            return div_expr(da, a)
        case "sin":
            outer = Call("cos", a)
        case "cos":
            outer = neg_expr(Call("sin", a))
        case "tan":
            return div_expr(da, pow_expr(Call("cos", a), 2))
        case "sqrt":
            return div_expr(da, mul_expr(Const(2.0), e))
        case fn:
            raise ValueError(f"unknown function {fn!r}")
    return mul_expr(outer, da)


# ---------------------------------------------------------------------------
# pretty printer; parse_field(pretty_print(f)) reproduces the tree exactly

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 0, 1, 2, 3, 4


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt_exponent(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator) if r.numerator >= 0 else f"({r.numerator})"
    return f"({r.numerator}/{r.denominator})"


def _fmt(e: Expr, level: int) -> str:
    match e:
        case Const(value=v):
            mine, s = _LEVEL_ATOM, _fmt_number(v)
        case Coord(name=name):
            mine, s = _LEVEL_ATOM, name
        case Call(fn=fn, arg=a):
            mine, s = _LEVEL_ATOM, f"{fn}({_fmt(a, _LEVEL_ADD)})"
        case Pow(base=b, exponent=r):
            mine, s = _LEVEL_POW, f"{_fmt(b, _LEVEL_ATOM)}^{_fmt_exponent(r)}"
        case Neg(arg=a):
            mine, s = _LEVEL_NEG, f"-{_fmt(a, _LEVEL_NEG + 1)}"
        case Mul(lhs=a, rhs=b):
            mine, s = _LEVEL_MUL, f"{_fmt(a, _LEVEL_MUL)}*{_fmt(b, _LEVEL_MUL + 1)}"
        case Div(lhs=a, rhs=b):
            mine, s = _LEVEL_MUL, f"{_fmt(a, _LEVEL_MUL)}/{_fmt(b, _LEVEL_MUL + 1)}"
        case Add(lhs=a, rhs=b):
            mine, s = _LEVEL_ADD, f"{_fmt(a, _LEVEL_ADD)} + {_fmt(b, _LEVEL_ADD + 1)}"
        case Sub(lhs=a, rhs=b):
            mine, s = _LEVEL_ADD, f"{_fmt(a, _LEVEL_ADD)} - {_fmt(b, _LEVEL_ADD + 1)}"
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    if mine < level:
        return f"({s})"
    return s


def pretty_print(f) -> str:
    expr = f.expr if isinstance(f, ScalarField) else f
    return _fmt(expr, _LEVEL_ADD)


# ---------------------------------------------------------------------------
# tokenizer / parser


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident op eof
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and src[i].isdigit():
                i += 1
            if i < n and src[i] == ".":
                i += 1
                while i < n and src[i].isdigit():
                    i += 1
            if i < n and src[i] in "eE":
                j = i + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j >= n or not src[j].isdigit():
                    raise ParseError("malformed number", src, start)
                i = j
                while i < n and src[i].isdigit():
                    i += 1
            out.append(_Token("num", src[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            out.append(_Token("ident", src[start:i], start))
            continue
        if ch in "+-*/^()":
            out.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", src, i)
    out.append(_Token("eof", "", n))
    return out


class _Parser:
    def __init__(self, src: str, chart: ChartSpec):
        self.src = src
        self.chart = chart
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            got = repr(tok.text) if tok.text else "end of input"
            raise ParseError(f"expected {text!r}, got {got}", self.src, tok.pos)

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after expression", self.src, tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        negate = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            negate = True
        e = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            exponent = self.fraction_atom()
            e = Pow(e, exponent)
        return Neg(e) if negate else e

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", self.src, tok.pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in self.chart.coord_names:
                return Coord(self.chart.axis(tok.text), tok.text)
            if tok.text in CONSTANTS:
                return Const(CONSTANTS[tok.text])
            raise ParseError(f"unknown identifier {tok.text!r}", self.src, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        got = repr(tok.text) if tok.text else "end of input"
        raise ParseError(f"unexpected {got}", self.src, tok.pos)

    # Exponents are evaluated to exact rationals at parse time.  Decimal literals
    # convert exactly (0.1 -> 1/10), so printing and reparsing is stable.

    def fraction_atom(self) -> Fraction:
        tok = self.next()
        if tok.kind == "num":
            return Fraction(Decimal(tok.text))
        if tok.kind == "op" and tok.text == "(":
            value = self.fraction_expr()
            self.expect_op(")")
            return value
        raise ParseError("power exponent must be a rational constant", self.src, tok.pos)

    def fraction_expr(self) -> Fraction:
        value = self.fraction_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.fraction_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def fraction_term(self) -> Fraction:
        value = self.fraction_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            rhs = self.fraction_factor()
            if op.text == "/":
                if rhs == 0:
                    raise ParseError("division by zero in exponent", self.src, op.pos)
                value = value / rhs
            else:
                value = value * rhs
        return value

    def fraction_factor(self) -> Fraction:
        negate = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            negate = True
        tok = self.peek()
        value = self.fraction_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            exponent = self.fraction_atom()
            if exponent.denominator != 1:
                raise ParseError("nested exponent must be an integer", self.src, tok.pos)
            value = value ** exponent.numerator
        return -value if negate else value


# ---------------------------------------------------------------------------
# scalar fields


@dataclass(frozen=True)
class ScalarField:
    """Expression tree bound to a chart.  Supports arithmetic and symbolic d()."""

    chart: ChartSpec
    expr: Expr

    def __call__(self, p) -> float:
        return eval_jet(self, p, 0).value

    def d(self, axis) -> "ScalarField":
        """Symbolic partial derivative along a coordinate (by index or name)."""
        if isinstance(axis, str):
            axis = self.chart.axis(axis)
        return ScalarField(self.chart, diff_expr(self.expr, axis))

    def pretty(self) -> str:
        return pretty_print(self.expr)

    def _coerce(self, other) -> Expr:
        if isinstance(other, ScalarField):
            if other.chart != self.chart:
                raise ValueError("fields live on different charts")
            return other.expr
        if isinstance(other, (int, float)):
            return const_expr(float(other))
        return NotImplemented

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, add_expr(self.expr, rhs))

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, sub_expr(self.expr, rhs))

    def __rsub__(self, other):
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, sub_expr(lhs, self.expr))

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, mul_expr(self.expr, rhs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, div_expr(self.expr, rhs))

    def __rtruediv__(self, other):
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, div_expr(lhs, self.expr))

    def __pow__(self, exponent):
        return ScalarField(self.chart, pow_expr(self.expr, Fraction(exponent)))

    def __neg__(self):
        return ScalarField(self.chart, neg_expr(self.expr))

    @property
    def is_zero(self) -> bool:
        return _is_const(self.expr, 0.0)


def parse_field(src: str, chart: ChartSpec) -> ScalarField:
    """Parse an expression over the chart coordinates into a ScalarField."""
    return ScalarField(chart, _Parser(src, chart).parse())


def constant(chart: ChartSpec, value: float) -> ScalarField:
    return ScalarField(chart, const_expr(value))


def coordinate(chart: ChartSpec, name: str) -> ScalarField:
    return ScalarField(chart, Coord(chart.axis(name), name))


def exp(f: ScalarField) -> ScalarField:
    return ScalarField(f.chart, Call("exp", f.expr))


def ln(f: ScalarField) -> ScalarField:
    return ScalarField(f.chart, Call("ln", f.expr))


def sin(f: ScalarField) -> ScalarField:
    return ScalarField(f.chart, Call("sin", f.expr))


def cos(f: ScalarField) -> ScalarField:
    return ScalarField(f.chart, Call("cos", f.expr))


def tan(f: ScalarField) -> ScalarField:
    return ScalarField(f.chart, Call("tan", f.expr))


def sqrt(f: ScalarField) -> ScalarField:
    return ScalarField(f.chart, Call("sqrt", f.expr))


def remap_coordinates(f: ScalarField, chart: ChartSpec, name_map: dict[str, str] | None = None) -> ScalarField:
    """Rebind a field to another chart, matching coordinates by (mapped) name."""

    def rebuild(e: Expr) -> Expr:
        match e:
            case Coord(name=name):
                target = name_map.get(name, name) if name_map else name
                return Coord(chart.axis(target), target)
            case Const():
                return e
            case Add(lhs=a, rhs=b):
                return Add(rebuild(a), rebuild(b))
            case Sub(lhs=a, rhs=b):
                return Sub(rebuild(a), rebuild(b))
            case Mul(lhs=a, rhs=b):
                return Mul(rebuild(a), rebuild(b))
            case Div(lhs=a, rhs=b):
                return Div(rebuild(a), rebuild(b))
            case Neg(arg=a):
                return Neg(rebuild(a))
            case Pow(base=b, exponent=r):
                return Pow(rebuild(b), r)
            case Call(fn=fn, arg=a):
                return Call(fn, rebuild(a))
        raise TypeError(f"not an expression node: {e!r}")

    return ScalarField(chart, rebuild(f.expr))


# ---------------------------------------------------------------------------
# jets: dense truncated Taylor coefficients over graded-lexicographic multi-indices


class JetSpace:
    """Index bookkeeping for jets of a fixed dimension and truncation order.

    Product tables: term k of a product is coefficient ``_gather_a[k]`` of
    the left jet times coefficient ``_gather_b[k]`` of the right, the terms in
    pair order (i, j).  The last term is a spare that ``Jet.__mul__`` sets to
    zero; ``_mul_a`` is the left table without it.  ``_scatter`` is the 0/1
    scatter matrix from terms to coefficients in dense index form: entry
    ``[t, out]`` is the t-th term landing on coefficient ``out``, or the spare
    once ``out`` has no more.
    """

    def __init__(self, dim: int, order: int):
        self.dim = dim
        self.order = order
        indices = sorted(
            (m for m in _cartesian(range(order + 1), repeat=dim) if sum(m) <= order),
            key=lambda m: (sum(m), m),
        )
        self.indices = tuple(indices)
        self.pos = {m: i for i, m in enumerate(indices)}
        self.count = len(indices)
        ia, ib, landing = [], [], [[] for _ in indices]
        for i, ma in enumerate(indices):
            da = sum(ma)
            for j, mb in enumerate(indices):
                if da + sum(mb) <= order:
                    landing[self.pos[tuple(x + y for x, y in zip(ma, mb))]].append(len(ia))
                    ia.append(i)
                    ib.append(j)
        spare = len(ia)
        self._gather_a = np.asarray(ia + [0], dtype=np.intp)
        self._gather_b = np.asarray(ib + [0], dtype=np.intp)
        self._mul_a = self._gather_a[:spare]
        self._scatter = np.asarray(list(_zip_longest(*landing, fillvalue=spare)), dtype=np.intp)
        self.factorials = np.array(
            [math.prod(math.factorial(k) for k in m) for m in indices], dtype=float
        )
        if order >= 1:
            unit = [tuple(1 if k == a else 0 for k in range(dim)) for a in range(dim)]
            self._grad_pos = np.asarray([self.pos[m] for m in unit], dtype=np.intp)
        if order >= 2:
            hess = np.empty((dim, dim), dtype=np.intp)
            for a in range(dim):
                for b in range(dim):
                    m = tuple((1 if k == a else 0) + (1 if k == b else 0) for k in range(dim))
                    hess[a, b] = self.pos[m]
            self._hess_pos = hess


@lru_cache(maxsize=None)
def jet_space(dim: int, order: int) -> JetSpace:
    return JetSpace(dim, order)


class Jet:
    """Taylor coefficients of a scalar, truncated at space.order.

    Coefficients are indexed by graded-lexicographic multi-index; batched
    evaluation adds a trailing point axis, and every operation broadcasts
    over it unchanged.  A product lays its terms out by the space's scatter
    matrix and adds the rows in order, so every coefficient sums its terms in
    pair order whatever the point count, and no point's terms reach another.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    @classmethod
    def constant(cls, space: JetSpace, value: float) -> "Jet":
        c = np.zeros(space.count)
        c[0] = value
        return cls(space, c)

    @classmethod
    def coordinate(cls, space: JetSpace, axis: int, value: float) -> "Jet":
        c = np.zeros(space.count)
        c[0] = value
        if space.order >= 1:
            c[space._grad_pos[axis]] = 1.0
        return cls(space, c)

    @property
    def value(self):
        """Point value: a float, or an array of them for a batched jet."""
        v = self.coeffs[0]
        return float(v) if np.ndim(v) == 0 else v

    def gradient(self) -> np.ndarray:
        if self.space.order < 1:
            raise JetOrderError("gradient needs a jet of order >= 1")
        return self.coeffs[self.space._grad_pos].copy()

    def hessian(self) -> np.ndarray:
        if self.space.order < 2:
            raise JetOrderError("hessian needs a jet of order >= 2")
        h = self.coeffs[self.space._hess_pos].copy()
        idx = np.arange(h.shape[0])
        h[idx, idx] *= 2.0
        return h

    def partial(self, multi) -> float:
        """Partial derivative for a multi-index (coefficient times multi-factorial)."""
        m = tuple(int(k) for k in multi)
        i = self.space.pos.get(m)
        if i is None:
            raise JetOrderError(f"multi-index {m} exceeds jet order {self.space.order}")
        return float(self.coeffs[i] * self.space.factorials[i])

    def _wrap(self, coeffs: np.ndarray) -> "Jet":
        return Jet(self.space, coeffs)

    def __add__(self, other):
        if isinstance(other, Jet):
            return self._wrap(self.coeffs + other.coeffs)
        c = self.coeffs.copy()
        c[0] += other
        return self._wrap(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self._wrap(self.coeffs - other.coeffs)
        c = self.coeffs.copy()
        c[0] -= other
        return self._wrap(c)

    def __rsub__(self, other):
        c = -self.coeffs
        c[0] += other
        return self._wrap(c)

    def __neg__(self):
        return self._wrap(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            s = self.space
            # take, not fancy indexing: it costs half as much on (count, npoints) arrays
            terms = self.coeffs.take(s._gather_a, 0) * other.coeffs.take(s._gather_b, 0)
            terms[-1] = 0.0
            # reducing the leading axis adds whole rows one after another, from +0.0
            return self._wrap(np.add.reduce(terms.take(s._scatter, 0), axis=0, initial=0.0))
        return self._wrap(self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _reciprocal(other)
        return self._wrap(self.coeffs / other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other


def _compose(u: Jet, coeffs_by_order: list) -> Jet:
    """Truncated composition f(u) from Taylor coefficients of f at u.value."""
    w = u._wrap(u.coeffs.copy())
    w.coeffs[0] = 0.0
    out_c = np.zeros_like(u.coeffs)
    out_c[0] = coeffs_by_order[-1]
    out = u._wrap(out_c)
    for c in reversed(coeffs_by_order[:-1]):
        out = out * w + c
    return out


def _reciprocal(u: Jet) -> Jet:
    u0 = u.value
    if np.any(u0 == 0.0):
        raise DomainError("division by zero")
    cs = [1.0 / u0]
    for _ in range(u.space.order):
        cs.append(-cs[-1] / u0)
    return _compose(u, cs)


def _jexp(u: Jet) -> Jet:
    e0 = np.exp(u.value)
    cs = [e0]
    for j in range(1, u.space.order + 1):
        cs.append(cs[-1] / j)
    return _compose(u, cs)


def _jln(u: Jet) -> Jet:
    u0 = u.value
    if np.any(u0 <= 0.0):
        raise DomainError(f"ln of nonpositive value {np.min(u0)}")
    cs = [np.log(u0)]
    if u.space.order >= 1:
        cs.append(1.0 / u0)
        for j in range(2, u.space.order + 1):
            cs.append(-cs[-1] * (j - 1) / (j * u0))
    return _compose(u, cs)


def _jsin(u: Jet) -> Jet:
    cycle = (np.sin(u.value), np.cos(u.value))
    signs = (1.0, 1.0, -1.0, -1.0)
    cs, fact = [], 1.0
    for j in range(u.space.order + 1):
        if j > 0:
            fact *= j
        cs.append(signs[j % 4] * cycle[j % 2] / fact)
    return _compose(u, cs)


def _jcos(u: Jet) -> Jet:
    cycle = (np.cos(u.value), np.sin(u.value))
    signs = (1.0, -1.0, -1.0, 1.0)
    cs, fact = [], 1.0
    for j in range(u.space.order + 1):
        if j > 0:
            fact *= j
        cs.append(signs[j % 4] * cycle[j % 2] / fact)
    return _compose(u, cs)


def _jtan(u: Jet) -> Jet:
    c = _jcos(u)
    if np.any(c.value == 0.0):
        raise DomainError("tan at a pole of cos")
    return _jsin(u) / c


def _jpow_int(u: Jet, k: int) -> Jet:
    if k == 0:
        c = np.zeros_like(u.coeffs)
        c[0] = 1.0
        return u._wrap(c)
    if k < 0:
        if np.any(u.value == 0.0):
            raise DomainError("zero base with negative integer exponent")
        return _reciprocal(_jpow_int(u, -k))
    out = None
    base = u
    e = k
    while e:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if e:
            base = base * base
    return out


def _jpow_frac(u: Jet, r: Fraction) -> Jet:
    u0 = u.value
    fr = float(r)
    if np.any(u0 < 0.0) or (np.any(u0 == 0.0) and (r < 0 or u.space.order >= 1)):
        raise DomainError(f"base {np.min(u0)} outside the domain of exponent {r}")
    if np.any(u0 == 0.0):
        if np.all(u0 == 0.0):
            return u._wrap(np.zeros_like(u.coeffs))
        raise DomainError(f"mixed zero and nonzero bases for exponent {r}")
    cs = [u0**fr]
    for j in range(1, u.space.order + 1):
        cs.append(cs[-1] * (fr - (j - 1)) / (j * u0))
    return _compose(u, cs)


def _jpow(u: Jet, r: Fraction) -> Jet:
    if r.denominator == 1:
        return _jpow_int(u, r.numerator)
    return _jpow_frac(u, r)


def _jsqrt(u: Jet) -> Jet:
    return _jpow_frac(u, Fraction(1, 2))


_CALL_TABLE = {
    "exp": _jexp,
    "ln": _jln,
    "sin": _jsin,
    "cos": _jcos,
    "tan": _jtan,
    "sqrt": _jsqrt,
}


def _check_order(dim: int, order: int, max_order: int | None) -> JetSpace:
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    cap = configured_max_order() if max_order is None else max_order
    if order > cap:
        raise JetOrderError(f"jet order {order} exceeds configured maximum {cap}")
    return jet_space(dim, order)


def _jet_seeds(space: JetSpace, pt: np.ndarray) -> list[Jet]:
    """Coordinate jets at one point (shape (dim,)) or a batch (shape (npoints, dim))."""
    batched = pt.ndim == 2
    shape = (space.count, pt.shape[0]) if batched else (space.count,)
    seeds = []
    for a in range(space.dim):
        c = np.zeros(shape)
        c[0] = pt[:, a] if batched else pt[a]
        if space.order >= 1:
            c[space._grad_pos[a]] = 1.0
        seeds.append(Jet(space, c))
    return seeds


def _run_jets(exprs, space: JetSpace, seeds: list[Jet]) -> list[Jet]:
    """Evaluate expression trees over shared seeds with one subtree memo."""
    shape = seeds[0].coeffs.shape
    memo: dict[int, Jet] = {}

    def const(v: float) -> Jet:
        c = np.zeros(shape)
        c[0] = v
        return Jet(space, c)

    def ev(e: Expr) -> Jet:
        got = memo.get(id(e))
        if got is not None:
            return got
        match e:
            case Const(value=v):
                j = const(v)
            case Coord(index=a):
                j = seeds[a]
            case Add(lhs=a, rhs=b):
                j = ev(a) + ev(b)
            case Sub(lhs=a, rhs=b):
                j = ev(a) - ev(b)
            case Mul(lhs=a, rhs=b):
                j = ev(a) * ev(b)
            case Div(lhs=a, rhs=b):
                denom = ev(b)
                if np.any(denom.value == 0.0):
                    raise DomainError("division by a field vanishing here")
                j = ev(a) * _reciprocal(denom)
            case Neg(arg=a):
                j = -ev(a)
            case Pow(base=b, exponent=r):
                j = _jpow(ev(b), r)
            case Call(fn=fn, arg=a):
                j = _CALL_TABLE[fn](ev(a))
            case _:
                raise TypeError(f"not an expression node: {e!r}")
        memo[id(e)] = j
        return j

    # ev reaches itself through its closure, so without the clear the memo's
    # jets would stay alive until the cycle collector happens to run
    try:
        return [ev(x) for x in exprs]
    finally:
        memo.clear()


def eval_jet(f: ScalarField, p, order: int, *, max_order: int | None = None) -> Jet:
    """Jet of f at p.  Shared subtrees are evaluated once (id-based memo)."""
    space = _check_order(f.chart.dim, order, max_order)
    pt = f.chart.require_point(p)
    seeds = _jet_seeds(space, np.asarray(pt))
    try:
        return _run_jets([f.expr], space, seeds)[0]
    except DomainError as err:
        raise DomainError(f"{err} at point {pt}") from None


def eval_jets_batch(fields, points, order: int, *, max_order: int | None = None) -> list[Jet]:
    """Jets of several fields over an array of points, one shared pass.

    Coefficient arrays gain a trailing point axis; subtrees shared within
    or across the fields are evaluated once for the whole batch.
    """
    fields = list(fields)
    if not fields:
        return []
    chart = fields[0].chart
    for f in fields[1:]:
        if f.chart != chart:
            raise ValueError("fields live on different charts")
    space = _check_order(chart.dim, order, max_order)
    pts = chart.require_points(points)
    seeds = _jet_seeds(space, pts)
    return _run_jets([f.expr for f in fields], space, seeds)


def eval_jet_batch(f: ScalarField, points, order: int, *, max_order: int | None = None) -> Jet:
    """Jet of one field over an array of points (trailing point axis)."""
    return eval_jets_batch([f], points, order, max_order=max_order)[0]


def partials(f: ScalarField, p, upto: int) -> dict[tuple[int, ...], float]:
    """All partial derivatives of f at p with total order <= upto, keyed by multi-index."""
    jet = eval_jet(f, p, upto)
    space = jet.space
    return {
        m: float(jet.coeffs[i] * space.factorials[i])
        for i, m in enumerate(space.indices)
    }
