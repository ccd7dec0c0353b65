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
import operator
import re
import threading
import weakref
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product as _cartesian
from itertools import zip_longest as _zip_longest

import numpy as np

from .errors import DomainError, JetOrderError, ParseError

FUNCTIONS = ("exp", "ln", "sin", "cos", "tan", "sqrt")
CONSTANTS = {"pi": math.pi}
RESERVED_NAMES = frozenset(FUNCTIONS) | frozenset(CONSTANTS)

# Power exponents are exact rationals; the numerator and denominator of every
# value met while parsing one must fit in this many bits.
MAX_EXPONENT_BITS = 1000

# Highest order eval_jet and its batches accept: enough for every operation
# in the package, and a bound on the coefficient count of every jet.
MAX_JET_ORDER = 3


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
        lo, hi = np.array(box).T
        slack = 1e-9 * (hi - lo) + 1e-12  # tiny slack for roundoff
        object.__setattr__(self, "_bounds", (lo - slack, hi + slack))

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def axis(self, name: str) -> int:
        try:
            return self.coord_names.index(name)
        except ValueError:
            raise KeyError(f"no coordinate {name!r} in chart {self.coord_names}") from None

    def require_points(self, pts) -> np.ndarray:
        """Validate an array of point rows against the box (tiny slack for roundoff)."""
        arr = np.asarray(pts, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"expected rows of {self.dim} coordinates, got an array of shape {arr.shape}")
        lo, hi = self._bounds
        # written so that a NaN is outside
        inside = (arr >= lo) & (arr <= hi)
        if not inside.all():
            a = int(np.argmin(inside.all(axis=0)))
            x = float(arr[int(np.argmin(inside[:, a])), a])
            (blo, bhi), name = self.box[a], self.coord_names[a]
            raise DomainError(f"coordinate {name}={x} outside box [{blo}, {bhi}]")
        return arr

    def midpoint(self) -> tuple[float, ...]:
        return tuple(0.5 * (lo + hi) for lo, hi in self.box)


# ---------------------------------------------------------------------------
# expression nodes


class Expr:
    """Node of an expression DAG, interned: one live node per structure.

    A node is its type and its fields (``__match_args__``, in constructor
    order): operand nodes (``operands()``, in evaluation order) and labels.
    Building a node, also by copy or unpickling, gives the live node of its
    structure if there is one, so equality and hashing are identity.  Nodes
    are immutable; ``_diff`` holds the memo of :func:`diff_expr`.
    """

    __slots__ = ("_diff", "__weakref__")

    def operands(self) -> tuple:
        return ()

    def __setattr__(self, name, value):
        raise AttributeError(f"expression nodes are immutable; cannot set {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))

    def __repr__(self):
        return f"<{type(self).__name__} {pretty_print(self)}>"


_nodes: dict = {}
_sweep_at = 1024
_lock = threading.RLock()
_set = object.__setattr__


def _node(cls, key: tuple, *fields) -> Expr:
    """The live node under key, else a new node of cls with fields, entered under key.

    The table maps a node's type, operand ids and labels (a float by its
    float.hex: -0.0 is not 0.0) to a weak reference; a live node holds its
    operands, so its key's ids stay current.  Dead entries go as it doubles.
    """
    global _nodes, _sweep_at
    with _lock:
        if (ref := _nodes.get(key)) is not None and (e := ref()) is not None:
            return e
        e = object.__new__(cls)
        _set(e, "_diff", None)
        for name, v in zip(cls.__match_args__, fields):
            _set(e, name, v)
        if len(_nodes) >= _sweep_at:
            _nodes = {k: r for k, r in _nodes.items() if r() is not None}
            _sweep_at = max(2 * len(_nodes), 1024)
        _nodes[key] = weakref.ref(e)
    return e


class Const(Expr):
    __slots__ = __match_args__ = ("value",)

    def __new__(cls, value):
        return _node(cls, (cls, float(value).hex()), float(value))


class Coord(Expr):
    __slots__ = __match_args__ = ("index", "name")

    def __new__(cls, index, name):
        return _node(cls, (cls, index, name), index, name)


class _Binary(Expr):
    __slots__ = __match_args__ = ("lhs", "rhs")

    def __new__(cls, lhs, rhs):
        return _node(cls, (cls, id(lhs), id(rhs)), lhs, rhs)

    def operands(self) -> tuple:
        return (self.lhs, self.rhs)


Add, Sub, Mul, Div = (type(name, (_Binary,), {"__slots__": ()}) for name in ("Add", "Sub", "Mul", "Div"))


class Neg(Expr):
    __slots__ = __match_args__ = ("arg",)

    def __new__(cls, arg):
        return _node(cls, (cls, id(arg)), arg)

    def operands(self) -> tuple:
        return (self.arg,)


class Pow(Expr):
    __slots__ = __match_args__ = ("base", "exponent")

    def __new__(cls, base, exponent):
        return _node(cls, (cls, id(base), exponent), base, exponent)

    def operands(self) -> tuple:
        return (self.base,)


class Call(Expr):
    __slots__ = __match_args__ = ("fn", "arg")

    def __new__(cls, fn, arg):
        return _node(cls, (cls, fn, id(arg)), fn, arg)

    def operands(self) -> tuple:
        return (self.arg,)


def _walk(roots, rule, known=None) -> list:
    """Results of rule over the DAG under roots, operands before their node.

    The one traversal of expressions: an explicit stack, so depth is bounded
    by memory rather than the recursion limit, and a memo keyed by id, so a
    shared node is visited once.  rule(e, args) gets the results of e's
    operands in order and must not return None.  known(e), if given, may
    return a result found earlier for a node with operands; the walk then
    takes it and does not descend below e.
    """
    done: dict[int, object] = {}
    get = done.get
    todo: list = list(reversed(roots))
    pop, push = todo.pop, todo.append
    results: list = []
    keep = results.append
    while todo:
        e = pop()
        if type(e) is tuple:
            # the results of this node's n operands are the last n results
            e, n = e
            r = done[id(e)] = rule(e, results[-n:])
            del results[-n:]
        else:
            r = get(id(e))
            if r is None:
                kids = e.operands()
                if not kids:
                    r = done[id(e)] = rule(e, [])
                elif known is None or (r := known(e)) is None:
                    push((e, len(kids)))
                    for k in reversed(kids):
                        push(k)
                    continue
        keep(r)
    return results


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


# ---------------------------------------------------------------------------
# symbolic partial derivative (tree construction only, no simplification)


def diff_expr(e: Expr, axis: int) -> Expr:
    """Partial derivative of e along axis, built once per (node, axis).

    The result is memoized on the node (``_diff``): equal subtrees, wherever
    built, are one node with one memo, and the walk stops at any node whose
    derivative is already built.
    """

    def known(n: Expr) -> Expr | None:
        return n._diff and n._diff.get(axis)

    def rule(n: Expr, ds) -> Expr:
        t = type(n)
        if t is Const:
            return _ZERO
        if t is Coord:
            return _ONE if n.index == axis else _ZERO
        if t is Mul:
            (a, b), (da, db) = n.operands(), ds
            d = add_expr(mul_expr(da, b), mul_expr(a, db))
        elif t is Add:
            d = add_expr(*ds)
        elif t is Sub:
            d = sub_expr(*ds)
        elif t is Pow:
            (b,), (db,) = n.operands(), ds
            r = n.exponent
            d = _ZERO if _is_const(db, 0.0) else mul_expr(mul_expr(const_expr(float(r)), pow_expr(b, r - 1)), db)
        elif t is Div:
            (a, b), (da, db) = n.operands(), ds
            num = sub_expr(mul_expr(da, b), mul_expr(a, db))
            d = _ZERO if _is_const(num, 0.0) else div_expr(num, pow_expr(b, 2))
        elif t is Neg:
            d = neg_expr(*ds)
        else:
            d = _chain_rule(n, *ds)
        _set(n, "_diff", {**(n._diff or {}), axis: d})
        return d

    # most calls are on a leaf or on a node already differentiated
    if not e.operands():
        return rule(e, ())
    return known(e) or _walk([e], rule, known)[0]


def _chain_rule(e: Call, da: Expr) -> Expr:
    """Derivative of e = fn(a) given the derivative da of its argument."""
    if _is_const(da, 0.0):
        return _ZERO
    (a,) = e.operands()
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
# pretty printer; parse_field(pretty_print(f)) reproduces the tree exactly, but
# a Const(-0.0), which only arithmetic builds, prints as 0 and reparses as +0.0

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 0, 1, 2, 3, 4


def _fmt_number(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt_exponent(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator) if r.numerator >= 0 else f"({r.numerator})"
    return f"({r.numerator}/{r.denominator})"


# operator nodes: their own level and a template of text and, as ints, the
# lowest level at which each operand in turn prints without parentheses
_TEMPLATES = {
    Neg: (_LEVEL_NEG, ("-", _LEVEL_NEG + 1)),
    Mul: (_LEVEL_MUL, (_LEVEL_MUL, "*", _LEVEL_MUL + 1)),
    Div: (_LEVEL_MUL, (_LEVEL_MUL, "/", _LEVEL_MUL + 1)),
    Add: (_LEVEL_ADD, (_LEVEL_ADD, " + ", _LEVEL_ADD + 1)),
    Sub: (_LEVEL_ADD, (_LEVEL_ADD, " - ", _LEVEL_ADD + 1)),
}


def _fmt(root: Expr) -> str:
    """Text of root, built from an explicit stack of pieces still to write."""
    out: list[str] = []
    stack: list = [(root, _LEVEL_ADD)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, level = item
        match e:
            case Const(value=v):
                mine, template = _LEVEL_ATOM, [_fmt_number(v)]
            case Coord(name=name):
                mine, template = _LEVEL_ATOM, [name]
            case Call(fn=fn):
                mine, template = _LEVEL_ATOM, [f"{fn}(", _LEVEL_ADD, ")"]
            case Pow(exponent=r):
                mine, template = _LEVEL_POW, [_LEVEL_ATOM, f"^{_fmt_exponent(r)}"]
            case _ if type(e) in _TEMPLATES:
                mine, template = _TEMPLATES[type(e)]
            case _:
                raise TypeError(f"not an expression node: {type(e).__name__}")
        operands = iter(e.operands())
        pieces = [p if type(p) is str else (next(operands), p) for p in template]
        if mine < level:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    return "".join(out)


def pretty_print(f) -> str:
    return _fmt(f.expr if isinstance(f, ScalarField) else f)


# ---------------------------------------------------------------------------
# tokenizer / parser


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident op eof
    text: str
    pos: int


# a number (an exponent marker without digits is caught below), an
# identifier, an operator, or any other non-space character
_TOKEN = re.compile(r"(\d+(?:\.\d*)?(?:[eE][+-]?\d*)?)|([^\W\d_]\w*)|([-+*/^()])|(\S)")


def _tokenize(src: str) -> list[_Token]:
    out = []
    for m in _TOKEN.finditer(src):
        num, ident, op, other = m.groups()
        pos = m.start()
        if num is not None:
            if num[-1] in "eE+-":
                raise ParseError("malformed number", src, pos)
            if not math.isfinite(float(num)):
                raise ParseError("number out of range", src, pos)
            out.append(_Token("num", num, pos))
        elif ident is not None:
            out.append(_Token("ident", ident, pos))
        elif op is not None:
            out.append(_Token("op", op, pos))
        else:
            raise ParseError(f"unexpected character {other!r}", src, pos)
    out.append(_Token("eof", "", len(src)))
    return out


# what each binary operator builds in a field, and computes in an exponent
_BINARY_NODES = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    """Recursive descent over the module's grammar.  With ``exact`` a rule
    evaluates its text to a bounded exact rational instead of building
    nodes, as it does for a power's exponent.  Decimal literals convert
    exactly (0.1 -> 1/10), so printing and reparsing is stable.
    """

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

    def at(self, ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

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

    def expr(self, exact: bool = False) -> Expr | Fraction:
        value = self.term(exact)
        while self.at("+-"):
            op = self.next()
            value = self.binary(op, value, self.term(exact), exact)
        return value

    def term(self, exact: bool = False) -> Expr | Fraction:
        value = self.factor(exact)
        while self.at("*/"):
            op = self.next()
            value = self.binary(op, value, self.factor(exact), exact)
        return value

    def factor(self, exact: bool = False) -> Expr | Fraction:
        negate = self.at("-")
        if negate:
            self.next()
        tok = self.peek()
        value = self.atom(exact)
        if self.at("^"):
            op = self.next()
            exponent = self.atom(True)
            value = self.power(value, exponent, tok, op) if exact else Pow(value, exponent)
        if negate:
            return -value if exact else Neg(value)
        return value

    def atom(self, exact: bool = False) -> Expr | Fraction:
        tok = self.next()
        if tok.kind == "op" and tok.text == "(":
            value = self.expr(exact)
            self.expect_op(")")
            return value
        if exact:
            if tok.kind != "num":
                raise ParseError("power exponent must be a rational constant", self.src, tok.pos)
            d = Decimal(tok.text)
            # 10**k has more than k bits: decline before building it
            if d and abs(d.adjusted()) > MAX_EXPONENT_BITS:
                raise ParseError("exponent out of range", self.src, tok.pos)
            return self.bounded(Fraction(d), tok.pos)
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "ident":
            if self.at("("):
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
        got = repr(tok.text) if tok.text else "end of input"
        raise ParseError(f"unexpected {got}", self.src, tok.pos)

    def binary(self, op: _Token, a, b, exact: bool) -> Expr | Fraction:
        if not exact:
            return _BINARY_NODES[op.text](a, b)
        if op.text == "/" and b == 0:
            raise ParseError("division by zero in exponent", self.src, op.pos)
        return self.bounded(_BINARY_OPS[op.text](a, b), op.pos)

    def power(self, base: Fraction, exponent: Fraction, tok: _Token, op: _Token) -> Fraction:
        """base^exponent for an exponent nested in an exponent; tok starts the base."""
        if exponent.denominator != 1:
            raise ParseError("nested exponent must be an integer", self.src, tok.pos)
        k = exponent.numerator
        if base == 0 and k < 0:
            raise ParseError("division by zero in exponent", self.src, op.pos)
        # a base other than 0 and +-1 gains at least one bit per power
        if abs(k) > MAX_EXPONENT_BITS and abs(base) != 1 and base != 0:
            raise ParseError("exponent out of range", self.src, op.pos)
        return self.bounded(base**k, op.pos)

    def bounded(self, value: Fraction, pos: int) -> Fraction:
        if max(abs(value.numerator), value.denominator).bit_length() > MAX_EXPONENT_BITS:
            raise ParseError("exponent out of range", self.src, pos)
        return value


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

    @classmethod
    def of(cls, chart: ChartSpec, value) -> "ScalarField":
        """A field on ``chart`` from a field on it, expression text or a number."""
        if isinstance(value, ScalarField):
            if value.chart != chart:
                raise ValueError("field lives on a different chart")
            return value
        if isinstance(value, str):
            return parse_field(value, chart)
        return constant(chart, float(value))

    def _combine(self, other, build, reflected: bool = False):
        """build(self, other), or build(other, self) when reflected."""
        if isinstance(other, ScalarField):
            if other.chart != self.chart:
                raise ValueError("fields live on different charts")
            e = other.expr
        elif isinstance(other, (int, float)):
            e = const_expr(float(other))
        else:
            return NotImplemented
        return ScalarField(self.chart, build(e, self.expr) if reflected else build(self.expr, e))

    def __add__(self, other):
        return self._combine(other, add_expr)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub_expr)

    def __rsub__(self, other):
        return self._combine(other, sub_expr, True)

    def __mul__(self, other):
        return self._combine(other, mul_expr)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, div_expr)

    def __rtruediv__(self, other):
        return self._combine(other, div_expr, True)

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


def _elementary(fn: str):
    def apply(f: ScalarField) -> ScalarField:
        return ScalarField(f.chart, Call(fn, f.expr))

    apply.__name__ = apply.__qualname__ = fn
    return apply


exp, ln, sin, cos, tan, sqrt = map(_elementary, FUNCTIONS)


def remap_coordinates(f: ScalarField, chart: ChartSpec) -> ScalarField:
    """Rebind a field to another chart, each coordinate to the one of the same name.

    KeyError when ``chart`` lacks one.  Subtrees shared in f are shared in the result.
    """

    def rebuild(e: Expr, args: list) -> Expr:
        match e:
            case Coord(name=name):
                return Coord(chart.axis(name), name)
            case Const():
                return e
            case Pow(exponent=r):
                return Pow(*args, r)
            case Call(fn=fn):
                return Call(fn, *args)
        # the binary nodes and Neg hold nothing but their operands
        return type(e)(*args)

    return ScalarField(chart, _walk([f.expr], rebuild)[0])


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

    Coefficients are indexed by graded-lexicographic multi-index along the
    first axis.  Evaluation always carries a trailing point axis, and every
    operation broadcasts over it unchanged; only :func:`eval_jet` hands out
    a 1-D jet, the column of its batch of one.  A product lays its terms out
    by the space's scatter matrix and adds the rows in order, so every
    coefficient sums its terms in pair order whatever the point count, and
    no point's terms reach another.

    ``constant`` marks the jet of a constant: every coefficient past the
    value is a signed zero.  Sums, differences and negations of constants
    stay constant, and so does a constant times a plain number.  A product
    with a plain number c is the product with the constant jet of c:
    ``coeffs * c + 0.0``, the bits of the full product wherever that is
    finite, in ``count`` products per point instead of the full table.
    """

    __slots__ = ("space", "coeffs", "constant")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, constant: bool = False):
        self.space = space
        self.coeffs = coeffs
        self.constant = constant

    @property
    def value(self):
        """Point value: a float for a 1-D jet, an array over the points of a batch."""
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

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.coeffs + other.coeffs, self.constant and other.constant)
        c = self.coeffs.copy()
        c[0] += other
        return Jet(self.space, c, self.constant)

    def __sub__(self, other):
        return Jet(self.space, self.coeffs - other.coeffs, self.constant and other.constant)

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.constant)

    def __mul__(self, other):
        if isinstance(other, Jet):
            s = self.space
            # take, not fancy indexing: it costs half as much on (count, npoints) arrays
            terms = self.coeffs.take(s._gather_a, 0) * other.coeffs.take(s._gather_b, 0)
            terms[-1] = 0.0
            # reducing the leading axis adds whole rows one after another, from +0.0
            return Jet(s, np.add.reduce(terms.take(s._scatter, 0), axis=0, initial=0.0))
        return Jet(self.space, self.coeffs * other + 0.0, self.constant)


def _compose(u: Jet, coeffs_by_order: list) -> Jet:
    """Truncated composition f(u) from Taylor coefficients of f at u.value (order >= 1).

    Horner's rule in w = u - u.value.  It starts from the constant jet of
    the last coefficient, so its first step is a scaling of w.
    """
    w = Jet(u.space, u.coeffs.copy())
    w.coeffs[0] = 0.0
    *rest, last = coeffs_by_order
    out = w * last + rest.pop()
    for c in reversed(rest):
        out = out * w + c
    return out


# Each elementary function's domain check and Taylor coefficients at the
# point value u0 (a float for the value path at one point, else an array over
# the batch), up to the given order.
# The jet path composes the whole list; the value path of order 0 takes its
# first entry, so both raise the same DomainError at the same values.


def _reciprocal_coeffs(u0, order: int) -> list:
    if np.any(u0 == 0.0):
        raise DomainError("division by zero")
    cs = [1.0 / u0]
    for _ in range(order):
        cs.append(-cs[-1] / u0)
    return cs


def _exp_coeffs(u0, order: int) -> list:
    cs = [np.exp(u0)]
    for j in range(1, order + 1):
        cs.append(cs[-1] / j)
    return cs


def _ln_coeffs(u0, order: int) -> list:
    if np.any(u0 <= 0.0):
        raise DomainError(f"ln of nonpositive value {np.min(u0)}")
    cs = [np.log(u0)]
    if order >= 1:
        cs.append(1.0 / u0)
        for j in range(2, order + 1):
            cs.append(-cs[-1] * (j - 1) / (j * u0))
    return cs


def _trig_coeffs(u0, order: int, fns: tuple, signs: tuple) -> list:
    """sin or cos: their derivatives cycle through two values and four signs."""
    cycle = [fn(u0) for fn in fns[: order + 1]]
    cs, fact = [], 1.0
    for j in range(order + 1):
        if j > 0:
            fact *= j
        cs.append(signs[j % 4] * cycle[j % 2] / fact)
    return cs


def _sin_coeffs(u0, order: int) -> list:
    return _trig_coeffs(u0, order, (np.sin, np.cos), (1.0, 1.0, -1.0, -1.0))


def _cos_coeffs(u0, order: int) -> list:
    return _trig_coeffs(u0, order, (np.cos, np.sin), (1.0, -1.0, -1.0, 1.0))


def _tan_coeffs(u0, order: int) -> tuple[list, list]:
    """Coefficients of sin and of cos, whose quotient is tan."""
    cos_cs = _cos_coeffs(u0, order)
    if np.any(cos_cs[0] == 0.0):
        raise DomainError("tan at a pole of cos")
    return _sin_coeffs(u0, order), cos_cs


def _pow_frac_coeffs(u0, r: Fraction, order: int) -> list:
    """u0**r for a non-integer r.  The leading power is np.power's, one ufunc
    loop for a float and for a row: a float's ** (libm pow) differs from it
    in the last place at some bases."""
    fr = float(r)
    if np.any(u0 < 0.0) or (np.any(u0 == 0.0) and (r < 0 or order >= 1)):
        raise DomainError(f"base {np.min(u0)} outside the domain of exponent {r}")
    if np.any(u0 == 0.0):
        # only at order 0: a zero base, +0.0 or -0.0, gives +0.0 (abs where every
        # base is zero) and any other base np.power's value, as it would alone
        return [abs(u0) if np.all(u0 == 0.0) else np.where(u0 == 0.0, 0.0, np.power(u0, fr))]
    cs = [np.power(u0, fr)]
    for j in range(1, order + 1):
        cs.append(cs[-1] * (fr - (j - 1)) / (j * u0))
    return cs


_TAYLOR = {
    "exp": _exp_coeffs,
    "ln": _ln_coeffs,
    "sin": _sin_coeffs,
    "cos": _cos_coeffs,
    "sqrt": lambda u0, order: _pow_frac_coeffs(u0, Fraction(1, 2), order),
}


def _check_divisor(v) -> None:
    if np.any(v == 0.0):
        raise DomainError("division by a field vanishing here")


def _int_power(u, u0, k: int, mul):
    """u**abs(k) by repeated squaring, multiplying with mul; u0 is u's value."""
    if k < 0 and np.any(u0 == 0.0):
        raise DomainError("zero base with negative integer exponent")
    out = None
    base = u
    e = abs(k)
    while e:
        if e & 1:
            out = base if out is None else mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


def _reciprocal(u: Jet) -> Jet:
    return _compose(u, _reciprocal_coeffs(u.value, u.space.order))


def _jpow(u: Jet, r: Fraction) -> Jet:
    if r.denominator != 1:
        return _compose(u, _pow_frac_coeffs(u.value, r, u.space.order))
    k = r.numerator
    if k == 0:
        c = np.zeros_like(u.coeffs)
        c[0] = 1.0
        return Jet(u.space, c, True)
    out = _int_power(u, u.value, k, operator.mul)
    return _reciprocal(out) if k < 0 else out


def _node_value(e: Expr, u0, order: int, one):
    """Order-0 value of a Pow or Call node at its operand's value u0, as the
    jet arithmetic computes it; ``one`` is the value one.  The domain helpers
    run at ``order``, so they raise a jet of that order's DomainErrors.  Each
    product's sum of terms starts from +0.0, as a jet product's does."""
    if type(e) is Pow:
        r = e.exponent
        if r.denominator != 1:
            return _pow_frac_coeffs(u0, r, order)[0]
        k = r.numerator
        if k == 0:
            return one
        out = _int_power(u0, u0, k, lambda a, b: 0.0 + a * b)
        return _reciprocal_coeffs(out, 0)[0] if k < 0 else out
    if e.fn == "tan":
        sin_cs, cos_cs = _tan_coeffs(u0, order)
        return 0.0 + sin_cs[0] * _reciprocal_coeffs(cos_cs[0], 0)[0]
    return _TAYLOR[e.fn](u0, order)[0]


def _constant_call(e: Expr, u: Jet) -> Jet:
    """Jet of a Pow (exponent other than 1) or Call node of the constant jet u.

    The full jet arithmetic gives such a node the value 0.0 plus its order-0
    value, then +0.0s, wherever the Taylor coefficients are finite; here the
    value alone is computed, at the jet's order (:func:`_node_value`).
    """
    c = np.zeros_like(u.coeffs)
    c[0] = 0.0 + _node_value(e, u.value, u.space.order, 1.0)
    return Jet(u.space, c, True)


def _check_order(dim: int, order: int) -> JetSpace:
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    if order > MAX_JET_ORDER:
        raise JetOrderError(f"jet order {order} exceeds the maximum {MAX_JET_ORDER}")
    return jet_space(dim, order)


def _jet_seeds(space: JetSpace, pts: np.ndarray) -> list[Jet]:
    """Coordinate jets over a batch of points, shape (npoints, dim)."""
    seeds = []
    for a in range(space.dim):
        c = np.zeros((space.count, len(pts)))
        c[0] = pts[:, a]
        if space.order >= 1:
            c[space._grad_pos[a]] = 1.0
        seeds.append(Jet(space, c))
    return seeds


def _jet_rule(space: JetSpace, seeds: list[Jet]):
    """Rule of Program.run evaluating each node as a jet over the seeds' points, at order >= 1.

    A Const, and a node whose operands are all constant, gives a constant
    jet (``Jet.constant``), one column wide: numpy broadcasts it over the
    points in every rule with the bits of a full-width one, and
    :func:`_run_jets` widens a constant root.  A product with a constant
    scales the other operand by the constant's value, and a quotient by one
    scales by ``0.0 + 1/c``; a power or function of a constant computes its
    value alone (:func:`_constant_call`).  Wherever the full jet arithmetic
    gives finite coefficients these are its bits.  Where a constant's higher
    Taylor coefficient overflows (``x/1e-200`` at order 1) the full
    arithmetic turns the value NaN; here it stays finite.
    """
    count, npoints = seeds[0].coeffs.shape
    # zero columns over an empty batch, so a constant's domain check sees no value, as a seed's does
    shape = (count, min(npoints, 1))

    def jet(e: Expr, args: list) -> Jet:
        # type tests in order of frequency: a match statement's isinstance
        # chain made whole evaluations about 20% slower
        t = type(e)
        if t is Mul:
            a, b = args
            if b.constant:
                return a * b.coeffs[0]
            if a.constant:
                return b * a.coeffs[0]
            return a * b
        if t is Add:
            return args[0] + args[1]
        if t is Sub:
            return args[0] - args[1]
        if t is Const:
            c = np.zeros(shape)
            c[0] = e.value
            return Jet(space, c, True)
        if t is Coord:
            return seeds[e.index]
        if t is Pow:
            u = args[0]
            if u.constant and e.exponent != 1:
                return _constant_call(e, u)
            return _jpow(u, e.exponent)
        if t is Div:
            a, b = args
            _check_divisor(b.value)
            if b.constant:
                return a * (0.0 + 1.0 / b.coeffs[0])
            r = _reciprocal(b)
            return r * a.coeffs[0] if a.constant else a * r
        if t is Neg:
            return -args[0]
        if t is Call:
            u = args[0]
            if u.constant:
                return _constant_call(e, u)
            if e.fn == "tan":
                sin_cs, cos_cs = _tan_coeffs(u.value, space.order)
                return _compose(u, sin_cs) * _reciprocal(_compose(u, cos_cs))
            return _compose(u, _TAYLOR[e.fn](u.value, space.order))
        raise TypeError(f"not an expression node: {type(e).__name__}")

    return jet


def _value_rule(seeds: list[Jet]):
    """Rule of Program.run evaluating each node's value alone, as the jet arithmetic does at order 0.

    Over a batch of one point a value is a float, over a larger batch an
    (npoints,) array, and a constant a float (over no points an empty array, so
    its domain check sees no value); each step is the one the order-0 jet applies
    to its single coefficient, so a point's value does not depend on its batch.
    """
    npoints = seeds[0].coeffs.shape[1]
    single = npoints == 1
    values = [float(s.coeffs[0, 0]) if single else s.coeffs[0] for s in seeds]
    const = float if npoints else partial(np.full, 0, dtype=float)
    one = const(1.0)

    def value(e: Expr, args: list):
        t = type(e)
        if t is Mul:
            return 0.0 + args[0] * args[1]  # a jet product's sum of terms starts from +0.0
        if t is Add:
            return args[0] + args[1]
        if t is Sub:
            return args[0] - args[1]
        if t is Const:
            return const(e.value)
        if t is Coord:
            return values[e.index]
        if t is Div:
            _check_divisor(args[1])
            return 0.0 + args[0] * _reciprocal_coeffs(args[1], 0)[0]
        if t is Neg:
            return -args[0]
        if t is not Pow and t is not Call:
            raise TypeError(f"not an expression node: {type(e).__name__}")
        v = _node_value(e, args[0], 0, one)
        # np.power, np.exp and the like hand back numpy scalars
        return v if type(v) is np.ndarray else float(v)

    return value


class Program:
    """Post-order tape of the DAG under some roots, kept by their owner, so it dies with them.

    Every evaluation runs one, built by a _walk at its first run.  Step k (node,
    operand slots, the slots it reads last) puts the node's result in slot k and
    frees those slots, never a root's or a constant (no Coord below it) that a
    varying step reads.  The first run under a key that raises nothing keeps
    those constants read-only; later runs under it skip the constant steps.
    """

    __slots__ = ("roots", "steps", "varying", "outs", "kept")

    def __init__(self, roots):
        self.roots, self.steps, self.kept = list(roots), None, {}

    def _build(self) -> None:
        steps, constant = [], []

        def record(e, args):  # a leaf is a Const or a Coord
            constant.append(type(e) is not Coord and all(map(constant.__getitem__, args)))
            steps.append((len(steps), e, tuple(args)))
            return len(steps) - 1

        self.outs = _walk(self.roots, record)
        seen = set(self.outs)  # never freed: the roots, and the constants a varying step reads
        seen.update(i for k, _, args in steps if not constant[k] for i in args if constant[i])
        for k, e, args in reversed(steps):  # the first step from the end to read a slot reads it last
            steps[k] = (k, e, args, tuple([i for i in args if i not in seen]))
            seen.update(args)
        self.varying, self.steps = [step for step in steps if not constant[step[0]]], steps

    def run(self, rule, key) -> list:
        """The results _walk(roots, rule) gives, with the constants kept under key."""
        if self.steps is None:
            self._build()
        kept = self.kept.get(key)
        vals = [None] * len(self.steps) if kept is None else kept.copy()
        for k, e, args, frees in self.steps if kept is None else self.varying:
            vals[k] = rule(e, [vals[i] for i in args])
            for i in frees:
                vals[i] = None
        out = [vals[i] for i in self.outs]
        if kept is None:
            for k, *_ in self.varying:
                vals[k] = None
            for a in (getattr(v, "coeffs", v) for v in vals):
                if type(a) is np.ndarray:
                    a.flags.writeable = False
            self.kept[key] = vals
        return out


def program_in(cache: dict | None, fields) -> Program:
    """The Program of fields, built at its first run, kept in ``cache``, their owner's dict,
    one per tuple of roots.  Without an owner a lone field keeps its own in its instance
    dict, and several fields get a fresh one."""
    exprs = [f.expr for f in fields]
    if cache is None:
        if len(exprs) != 1:
            return Program(exprs)
        cache = vars(fields[0])
    return cache.get(key := ("program", *map(id, exprs))) or cache.setdefault(key, Program(exprs))


def _run_jets(program: Program, space: JetSpace, seeds: list[Jet]) -> list[Jet]:
    """Evaluate the program's roots over shared seeds, each shared node once.

    Constants are kept per order, dim and empty batch or not (a constant jet
    is one column wide, or zero; a constant value is a float, or empty).  Each
    root's jet is the caller's, (count, npoints): a constant one column wide or
    kept is widened to a copy once per node.  Order 0 wraps a widened copy of each
    root's plain value as a one-coefficient jet, bitwise equal to full jet arithmetic.
    """
    npoints = seeds[0].coeffs.shape[1]
    key = (space, npoints > 0)
    if space.order:
        wide: dict[int, Jet] = {}
        out = program.run(_jet_rule(space, seeds), key)
        for k, jet in enumerate(out):
            if jet.constant and (jet.coeffs.shape[1] != npoints or not jet.coeffs.flags.writeable):
                if id(jet) not in wide:
                    wide[id(jet)] = Jet(space, np.repeat(jet.coeffs, npoints, axis=1), True)
                out[k] = wide[id(jet)]
        return out
    widen = partial(np.array, ndmin=2) if npoints == 1 else partial(np.full, (1, npoints))
    return [Jet(space, widen(v)) for v in program.run(_value_rule(seeds), key)]


def eval_jet(f: ScalarField, p, order: int) -> Jet:
    """Jet of f at p: the batch of one of eval_jets_batch, as a 1-D jet.

    A point's coefficients are the same bits alone and in any batch.
    """
    jet = eval_jets_batch([f], [p], order)[0]
    return Jet(jet.space, jet.coeffs[:, 0])


def eval_jets_batch(fields, points, order: int, cache: dict | None = None) -> list[Jet]:
    """Jets of several fields over an array of points, one shared pass.

    Coefficient arrays gain a trailing point axis; subtrees shared within
    or across the fields are evaluated once for the whole batch, by the
    Program ``program_in`` gives for ``cache``, the dict of their owner, or
    None.  A DomainError raised while evaluating a batch of one names its
    point.
    """
    fields = list(fields)
    if not fields:
        return []
    chart = fields[0].chart
    for f in fields[1:]:
        if f.chart != chart:
            raise ValueError("fields live on different charts")
    space = _check_order(chart.dim, order)
    pts = chart.require_points(points)
    try:
        return _run_jets(program_in(cache, fields), space, _jet_seeds(space, pts))
    except DomainError as err:
        if len(pts) != 1:
            raise
        raise DomainError(f"{err} at point {tuple(pts[0].tolist())}") from None


def eval_jet_batch(f: ScalarField, points, order: int) -> Jet:
    """Jet of one field over an array of points (trailing point axis)."""
    return eval_jets_batch([f], points, order)[0]
