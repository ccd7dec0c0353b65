import ast
import copy
import gc
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedgeo import config as cf
from gradedgeo import exprfield as ef
from gradedgeo import graded as gd
from gradedgeo import riemann as rm
from gradedgeo.errors import DomainError, GradedGeoError, JetOrderError, ParseError
from gradedgeo.quadrature import QuadSpec, tensor_rule

from dense_jets import dense_jet_rule
from expr_samples import FUNCTION_CLASSES, sample_chart, sample_expression, sample_points
from fd_oracles import fd_partial, fd_second


@pytest.fixture
def chart():
    return ef.ChartSpec(("x", "y", "t"), ((-2.0, 2.0), (-2.0, 2.0), (0.1, 10.0)))


def test_parse_tree_shape(chart):
    f = ef.parse_field("x^2 + sin(y)*ln(t)", chart)
    assert isinstance(f.expr, ef.Add)
    assert f.expr.lhs == ef.Pow(ef.Coord(0, "x"), Fraction(2))
    assert f.expr.rhs == ef.Mul(
        ef.Call("sin", ef.Coord(1, "y")), ef.Call("ln", ef.Coord(2, "t"))
    )


def test_derivative_built_once_per_node_and_axis(chart):
    f = ef.parse_field("exp(x*y)/t + sqrt(t)*sin(x)^2", chart)
    assert f.d(0).expr is f.d(0).expr
    assert f.d("y").expr is f.d(1).expr
    assert f.d(0).d(2).expr is f.d(0).d(2).expr
    assert f.d(0).expr is not f.d(1).expr


def test_derivative_memo_outside_node_identity(chart):
    a = ef.parse_field("x*exp(y) + ln(t)", chart)
    b = ef.parse_field("x*exp(y) + ln(t)", chart)
    a.d(0).d(1)
    a.d(2)
    assert a.expr == b.expr
    assert hash(a.expr) == hash(b.expr)
    assert repr(a.expr) == repr(b.expr)
    assert ef.pretty_print(a) == ef.pretty_print(b)


def test_equal_structures_are_one_node(chart):
    src = "2*x*y - t^(2/3)/exp(-x)"
    a, b = ef.parse_field(src, chart), ef.parse_field(src, chart)
    assert a.expr is b.expr and a == b
    x, y, t = (ef.coordinate(chart, name) for name in ("x", "y", "t"))
    built = ef.constant(chart, 2.0) * x * y - t ** Fraction(2, 3) / ef.exp(-x)
    assert built.expr is a.expr
    # copies and unpickled trees are the same nodes, which cannot be changed
    assert copy.copy(a.expr) is a.expr and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)).expr is a.expr
    with pytest.raises(AttributeError):
        a.expr.lhs = a.expr.rhs
    # a subtree built inside another field is the same node, and so is its derivative
    whole = ef.parse_field("ln(t) + x*exp(y*t)", chart)
    part = ef.parse_field("x*exp(y*t)", chart)
    assert whole.expr.rhs is part.expr
    assert part.d("t").expr is whole.d("t").expr.rhs
    assert whole.d("x").expr is part.d("x").expr  # d ln(t)/dx folds away
    again = ef.parse_field("x * exp(y * t)", chart).d("y").d("t")
    assert again.expr is part.d("y").d("t").expr


@pytest.mark.bitwise
def test_signed_zero_constants_stay_apart(chart):
    pos, neg = ef.constant(chart, 0.0), -ef.constant(chart, 0.0)
    assert isinstance(neg.expr, ef.Const) and math.copysign(1.0, neg.expr.value) == -1.0
    assert neg.expr is ef.Const(-0.0) and neg.expr is not pos.expr and neg != pos
    p = (0.1, 0.2, 1.0)
    for order in (0, 1, 2):
        jp, jn = ef.eval_jet(pos, p, order), ef.eval_jet(neg, p, order)
        assert not np.signbit(jp.value) and np.signbit(jn.value)
        assert jp.coeffs.tobytes() != jn.coeffs.tobytes()
    # such a literal prints as 0 and reparses as +0.0
    assert ef.pretty_print(neg) == "0"
    assert ef.parse_field(ef.pretty_print(neg), chart).expr is pos.expr


def _live_nodes() -> int:
    gc.collect()
    return sum(ref() is not None for ref in ef._nodes.values())


def test_intern_table_stays_bounded(monkeypatch):
    # coordinate names of its own, so that no tree another test keeps alive shares these nodes
    chart = ef.ChartSpec(("u", "v"), ((-1.0, 1.0), (0.5, 2.0)))
    base = _live_nodes()
    f = ef.parse_field(" + ".join(f"{k}*u*exp(v)" for k in range(10_000)), chart)
    df = f.d("u")
    assert _live_nodes() >= base + 30_000
    del f, df
    assert _live_nodes() == base
    # sweep at the next entry, then parse and drop fields of fresh constants:
    # dead entries go each time the table doubles, so it never holds more
    # than twice the live nodes
    monkeypatch.setattr(ef, "_sweep_at", 0)
    for k in range(1000):
        ef.parse_field(" + ".join(f"{k}.{j}*exp(u)" for j in range(10)), chart)
        assert len(ef._nodes) <= max(2 * (base + 40), 1024)
    assert _live_nodes() == base


def test_threads_building_one_structure_get_one_node(chart):
    texts = [f"{k}*x*exp(y*t) + ln(t)^{k % 3 + 2} - sin(x)/{k + 1}" for k in range(1000)]
    results: list[list] = [[] for _ in range(4)]

    def build(out):
        out.extend(ef.parse_field(src, chart).expr for src in texts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(len(out) == len(texts) for out in results)
    for first, *rest in zip(*results):
        assert all(e is first for e in rest)


def test_parse_precedence_and_unary(chart):
    f = ef.parse_field("-x^2", chart)
    assert f.expr == ef.Neg(ef.Pow(ef.Coord(0, "x"), Fraction(2)))
    g = ef.parse_field("2*x + y*t - x/y", chart)
    assert isinstance(g.expr, ef.Sub)
    assert isinstance(g.expr.lhs, ef.Add)
    h = ef.parse_field("x - y - t", chart)
    # left associative
    assert h.expr == ef.Sub(ef.Sub(ef.Coord(0, "x"), ef.Coord(1, "y")), ef.Coord(2, "t"))


def test_parse_pi(chart):
    f = ef.parse_field("cos(pi)", chart)
    assert f((0.0, 0.0, 1.0)) == pytest.approx(-1.0, abs=1e-15)


def test_parse_rational_exponent(chart):
    f = ef.parse_field("t^(2/3)", chart)
    assert f.expr == ef.Pow(ef.Coord(2, "t"), Fraction(2, 3))
    assert ef.parse_field("t^0.5", chart).expr.exponent == Fraction(1, 2)
    with pytest.raises(ParseError):
        ef.parse_field("t^x", chart)
    with pytest.raises(ParseError):
        ef.parse_field("t^(sin(2))", chart)


@pytest.mark.parametrize(
    "src",
    ["1.2.3", "2*", "sin(", "x + (y", "bogus", "f(x)", "1e+", "x ? y", "", "x^"],
)
def test_parse_errors_carry_position(chart, src):
    with pytest.raises(ParseError) as err:
        ef.parse_field(src, chart)
    assert "column" in str(err.value)


def test_reserved_coordinate_names_rejected():
    with pytest.raises(ValueError):
        ef.ChartSpec(("pi", "x"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        ef.ChartSpec(("sin",), ((0, 1),))
    with pytest.raises(ValueError):
        ef.ChartSpec(("x", "x"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        ef.ChartSpec(("x",), ((1, 0),))


def test_point_outside_box_rejected(chart):
    f = ef.parse_field("x", chart)
    with pytest.raises(DomainError):
        f((0.0, 0.0, 50.0))
    with pytest.raises(ValueError):
        f((0.0, 0.0))


def test_nan_coordinate_outside_box_for_point_and_batch(chart):
    # a NaN fails the box test of a single point and of a batch alike
    f = ef.parse_field("x", chart)
    for evaluate in (lambda p: f(p), lambda p: ef.eval_jet_batch(f, [p], 1)):
        with pytest.raises(DomainError, match=r"coordinate x=nan outside box"):
            evaluate((float("nan"), 0.0, 1.0))


def partials(f, p, upto):
    """All partial derivatives of f at p with total order <= upto, keyed by
    multi-index: the jet's Taylor coefficients times the index factorials."""
    jet = ef.eval_jet(f, p, upto)
    return {m: float(c) * math.prod(map(math.factorial, m)) for m, c in zip(jet.space.indices, jet.coeffs)}


# frozen expected values: ln at t=2 has derivatives (1/2, -1/4, 1/4),
# confirmed against the central-difference oracle below
def test_ln_jet_frozen_values(chart):
    f = ef.parse_field("ln(t)", chart)
    p = (0.0, 0.0, 2.0)
    table = partials(f, p, 3)
    assert table[(0, 0, 0)] == pytest.approx(math.log(2.0), abs=1e-15)
    assert table[(0, 0, 1)] == pytest.approx(0.5, abs=1e-15)
    assert table[(0, 0, 2)] == pytest.approx(-0.25, abs=1e-15)
    assert table[(0, 0, 3)] == pytest.approx(0.25, abs=1e-14)
    # FD oracle agreement
    fd1 = fd_partial(f, p, 2)
    fd2 = fd_second(f, p, 2, 2)
    assert abs(table[(0, 0, 1)] - fd1) <= 1e-6 * (1 + abs(fd1))
    assert abs(table[(0, 0, 2)] - fd2) <= 1e-6 * (1 + abs(fd2))


def test_rational_power_derivative_frozen(chart):
    f = ef.parse_field("t^(2/3)", chart)
    p = (0.0, 0.0, 8.0)
    d = f.d("t")(p)
    assert d == pytest.approx(1.0 / 3.0, abs=1e-15)  # (2/3) * 8^(-1/3)
    jet = ef.eval_jet(f, p, 1)
    assert jet.gradient()[2] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_sin_partials_table():
    chart = ef.ChartSpec(("x",), ((-1.0, 1.0),))
    table = partials(ef.parse_field("sin(x)", chart), (0.0,), 3)
    assert table[(0,)] == 0.0
    assert table[(1,)] == 1.0
    assert table[(2,)] == 0.0
    assert table[(3,)] == pytest.approx(-1.0, abs=1e-15)


def test_integer_power_negative_base(chart):
    f = ef.parse_field("(x - 3)^3", chart)
    assert f((1.0, 0.0, 1.0)) == pytest.approx(-8.0, abs=1e-12)
    with pytest.raises(DomainError):
        ef.parse_field("x^(1/2)", chart)((-1.0, 0.0, 1.0))


def test_division_by_vanishing_field(chart):
    f = ef.parse_field("1/(t - 1)", chart)
    with pytest.raises(DomainError):
        f((0.0, 0.0, 1.0))
    # near-zero denominators are legal, just large
    assert abs(f((0.0, 0.0, 1.0 + 1e-8))) > 1e7


def test_elementary_domain_errors(chart):
    p = (0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        ef.parse_field("ln(x)", chart)((-1.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        ef.parse_field("sqrt(x - 1)", chart)((0.0, 0.0, 1.0))
    # float(pi/2) is not an exact pole of cos, so tan is finite there, just huge
    assert abs(ef.parse_field("tan(x)", chart)((math.pi / 2, 0.0, 1.0))) > 1e15
    with pytest.raises(DomainError):
        ef.parse_field("x^(-2)", chart)((0.0, 0.0, 1.0))
    assert ef.parse_field("x^0", chart)(p) == 1.0


def test_jet_order_cap(chart):
    f = ef.parse_field("sin(x)", chart)
    assert ef.eval_jet(f, (0.0, 0.0, 1.0), 3).space.order == ef.MAX_JET_ORDER == 3
    with pytest.raises(JetOrderError):
        ef.eval_jet(f, (0.0, 0.0, 1.0), 4)
    with pytest.raises(JetOrderError):
        ef.eval_jet_batch(f, [(0.0, 0.0, 1.0), (0.5, 0.0, 1.0)], 4)


def test_pretty_roundtrip_handwritten(chart):
    sources = [
        "x^2 + sin(y)*ln(t)",
        "-(x + y)*t",
        "2*-x",
        "x - (y - t)",
        "x/(y*t)",
        "(x + y)^3",
        "t^(-2)",
        "t^(2/3) - x^2",
        "exp(-1/(1 - x^2))",
        "1/0",
    ]
    for src in sources:
        f = ef.parse_field(src, chart)
        printed = ef.pretty_print(f)
        again = ef.parse_field(printed, chart)
        assert again.expr == f.expr, f"{src!r} -> {printed!r} changed the tree"


# number literals: small and large integers, every finite double's repr, and
# decimal exponents past the double range both ways
_LITERALS = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 10**40).map(str),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}e{}".format, st.integers(1, 99), st.integers(-999, 999)),
)


def _grouped(template):
    return lambda pair: template.format(*pair)


# exponent text, including nested powers such as (9)^((9)^(9))
_EXPONENT_TEXT = st.recursive(
    _LITERALS,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(_grouped("({})^({})")),
        st.tuples(inner, inner).map(_grouped("({})*({})")),
        st.tuples(inner, inner).map(_grouped("({})/({})")),
        st.tuples(inner, inner).map(_grouped("({}) - ({})")),
        inner.map("-({})".format),
    ),
    max_leaves=6,
)

_FIELD_TEXT = st.recursive(
    st.one_of(st.sampled_from(["x", "y", "pi"]), _LITERALS),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(_grouped("({}) + ({})")),
        st.tuples(inner, inner).map(_grouped("({}) - ({})")),
        st.tuples(inner, inner).map(_grouped("({})*({})")),
        st.tuples(inner, inner).map(_grouped("({})/({})")),
        inner.map("-({})".format),
        st.tuples(st.sampled_from(ef.FUNCTIONS), inner).map(_grouped("{}({})")),
        st.tuples(inner, _LITERALS).map(_grouped("({})^{}")),
        st.tuples(inner, _EXPONENT_TEXT).map(_grouped("({})^({})")),
    ),
    max_leaves=10,
)


@given(src=_FIELD_TEXT)
def test_parse_print_round_trip_property(src):
    chart = sample_chart()
    try:
        f = ef.parse_field(src, chart)
    except ParseError:
        return
    printed = ef.pretty_print(f)
    assert ef.parse_field(printed, chart).expr == f.expr, printed


# coordinates, names, numerals (malformed and out of range too), operators,
# parentheses and stray characters, glued together or spaced apart; 30
# tokens nest far too shallowly for the recursive parser to overflow
_TOKEN = st.sampled_from([
    "x", "y", "t", "pi", *ef.FUNCTIONS,
    "0", "1", "2", "0.5", ".5", "3.", "1e3", "1e-400", "1e999", "2e", "1e+", "007",
    "+", "-", "*", "/", "^", "**", "(", ")", "@", ",", ".", "_", "=", "é", "\t",
])
_TOKEN_TEXT = st.lists(st.tuples(_TOKEN, st.sampled_from(["", " "])), max_size=30).map(
    lambda pairs: "".join(tok + sep for tok, sep in pairs)
)


@given(src=_TOKEN_TEXT)
def test_parse_token_sequences_fuzz(src):
    chart = sample_chart()
    try:
        f = ef.parse_field(src, chart)
    except GradedGeoError:
        return
    assert isinstance(f, ef.ScalarField)
    printed = ef.pretty_print(f)
    assert ef.parse_field(printed, chart).expr == f.expr, printed


# exponent arithmetic as a tree: small literals under + - * /, unary minus, ^
# and redundant parentheses; _render writes it with the fewest parentheses
# the grammar needs, so precedence and associativity are exercised too
_RATIONAL_TREE = st.recursive(
    st.sampled_from(["0", "1", "2", "3", "5", "12", "0.5", "2.25", "0.1", "4."]).map(lambda t: ("lit", t)),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), inner, inner),
        st.tuples(st.sampled_from(["neg", "par"]), inner),
    ),
    max_leaves=8,
)
_LEVELS = {"+": 0, "-": 0, "*": 1, "/": 1, "neg": 2, "^": 3}
_MAX_BITS_DRAWN = ef.MAX_EXPONENT_BITS // 2  # the bound itself has its own tests


def _render(tree) -> tuple[str, int]:
    """Text of tree and its level (0 sum, 1 product, 2 negation, 3 power, 4 atom)."""

    def at_least(sub, need):
        text, level = _render(sub)
        return text if level >= need else f"({text})"

    kind = tree[0]
    if kind == "lit":
        return tree[1], 4
    if kind == "par":
        return f"({_render(tree[1])[0]})", 4
    if kind == "neg":
        return "-" + at_least(tree[1], 3), 2
    level = _LEVELS[kind]
    # a power's operands are atoms; the right operand of + - * / binds tighter
    lhs = at_least(tree[1], 4 if kind == "^" else level)
    rhs = at_least(tree[2], 4 if kind == "^" else level + 1)
    return f"{lhs} {kind} {rhs}", level


def _exact(tree) -> Fraction:
    """Value of tree, or the ParseError message parse_field must raise first."""
    kind = tree[0]
    if kind == "lit":
        return Fraction(Decimal(tree[1]))
    if kind in ("par", "neg"):
        value = _exact(tree[1])
        return -value if kind == "neg" else value
    a, b = _exact(tree[1]), _exact(tree[2])
    if kind == "^":
        if b.denominator != 1:
            raise ValueError("nested exponent must be an integer")
        if a == 0 and b < 0:
            raise ValueError("division by zero in exponent")
        assume(abs(b) <= 64 or abs(a) in (0, 1))
        value = a ** int(b)
    elif kind == "/":
        if b == 0:
            raise ValueError("division by zero in exponent")
        value = a / b
    else:
        value = a + b if kind == "+" else a - b if kind == "-" else a * b
    assume(max(abs(value.numerator), value.denominator).bit_length() <= _MAX_BITS_DRAWN)
    return value


@given(tree=_RATIONAL_TREE)
def test_exponent_arithmetic_property(tree):
    chart = sample_chart()
    src = f"x^({_render(tree)[0]})"
    try:
        expected = _exact(tree)
    except ValueError as exc:
        with pytest.raises(ParseError, match=str(exc)):
            ef.parse_field(src, chart)
        return
    assert ef.parse_field(src, chart).expr == ef.Pow(ef.Coord(0, "x"), expected), src


def test_parse_rejects_literal_beyond_double_range(chart):
    with pytest.raises(ParseError) as err:
        ef.parse_field("1e999*x", chart)
    assert "column 1)" in str(err.value)
    with pytest.raises(ParseError) as err:
        ef.parse_field("x^2e400", chart)
    assert "column 3)" in str(err.value)


def test_parse_rejects_exponent_too_large_at_once(chart):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        ef.parse_field("x^(9^(9^9))", chart)
    assert time.perf_counter() - start < 1.0
    assert "column 5)" in str(err.value)
    for src in ("t^(2^1000)", "t^1e-999999999", "t^(1e300*1e300)", "t^(0^(-1))"):
        with pytest.raises(ParseError):
            ef.parse_field(src, chart)
    assert ef.parse_field("t^(1^(9^9))", chart).expr.exponent == 1
    assert ef.parse_field("t^(2^999)", chart).expr.exponent == 2**999


# points of sample_chart, signed zeros among them
_VALUE_POINTS = [(0.0, -0.0), (-0.0, 0.5), (0.3, -0.2), (-0.6, 0.6), (0.45, 0.0), (-0.25, -0.35), (0.6, 0.1)]


def _outcome(run):
    """The coefficient arrays of run()'s jets, or the type and text of its error."""
    try:
        with np.errstate(all="ignore"):
            jets = run()
    except (DomainError, ArithmeticError) as err:
        return type(err), str(err)
    return [j.coeffs for j in jets]


def _point_batches(points):
    """Each point as a batch of one, then all of them as one batch."""
    return [np.asarray([p], dtype=float) for p in points] + [np.asarray(points, dtype=float)]


def _order0_outcome(run):
    got = _outcome(run)
    return got if isinstance(got, tuple) else [(c.shape, c.tobytes()) for c in got]


def _assert_value_path_bitwise(fields, points):
    """The order-0 value path against full jet arithmetic, each point as a batch of one (floats) and all as one batch."""
    space = ef.jet_space(fields[0].chart.dim, 0)
    exprs = [f.expr for f in fields]
    for pts in _point_batches(points):
        seeds = ef._jet_seeds(space, pts)
        want = _order0_outcome(lambda: ef._walk(exprs, dense_jet_rule(space, seeds)))
        program = ef.Program(exprs)  # the tape's first run, then runs from its kept constants
        for _ in range(3):
            got = _order0_outcome(lambda: ef._run_jets(program, space, seeds))
            assert got == want, ([ef.pretty_print(f) for f in fields], pts)


def _assert_jets_match_dense(fields, points, order):
    """The constant-aware jet rule against full jet arithmetic, as _assert_value_path_bitwise batches the points.

    Where the full jet is finite at a point the bits are equal, and where it
    raises the error is the same.  Its value turns NaN when a constant's
    higher Taylor coefficient overflows (x/1e-200 at order 1), so the engine
    may be finite, or raise a DomainError on the value it kept, where the full
    jet is not finite; never the reverse.
    """
    space = ef.jet_space(fields[0].chart.dim, order)
    exprs = [f.expr for f in fields]
    for pts in _point_batches(points):
        seeds = ef._jet_seeds(space, pts)
        want = _outcome(lambda: ef._walk(exprs, dense_jet_rule(space, seeds)))
        where = ([ef.pretty_print(f) for f in fields], order, pts)
        program = ef.Program(exprs)  # the tape's first run, then runs from its kept constants
        for _ in range(3):
            got = _outcome(lambda: ef._run_jets(program, space, seeds))
            if isinstance(want, tuple):
                assert got == want, where
                continue
            if isinstance(got, tuple):
                # a DomainError on a value the full arithmetic lost to an overflow
                assert got[0] is DomainError and not all(np.isfinite(w).all() for w in want), where
                continue
            for w, g in zip(want, got):
                finite = np.isfinite(w).all(axis=0)
                assert (np.isfinite(g).all(axis=0) >= finite).all(), where
                assert g[:, finite].tobytes() == w[:, finite].tobytes(), where


@pytest.mark.bitwise
def test_value_path_matches_jet_rule_on_samples():
    chart = sample_chart()
    rng = np.random.default_rng(29)
    for cls in FUNCTION_CLASSES:
        fields = [sample_expression(rng, chart, cls) for _ in range(3)]
        _assert_value_path_bitwise(fields, sample_points(rng, chart, 7))
    powers = ef.parse_field("(x + 0.7)^7 - (y - 0.9)^(-5) + (x*y + 1)^(5/3) + tan(x - y)^2", chart)
    _assert_value_path_bitwise([powers], _VALUE_POINTS)


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "src",
    ["-(x)*0", "x*y", "0*(-(y))", "-(x)*y + 0*x", "(-(x))^3*0", "-(x)/(y + 1)", "exp(x*y)*(-(0))", "-(x)*0 - 0"],
)
def test_value_path_signed_zero_products(src):
    # the jet product sums from +0.0, so a -0.0 product comes out +0.0
    _assert_value_path_bitwise([ef.parse_field(src, sample_chart())], _VALUE_POINTS)


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "src, points, message",
    [
        ("ln(x)", [(0.3, 0.0), (-0.2, 0.0)], "ln of nonpositive value -0.2"),
        ("ln(x)", [(0.0, 0.0)], "ln of nonpositive value 0.0"),
        ("y/x", [(0.1, 0.2), (0.0, 0.2)], "division by a field vanishing here"),
        ("sqrt(x)", [(0.5, 0.0), (-0.1, 0.0)], "base -0.1 outside the domain of exponent 1/2"),
        ("x^(-2)", [(0.2, 0.0), (0.0, 0.0)], "zero base with negative integer exponent"),
        ("x^(-2)", [(1e-200, 0.0)], "division by zero"),
        ("x^(1/3)", [(0.0, 0.1), (0.5, 0.1)], "mixed zero and nonzero bases for exponent 1/3"),
    ],
)
def test_value_path_domain_errors_match_jet_rule(src, points, message):
    f = ef.parse_field(src, sample_chart())
    _assert_value_path_bitwise([f], points)
    space = ef.jet_space(2, 0)
    seeds = ef._jet_seeds(space, np.asarray(points))
    with pytest.raises(DomainError) as err:
        ef._run_jets(ef.Program([f.expr]), space, seeds)
    assert str(err.value) == message


@pytest.mark.bitwise
def test_value_path_tan_pole_matches_jet_rule(monkeypatch):
    # no double is a pole of cos, so make cos vanish everywhere
    monkeypatch.setattr(ef, "_cos_coeffs", lambda u0, order: [0.0 * u0] * (order + 1))
    f = ef.parse_field("tan(x)", sample_chart())
    _assert_value_path_bitwise([f], _VALUE_POINTS[:2])
    with pytest.raises(DomainError, match="tan at a pole of cos"):
        f((0.1, 0.2))


@pytest.mark.bitwise
@settings(deadline=None)
@given(src=_FIELD_TEXT)
def test_value_path_matches_jet_rule_property(src):
    try:
        f = ef.parse_field(src, sample_chart())
    except ParseError:
        return
    _assert_value_path_bitwise([f], _VALUE_POINTS)


@pytest.mark.bitwise
@settings(deadline=None)
@given(src=_FIELD_TEXT, order=st.sampled_from([1, 2]))
def test_constant_aware_jets_match_dense_rule_property(src, order):
    try:
        f = ef.parse_field(src, sample_chart())
    except ParseError:
        return
    _assert_jets_match_dense([f], _VALUE_POINTS, order)


@pytest.mark.bitwise
@pytest.mark.parametrize("order", [1, 2])
def test_constant_aware_jets_match_dense_rule_on_samples(order):
    chart = sample_chart()
    rng = np.random.default_rng(31)
    for cls in FUNCTION_CLASSES:
        fields = [sample_expression(rng, chart, cls) for _ in range(3)]
        _assert_jets_match_dense(fields, sample_points(rng, chart, 7), order)
    # constants under every node kind, signed zeros among them
    for src in (
        "(2 - 3)^3*x + (-(0))*y + exp(0.5)*sin(x) + x/(3*4) + (2/(-(0) + 5))/(y + 1)",
        "sin(-(0)) - 0",
        "tan(-(0)) + (-(0))^3",
        "(-(0))^(-2)",
        "(-(0))^1 + (-(0))^0",
        "(-(0))^(1/3)",
    ):
        _assert_jets_match_dense([ef.parse_field(src, chart)], _VALUE_POINTS, order)


@pytest.mark.bitwise
def test_constant_divisor_keeps_its_value():
    # 1/c**2 overflows at c = 1e-200; the quotient's value must not turn NaN
    f = ef.parse_field("x/1e-200", sample_chart())
    jets = [ef.eval_jet(f, (0.1, 0.2), order).coeffs for order in (0, 1, 2)]
    assert all(np.isfinite(c).all() for c in jets)
    assert len({c[0].tobytes() for c in jets}) == 1


def test_constant_roots_are_full_width_and_shared():
    # a constant is one column inside the sweep; its root comes back as wide as the batch
    chart = sample_chart()
    zero, c = ef.constant(chart, 0.0), ef.parse_field("-(2*ln(3))", chart)
    x = ef.coordinate(chart, "x")
    for npts in (1, 5):
        pts = np.asarray(sample_points(np.random.default_rng(npts), chart, npts))
        for order in (1, 2):
            space = ef.jet_space(2, order)
            inner = ef._walk([c.expr], ef._jet_rule(space, ef._jet_seeds(space, pts)))[0]
            assert inner.coeffs.shape == (space.count, 1)
            jets = ef.eval_jets_batch([zero, x, c, zero, c], pts, order)
            assert all(j.coeffs.shape == (space.count, npts) for j in jets)
            assert jets[0].coeffs is jets[3].coeffs and jets[2].coeffs is jets[4].coeffs
            assert jets[0].constant and jets[2].constant
            assert (jets[2].coeffs[0] == -2.0 * math.log(3.0)).all() and not jets[2].coeffs[1:].any()


@pytest.mark.bitwise
def test_point_jet_is_its_batch_column():
    # one point shape: a point's jet has the same bits alone and in a batch
    chart = sample_chart()
    rng = np.random.default_rng(11)
    for cls in FUNCTION_CLASSES:
        for _ in range(6):
            f = sample_expression(rng, chart, cls)
            pts = sample_points(rng, chart, 9)
            for order in range(4):
                batch = ef.eval_jet_batch(f, pts, order).coeffs
                for k, p in enumerate(pts):
                    alone = ef.eval_jet(f, p, order).coeffs
                    assert alone.shape == batch[:, k].shape
                    assert alone.tobytes() == batch[:, k].tobytes(), (cls, ef.pretty_print(f), p, order)
                    if order == 0:
                        assert np.float64(f(p)).tobytes() == batch[0, k].tobytes(), (cls, p)


def test_domain_error_names_point_of_a_batch_of_one(chart):
    f = ef.parse_field("ln(x)", chart)
    p = (-0.5, 0.25, 1.0)
    one = ef.constant(chart, 1.0)
    m = rm.MetricSpec.diagonal(chart, [f + 2.0, one, one])
    for evaluate in (
        lambda: f(p),
        lambda: ef.eval_jet(f, p, 2),
        lambda: ef.eval_jets_batch([ef.parse_field("x + 3", chart), f], [p], 1),
        lambda: rm.metric_at(m, p),
        lambda: rm.christoffel_at(m, p),
    ):
        with pytest.raises(DomainError) as err:
            evaluate()
        assert str(err.value) == "ln of nonpositive value -0.5 at point (-0.5, 0.25, 1.0)"
    # a larger batch names no point, and neither does a box error
    with pytest.raises(DomainError) as err:
        ef.eval_jet_batch(f, [p, (0.5, 0.25, 1.0)], 0)
    assert str(err.value) == "ln of nonpositive value -0.5"
    for evaluate in (lambda q: f(q), lambda q: ef.eval_jet_batch(f, [q], 0)):
        with pytest.raises(DomainError) as err:
            evaluate((0.5, 0.25, 50.0))
        assert str(err.value) == "coordinate t=50.0 outside box [0.1, 10.0]"


def test_pretty_roundtrip_random_trees():
    chart = sample_chart()
    rng = np.random.default_rng(7)
    for cls in FUNCTION_CLASSES:
        for _ in range(5):
            f = sample_expression(rng, chart, cls)
            printed = ef.pretty_print(f)
            assert ef.parse_field(printed, chart).expr == f.expr


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    x=st.floats(-0.5, 0.5, allow_nan=False),
    y=st.floats(-0.5, 0.5, allow_nan=False),
)
def test_jet_linearity(a, b, x, y):
    chart = sample_chart()
    f = ef.parse_field("sin(x)*y + x^3", chart)
    g = ef.parse_field("exp(x - y)", chart)
    p = (x, y)
    jf = ef.eval_jet(f, p, 2)
    jg = ef.eval_jet(g, p, 2)
    combo = a * f + b * g
    jc = ef.eval_jet(combo, p, 2)
    assert np.allclose(jc.coeffs, a * jf.coeffs + b * jg.coeffs, rtol=1e-12, atol=1e-12)


def test_jet_product_truncation():
    # jet(f*g) equals the truncated convolution of jet(f) and jet(g)
    chart = sample_chart()
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = sample_expression(rng, chart, "sin")
        g = sample_expression(rng, chart, "exp")
        p = sample_points(rng, chart, 1)[0]
        jf = ef.eval_jet(f, p, 3)
        jg = ef.eval_jet(g, p, 3)
        direct = ef.eval_jet(f * g, p, 3)
        assert np.allclose((jf * jg).coeffs, direct.coeffs, rtol=1e-10, atol=1e-12)


def _leibniz_product(space, a, b):
    # truncated Leibniz rule written out, none of the space's product tables:
    # every pair (i, j) whose multi-indices add up to at most the order adds
    # a[i]*b[j] to the coefficient of the sum, the pairs in order from +0.0
    out = np.zeros(a.shape)
    for i, ma in enumerate(space.indices):
        for j, mb in enumerate(space.indices):
            m = tuple(x + y for x, y in zip(ma, mb))
            if sum(m) <= space.order:
                k = space.indices.index(m)
                out[k] = out[k] + a[i] * b[j]
    return out


def _random_coeffs(rng, shape):
    # magnitudes over many decades make a reordered sum round differently;
    # signed zeros check that a sum of zeros comes out as +0.0
    c = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    c[rng.random(shape) < 0.15] = 0.0
    c[rng.random(shape) < 0.15] = -0.0
    return c


@pytest.mark.bitwise
@pytest.mark.parametrize("points", [(), (1,), (7,)])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_jet_product_matches_leibniz_loop_bitwise(dim, order, points):
    space = ef.jet_space(dim, order)
    rng = np.random.default_rng([dim, order, *points])
    for _ in range(3):
        a = _random_coeffs(rng, (space.count,) + points)
        b = _random_coeffs(rng, (space.count,) + points)
        got = (ef.Jet(space, a) * ef.Jet(space, b)).coeffs
        want = _leibniz_product(space, a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.bitwise
def test_jet_product_keeps_points_apart():
    # an infinite coefficient at one point spoils only that point's product
    space = ef.jet_space(3, 2)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((space.count, 6))
    b = rng.standard_normal((space.count, 6))
    a[space.pos[(0, 1, 0)], 4] = np.inf
    with np.errstate(invalid="ignore"):
        got = (ef.Jet(space, a) * ef.Jet(space, b)).coeffs
    assert not np.isfinite(got[:, 4]).all()
    for p in (0, 1, 2, 3, 5):
        alone = (ef.Jet(space, a[:, [p]]) * ef.Jet(space, b[:, [p]])).coeffs
        assert np.isfinite(alone).all()
        assert got[:, [p]].tobytes() == alone.tobytes()


def test_symbolic_diff_matches_jet_gradient():
    chart = sample_chart()
    rng = np.random.default_rng(3)
    for cls in FUNCTION_CLASSES:
        f = sample_expression(rng, chart, cls)
        for p in sample_points(rng, chart, 5):
            grad = ef.eval_jet(f, p, 1).gradient()
            for a in range(chart.dim):
                sym = f.d(a)(p)
                assert abs(sym - grad[a]) <= 1e-10 * (1 + abs(sym)), (cls, a, p)


def test_jets_match_finite_differences_all_classes():
    chart = sample_chart()
    rng = np.random.default_rng(202)
    for cls in FUNCTION_CLASSES:
        f = sample_expression(rng, chart, cls)
        for p in sample_points(rng, chart, 10):
            jet = ef.eval_jet(f, p, 2)
            grad = jet.gradient()
            hess = jet.hessian()
            for a in range(chart.dim):
                fd1 = fd_partial(f, p, a)
                assert abs(grad[a] - fd1) <= 1e-6 * (1 + abs(fd1)), (cls, p, a)
                for b in range(a, chart.dim):
                    fd2 = fd_second(f, p, a, b)
                    assert abs(hess[a, b] - fd2) <= 1e-6 * (1 + abs(fd2)), (cls, p, a, b)


def test_remap_coordinates():
    src = ef.ChartSpec(("t",), ((0.1, 4.0),))
    dst = ef.ChartSpec(("x", "t"), ((-1, 1), (0.1, 4.0)))
    f = ef.parse_field("ln(t)/3", src)
    g = ef.remap_coordinates(f, dst)
    assert g((0.5, 2.0)) == pytest.approx(f((2.0,)), abs=1e-15)


def test_scalar_field_arithmetic_folding():
    chart = sample_chart()
    x = ef.coordinate(chart, "x")
    zero = ef.constant(chart, 0.0)
    assert (zero * x).is_zero
    assert (x + 0.0).expr == x.expr
    assert (1.0 * x).expr == x.expr
    assert (-(-x)).expr == x.expr
    assert (x**1).expr == x.expr
    assert isinstance((x / 0.0).expr, ef.Div)  # never folded; fails at evaluation
    with pytest.raises(DomainError):
        (x / 0.0)((0.1, 0.1))


_DEEP_SCRIPT = """
import sys
from gradedgeo import exprfield as ef

chart = ef.ChartSpec(("x", "t"), ((-1.0, 1.0), (0.5, 2.0)))
swapped = ef.ChartSpec(("t", "x"), ((0.5, 2.0), (-1.0, 1.0)))
src = " + ".join(["0.00005*ln(t)*x"] * 10_000)
f = ef.parse_field(src, chart)
sys.setrecursionlimit(200)
d = f.d("t").d("x")
assert abs(d((0.3, 1.5)) - 0.5 / 1.5) < 1e-12
jet = ef.eval_jet(f, (0.3, 1.5), 2)  # the field's tape, at its first run
assert abs(jet.value - 0.15 * ef.math.log(1.5)) < 1e-12
space = ef.jet_space(2, 2)
walked = ef._walk([f.expr], ef._jet_rule(space, ef._jet_seeds(space, ef.np.array([(0.3, 1.5)]))))[0]
assert walked.coeffs[:, 0].tobytes() == jet.coeffs.tobytes()
assert ef.eval_jet(f, (0.3, 1.5), 2).coeffs.tobytes() == jet.coeffs.tobytes()  # a run from its kept constants
again = ef.parse_field(ef.pretty_print(f), chart)
assert again.expr == f.expr and hash(again.expr) == hash(f.expr)
assert ef.remap_coordinates(f, swapped)((1.5, 0.3)) == f((0.3, 1.5))
assert f.expr != d.expr
assert repr(f.expr).startswith("<Add ")
print("ok")
"""


def test_long_expression_within_small_recursion_limit():
    # every walk of a 10,000-term field runs with the recursion limit at 200
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def _squares(chart, levels):
    f = ef.coordinate(chart, "x") + 1.0
    for _ in range(levels):
        f = f * f
    return f


def test_shared_dag_walked_once_per_node():
    # 20 levels of f = f*f: 22 nodes, but a tree of about two million
    chart = ef.ChartSpec(("x", "t"), ((-1.0, 1.0), (0.5, 2.0)))
    swapped = ef.ChartSpec(("t", "x"), ((0.5, 2.0), (-1.0, 1.0)))
    a, b = _squares(chart, 20), _squares(chart, 20)
    for walk in (
        lambda: ef.remap_coordinates(a, swapped),
        lambda: hash(a.expr),
        lambda: a.expr == b.expr,
    ):
        start = time.perf_counter()
        walk()
        assert time.perf_counter() - start < 0.1
    moved = ef.remap_coordinates(a, swapped).expr
    assert moved.lhs is moved.rhs
    assert a.expr == b.expr and hash(a.expr) == hash(b.expr)
    assert a.expr != _squares(chart, 19).expr


def _taped(fields, pts, order):
    """The jets of fields from a tape an owner keeps: its first run, then a run from its kept constants."""
    owner = {}
    return [ef.eval_jets_batch(fields, pts, order, owner) for _ in range(2)]


def _walked(fields, pts, order):
    """The coefficient bytes of the fields' jets by _walk with the engine's rule, the reference
    the tape is checked against; a constant is widened to the batch, as _run_jets widens it."""
    space = ef.jet_space(fields[0].chart.dim, order)
    seeds = ef._jet_seeds(space, np.asarray(pts, dtype=float))
    rule = ef._jet_rule(space, seeds) if order else ef._value_rule(seeds)
    out = ef._walk([f.expr for f in fields], rule)
    return [np.broadcast_to(getattr(r, "coeffs", r), (space.count, len(pts))).tobytes() for r in out]


def _golden_fields():
    # each golden config's metric entries and theta, and for the section configs the
    # bump profile, at 3 nodes a side over the bump's support or else the chart's box
    golden = Path(__file__).resolve().parent / "golden"
    for path in sorted([*golden.glob("*.ini"), *(golden / "sections").glob("*.ini")]):
        cfg = cf.load_config(str(path))
        gm = cf.build_graded_metric(cfg)
        fields, box = [*gm.metric._upper.values(), gm.theta], None
        if cfg.variation is not None:
            fields.append(gd.bump_variation(cfg.chart, cfg.variation.support).profile)
            box = cfg.variation.support
        yield path.name, fields, tensor_rule(cfg.chart, QuadSpec(3, box))[0]


@pytest.mark.bitwise
def test_releasing_walk_gives_the_same_jets():
    # the tape, which frees each intermediate after its last reader and keeps the
    # constants, gives the walk's bits, on the sample classes (with a product of two
    # roots and a root given twice) and the golden fields
    chart = sample_chart()
    rng = np.random.default_rng(43)
    cases = []
    for cls in FUNCTION_CLASSES:
        fields = [sample_expression(rng, chart, cls) for _ in range(3)]
        cases.append((cls, [*fields, fields[0] * fields[1], fields[2]], sample_points(rng, chart, 7)))
    cases += list(_golden_fields())
    for name, fields, pts in cases:
        for order in (0, 1, 2):
            want = _walked(fields, pts, order)
            for jets in _taped(fields, pts, order):
                assert [j.coeffs.tobytes() for j in jets] == want, (name, order)


def _counting_rule(monkeypatch, name="_jet_rule"):
    """The nodes that the rules ``ef.<name>`` makes (the jet rule by default) evaluate, in order, from here on."""
    calls = []
    real = getattr(ef, name)

    def counted(*args):
        rule = real(*args)
        return lambda e, args: calls.append(e) or rule(e, args)

    monkeypatch.setattr(ef, name, counted)
    return calls


def test_releasing_walk_evaluates_each_node_once(monkeypatch):
    # a shared node is evaluated once, in the walk's order, whether the tape frees its slot or not
    chart = ef.ChartSpec(("x", "t"), ((-1.0, 1.0), (0.5, 2.0)))
    f = _squares(chart, 20)
    fields = [f, f * ef.coordinate(chart, "t") + f, ef.ln(ef.coordinate(chart, "t")) * f]
    calls = _counting_rule(monkeypatch)
    _walked(fields, [(0.0, 1.2)], 2)
    walked = calls[:]
    calls.clear()
    owner = {}
    ef.eval_jets_batch(fields, [(0.0, 1.2)], 2, owner)
    program = ef.program_in(owner, fields)
    assert calls == walked
    assert len(calls) == len({id(e) for e in calls}) == len(program.steps)


def test_releasing_walk_keeps_repeated_reads_and_roots():
    chart = sample_chart()
    x, y = ef.coordinate(chart, "x"), ef.coordinate(chart, "y")
    e = ef.exp(x)
    square = e * e  # one parent reads exp(x) twice
    inner = ef.sin(x * y)
    outer = inner * inner + inner  # inner is a root as well as an operand
    zero = ef.constant(chart, 0.0)
    fields = [square, inner, outer, inner, zero, zero]  # roots given twice, as the eds metric's zero entries
    owner = {}
    pts = sample_points(np.random.default_rng(5), chart, 4)
    for _ in range(2):
        got = ef.eval_jets_batch(fields, pts, 2, owner)
        assert [j.coeffs.tobytes() for j in got] == _walked(fields, pts, 2)
        assert got[1] is got[3] and got[4].coeffs is got[5].coeffs
        assert (got[4].coeffs == 0.0).all() and got[4].coeffs.shape == (6, 4)
    program = ef.program_in(owner, fields)
    slot = {id(node): k for k, node, *_ in program.steps}
    freed = {(i, k) for k, *_, frees in program.steps for i in frees}
    # each slot is freed by its last reader (x by x*y, not exp(x)); a root's and a constant's never are
    pairs = [(e, square), (x * y, inner), (x, x * y), (y, x * y), (inner * inner, outer)]
    assert freed == {(slot[id(a.expr)], slot[id(b.expr)]) for a, b in pairs}


def test_releasing_walk_holds_only_what_is_still_read():
    # 2,000 terms of one shared product: the walk's memo holds every partial sum to
    # the end; the tape holds at most the few results still to be read, and after
    # the run only the root and the kept constant 0.00005
    chart = ef.ChartSpec(("x", "t"), ((-1.0, 1.0), (0.5, 2.0)))
    f = ef.parse_field(" + ".join(["0.00005*ln(t)*x"] * 2_000), chart)

    class Result:
        __slots__ = ("__weakref__",)

    def most_alive(run):
        live, most = [0], [0]

        def rule(e, args):
            r = Result()
            live[0] += 1
            most[0] = max(most[0], live[0])
            weakref.finalize(r, lambda: live.__setitem__(0, live[0] - 1))
            return r

        root = run(rule)
        return most[0], live[0] - len(root)

    program = ef.Program([f.expr])
    taped, kept = most_alive(lambda rule: program.run(rule, "key"))
    assert taped <= 8 and kept == 1
    assert most_alive(lambda rule: ef._walk([f.expr], rule)) == (len(program.steps), 0)
    assert len(program.steps) > 2_000


def test_program_evaluates_constants_once_per_jet_space(monkeypatch):
    # the constant subtrees 2 - 3 and ln(5 - 1), leaves included, are evaluated by a
    # program's first run in each jet space (order, dim, empty batch or not); later
    # runs there read their kept, read-only jets and evaluate only the rest
    chart = sample_chart()
    f = ef.parse_field("x*(2 - 3) + ln(5 - 1)*y", chart)
    constant = {"2", "3", "2 - 3", "5", "1", "5 - 1", "ln(5 - 1)"}
    rng = np.random.default_rng(7)
    owner = {}
    calls = _counting_rule(monkeypatch)
    for order in (1, 2):
        for k, npts in enumerate((1, 5, 0, 3, 0)):
            pts = np.reshape(sample_points(rng, chart, npts), (npts, 2))
            calls.clear()
            got = ef.eval_jets_batch([f], pts, order, owner)[0]
            program = ef.program_in(owner, [f])
            evaluated = {ef.pretty_print(e) for e in calls}
            if k in (0, 2):  # the first run with points, then the first without
                assert len(calls) == len(program.steps) and evaluated >= constant, (order, npts)
            else:
                assert len(calls) == len(program.varying) and not evaluated & constant, (order, npts)
            assert got.coeffs.shape == (ef.jet_space(2, order).count, npts)
            assert [got.coeffs.tobytes()] == _walked([f], pts, order)
    # four jet spaces, each keeping the constants a varying step reads, read-only
    slot = {ef.pretty_print(e): k for k, e, *_ in program.steps}
    assert len(program.kept) == 4
    for vals in program.kept.values():
        assert {k for k, v in enumerate(vals) if v is not None} == {slot["2 - 3"], slot["ln(5 - 1)"]}
        kept = [v for v in vals if v is not None]
        assert all(j.constant and not j.coeffs.flags.writeable and j.coeffs.shape[1] <= 1 for j in kept)


def test_value_path_keeps_constants_once_per_jet_space(monkeypatch):
    # at order 0 a constant is a float over any batch with points and an empty array
    # over none, so after runs at widths 1, 5 and 0 the program keeps one entry per
    # (jet space, empty batch or not), and only the first run of each evaluates them
    chart = sample_chart()
    f = ef.parse_field("x*(2 - 3) + ln(5 - 1)*y", chart)
    constant = {"2", "3", "2 - 3", "5", "1", "5 - 1", "ln(5 - 1)"}
    rng = np.random.default_rng(11)
    owner = {}
    calls = _counting_rule(monkeypatch, "_value_rule")
    for k, npts in enumerate((1, 5, 0, 5, 1, 0)):
        pts = np.reshape(sample_points(rng, chart, npts), (npts, 2))
        calls.clear()
        got = ef.eval_jets_batch([f], pts, 0, owner)[0]
        evaluated = {ef.pretty_print(e) for e in calls}
        if k in (0, 2):  # the first run with points, then the first without
            assert evaluated >= constant, npts
        else:
            assert not evaluated & constant, npts
        assert got.coeffs.shape == (1, npts) and [got.coeffs.tobytes()] == _walked([f], pts, 0)
    space = ef.jet_space(2, 0)
    kept = ef.program_in(owner, [f]).kept
    assert set(kept) == {(space, True), (space, False)}
    values = [[v for v in vals if v is not None] for vals in (kept[space, True], kept[space, False])]
    assert all(type(v) is float for v in values[0]) and len(values[0]) == 2
    assert all(v.shape == (0,) and not v.flags.writeable for v in values[1]) and len(values[1]) == 2


def test_every_evaluation_runs_a_tape(monkeypatch):
    # _walk only records tapes (Program._build's rule): a lone field, an owner-less
    # pair and an owner's pair are evaluated by running a tape, at every order and run
    rules = []
    real = ef._walk

    def counted(roots, rule, known=None):
        rules.append(rule.__name__)
        return real(roots, rule, known)

    monkeypatch.setattr(ef, "_walk", counted)
    chart = sample_chart()
    f = ef.parse_field("exp(x*(2 - 3))*y + ln(5 - 1)*x^2", chart)
    g = ef.parse_field("sin(x + 0.5)*(7 - 2) + y", chart)
    pts = sample_points(np.random.default_rng(3), chart, 3)
    owner = {}
    for _ in range(3):
        f((0.1, 0.2))
        for order in (0, 1, 2):
            ef.eval_jet(f, (0.1, 0.2), order)
            ef.eval_jets_batch([f, g], pts, order)
            ef.eval_jets_batch([f, g], pts, order, owner)
    # the lone field's and the owner's tapes are built once, the owner-less pair's on each call
    assert rules == ["record"] * (2 + 9)


def test_raising_constant_raises_on_every_evaluation():
    # a constant that raises is never kept: every run raises it, and a batch of one names its point
    chart = sample_chart()
    f = ef.parse_field("x + ln(0 - 1)", chart)
    owner = {}
    message = r"^ln of nonpositive value -1\.0 at point \(0\.1, 0\.2\)$"
    for _ in range(4):  # an owner's tape and the field's own, each built at its first run
        for order in (0, 2):
            with pytest.raises(DomainError, match=message):
                ef.eval_jets_batch([f], [(0.1, 0.2)], order, owner)
        with pytest.raises(DomainError, match=message):
            f((0.1, 0.2))
        with pytest.raises(DomainError, match=r"^ln of nonpositive value -1\.0$"):
            ef.eval_jets_batch([f], [(0.1, 0.2), (0.3, 0.4)], 1, owner)
    assert ef.program_in(owner, [f]).kept == {} and ef.program_in(None, [f]).kept == {}


@pytest.mark.bitwise
def test_field_over_changing_batches_gives_fresh_bits():
    # one field, its own tape built at the first run and keeping its constants,
    # over 0, 1 and 5 points in changing order: each jet has the bits and shape
    # of a walk's
    chart = sample_chart()
    rng = np.random.default_rng(13)
    f = sample_expression(rng, chart, "ln") * ef.parse_field("sin(2 - 3)*x + 2^(1/2) - exp(-(0.5))", chart)
    batches = {n: np.reshape(sample_points(rng, chart, n), (n, 2)) for n in (0, 1, 5)}
    for order in (0, 1, 2):
        for n in (5, 1, 0, 1, 5, 0, 5, 1, 0):
            got = ef.eval_jet_batch(f, batches[n], order)
            assert got.coeffs.shape == (ef.jet_space(2, order).count, n)
            assert [got.coeffs.tobytes()] == _walked([f], batches[n], order)
            assert got.coeffs.flags.writeable
    assert ef.program_in(None, [f]).steps is not None


def test_threads_sharing_programs_get_the_same_bits():
    # four threads run one field's program and one owner's program through the build
    # and the kept constants at once; a race there may build or keep twice, but every
    # jet has the bits of a walk
    chart = sample_chart()
    f = ef.parse_field("exp(x*(2 - 3))*y + ln(5 - 1)*x^2", chart)
    g = ef.parse_field("sin(x + 0.5)*(7 - 2) + y", chart)
    pts = sample_points(np.random.default_rng(17), chart, 3)
    want = _walked([f, g], pts, 2)
    (lone,) = _walked([f], pts, 1)
    # each round races on an owner and a field of its own, four times, so on every stage of them
    owners, fields = [{} for _ in range(30)], [ef.ScalarField(chart, f.expr) for _ in range(30)]
    results: list[list] = [[] for _ in range(4)]
    start = threading.Barrier(4, timeout=60)

    def run(out):
        start.wait()
        for owner, field in zip(owners, fields):
            for _ in range(4):
                out.append([j.coeffs.tobytes() for j in ef.eval_jets_batch([f, g], pts, 2, owner)])
                out.append([ef.eval_jet_batch(field, pts, 1).coeffs.tobytes()])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(out,)) for out in results]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for out in results:
        assert len(out) == 240 and out[::2] == [want] * 120 and out[1::2] == [[lone]] * 120


def test_program_dies_with_its_dag():
    # a field's program lives in the field, a metric's in the metric's cache, so
    # dropping them frees the DAG; coordinate names of its own, as in
    # test_intern_table_stays_bounded
    chart = ef.ChartSpec(("u", "v"), ((-1.0, 1.0), (0.5, 2.0)))
    f = ef.parse_field("exp(u)*v + 3*u + 7", chart)
    m = rm.MetricSpec.diagonal(chart, ["2 + sin(u)*v", "1 + v^2"])
    for _ in range(4):
        f((0.1, 1.0))
        rm.scalar_curvature_at(m, (0.1, 1.0))
    assert ef.program_in(None, [f]).steps is not None and ef.program_in(m._cache, m._upper.values()).steps is not None
    refs = [weakref.ref(f.expr), weakref.ref(m.component(0, 0).expr)]
    del f, m
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_only_the_parser_recurses():
    # expression length must not be capped by the recursion limit
    module = ast.parse(Path(ef.__file__).read_text())
    parser = next(n for n in module.body if isinstance(n, ast.ClassDef) and n.name == "_Parser")
    recursive = []
    for fn in ast.walk(module):
        if not isinstance(fn, ast.FunctionDef) or fn in parser.body:
            continue
        for call in ast.walk(fn):
            if isinstance(call, ast.Call):
                callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if callee == fn.name:
                    recursive.append(fn.name)
    assert recursive == []
