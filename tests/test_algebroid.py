import types

import numpy as np
import pytest

from gradedgeo import algebroid as ag
from gradedgeo import exprfield as ef
from gradedgeo import riemann as rm
from gradedgeo.randgen import (
    default_chart,
    random_dual_function,
    random_graded_field,
    random_graded_metric,
    random_interior_point,
    random_polynomial,
)


def zero(chart):
    return ef.constant(chart, 0.0)


def xi(chart):
    return ag.GradedVectorField.of(chart, [0.0] * chart.dim, 1.0)


def dual_close(a, b, points, tol=1e-12):
    for p in points:
        ea, oa = a(p)
        eb, ob = b(p)
        assert abs(ea - eb) <= tol * (1 + abs(eb)), p
        assert abs(oa - ob) <= tol * (1 + abs(ob)), p


def test_tau_squared_is_one():
    chart = default_chart(2)
    tau = ag.DualFunction.of(chart, 0.0, 1.0)
    sq = tau * tau
    assert sq.even(chart.midpoint()) == 1.0
    assert sq.odd.is_zero


def test_even_subalgebra_closed():
    chart = default_chart(2)
    rng = np.random.default_rng(3)
    f = ag.DualFunction(random_polynomial(rng, chart, 2), zero(chart))
    g = ag.DualFunction(random_polynomial(rng, chart, 2), zero(chart))
    prod = f * g
    assert prod.odd.is_zero
    p = random_interior_point(rng, chart)
    assert prod.even(p) == pytest.approx(f.even(p) * g.even(p), abs=1e-14)


def test_zero_divisor_pair():
    chart = default_chart(1)
    plus = ag.DualFunction.of(chart, 1.0, 1.0)
    minus = ag.DualFunction.of(chart, 1.0, -1.0)
    assert (plus * minus).is_zero
    assert (minus * plus).is_zero


def test_eigenbasis_roundtrip_and_product():
    # on the two projectors the product acts componentwise
    chart = default_chart(2)
    rng = np.random.default_rng(7)
    pts = [random_interior_point(rng, chart) for _ in range(5)]
    a = random_dual_function(rng, chart)
    b = random_dual_function(rng, chart)
    dual_close(ag.DualFunction.from_eigen(*a.eigen_parts()), a, pts)
    pa, ma = a.eigen_parts()
    pb, mb = b.eigen_parts()
    dual_close(a * b, ag.DualFunction.from_eigen(pa * pb, ma * mb), pts)


def test_dual_algebra_commutative_associative():
    chart = default_chart(2)
    rng = np.random.default_rng(11)
    pts = [random_interior_point(rng, chart) for _ in range(4)]
    for _ in range(10):
        a = random_dual_function(rng, chart)
        b = random_dual_function(rng, chart)
        c = random_dual_function(rng, chart)
        dual_close(a * b, b * a, pts)
        dual_close((a * b) * c, a * (b * c), pts, tol=1e-11)


def test_xi_extracts_odd_part():
    chart = default_chart(2)
    rng = np.random.default_rng(13)
    a = random_dual_function(rng, chart)
    out = ag.derive(xi(chart), a)
    assert out.odd.is_zero
    for _ in range(5):
        p = random_interior_point(rng, chart)
        assert out.even(p) == pytest.approx(a.odd(p), abs=1e-14)


def test_even_field_kills_tau():
    chart = default_chart(2)
    rng = np.random.default_rng(17)
    v = ag.GradedVectorField(
        tuple(random_polynomial(rng, chart, 1) for _ in range(2)), zero(chart)
    )
    tau = ag.DualFunction.of(chart, 0.0, 1.0)
    assert ag.derive(v, tau).is_zero


def test_mixed_derivation_hand_example():
    # (d_x + xi) applied to x^2 + x*tau gives (2x + x) + tau
    chart = ef.ChartSpec(("x",), ((-1.0, 1.0),))
    v = ag.GradedVectorField.of(chart, ["1"], 1.0)
    a = ag.DualFunction.of(chart, "x^2", "x")
    out = ag.derive(v, a)
    for x in (-0.5, 0.0, 0.7):
        assert out.even((x,)) == pytest.approx(3 * x, abs=1e-14)
        assert out.odd((x,)) == pytest.approx(1.0, abs=1e-14)


def test_graded_leibniz_signs():
    chart = default_chart(2)
    rng = np.random.default_rng(19)
    pts = [random_interior_point(rng, chart) for _ in range(4)]
    evens = tuple(random_polynomial(rng, chart, 1) for _ in range(2))
    homo_v = {
        0: ag.GradedVectorField(evens, zero(chart)),
        1: ag.GradedVectorField((zero(chart), zero(chart)), random_polynomial(rng, chart, 2)),
    }
    homo_a = {
        0: ag.DualFunction(random_polynomial(rng, chart, 2), zero(chart)),
        1: ag.DualFunction(zero(chart), random_polynomial(rng, chart, 2)),
    }
    b = random_dual_function(rng, chart)
    for pv, v in homo_v.items():
        for pa, a in homo_a.items():
            sign = -1.0 if pv and pa else 1.0
            lhs = ag.derive(v, a * b)
            rhs = ag.derive(v, a) * b + sign * (a * ag.derive(v, b))
            dual_close(lhs, rhs, pts)


def test_bracket_odd_odd_vanishes():
    chart = default_chart(2)
    rng = np.random.default_rng(23)
    f = random_polynomial(rng, chart, 2)
    g = random_polynomial(rng, chart, 2)
    zeros = (zero(chart), zero(chart))
    br = ag.bracket(ag.GradedVectorField(zeros, f), ag.GradedVectorField(zeros, g))
    assert br.odd.is_zero and all(c.is_zero for c in br.even)


def test_bracket_even_odd_example():
    # [d_x, x*xi] = xi
    chart = default_chart(2)
    v = ag.GradedVectorField.of(chart, ["1", "0"], 0.0)
    w = ag.GradedVectorField.of(chart, ["0", "0"], "x")
    br = ag.bracket(v, w)
    assert all(c.is_zero for c in br.even)
    assert br.odd(chart.midpoint()) == 1.0
    rev = ag.bracket(w, v)
    assert rev.odd(chart.midpoint()) == -1.0


def test_bracket_classical_example():
    # [x d_y, y d_x] = x d_x - y d_y
    chart = default_chart(2)
    v = ag.GradedVectorField.of(chart, ["0", "x"], 0.0)
    w = ag.GradedVectorField.of(chart, ["y", "0"], 0.0)
    br = ag.bracket(v, w)
    rng = np.random.default_rng(29)
    for _ in range(5):
        p = random_interior_point(rng, chart)
        assert br.even[0](p) == pytest.approx(p[0], abs=1e-14)
        assert br.even[1](p) == pytest.approx(-p[1], abs=1e-14)
    assert br.odd.is_zero


def test_bracket_is_derivation_commutator():
    chart = default_chart(2)
    rng = np.random.default_rng(31)
    pts = [random_interior_point(rng, chart) for _ in range(4)]
    for _ in range(8):
        v = random_graded_field(rng, chart, degree=2)
        w = random_graded_field(rng, chart, degree=2)
        a = random_dual_function(rng, chart)
        lhs = ag.derive(ag.bracket(v, w), a)
        rhs = ag.derive(v, ag.derive(w, a)) - ag.derive(w, ag.derive(v, a))
        dual_close(lhs, rhs, pts, tol=1e-10)


def test_bracket_antisymmetry_and_jacobi():
    chart = default_chart(2)
    rng = np.random.default_rng(37)
    pts = [random_interior_point(rng, chart) for _ in range(4)]
    u = random_graded_field(rng, chart)
    v = random_graded_field(rng, chart)
    w = random_graded_field(rng, chart)

    def assert_vanishes(field):
        for p in pts:
            for c in field.even:
                assert abs(c(p)) <= 1e-10
            assert abs(field.odd(p)) <= 1e-10

    assert_vanishes(ag.bracket(u, v) + ag.bracket(v, u))
    jac = (
        ag.bracket(u, ag.bracket(v, w))
        + ag.bracket(v, ag.bracket(w, u))
        + ag.bracket(w, ag.bracket(u, v))
    )
    assert_vanishes(jac)


def test_anchor_projection():
    chart = default_chart(2)
    rng = np.random.default_rng(41)
    v = random_graded_field(rng, chart)
    assert ag.anchor(v) == v.even
    pure_odd = ag.GradedVectorField.of(chart, ["0", "0"], "x^2")
    assert all(c.is_zero for c in ag.anchor(pure_odd))


def test_anchor_bracket_homomorphism():
    chart = default_chart(2)
    rng = np.random.default_rng(43)
    v = random_graded_field(rng, chart, degree=2)
    w = random_graded_field(rng, chart, degree=2)
    lifted = ag.anchor(ag.bracket(v, w))
    classical = tuple(
        ag.vector_apply(v.even, w.even[k]) - ag.vector_apply(w.even, v.even[k])
        for k in range(2)
    )
    for _ in range(50):
        p = random_interior_point(rng, chart)
        for k in range(2):
            assert abs(lifted[k](p) - classical[k](p)) <= 1e-10


def test_anchor_of_even_odd_bracket_is_zero():
    chart = default_chart(2)
    v = ag.GradedVectorField.of(chart, ["y", "x"], 0.0)
    w = ag.GradedVectorField.of(chart, ["0", "0"], "x*y")
    assert all(c.is_zero for c in ag.anchor(ag.bracket(v, w)))


def test_parity_bookkeeping():
    chart = default_chart(2)
    rng = np.random.default_rng(47)
    even_v = ag.GradedVectorField(
        tuple(random_polynomial(rng, chart, 2) for _ in range(2)), zero(chart)
    )
    odd_v = ag.GradedVectorField(
        (zero(chart), zero(chart)), random_polynomial(rng, chart, 2)
    )
    even_a = ag.DualFunction(random_polynomial(rng, chart, 2), zero(chart))
    odd_a = ag.DualFunction(zero(chart), random_polynomial(rng, chart, 2))
    # even derivation preserves the split
    assert ag.derive(even_v, even_a).odd.is_zero
    assert ag.derive(even_v, odd_a).even.is_zero
    # odd derivation swaps it
    assert ag.derive(odd_v, odd_a).odd.is_zero
    assert ag.derive(odd_v, even_a).is_zero


def test_chart_mismatch_rejected():
    a = default_chart(2)
    b = default_chart(3)
    with pytest.raises(ValueError):
        ag.derive(random_graded_field(np.random.default_rng(0), a), random_dual_function(np.random.default_rng(0), b))
    with pytest.raises(ValueError):
        ag.DualFunction(zero(a), zero(b))


def flat_theta_x():
    chart = ef.ChartSpec(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    metric = rm.MetricSpec.diagonal(chart, [1.0, 1.0])
    theta = ef.coordinate(chart, "x")
    return chart, types.SimpleNamespace(metric=metric, theta=theta)


def test_koszul_pure_odd_examples():
    """Pairings of the odd-odd connection output against even fields."""
    chart, gm = flat_theta_x()
    origin = (0.0, 0.0)
    dx = ag.GradedVectorField.of(chart, ["1", "0"], 0.0)
    dy = ag.GradedVectorField.of(chart, ["0", "1"], 0.0)
    x = xi(chart)
    assert ag.koszul_eval(gm, x, x, dx, origin) == pytest.approx(-1.0, abs=1e-12)
    assert ag.koszul_eval(gm, x, x, dy, origin) == pytest.approx(0.0, abs=1e-12)


def test_koszul_mixed_example():
    chart, gm = flat_theta_x()
    dx = ag.GradedVectorField.of(chart, ["1", "0"], 0.0)
    assert ag.koszul_eval(gm, dx, xi(chart), xi(chart), (0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_koszul_constant_even_fields_flat():
    chart, gm = flat_theta_x()
    dx = ag.GradedVectorField.of(chart, ["1", "0"], 0.0)
    dy = ag.GradedVectorField.of(chart, ["0", "1"], 0.0)
    rng = np.random.default_rng(53)
    for a in (dx, dy):
        for b in (dx, dy):
            for c in (dx, dy):
                p = random_interior_point(rng, chart)
                assert abs(ag.koszul_eval(gm, a, b, c, p)) <= 1e-13


def _koszul_reference(gm, x, y, z, p):
    # the six-term Koszul formula expanded symbolically: anchor actions by
    # symbolic directional derivatives, super brackets, then one evaluation
    pair = ag.pairing_field
    total = (
        ag.vector_apply(ag.anchor(x), pair(gm, y, z))
        + ag.vector_apply(ag.anchor(y), pair(gm, z, x))
        - ag.vector_apply(ag.anchor(z), pair(gm, x, y))
        + pair(gm, ag.bracket(x, y), z)
        - pair(gm, ag.bracket(y, z), x)
        + pair(gm, ag.bracket(z, x), y)
    )
    return 0.5 * total(p)


@pytest.mark.parametrize("sig", [(1, 1), (-1, 1), (1, 1, 1), (-1, 1, 1)])
def test_koszul_jets_match_symbolic_expansion(sig):
    rng = np.random.default_rng(131 + len(sig) + sig[0])
    gm = random_graded_metric(rng, default_chart(len(sig)), signature=sig)
    triples = [tuple(random_graded_field(rng, gm.chart) for _ in range(3)) for _ in range(6)]
    points = [random_interior_point(rng, gm.chart) for _ in triples]
    want = [_koszul_reference(gm, *t, p) for t, p in zip(triples, points)]
    alone = [ag.koszul_eval(gm, *t, p) for t, p in zip(triples, points)]
    batch = ag.koszul_values(gm, triples, points)
    for got in (alone, batch):
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (g, w)


def test_pairing_field_blocks():
    chart, gm = flat_theta_x()
    rng = np.random.default_rng(59)
    p = random_interior_point(rng, chart)
    dx = ag.GradedVectorField.of(chart, ["1", "0"], 0.0)
    odd = ag.GradedVectorField.of(chart, ["0", "0"], "y")
    assert ag.pairing_field(gm, dx, odd)(p) == 0.0
    # odd-odd pairing carries the e^(2 theta) weight
    assert ag.pairing_field(gm, odd, odd)(p) == pytest.approx(p[1] ** 2 * np.exp(2 * p[0]), rel=1e-14)
    mixed = ag.GradedVectorField.of(chart, ["1", "0"], "y")
    assert ag.pairing_field(gm, mixed, mixed)(p) == pytest.approx(1 + p[1] ** 2 * np.exp(2 * p[0]), rel=1e-14)
