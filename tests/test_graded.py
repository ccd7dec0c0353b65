import functools
import gc
import itertools
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedgeo import algebroid as ag
from gradedgeo import config as cf
from gradedgeo import exprfield as ef
from gradedgeo import graded as gd
from gradedgeo import quadrature as qd
from gradedgeo import riemann as rm
from gradedgeo.errors import DegenerateMetricError, DomainError
from gradedgeo.quadrature import QuadSpec
from gradedgeo.randgen import (
    default_chart,
    random_graded_field,
    random_graded_metric,
    random_interior_point,
    random_metric,
    random_polynomial,
)

from graded_oracles import even_odd_block, graded_trace, odd_even_block


def flat_graded(theta_src="x", lo=-1.0, hi=1.0):
    chart = ef.ChartSpec(("x", "y"), ((lo, hi), (lo, hi)))
    m = rm.MetricSpec.diagonal(chart, [1.0, 1.0])
    return gd.GradedMetric(m, ef.parse_field(theta_src, chart))


def eds_graded(n=3, t_hi=9.0):
    names = ("x", "y", "z", "w")[:n] + ("t",)
    box = tuple([(-2.0, 2.0)] * n) + ((0.3, t_hi),)
    chart = ef.ChartSpec(names, box)
    warp = f"t^(2/{n})"
    m = rm.MetricSpec.diagonal(chart, [warp] * n + [-1.0])
    c = math.sqrt((n - 1) / (2.0 * n))
    theta = ef.parse_field(f"{c!r}*ln(t)", chart)
    return gd.GradedMetric(m, theta)


def _at(v, p):
    """Even components and odd coefficient of a graded field at p."""
    return np.array([c(p) for c in v.even]), v.odd(p)


def _apply_at(tri, x, y, p):
    return _at(gd.graded_apply_field(tri, x, y), p)


def _torsion_at(tri, x, y, p):
    """Largest component of nabla_x y - nabla_y x - [x, y] at p, and its odd part."""
    even, odd = _at(gd.graded_apply_field(tri, x, y) - gd.graded_apply_field(tri, y, x) - ag.bracket(x, y), p)
    return float(np.max(np.abs(np.append(even, odd)))), even, odd


def test_graded_metric_guards():
    chart = default_chart(2)
    m = rm.MetricSpec.diagonal(chart, [1.0, 1.0])
    theta = ef.coordinate(chart, "x")
    other = default_chart(3)
    with pytest.raises(ValueError):
        gd.GradedMetric(m, ef.coordinate(other, "x"))
    gm = gd.GradedMetric(m, theta)
    p = (0.2, -0.1)
    assert gm.weight()(p) == pytest.approx(math.exp(2 * p[0]), rel=1e-15)


def test_triple_constant_theta_reduces():
    chart = default_chart(2)
    m = rm.MetricSpec.diagonal(chart, [1.0, 1.0])
    gm = gd.GradedMetric(m, ef.constant(chart, 0.7))
    tri = gd.levicivita_triple(gm)
    assert all(a.is_zero for a in tri.alpha)
    assert all(c.is_zero for c in tri.x0)
    assert tri.alpha_prime == tri.alpha


def test_triple_flat_example():
    gm = flat_graded("x")
    tri = gd.levicivita_triple(gm)
    origin = (0.0, 0.0)
    assert [a(origin) for a in tri.alpha] == [1.0, 0.0]
    assert [c(origin) for c in tri.x0] == [-1.0, 0.0]
    # at other points x0 = -e^(2x) d_x
    p = (0.4, -0.3)
    assert tri.x0[0](p) == pytest.approx(-math.exp(0.8), rel=1e-14)


def test_triple_invariants_random():
    rng = np.random.default_rng(61)
    for sig in [(1, 1), (-1, 1)]:
        chart = default_chart(2)
        gm = random_graded_metric(rng, chart, signature=sig)
        tri = gd.levicivita_triple(gm)
        for _ in range(10):
            p = random_interior_point(rng, chart)
            # the 1-form is closed
            assert np.max(np.abs(even_odd_block(gm, p))) <= 1e-10
            # x0 lowered is minus the weighted slope form
            g = rm.metric_at(gm.metric, p)[0].components
            x0 = np.array([c(p) for c in tri.x0])
            dth = ef.eval_jet(gm.theta, p, 1).gradient()
            w = math.exp(2 * gm.theta(p))
            assert np.max(np.abs(g @ x0 + w * dth)) <= 1e-10 * (1 + w)


def test_apply_even_even_is_classical():
    rng = np.random.default_rng(67)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart)
    tri = gd.levicivita_triple(gm)
    x = random_graded_field(rng, chart, degree=2)
    y = random_graded_field(rng, chart, degree=2)
    x_even = ag.GradedVectorField(x.even, ef.constant(chart, 0.0))
    y_even = ag.GradedVectorField(y.even, ef.constant(chart, 0.0))
    p = random_interior_point(rng, chart)
    even, odd = _apply_at(tri, x_even, y_even, p)
    assert odd == 0.0
    gamma = rm.christoffel_at(gm.metric, p).components
    xv = np.array([c(p) for c in x.even])
    yv = np.array([c(p) for c in y.even])
    dy = np.array([ef.eval_jet(c, p, 1).gradient() for c in y.even])
    expect = dy @ xv + np.einsum("kij,i,j->k", gamma, xv, yv)
    assert np.max(np.abs(even - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))


def test_apply_odd_odd_gives_x0():
    gm = flat_graded("x")
    tri = gd.levicivita_triple(gm)
    chart = gm.chart
    one_xi = ag.GradedVectorField.of(chart, ["0", "0"], 1.0)
    even, odd = _apply_at(tri, one_xi, one_xi, (0.0, 0.0))
    assert np.allclose(even, [-1.0, 0.0], atol=1e-14)
    assert odd == 0.0


def test_apply_flat_weight_kills_alpha_terms():
    chart = default_chart(2)
    m = rm.MetricSpec.diagonal(chart, [1.0, 1.0])
    gm = gd.GradedMetric(m, ef.constant(chart, 0.0))
    tri = gd.levicivita_triple(gm)
    x = ag.GradedVectorField.of(chart, ["1", "0"], 0.0)
    h = ag.GradedVectorField.of(chart, ["0", "0"], "x*y")
    field = gd.graded_apply_field(tri, x, h)
    assert all(c.is_zero for c in field.even)
    p = (0.2, 0.3)
    assert field.odd(p) == pytest.approx(p[1], abs=1e-14)  # d_x(x*y)


def test_apply_tensorial_first_slot_leibniz_second():
    rng = np.random.default_rng(71)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart)
    tri = gd.levicivita_triple(gm)
    x = random_graded_field(rng, chart)
    y = random_graded_field(rng, chart)
    f = random_polynomial(rng, chart, degree=2)
    p = random_interior_point(rng, chart)
    fx = ag.GradedVectorField(tuple(f * c for c in x.even), f * x.odd)
    lhs_even, lhs_odd = _apply_at(tri, fx, y, p)
    base_even, base_odd = _apply_at(tri, x, y, p)
    assert np.max(np.abs(lhs_even - f(p) * base_even)) <= 1e-11
    assert abs(lhs_odd - f(p) * base_odd) <= 1e-11
    fy = ag.GradedVectorField(tuple(f * c for c in y.even), f * y.odd)
    lhs2_even, lhs2_odd = _apply_at(tri, x, fy, p)
    xf = ag.vector_apply(x.even, f)(p)
    assert np.max(np.abs(lhs2_even - (xf * np.array([c(p) for c in y.even]) + f(p) * base_even))) <= 1e-11
    assert abs(lhs2_odd - (xf * y.odd(p) + f(p) * base_odd)) <= 1e-11


def test_metric_compatibility_via_pairing():
    rng = np.random.default_rng(73)
    checks = 0
    for sig in [(1, 1), (-1, 1)]:
        chart = default_chart(2)
        gm = random_graded_metric(rng, chart, signature=sig)
        tri = gd.levicivita_triple(gm)
        for _ in range(3):
            x = random_graded_field(rng, chart)
            y = random_graded_field(rng, chart)
            z = random_graded_field(rng, chart)
            lhs = ag.vector_apply(ag.anchor(x), ag.pairing_field(gm, y, z))
            rhs = ag.pairing_field(gm, gd.graded_apply_field(tri, x, y), z)
            rhs2 = ag.pairing_field(gm, y, gd.graded_apply_field(tri, x, z))
            for _ in range(9):
                p = random_interior_point(rng, chart)
                a = lhs(p)
                b = rhs(p) + rhs2(p)
                assert abs(a - b) <= 1e-9 * (1 + abs(a))
                checks += 1
    assert checks >= 50


def test_torsion_vanishes_for_levicivita():
    rng = np.random.default_rng(79)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart)
    tri = gd.levicivita_triple(gm)
    for _ in range(5):
        x = random_graded_field(rng, chart)
        y = random_graded_field(rng, chart)
        p = random_interior_point(rng, chart)
        assert _torsion_at(tri, x, y, p)[0] <= 1e-10


def test_torsion_detects_mismatched_forms():
    rng = np.random.default_rng(83)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart)
    base = gd.levicivita_triple(gm)
    one = ef.constant(chart, 1.0)
    skew = gd.GradedConnectionTriple(
        gm, base.alpha, base.x0, tuple(a + one for a in base.alpha)
    )
    x = random_graded_field(rng, chart)
    y = random_graded_field(rng, chart)
    p = random_interior_point(rng, chart)
    _, even, odd = _torsion_at(skew, x, y, p)
    assert np.max(np.abs(even)) <= 1e-12
    # alpha' - alpha = (1, 1): odd part is k*sum(X) - h*sum(Y)
    xv = np.array([c(p) for c in x.even])
    yv = np.array([c(p) for c in y.even])
    expect = y.odd(p) * xv.sum() - x.odd(p) * yv.sum()
    assert odd == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_torsion_odd_odd_zero():
    chart = default_chart(2)
    gm = flat_graded("x + y")
    tri = gd.levicivita_triple(gm)
    a = ag.GradedVectorField.of(gm.chart, ["0", "0"], "x^2")
    b = ag.GradedVectorField.of(gm.chart, ["0", "0"], "y")
    assert _torsion_at(tri, a, b, (0.2, 0.4))[0] <= 1e-14


def test_tilde_T_constant_and_flat():
    chart = default_chart(2)
    m = rm.MetricSpec.diagonal(chart, [1.0, 1.0])
    gm0 = gd.GradedMetric(m, ef.constant(chart, 0.3))
    p = (0.1, 0.1)
    assert np.max(np.abs(gd.tilde_T_at(gm0, p).components)) == 0.0
    assert gd.tr_tilde_T_at(gm0, p) == 0.0
    gm1 = flat_graded("x")
    t = gd.tilde_T_at(gm1, p).components
    assert np.allclose(t, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)
    assert gd.tr_tilde_T_at(gm1, p) == pytest.approx(1.0, abs=1e-14)


def test_tilde_T_eds_trace():
    gm = eds_graded(3)
    p = (0.0, 0.0, 0.0, 1.0)
    assert gd.tr_tilde_T_at(gm, p) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_trace_identity_random():
    rng = np.random.default_rng(89)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart, signature=(-1, 1))
    for _ in range(10):
        p = random_interior_point(rng, chart)
        t = gd.tilde_T_at(gm, p).components
        ginv = rm.metric_at(gm.metric, p)[1].components
        assert float(np.einsum("ij,ij->", ginv, t)) == pytest.approx(
            gd.tr_tilde_T_at(gm, p), rel=1e-12, abs=1e-12
        )


def test_curvature_blocks_flat_constant():
    chart = default_chart(2)
    m = rm.MetricSpec.diagonal(chart, [1.0, 1.0])
    gm = gd.GradedMetric(m, ef.constant(chart, 0.0))
    p = (0.1, -0.1)
    assert np.max(np.abs(rm.riemann_at(m, p).components)) == 0.0
    for block in (even_odd_block, odd_even_block):
        assert np.max(np.abs(block(gm, p))) == 0.0


def test_curvature_even_odd_always_vanishes():
    rng = np.random.default_rng(97)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart)
    for _ in range(5):
        p = random_interior_point(rng, chart)
        assert np.max(np.abs(even_odd_block(gm, p))) <= 1e-12


def test_curvature_odd_even_flat_example():
    gm = flat_graded("x")
    blk = odd_even_block(gm, (0.0, 0.0))
    assert blk[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(blk - [[1.0, 0.0], [0.0, 0.0]])) <= 1e-14
    # matches the tilde tensor there
    assert np.max(np.abs(blk - gd.tilde_T_at(gm, (0.0, 0.0)).components)) <= 1e-14


def test_curvature_odd_even_matches_tilde_random():
    rng = np.random.default_rng(101)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart)
    for _ in range(5):
        p = random_interior_point(rng, chart)
        blk = odd_even_block(gm, p)
        tt = gd.tilde_T_at(gm, p).components
        assert np.max(np.abs(blk - tt)) <= 1e-10 * (1 + np.max(np.abs(tt)))


def test_graded_ricci_constant_theta():
    rng = np.random.default_rng(103)
    chart = default_chart(2)
    m = random_metric(rng, chart)
    gm = gd.GradedMetric(m, ef.constant(chart, 0.2))
    p = random_interior_point(rng, chart)
    out = gd.graded_ricci_at(gm, p)
    ric = rm.ricci_at(m, p).components
    assert np.max(np.abs(out.even.components - ric)) <= 1e-13
    assert np.max(np.abs(out.cross)) == 0.0
    assert out.odd == 0.0
    assert gd.graded_scalar_at(gm, p) == pytest.approx(rm.scalar_curvature_at(m, p), rel=1e-12)


def test_graded_ricci_flat_example():
    gm = flat_graded("x")
    out = gd.graded_ricci_at(gm, (0.0, 0.0))
    assert out.odd == pytest.approx(-1.0, abs=1e-14)
    assert gd.graded_scalar_at(gm, (0.0, 0.0)) == pytest.approx(-2.0, abs=1e-14)


def test_graded_ricci_eds_components():
    gm = eds_graded(3)
    p = (0.0, 0.0, 0.0, 1.0)
    out = gd.graded_ricci_at(gm, p)
    c = math.sqrt(1.0 / 3.0)
    # time-time entry: Ric_tt - (theta'' + theta'^2) at t=1
    assert out.even.components[3, 3] == pytest.approx(2.0 / 3.0 - (-c + c * c), abs=1e-12)
    assert out.odd == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_graded_hessian_blocks():
    rng = np.random.default_rng(107)
    chart = default_chart(2)
    m = random_metric(rng, chart)
    gm0 = gd.GradedMetric(m, ef.constant(chart, 0.0))
    f = random_polynomial(rng, chart, degree=3)
    p = random_interior_point(rng, chart)
    out = gd.graded_hessian_at(gm0, f, p)
    assert out.odd == 0.0
    assert graded_trace(gm0, out) == pytest.approx(rm.laplacian_at(m, f, p), rel=1e-12, abs=1e-12)

    gm = flat_graded("x")
    y = ef.coordinate(gm.chart, "y")
    out = gd.graded_hessian_at(gm, y, (0.3, 0.2))
    assert out.odd == 0.0  # gradients of x and y are orthogonal
    assert graded_trace(gm, out) == pytest.approx(0.0, abs=1e-14)


def test_graded_hessian_of_theta_traces_to_tilde():
    rng = np.random.default_rng(109)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart)
    for _ in range(5):
        p = random_interior_point(rng, chart)
        tr = graded_trace(gm, gd.graded_hessian_at(gm, gm.theta, p))
        assert tr == pytest.approx(gd.tr_tilde_T_at(gm, p), rel=1e-12, abs=1e-12)


def test_stress_and_conservation_constant_theta():
    chart = default_chart(2)
    m = rm.MetricSpec.diagonal(chart, [1.0, 1.0])
    gm = gd.GradedMetric(m, ef.constant(chart, 0.4))
    p = (0.1, 0.2)
    assert [f(p) for row in gd.stress_fields(gm) for f in row] == [0.0] * 4
    assert np.max(np.abs(gd.conservation_residual_at(gm, p).components)) == 0.0


def test_conservation_harmonic_theta():
    # linear theta on Minkowski is harmonic
    chart = ef.ChartSpec(("t", "x"), ((-1, 1), (-1, 1)))
    m = rm.MetricSpec.diagonal(chart, [-1.0, 1.0])
    gm = gd.GradedMetric(m, ef.parse_field("0.7*t + 0.2*x", chart))
    rng = np.random.default_rng(113)
    for _ in range(5):
        p = random_interior_point(rng, chart)
        res = gd.conservation_residual_at(gm, p)
        assert np.max(np.abs(res.components)) <= 1e-10


def test_conservation_control_quadratic():
    # theta = x^2 is not harmonic: residual must be 2*lap(theta)*dtheta = (8x, 0)
    gm = flat_graded("x^2")
    for x in (-0.5, 0.1, 0.6):
        res = gd.conservation_residual_at(gm, (x, 0.3)).components
        assert np.allclose(res, [8.0 * x, 0.0], atol=1e-10)


def test_field_residuals_flat_slope():
    gm = flat_graded("x")
    rep = gd.field_residuals_at(gm, (0.25, -0.4))
    assert rep.e28 == 0.0
    assert rep.e29 == pytest.approx(2.0, abs=1e-13)
    assert rep.e27 == pytest.approx(1.0, abs=1e-13)
    assert rep.e44 == pytest.approx(2.0, abs=1e-13)
    assert rep.e30 == rep.e28
    assert rep.scalar_curvature == pytest.approx(0.0, abs=1e-13)
    assert rep.graded_scalar == pytest.approx(-2.0, abs=1e-13)


def test_field_residuals_vacuum():
    chart = default_chart(3)
    m = rm.MetricSpec.diagonal(chart, [-1.0, 1.0, 1.0])
    gm = gd.GradedMetric(m, ef.constant(chart, 0.0))
    rep = gd.field_residuals_at(gm, (0.1, 0.0, -0.2))
    for value in (rep.e27, rep.e28, rep.e29, rep.e44):
        assert value == 0.0


def test_field_residuals_json_schema():
    gm = flat_graded("x")
    d = gd.field_residuals_at(gm, (0.0, 0.0)).to_json_dict()
    assert set(d) == {"point", "e27", "e28", "e29", "e44", "scalar_curvature", "graded_scalar"}
    assert d["point"] == [0.0, 0.0]
    assert all(isinstance(v, float) for k, v in d.items() if k != "point")


def test_equivalence_of_forms_on_samples():
    # solutions satisfy all forms; generic metrics fail all forms
    tol = 1e-9
    gm_sol = eds_graded(3)
    rng = np.random.default_rng(127)
    configs = [
        (gm_sol, (0.1, -0.3, 0.2, 1.7), True),
        (gm_sol, (0.0, 0.0, 0.0, 0.8), True),
        (eds_graded(2), (0.1, -0.1, 2.0), True),
    ]
    chart3 = default_chart(3)
    for _ in range(3):
        gm_bad = random_graded_metric(rng, chart3)
        configs.append((gm_bad, random_interior_point(rng, chart3), False))
    for gm, p, expect in configs:
        rep = gd.field_residuals_at(gm, p)
        pair_a = max(rep.e27, rep.e28) <= tol
        pair_b = max(rep.e29, rep.e30) <= tol
        single = rep.e44 <= tol
        assert pair_a == pair_b == single == expect, (p, rep)


def test_hilbert_action_values():
    chart = default_chart(2)
    m = rm.MetricSpec.diagonal(chart, [-1.0, 1.0])
    gm = gd.GradedMetric(m, ef.constant(chart, 0.0))
    assert gd.hilbert_action(gm, QuadSpec(6)) == 0.0

    chart2 = ef.ChartSpec(("x", "y"), ((-0.2, 1.2), (-0.2, 1.2)))
    m2 = rm.MetricSpec.diagonal(chart2, [1.0, 1.0])
    gm2 = gd.GradedMetric(m2, ef.coordinate(chart2, "x"))
    act = gd.hilbert_action(gm2, QuadSpec(10, ((0.0, 1.0), (0.0, 1.0))))
    assert act == pytest.approx(-2.0, rel=1e-13)


def test_action_magnitude():
    chart = default_chart(2)
    vac = gd.GradedMetric(rm.MetricSpec.diagonal(chart, [-1.0, 1.0]), ef.constant(chart, 0.0))
    assert gd.action_magnitude(vac, QuadSpec(6)) == 0.0

    chart2 = ef.ChartSpec(("x", "y"), ((-0.2, 1.2), (-0.2, 1.2)))
    gm2 = gd.GradedMetric(rm.MetricSpec.diagonal(chart2, [1.0, 1.0]), ef.coordinate(chart2, "x"))
    box = ((0.0, 1.0), (0.0, 1.0))
    assert gd.action_magnitude(gm2, QuadSpec(10, box)) == pytest.approx(2.0, rel=1e-13)

    # power-law solution: signed integrand cancels pointwise, magnitude does not.
    # |R| + 2|tr T~| = 4 c^2 / t^2 and density = t, so over unit spatial volume
    # the integral is 4 c^2 ln(1.9/0.9) with c^2 = 1/3.
    eds = eds_graded(3)
    support = ((-0.5, 0.5),) * 3 + ((0.9, 1.9),)
    mag = gd.action_magnitude(eds, QuadSpec(8, support))
    assert mag == pytest.approx(4.0 / 3.0 * math.log(1.9 / 0.9), rel=1e-10)
    assert abs(gd.hilbert_action(eds, QuadSpec(8, support))) <= 1e-12 * mag


def test_hilbert_action_node_refinement():
    rng = np.random.default_rng(131)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart)
    coarse = gd.hilbert_action(gm, QuadSpec(6))
    mid = gd.hilbert_action(gm, QuadSpec(12))
    fine = gd.hilbert_action(gm, QuadSpec(18))
    assert abs(mid - fine) <= max(1e-10, abs(coarse - fine))
    assert gd.hilbert_action(gm, QuadSpec(12)) == mid  # deterministic


def test_variation_spec_guards():
    chart = default_chart(2)
    one = ef.constant(chart, 1.0)
    support = ((-0.2, 0.2), (-0.2, 0.2))
    profile = gd.bump_variation(chart, support).profile
    with pytest.raises(ValueError, match="must be symmetric"):
        gd.VariationSpec(profile, [[0.0, 1.0], [0.0, 0.0]], 0.0, support)
    with pytest.raises(ValueError, match="must be symmetric"):
        gd.VariationSpec(profile, np.eye(3), 0.0, support)  # does not match the chart
    with pytest.raises(ValueError, match="inside the chart box"):
        gd.VariationSpec(profile, np.zeros((2, 2)), 0.0, ((-2.0, 0.2), (-0.2, 0.2)))
    with pytest.raises(ValueError, match=r"^variation does not vanish on the support boundary \(1\.000e\+00\)$"):
        gd.VariationSpec(one, np.zeros((2, 2)), -1.0, support)  # no boundary decay
    with pytest.raises(ValueError, match="must be symmetric"):
        gd.bump_variation(chart, support, [[1.0, 0.5], [0.4, 1.0]], 0.0)


def test_bump_variation_profile():
    chart = default_chart(2)
    support = ((-0.3, 0.3), (-0.3, 0.3))
    coeffs = np.array([[2.0, 0.0], [0.0, 1.0]])
    var = gd.bump_variation(chart, support, coeffs, -1.0)
    assert var.profile((0.0, 0.0)) == pytest.approx(math.exp(-1.0) ** 2, rel=1e-12)
    assert np.array_equal(var.amplitudes, coeffs) and var.h_amplitude == -1.0
    coeffs[0, 0] = 3.0  # the spec keeps its own read-only copy
    assert var.amplitudes[0, 0] == 2.0
    with pytest.raises(ValueError, match="read-only"):
        var.amplitudes[0, 0] = 3.0
    assert np.array_equal(gd.bump_variation(chart, support).amplitudes, np.zeros((2, 2)))


def test_zero_variation_gives_zero():
    gm = flat_graded("x")
    # with every amplitude zero the profile need not vanish anywhere
    var = gd.VariationSpec(ef.constant(gm.chart, 1.0), np.zeros((2, 2)), 0.0, ((-0.4, 0.4), (-0.4, 0.4)))
    closed, fd = gd.action_first_variation(gm, var, QuadSpec(6))
    assert closed == 0.0 and fd == 0.0


def test_variation_pure_h_flat():
    gm = flat_graded("x", lo=-1.2, hi=1.2)
    support = ((-0.8, 0.8), (-0.8, 0.8))
    var = gd.bump_variation(gm.chart, support, None, 1.0)
    closed, fd = gd.action_first_variation(gm, var, QuadSpec(64))
    assert closed == 0.0  # integrand is 4*h*lap(theta) with harmonic theta
    assert abs(fd) <= 1e-5


def test_variation_routes_agree():
    rng = np.random.default_rng(137)
    chart = default_chart(2)
    metrics = [
        gd.GradedMetric(rm.MetricSpec.diagonal(chart, [1.0, 1.0]), ef.coordinate(chart, "x")),
        gd.GradedMetric(
            rm.MetricSpec.diagonal(chart, ["1 + 0.3*x^2", "1 + 0.2*y^2"]),
            ef.parse_field("0.4*y", chart),
        ),
        gd.GradedMetric(
            rm.MetricSpec.diagonal(chart, ["-1 - 0.2*y^2", "1 + 0.3*x*y"]),
            ef.parse_field("0.3*x + 0.2*y", chart),
        ),
    ]
    support = ((-0.3, 0.3), (-0.3, 0.3))
    done = 0
    for i, gm in enumerate(metrics):
        count = 4 if i == 0 else 3
        for _ in range(count):
            coeffs = rng.uniform(-1.0, 1.0, size=(2, 2))
            coeffs = 0.5 * (coeffs + coeffs.T)
            var = gd.bump_variation(chart, support, coeffs, float(rng.uniform(-1, 1)))
            closed, fd = gd.action_first_variation(gm, var, QuadSpec(56))
            assert abs(closed - fd) <= 1e-5 * (1 + abs(closed)), (i, closed, fd)
            done += 1
    assert done == 10


def _rebuilt_difference(gm, var, quad):
    """Central difference of the actions of g +- step*s, theta +- step*h, rebuilt as symbolic fields."""
    n, A = gm.chart.dim, var.amplitudes
    support = QuadSpec(quad.nodes_per_axis, var.support)
    s = [[A[i, j] * var.profile for j in range(n)] for i in range(n)]
    h = var.h_amplitude * var.profile

    def action(t):
        rows = [
            [gm.metric.component(i, j) if s[i][j].is_zero else gm.metric.component(i, j) + t * s[i][j]
             for j in range(n)]
            for i in range(n)
        ]
        theta = gm.theta if h.is_zero else gm.theta + t * h
        return gd.hilbert_action(gd.GradedMetric(rm.MetricSpec(gm.chart, rows), theta), support)

    return (action(gd.VARIATION_STEP) - action(-gd.VARIATION_STEP)) / (2.0 * gd.VARIATION_STEP)


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind", ["s", "h", "both", "zero", "units"])
def test_action_difference_matches_symbolic_rebuild(dim, kind):
    # the jets of g + t*s and theta + t*h formed from one sweep of the profile
    # give the bits of sweeping the rebuilt fields; g_0_1 = 0 and, in dim 3,
    # theta = 0 meet add_expr's fold of a zero entry, and the amplitudes 1.0,
    # -1.0 and -0.0 of "units" meet mul_expr's folds of c*p to p, to p times
    # a negated constant and to zero
    rng = np.random.default_rng(300 + dim)
    chart = default_chart(dim)
    rows = random_metric(rng, chart).component_fields()
    rows[0][1] = rows[1][0] = ef.constant(chart, 0.0)
    theta = ef.constant(chart, 0.0) if dim == 3 else random_polynomial(rng, chart, scale=0.5)
    gm = gd.GradedMetric(rm.MetricSpec(chart, rows), theta)
    coeffs = rng.uniform(-1.0, 1.0, (dim, dim))
    coeffs = 0.5 * (coeffs + coeffs.T) if kind in ("s", "both") else np.zeros((dim, dim))
    h = 0.7 if kind in ("h", "both") else 0.0
    if kind == "units":
        units, h = itertools.cycle((1.0, -1.0, -0.0)), 1.0
        for i in range(dim):
            for j in range(i, dim):
                coeffs[i, j] = coeffs[j, i] = next(units)
    var = gd.bump_variation(chart, ((-0.3, 0.25),) * dim, coeffs, h)
    quad = QuadSpec({2: 6, 3: 4, 4: 3}[dim])
    closed, fd = gd.action_first_variation(gm, var, quad)
    assert fd.hex() == _rebuilt_difference(gm, var, quad).hex()
    assert math.isfinite(closed)
    assert (fd == 0.0) == (kind == "zero")


def test_action_variation_is_one_jet_sweep(jet_calls):
    gm = eds_graded(2)
    var = gd.bump_variation(gm.chart, ((-0.5, 0.5), (-0.5, 0.5), (1.0, 2.0)), np.eye(3), 0.5)
    jet_calls.clear()  # the boundary probe of the variation's construction
    gd.action_first_variation(gm, var, QuadSpec(4))
    metric_fields = [gm.metric.component(i, j) for i in range(3) for j in range(i, 3)]
    assert jet_calls == [metric_fields + [gm.theta, var.profile]]


def test_action_variation_refuses_a_box_other_than_its_support():
    # only the node count is read, so a box that would be dropped is refused instead
    rng = np.random.default_rng(41)
    chart = default_chart(2)
    gm = random_graded_metric(rng, chart)
    support = ((-0.3, 0.25), (-0.3, 0.25))
    var = gd.bump_variation(chart, support, np.eye(2), 0.5)
    assert gd.action_first_variation(gm, var, QuadSpec(8, support)) == gd.action_first_variation(gm, var, QuadSpec(8))
    with pytest.raises(ValueError, match="integrates over its support"):
        gd.action_first_variation(gm, var, QuadSpec(8, ((-0.4, 0.0), (0.0, 0.4))))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_action_variation_fails_closed_on_weight_overflow():
    # exp(2 * theta) overflows where x > 354.9, so at every point of the support
    chart = ef.ChartSpec(("x", "y"), ((0.0, 400.0), (-1.0, 1.0)))
    gm = gd.GradedMetric(rm.MetricSpec.diagonal(chart, [1.0, 1.0]), ef.coordinate(chart, "x"))
    var = gd.bump_variation(chart, ((370.0, 390.0), (-0.5, 0.5)), np.eye(2), 0.5)
    point = r"\(371\.38863688405945, -0\.4305681557970263\)"
    with pytest.raises(DomainError, match=rf"^non-finite value of exp\(2\*theta\) at point {point}$"):
        gd.action_first_variation(gm, var, QuadSpec(4))


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_action_sums_match_geometry_batch_bitwise(dim):
    # action_magnitude and the perturbed passes sum theta's part of the geometry
    # without a GeometryBatch; each gives the bits of the same sum over one. The
    # scalar curvature's row is the same whether the trace core pairs Ricci with
    # the variation (the base pass) or not (geometry_batch, the perturbed passes)
    rng = np.random.default_rng(900 + dim)
    chart = default_chart(dim)
    gm = random_graded_metric(rng, chart)
    quad = QuadSpec({2: 7, 3: 5, 4: 4}[dim])
    pts, w = qd.tensor_rule(chart, quad)
    d = gd.geometry_batch(gm, pts)
    magnitude = float(np.einsum("p,p->", (np.abs(d.scalar) + 2.0 * np.abs(d.lap + d.gradsq)) * d.density, w))
    assert gd.action_magnitude(gm, quad).hex() == magnitude.hex()
    # the base action of _action_variation, and its central difference over the rebuilt fields
    coeffs = rng.uniform(-1.0, 1.0, (dim, dim))
    var = gd.bump_variation(chart, ((-0.3, 0.25),) * dim, 0.5 * (coeffs + coeffs.T), 0.7)
    _, fd, base = gd._action_variation(gm, var, quad)
    pts, w = qd.tensor_rule(chart, QuadSpec(quad.nodes_per_axis, var.support))
    d = gd.geometry_batch(gm, pts)
    assert base.hex() == float(np.einsum("p,p->", d.graded_scalar * d.density, w)).hex()

    def action(t):
        s = [[var.amplitudes[i, j] * var.profile for j in range(dim)] for i in range(dim)]
        rows = [[gm.metric.component(i, j) + t * s[i][j] for j in range(dim)] for i in range(dim)]
        theta = gm.theta + t * (var.h_amplitude * var.profile)
        d = gd.geometry_batch(gd.GradedMetric(rm.MetricSpec(chart, rows), theta), pts)
        return float(np.einsum("p,p->", d.graded_scalar * d.density, w))

    step = gd.VARIATION_STEP
    assert fd.hex() == ((action(step) - action(-step)) / (2.0 * step)).hex()


@pytest.mark.bitwise
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_action_sums_do_not_depend_on_point_blocks(monkeypatch, dim, seed):
    # each integrand is filled block by block and summed once over the rule,
    # so one block, blocks of two or three points and blocks of one point give
    # the same bits. Several geometries per dim: a pairing whose sums run in
    # another order for a lone point differs on some draws only
    rng = np.random.default_rng(950 + dim + 10 * seed)
    chart = default_chart(dim)
    gm = random_graded_metric(rng, chart)
    coeffs = rng.uniform(-1.0, 1.0, (dim, dim))
    var = gd.bump_variation(chart, ((-0.3, 0.25),) * dim, 0.5 * (coeffs + coeffs.T), 0.7)
    quad = QuadSpec({2: 7, 3: 4, 4: 3}[dim])
    npts = quad.nodes_per_axis**dim
    jets = dim * dim * ef.jet_space(dim, 2).count

    def sums(chunk_doubles, blocks):
        monkeypatch.setattr(rm, "CHUNK_DOUBLES", chunk_doubles)
        assert len(rm._blocks(npts, dim)) == blocks
        values = [gd.action_magnitude(gm, quad), gd.hilbert_action(gm, quad), *gd._action_variation(gm, var, quad)]
        return [v.hex() for v in values]

    single = sums(rm.CHUNK_DOUBLES, 1)
    assert sums(3 * max(dim**4, jets), -(-npts // 3)) == single
    assert sums(1, npts) == single


def test_action_and_scalar_curvature_build_no_curvature_tensor(monkeypatch):
    # the action's three passes, action_magnitude, hilbert_action, geometry_batch,
    # ricci_at and scalar_curvature_at read Ricci, the scalar curvature and <s, Ric>
    # off the trace core; the Riemann core never runs
    rng = np.random.default_rng(61)
    chart = default_chart(3)
    gm = random_graded_metric(rng, chart)
    var = gd.bump_variation(chart, ((-0.3, 0.25),) * 3, np.eye(3), 0.5)

    def refuse(*args):
        raise AssertionError("a curvature tensor was assembled")

    monkeypatch.setattr(rm, "_riemann_core", refuse)
    assert all(np.isfinite(gd._action_variation(gm, var, QuadSpec(3))))
    assert np.isfinite(gd.action_magnitude(gm, QuadSpec(3)))
    assert np.isfinite(gd.hilbert_action(gm, QuadSpec(3)))
    p = random_interior_point(rng, chart)
    assert np.isfinite(rm.scalar_curvature_at(gm.metric, p))
    assert np.isfinite(rm.ricci_at(gm.metric, p).components).all()
    b = gd.geometry_batch(gm, [p, random_interior_point(rng, chart)])
    assert np.isfinite(b.ric).all() and np.isfinite(b.scalar).all()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_action_variation_fails_closed_in_a_perturbed_pass():
    # the base geometry is finite; theta + step*h, or g + step*s, is not
    chart = ef.ChartSpec(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    support = ((-0.5, 0.5), (-0.5, 0.5))
    gm = gd.GradedMetric(rm.MetricSpec.diagonal(chart, [1.0, 1.0]), ef.parse_field("0.1*x", chart))
    var = gd.bump_variation(chart, support, None, 1e8)  # step*h reaches 1.35e3 at the centre
    # both passes fail first at the first of the rule's four central points, (node 1, node 1)
    first = qd.tensor_rule(chart, QuadSpec(4, support))[0][1 * 4 + 1]
    point = re.escape(str(tuple(first.tolist())))
    with pytest.raises(DomainError, match=rf"^non-finite value of exp\(2\*theta\) at point {point}$"):
        gd.action_first_variation(gm, var, QuadSpec(4))
    # det g = 1.69e308 is finite; (1.3e154 + step*s)^2 is not where step*s passes 4.1e152
    gm = gd.GradedMetric(rm.MetricSpec.diagonal(chart, [1.3e154, 1.3e154]), gm.theta)
    var = gd.bump_variation(chart, support, 1e158 * np.eye(2), 0.0)
    with pytest.raises(DomainError, match=rf"^non-finite value of det g at point {point}$"):
        gd.action_first_variation(gm, var, QuadSpec(4))


def test_field_residuals_one_metric_and_one_theta_sweep(jet_calls):
    gm = eds_graded(3)
    gd.field_residuals_at(gm, (0.1, 0.2, -0.3, 2.0))
    metric_fields = [gm.metric.component(i, j) for i in range(4) for j in range(i, 4)]
    assert jet_calls == [metric_fields + [gm.theta]]


@pytest.mark.parametrize(
    "g00, message",
    [
        ("0.5*x", r"\|det g\| = 0.000e\+00 below threshold"),
        ("1 + 1.5e308*x*x", r"non-finite value of g_0_0 at point \(0.0, 0.1\)"),
    ],
    ids=["degenerate", "hessian-overflow"],
)
def test_metric_errors_come_before_theta_errors(g00, message):
    # theta joins the metric's jet sweep, but a domain error of its own is
    # raised only after the metric's checks pass, as with a sweep of its own
    chart = default_chart(2)
    metric = rm.MetricSpec.diagonal(chart, [ef.parse_field(g00, chart), 1.0])
    gm = gd.GradedMetric(metric, ef.parse_field("ln(x)", chart))
    with np.errstate(all="ignore"), pytest.raises((DomainError, DegenerateMetricError), match=message):
        gd.geometry_batch(gm, [(0.0, 0.1)])


@pytest.mark.parametrize("scale", [1e-3, 2.0**-200, 1e100])
def test_degeneracy_is_relative_to_the_diagonal(scale):
    # flat space in any units is regular; rows parallel to 1 part in 2**40 are
    # degenerate in any units, though |det g| = 1.8e-12 * scale**2 is 1.8e188 at 1e100
    chart = default_chart(2)
    theta = ef.parse_field("x", chart)
    gd.geometry_batch(gd.GradedMetric(rm.MetricSpec.diagonal(chart, [scale, -scale]), theta), [(0.1, 0.2)])
    near = scale * (1.0 - 2.0**-40)
    metric = rm.MetricSpec(chart, [[scale, near], [near, scale]])
    message = r"^\|det g\| = \d\.\d{3}e-1[12] below threshold 1e-10, relative to its diagonal$"
    with pytest.raises(DegenerateMetricError, match=message):
        gd.geometry_batch(gd.GradedMetric(metric, theta), [(0.1, 0.2)])


_GOLDEN = Path(__file__).resolve().parent / "golden"


@functools.lru_cache(maxsize=None)
def _golden_batch(name):
    """The golden config's chart, geometry, grid points and its GeometryBatch over them."""
    cfg = cf.load_config(str(_GOLDEN / name))
    gm, pts = cf.build_graded_metric(cfg), np.array(cf.grid_points(cfg))
    return cfg.chart, gm, pts, gd.geometry_batch(gm, pts)


def _in_units(e, ks):
    """e with each coordinate x_i replaced by 2**k_i * x_i."""

    def rebuild(n, args):
        match n:
            case ef.Coord(index=i):
                return ef.Mul(ef.Const(2.0 ** ks[i]), n)
            case ef.Const():
                return n
            case ef.Pow(exponent=r):
                return ef.Pow(*args, r)
            case ef.Call(fn=fn):
                return ef.Call(fn, *args)
        return type(n)(*args)

    return ef._walk([e], rebuild)[0]


@pytest.mark.bitwise
@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(p.name for p in _GOLDEN.glob("*.ini"))),
    ks=st.lists(st.integers(-60, 60), min_size=5, max_size=5),
)
def test_geometry_is_covariant_under_power_of_two_units(name, ks):
    # x_i = 2**k_i y_i gives g'_ij(y) = 2**(k_i + k_j) g_ij(x) and theta'(y) = theta(x).
    # With |k_i| <= 60 no entry leaves the normal range, so every tensor of the batch
    # at y = x / 2**k is the golden one's times a power of two per index, bit for bit,
    # and the degeneracy and inverse checks accept the metric in every such unit
    chart, gm, pts, want = _golden_batch(name)
    n = chart.dim
    k = np.array(ks[:n])
    box = [(lo * 2.0**-ki, hi * 2.0**-ki) for (lo, hi), ki in zip(chart.box, k)]
    scaled = ef.ChartSpec(chart.coord_names, box)
    entry = lambda i, j: ef.mul_expr(ef.Const(2.0 ** (k[i] + k[j])), _in_units(gm.metric.component(i, j).expr, k))
    rows = [[ef.ScalarField(scaled, entry(i, j)) for j in range(n)] for i in range(n)]
    theta = ef.ScalarField(scaled, _in_units(gm.theta.expr, k))
    got = gd.geometry_batch(gd.GradedMetric(rm.MetricSpec(scaled, rows), theta), np.ldexp(pts, -k))
    two = k[:, None] + k[None, :]
    unscaled = {
        "g": np.ldexp(got.g, -two),
        "ginv": np.ldexp(got.ginv, two),
        "gamma": np.ldexp(got.gamma, k[:, None, None] - two[None]),
        "ric": np.ldexp(got.ric, -two),
        "scalar": got.scalar,
        "dth": np.ldexp(got.dth, -k),
        "lap": got.lap,
        "gradsq": got.gradsq,
        "weight": got.weight,
        "gric_even": np.ldexp(got.gric_even, -two),
        "gric_odd": got.gric_odd,
        "graded_scalar": got.graded_scalar,
        "det": np.ldexp(got.det, -2 * k.sum()),
    }
    for field, a in unscaled.items():
        assert a.tobytes() == getattr(want, field).tobytes(), (name, k, field)


def test_geometry_batch_rows_are_batches_of_one():
    gm = random_graded_metric(np.random.default_rng(71), default_chart(3), signature=(-1, 1, 1))
    rng = np.random.default_rng(72)
    points = [random_interior_point(rng, gm.chart) for _ in range(4)]
    batch = gd.geometry_batch(gm, points)
    for k, p in enumerate(points):
        assert batch.residual_records()[k] == gd.field_residuals_at(gm, p)
        assert np.array_equal(batch.gric_even[k], gd.graded_ricci_at(gm, p).even.components)


def test_nonfinite_theta_names_field_and_point():
    chart = ef.ChartSpec(("x", "t"), ((-1.0, 1.0), (1.0, 800.0)))
    gm = gd.GradedMetric(
        rm.MetricSpec.diagonal(chart, [1.0, 1.0]), ef.parse_field("1e-300*exp(exp(t))", chart)
    )
    with np.errstate(all="ignore"), pytest.raises(DomainError, match=r"theta at point \(0.0, 799.0\)"):
        gd.geometry_batch(gm, [(0.0, 1.0), (0.0, 799.0)])


def test_symbolic_caches_live_on_the_metric():
    gm = random_graded_metric(np.random.default_rng(73), default_chart(2))
    triple, stress = gd.levicivita_triple(gm), gd.stress_fields(gm)
    assert gd.levicivita_triple(gm) is triple
    assert gd.stress_fields(gm) is stress
    ref = weakref.ref(gm)
    del gm, triple, stress
    gc.collect()
    assert ref() is None


def test_derivative_memos_die_with_the_metric():
    gm = random_graded_metric(np.random.default_rng(5), default_chart(2))
    triple = gd.levicivita_triple(gm)
    gm.metric.christoffel_fields()
    derivs = [f.d(a).d(b) for f in triple.x0 + triple.alpha for a in range(2) for b in range(2)]
    assert derivs[0].expr is triple.x0[0].d(0).d(0).expr
    refs = [weakref.ref(gm), weakref.ref(gm.theta.expr), weakref.ref(derivs[0].expr)]
    del gm, triple, derivs
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_gauss_legendre_rule_cached_and_read_only():
    # the rule is built once per n, shared between calls and not writable; its
    # accuracy is tested in test_quadrature.py
    chart = ef.ChartSpec(("x", "y"), ((-1.0, 1.0), (0.0, 2.0)))
    for n in (1, 6, 56):
        nodes, weights = qd._leggauss(n)
        qd.tensor_rule(chart, QuadSpec(n))
        assert qd._leggauss(n)[0] is nodes
        for arr in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
