import dataclasses
import gc
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from gradedgeo import exprfield as ef
from gradedgeo import graded as gd
from gradedgeo import riemann as rm
from gradedgeo import validate as vd
from gradedgeo.errors import DegenerateMetricError, DomainError
from gradedgeo.algebroid import GradedVectorField, _koszul_from_jets, _order_one_pass, koszul_eval, koszul_values, pairing_field
from gradedgeo.randgen import (
    affine_jets,
    default_chart,
    random_affine_fields,
    random_graded_field,
    random_graded_metric,
    random_interior_point,
    random_interior_points,
    random_metric,
)

from graded_oracles import affine_fields, curvature_field, frame_ricci, frame_scalar, graded_trace
from test_graded import eds_graded, flat_graded


def coord_field(gm, axis):
    return vd._basis(gm)[axis]


def frame_at(m, p):
    # the Gram-Schmidt frame of the metric's values at p
    return vd._gram_schmidt(rm.metric_at(m, p)[0].components)


def test_frame_flat_is_identity():
    gm = flat_graded("x")
    rows, signs = frame_at(gm.metric, (0.3, -0.2))
    assert np.array_equal(rows, np.eye(2))
    assert signs == (1, 1)


def test_frame_gram_property():
    rng = np.random.default_rng(23)
    for sig in [(1, 1), (-1, 1), (1, 1, 1), (-1, 1, 1)]:
        chart = default_chart(len(sig))
        m = random_metric(rng, chart, signature=sig)
        for _ in range(3):
            p = tuple(rng.uniform(-0.3, 0.3, len(sig)))
            rows, signs = frame_at(m, p)
            g = rm.metric_at(m, p)[0].components
            gram = rows @ g @ rows.T
            assert np.max(np.abs(gram - np.diag(signs))) < 1e-12
            assert sorted(signs) == sorted(sig)


def test_frame_null_direction_raises():
    chart = default_chart(2)
    one = ef.constant(chart, 1.0)
    zero = ef.constant(chart, 0.0)
    m = rm.MetricSpec(chart, [[zero, one], [one, zero]])
    with pytest.raises(DegenerateMetricError):
        frame_at(m, (0.0, 0.0))


def test_curvature_field_flat_vanishes():
    gm = gd.GradedMetric(rm.MetricSpec.diagonal(default_chart(2), [1.0, 1.0]),
                         ef.constant(default_chart(2), 0.0))
    conn = gd.levicivita_triple(gm)
    x = coord_field(gm, 0)
    y = coord_field(gm, 1)
    r = curvature_field(conn, x, y, x)
    p = (0.1, -0.2)
    assert max(abs(c(p)) for c in r.even) == 0.0
    assert r.odd(p) == 0.0


def test_frame_ricci_flat_frozen():
    gm = flat_graded("x")
    p = (0.3, -0.2)
    x = coord_field(gm, 0)
    y = coord_field(gm, 1)
    odd = vd._basis(gm)[-1]
    assert frame_ricci(gm, x, x, p) == pytest.approx(-1.0, abs=1e-12)
    assert frame_ricci(gm, x, y, p) == pytest.approx(0.0, abs=1e-12)
    assert frame_ricci(gm, y, y, p) == pytest.approx(0.0, abs=1e-12)
    assert frame_ricci(gm, x, odd, p) == pytest.approx(0.0, abs=1e-12)
    # odd block carries the squared-weight factor
    assert frame_ricci(gm, odd, odd, p) == pytest.approx(-math.exp(0.6), rel=1e-12)
    assert frame_scalar(gm, p) == pytest.approx(-2.0, abs=1e-12)


def test_frame_ricci_symmetric_even_block():
    rng = np.random.default_rng(31)
    gm = random_graded_metric(rng, default_chart(2))
    p = (0.15, -0.1)
    x = coord_field(gm, 0)
    y = coord_field(gm, 1)
    assert frame_ricci(gm, x, y, p) == pytest.approx(
        frame_ricci(gm, y, x, p), abs=1e-12
    )


def test_frame_blocks_match_closed_forms():
    rng = np.random.default_rng(41)
    for sig in [(1, 1), (-1, 1)]:
        gm = random_graded_metric(rng, default_chart(2), signature=sig)
        p = tuple(rng.uniform(-0.25, 0.25, 2))
        res = vd.check_ricci_blocks_frame(gm, [p])
        assert res.passed, res
        res = vd.check_scalar_frame(gm, [p])
        assert res.passed, res


def test_frame_scalar_matches_eds():
    gm = eds_graded(3)
    p = (0.1, 0.2, -0.3, 1.5)
    want = gd.graded_scalar_at(gm, p)
    assert frame_scalar(gm, p) == pytest.approx(want, rel=1e-12)


def test_run_geometry_checks_random_2d():
    rng = np.random.default_rng(7)
    gm = random_graded_metric(rng, default_chart(2))
    results = vd.run_geometry_checks(gm, seed=3)
    names = [r.name for r in results]
    assert "equivalence_joint" not in names
    assert all(r.passed for r in results), [(r.name, r.max_error) for r in results]


def test_run_geometry_checks_eds_full():
    gm = eds_graded(3)
    sample = [(0.1, 0.2, -0.3, 1.5), (0.0, 0.0, 0.0, 1.0), (0.5, -0.5, 0.25, 2.0)]
    results = vd.run_geometry_checks(gm, sample=sample, seed=11)
    names = [r.name for r in results]
    assert "equivalence_joint" in names
    assert all(r.passed for r in results), [(r.name, r.max_error) for r in results]


def test_equivalence_joint_on_non_solution():
    # off-solution geometries must fail every residual form together
    rng = np.random.default_rng(97)
    gm = random_graded_metric(rng, default_chart(3))
    pts = [tuple(rng.uniform(-0.25, 0.25, 3)) for _ in range(4)]
    rep = gd.field_residuals_at(gm, pts[0])
    assert max(rep.e27, rep.e28) > 1e-9
    assert rep.e44 > 1e-9
    res = vd.check_equivalence_joint(gm, pts)
    assert res.passed
    assert res.max_error == 0.0


def test_check_result_report_shape():
    res = vd.CheckResult("demo", 2.5e-10, 1e-9)
    assert res.passed
    d = res.to_json_dict()
    assert set(d) == {"name", "max_error", "tolerance", "passed"}
    assert vd.CheckResult("demo", 2.0, 1e-9).passed is False


def _patch_batch(monkeypatch, **fields):
    # replace GeometryBatch arrays by fields[name](the real array)
    real = gd.geometry_batch

    def patched(gm, points):
        b = real(gm, points)
        return dataclasses.replace(b, **{k: f(getattr(b, k)) for k, f in fields.items()})

    monkeypatch.setattr(gd, "geometry_batch", patched)


def test_nan_error_fails_the_check(monkeypatch):
    # a NaN at the first point must not be forgotten by a finite error at the next
    gm = random_graded_metric(np.random.default_rng(43), default_chart(2))
    sample = [(0.1, -0.2), (0.2, 0.05)]
    _patch_batch(monkeypatch, graded_scalar=lambda a: np.where(np.arange(len(a)) == 0, math.nan, a))
    res = vd.check_scalar_frame(gm, sample)
    assert not res.passed
    assert res.max_error == math.inf


def test_nan_closed_form_block_fails(monkeypatch):
    gm = random_graded_metric(np.random.default_rng(47), default_chart(2))
    _patch_batch(monkeypatch, gric_odd=lambda a: np.full_like(a, math.nan))
    res = vd.check_ricci_blocks_frame(gm, [(0.1, -0.2)])
    assert not res.passed


def test_metric_compatibility_runs_one_pass(jet_calls):
    gm = random_graded_metric(np.random.default_rng(53), default_chart(2), signature=(-1, 1))
    res = vd.check_metric_compatibility(gm, np.random.default_rng(59), points=50)
    assert res.passed
    # eval_jet records a single field, eval_jets_batch a list of them; the
    # random fields are affine arrays, so one pass holds only the 9 fields
    # nabla_{E_a} E_b (3 components each) and the 3 x 3 extended metric
    assert all(isinstance(fields, list) for fields in jet_calls)
    assert [len(fields) for fields in jet_calls] == [9 * 3 + 9]


@pytest.mark.parametrize("dim", [2, 3])
def test_metric_compatibility_batch_matches_points(dim):
    gm = random_graded_metric(np.random.default_rng(61 + dim), default_chart(dim))
    rng = np.random.default_rng(67)
    got = vd.check_metric_compatibility(gm, rng).max_error
    # the same check one triple at a time, from the same random stream
    ref = np.random.default_rng(67)
    want = max(vd.check_metric_compatibility(gm, ref, points=10).max_error for _ in range(5))
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-14)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_oracle_routes_stay_off_the_curvature_engine(monkeypatch):
    # the frame sums and the Koszul formula check the batched curvature
    # engine, so they must run with it switched off
    def engine(*args, **kwargs):
        raise AssertionError("an oracle route reached the curvature engine")

    for module, name in (
        (gd, "geometry_batch"),
        (rm, "curvature_data_batch"),
        (rm, "_christoffel_core"),
        (rm, "_riemann_core"),
        (rm, "_trace_core"),
    ):
        monkeypatch.setattr(module, name, engine)
    rng = np.random.default_rng(71)
    for dim in (2, 3):
        gm = random_graded_metric(rng, default_chart(dim))
        p = random_interior_point(rng, gm.chart)
        x, y, z = (random_graded_field(rng, gm.chart) for _ in range(3))
        values = [
            frame_ricci(gm, x, y, p),
            frame_scalar(gm, p),
            koszul_eval(gm, x, y, z, p),
        ]
        assert all(math.isfinite(v) for v in values), (dim, values)


def test_koszul_route_takes_no_symbolic_derivative(monkeypatch):
    # the Koszul formula checks the symbolic connection, so it must run with
    # symbolic differentiation, Christoffel fields and the triple switched off
    def engine(*args, **kwargs):
        raise AssertionError("the Koszul route reached what it checks")

    for module, name in (
        (ef, "diff_expr"),
        (rm.MetricSpec, "christoffel_fields"),
        (gd, "levicivita_triple"),
        (gd, "geometry_batch"),
    ):
        monkeypatch.setattr(module, name, engine)
    rng = np.random.default_rng(137)
    for dim in (2, 3):
        gm = random_graded_metric(rng, default_chart(dim))
        triples = [tuple(random_graded_field(rng, gm.chart) for _ in range(3)) for _ in range(3)]
        points = [random_interior_point(rng, gm.chart) for _ in triples]
        draw = vd._draw(gm, rng, 3, 3, 1)
        metric = _order_one_pass(gm, [], draw[2])[2:]
        values = [
            koszul_eval(gm, *triples[0], points[0]),
            *koszul_values(gm, triples, points),
            *_koszul_from_jets(*metric, *vd._instance_jets(draw)),
        ]
        assert all(math.isfinite(v) for v in values), (dim, values)


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [2, 3])
def test_koszul_batch_matches_trials(dim):
    gm = random_graded_metric(np.random.default_rng(139 + dim), default_chart(dim))
    rng = np.random.default_rng(149)
    got = vd.check_koszul_vs_triple(gm, rng).max_error
    # the same check one trial at a time, from the same random stream
    ref = np.random.default_rng(149)
    want = max(vd.check_koszul_vs_triple(gm, ref, trials=1).max_error for _ in range(10))
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-14)
    # the suite's later checks draw from where the trials left the stream
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_interior_points_draw_as_the_scalar_loop(dim):
    # one (points, n) uniform draw gives the values of one scalar draw per coordinate,
    # point by point, and leaves the generator where those draws leave it
    chart = ef.ChartSpec(("x", "y", "z", "w")[:dim], ((-0.4, 0.4), (0.5, 2.0), (-3.0, 1.25), (1e-3, 7.0))[:dim])
    batched, scalar = np.random.default_rng(dim), np.random.default_rng(dim)
    margin = [0.15 * (hi - lo) for lo, hi in chart.box]
    for points in (7, 1, 0, 20):
        got = random_interior_points(batched, chart, points)
        want = [
            [float(scalar.uniform(lo + m, hi - m)) for (lo, hi), m in zip(chart.box, margin)] for _ in range(points)
        ]
        assert got.shape == (points, dim) and got.tobytes() == np.array(want, dtype=float).reshape(points, dim).tobytes()
        assert batched.bit_generator.state == scalar.bit_generator.state
    want = tuple(float(scalar.uniform(lo + m, hi - m)) for (lo, hi), m in zip(chart.box, margin))
    assert random_interior_point(batched, chart) == want and batched.random() == scalar.random()


def test_koszul_check_runs_one_pass_per_side(jet_calls):
    gm = random_graded_metric(np.random.default_rng(151), default_chart(2), signature=(-1, 1))
    res = vd.check_koszul_vs_triple(gm, np.random.default_rng(157), trials=10)
    assert res.passed
    # the random fields are affine arrays, so only the table and the metric
    # go on jets, in one pass: the 9 fields nabla_{E_a} E_b (3 components
    # each) for the connection side and the 3 x 3 extended metric that both
    # sides read
    assert all(isinstance(fields, list) for fields in jet_calls)
    assert [len(fields) for fields in jet_calls] == [9 * 3 + 9]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_koszul_check_fails_closed_on_weight_overflow():
    # exp(2 * 400) overflows: the check must stop or fail, never pass
    chart = default_chart(2)
    gm = gd.GradedMetric(rm.MetricSpec.diagonal(chart, [1.0, 1.0]), ef.constant(chart, 400.0))
    try:
        res = vd.check_koszul_vs_triple(gm, np.random.default_rng(163))
    except DomainError as err:
        assert "theta" in str(err)
    else:
        assert res.max_error == math.inf
        assert not res.passed


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_frame_scalar_fails_closed_on_weight_overflow():
    # exp(2 * theta) overflows where x > 354.9, inside the box
    chart = ef.ChartSpec(("x", "y"), ((-1.0, 400.0), (-1.0, 1.0)))
    gm = gd.GradedMetric(rm.MetricSpec.diagonal(chart, [1.0, 1.0]), ef.coordinate(chart, "x"))
    with pytest.raises(DomainError, match=r"exp\(2\*theta\)"):
        frame_scalar(gm, (380.0, 0.0))


@pytest.mark.filterwarnings("error")
def test_frame_sums_fail_closed(monkeypatch):
    # a connection table or a pairing that leaves the double range raises DomainError
    # naming it and its first bad point, with no RuntimeWarning. With theta = 1e155*x on a
    # box thin in x, theta and exp(2 theta) are finite, but the derivative of the odd
    # connection coefficient -exp(2 theta) grad theta carries (d_x theta)^2 = 1e310
    chart = ef.ChartSpec(("x", "y"), ((-1e-160, 1e-160), (0.0, 1.0)))
    gm = gd.GradedMetric(rm.MetricSpec.diagonal(chart, [1.0, 1.0]), ef.parse_field("1e155*x", chart))
    with pytest.raises(DomainError, match=r"^non-finite value of connection table at point \(0\.0, 0\.5\)$"):
        vd._frame_sums(gm, [(0.0, 0.5)])
    gm = random_graded_metric(np.random.default_rng(79), default_chart(2))
    pts = [random_interior_point(np.random.default_rng(83 + k), gm.chart) for k in range(3)]
    real = vd._basis_curvature
    monkeypatch.setattr(vd, "_basis_curvature", lambda *args: real(*args) * np.array([1.0, np.inf, 1.0]))
    at = re.escape(f" at point {tuple(pts[1])}") + "$"
    with pytest.raises(DomainError, match="^non-finite value of basis curvature" + at):
        vd._frame_sums(gm, pts)


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [2, 3])
def test_suite_reads_one_batch_per_check(monkeypatch, dim):
    # one geometry batch per closed-form check, not one metric sweep per
    # point and quantity
    calls = []
    real = ef.eval_jets_batch

    def counted(fields, points, order, *args):
        calls.append((points, order))
        return real(fields, points, order, *args)

    monkeypatch.setattr(ef, "eval_jets_batch", counted)
    gm = random_graded_metric(np.random.default_rng(73 + dim), default_chart(dim))
    results = vd.run_geometry_checks(gm, seed=5)
    assert all(r.passed for r in results), [(r.name, r.max_error) for r in results]
    # one order-2 sweep, the batch over the whole sample; the frames at the
    # default two frame points, shared by the two frame checks, read g off the
    # suite's order-1 table pass; the other order-1 sweep is the stress divergence's
    assert sorted(order for _, order in calls) == [1, 1, 2]
    # the checks read the shared batch's rows as if each had built its own
    sample = [tuple(p) for points, order in calls if order == 2 for p in points]  # the batch's points
    alone = [
        vd.check_ricci_blocks_frame(gm, sample[:2]),
        vd.check_scalar_frame(gm, sample[:2]),
        vd.check_conservation_identity(gm, sample),
    ]
    shared = {r.name: r.max_error for r in results}
    assert [r.max_error for r in alone] == [shared[r.name] for r in alone]


def _sample(gm, seed):
    rng = np.random.default_rng(seed)
    return [random_interior_point(rng, gm.chart) for _ in range(4)]


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [2, 3])
def test_trace_identities_batch_matches_points(dim):
    gm = random_graded_metric(np.random.default_rng(80 + dim), default_chart(dim))
    sample = _sample(gm, 83)
    got = vd.check_trace_identities(gm, sample).max_error
    # the same check one point at a time through the batch-of-one views
    want = 0.0
    for p in sample:
        scalar = gd.graded_scalar_at(gm, p)
        tr = graded_trace(gm, gd.graded_ricci_at(gm, p))
        want = max(want, abs(scalar - tr) / (1.0 + abs(scalar)))
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [2, 3])
def test_conservation_identity_batch_matches_points(dim):
    gm = random_graded_metric(np.random.default_rng(97 + dim), default_chart(dim))
    sample = _sample(gm, 101)
    got = vd.check_conservation_identity(gm, sample).max_error
    # the same check one point at a time through the batch-of-one views
    want = 0.0
    for p in sample:
        res = gd.conservation_residual_at(gm, p).components
        dth = ef.eval_jet(gm.theta, p, 1).gradient()
        expect = 2.0 * rm.laplacian_at(gm.metric, gm.theta, p) * dth
        want = max(want, float(np.max(np.abs(res - expect))) / (1.0 + float(np.max(np.abs(expect)))))
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-14)


def _frame_ricci_reference(gm, pairs, p):
    # the frame sum built the direct way: one curvature field per frame
    # vector and pair, each paired with that vector and evaluated at p
    conn = gd.levicivita_triple(gm)
    rows, signs = frame_at(gm.metric, p)
    frame = [GradedVectorField.of(gm.chart, list(row), 0.0) for row in rows]
    frame.append(GradedVectorField((ef.constant(gm.chart, 0.0),) * gm.chart.dim, ef.exp(-gm.theta)))
    signs += (1,)
    sums = [
        sum(s * pairing_field(gm, curvature_field(conn, e, x, y), e)(p) for s, e in zip(signs, frame))
        for x, y in pairs(frame)
    ]
    return sums, signs


@pytest.mark.bitwise
@pytest.mark.parametrize("sig", [(1, 1), (-1, 1), (1, 1, 1), (-1, 1, 1)])
def test_frame_sums_match_direct_curvature(sig):
    # curvature is tensorial, so the basis pairings summed over the frame
    # agree with the curvature of the frame vectors themselves
    rng = np.random.default_rng(103 + len(sig) + sig[0])
    gm = random_graded_metric(rng, default_chart(len(sig)), signature=sig)
    p = random_interior_point(rng, gm.chart)
    x, y = random_graded_field(rng, gm.chart), random_graded_field(rng, gm.chart)
    (want,), _ = _frame_ricci_reference(gm, lambda frame: [(x, y)], p)
    sums, signs = _frame_ricci_reference(gm, lambda frame: [(e, e) for e in frame], p)
    want_scalar = sum(s * r for s, r in zip(signs, sums))
    got, got_scalar = frame_ricci(gm, x, y, p), frame_scalar(gm, p)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)
    assert abs(got_scalar - want_scalar) <= 1e-12 * max(1.0, abs(want_scalar)), (got_scalar, want_scalar)


def test_zero_pattern_folded_by_constructors():
    # the builders multiply and add zeros freely; mul_expr and add_expr must fold them
    chart = default_chart(3)
    m = rm.MetricSpec.diagonal(chart, [ef.parse_field(s, chart) for s in ("1 + x^2", "2 + y*z", "3 - x*z")])
    gamma = m.christoffel_fields()
    for k, i, j in itertools.permutations(range(3)):
        assert gamma[k][i][j].is_zero, (k, i, j)
    n = chart.dim
    varying = gd.GradedMetric(m, ef.parse_field("x*y", chart))
    steady = gd.GradedMetric(m, ef.constant(chart, 0.5))
    for gm in (varying, steady):
        conn = vd._connection_basis(gm)
        assert all(conn[a * (n + 1) + b].odd.is_zero for a in range(n) for b in range(n))
    # constant theta: alpha and X0 vanish, so the odd-odd entry has no even part
    assert all(c.is_zero for c in vd._connection_basis(steady)[-1].even)
    even_only = GradedVectorField.of(chart, ["x", "1", "y*z"])
    assert "exp(" not in ef.pretty_print(pairing_field(varying, even_only, even_only))


def test_basis_connection_built_once_per_metric(monkeypatch):
    # the frame route reads curvature off the cached table nabla_{E_a} E_b,
    # so a suite builds the table once per metric
    calls = []
    real = gd.graded_apply_field
    monkeypatch.setattr(gd, "graded_apply_field", lambda *args: calls.append("graded_apply_field") or real(*args))
    gm = random_graded_metric(np.random.default_rng(109), default_chart(2))
    sizes = []
    for seed in (5, 6):
        results = vd.run_geometry_checks(gm, seed=seed)
        assert all(r.passed for r in results), [(r.name, r.max_error) for r in results]
        sizes.append(calls.count("graded_apply_field"))
    # (n + 1)^2 basis pairs, all in the first suite
    assert sizes == [3 * 3, 3 * 3]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_basis_curvature_matches_curvature_field(dim):
    # <R(E_a, E_b)E_c, E_d> read off the table's jets is the pairing of the
    # symbolic curvature, for every basis slot, the odd basis included
    rng = np.random.default_rng(197 + dim)
    gm = random_graded_metric(rng, default_chart(dim))
    conn, basis = gd.levicivita_triple(gm), vd._basis(gm)
    pts = gm.chart.require_points([random_interior_point(rng, gm.chart) for _ in range(3)])
    got = vd._basis_curvature(*vd._table_jets(gm, (), pts)[2:5])
    pairings = [
        pairing_field(gm, curvature_field(conn, a, b, c), d)
        for a in basis
        for b in basis
        for c in basis
        for d in basis
    ]
    want = np.array([jet.value for jet in ef.eval_jets_batch(pairings, pts, 0)]).reshape(got.shape)
    for t in range(len(pts)):
        scale = np.max(np.abs(want[..., t]))
        assert scale > 0.0
        assert np.max(np.abs(got[..., t] - want[..., t])) <= 1e-13 * scale, t


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_basis_nabla_matches_graded_apply_field(dim):
    # nabla_x y from the table nabla_{E_a} E_b and the affine arrays of x and
    # y is the symbolic covariant derivative of the same draws read at the point
    gm = random_graded_metric(np.random.default_rng(167 + dim), default_chart(dim))
    conn = gd.levicivita_triple(gm)
    draw = vd._draw(gm, np.random.default_rng(211), 4, 2, 1)
    fields = affine_fields(gm.chart, *draw[0])
    (vx, vy), (_, dy) = vd._instance_jets(draw)
    got = vd._nabla(vd._table_jets(gm, (), draw[2])[2], vx, vy, dy)
    for t, (slots, p) in enumerate(zip(*draw[1:])):
        field = gd.graded_apply_field(conn, *(fields[s] for s in slots))
        want = np.array([f(tuple(p)) for f in (*field.even, field.odd)])
        assert np.max(np.abs(got[:, t] - want)) <= 1e-13 * np.max(np.abs(want)), (t, got[:, t], want)


def _patch_triple(monkeypatch, gm, **changes):
    # the triple of gm with some pieces replaced, seen by every builder
    base = gd.levicivita_triple(gm)
    pieces = {"alpha": base.alpha, "x0": base.x0, "alpha_prime": base.alpha_prime, **changes}
    triple = gd.GradedConnectionTriple(gm, **pieces)
    monkeypatch.setattr(gd, "levicivita_triple", lambda _: triple)


def _fresh_metric(seed):
    # a new metric each call, so no table is cached from an earlier triple
    return random_graded_metric(np.random.default_rng(seed), default_chart(2))


def test_torsion_check_detects_mismatched_forms(monkeypatch):
    assert vd.check_torsion_free(_fresh_metric(173), np.random.default_rng(179)).passed
    gm = _fresh_metric(173)
    one = ef.constant(gm.chart, 1.0)
    _patch_triple(monkeypatch, gm, alpha_prime=tuple(a + one for a in gd.levicivita_triple(gm).alpha))
    assert not vd.check_torsion_free(gm, np.random.default_rng(179)).passed


def test_compatibility_check_detects_perturbed_x0(monkeypatch):
    assert vd.check_metric_compatibility(_fresh_metric(181), np.random.default_rng(191)).passed
    gm = _fresh_metric(181)
    _patch_triple(monkeypatch, gm, x0=tuple(c + 0.1 for c in gd.levicivita_triple(gm).x0))
    assert not vd.check_metric_compatibility(gm, np.random.default_rng(191)).passed


def test_suite_memory_does_not_grow_over_many_runs():
    # 400 suites on one geometry. Model: four warm-up suites build the geometry's
    # symbolic caches, its programs and their kept constants, one entry per jet
    # space and empty batch or not, which every later suite reuses; a later
    # suite frees all it allocates before it returns. So the traced memory after
    # 400 more suites exceeds that after the warm-up only by slack that does not
    # grow with their count: at most 64 KB, against 0.8 MB for a leak of 2 KB a
    # suite, the rate at which random_validate's RSS grew when one operation's
    # fields were kept alive by a program held on a long-lived root
    gm = random_graded_metric(np.random.default_rng(79), default_chart(2))
    for _ in range(4):
        vd.run_geometry_checks(gm, seed=3)
    tracemalloc.start()
    try:
        # a full collection empties the interpreter's free lists, whose blocks tracemalloc counts as allocated
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(400):
            vd.run_geometry_checks(gm, seed=3)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown <= 64 * 1024, grown


def test_suite_runs_one_pass_per_connection_check(monkeypatch):
    # the Koszul, compatibility and torsion checks and the frame sums of a
    # suite share one order-1 pass, the Koszul formula included
    calls = []
    real = ef.eval_jets_batch

    def counted(fields, points, order, *rest):
        calls.append((len(fields), order))
        return real(fields, points, order, *rest)

    monkeypatch.setattr(ef, "eval_jets_batch", counted)
    gm = random_graded_metric(np.random.default_rng(193), default_chart(2))
    results = vd.run_geometry_checks(gm, seed=7)
    assert all(r.passed for r in results), [(r.name, r.max_error) for r in results]
    # the random fields are affine arrays, so the suite's pass holds theta,
    # the 9 fields nabla_{E_a} E_b (3 components each) and the 3 x 3 extended
    # metric; then the conservation check's pass over the 4 stress components
    want = [1 + 9 * 3 + 9, 4]
    assert [size for size, order in calls if order == 1] == want


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_affine_fields_match_symbolic_jets(dim):
    # the arrays' values and gradients are the bits of the order-1 jets of
    # the symbolic fields built from them, signed zeros included
    chart = default_chart(dim)
    rng = np.random.default_rng(223 + dim)
    bias, coef, axis = random_affine_fields(rng, chart, 6)
    fields = affine_fields(chart, bias, coef, axis)
    assert (bias < 0.0).any() and (bias > 0.0).any()  # both signs of the gradient's first zero
    pts = chart.require_points([random_interior_point(rng, chart) for _ in range(5)])
    val, grad = affine_jets(bias, coef, axis, pts)
    jets = ef.eval_jets_batch([c for v in fields for c in (*v.even, v.odd)], pts, 1)
    want_val = np.array([jet.value for jet in jets]).reshape(val.shape)
    want_grad = np.array([jet.gradient() for jet in jets]).reshape(grad.shape)
    assert val.tobytes() == want_val.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [2, 3])
def test_suite_connection_checks_match_alone(monkeypatch, dim):
    # the suite's shared pass gives each connection check the bits of its
    # own pass, and its draws leave the stream where the checks called alone leave it
    streams = []
    real = vd._draw
    monkeypatch.setattr(vd, "_draw", lambda gm, rng, *args: streams.append(rng) or real(gm, rng, *args))
    gm = random_graded_metric(np.random.default_rng(227 + dim), default_chart(dim))
    shared = {r.name: r.max_error for r in vd.run_geometry_checks(gm, seed=13)}
    suite = streams[-1]
    rng = np.random.default_rng(13)
    [random_interior_point(rng, gm.chart) for _ in range(5)]  # the suite's sample
    alone = [vd.check_koszul_vs_triple(gm, rng), vd.check_metric_compatibility(gm, rng), vd.check_torsion_free(gm, rng)]
    assert [r.max_error for r in alone] == [shared[r.name] for r in alone]
    assert suite.bit_generator.state == rng.bit_generator.state


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_koszul_arrays_match_symbolic_triples(dim):
    # the formula on the affine arrays is the formula on the symbolic fields
    # built from them, bit for bit
    gm = random_graded_metric(np.random.default_rng(233 + dim), default_chart(dim))
    draw = vd._draw(gm, np.random.default_rng(239), 6, 3, 1)
    fields = affine_fields(gm.chart, *draw[0])
    triples = [tuple(fields[s] for s in slots) for slots in draw[1]]
    got = _koszul_from_jets(*vd._table_jets(gm, (), draw[2])[4:], *vd._instance_jets(draw))
    assert got.tobytes() == koszul_values(gm, triples, list(map(tuple, draw[2]))).tobytes()


@pytest.mark.bitwise
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_suite_koszul_column_matches_koszul_values(monkeypatch, dim):
    # the formula the suite evaluates on its shared pass gives the bits of
    # koszul_values on the same fields, as symbolic triples, at the same points
    draws, columns = [], []
    real_check, real_formula = vd._koszul, vd._koszul_from_jets
    monkeypatch.setattr(vd, "_koszul", lambda gm, draw, jets: draws.append(draw) or real_check(gm, draw, jets))
    monkeypatch.setattr(vd, "_koszul_from_jets", lambda *arrays: columns.append(real_formula(*arrays)) or columns[-1])
    gm = random_graded_metric(np.random.default_rng(241 + dim), default_chart(dim))
    vd.run_geometry_checks(gm, seed=17)
    (fields, slots, pts), = draws
    symbolic = affine_fields(gm.chart, *fields)
    triples = [tuple(symbolic[s] for s in row) for row in slots]
    (got,) = columns
    assert got.tobytes() == koszul_values(gm, triples, list(map(tuple, pts))).tobytes()
