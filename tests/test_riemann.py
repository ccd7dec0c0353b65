import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedgeo import config as cf
from gradedgeo import exprfield as ef
from gradedgeo import graded as gd
from gradedgeo import riemann as rm
from gradedgeo.errors import DegenerateMetricError, DomainError, JetOrderError
from gradedgeo.quadrature import QuadSpec, tensor_rule
from gradedgeo.randgen import (
    default_chart,
    random_graded_metric,
    random_interior_point,
    random_metric,
    random_polynomial,
)

from fd_oracles import christoffel_fd, fd_gradient, metric_values, ricci_fd, riemann_fd


@pytest.fixture
def flat2():
    chart = ef.ChartSpec(("x", "y"), ((-2, 2), (-2, 2)))
    return rm.MetricSpec.diagonal(chart, [1.0, 1.0])


@pytest.fixture
def mink2():
    chart = ef.ChartSpec(("t", "x"), ((-2, 2), (-2, 2)))
    return rm.MetricSpec.diagonal(chart, [-1.0, 1.0])


@pytest.fixture
def sphere():
    chart = ef.ChartSpec(("th", "ph"), ((0.2, math.pi - 0.2), (0.1, 6.1)))
    return rm.MetricSpec(chart, [["1", "0"], ["0", "sin(th)^2"]])


@pytest.fixture
def eds3():
    # spatial-flat warped product with scale factor t^(1/3) per axis, time last
    chart = ef.ChartSpec(("x", "y", "z", "t"), ((-2, 2), (-2, 2), (-2, 2), (0.4, 9.0)))
    w = "t^(2/3)"
    return rm.MetricSpec.diagonal(chart, [w, w, w, -1.0])


def test_metric_at_values_and_inverse(eds3):
    g, ginv = rm.metric_at(eds3, (0.0, 0.0, 0.0, 8.0))
    assert g.components[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert g.components[3, 3] == -1.0
    assert np.max(np.abs(g.components @ ginv.components - np.eye(4))) <= 1e-12
    assert g.valence == ("d", "d") and ginv.valence == ("u", "u")


def test_metric_at_is_one_order_zero_sweep(eds3, monkeypatch):
    orders = []

    def recorded(fields, points, order, _original=ef.eval_jets_batch):
        orders.append(order)
        return _original(fields, points, order)

    monkeypatch.setattr(ef, "eval_jets_batch", recorded)
    g, _ = rm.metric_at(eds3, (0.0, 0.0, 0.0, 8.0))
    assert g.components[3, 3] == -1.0
    assert orders == [0]
    rm.christoffel_at(eds3, (0.0, 0.0, 0.0, 8.0))
    assert orders == [0, 1]


def test_degenerate_metric_rejected():
    chart = ef.ChartSpec(("x", "y"), ((-1, 1), (-1, 1)))
    m = rm.MetricSpec.diagonal(chart, ["x", 1.0])
    with pytest.raises(DegenerateMetricError):
        rm.metric_at(m, (0.0, 0.5))
    # fine away from the degeneracy
    rm.metric_at(m, (0.5, 0.5))


def test_asymmetric_metric_rejected():
    chart = ef.ChartSpec(("x", "y"), ((-1, 1), (-1, 1)))
    with pytest.raises(ValueError):
        rm.MetricSpec(chart, [["1", "x"], ["y", "1"]])


def test_symmetric_metric_from_entries_built_apart():
    chart = ef.ChartSpec(("x", "y"), ((-1, 1), (-1, 1)))
    x, y = ef.coordinate(chart, "x"), ef.coordinate(chart, "y")
    # each entry below the diagonal is a tree of its own, equal to the one above
    m = rm.MetricSpec(chart, [["2 + x^2", "x*exp(y)"], [x * ef.exp(y), "2 + y^2"]])
    assert (x * ef.exp(y)).expr is m.component(0, 1).expr
    rm.MetricSpec(chart, [["1", "sin(x*y)/3"], ["sin(x*y)/3", "1"]])
    with pytest.raises(ValueError):
        rm.MetricSpec(chart, [["1", "x*exp(y)"], [ef.exp(y) * x, "1"]])


def test_sphere_christoffel_frozen(sphere):
    p = (math.pi / 4, 1.0)
    gamma = rm.christoffel_at(sphere, p).components
    assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)  # Gamma^th_phph
    assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-12)  # Gamma^ph_thph = cot
    assert gamma[1, 1, 0] == pytest.approx(1.0, abs=1e-12)
    assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-12)


def test_eds_christoffel_frozen(eds3):
    # Gamma^i_ti = a'(t) = 1/(3t) for each spatial axis
    gamma = rm.christoffel_at(eds3, (0.0, 0.0, 0.0, 1.0)).components
    for i in range(3):
        assert gamma[i, 3, i] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert gamma[i, i, 3] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert np.max(np.abs(gamma[:, 3, 3])) <= 1e-12
    assert np.max(np.abs(gamma[3, 3, :])) <= 1e-12


def test_christoffel_vs_fd_oracle():
    rng = np.random.default_rng(5)
    chart = default_chart(3)
    m = random_metric(rng, chart, signature=(1, -1, 1))
    for _ in range(5):
        p = random_interior_point(rng, chart)
        jet_side = rm.christoffel_at(m, p).components
        fd_side = christoffel_fd(m, p)
        assert np.max(np.abs(jet_side - fd_side)) <= 1e-6, p


def test_sphere_riemann_frozen(sphere):
    p = (math.pi / 3, 2.0)
    riem = rm.riemann_at(sphere, p).components
    s2 = math.sin(math.pi / 3) ** 2
    # R(e_th, e_ph) e_ph along e^th carries +sin^2(th) = 0.75
    assert riem[0, 0, 1, 1] == pytest.approx(0.75, abs=1e-12)
    assert s2 == pytest.approx(0.75, abs=1e-15)
    assert riem[0, 1, 0, 1] == pytest.approx(-0.75, abs=1e-12)
    # antisymmetry in the argument pair
    assert np.max(np.abs(riem + np.einsum("lijk->ljik", riem))) <= 1e-12


def test_riemann_vs_fd_oracle():
    rng = np.random.default_rng(17)
    chart = default_chart(2)
    m = random_metric(rng, chart)
    for _ in range(3):
        p = random_interior_point(rng, chart)
        jet_side = rm.riemann_at(m, p).components
        fd_side = riemann_fd(m, p)
        scale = 1.0 + np.max(np.abs(fd_side))
        assert np.max(np.abs(jet_side - fd_side)) <= 2e-5 * scale, p


def test_riemann_symmetries_random():
    rng = np.random.default_rng(23)
    chart = default_chart(3)
    for sig in [(1, 1, 1), (-1, 1, 1)]:
        m = random_metric(rng, chart, signature=sig)
        for _ in range(5):
            p = random_interior_point(rng, chart)
            g = rm.metric_at(m, p)[0].components
            riem = rm.riemann_at(m, p).components
            # lowered tensor R(e_i,e_j,e_k,e_m) = <R(e_i,e_j)e_k, e_m>
            low = np.einsum("lijk,lm->ijkm", riem, g)
            tol = 1e-9 * (1 + np.max(np.abs(low)))
            # antisymmetry in the first pair
            assert np.max(np.abs(low + np.einsum("ijkm->jikm", low))) <= tol
            # antisymmetry in the last pair
            assert np.max(np.abs(low + np.einsum("ijkm->ijmk", low))) <= tol
            # pair interchange
            assert np.max(np.abs(low - np.einsum("ijkm->kmij", low))) <= tol
            # first Bianchi
            bianchi = low + np.einsum("ijkm->jkim", low) + np.einsum("ijkm->kijm", low)
            assert np.max(np.abs(bianchi)) <= tol


def _einsum_christoffel(ginv, dg):
    """The einsum assembly the point-last cores replaced, leading point axis."""
    s = np.einsum("pilj->plij", dg) + np.einsum("pjli->plij", dg) - np.einsum("pijl->plij", dg)
    return s, 0.5 * np.einsum("pkl,plij->pkij", ginv, s)


def _einsum_riemann(ginv, dg, s, gamma, ddg):
    ds = np.einsum("piljm->plijm", ddg) + np.einsum("pjlim->plijm", ddg) - np.einsum("pijlm->plijm", ddg)
    dginv = -np.einsum("pia,pabm,pbj->pijm", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("pklm,plij->pmkij", dginv, s) + np.einsum("pkl,plijm->pmkij", ginv, ds))
    return (
        np.einsum("piljk->plijk", dgamma)
        - np.einsum("pjlik->plijk", dgamma)
        + np.einsum("plim,pmjk->plijk", gamma, gamma)
        - np.einsum("pljm,pmik->plijk", gamma, gamma)
    )


def _block_cap(n):
    # the most points one block of a batched assembly holds (riemann._blocks)
    return rm.CHUNK_DOUBLES // max(n**4, n * n * ef.jet_space(n, 2).count)


def _box_points(rng, chart, npts):
    lo, hi = np.array(chart.box).T
    return lo + (hi - lo) * rng.uniform(0.15, 0.85, (npts, chart.dim))


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cores_match_einsum_reference_bitwise(n):
    rng = np.random.default_rng(40 + n)
    c = _block_cap(n)
    for npts in (1, 2, 7, c - 1, c, c + 1, 3 * c + 5):
        ginv, dg, ddg = (
            rng.standard_normal((npts,) + (n,) * k) * 10.0 ** rng.integers(-3, 4, (npts,) + (n,) * k)
            for k in (2, 3, 4)
        )
        for a in (ginv, dg, ddg):  # signed zeros in every operand
            zero = rng.random(a.shape) < 0.2
            a[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
        s, gamma = _einsum_christoffel(ginv, dg)
        want = _einsum_riemann(ginv, dg, s, gamma, ddg)
        gi, d1, d2 = (np.moveaxis(a, 0, -1) for a in (ginv, dg, ddg))
        s_new, gamma_new = rm._christoffel_core(gi, d1, {})
        got = rm._riemann_core(gi, d1, s_new, gamma_new, d2, {})
        assert np.moveaxis(gamma_new, -1, 0).tobytes() == gamma.tobytes(), (n, npts)
        assert np.moveaxis(got, -1, 0).tobytes() == want.tobytes(), (n, npts)


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ricci_core_matches_riemann_trace_bitwise(n):
    rng = np.random.default_rng(70 + n)
    for npts in (1, 2, 7, 37, 256):
        ginv, dg, ddg = (
            rng.standard_normal((n,) * k + (npts,)) * 10.0 ** rng.integers(-3, 4, (n,) * k + (npts,))
            for k in (2, 3, 4)
        )
        for a in (ginv, dg, ddg):  # signed zeros in every operand
            zero = rng.random(a.shape) < 0.2
            a[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
        s, gamma = rm._christoffel_core(ginv, dg, {})
        riem = np.moveaxis(rm._riemann_core(ginv, dg, s, gamma, ddg, {}), -1, 0).copy()
        got = np.moveaxis(rm._ricci_core(ginv, dg, s, gamma, ddg, {}), -1, 0)
        assert got.tobytes() == np.einsum("plljk->pjk", riem).tobytes(), (n, npts)


def _metric_derivatives(m, pts):
    """Point-last dg[i,j,k,p] = d_k g_ij and ddg[i,j,k,m,p] = d_k d_m g_ij from the metric's jets."""
    n = m.chart.dim
    jets = iter(ef.eval_jets_batch([m.component(i, j) for i in range(n) for j in range(n)], pts, 2))
    dg, ddg = np.empty((n, n, n, len(pts))), np.empty((n, n, n, n, len(pts)))
    for i in range(n):
        for j in range(n):
            jet = next(jets)
            dg[i, j], ddg[i, j] = jet.gradient(), jet.hessian()
    return dg, ddg


def _trace_bound(w, ginv, dg, ddg):
    """Bound on |W^jk z_jk - W^jk Ric_jk| per weight and point, z from the trace core and Ric
    from the Ricci core, over point-last w[w,j,k,p], ginv, dg and ddg with the symmetries
    of a metric's (any symmetric ginv; dg symmetric in i, j; ddg in i, j and in k, m).

    Model (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1):
    both routes are exact polynomials in these inputs, equal where the symmetries hold,
    and each forms its value from sums of products. A value that passes through at
    most K rounded operations is within gamma_K = K u / (1 - K u), u = 2**-53, of the
    sum of the absolute values of every product it adds, each product's factors taken
    in absolute value (S as |dg| + |dg| + |dg|, Gamma as |ginv| |S| / 2, and so on).
    The longest chain in either route is one contraction over n**2 terms into an
    entry and one over n**2 terms with W, plus at most 6n + 16 others (the sums over
    one index, the combinations of terms, the factors of each product), so
    K = 2n**2 + 6n + 16. The bound is gamma_K times the two routes' absolute sums.
    """
    n = ginv.shape[0]
    e = np.einsum
    a_g, a_dg, a_ddg = np.abs(ginv), np.abs(dg), np.abs(ddg)
    a_s = a_dg.transpose(1, 0, 2, 3) + a_dg.transpose(1, 2, 0, 3) + a_dg.transpose(2, 0, 1, 3)
    a_ds = a_ddg.transpose(1, 0, 2, 3, 4) + a_ddg.transpose(1, 2, 0, 3, 4) + a_ddg.transpose(2, 0, 1, 3, 4)
    a_gamma = 0.5 * e("klp,lijp->kijp", a_g, a_s)
    a_dginv = e("iap,abmp,bjp->ijmp", a_g, a_dg, a_g)
    ricci_route = (
        0.5 * (e("lalp,aijp->lijp", a_dginv, a_s) + e("klp,lijkp->kijp", a_g, a_ds))
        + 0.5 * (e("lajp,alkp->ljkp", a_dginv, a_s) + e("lap,alkjp->ljkp", a_g, a_ds))
        + e("llap,aijp->lijp", a_gamma, a_gamma)
        + e("ljap,alkp->ljkp", a_gamma, a_gamma)
    ).sum(axis=0)
    a_m = e("lap,abjp->jlbp", a_g, a_dg)
    trace_route = (
        e("lap,jalkp->jkp", a_g, a_ddg)
        + 0.5 * (e("lap,jklap->jkp", a_g, a_ddg) + e("lap,lajkp->jkp", a_g, a_ddg))
        + 0.5 * e("jlbp,kblp->jkp", a_m, a_m)
        + e("mp,mjkp->jkp", e("llmp->mp", a_gamma) + e("llmp->mp", a_m), a_gamma)
        + e("ljmp,mlkp->jkp", a_gamma, a_gamma)
    )
    k = 2 * n * n + 6 * n + 16
    u = 2.0**-53
    return k * u / (1 - k * u) * e("wjkp,jkp->wp", np.abs(w), ricci_route + trace_route)


def _symmetric_draw(rng, shape, pairs):
    """Entries of 10**-3 to 10**3 with signed zeros, as the core tests draw them, made
    exactly symmetric in each pair of axes by copying the upper triangle."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    zero = rng.random(shape) < 0.2
    a[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    for i, j in pairs:
        b = np.moveaxis(a, (i, j), (0, 1))
        for r in range(shape[i]):
            b[r + 1 :, r] = b[r, r + 1 :]
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_core_pairs_as_the_ricci_core(n):
    # W^jk z_jk, z from the trace core, is W^jk Ric_jk for every symmetric W, within
    # the rounding model of _trace_bound
    rng = np.random.default_rng(110 + n)
    for npts in (1, 2, 7, 37, 256):
        ginv = _symmetric_draw(rng, (n, n, npts), [(0, 1)])
        dg = _symmetric_draw(rng, (n, n, n, npts), [(0, 1)])
        ddg = _symmetric_draw(rng, (n, n, n, n, npts), [(0, 1), (2, 3)])
        w = _symmetric_draw(rng, (2, n, n, npts), [(1, 2)])
        s, gamma = rm._christoffel_core(ginv, dg, {})
        ric = rm._ricci_core(ginv, dg, s, gamma, ddg, {})
        want = np.einsum("wjkp,jkp->wp", w, ric)
        got = np.einsum("wjkp,jkp->wp", w, rm._trace_core(ginv, dg, gamma, ddg, {}))
        bound = _trace_bound(w, ginv, dg, ddg)
        assert (np.abs(got - want) <= bound).all(), (n, npts, np.max(np.abs(got - want) / bound))


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ricci_views_match_riemann_trace_bitwise(n):
    # ricci_at is the trace of the full tensor, bit for bit. The scalar curvature has one
    # owner, the trace core: scalar_curvature_at is GeometryBatch.scalar's row, and it
    # agrees with the trace of Ricci within the rounding model of _trace_bound. Dim 5
    # takes LAPACK's inverse, the lower dims the cofactor inverse
    rng = np.random.default_rng(80 + n)
    chart = default_chart(n)
    for _ in range(3):
        m = random_metric(rng, chart)
        p = random_interior_point(rng, chart)
        ginv = rm.metric_at(m, p)[1].components
        ric = np.einsum("lljk->jk", rm.riemann_at(m, p).components)
        assert rm.ricci_at(m, p).components.tobytes() == ric.tobytes()
        scalar = rm.scalar_curvature_at(m, p)
        batch = gd.geometry_batch(gd.GradedMetric(m, ef.constant(chart, 0.0)), [p])
        assert np.float64(scalar).tobytes() == batch.scalar[0].tobytes()
        gi = ginv[..., None]
        bound = _trace_bound(gi[None], gi, *_metric_derivatives(m, [p]))[0, 0]
        assert abs(scalar - np.einsum("jk,jk->", ginv, ric)) <= bound


_DYADIC = st.integers(-512, 512).map(lambda k: k / 256.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 4),
    lorentzian=st.booleans(),
    lower=st.lists(_DYADIC, min_size=6, max_size=6),
    pivots=st.lists(st.integers(0, 1024).map(lambda k: 1.0 + k / 256.0), min_size=4, max_size=4),
    k=st.integers(-500, 500),
)
def test_cofactor_inverse_scales_exactly(n, lorentzian, lower, pivots, k):
    # g = L D L^T with unit lower-triangular L and diagonal D of dyadic entries, formed
    # exactly, has the signature of D; g * 2**k is exact for every k drawn. Its inverse
    # and determinant are those of g scaled by 2**-k and 2**(n k), bitwise: the
    # determinant overflows to inf, or underflows to 0, exactly where that product does.
    # Against LAPACK, the inverse agrees within c n eps cond(g), c = 16, in the max norm
    # relative to the inverse's largest entry (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., sec. 14.1: each route's forward error is a small
    # multiple of n eps cond(g))
    ell = np.eye(n)
    ell[np.tril_indices(n, -1)] = lower[: n * (n - 1) // 2]
    d = np.array(pivots[:n])
    if lorentzian:
        d[0] = -d[0]
    g = (ell * d) @ ell.T
    assert np.array_equal(g, g.T)
    inv0, det0 = rm._cofactor_inverse(g[..., None])
    with np.errstate(over="ignore"):  # the determinant's overflow is the point
        inv, det = rm._cofactor_inverse(np.ldexp(g, k)[..., None])
        assert inv.tobytes() == np.ldexp(inv0, -k).tobytes()
        assert det.tobytes() == np.ldexp(det0, n * k).tobytes()
    assert np.array_equal(inv0[..., 0], inv0[..., 0].T)
    want = np.linalg.inv(g)
    error = np.max(np.abs(inv0[..., 0] - want)) / np.max(np.abs(want))
    assert error <= 16 * n * np.finfo(float).eps * np.linalg.cond(g)


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chunked_assembly_matches_einsum_reference_bitwise(n):
    rng = np.random.default_rng(50 + n)
    chart = default_chart(n)
    m = random_metric(rng, chart)
    c = _block_cap(n)
    pts = _box_points(rng, chart, 3 * c + 5)
    _, ginv, gamma, riem = rm.curvature_data_batch(m, pts)
    # C-contiguous, as the einsum path held them: einsum's summation order follows the strides
    dg, ddg = np.empty((len(pts), n, n, n)), np.empty((len(pts), n, n, n, n))
    jets = iter(ef.eval_jets_batch([m.component(i, j) for i in range(n) for j in range(n)], pts, 2))
    for i in range(n):
        for j in range(n):
            jet = next(jets)
            dg[:, i, j] = jet.gradient().T
            ddg[:, i, j] = np.moveaxis(jet.hessian(), -1, 0)
    s, want_gamma = _einsum_christoffel(ginv, dg)
    want_riem = _einsum_riemann(ginv, dg, s, want_gamma, ddg)
    assert gamma.tobytes() == want_gamma.tobytes()
    assert riem.tobytes() == want_riem.tobytes()
    # the Ricci-only core, as geometry_batch sweeps it with theta
    b = gd.geometry_batch(gd.GradedMetric(m, ef.coordinate(chart, chart.coord_names[0])), pts)
    assert b.gamma.tobytes() == want_gamma.tobytes()
    assert b.ric.tobytes() == np.einsum("plljk->pjk", want_riem).tobytes()


@pytest.mark.bitwise
def test_riemann_at_matches_its_batch_row_bitwise():
    rng = np.random.default_rng(61)
    chart = default_chart(4)
    m = random_metric(rng, chart, signature=(-1, 1, 1, 1))
    c = _block_cap(4)
    pts = _box_points(rng, chart, 3 * c + 5)
    *_, gamma, riem = rm.curvature_data_batch(m, pts)
    for k in (0, c - 1, c, c + 1, 2 * c + 7, 3 * c + 4):
        assert rm.riemann_at(m, pts[k]).components.tobytes() == riem[k].tobytes(), k
        assert rm.christoffel_at(m, pts[k]).components.tobytes() == gamma[k].tobytes(), k


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [2, 3, 4])
def test_batches_do_not_depend_on_point_blocks(monkeypatch, n):
    # each point's arrays come from the assembly of the block that holds it, so
    # one block, blocks of two or three points and blocks of one point give the
    # same bytes
    rng = np.random.default_rng(990 + n)
    gm = random_graded_metric(rng, default_chart(n))
    pts = _box_points(rng, gm.chart, 7)

    def batches(chunk_doubles, blocks):
        monkeypatch.setattr(rm, "CHUNK_DOUBLES", chunk_doubles)
        assert len(rm._blocks(len(pts), n)) == blocks
        b = gd.geometry_batch(gm, pts)
        arrays = [*rm.curvature_data_batch(gm.metric, pts), *(getattr(b, f.name) for f in dataclasses.fields(b))]
        return [a.tobytes() for a in arrays]

    single = batches(rm.CHUNK_DOUBLES, 1)
    assert batches(3 * max(n**4, n * n * ef.jet_space(n, 2).count), 3) == single
    assert batches(1, len(pts)) == single


def test_curvature_batch_memory_bound(eds3):
    # the action_magnitude rule of the n = 3 power-law solution: 4096 points at dim 4
    pts, _ = tensor_rule(eds3.chart, QuadSpec(8, ((-0.5, 0.5),) * 3 + ((0.9, 1.9),)))
    rm.curvature_data_batch(eds3, pts[:8])  # symbolic caches built outside the trace
    tracemalloc.start()
    try:
        rm.curvature_data_batch(eds3, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pts) == 4096
    assert peak <= 24e6, peak


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ricci_paths_memory_bound(eds3):
    # the same 4096-point rule through the Ricci-only core, which every graded
    # caller takes: the cores' einsums build no broadcast product, so the
    # geometry batch's peak stays below 9.3 MB. action_magnitude
    # streams the rule in 16 blocks of 256 points; its peak is one block's
    # assembly (the Ricci core's buffers and the block's jets and tensors, at
    # most about 3.5 MB) plus the node, weight and integrand of each rule point,
    # 48 bytes or 0.2 MB, so it stays below 4 MB
    quad = QuadSpec(8, ((-0.5, 0.5),) * 3 + ((0.9, 1.9),))
    pts, _ = tensor_rule(eds3.chart, quad)
    gm = gd.GradedMetric(eds3, ef.parse_field(f"{math.sqrt(1.0 / 3.0)!r}*ln(t)", eds3.chart))
    gd.action_magnitude(gm, QuadSpec(2, quad.box))  # symbolic caches built outside the trace
    assert _traced_peak(lambda: gd.geometry_batch(gm, pts)) <= 9.3e6
    assert _traced_peak(lambda: gd.action_magnitude(gm, quad)) <= 4.0e6


def test_geometry_batch_memory_is_its_output_and_one_block():
    # golden/random3_lorentz.ini over a 16^3-point rule: 6 blocks of 682-683
    # points. Model: the batch's arrays over every point, plus one block: its
    # jet sweep, its assembly (with the work buffers that stay for the next
    # block) and its share of the results, each traced alone over the largest
    # block
    gm = cf.build_graded_metric(cf.load_config(str(Path(__file__).resolve().parent / "golden" / "random3_lorentz.ini")))
    pts, _ = tensor_rule(gm.chart, QuadSpec(16))
    blocks = rm._blocks(len(pts), gm.chart.dim)
    assert (len(pts), len(blocks)) == (4096, 6)
    p = pts[max(blocks, key=lambda sl: sl.stop - sl.start)]
    gd.geometry_batch(gm, p[:4])  # symbolic caches built outside the trace
    sweep = _traced_peak(lambda: rm._metric_jets(gm.metric, p, 2, [gm.theta]))
    jets = rm._metric_jets(gm.metric, p, 2, [gm.theta])

    def assemble():  # as a block of geometry_batch: Ricci, then the scalar curvature
        arrays, _ = rm._metric_tensors(p, jets[: len(gm.metric._upper)], 2, {}, ("ricci", "traces"))
        arrays[-1]()

    assembly = _traced_peak(assemble)
    b = gd.geometry_batch(gm, pts)
    output = sum(getattr(b, f.name).nbytes for f in dataclasses.fields(b))
    peak = _traced_peak(lambda: gd.geometry_batch(gm, pts))
    assert peak <= output * (1 + len(p) / len(pts)) + sweep + assembly, (peak, output, sweep, assembly)


def test_sphere_ricci_and_scalar(sphere):
    p = (math.pi / 3, 2.0)
    g = rm.metric_at(sphere, p)[0].components
    ric = rm.ricci_at(sphere, p).components
    assert np.max(np.abs(ric - g)) <= 1e-12  # unit sphere: Ric = g
    assert rm.scalar_curvature_at(sphere, p) == pytest.approx(2.0, abs=1e-12)


def test_eds_ricci_frozen(eds3):
    ric = rm.ricci_at(eds3, (0.0, 0.0, 0.0, 1.0)).components
    # Ric(d_t, d_t) = -n(a'' + a'^2) = 2/3 at t=1 for n=3
    assert ric[3, 3] == pytest.approx(2.0 / 3.0, abs=1e-12)
    for i in range(3):
        assert ric[i, i] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(ric - np.diag(np.diag(ric)))) <= 1e-12


def test_ricci_vs_fd_oracle():
    rng = np.random.default_rng(29)
    chart = default_chart(2)
    m = random_metric(rng, chart, signature=(-1, 1))
    p = random_interior_point(rng, chart)
    jet_side = rm.ricci_at(m, p).components
    fd_side = ricci_fd(m, p)
    assert np.max(np.abs(jet_side - fd_side)) <= 2e-5 * (1 + np.max(np.abs(fd_side)))


def test_gradient_flat_and_minkowski(flat2, mink2):
    chart = flat2.chart
    f = ef.parse_field("x^2 + y", chart)
    grad = rm.gradient_at(flat2, f, (1.0, 0.5)).components
    assert np.allclose(grad, [2.0, 1.0], atol=1e-12)
    # Minkowski raising flips the sign of the t-component: grad(t) = -d_t
    tfield = ef.coordinate(mink2.chart, "t")
    grad = rm.gradient_at(mink2, tfield, (0.3, 0.4)).components
    assert np.allclose(grad, [-1.0, 0.0], atol=1e-12)


def test_eds_gradient_of_log_clock(eds3):
    c = math.sqrt(1.0 / 3.0)
    theta = ef.parse_field(f"{c!r}*ln(t)", eds3.chart)
    grad = rm.gradient_at(eds3, theta, (0.0, 0.0, 0.0, 2.0)).components
    # g^tt = -1, so the gradient points along -theta'(t) d_t
    assert np.allclose(grad, [0.0, 0.0, 0.0, -c / 2.0], atol=1e-14)


def test_hessian_laplacian_flat(flat2):
    f = ef.parse_field("x^2*y + y^3", flat2.chart)
    p = (0.7, -0.3)
    hes = rm.hessian_at(flat2, f, p).components
    assert np.allclose(hes, [[2 * p[1], 2 * p[0]], [2 * p[0], 6 * p[1]]], atol=1e-12)
    assert rm.laplacian_at(flat2, f, p) == pytest.approx(2 * p[1] + 6 * p[1], abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_hessian_views_fail_closed_on_overflow(flat2):
    gm = gd.GradedMetric(flat2, ef.parse_field("0.1*x", flat2.chart))
    p = (0.0, 0.0)
    # the Hessian doubles the x^2 coefficient: 1.5e308 overflows, 5e307 does not
    f = ef.parse_field("1.5e308*x*x", flat2.chart)
    for view in (rm.hessian_at, rm.laplacian_at, gd.graded_hessian_at):
        with pytest.raises(DomainError, match=r"Hessian of f at point \(0\.0, 0\.0\)"):
            view(gm if view is gd.graded_hessian_at else flat2, f, p)
    f = ef.parse_field("5e307*x*x", flat2.chart)
    assert rm.hessian_at(flat2, f, p).components.tolist() == [[1e308, 0.0], [0.0, 0.0]]
    assert rm.laplacian_at(flat2, f, p) == 1e308
    assert gd.graded_hessian_at(gm, f, p).even.components[0, 0] == 1e308


@pytest.mark.filterwarnings("error")
def test_first_order_views_fail_closed_on_overflow(flat2):
    # exp(720) overflows inside the jet engine, before any view's own arithmetic
    f = ef.parse_field("exp(800*x)", flat2.chart)
    p = (0.9, 0.9)
    with pytest.raises(DomainError, match=r"value of f at point \(0\.9, 0\.9\)"):
        rm.gradient_at(flat2, f, p)
    one = ef.constant(flat2.chart, 1.0)
    with pytest.raises(DomainError, match=r"value of V\^1 at point \(0\.9, 0\.9\)"):
        rm.divergence_vec_at(flat2, [one, f], p)
    gm = gd.GradedMetric(flat2, ef.parse_field("0.1*x", flat2.chart))
    for view in (rm.hessian_at, rm.laplacian_at, gd.graded_hessian_at):
        with pytest.raises(DomainError, match=r"Hessian of f at point \(0\.9, 0\.9\)"):
            view(gm if view is gd.graded_hessian_at else flat2, f, p)


@pytest.mark.filterwarnings("error")
def test_curvature_assembly_fails_closed_on_overflow():
    # finite metric jets whose Christoffel or curvature sums overflow: d_x d_y g_0_0 = 2.7e308*y^2
    # is finite at y = 0.7, twice it is not, and the first such point is a block past the start
    chart = ef.ChartSpec(("x", "y"), ((-1, 1), (-1, 1)))
    m = rm.MetricSpec.diagonal(chart, [ef.parse_field("1 + 9e307*x*y^3", chart), 1.0])
    c = _block_cap(2)
    pts = np.column_stack([0.01 + 1e-6 * np.arange(2 * c + 5), np.full(2 * c + 5, 0.1)])
    pts[c + 3 :, 1] = 0.7
    first = re.escape(f" at point {tuple(pts[c + 3].tolist())}") + "$"
    with pytest.raises(DomainError, match="^non-finite value of Riemann" + first):
        rm.curvature_data_batch(m, pts)
    with pytest.raises(DomainError, match="^non-finite value of Ricci" + first):
        gd.geometry_batch(gd.GradedMetric(m, ef.constant(chart, 0.0)), pts)
    # 1e308 + 1e308 in S[l,i,j] = d_j g_il + d_i g_jl - d_l g_ij
    m = rm.MetricSpec.diagonal(chart, [ef.parse_field("1 + 1e308*x", chart), 1.0])
    with pytest.raises(DomainError, match=r"^non-finite value of Gamma at point \(0\.001, 0\.0\)$"):
        rm.christoffel_at(m, (0.001, 0.0))


def test_sphere_laplacian_frozen(sphere):
    # Delta cos(th) = -2 cos(th) (eigenfunction, eigenvalue -l(l+1) with l=1)
    f = ef.parse_field("cos(th)", sphere.chart)
    p = (math.pi / 3, 1.0)
    assert rm.laplacian_at(sphere, f, p) == pytest.approx(-2.0 * math.cos(math.pi / 3), abs=1e-12)


def test_laplacian_eds_log_clock_harmonic(eds3):
    c = math.sqrt(1.0 / 3.0)
    theta = ef.parse_field(f"{c!r}*ln(t)", eds3.chart)
    for t in (0.6, 1.0, 2.5, 8.0):
        assert abs(rm.laplacian_at(eds3, theta, (0.1, -0.2, 0.3, t))) <= 1e-13


def test_hessian_vs_fd_random():
    rng = np.random.default_rng(31)
    chart = default_chart(2)
    m = random_metric(rng, chart)
    f = random_polynomial(rng, chart, degree=3, scale=0.5)
    p = random_interior_point(rng, chart)
    hes = rm.hessian_at(m, f, p).components

    def cov_diff(q):
        return fd_gradient(f, q)

    # FD covariant Hessian: d_i d_j f - Gamma^k_ij d_k f with FD pieces
    n = chart.dim
    ddf = np.empty((n, n))
    for a in range(n):
        ddf[a] = fd_gradient(lambda q: float(fd_gradient(f, q)[a]), p)
    gamma = christoffel_fd(m, p)
    fd_hes = ddf - np.einsum("kij,k->ij", gamma, fd_gradient(f, p))
    assert np.max(np.abs(hes - fd_hes)) <= 1e-5 * (1 + np.max(np.abs(fd_hes)))


def test_divergence_vector_flat(flat2):
    chart = flat2.chart
    x = ef.coordinate(chart, "x")
    y = ef.coordinate(chart, "y")
    div = rm.divergence_vec_at(flat2, (x * x, x * y), (1.0, 2.0))
    assert div == pytest.approx(2.0 + 1.0, abs=1e-12)
    const = rm.divergence_vec_at(flat2, (ef.constant(chart, 3.0), ef.constant(chart, -1.0)), (0.5, 0.5))
    assert const == pytest.approx(0.0, abs=1e-14)


def test_divergence_identities_random():
    # div(h g) = dh and div(f df x df) picks up Delta f df + Hes(df, .)
    rng = np.random.default_rng(37)
    chart = default_chart(2)
    m = random_metric(rng, chart, signature=(1, 1))
    h = random_polynomial(rng, chart, degree=2, scale=0.5)
    gf = m.component_fields()
    hg = [[h * gf[i][j] for j in range(2)] for i in range(2)]
    for _ in range(5):
        p = random_interior_point(rng, chart)
        lhs = rm.divergence_sym2_at(m, hg, p).components
        dh = ef.eval_jet(h, p, 1).gradient()
        assert np.max(np.abs(lhs - dh)) <= 1e-10 * (1 + np.max(np.abs(dh))), p


def test_divergence_vec_is_laplacian_of_gradient():
    rng = np.random.default_rng(41)
    chart = default_chart(3)
    m = random_metric(rng, chart, signature=(1, 1, -1))
    f = random_polynomial(rng, chart, degree=3, scale=0.4)
    ginv = m.inverse_fields()
    grad_fields = tuple(
        sum((ginv[i][j] * f.d(j) for j in range(3)), ef.constant(chart, 0.0))
        for i in range(3)
    )
    for _ in range(5):
        p = random_interior_point(rng, chart)
        div = rm.divergence_vec_at(m, grad_fields, p)
        lap = rm.laplacian_at(m, f, p)
        assert abs(div - lap) <= 1e-9 * (1 + abs(lap)), p


def test_metric_compatibility_random():
    # nabla g = 0: d_k g_ij = Gamma^m_ki g_mj + Gamma^m_kj g_im
    rng = np.random.default_rng(43)
    for sig in [(1, 1), (-1, 1)]:
        chart = default_chart(2)
        m = random_metric(rng, chart, signature=sig)
        for _ in range(25):
            p = random_interior_point(rng, chart)
            n = chart.dim
            dg = np.empty((n, n, n))
            g = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    jet = ef.eval_jet(m.component(i, j), p, 1)
                    g[i, j] = jet.value
                    dg[i, j] = jet.gradient()
            gamma = rm.christoffel_at(m, p).components
            rhs = np.einsum("mki,mj->ijk", gamma, g) + np.einsum("mkj,im->ijk", gamma, g)
            assert np.max(np.abs(dg - rhs)) <= 1e-10 * (1 + np.max(np.abs(dg)))


def test_signature_constant_across_run():
    rng = np.random.default_rng(47)
    chart = default_chart(3)
    m = random_metric(rng, chart, signature=(-1, 1, 1))
    sigs = {rm.signature_at(m, random_interior_point(rng, chart)) for _ in range(20)}
    assert sigs == {(-1, 1, 1)}


def test_inverse_fields_symbolic():
    rng = np.random.default_rng(53)
    chart = default_chart(3)
    m = random_metric(rng, chart, signature=(1, -1, 1))
    inv = m.inverse_fields()
    p = random_interior_point(rng, chart)
    num = rm.metric_at(m, p)[1].components
    sym = np.array([[inv[i][j](p) for j in range(3)] for i in range(3)])
    assert np.max(np.abs(num - sym)) <= 1e-12 * (1 + np.max(np.abs(num)))
