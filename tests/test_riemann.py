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

    def recorded(fields, points, order, *rest, _original=ef.eval_jets_batch):
        orders.append(order)
        return _original(fields, points, order, *rest)

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


def _ricci_bound(ginv, dg, ddg):
    """Bound on |Ric_jk - R^l_ljk| per entry and point, Ric the symmetric part of the trace
    core's z and R^l_ljk the Riemann core's trace, over point-last ginv, dg and ddg with the
    symmetries of a metric's (any symmetric ginv; dg symmetric in i, j; ddg in i, j and in
    k, m). A pairing W^jk z_jk - W^jk R^l_ljk with symmetric W is bounded by the pairing
    of |W| with it.

    Model (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1):
    both routes are exact polynomials in these inputs, equal where the symmetries hold,
    and each forms its value from sums of products. A value that passes through at
    most K rounded operations is within gamma_K = K u / (1 - K u), u = 2**-53, of the
    sum of the absolute values of every product it adds, each product's factors taken
    in absolute value (S as |dg| + |dg| + |dg|, Gamma as |ginv| |S| / 2, and so on).
    A sum of m terms from +0.0 counts m operations, a product of f factors f - 1, and
    a halving none. The Riemann route's longest chain is d Gamma's d(g^-1) term:
    n**2 + 2 for d(g^-1), 2 for S, n + 1 for their contraction, 1 for the second d Gamma
    term, 3 for the combinations into R^l_ijk and n for the trace, so n**2 + 2n + 9; its
    Gamma Gamma chain is 4n + 9. The trace route's longest are Gamma^l_jm Gamma^m_lk,
    2(n + 3) + 1 for the product, n**2 for its sum, 1 for its update of z and 1 for the
    symmetric part, so n**2 + 2n + 9, and (Gamma^l_lm - v_m) Gamma^m_jk, 4n + 11. A
    pairing with W adds n**2 + 1. So K = 2n**2 + 6n + 16 bounds every chain, and the
    bound is gamma_K times the two routes' absolute sums.
    """
    n = ginv.shape[0]
    e = np.einsum
    a_g, a_dg, a_ddg = np.abs(ginv), np.abs(dg), np.abs(ddg)
    a_s = a_dg.transpose(1, 0, 2, 3) + a_dg.transpose(1, 2, 0, 3) + a_dg.transpose(2, 0, 1, 3)
    a_ds = a_ddg.transpose(1, 0, 2, 3, 4) + a_ddg.transpose(1, 2, 0, 3, 4) + a_ddg.transpose(2, 0, 1, 3, 4)
    a_gamma = 0.5 * e("klp,lijp->kijp", a_g, a_s)
    a_dginv = e("iap,abmp,bjp->ijmp", a_g, a_dg, a_g)
    # as _riemann_core forms R^l_ijk = dgamma[i,l,j,k] - dgamma[j,l,i,k] + gg[l,i,j,k] - gg[l,j,i,k]
    a_dgamma = 0.5 * (e("klmp,lijp->mkijp", a_dginv, a_s) + e("klp,lijmp->mkijp", a_g, a_ds))
    a_gg = e("limp,mjkp->lijkp", a_gamma, a_gamma)
    a_riem = a_dgamma.transpose(1, 0, 2, 3, 4) + a_dgamma.transpose(1, 2, 0, 3, 4) + a_gg + a_gg.transpose(0, 2, 1, 3, 4)
    riemann_route = e("lljkp->jkp", a_riem)
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
    return k * u / (1 - k * u) * (riemann_route + 0.5 * (trace_route + trace_route.transpose(1, 0, 2)))


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


def _metric_draw(rng, n, npts):
    """Point-last ginv, dg and ddg with a metric's symmetries (see _symmetric_draw)."""
    return (
        _symmetric_draw(rng, (n, n, npts), [(0, 1)]),
        _symmetric_draw(rng, (n, n, n, npts), [(0, 1)]),
        _symmetric_draw(rng, (n, n, n, n, npts), [(0, 1), (2, 3)]),
    )


def _riemann_trace(ginv, dg, ddg):
    """R^l_ljk[j,k,p] from the Riemann core, and the Gamma it was built from."""
    s, gamma = rm._christoffel_core(ginv, dg, {})
    return np.einsum("lljkp->jkp", rm._riemann_core(ginv, dg, s, gamma, ddg, {})), gamma


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ricci_core_matches_riemann_trace_bitwise(n):
    # the engine's Ricci, the symmetric part of the trace core's z (a lone point assembled
    # as a block of two), is exactly symmetric, bit for bit, and it is the Riemann core's
    # trace R^l_ljk within the rounding model of _ricci_bound
    rng = np.random.default_rng(70 + n)
    for npts in (1, 2, 7, 37, 256):
        ginv, dg, ddg = _metric_draw(rng, n, npts)
        want, gamma = _riemann_trace(ginv, dg, ddg)
        ric = np.moveaxis(rm._traces(np.zeros((npts, n)), ginv, dg, gamma, ddg, {})[0], 0, -1)
        assert ric.tobytes() == ric.transpose(1, 0, 2).tobytes(), (n, npts)
        bound = _ricci_bound(ginv, dg, ddg)
        assert (np.abs(ric - want) <= bound).all(), (n, npts, np.max(np.abs(ric - want) / bound))


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ricci_pairing_of_a_lone_point_is_its_batch_row_bitwise(n):
    # <s, Ric> of each point alone, a block of one, has the bits of its row in a batch
    rng = np.random.default_rng(130 + n)
    npts = 37
    ginv, ric, s = (np.moveaxis(a, -1, 0) for a in _symmetric_draw(rng, (3, n, n, npts), [(1, 2)]))
    batch = rm._ricci_pairing(ginv, ric, s)
    for k in range(npts):
        alone = rm._ricci_pairing(ginv[k : k + 1], ric[k : k + 1], s[k : k + 1])
        assert alone.shape == (1,) and alone.tobytes() == batch[k : k + 1].tobytes(), (n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_core_pairs_as_the_ricci_core(n):
    # W^jk z_jk, z from the trace core, is W^jk R^l_ljk, the Riemann core's trace, for every
    # symmetric W, within the rounding model of _ricci_bound
    rng = np.random.default_rng(110 + n)
    for npts in (1, 2, 7, 37, 256):
        ginv, dg, ddg = _metric_draw(rng, n, npts)
        w = _symmetric_draw(rng, (2, n, n, npts), [(1, 2)])
        ric, gamma = _riemann_trace(ginv, dg, ddg)
        want = np.einsum("wjkp,jkp->wp", w, ric)
        got = np.einsum("wjkp,jkp->wp", w, rm._trace_core(ginv, dg, gamma, ddg, {}))
        bound = np.einsum("wjkp,jkp->wp", np.abs(w), _ricci_bound(ginv, dg, ddg))
        assert (np.abs(got - want) <= bound).all(), (n, npts, np.max(np.abs(got - want) / bound))


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ricci_views_match_riemann_trace_bitwise(n):
    # Ricci and the scalar curvature have one owner, the trace core: ricci_at and
    # scalar_curvature_at are GeometryBatch's rows, bit for bit, and they agree with the
    # Riemann core's trace within the rounding model of _ricci_bound. Dim 5 takes LAPACK's
    # inverse, the lower dims the cofactor inverse
    rng = np.random.default_rng(80 + n)
    chart = default_chart(n)
    for _ in range(3):
        m = random_metric(rng, chart)
        p = random_interior_point(rng, chart)
        ginv = rm.metric_at(m, p)[1].components
        ric, scalar = rm.ricci_at(m, p).components, rm.scalar_curvature_at(m, p)
        batch = gd.geometry_batch(gd.GradedMetric(m, ef.constant(chart, 0.0)), [p])
        assert ric.tobytes() == batch.ric[0].tobytes()
        assert np.float64(scalar).tobytes() == batch.scalar[0].tobytes()
        want = np.einsum("lljk->jk", rm.riemann_at(m, p).components)
        bound = _ricci_bound(ginv[..., None], *_metric_derivatives(m, [p]))[..., 0]
        assert (np.abs(ric - want) <= bound).all()
        assert abs(scalar - np.einsum("jk,jk->", ginv, want)) <= np.einsum("jk,jk->", np.abs(ginv), bound)


_CONFIGS = sorted((Path(__file__).resolve().parent / "golden").glob("**/*.ini"))


@pytest.mark.parametrize("path", _CONFIGS, ids=[f"{p.parent.name}/{p.stem}" for p in _CONFIGS])
def test_geometry_batch_curvature_matches_riemann_trace(path):
    # on every golden and section config's grid, GeometryBatch's Ricci and scalar curvature
    # are the trace and the double trace of curvature_data_batch's Riemann tensor, within
    # the rounding model of _ricci_bound
    cfg = cf.load_config(str(path))
    gm = cf.build_graded_metric(cfg)
    pts = np.asarray(cf.grid_points(cfg))
    b = gd.geometry_batch(gm, pts)
    _, ginv, _, riem = rm.curvature_data_batch(gm.metric, pts)
    assert ginv.tobytes() == b.ginv.tobytes()
    want = np.einsum("plljk->pjk", riem)
    dg, ddg = _metric_derivatives(gm.metric, pts)
    bound = np.moveaxis(_ricci_bound(np.ascontiguousarray(np.moveaxis(ginv, 0, -1)), dg, ddg), -1, 0)
    assert (np.abs(b.ric - want) <= bound).all()
    scalar_bound = np.einsum("pjk,pjk->p", np.abs(ginv), bound)
    assert (np.abs(b.scalar - np.einsum("pjk,pjk->p", ginv, want)) <= scalar_bound).all()


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
    # geometry_batch sweeps the same Gamma with theta, and its Ricci and R are one trace
    # core call's over every point at once
    b = gd.geometry_batch(gd.GradedMetric(m, ef.coordinate(chart, chart.coord_names[0])), pts)
    assert b.gamma.tobytes() == want_gamma.tobytes()
    ric, scalar = rm._traces(pts, *(np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in (ginv, dg, want_gamma, ddg)), {})
    assert b.ric.tobytes() == ric.tobytes()
    assert b.scalar.tobytes() == scalar.tobytes()


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


def test_geometry_batch_runs_one_curvature_core_per_block(monkeypatch):
    # Ricci and R of each point block come from one trace core call; the Riemann core
    # never runs
    rng = np.random.default_rng(997)
    gm = random_graded_metric(rng, default_chart(3))
    pts = _box_points(rng, gm.chart, 2 * _block_cap(3) + 5)
    calls = []

    def counted(*args, _original=rm._trace_core):
        calls.append(args[0].shape[-1])
        return _original(*args)

    def refuse(*args):
        raise AssertionError("the Riemann core ran")

    monkeypatch.setattr(rm, "_trace_core", counted)
    monkeypatch.setattr(rm, "_riemann_core", refuse)
    b = gd.geometry_batch(gm, pts)
    blocks = rm._blocks(len(pts), 3)
    assert len(blocks) == 3
    assert calls == [sl.stop - sl.start for sl in blocks]
    assert np.isfinite(b.ric).all() and np.isfinite(b.scalar).all()


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
    # the same 4096-point rule through the graded callers' core, which forms no
    # Riemann tensor: geometry_batch runs the trace core, whose einsums build no
    # broadcast product, so its peak stays below 9.3 MB. action_magnitude runs the trace core only and streams the rule in
    # 16 blocks of 256 points; its peak is one block's jets, tensors and work
    # buffers plus the node, weight and integrand of each rule point, 48 bytes or
    # 0.2 MB: it traces about 1.86 MB, below 4 MB
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
    fields = [*gm.metric._upper.values(), gm.theta]
    sweep = _traced_peak(lambda: ef.eval_jets_batch(fields, p, 2))
    jets = ef.eval_jets_batch(fields, p, 2)

    def assemble():  # as a block of geometry_batch, Ricci and the scalar curvature included
        rm._metric_tensors(p, jets[: len(gm.metric._upper)], {}, "traces")

    assembly = _traced_peak(assemble)
    b = gd.geometry_batch(gm, pts)
    output = sum(getattr(b, f.name).nbytes for f in dataclasses.fields(b))
    peak = _traced_peak(lambda: gd.geometry_batch(gm, pts))
    assert peak <= output * (1 + len(p) / len(pts)) + sweep + assembly, (peak, output, sweep, assembly)


def _sweep_model(roots, space, npts) -> tuple[int, int]:
    """(roots, rest): a bound on the bytes one released jet sweep of roots over npts
    points traces, split into the distinct roots' jets and the rest.

    Model: every jet is space.count doubles per point (a constant one column
    wide, counted as 0, but a constant root is widened). The rest is the
    coordinate seeds; the most non-root, non-constant intermediates alive at
    once when each is dropped after its last reader, replayed in the walk's
    order; one composition's temporaries: Horner's w, partial result and one
    copy, then a product's two gathered term tables and their product, or
    that product, its scattered terms and their sum; the points; and 1 KB
    per node for the tape, its slots and Jet objects.
    """
    jet = space.count * npts * 8
    order, constant = [], {}  # distinct nodes, operands first

    def visit(e, args):
        order.append(e)
        constant[id(e)] = type(e) is ef.Const or bool(args) and all(args)
        return constant[id(e)]

    ef._walk(roots, visit)
    left = {}
    for e in order:
        for k in e.operands():
            left[id(k)] = left.get(id(k), 0) + 1
    kept = {id(r) for r in roots}

    def held(e):
        return not constant[id(e)] and type(e) is not ef.Coord and id(e) not in kept

    live = most = 0
    for e in order:
        live += held(e)
        most = max(most, live)
        for k in e.operands():
            left[id(k)] -= 1
            live -= held(k) and not left[id(k)]
    table, scattered = len(space._gather_a) * npts * 8, space._scatter.size * npts * 8
    temporaries = 3 * jet + max(3 * table, table + scattered + jet)
    rest = space.dim * jet + most * jet + temporaries + space.dim * npts * 8 + 1024 * len(order)
    return len(kept) * jet, rest


def _workload_actions(eds3):
    # the two action_first_variation calls of one action_variation operation: a bump on the
    # n = 3 power-law solution over 6^4 nodes (6 blocks of 216 points), and one on c06's
    # dim-2 probe over 56^2 (2 blocks of 1568)
    rng = np.random.default_rng(42)
    solution = gd.GradedMetric(eds3, ef.parse_field(f"{math.sqrt(1.0 / 3.0)!r}*ln(t)", eds3.chart))
    coeffs = rng.uniform(0.5, 1.0, (4, 4))
    support = ((-0.5, 0.5),) * 3 + ((0.9, 1.9),)
    yield solution, gd.bump_variation(eds3.chart, support, 0.5 * (coeffs + coeffs.T), 0.7), 6
    chart = default_chart(2)
    probe = gd.GradedMetric(
        rm.MetricSpec.diagonal(chart, ["1 + 0.3*x^2", "1 + 0.2*y^2"]), ef.parse_field("0.4*y", chart)
    )
    coeffs = rng.uniform(0.5, 1.0, (2, 2)) * [[-1.0, 1.0], [1.0, 1.0]]
    yield probe, gd.bump_variation(chart, ((-0.3, 0.3),) * 2, 0.5 * (coeffs + coeffs.T), 0.8), 56


def test_block_sweep_memory_is_its_roots_and_live_jets(eds3):
    # one 216-point block sweep of the eds metric, theta and the bump frees each
    # intermediate jet after its last reader: its traced peak is bounded by
    # _sweep_model, written for that release (the sweep kept every jet, 1.19 MB,
    # before it; about 0.51 MB with it)
    gm, var, nodes = next(_workload_actions(eds3))
    pts, _ = tensor_rule(gm.chart, QuadSpec(nodes, var.support))
    p = pts[rm._blocks(len(pts), 4)[0]]
    fields = [*gm.metric._upper.values(), gm.theta, var.profile]
    roots = [f.expr for f in fields]
    owner = {}
    ef.eval_jets_batch(fields, p, 2, owner)  # caches and the owner's tape built outside the trace
    peak = _traced_peak(lambda: ef.eval_jets_batch(fields, p, 2, owner))
    kept, rest = _sweep_model(roots, ef.jet_space(4, 2), len(p))
    assert len(p) == 216
    assert peak <= kept + rest, (peak, kept, rest)


def test_action_variation_memory_is_one_pass_at_a_time(eds3):
    # each action_first_variation call of the action_variation workload. Model: the
    # rule's points and weights (twice, as tensor_rule builds them) and the four
    # integrand rows over every point; the work buffers one assembly leaves; one
    # block's roots; then the larger of one released sweep (_sweep_model) and one
    # pass: its assembly, the Ricci pairing and the theta part traced alone on warm
    # buffers, plus the moved metric jets, h, theta + t*h and the closed-form
    # temporaries (n*n + 8 doubles a point). The base pass's tensors and the
    # amplitude-scaled jets no longer outlive their pass
    for gm, var, nodes in _workload_actions(eds3):
        n = gm.chart.dim
        pts, _ = tensor_rule(gm.chart, QuadSpec(nodes, var.support))
        p = pts[max(rm._blocks(len(pts), n), key=lambda sl: sl.stop - sl.start)]
        fields = [*gm.metric._upper.values(), gm.theta, var.profile]
        roots = [f.expr for f in fields]
        jets = ef.eval_jets_batch(fields, p, 2)
        s = var.amplitudes * jets[-1].coeffs[0][:, None, None]
        work = {}

        def one_pass():
            (_, ginv, gamma, ric, scalar), _ = rm._metric_tensors(p, jets[:-2], work, "traces")
            rm._ricci_pairing(ginv, ric, s)
            gd._theta_part(p, ginv, gamma, scalar, jets[-2])

        one_pass()
        buffers = sum(b.nbytes for b in work.values())
        assembly = _traced_peak(one_pass)
        space = ef.jet_space(n, 2)
        kept, sweep = _sweep_model(roots, space, len(p))
        jet = space.count * len(p) * 8
        moved = (np.count_nonzero(var.amplitudes[np.triu_indices(n)]) + 2) * jet + (n * n + 8) * len(p) * 8
        rule = 2 * pts.nbytes + 6 * len(pts) * 8
        gd.action_first_variation(gm, var, QuadSpec(2))  # symbolic caches built outside the trace
        peak = _traced_peak(lambda: gd.action_first_variation(gm, var, QuadSpec(nodes)))
        model = rule + buffers + kept + max(sweep, assembly + moved)
        assert peak <= model, (n, peak, model, rule, buffers, kept, sweep, assembly, moved)


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
    # finite metric jets whose Christoffel or curvature sums overflow, the first such point a
    # block past the start. d_x d_y g_0_0 = 2.7e308*y^2 is finite at y = 0.7, twice it is
    # not, so the Riemann core's d_m S overflows where Ricci is finite (Ric_00 = -4.7e305)
    chart = ef.ChartSpec(("x", "y"), ((-1, 1), (-1, 1)))
    m = rm.MetricSpec.diagonal(chart, [ef.parse_field("1 + 9e307*x*y^3", chart), 1.0])
    c = _block_cap(2)
    pts = np.column_stack([0.01 + 1e-6 * np.arange(2 * c + 5), np.full(2 * c + 5, 0.1)])
    pts[c + 3 :, 1] = 0.7
    first = re.escape(f" at point {tuple(pts[c + 3].tolist())}") + "$"
    with pytest.raises(DomainError, match="^non-finite value of Riemann" + first):
        rm.curvature_data_batch(m, pts)
    b = gd.geometry_batch(gd.GradedMetric(m, ef.constant(chart, 0.0)), pts)
    assert np.isfinite(b.ric).all() and b.ric[c + 3, 0, 0] < -1e305
    # g_0_0 = 1e-9 + 1e300 y^2 has Ric_11 = -A_yy / (2A) = -1e309 at y = 0: Ricci itself
    # leaves the double range, and R with it
    m = rm.MetricSpec.diagonal(chart, [ef.parse_field("1e-9 + 1e300*y^2", chart), 1.0])
    pts[c + 3 :, 1] = 0.0
    first = re.escape(f" at point {tuple(pts[c + 3].tolist())}") + "$"
    with pytest.raises(DomainError, match="^non-finite value of Ricci" + first):
        gd.geometry_batch(gd.GradedMetric(m, ef.constant(chart, 0.0)), pts)
    with pytest.raises(DomainError, match=r"^non-finite value of Ricci at point \(0\.5, 0\.0\)$"):
        rm.ricci_at(m, (0.5, 0.0))
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
