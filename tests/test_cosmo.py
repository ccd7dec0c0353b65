import math

import numpy as np
import pytest

from gradedgeo import cosmo as co
from gradedgeo import exprfield as ef
from gradedgeo import graded as gd
from gradedgeo import riemann as rm
from gradedgeo.errors import DomainError


def random_warped(rng, base, t_span=(0.2, 6.0)):
    tch = co.time_chart(t_span)
    tc = ef.coordinate(tch, "t")
    coeffs = rng.uniform(-0.3, 0.3, 3)
    a = coeffs[0] * tc + coeffs[1] * ef.sin(tc) + coeffs[2] * ef.ln(tc)
    theta = float(rng.uniform(-0.5, 0.5)) * tc
    return co.WarpedSpec(base, a, theta)


def flat_base(n):
    chart = ef.ChartSpec(("x", "y", "z")[:n], ((-2.0, 2.0),) * n)
    return rm.MetricSpec.diagonal(chart, [1.0] * n)


def test_time_chart_guard():
    with pytest.raises(ValueError):
        co.time_chart((0.0, 4.0))
    ch = co.time_chart((0.5, 4.0), name="s")
    assert ch.coord_names == ("s",)


def test_warped_spec_guards():
    tch = co.time_chart()
    a = ef.coordinate(tch, "t")
    line = rm.MetricSpec.diagonal(ef.ChartSpec(("x",), ((-1.0, 1.0),)), [1.0])
    with pytest.raises(ValueError):
        co.WarpedSpec(line, a, a)
    base = flat_base(2)
    wide = ef.coordinate(base.chart, "x")
    with pytest.raises(ValueError):
        co.WarpedSpec(base, wide, wide)
    other = ef.coordinate(co.time_chart(name="s"), "s")
    with pytest.raises(ValueError):
        co.WarpedSpec(base, a, other)
    clash = rm.MetricSpec.diagonal(ef.ChartSpec(("x", "t"), ((-1, 1), (-1, 1))), [1.0, 1.0])
    with pytest.raises(ValueError):
        co.WarpedSpec(clash, a, a)
    lorentz = rm.MetricSpec.diagonal(flat_base(2).chart, [-1.0, 1.0])
    with pytest.raises(ValueError):
        co.WarpedSpec(lorentz, a, a)


@pytest.mark.parametrize("seed", range(16))
def test_warped_spec_tests_positive_definiteness_by_leading_minors(seed):
    # g = L D L^T, with unit lower-triangular L and dyadic entries, formed exactly, has
    # leading principal minors d_1, d_1 d_2, ..., so it is positive definite exactly
    # where every pivot is. Odd seeds flip one pivot after the first; for seeds 3, 7, 11
    # and 13 the diagonal stays positive, so its signs alone would not decide
    rng = np.random.default_rng(seed)
    n = 2 + seed // 2 % 4
    ell = np.eye(n)
    ell[np.tril_indices(n, -1)] = rng.integers(-512, 513, n * (n - 1) // 2) / 256
    d = 1.0 + rng.integers(0, 256, n) / 256
    if seed % 2:
        d[rng.integers(1, n)] *= -1.0
    g = (ell * d) @ ell.T
    chart = ef.ChartSpec(("x", "y", "z", "w", "v")[:n], ((-1.0, 1.0),) * n)
    base = rm.MetricSpec(chart, g.tolist())
    a = ef.coordinate(co.time_chart(), "t")
    if seed % 2:
        with pytest.raises(ValueError, match="base metric is not positive definite"):
            co.WarpedSpec(base, a, a)
    else:
        assert co.WarpedSpec(base, a, a).n == n


def test_build_minkowski():
    tch = co.time_chart()
    zero = ef.constant(tch, 0.0)
    w = co.WarpedSpec(flat_base(3), zero, zero)
    m = co.build_warped_metric(w)
    for p in [(0.0, 0.0, 0.0, 1.0), (1.5, -0.7, 0.2, 3.0)]:
        g = rm.metric_at(m, p)[0].components
        assert np.array_equal(g, np.diag([1.0, 1.0, 1.0, -1.0]))


def test_build_eds_components():
    w = co.eds_warped(3)
    m = co.build_warped_metric(w)
    p = (0.3, -0.5, 1.0, 2.0)
    g = rm.metric_at(m, p)[0].components
    assert g[0, 0] == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)
    assert g[3, 3] == -1.0
    assert np.max(np.abs(g - np.diag(np.diag(g)))) == 0.0


def test_build_sphere_scale():
    tch = co.time_chart()
    a = ef.ln(ef.coordinate(tch, "t"))
    w = co.WarpedSpec(co.unit_sphere_base(), a, 0.5 * ef.coordinate(tch, "t"))
    m = co.build_warped_metric(w)
    u, t = 1.1, 2.0
    g = rm.metric_at(m, (u, 0.4, t))[0].components
    assert g[0, 0] == pytest.approx(t**2, rel=1e-15)
    assert g[1, 1] == pytest.approx(t**2 * math.sin(u) ** 2, rel=1e-15)
    assert g[2, 2] == -1.0


def test_closed_forms_match_engine_flat_base():
    rng = np.random.default_rng(53)
    w = random_warped(rng, flat_base(3))
    m = co.build_warped_metric(w)
    for p in [(0.4, -0.7, 1.1, 1.3), (0.0, 0.2, -0.5, 4.2)]:
        cf = co.warped_closed_forms(w, p)
        assert np.max(np.abs(rm.christoffel_at(m, p).components - cf.gamma)) < 1e-9
        assert np.max(np.abs(rm.riemann_at(m, p).components - cf.riemann)) < 1e-9
        assert np.max(np.abs(rm.ricci_at(m, p).components - cf.ricci)) < 1e-9


def test_closed_forms_match_engine_sphere_base():
    rng = np.random.default_rng(59)
    w = random_warped(rng, co.unit_sphere_base())
    m = co.build_warped_metric(w)
    gm_theta = ef.remap_coordinates(w.theta, m.chart)
    for p in [(1.1, 0.4, 1.7), (0.8, -1.2, 3.5)]:
        cf = co.warped_closed_forms(w, p)
        assert np.max(np.abs(rm.christoffel_at(m, p).components - cf.gamma)) < 1e-9
        assert np.max(np.abs(rm.riemann_at(m, p).components - cf.riemann)) < 1e-9
        assert np.max(np.abs(rm.ricci_at(m, p).components - cf.ricci)) < 1e-9
        assert cf.lap_theta == pytest.approx(rm.laplacian_at(m, gm_theta, p), abs=1e-12)


def test_closed_forms_static_flat_all_zero():
    tch = co.time_chart()
    zero = ef.constant(tch, 0.0)
    w = co.WarpedSpec(flat_base(2), zero, zero)
    cf = co.warped_closed_forms(w, (0.3, -0.4, 2.0))
    assert np.all(cf.gamma == 0.0)
    assert np.all(cf.riemann == 0.0)
    assert np.all(cf.ricci == 0.0)
    assert cf.lap_theta == 0.0


def test_closed_forms_frozen_values():
    w = co.eds_warped(3)
    cf = co.warped_closed_forms(w, (0.0, 0.0, 0.0, 1.0))
    # time-time Ricci at unit time for the n=3 power-law solution
    assert cf.ricci[3, 3] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert np.max(np.abs(cf.ricci[:3, 3])) == 0.0
    rng = np.random.default_rng(61)
    ws = random_warped(rng, co.unit_sphere_base())
    cfs = co.warped_closed_forms(ws, (1.2, 0.7, 2.4))
    assert np.max(np.abs(cfs.ricci[:2, 2])) == 0.0


def test_closed_forms_time_guard():
    w = co.eds_warped(3)
    with pytest.raises(DomainError):
        co.warped_closed_forms(w, (0.0, 0.0, 0.0, 0.0))


def test_eds_solution_constants():
    a, theta, c = co.eds_solution(3)
    assert c == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)
    assert a((2.0,)) == pytest.approx(math.log(2.0) / 3.0, rel=1e-15)
    assert theta((2.0,)) == pytest.approx(c * math.log(2.0), rel=1e-15)
    assert co.eds_solution(2)[2] == 0.5
    with pytest.raises(ValueError):
        co.eds_solution(1)


def test_eds_residuals_on_grid():
    gm = co.warped_graded_metric(co.eds_warped(3))
    for t in np.linspace(0.5, 4.0, 5):
        rep = gd.field_residuals_at(gm, (0.2, -0.4, 0.9, float(t)))
        assert max(rep.e27, rep.e28, rep.e29, rep.e44) < 1e-9


def test_eds_theta_harmonic():
    w = co.eds_warped(4)
    for t in (0.5, 1.0, 3.0):
        cf = co.warped_closed_forms(w, (0.0, 0.0, 0.0, 0.0, t))
        assert abs(cf.lap_theta) < 1e-14


def test_ode_matches_eds():
    c = math.sqrt(1.0 / 3.0)
    traj = co.integrate_scale_factor(co.OdeState(1.0, 0.0, 1.0 / 3.0, 0.0), c, 0.0, 4.0, 1e-3, n=3)
    arr = traj.arrays()
    assert np.max(np.abs(arr["a"] - np.log(arr["t"]) / 3.0)) < 1e-8
    assert np.max(np.abs(arr["theta"] - c * np.log(arr["t"]))) < 1e-8


def test_ode_convergence_fourth_order():
    c = math.sqrt(1.0 / 3.0)

    def err(h):
        traj = co.integrate_scale_factor(
            co.OdeState(1.0, 0.0, 1.0 / 3.0, 0.0), c, 0.0, 4.0, h, n=3
        )
        arr = traj.arrays()
        return np.max(np.abs(arr["a"] - np.log(arr["t"]) / 3.0))

    errors = [err(h) for h in (0.2, 0.1, 0.05, 0.025, 0.0125)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 13.0 <= coarse / fine <= 19.0


def test_ode_static_case():
    traj = co.integrate_scale_factor(co.OdeState(1.0, 0.25, 0.0, 0.7), 0.0, 0.0, 3.0, 0.01, n=3)
    arr = traj.arrays()
    assert np.ptp(arr["a"]) == 0.0
    assert np.ptp(arr["a_dot"]) == 0.0
    assert np.ptp(arr["theta"]) == 0.0


def test_ode_backward_integration():
    c = math.sqrt(1.0 / 3.0)
    start = co.OdeState(4.0, math.log(4.0) / 3.0, 1.0 / 12.0, c * math.log(4.0))
    traj = co.integrate_scale_factor(start, c, 0.0, 1.0, 1e-3, n=3)
    arr = traj.arrays()
    assert arr["t"][-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(arr["a"] - np.log(arr["t"]) / 3.0)) < 1e-8


def test_ode_theta_sign_flag():
    c = 0.5
    up = co.integrate_scale_factor(co.OdeState(1.0, 0.0, 0.5, 0.0), c, 0.0, 3.0, 0.01, n=2)
    down = co.integrate_scale_factor(
        co.OdeState(1.0, 0.0, 0.5, 0.0), c, 0.0, 3.0, 0.01, n=2, theta_sign=-1
    )
    tu = up.arrays()["theta"]
    td = down.arrays()["theta"]
    assert np.all(np.diff(tu) > 0)
    assert np.max(np.abs(tu + td)) < 1e-14


def test_ode_guards():
    s = co.OdeState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        co.integrate_scale_factor(s, 0.5, 0.0, 4.0, 0.0, n=3)
    with pytest.raises(ValueError):
        co.integrate_scale_factor(s, -0.5, 0.0, 4.0, 0.1, n=3)
    with pytest.raises(ValueError):
        co.integrate_scale_factor(s, 0.5, 0.0, 4.0, 0.1, n=1)
    with pytest.raises(ValueError):
        co.integrate_scale_factor(s, 0.5, 0.0, 4.0, 0.1, n=3, theta_sign=2)
    with pytest.raises(DomainError):
        co.integrate_scale_factor(s, 0.5, 0.0, -1.0, 0.1, n=3)
    with pytest.raises(DomainError):
        co.integrate_scale_factor(co.OdeState(1.0, 0.0, -80.0, 0.0), 5.0, 0.0, 40.0, 0.5, n=2)
    with pytest.raises(ValueError):
        co.OdeState(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        co.OdeState(1.0, math.nan, 0.0, 0.0)


def test_trajectory_residual_monitors():
    traj = co.integrate_scale_factor(co.OdeState(1.0, 0.0, 0.5, 0.0), 0.5, 0.0, 4.0, 1e-3, n=2)
    eq41, eq42 = co.trajectory_residuals(traj)
    assert np.max(np.abs(eq42)) < 1e-8
    # the Einstein-constant monitor shifts linearly with lambda
    shifted = co.integrate_scale_factor(co.OdeState(1.0, 0.0, 0.5, 0.0), 0.5, 1.0, 4.0, 1e-3, n=2)
    eq41b, _ = co.trajectory_residuals(shifted)
    assert np.max(np.abs(eq41b - eq41 - 1.0)) < 1e-14


def test_eds_einstein_monitor_vanishes():
    c = math.sqrt(1.0 / 3.0)
    traj = co.integrate_scale_factor(co.OdeState(1.0, 0.0, 1.0 / 3.0, 0.0), c, 0.0, 4.0, 1e-3, n=3)
    eq41, _ = co.trajectory_residuals(traj)
    assert np.max(np.abs(eq41)) < 1e-9


def test_delta_theta_along_constraint():
    n = 3
    _, _, c = co.eds_solution(n)
    h = 1e-6
    for t in (0.7, 1.0, 2.5):
        td = c / t
        tdd = (c / (t + h) - c / (t - h)) / (2.0 * h)
        a_dot = 1.0 / (n * t)
        assert abs(-n * a_dot * td - tdd) < 1e-10


def test_big_bang_limits():
    ts = np.logspace(-3.0, 0.0, 25)
    a_vals = np.log(ts) / 3.0
    cell = np.exp(2.0 * a_vals)
    density = 2.0 * (1.0 / 3.0) / ts**2
    assert np.all(np.diff(cell) > 0)
    assert cell[0] < 1e-1
    assert np.all(np.diff(density) < 0)
    assert density[0] > 1e5


def test_single_state_trajectory():
    s = co.OdeState(2.0, 0.1, 0.2, 0.3)
    traj = co.integrate_scale_factor(s, 0.5, 0.0, 2.0, 0.1, n=3)
    assert len(traj) == 1 and [col[0] for col in traj.arrays().values()] == [s.t, s.a, s.a_dot, s.theta]
    with pytest.raises(ValueError):
        co.trajectory_residuals(traj)
