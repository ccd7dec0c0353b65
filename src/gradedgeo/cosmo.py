"""Warped-product spacetimes over a Riemannian base.

A scale factor a(t) warps a Riemannian metric into g = e^{2a} gbar - dt (x) dt
on base x (0, inf).  Connection, curvature and Ricci data then reduce to
closed forms in a', a'' and the base geometry; this module provides those
closed forms, the power-law homogeneous solution, and a fixed-step
integrator for the general scale-factor problem together with the
consistency residuals it monitors but does not enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprfield as ef
from . import graded as gd
from . import riemann as rm
from .errors import DomainError
from .exprfield import ChartSpec, ScalarField
from .riemann import MetricSpec

__all__ = [
    "OdeState",
    "Trajectory",
    "WarpedClosedForms",
    "WarpedSpec",
    "build_warped_metric",
    "eds_constant",
    "eds_solution",
    "eds_warped",
    "integrate_scale_factor",
    "product_chart",
    "state_count",
    "time_chart",
    "trajectory_residuals",
    "unit_sphere_base",
    "warped_closed_forms",
    "warped_graded_metric",
]

MIN_STATES = 5  # the residual stencils of trajectory_residuals need this many
MAX_STATES = 10**5  # the most a config may ask for; the trajectory is held in memory

SPATIAL_NAMES = ("x", "y", "z", "w", "v")


def time_chart(t_span=(1e-4, 16.0), name: str = "t") -> ChartSpec:
    lo, hi = t_span
    if lo <= 0.0:
        raise ValueError("time interval must stay positive")
    return ChartSpec((name,), ((float(lo), float(hi)),))


def _spatial_names(n: int) -> tuple[str, ...]:
    if n <= len(SPATIAL_NAMES):
        return SPATIAL_NAMES[:n]
    return tuple(f"x{i + 1}" for i in range(n))


@dataclass(frozen=True)
class WarpedSpec:
    """Warped product of a Riemannian base with a positive time ray.

    The scale factor and the log-weight function live on a one-coordinate
    time chart, which keeps any spatial dependence out by construction.
    """

    base: MetricSpec
    a: ScalarField
    theta: ScalarField

    def __post_init__(self):
        if self.base.chart.dim < 2:
            raise ValueError("base manifold needs dimension >= 2")
        tchart = self.a.chart
        if tchart.dim != 1:
            raise ValueError("scale factor must live on a one-coordinate time chart")
        if self.theta.chart != tchart:
            raise ValueError("theta must share the scale factor's time chart")
        tname = tchart.coord_names[0]
        if tname in self.base.chart.coord_names:
            raise ValueError(f"time coordinate {tname!r} collides with a base coordinate")
        if tchart.box[0][0] <= 0.0:
            raise ValueError("time interval must stay positive")
        for p in _base_sample(self.base.chart):
            if any(s != 1 for s in rm.signature_at(self.base, p)):
                raise ValueError(f"base metric is not positive definite at {p}")

    @property
    def n(self) -> int:
        return self.base.chart.dim

    @property
    def time_name(self) -> str:
        return self.a.chart.coord_names[0]


def _base_sample(chart: ChartSpec):
    mid = chart.midpoint()
    yield mid
    for axis, (lo, hi) in enumerate(chart.box):
        p = list(mid)
        p[axis] = lo + 0.25 * (hi - lo)
        yield tuple(p)


def product_chart(w: WarpedSpec) -> ChartSpec:
    return ChartSpec(
        w.base.chart.coord_names + (w.time_name,),
        w.base.chart.box + w.a.chart.box,
    )


def build_warped_metric(w: WarpedSpec) -> MetricSpec:
    """Product metric e^{2a} gbar on the base block, -1 on the time axis."""
    chart = product_chart(w)
    n = w.n
    warp = ef.exp(2.0 * ef.remap_coordinates(w.a, chart))
    zero = ef.constant(chart, 0.0)
    rows = [[zero] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(i, n):
            entry = warp * ef.remap_coordinates(w.base.component(i, j), chart)
            rows[i][j] = entry
            rows[j][i] = entry
    rows[n][n] = ef.constant(chart, -1.0)
    return MetricSpec(chart, rows)


def warped_graded_metric(w: WarpedSpec) -> gd.GradedMetric:
    chart = product_chart(w)
    return gd.GradedMetric(build_warped_metric(w), ef.remap_coordinates(w.theta, chart))


@dataclass(frozen=True)
class WarpedClosedForms:
    """Pointwise geometry of the warped metric, free of any generic engine.

    Arrays follow the package index layout: gamma[upper, lower, lower],
    riemann[l, i, j, k] for the l-component of R(e_i, e_j)e_k, ricci
    symmetric.  The time axis is the last coordinate.
    """

    point: tuple
    a_value: float
    a_dot: float
    a_ddot: float
    theta_dot: float
    theta_ddot: float
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    lap_theta: float


def warped_closed_forms(w: WarpedSpec, p) -> WarpedClosedForms:
    """Assemble connection, curvature, Ricci and the weight Laplacian at p.

    Every entry comes from the warped-product reduction: the base geometry
    enters through its own (n-dimensional) tensors, the rest is algebra in
    a', a'' and the warp factor.
    """
    chart = product_chart(w)
    pt = chart.require_point(p)
    t = pt[-1]
    if t <= 0.0:
        raise DomainError(f"time coordinate must be positive, got t={t}")
    base_pt = pt[:-1]
    n = w.n

    ajet, thjet = ef.eval_jets_batch([w.a, w.theta], [(t,)], 2)
    a_val = float(ajet.coeffs[0, 0])
    a_dot = float(ajet.gradient()[0, 0])
    a_ddot = float(ajet.hessian()[0, 0, 0])
    th_dot = float(thjet.gradient()[0, 0])
    th_ddot = float(thjet.hessian()[0, 0, 0])

    gb, _, gamma_b, riem_b = rm.curvature_data_at(w.base, base_pt)
    ric_b = np.einsum("lljk->jk", riem_b)

    g_sp = math.exp(2.0 * a_val) * gb
    accel = a_ddot + a_dot**2
    eye = np.eye(n)

    gamma = np.zeros((n + 1,) * 3)
    gamma[:n, :n, :n] = gamma_b
    gamma[n, :n, :n] = a_dot * g_sp
    idx = np.arange(n)
    gamma[idx, n, idx] = a_dot
    gamma[idx, idx, n] = a_dot

    riem = np.zeros((n + 1,) * 4)
    riem[:n, :n, :n, :n] = riem_b + a_dot**2 * (
        np.einsum("jk,li->lijk", g_sp, eye) - np.einsum("ik,lj->lijk", g_sp, eye)
    )
    riem[n, n, :n, :n] = accel * g_sp
    riem[n, :n, n, :n] = -accel * g_sp
    riem[idx, n, idx, n] = accel
    riem[idx, idx, n, n] = -accel

    ricci = np.zeros((n + 1, n + 1))
    ricci[:n, :n] = ric_b + (a_ddot + n * a_dot**2) * g_sp
    ricci[n, n] = -n * accel

    return WarpedClosedForms(
        point=pt,
        a_value=a_val,
        a_dot=a_dot,
        a_ddot=a_ddot,
        theta_dot=th_dot,
        theta_ddot=th_ddot,
        gamma=gamma,
        riemann=riem,
        ricci=ricci,
        lap_theta=-n * a_dot * th_dot - th_ddot,
    )


def eds_constant(n) -> float:
    """c = sqrt((n-1)/(2n)), the coupling that makes theta' = c/t track c*e^{-na}."""
    return math.sqrt((n - 1) / (2.0 * n))


def eds_solution(n: int, t_span=(1e-4, 16.0), name: str = "t"):
    """Power-law homogeneous solution: a = ln(t)/n, theta = c ln(t).

    Returns (a, theta, c) with c = eds_constant(n).
    """
    if n < 2:
        raise ValueError("need base dimension n >= 2")
    chart = time_chart(t_span, name)
    tc = ef.coordinate(chart, name)
    a = ef.ln(tc) / n
    c = eds_constant(n)
    return a, c * ef.ln(tc), c


def eds_warped(n: int, t_span=(1e-4, 16.0), half_width: float = 2.0) -> WarpedSpec:
    """Flat-base warped spec carrying the power-law solution."""
    a, theta, _ = eds_solution(n, t_span)
    base_chart = ChartSpec(_spatial_names(n), ((-half_width, half_width),) * n)
    base = MetricSpec.diagonal(base_chart, [1.0] * n)
    return WarpedSpec(base, a, theta)


def unit_sphere_base(polar=(0.35, 2.8), azimuth=(-3.0, 3.0)) -> MetricSpec:
    """Round two-sphere patch away from the poles; Einstein constant 1."""
    chart = ChartSpec(("u", "v"), (polar, azimuth))
    return MetricSpec.diagonal(chart, ["1", "sin(u)^2"])


@dataclass(frozen=True)
class OdeState:
    """Scale-factor phase point; theta' is recovered from the constraint."""

    t: float
    a: float
    a_dot: float
    theta: float

    def __post_init__(self):
        vals = (self.t, self.a, self.a_dot, self.theta)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite state {vals}")
        if self.t <= 0.0:
            raise ValueError(f"time must stay positive, got t={self.t}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-step trajectory as four read-only float64 columns, plus the parameters that produced it."""

    t: np.ndarray
    a: np.ndarray
    a_dot: np.ndarray
    theta: np.ndarray
    n: int
    c: float
    einstein_lambda: float
    step: float

    def __len__(self) -> int:
        return len(self.t)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"t": self.t, "a": self.a, "a_dot": self.a_dot, "theta": self.theta}


def _rhs(a: float, v: float, n: int, c: float, theta_sign: int, t: float) -> tuple[float, float, float]:
    try:
        shrink = math.exp(-n * a)
    except OverflowError:
        raise DomainError(f"scale-factor acceleration overflowed at t={t:.6g}") from None
    return v, -v * v - (2.0 * c * c / n) * shrink * shrink, theta_sign * c * shrink


def state_count(t0: float, t_end: float, step: float) -> int:
    """States of a run from t0 to t_end in the fewest equal steps of at most ``step`` (> 0)."""
    span = t_end - t0
    return 1 if span == 0.0 else max(1, math.ceil(abs(span) / step - 1e-12)) + 1


def integrate_scale_factor(
    w0: OdeState,
    c: float,
    einstein_lambda: float,
    t_end: float,
    step: float,
    *,
    n: int,
    theta_sign: int = 1,
) -> Trajectory:
    """Classical fixed-step 4th-order run of the scale-factor dynamics.

    Integrates the Ricci-flat branch a'' = -a'^2 - (2c^2/n) e^{-2na} with
    theta' = theta_sign * c * e^{-na}.  A nonzero Einstein constant never
    alters the dynamics; it only shifts the consistency residual that
    trajectory_residuals reports.  A state that is not finite, or a time
    that is not positive, raises DomainError naming its t.
    """
    if n < 2:
        raise ValueError("need base dimension n >= 2")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if c < 0.0:
        raise ValueError("constraint constant c must be nonnegative")
    if theta_sign not in (1, -1):
        raise ValueError("theta_sign must be +1 or -1")
    if t_end <= 0.0:
        raise DomainError("trajectory would cross t=0")
    lam = float(einstein_lambda)

    m = state_count(w0.t, t_end, step)
    h = (t_end - w0.t) / max(m - 1, 1)
    t, y = w0.t, [w0.a, w0.a_dot, w0.theta]
    cols = np.empty((4, m))
    cols[:, 0] = t, *y
    for k in range(1, m):
        a, v, _ = y
        k1 = _rhs(a, v, n, c, theta_sign, t)
        k2 = _rhs(a + 0.5 * h * k1[0], v + 0.5 * h * k1[1], n, c, theta_sign, t + 0.5 * h)
        k3 = _rhs(a + 0.5 * h * k2[0], v + 0.5 * h * k2[1], n, c, theta_sign, t + 0.5 * h)
        k4 = _rhs(a + h * k3[0], v + h * k3[1], n, c, theta_sign, t + h)
        y = [x + (h / 6.0) * (p + 2.0 * q + 2.0 * r + s) for x, p, q, r, s in zip(y, k1, k2, k3, k4)]
        t = w0.t + k * h
        if not t > 0.0:
            raise DomainError(f"trajectory reaches t={t:.6g}; time must stay positive")
        if not all(map(math.isfinite, y)):
            raise DomainError(f"non-finite state (a, a_dot, theta) = {tuple(y)} at t={t:.6g}")
        cols[:, k] = t, *y
    cols.flags.writeable = False
    return Trajectory(*cols, n, c, lam, abs(h))


def _fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative on a uniform grid, one-sided at the ends."""
    m = len(values)
    if m < MIN_STATES:
        raise ValueError("need at least five samples for the residual stencils")
    out = np.empty(m)
    out[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * h)
    v = values
    out[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    out[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    out[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    out[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    return out


def trajectory_residuals(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Constraint residuals along a trajectory, with finite-difference a''.

    The first array monitors the base Einstein constant against
    -(a'' + n a'^2) e^{2a}; the second checks -n(a'' + a'^2) against the
    matter density 2 c^2 e^{-2na}.  Both vanish on exact solutions up to
    stencil error.  A residual that overflows raises DomainError naming its
    column and the first t where it is not finite.
    """
    if traj.step == 0.0:
        raise ValueError("single-state trajectory has no residuals")
    a, v, n, c = traj.a, traj.a_dot, traj.n, traj.c
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, column by column
        a_ddot = _fd_derivative(v, math.copysign(traj.step, traj.t[1] - traj.t[0]))
        eq41 = traj.einstein_lambda + (a_ddot + n * v**2) * np.exp(2.0 * a)
        eq42 = -n * (a_ddot + v**2) - 2.0 * c * c * np.exp(-2.0 * n * a)
    for name, col in (("eq41_residual", eq41), ("eq42_residual", eq42)):
        bad = ~np.isfinite(col)
        if bad.any():
            raise DomainError(f"non-finite {name} at t={traj.t[bad.argmax()]:.6g}")
    return eq41, eq42
