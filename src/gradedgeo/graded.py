"""Metrics extended by one odd direction with positive weight.

An extended metric is a base metric together with a log-weight function:
the odd direction has squared norm ``exp(2*theta)`` and is orthogonal to
every ordinary vector.  The module carries the compatible torsion-free
connection (a triple: base connection, a 1-form, a vector field), extended
Ricci/scalar and Hessian with their traces, field-equation residuals, the
matter-sector stress tensor and its conservation residual, and the
curvature action with its first variation (closed form and finite
difference).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import exprfield as ef
from . import riemann as rm
from .algebroid import GradedVectorField, vector_apply
from .exprfield import ChartSpec, ScalarField
from .quadrature import QuadSpec, tensor_rule
from .riemann import MetricSpec, TensorValue

__all__ = [
    "FieldEquationReport",
    "GeometryBatch",
    "GradedConnectionTriple",
    "GradedMetric",
    "GradedTensorValue",
    "VariationSpec",
    "action_first_variation",
    "bump_variation",
    "conservation_residual_at",
    "field_residuals_at",
    "geometry_batch",
    "graded_apply_field",
    "graded_hessian_at",
    "graded_ricci_at",
    "graded_scalar_at",
    "hilbert_action",
    "levicivita_triple",
    "stress_fields",
    "tilde_T_at",
    "tr_tilde_T_at",
]

VARIATION_STEP = 1e-4
_BOUNDARY_INSET = 1e-9  # how far inside each support face the boundary probe samples, relative to its width


@dataclass(frozen=True)
class GradedMetric:
    """Base metric plus the log-weight of the odd direction."""

    metric: MetricSpec
    theta: ScalarField
    # symbolic pieces built on first use (triple, stress, validate's basis
    # connection), kept with the metric
    _cache: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.theta.chart != self.metric.chart:
            raise ValueError("theta lives on a different chart than the metric")

    @property
    def chart(self) -> ChartSpec:
        return self.metric.chart

    def weight(self) -> ScalarField:
        """Squared norm of the odd direction, exp(2*theta)."""
        return ef.exp(self.theta + self.theta)

    def extended_metric(self) -> list[ScalarField]:
        """The (n+1)^2 entries of the extended metric, row by row: g_ij on the
        even block, zero cross entries and the weight on the odd direction."""
        n, zero, weight = self.chart.dim, ef.constant(self.chart, 0.0), self.weight()
        return [
            self.metric.component(i, j) if max(i, j) < n else weight if i == j else zero
            for i in range(n + 1)
            for j in range(n + 1)
        ]


@dataclass(frozen=True)
class GradedConnectionTriple:
    """Base connection of the metric, plus the two structure pieces.

    ``alpha`` multiplies odd arguments in the even-direction derivative,
    ``alpha_prime`` the odd operand; the compatible torsion-free triple
    has both equal.  ``x0`` is the derivative of the odd frame along
    itself.  Components are symbolic fields.
    """

    metric: GradedMetric
    alpha: tuple[ScalarField, ...]
    x0: tuple[ScalarField, ...]
    alpha_prime: tuple[ScalarField, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "x0", tuple(self.x0))
        if self.alpha_prime is None:
            object.__setattr__(self, "alpha_prime", self.alpha)
        else:
            object.__setattr__(self, "alpha_prime", tuple(self.alpha_prime))
        n = self.metric.chart.dim
        for name, fields in (("alpha", self.alpha), ("x0", self.x0), ("alpha_prime", self.alpha_prime)):
            if len(fields) != n:
                raise ValueError(f"{name} needs {n} components")

    @property
    def chart(self) -> ChartSpec:
        return self.metric.chart


@dataclass(frozen=True, eq=False)
class GradedTensorValue:
    """Symmetric-bilinear-form value split along the grading."""

    even: TensorValue
    cross: np.ndarray
    odd: float
    base_point: tuple


@dataclass(frozen=True)
class FieldEquationReport:
    """Max-norm residuals of the four field-equation forms at one point."""

    point: tuple
    e27: float
    e28: float
    e29: float
    e44: float
    scalar_curvature: float
    graded_scalar: float

    @property
    def e30(self) -> float:
        # the second equation of the reduced pair is the same scalar condition
        return self.e28

    def to_json_dict(self) -> dict:
        return {**asdict(self), "point": [float(x) for x in self.point]}


def levicivita_triple(gm: GradedMetric) -> GradedConnectionTriple:
    """The unique compatible torsion-free triple of the extended metric."""
    got = gm._cache.get("triple")
    if got is not None:
        return got
    n = gm.chart.dim
    theta = gm.theta
    alpha = tuple(theta.d(i) for i in range(n))
    ginv = gm.metric.inverse_fields()
    weight = gm.weight()
    zero = ef.constant(gm.chart, 0.0)
    x0 = []
    for i in range(n):
        acc = zero
        for j in range(n):
            acc = acc + ginv[i][j] * alpha[j]
        # negating a zero constant would give Const(-0.0)
        x0.append(-(weight * acc) if not acc.is_zero else zero)
    got = gm._cache["triple"] = GradedConnectionTriple(gm, alpha, tuple(x0))
    return got


def graded_apply_field(
    conn: GradedConnectionTriple, xh: GradedVectorField, yh: GradedVectorField
) -> GradedVectorField:
    """Covariant derivative of ``yh`` along ``xh``, symbolically."""
    chart = conn.chart
    if xh.chart != chart or yh.chart != chart:
        raise ValueError("fields live on a different chart than the connection")
    n = chart.dim
    gamma = conn.metric.metric.christoffel_fields()
    X, h = xh.even, xh.odd
    Y, k = yh.even, yh.odd
    even = []
    for c in range(n):
        acc = vector_apply(X, Y[c])
        for i in range(n):
            for j in range(n):
                acc = acc + gamma[c][i][j] * X[i] * Y[j]
        even.append(acc + h * k * conn.x0[c])
    odd = vector_apply(X, k)
    for i in range(n):
        odd = odd + k * conn.alpha_prime[i] * X[i] + h * conn.alpha[i] * Y[i]
    return GradedVectorField(tuple(even), odd)


def _one(gm: GradedMetric, p) -> tuple[tuple[float, ...], "GeometryBatch"]:
    b = geometry_batch(gm, [p])
    return tuple(b.points[0].tolist()), b


def tilde_T_at(gm: GradedMetric, p) -> TensorValue:
    """Covariant second derivative of theta plus the squared slope form."""
    pt, b = _one(gm, p)
    return TensorValue(("d", "d"), b.tilde_T[0], pt)


def tr_tilde_T_at(gm: GradedMetric, p) -> float:
    _, b = _one(gm, p)
    return float(b.lap[0] + b.gradsq[0])


def graded_ricci_at(gm: GradedMetric, p) -> GradedTensorValue:
    """Ricci form of the extended metric, split along the grading."""
    pt, b = _one(gm, p)
    even = TensorValue(("d", "d"), b.gric_even[0], pt)
    return GradedTensorValue(even, np.zeros(gm.chart.dim), float(b.gric_odd[0]), pt)


def graded_scalar_at(gm: GradedMetric, p) -> float:
    return float(_one(gm, p)[1].graded_scalar[0])


def graded_hessian_at(gm: GradedMetric, f: ScalarField, p) -> GradedTensorValue:
    """Second covariant derivative of an ordinary function, graded blocks."""
    pt, b = _one(gm, p)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        jet = ef.eval_jet_batch(f, [pt], 2)
        hes = rm.hessian_batch(b.gamma, jet)[0]
        odd = float(b.weight[0]) * float(jet.gradient()[:, 0] @ b.ginv[0] @ b.dth[0])
    rm.check_finite([("the Hessian of f", np.append(hes, odd))], b.points)
    return GradedTensorValue(TensorValue(("d", "d"), hes, pt), np.zeros(gm.chart.dim), odd, pt)


def stress_fields(gm: GradedMetric) -> tuple[tuple[ScalarField, ...], ...]:
    """Matter-sector stress tensor 2 dtheta x dtheta - |grad theta|^2 g."""
    got = gm._cache.get("stress")
    if got is not None:
        return got
    n = gm.chart.dim
    theta = gm.theta
    dth = [theta.d(i) for i in range(n)]
    ginv = gm.metric.inverse_fields()
    zero = ef.constant(gm.chart, 0.0)
    gradsq = zero
    for a in range(n):
        for b in range(n):
            gradsq = gradsq + ginv[a][b] * dth[a] * dth[b]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = 2.0 * (dth[i] * dth[j]) - gradsq * gm.metric.component(i, j)
            row.append(entry)
        rows.append(tuple(row))
    got = gm._cache["stress"] = tuple(rows)
    return got


def conservation_residual_at(gm: GradedMetric, p) -> TensorValue:
    """Covariant divergence of the stress tensor, as a 1-form value."""
    return rm.divergence_sym2_at(gm.metric, stress_fields(gm), p)


@dataclass(frozen=True, eq=False)
class GeometryBatch:
    """Order-2 geometry of an extended metric over an array of points.

    Every array has a leading point axis; a single point is a batch of one.
    Index layouts follow the riemann module.  Curvature comes from one trace
    core call per point block (riemann._traces): ``ric`` is the symmetric part
    of its z and ``scalar`` is g^jk z_jk, so R agrees with the trace of ``ric``
    to rounding; the full Riemann tensor has no reader here.  The graded Ricci
    form has an even block ``gric_even`` and an odd block ``gric_odd``; its
    cross block vanishes for the compatible triple.  ``e27``..``e44`` are the
    max-norm residuals of the four field-equation forms.
    """

    points: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray
    ric: np.ndarray
    scalar: np.ndarray
    dth: np.ndarray  # d_i theta
    lap: np.ndarray
    gradsq: np.ndarray  # |grad theta|^2
    tilde_T: np.ndarray
    weight: np.ndarray  # exp(2 theta), squared norm of the odd direction
    gric_even: np.ndarray
    gric_odd: np.ndarray
    graded_scalar: np.ndarray
    det: np.ndarray  # det g, read through density
    e27: np.ndarray
    e28: np.ndarray
    e29: np.ndarray
    e44: np.ndarray

    @property
    def density(self) -> np.ndarray:
        """sqrt|det g|, the metric volume; DomainError naming det g where it overflowed."""
        return _density(self.det, self.points)

    def residual_records(self) -> list[FieldEquationReport]:
        """One report per point, in point order."""
        cols = zip(
            self.points.tolist(), self.e27.tolist(), self.e28.tolist(), self.e29.tolist(),
            self.e44.tolist(), self.scalar.tolist(), self.graded_scalar.tolist(),
        )
        return [FieldEquationReport(tuple(p), *vals) for p, *vals in cols]


def geometry_batch(gm: GradedMetric, points) -> GeometryBatch:
    """All of GeometryBatch from one jet sweep of the metric components and theta per point block."""
    pts = np.asarray(points, dtype=float)  # validated by the metric's jet sweeps

    def block(p, arrays, det, jets, work):
        b = _geometry(p, *arrays, det, jets[-1])
        return [getattr(b, f.name) for f in fields(b)]

    return GeometryBatch(*rm._over_blocks(gm.metric, pts, [gm.theta], "traces", block, gm._cache))


def _theta_part(pts, ginv, gamma, scalar, jet) -> tuple:
    """(dth, hes, weight, lap, gradsq, graded_scalar) from the metric tensors and the scalar
    curvature over pts and theta's order-2 jets there; DomainError naming theta,
    exp(2*theta), |grad theta|^2 or the graded scalar where not finite."""
    with np.errstate(over="ignore"):  # an overflow is caught just below
        weight = np.exp(2.0 * jet.coeffs[0])
        hes = rm.hessian_batch(gamma, jet)  # jet.hessian() doubles the diagonal
    rm.check_finite([("theta", jet.coeffs), ("theta", np.moveaxis(hes, 0, -1)), ("exp(2*theta)", weight)], pts)
    dth = np.ascontiguousarray(jet.gradient().T)
    with np.errstate(over="ignore", invalid="ignore"):  # caught just below
        lap = np.einsum("pij,pij->p", ginv, hes)
        # point-first, so that each sum runs in einsum's inner loop whatever the point count
        gradsq = np.einsum("pi,pi->p", dth, np.einsum("pij,pj->pi", ginv, dth))
        graded_scalar = scalar - 2.0 * (lap + gradsq)
    rm.check_finite([("|grad theta|^2", gradsq), ("graded scalar", graded_scalar)], pts)
    return dth, hes, weight, lap, gradsq, graded_scalar


def _geometry(pts, g, ginv, gamma, ric, scalar, det, jet) -> GeometryBatch:
    """GeometryBatch from the metric tensors and the scalar curvature over pts and theta's
    order-2 jets there; DomainError naming tilde_T, a graded Ricci block or a residual
    where not finite."""
    dth, hes, weight, lap, gradsq, graded_scalar = _theta_part(pts, ginv, gamma, scalar, jet)
    with np.errstate(over="ignore", invalid="ignore"):  # caught just below
        dd = np.einsum("pi,pj->pij", dth, dth)
        tilde = hes + dd
        gric_even = ric - tilde
        gric_odd = -weight * (lap + gradsq)
        full = ric - 0.5 * scalar[:, None, None] * g - 2.0 * dd + gradsq[:, None, None] * g
        even_blk = gric_even - (dd - hes)
        odd_blk = gric_odd + weight * gradsq
        e27 = np.max(np.abs(full), axis=(1, 2))
        e29 = np.max(np.abs(ric - 2.0 * dd), axis=(1, 2))
        e44 = np.maximum(np.max(np.abs(even_blk), axis=(1, 2)), np.abs(odd_blk))
    # tilde_T = hes + dd is finite only where dd is, hes being checked
    rm.check_finite([
        ("tilde_T", np.moveaxis(tilde, 0, -1)), ("graded Ricci", np.moveaxis(gric_even, 0, -1)),
        ("graded Ricci", gric_odd), ("e27", e27), ("e29", e29), ("e44", e44),
    ], pts)
    return GeometryBatch(
        points=pts, g=g, ginv=ginv, gamma=gamma, ric=ric, scalar=scalar,
        dth=dth, lap=lap, gradsq=gradsq, tilde_T=tilde, weight=weight,
        gric_even=gric_even, gric_odd=gric_odd, graded_scalar=graded_scalar,
        det=det, e27=e27, e28=np.abs(lap), e29=e29, e44=e44,
    )


def field_residuals_at(gm: GradedMetric, p) -> FieldEquationReport:
    """Residuals of the four equivalent field-equation forms at a point."""
    return _one(gm, p)[1].residual_records()[0]


def _density(det: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sqrt|det g|, the metric volume; DomainError naming det g where it overflowed."""
    rm.check_finite([("det g", det)], pts)
    return np.sqrt(np.abs(det))


def _integrals(gm: GradedMetric, pts: np.ndarray, weights: np.ndarray, integrands, extra=()) -> list[float]:
    """Quadrature sums of the rows ``integrands(points, arrays, det, jets, work)`` gives over each
    point block of one sweep of g, theta and ``extra`` (rm._over_blocks).

    Each row is filled block by block and summed once over every point, so the
    sums do not depend on the blocks.
    """
    rows = rm._over_blocks(gm.metric, pts, [gm.theta, *extra], "traces", integrands)
    return [float(np.einsum("p,p->", row, weights)) for row in rows]


def hilbert_action(gm: GradedMetric, quad: QuadSpec) -> float:
    """Integral of the extended scalar curvature against the metric volume."""

    def integrand(p, arrays, det, jets, work):
        _, ginv, gamma, _, scalar = arrays
        *_, graded_scalar = _theta_part(p, ginv, gamma, scalar, jets[-1])
        return (graded_scalar * _density(det, p),)

    return _integrals(gm, *tensor_rule(gm.chart, quad), integrand)[0]


def action_magnitude(gm: GradedMetric, quad: QuadSpec) -> float:
    """Size scale for action values: the same integrand with both terms in
    absolute value, so it stays positive where the signed terms cancel."""

    def integrand(p, arrays, det, jets, work):
        _, ginv, gamma, _, scalar = arrays
        *_, lap, gradsq, _ = _theta_part(p, ginv, gamma, scalar, jets[-1])
        return ((np.abs(scalar) + 2.0 * np.abs(lap + gradsq)) * _density(det, p),)

    return _integrals(gm, *tensor_rule(gm.chart, quad), integrand)[0]


@dataclass(frozen=True, eq=False)
class VariationSpec:
    """Symmetric perturbation ``s = A*p`` of the base metric plus a log-weight bump ``h = a*p``.

    ``profile`` is p, ``amplitudes`` the symmetric matrix A (kept as a
    read-only array) and ``h_amplitude`` a.  Both pieces must vanish on the
    boundary of the support box; this is sampled at construction just
    inside each face.
    """

    profile: ScalarField
    amplitudes: np.ndarray
    h_amplitude: float
    support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        chart = self.profile.chart
        n = chart.dim
        amplitudes = np.array(self.amplitudes, dtype=float)
        if amplitudes.shape != (n, n) or not np.array_equal(amplitudes, amplitudes.T):
            raise ValueError("amplitude matrix must be symmetric and match the chart")
        amplitudes.flags.writeable = False
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "h_amplitude", float(self.h_amplitude))
        support = tuple((float(lo), float(hi)) for lo, hi in self.support)
        object.__setattr__(self, "support", support)
        if len(support) != n:
            raise ValueError("support box dimension mismatch")
        for (lo, hi), (clo, chi) in zip(support, chart.box):
            if not (clo <= lo < hi <= chi):
                raise ValueError("support box must sit inside the chart box")
        worst = self._boundary_max()
        if not worst <= 1e-12:
            raise ValueError(f"variation does not vanish on the support boundary ({worst:.3e})")

    def _boundary_max(self) -> float:
        n = self.profile.chart.dim
        probes = []
        for axis in range(n):
            lo, hi = self.support[axis]
            pad = _BOUNDARY_INSET * (hi - lo)
            for edge in (lo + pad, hi - pad):
                base = []
                for a in range(n):
                    alo, ahi = self.support[a]
                    apad = 1e-6 * (ahi - alo)
                    base.append((alo + apad, 0.5 * (alo + ahi), ahi - apad))
                base[axis] = (edge,)
                probes.extend(itertools.product(*base))
        values = ef.eval_jet_batch(self.profile, probes, 0).coeffs[0]
        # rounding is monotone, so this is the largest |A_ij*p| or |a*p| at the probes
        return float(np.max(np.abs(np.append(self.amplitudes, self.h_amplitude))) * np.max(np.abs(values)))


def bump_variation(
    chart: ChartSpec,
    support: tuple[tuple[float, float], ...],
    s_coeffs=None,
    h_coeff: float = 0.0,
) -> VariationSpec:
    """Variation with the standard smooth compactly-supported profile.

    ``s_coeffs`` is the symmetric amplitude matrix (None for a pure
    log-weight variation) and ``h_coeff`` the log-weight amplitude.
    """
    profile = ef.constant(chart, 1.0)
    for axis, (lo, hi) in enumerate(support):
        x = ef.coordinate(chart, chart.coord_names[axis])
        u = (2.0 * x - (lo + hi)) / (hi - lo)
        profile = profile * ef.exp(-(1.0 / (1.0 - u * u)))
    amplitudes = np.zeros((chart.dim, chart.dim)) if s_coeffs is None else s_coeffs
    return VariationSpec(profile, amplitudes, h_coeff, support)


def action_first_variation(gm: GradedMetric, var: VariationSpec, quad: QuadSpec) -> tuple[float, float]:
    """Derivative of the action along a variation, two independent ways.

    Returns (closed_form, finite_difference).  Both integrate over the
    variation's support box only; outside it the integrand does not move.
    One order-2 sweep of g, theta and the profile p per point block feeds
    both: Taylor arithmetic is linear, so s = A*p and h = a*p are formed
    from p's jets, and g +- step*s and theta +- step*h from those.  Only
    ``quad.nodes_per_axis`` is read; a ``quad.box`` other than None or the
    support raises ValueError.
    """
    return _action_variation(gm, var, quad)[:2]


def _action_variation(gm: GradedMetric, var: VariationSpec, quad: QuadSpec) -> tuple[float, float, float]:
    """action_first_variation's (closed_form, finite_difference), then the
    action over the variation's support, all read off the one sweep per point block."""
    if quad.box not in (None, var.support):
        raise ValueError(f"the action variation integrates over its support {var.support}, not the box {quad.box}")
    pts, weights = tensor_rule(gm.chart, QuadSpec(quad.nodes_per_axis, var.support))
    amplitudes = var.amplitudes[np.triu_indices(gm.chart.dim)]  # in the order of the metric's jets

    def base_rows(p, arrays, det, theta, profile, h):
        # the closed form's and the action's rows of one block; the base pass's tensors,
        # which the block owns, are freed on return, before the perturbed passes assemble
        _, ginv, gamma, ric, scalar = arrays
        arrays.clear()
        s_first = var.amplitudes * profile.coeffs[0][:, None, None] + 0.0  # [p,i,j] = s_ij
        s_ric = rm._ricci_pairing(ginv, ric, s_first)
        rm.check_finite([("<s, Ric>", s_ric)], p)
        dth, _, _, lap, gradsq, graded_scalar = _theta_part(p, ginv, gamma, scalar, theta)
        density = _density(det, p)
        # <s, -Ric + (R/2 - |dtheta|^2) g + 2 dtheta x dtheta>, raised by g^-1; point-first,
        # as in _theta_part
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            grad = np.einsum("pij,pj->pi", ginv, dth)  # grad theta
            s_grad = np.einsum("pi,pi->p", grad, np.einsum("pij,pj->pi", s_first, grad))
            pairing = -s_ric + (0.5 * scalar - gradsq) * np.einsum("pij,pij->p", ginv, s_first) + 2.0 * s_grad
            closed = (pairing + 4.0 * h.coeffs[0] * lap) * density
        rm.check_finite([("closed-form pairing", pairing), ("closed-form integrand", closed)], p)
        return closed, graded_scalar * density

    def integrands(p, arrays, det, jets, work):
        g_jets, (theta, profile) = jets[:-2], jets[-2:]
        h = profile * var.h_amplitude
        closed, base = base_rows(p, arrays, det, theta, profile, h)

        def action(t: float) -> np.ndarray:
            # profile * a is coeffs * a + 0.0, the bits of the jet of the field a*p; a zero
            # amplitude is skipped, since -0.0 + 0.0 would lose the sign. The moved jets are
            # freed once assembled
            (_, ginv, gamma, _, scalar), det_t = rm._metric_tensors(
                p, [b + (profile * a) * t if a else b for b, a in zip(g_jets, amplitudes)], work, "traces"
            )
            *_, graded_scalar = _theta_part(p, ginv, gamma, scalar, theta + h * t if var.h_amplitude else theta)
            return graded_scalar * _density(det_t, p)

        return closed, base, action(VARIATION_STEP), action(-VARIATION_STEP)

    closed, base, plus, minus = _integrals(gm, pts, weights, integrands, [var.profile])
    return closed, (plus - minus) / (2.0 * VARIATION_STEP), base
