"""Cross-checks of the extended-metric engine along independent routes.

Each check recomputes a quantity a second way (generic Koszul pairing,
frame-summed curvature, direct divergence identities) and reports the
worst deviation over a sample, so one run exercises the derivation chain
end to end on a configured geometry.  The frame route never touches the
closed-form curvature blocks: it nests covariant derivatives of vector
fields and pairs the result against a pseudo-orthonormal frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprfield as ef
from . import graded as gd
from . import riemann as rm
from .algebroid import (
    GradedVectorField,
    anchor,
    bracket,
    koszul_eval,
    pairing_field,
    vector_apply,
)
from .errors import DegenerateMetricError
from .graded import GradedConnectionTriple, GradedMetric
from .randgen import random_graded_field, random_interior_point, random_polynomial

__all__ = [
    "CheckResult",
    "curvature_field",
    "frame_graded_ricci",
    "frame_graded_scalar",
    "orthonormal_frame",
    "run_geometry_checks",
]

FRAME_NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class CheckResult:
    """Worst deviation of one invariant check against its tolerance."""

    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _worse(worst: float, err: float) -> float:
    """The larger of two errors, where a NaN error counts as infinitely bad."""
    return math.inf if math.isnan(err) else max(worst, err)


def orthonormal_frame(m: rm.MetricSpec, p) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pseudo-orthonormal frame at p by Gram-Schmidt over coordinate vectors.

    Returns (rows, signs): rows[i] holds the frame vector components,
    signs[i] = +-1 its squared norm.  Fails on near-null intermediate
    vectors, which cannot be normalized.
    """
    g = rm.metric_at(m, p)[0].components
    n = m.chart.dim
    rows = np.empty((n, n))
    signs: list[int] = []
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        for i in range(k):
            v = v - signs[i] * float(rows[i] @ g @ v) * rows[i]
        norm2 = float(v @ g @ v)
        if abs(norm2) < FRAME_NORM_FLOOR:
            raise DegenerateMetricError(
                f"frame vector {k} is numerically null (|v|^2 = {norm2:.3e})"
            )
        signs.append(1 if norm2 > 0 else -1)
        rows[k] = v / np.sqrt(abs(norm2))
    return rows, tuple(signs)


def curvature_field(
    conn: GradedConnectionTriple,
    x: GradedVectorField,
    y: GradedVectorField,
    z: GradedVectorField,
) -> GradedVectorField:
    """Curvature operator value R(x, y)z from nested covariant derivatives."""
    a = gd.graded_apply_field(conn, x, gd.graded_apply_field(conn, y, z))
    b = gd.graded_apply_field(conn, y, gd.graded_apply_field(conn, x, z))
    c = gd.graded_apply_field(conn, bracket(x, y), z)
    return a - b - c


def _odd_unit_frame(gm: GradedMetric) -> GradedVectorField:
    """Odd frame element normalized to unit squared norm."""
    zero = ef.constant(gm.chart, 0.0)
    return GradedVectorField((zero,) * gm.chart.dim, ef.exp(-gm.theta))


def frame_graded_ricci(gm: GradedMetric, x: GradedVectorField, y: GradedVectorField, p) -> float:
    """Ricci pairing at p by summing the generic curvature over a frame."""
    conn = gd.levicivita_triple(gm)
    rows, signs = orthonormal_frame(gm.metric, p)
    chart = gm.chart
    frame = [GradedVectorField.of(chart, [float(c) for c in row], 0.0) for row in rows]
    frame.append(_odd_unit_frame(gm))
    pairs = [pairing_field(gm, curvature_field(conn, e, x, y), e) for e in frame]
    jets = ef.eval_jets_batch(pairs, [p], 0)
    return sum(sign * float(jet.value[0]) for sign, jet in zip(signs + (1,), jets))


def frame_graded_scalar(gm: GradedMetric, p) -> float:
    """Scalar curvature at p as the frame trace of the frame-summed Ricci."""
    rows, signs = orthonormal_frame(gm.metric, p)
    chart = gm.chart
    total = 0.0
    for j in range(chart.dim):
        e = GradedVectorField.of(chart, [float(c) for c in rows[j]], 0.0)
        total += signs[j] * frame_graded_ricci(gm, e, e, p)
    xi = _odd_unit_frame(gm)
    total += frame_graded_ricci(gm, xi, xi, p)
    return total


def _coordinate_field(gm: GradedMetric, axis: int) -> GradedVectorField:
    zero = ef.constant(gm.chart, 0.0)
    one = ef.constant(gm.chart, 1.0)
    even = tuple(one if a == axis else zero for a in range(gm.chart.dim))
    return GradedVectorField(even, zero)


def _odd_basis(gm: GradedMetric) -> GradedVectorField:
    zero = ef.constant(gm.chart, 0.0)
    return GradedVectorField((zero,) * gm.chart.dim, ef.constant(gm.chart, 1.0))


def check_koszul_vs_triple(gm: GradedMetric, rng, trials: int = 10) -> CheckResult:
    conn = gd.levicivita_triple(gm)
    worst = 0.0
    for _ in range(trials):
        x = random_graded_field(rng, gm.chart)
        y = random_graded_field(rng, gm.chart)
        z = random_graded_field(rng, gm.chart)
        p = random_interior_point(rng, gm.chart)
        lhs = pairing_field(gm, gd.graded_apply_field(conn, x, y), z)(p)
        rhs = koszul_eval(gm, x, y, z, p)
        worst = _worse(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return CheckResult("koszul_vs_triple", worst, 1e-9)


def check_metric_compatibility(gm: GradedMetric, rng, points: int = 50) -> CheckResult:
    conn = gd.levicivita_triple(gm)
    triples = max(1, points // 10)
    worst = 0.0
    for _ in range(triples):
        x = random_graded_field(rng, gm.chart)
        y = random_graded_field(rng, gm.chart)
        z = random_graded_field(rng, gm.chart)
        lhs = vector_apply(anchor(x), pairing_field(gm, y, z))
        rhs = pairing_field(gm, gd.graded_apply_field(conn, x, y), z)
        rhs2 = pairing_field(gm, y, gd.graded_apply_field(conn, x, z))
        pts = [random_interior_point(rng, gm.chart) for _ in range(points // triples)]
        a, b, c = (jet.value for jet in ef.eval_jets_batch([lhs, rhs, rhs2], pts, 0))
        worst = _worse(worst, float(np.max(np.abs(a - b - c) / (1.0 + np.abs(a)))))
    return CheckResult("metric_compatibility", worst, 1e-9)


def check_torsion_free(gm: GradedMetric, rng, trials: int = 5) -> CheckResult:
    conn = gd.levicivita_triple(gm)
    worst = 0.0
    for _ in range(trials):
        x = random_graded_field(rng, gm.chart)
        y = random_graded_field(rng, gm.chart)
        p = random_interior_point(rng, gm.chart)
        worst = _worse(worst, gd.graded_torsion(conn, x, y, p).max_norm())
    return CheckResult("torsion_free", worst, 1e-10)


def check_ricci_blocks_frame(gm: GradedMetric, sample) -> CheckResult:
    n = gm.chart.dim
    coords = [_coordinate_field(gm, a) for a in range(n)]
    odd = _odd_basis(gm)
    worst = 0.0
    for p in sample:
        closed = gd.graded_ricci_at(gm, p)
        for a in range(n):
            for b in range(a, n):
                got = frame_graded_ricci(gm, coords[a], coords[b], p)
                want = closed.even.components[a, b]
                worst = _worse(worst, abs(got - want) / (1.0 + abs(want)))
            got = frame_graded_ricci(gm, coords[a], odd, p)
            worst = _worse(worst, abs(got - closed.cross[a]))
        got = frame_graded_ricci(gm, odd, odd, p)
        worst = _worse(worst, abs(got - closed.odd) / (1.0 + abs(closed.odd)))
    return CheckResult("ricci_blocks_frame_sum", worst, 1e-9)


def check_scalar_frame(gm: GradedMetric, sample) -> CheckResult:
    worst = 0.0
    for p in sample:
        want = gd.graded_scalar_at(gm, p)
        got = frame_graded_scalar(gm, p)
        worst = _worse(worst, abs(got - want) / (1.0 + abs(want)))
    return CheckResult("scalar_frame_sum", worst, 1e-9)


def check_trace_identities(gm: GradedMetric, rng, sample) -> CheckResult:
    """Same-engine: scalar equals the trace of Ricci, Hessian traces close."""
    f = random_polynomial(rng, gm.chart, degree=3)
    worst = 0.0
    for p in sample:
        scalar = gd.graded_scalar_at(gm, p)
        tr = gd.graded_trace(gm, gd.graded_ricci_at(gm, p))
        worst = _worse(worst, abs(scalar - tr) / (1.0 + abs(scalar)))
        lhs = gd.graded_trace(gm, gd.graded_hessian_at(gm, f, p))
        df, dth = (j.gradient()[:, 0] for j in ef.eval_jets_batch([f, gm.theta], [p], 1))
        ginv = rm.metric_at(gm.metric, p)[1].components
        direct = rm.laplacian_at(gm.metric, f, p) + float(df @ ginv @ dth)
        worst = _worse(worst, abs(lhs - direct) / (1.0 + abs(direct)))
    return CheckResult("trace_identities", worst, 1e-12)


def check_conservation_identity(gm: GradedMetric, sample) -> CheckResult:
    """Stress divergence equals twice the log-weight Laplacian times its slope."""
    worst = 0.0
    for p in sample:
        res = gd.conservation_residual_at(gm, p).components
        dth = ef.eval_jet(gm.theta, p, 1).gradient()
        expect = 2.0 * rm.laplacian_at(gm.metric, gm.theta, p) * dth
        scale = 1.0 + float(np.max(np.abs(expect)))
        worst = _worse(worst, float(np.max(np.abs(res - expect))) / scale)
    return CheckResult("conservation_identity", worst, 1e-9)


def check_equivalence_joint(gm: GradedMetric, sample, residual_tol: float = 1e-9) -> CheckResult:
    """The reduced, Ricci-form and blockwise residuals pass or fail together."""
    mismatches = 0
    for p in sample:
        rep = gd.field_residuals_at(gm, p)
        votes = {
            max(rep.e27, rep.e28) <= residual_tol,
            max(rep.e29, rep.e30) <= residual_tol,
            rep.e44 <= residual_tol,
        }
        if len(votes) != 1:
            mismatches += 1
    return CheckResult("equivalence_joint", float(mismatches), 0.0)


def run_geometry_checks(
    gm: GradedMetric,
    sample=None,
    seed: int = 0,
    residual_tol: float = 1e-9,
    frame_points: int = 2,
) -> list[CheckResult]:
    """All invariant checks on one geometry; frame checks use a sub-sample."""
    rng = np.random.default_rng(seed)
    if sample is None:
        sample = [random_interior_point(rng, gm.chart) for _ in range(5)]
    sample = [gm.chart.require_point(p) for p in sample]
    frame_sample = sample[: max(1, frame_points)]
    results = [
        check_koszul_vs_triple(gm, rng),
        check_metric_compatibility(gm, rng),
        check_torsion_free(gm, rng),
        check_ricci_blocks_frame(gm, frame_sample),
        check_scalar_frame(gm, frame_sample),
        check_trace_identities(gm, rng, sample),
        check_conservation_identity(gm, sample),
    ]
    if gm.chart.dim >= 3:
        results.append(check_equivalence_joint(gm, sample, residual_tol))
    return results
