"""Cross-checks of the extended-metric engine along independent routes.

Each check recomputes a quantity a second way (generic Koszul pairing,
frame-summed curvature, direct divergence identities) and reports the
worst deviation over a sample.  A check's closed-form side is one
``graded.geometry_batch`` over its sample.  The frame route never touches
it: at each point it builds one pseudo-orthonormal frame, nests covariant
derivatives of vector fields and pairs them against the frame in one pass.
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


def _worst(*errors) -> float:
    """The largest entry of arrays of errors, where a NaN counts as infinitely bad."""
    worst = float(np.max([np.max(e) for e in errors]))
    return math.inf if math.isnan(worst) else worst


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


def _frame_ricci(gm: GradedMetric, p, pairs) -> tuple[list[float], tuple[int, ...]]:
    """Ricci pairings at p of the pairs ``pairs(frame)``, each summed over one frame.

    The frame is built once: its even vectors, then the odd unit.  All pairing
    fields go through one jet pass.  Returns the sums and the frame's signs.
    """
    conn = gd.levicivita_triple(gm)
    rows, signs = orthonormal_frame(gm.metric, p)
    frame = [GradedVectorField.of(gm.chart, [float(c) for c in row], 0.0) for row in rows]
    frame.append(_odd_unit_frame(gm))
    signs += (1,)
    fields = [pairing_field(gm, curvature_field(conn, e, x, y), e) for x, y in pairs(frame) for e in frame]
    values = [float(jet.value[0]) for jet in ef.eval_jets_batch(fields, [p], 0)]
    sums = [sum(sign * v for sign, v in zip(signs, values[k:])) for k in range(0, len(values), len(frame))]
    return sums, signs


def frame_graded_ricci(gm: GradedMetric, x: GradedVectorField, y: GradedVectorField, p) -> float:
    """Ricci pairing at p by summing the generic curvature over a frame."""
    return _frame_ricci(gm, p, lambda frame: [(x, y)])[0][0]


def frame_graded_scalar(gm: GradedMetric, p) -> float:
    """Scalar curvature at p as the frame trace of the frame-summed Ricci."""
    sums, signs = _frame_ricci(gm, p, lambda frame: [(e, e) for e in frame])
    return sum(sign * ricci for sign, ricci in zip(signs, sums))


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
    errors = []
    for _ in range(trials):
        x = random_graded_field(rng, gm.chart)
        y = random_graded_field(rng, gm.chart)
        z = random_graded_field(rng, gm.chart)
        p = random_interior_point(rng, gm.chart)
        lhs = pairing_field(gm, gd.graded_apply_field(conn, x, y), z)(p)
        rhs = koszul_eval(gm, x, y, z, p)
        errors.append(abs(lhs - rhs) / (1.0 + abs(rhs)))
    return CheckResult("koszul_vs_triple", _worst(errors), 1e-9)


def check_metric_compatibility(gm: GradedMetric, rng, points: int = 50) -> CheckResult:
    conn = gd.levicivita_triple(gm)
    triples = max(1, points // 10)
    errors = []
    for _ in range(triples):
        x = random_graded_field(rng, gm.chart)
        y = random_graded_field(rng, gm.chart)
        z = random_graded_field(rng, gm.chart)
        lhs = vector_apply(anchor(x), pairing_field(gm, y, z))
        rhs = pairing_field(gm, gd.graded_apply_field(conn, x, y), z)
        rhs2 = pairing_field(gm, y, gd.graded_apply_field(conn, x, z))
        pts = [random_interior_point(rng, gm.chart) for _ in range(points // triples)]
        a, b, c = (jet.value for jet in ef.eval_jets_batch([lhs, rhs, rhs2], pts, 0))
        errors.append(np.abs(a - b - c) / (1.0 + np.abs(a)))
    return CheckResult("metric_compatibility", _worst(*errors), 1e-9)


def check_torsion_free(gm: GradedMetric, rng, trials: int = 5) -> CheckResult:
    conn = gd.levicivita_triple(gm)
    errors = []
    for _ in range(trials):
        x = random_graded_field(rng, gm.chart)
        y = random_graded_field(rng, gm.chart)
        p = random_interior_point(rng, gm.chart)
        errors.append(gd.graded_torsion(conn, x, y, p).max_norm())
    return CheckResult("torsion_free", _worst(errors), 1e-10)


def check_ricci_blocks_frame(gm: GradedMetric, sample) -> CheckResult:
    n = gm.chart.dim
    coords = [_coordinate_field(gm, a) for a in range(n)]
    odd = _odd_basis(gm)
    # even block (upper triangle), cross block, odd block
    pairs = [(coords[i], coords[j]) for i in range(n) for j in range(i, n)]
    pairs += [(x, odd) for x in coords] + [(odd, odd)]
    b = gd.geometry_batch(gm, sample)
    rows, cols = np.triu_indices(n)
    want = np.column_stack([b.gric_even[:, rows, cols], np.zeros((len(b.points), n)), b.gric_odd])
    got = np.array([_frame_ricci(gm, p, lambda frame: pairs)[0] for p in sample])
    return CheckResult("ricci_blocks_frame_sum", _worst(np.abs(got - want) / (1.0 + np.abs(want))), 1e-9)


def check_scalar_frame(gm: GradedMetric, sample) -> CheckResult:
    want = gd.geometry_batch(gm, sample).graded_scalar
    got = np.array([frame_graded_scalar(gm, p) for p in sample])
    return CheckResult("scalar_frame_sum", _worst(np.abs(got - want) / (1.0 + np.abs(want))), 1e-9)


def check_trace_identities(gm: GradedMetric, rng, sample) -> CheckResult:
    """Same-engine: scalar equals the trace of Ricci, Hessian traces close."""
    f = random_polynomial(rng, gm.chart, degree=3)
    b = gd.geometry_batch(gm, sample)
    tr = np.einsum("pij,pij->p", b.ginv, b.gric_even) + b.gric_odd / b.weight
    jet = ef.eval_jet_batch(f, b.points, 2)
    lap = np.einsum("pij,pij->p", b.ginv, rm.hessian_batch(b.gamma, jet))
    slope = (jet.gradient().T[:, None, :] @ b.ginv @ b.dth[:, :, None])[:, 0, 0]
    # graded Hessian trace: odd block weight * slope, traced against 1/weight
    lhs, direct = lap + b.weight * slope / b.weight, lap + slope
    scalar = b.graded_scalar
    errors = np.abs(scalar - tr) / (1.0 + np.abs(scalar)), np.abs(lhs - direct) / (1.0 + np.abs(direct))
    return CheckResult("trace_identities", _worst(*errors), 1e-12)


def check_conservation_identity(gm: GradedMetric, sample) -> CheckResult:
    """Stress divergence equals twice the log-weight Laplacian times its slope."""
    b = gd.geometry_batch(gm, sample)
    res = rm.divergence_sym2_batch(b.ginv, b.gamma, gd.stress_fields(gm), b.points)
    expect = 2.0 * b.lap[:, None] * b.dth
    scale = 1.0 + np.max(np.abs(expect), axis=1)
    return CheckResult("conservation_identity", _worst(np.max(np.abs(res - expect), axis=1) / scale), 1e-9)


def check_equivalence_joint(gm: GradedMetric, sample, residual_tol: float = 1e-9) -> CheckResult:
    """The reduced, Ricci-form and blockwise residuals pass or fail together."""
    b = gd.geometry_batch(gm, sample)
    reduced, ricci_form = np.maximum(b.e27, b.e28), np.maximum(b.e29, b.e28)  # e30 is e28
    votes = np.stack([reduced, ricci_form, b.e44]) <= residual_tol
    mismatches = np.count_nonzero(votes.any(axis=0) & ~votes.all(axis=0))
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
