"""Cross-checks of the extended-metric engine along independent routes.

Each check recomputes a quantity a second way (generic Koszul pairing,
frame-summed curvature, direct divergence identities) and reports the
worst deviation over a sample.  A check's closed-form side is one
``graded.geometry_batch`` over its sample, shared by the checks of a suite.
The Koszul check evaluates its symbolic connection side for all trials in
one pass, each field at its own point, and the Koszul formula on order-1
jets of the fields and the metric in a second pass; that route takes no
symbolic derivative.  The frame route never touches the batch either: it
nests covariant derivatives of the graded coordinate basis into the
pairings <R(E_a, E_b)E_c, E_d> once per metric, evaluates them at all of a
check's points in one pass, and sums them over a pseudo-orthonormal frame
at each point numerically; a suite's two frame checks share that sum.
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
    koszul_values,
    pairing_field,
    vector_apply,
)
from .errors import DegenerateMetricError
from .exprfield import ScalarField
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


def _coordinate_field(gm: GradedMetric, axis: int) -> GradedVectorField:
    zero = ef.constant(gm.chart, 0.0)
    one = ef.constant(gm.chart, 1.0)
    even = tuple(one if a == axis else zero for a in range(gm.chart.dim))
    return GradedVectorField(even, zero)


def _odd_basis(gm: GradedMetric) -> GradedVectorField:
    zero = ef.constant(gm.chart, 0.0)
    return GradedVectorField((zero,) * gm.chart.dim, ef.constant(gm.chart, 1.0))


def _basis_pairings(gm: GradedMetric) -> list[ScalarField]:
    """Pairings <R(E_a, E_b)E_c, E_d> on the graded coordinate basis, built once per metric.

    E is the n coordinate fields, then the odd basis.  Only a < b is built,
    since R(E_b, E_a) = -R(E_a, E_b); the list runs over (a, b) in
    ``np.triu_indices(n + 1, 1)`` order, then c, then d.
    """
    got = gm._cache.get("basis_pairings")
    if got is not None:
        return got
    conn = gd.levicivita_triple(gm)
    basis = [*(_coordinate_field(gm, a) for a in range(gm.chart.dim)), _odd_basis(gm)]
    got = []
    for a, b in zip(*np.triu_indices(len(basis), 1)):
        for c in basis:
            r = curvature_field(conn, basis[a], basis[b], c)
            got.extend(pairing_field(gm, r, d) for d in basis)
    gm._cache["basis_pairings"] = got
    return got


def _frame_sums(gm: GradedMetric, points, fields=()):
    """Frame-summed Ricci on the graded coordinate basis at each point.

    Curvature is tensorial in every slot, so with the frame e = F[e, a] E_a,
    Ric(E_b, E_c) = sum_e s_e F[e, a] F[e, d] <R(E_a, E_b)E_c, E_d>.  The basis
    pairings, theta and ``fields`` go through one order-0 pass and the frame
    sum is numeric.  The frame is ``orthonormal_frame``'s rows, then the odd
    unit exp(-theta) times the odd basis.  Returns ric[p, b, c], the frames
    F[p, e, a], their signs s[p, e], and the values of ``fields`` [field, p].
    """
    pts = gm.chart.require_points(points)
    n = gm.chart.dim
    pairings = _basis_pairings(gm)
    jets = ef.eval_jets_batch([*pairings, gm.theta, *fields], pts, 0)
    values = np.array([jet.coeffs[0] for jet in jets])
    upper = np.triu_indices(n + 1, 1)
    k = values[: len(pairings)].reshape(len(upper[0]), n + 1, n + 1, len(pts))
    kab = np.zeros((n + 1, n + 1, n + 1, n + 1, len(pts)))
    kab[upper] = k
    kab[upper[::-1]] = -k
    frames = np.zeros((len(pts), n + 1, n + 1))
    signs = np.ones((len(pts), n + 1))
    for i, p in enumerate(pts):
        frames[i, :n, :n], signs[i, :n] = orthonormal_frame(gm.metric, p)
    frames[:, n, n] = np.exp(-values[len(pairings)])
    ric = np.einsum("pe,pea,ped,abcdp->pbc", signs, frames, frames, kab)
    return ric, frames, signs, values[len(pairings) + 1 :]


def _frame_scalar(ric: np.ndarray, frames: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Frame trace sum_e s_e Ric(e, e) at each point."""
    return np.einsum("pe,peb,pbc,pec->p", signs, frames, ric, frames)


def frame_graded_ricci(gm: GradedMetric, x: GradedVectorField, y: GradedVectorField, p) -> float:
    """Ricci pairing at p by summing the generic curvature over a frame."""
    ric, _, _, values = _frame_sums(gm, [p], [*x.even, x.odd, *y.even, y.odd])
    xv, yv = values[:, 0].reshape(2, -1)
    return float(xv @ ric[0] @ yv)


def frame_graded_scalar(gm: GradedMetric, p) -> float:
    """Scalar curvature at p as the frame trace of the frame-summed Ricci."""
    return float(_frame_scalar(*_frame_sums(gm, [p])[:3])[0])


def check_koszul_vs_triple(gm: GradedMetric, rng, trials: int = 10) -> CheckResult:
    conn = gd.levicivita_triple(gm)
    triples, pts = [], []
    for _ in range(trials):
        triples.append(tuple(random_graded_field(rng, gm.chart) for _ in range(3)))
        pts.append(random_interior_point(rng, gm.chart))
    # the connection side stays symbolic, one order-0 pass with each field read at its own point
    lhs_fields = [pairing_field(gm, gd.graded_apply_field(conn, x, y), z) for x, y, z in triples]
    lhs = np.diagonal(np.array([jet.value for jet in ef.eval_jets_batch(lhs_fields, pts, 0)]))
    rhs = koszul_values(gm, triples, pts)
    return CheckResult("koszul_vs_triple", _worst(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))), 1e-9)


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
    return _ricci_blocks_frame(_frame_sums(gm, sample)[0], gd.geometry_batch(gm, sample))


def _ricci_blocks_frame(ric: np.ndarray, b: gd.GeometryBatch) -> CheckResult:
    # even block (upper triangle), cross block, odd block, against b's first rows
    k, n = len(ric), b.g.shape[1]
    rows, cols = np.triu_indices(n)
    want = np.column_stack([b.gric_even[:k, rows, cols], np.zeros((k, n)), b.gric_odd[:k]])
    got = np.column_stack([ric[:, rows, cols], ric[:, :n, n], ric[:, n, n]])
    return CheckResult("ricci_blocks_frame_sum", _worst(np.abs(got - want) / (1.0 + np.abs(want))), 1e-9)


def check_scalar_frame(gm: GradedMetric, sample) -> CheckResult:
    return _scalar_frame(_frame_sums(gm, sample)[:3], gd.geometry_batch(gm, sample))


def _scalar_frame(sums, b: gd.GeometryBatch) -> CheckResult:
    got = _frame_scalar(*sums)
    want = b.graded_scalar[: len(got)]
    return CheckResult("scalar_frame_sum", _worst(np.abs(got - want) / (1.0 + np.abs(want))), 1e-9)


def check_trace_identities(gm: GradedMetric, rng, sample) -> CheckResult:
    """Same-engine: scalar equals the trace of Ricci, Hessian traces close."""
    return _trace_identities(gm, rng, gd.geometry_batch(gm, sample))


def _trace_identities(gm: GradedMetric, rng, b: gd.GeometryBatch) -> CheckResult:
    f = random_polynomial(rng, gm.chart, degree=3)
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
    return _conservation_identity(gm, gd.geometry_batch(gm, sample))


def _conservation_identity(gm: GradedMetric, b: gd.GeometryBatch) -> CheckResult:
    res = rm.divergence_sym2_batch(b.ginv, b.gamma, gd.stress_fields(gm), b.points)
    expect = 2.0 * b.lap[:, None] * b.dth
    scale = 1.0 + np.max(np.abs(expect), axis=1)
    return CheckResult("conservation_identity", _worst(np.max(np.abs(res - expect), axis=1) / scale), 1e-9)


def check_equivalence_joint(gm: GradedMetric, sample, residual_tol: float = 1e-9) -> CheckResult:
    """The reduced, Ricci-form and blockwise residuals pass or fail together."""
    return _equivalence_joint(gd.geometry_batch(gm, sample), residual_tol)


def _equivalence_joint(b: gd.GeometryBatch, residual_tol: float) -> CheckResult:
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
    """All invariant checks on one geometry; frame checks use a sub-sample.

    The closed-form sides share one geometry batch over the sample; the
    two frame checks share one frame sum over the sub-sample and read the
    batch's first rows.
    """
    rng = np.random.default_rng(seed)
    if sample is None:
        sample = [random_interior_point(rng, gm.chart) for _ in range(5)]
    sample = [gm.chart.require_point(p) for p in sample]
    frame_sample = sample[: max(1, frame_points)]
    results = [
        check_koszul_vs_triple(gm, rng),
        check_metric_compatibility(gm, rng),
        check_torsion_free(gm, rng),
    ]
    b = gd.geometry_batch(gm, sample)
    sums = _frame_sums(gm, frame_sample)[:3]
    results += [
        _ricci_blocks_frame(sums[0], b),
        _scalar_frame(sums, b),
        _trace_identities(gm, rng, b),
        _conservation_identity(gm, b),
    ]
    if gm.chart.dim >= 3:
        results.append(_equivalence_joint(b, residual_tol))
    return results
