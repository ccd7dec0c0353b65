"""Cross-checks of the extended-metric engine along independent routes.

Each check recomputes a quantity a second way (generic Koszul pairing,
frame-summed curvature, direct divergence identities) and reports the
worst deviation over a sample.  A check's closed-form side is one
``graded.geometry_batch`` over its sample, shared by the checks of a suite.
The Koszul, compatibility and torsion checks read the connection off the
fields C_ab = nabla_{E_a} E_b on the graded coordinate basis, built once
per metric, as nabla_x y = x^m d_m y + x^a y^b C_ab.  Their random fields
are degree-1 polynomials drawn as affine coefficient arrays, a group's
coefficients in one uniform draw and then its axes in one integer draw,
and numpy computes their values and gradients exactly; C and the extended
metric come from one order-1 jet pass per suite, at the union of the
checks' points and the frame points, and each check reads its own columns.
The Koszul formula reads only the extended metric's values and gradients
from that pass, never C, and takes no symbolic derivative: its input is
the metric, not the connection it checks.  The frame route never touches
the batch either: it reads the pairings
<R(E_a, E_b)E_c, E_d> off the values and gradients of C and the metric and
sums them over a pseudo-orthonormal frame at each point numerically, the
frame built from the same pass's g; a suite's two frame checks share that
sum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import graded as gd
from . import riemann as rm
from .algebroid import GradedVectorField, _along, _koszul_from_jets, _order_one_pass, _pair
from .errors import DegenerateMetricError
from .graded import GradedMetric
from .randgen import affine_jets, random_affine_fields, random_interior_points

__all__ = [
    "CheckResult",
    "run_geometry_checks",
]

FRAME_NORM_FLOOR = 1e-8
FRAME_POINTS = 2  # the leading sample points the frame checks sum over
# the draw sizes of the connection checks, alone and in run_geometry_checks
KOSZUL_TRIALS = 10
COMPATIBILITY_POINTS = 50
TORSION_TRIALS = 5
RESIDUAL_TOL = 1e-9  # the equivalence check's default residual tolerance


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
        return {**asdict(self), "passed": self.passed}


def _worst(*errors) -> float:
    """The largest entry of arrays of errors, where a NaN counts as infinitely bad."""
    worst = float(np.max([np.max(e) for e in errors]))
    return math.inf if math.isnan(worst) else worst


def _gram_schmidt(g: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pseudo-orthonormal frame of the metric values g[i, j] at one point.

    Gram-Schmidt over the coordinate vectors.  Returns (rows, signs):
    rows[i] holds the frame vector components, signs[i] = +-1 its squared
    norm.  Fails on near-null intermediate vectors, which cannot be
    normalized.
    """
    n = len(g)
    rows = np.empty((n, n))
    signs: list[int] = []
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        for i in range(k):
            v = v - signs[i] * float(np.einsum("i,ij,j->", rows[i], g, v)) * rows[i]
        norm2 = float(np.einsum("i,ij,j->", v, g, v))
        if abs(norm2) < FRAME_NORM_FLOOR:
            raise DegenerateMetricError(
                f"frame vector {k} is numerically null (|v|^2 = {norm2:.3e})"
            )
        signs.append(1 if norm2 > 0 else -1)
        rows[k] = v / np.sqrt(abs(norm2))
    return rows, tuple(signs)


def _basis(gm: GradedMetric) -> list[GradedVectorField]:
    """The graded coordinate basis E: the n coordinate fields, then the odd basis."""
    n = gm.chart.dim
    return [GradedVectorField.of(gm.chart, row[:n], row[n]) for row in np.eye(n + 1).tolist()]


def _connection_basis(gm: GradedMetric) -> list[GradedVectorField]:
    """C_ab = nabla_{E_a} E_b for a, then b, built once per metric."""
    got = gm._cache.get("connection_basis")
    if got is None:
        conn, basis = gd.levicivita_triple(gm), _basis(gm)
        got = [gd.graded_apply_field(conn, a, b) for a in basis for b in basis]
        gm._cache["connection_basis"] = got
    return got


def _draw(gm: GradedMetric, rng, groups: int, count: int, points: int):
    """``groups`` times: ``count`` random fields, then ``points`` points that read them.

    Returns the fields as affine arrays (bias, coef, axis), each instance's
    fields slots[t, s] and its point pts[t].
    """
    drawn, slots, pts = [], [], []
    for k in range(groups):
        drawn.append(random_affine_fields(rng, gm.chart, count))
        slots += [list(range(k * count, (k + 1) * count))] * points
        pts.append(random_interior_points(rng, gm.chart, points))
    fields = tuple(np.concatenate(a) for a in zip(*drawn))
    return fields, np.array(slots), np.concatenate(pts)  # inside the box, as drawn


def _table_jets(gm: GradedMetric, fields, pts: np.ndarray):
    """Order-1 jets of ``fields``, C and the extended metric at pts, from one pass.

    Returns the values [field, t] and gradients [field, m, t] of ``fields``,
    then c[a, b, e, t], dc[a, b, e, m, t], g[a, b, t] and dg[a, b, m, t],
    each odd index last.  DomainError names a non-finite g_ij or weight
    (_order_one_pass), then a non-finite entry of c or dc as the connection table.
    ``fields`` are gm's own, so gm keeps the pass's Program.
    """
    n, t = gm.chart.dim, len(pts)
    comps = [c for v in _connection_basis(gm) for c in (*v.even, v.odd)]
    k = len(fields)
    val, grad, g, dg = _order_one_pass(gm, [*fields, *comps], pts, gm._cache)
    c, dc = val[k:].reshape(n + 1, n + 1, n + 1, t), grad[k:].reshape(n + 1, n + 1, n + 1, n, t)
    rm.check_finite([("connection table", c), ("connection table", dc)], pts)
    return val[:k], grad[:k], c, dc, g, dg


def _columns(jets, edges) -> list:
    """Each run of ``edges`` columns of a pass, laid out as a pass at those points alone."""
    return [[np.ascontiguousarray(a[..., lo:hi]) for a in jets] for lo, hi in zip(edges, edges[1:])]


def _instance_jets(draw) -> tuple[np.ndarray, np.ndarray]:
    """Values v[slot, e, t] and gradients dv[slot, e, m, t] of instance t's fields at its own point."""
    fields, slots, pts = draw
    val, grad = affine_jets(*fields, pts)
    # [t, slot, e(, m)], then the instance axis last
    at = np.arange(len(pts))[:, None]
    return np.moveaxis(val[slots, :, at], 0, -1), np.moveaxis(grad[slots, :, :, at], 0, -1)


def _nabla(c: np.ndarray, u: np.ndarray, w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """nabla_u w = u^m d_m w^e + u^a w^b C_ab^e; the odd basis differentiates no ordinary function."""
    return _along(u, dw) + np.einsum("at,bt,abet->et", u, w, c)


def _basis_curvature(c: np.ndarray, dc: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pairings <R(E_a, E_b)E_c, E_d> on the graded coordinate basis, k[a, b, c, d, t].

    The basis brackets vanish, so R(E_a, E_b)E_c = nabla_{E_a} C_bc -
    nabla_{E_b} C_ac, where nabla_{E_a} C_bc = d_a C_bc^e E_e + C_bc^f C_af,
    from the values and gradients of C and the extended metric of one pass.
    """
    q = np.einsum("bcft,afet->abcet", c, c)
    # d_a C_bc^e for even a; the odd basis differentiates no ordinary function
    q[: dc.shape[3]] += np.moveaxis(dc, 3, 0)
    return np.einsum("abcet,edt->abcdt", q - q.swapaxes(0, 1), g)


def _frame_ricci(jets, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame-summed Ricci on the graded coordinate basis at each point of a pass at pts.

    Curvature is tensorial in every slot, so with the frame e = F[e, a] E_a,
    Ric(E_b, E_c) = sum_e s_e F[e, a] F[e, d] <R(E_a, E_b)E_c, E_d>, summed
    numerically.  The frame is ``_gram_schmidt``'s rows of the pass's
    g_ij, then the odd unit exp(-theta) times the odd basis; theta is the
    pass's first field.  Returns ric[p, b, c], the frames F[p, e, a] and
    their signs s[p, e]; DomainError naming the basis curvature or the
    frame-summed Ricci where not finite.
    """
    values, _, c, dc, g, _ = jets
    n, npts = dc.shape[3], dc.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        kab = _basis_curvature(c, dc, g)
    frames = np.zeros((npts, n + 1, n + 1))
    signs = np.ones((npts, n + 1))
    # each point's g_ij laid out as metric_at lays it out
    for i, gp in enumerate(np.moveaxis(g[:n, :n], -1, 0).copy()):
        frames[i, :n, :n], signs[i, :n] = _gram_schmidt(gp)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        frames[:, n, n] = np.exp(-values[0])
        ric = np.einsum("pe,pea,ped,abcdp->pbc", signs, frames, frames, kab)
    rm.check_finite([("basis curvature", kab), ("frame-summed Ricci", np.moveaxis(ric, 0, -1))], pts)
    return ric, frames, signs


def _frame_sums(gm: GradedMetric, points):
    """``_frame_ricci`` from a pass of its own at points."""
    pts = np.asarray(points, dtype=float)  # checked by the pass
    return _frame_ricci(_table_jets(gm, [gm.theta], pts), pts)


def _frame_scalar(ric: np.ndarray, frames: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Frame trace sum_e s_e Ric(e, e) at each point."""
    return np.einsum("pe,peb,pbc,pec->p", signs, frames, ric, frames)


def _alone(check, gm: GradedMetric, draw) -> CheckResult:
    """A connection check on a table pass of its own at the draw's points."""
    return check(gm, draw, _table_jets(gm, (), draw[2]))


def check_koszul_vs_triple(gm: GradedMetric, rng, trials: int = KOSZUL_TRIALS) -> CheckResult:
    return _alone(_koszul, gm, _draw(gm, rng, trials, 3, 1))


def _koszul(gm: GradedMetric, draw, jets) -> CheckResult:
    _, _, c, _, g, dg = jets
    v, dv = _instance_jets(draw)
    (x, y, z), (_, dy, _) = v, dv
    lhs = _pair(g, _nabla(c, x, y, dy), z)
    rhs = _koszul_from_jets(g, dg, v, dv)
    return CheckResult("koszul_vs_triple", _worst(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))), 1e-9)


def check_metric_compatibility(gm: GradedMetric, rng, points: int = COMPATIBILITY_POINTS) -> CheckResult:
    return _alone(_compatibility, gm, _compatibility_draw(gm, rng, points))


def _compatibility_draw(gm: GradedMetric, rng, points: int):
    triples = max(1, points // 10)
    return _draw(gm, rng, triples, 3, points // triples)


def _compatibility(gm: GradedMetric, draw, jets) -> CheckResult:
    _, _, c, _, g, dg = jets
    (x, y, z), (_, dy, dz) = _instance_jets(draw)
    # x<y, z> = x^m d_m <y, z>, against <nabla_x y, z> + <y, nabla_x z>
    act = np.einsum("mt,abmt,at,bt->t", x[: gm.chart.dim], dg, y, z)
    act = act + _pair(g, _along(x, dy), z) + _pair(g, y, _along(x, dz))
    err = act - _pair(g, _nabla(c, x, y, dy), z) - _pair(g, y, _nabla(c, x, z, dz))
    return CheckResult("metric_compatibility", _worst(np.abs(err) / (1.0 + np.abs(act))), 1e-9)


def check_torsion_free(gm: GradedMetric, rng) -> CheckResult:
    return _alone(_torsion, gm, _draw(gm, rng, TORSION_TRIALS, 2, 1))


def _torsion(gm: GradedMetric, draw, jets) -> CheckResult:
    c = jets[2]
    (x, y), (dx, dy) = _instance_jets(draw)
    # nabla_x y - nabla_y x - [x, y], the super bracket read off the gradients
    t = _nabla(c, x, y, dy) - _nabla(c, y, x, dx) - (_along(x, dy) - _along(y, dx))
    return CheckResult("torsion_free", _worst(np.max(np.abs(t), axis=0)), 1e-10)


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
    return _scalar_frame(_frame_sums(gm, sample), gd.geometry_batch(gm, sample))


def _scalar_frame(sums, b: gd.GeometryBatch) -> CheckResult:
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        got = _frame_scalar(*sums)
    rm.check_finite([("frame-summed scalar", got)], b.points[: len(got)])
    want = b.graded_scalar[: len(got)]
    return CheckResult("scalar_frame_sum", _worst(np.abs(got - want) / (1.0 + np.abs(want))), 1e-9)


def check_trace_identities(gm: GradedMetric, sample) -> CheckResult:
    """Same-engine: the graded scalar equals the trace of the graded Ricci blocks.
    R and Ricci come from one trace core call (R = g^jk z_jk, Ricci the
    symmetric part of z), so this checks the assembly around them; the frame
    sums are the independent check of both."""
    return _trace_identities(gd.geometry_batch(gm, sample))


def _trace_identities(b: gd.GeometryBatch) -> CheckResult:
    tr = np.einsum("pij,pij->p", b.ginv, b.gric_even) + b.gric_odd / b.weight
    scalar = b.graded_scalar
    return CheckResult("trace_identities", _worst(np.abs(scalar - tr) / (1.0 + np.abs(scalar))), 1e-12)


def check_conservation_identity(gm: GradedMetric, sample) -> CheckResult:
    """Stress divergence equals twice the log-weight Laplacian times its slope."""
    return _conservation_identity(gm, gd.geometry_batch(gm, sample))


def _conservation_identity(gm: GradedMetric, b: gd.GeometryBatch) -> CheckResult:
    res = rm.divergence_sym2_batch(b.ginv, b.gamma, gd.stress_fields(gm), b.points, gm._cache)
    expect = 2.0 * b.lap[:, None] * b.dth
    scale = 1.0 + np.max(np.abs(expect), axis=1)
    return CheckResult("conservation_identity", _worst(np.max(np.abs(res - expect), axis=1) / scale), 1e-9)


def check_equivalence_joint(gm: GradedMetric, sample) -> CheckResult:
    """The reduced, Ricci-form and blockwise residuals pass or fail together."""
    return _equivalence_joint(gd.geometry_batch(gm, sample), RESIDUAL_TOL)


def _equivalence_joint(b: gd.GeometryBatch, residual_tol: float) -> CheckResult:
    reduced, ricci_form = np.maximum(b.e27, b.e28), np.maximum(b.e29, b.e28)  # e30 is e28
    votes = np.stack([reduced, ricci_form, b.e44]) <= residual_tol
    mismatches = np.count_nonzero(votes.any(axis=0) & ~votes.all(axis=0))
    return CheckResult("equivalence_joint", float(mismatches), 0.0)


def run_geometry_checks(
    gm: GradedMetric,
    sample=None,
    seed: int = 0,
    residual_tol: float = RESIDUAL_TOL,
) -> list[CheckResult]:
    """All invariant checks on one geometry; frame checks use the first FRAME_POINTS points.

    The connection checks draw their fields and points in the order of the
    public checks called one after another, with their default sizes; one
    table pass at the frame points, then at all their points, serves the
    frame sum and them, each reading its own columns, so a table error
    names a sample point where one is bad.  The closed-form sides share one
    geometry batch over the sample; the two frame checks share one frame sum
    over the sub-sample and read the batch's first rows.
    """
    rng = np.random.default_rng(seed)
    if sample is None:
        sample = random_interior_points(rng, gm.chart, 5)
    sample = np.asarray(sample, dtype=float)  # checked by the batch's sweep
    b = gd.geometry_batch(gm, sample)  # first, so that the engine's errors come before its oracles'
    checks = (_koszul, _compatibility, _torsion)
    # the draws of check_koszul_vs_triple, check_metric_compatibility and check_torsion_free
    draws = [
        _draw(gm, rng, KOSZUL_TRIALS, 3, 1),
        _compatibility_draw(gm, rng, COMPATIBILITY_POINTS),
        _draw(gm, rng, TORSION_TRIALS, 2, 1),
    ]
    frame = sample[:FRAME_POINTS]
    parts = [frame, *(draw[2] for draw in draws)]
    edges = np.cumsum([0, *map(len, parts)])
    frame_jets, *cols = _columns(_table_jets(gm, [gm.theta], np.concatenate(parts)), edges)
    results = [check(gm, draw, jets) for check, draw, jets in zip(checks, draws, cols)]
    sums = _frame_ricci(frame_jets, frame)
    results += [
        _ricci_blocks_frame(sums[0], b),
        _scalar_frame(sums, b),
        _trace_identities(b),
        _conservation_identity(gm, b),
    ]
    if gm.chart.dim >= 3:
        results.append(_equivalence_joint(b, residual_tol))
    return results
