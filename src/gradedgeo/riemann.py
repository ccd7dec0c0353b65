"""Semi-Riemannian calculus over point arrays: curvature, derivative operators, divergences.

All derivative information flows through the jet engine, so quantities that
need k metric derivatives request order-k jets of the component fields, in
one sweep over an array of points.  The ``*_at`` functions are views of a
batch of one point.
Tensor fields passed to the divergence operators are arrays of ScalarField,
which keeps their partials on the same exact path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprfield as ef
from .errors import DegenerateMetricError, DomainError
from .exprfield import ChartSpec, ScalarField

DEGENERACY_THRESHOLD = 1e-10
CHUNK_DOUBLES = 2**16  # per n**4 point-last array in one assembly chunk


@dataclass(frozen=True, eq=False)
class TensorValue:
    """Components of a tensor at one point, with index variances ('u' up, 'd' down)."""

    valence: tuple[str, ...]
    components: np.ndarray
    base_point: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "valence", tuple(self.valence))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))
        object.__setattr__(self, "base_point", tuple(float(x) for x in self.base_point))
        if any(v not in ("u", "d") for v in self.valence):
            raise ValueError(f"valence entries must be 'u' or 'd', got {self.valence}")
        if self.components.ndim != len(self.valence):
            raise ValueError("components rank does not match valence")

    @property
    def rank(self) -> int:
        return len(self.valence)

    @property
    def dim(self) -> int:
        return 0 if self.rank == 0 else int(self.components.shape[0])


class MetricSpec:
    """Symmetric metric field on a chart; only the upper triangle is stored.

    Immutable by convention; symbolic inverse and Christoffel fields are
    built lazily and cached.
    """

    def __init__(self, chart: ChartSpec, components):
        self.chart = chart
        n = chart.dim
        rows = list(components)
        if len(rows) != n or any(len(list(r)) != n for r in rows):
            raise ValueError(f"metric needs a {n}x{n} component matrix")
        upper: dict[tuple[int, int], ScalarField] = {}
        for i in range(n):
            row = list(rows[i])
            for j in range(i, n):
                upper[(i, j)] = ScalarField.of(chart, row[j])
        for i in range(n):
            row = list(rows[i])
            for j in range(i):
                low = ScalarField.of(chart, row[j])
                if low.expr != upper[(j, i)].expr:
                    raise ValueError(f"metric components ({i},{j}) and ({j},{i}) differ")
        self._upper = upper
        self._cache: dict[str, object] = {}

    @classmethod
    def diagonal(cls, chart: ChartSpec, entries) -> "MetricSpec":
        n = chart.dim
        entries = list(entries)
        if len(entries) != n:
            raise ValueError("need one diagonal entry per coordinate")
        zero = ef.constant(chart, 0.0)
        rows = [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
        return cls(chart, rows)

    def component(self, i: int, j: int) -> ScalarField:
        if i > j:
            i, j = j, i
        return self._upper[(i, j)]

    def component_fields(self) -> list[list[ScalarField]]:
        n = self.chart.dim
        return [[self.component(i, j) for j in range(n)] for i in range(n)]

    def det_field(self) -> ScalarField:
        got = self._cache.get("det")
        if got is None:
            got = _det_field_matrix(self.component_fields(), self.chart)
            self._cache["det"] = got
        return got

    def inverse_fields(self) -> list[list[ScalarField]]:
        """Symbolic inverse metric by cofactor expansion over the determinant."""
        got = self._cache.get("inv")
        if got is None:
            n = self.chart.dim
            g = self.component_fields()
            det = self.det_field()
            zero = ef.constant(self.chart, 0.0)
            inv = [[zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    minor = [
                        [g[r][c] for c in range(n) if c != j]
                        for r in range(n)
                        if r != i
                    ]
                    cof = _det_field_matrix(minor, self.chart)
                    if (i + j) % 2:
                        cof = -cof
                    # div_expr never folds a zero numerator over a field divisor
                    entry = zero if cof.is_zero else cof / det
                    inv[i][j] = entry
                    inv[j][i] = entry
            got = inv
            self._cache["inv"] = got
        return got

    def christoffel_fields(self) -> list[list[list[ScalarField]]]:
        """Gamma^k_ij as symbolic fields (k, i, j), built from d() and the inverse."""
        got = self._cache.get("gamma")
        if got is None:
            n = self.chart.dim
            g = self.component_fields()
            ginv = self.inverse_fields()
            zero = ef.constant(self.chart, 0.0)
            dg = [[[g[i][j].d(k) for k in range(n)] for j in range(n)] for i in range(n)]
            gamma = []
            for k in range(n):
                plane = []
                for i in range(n):
                    row = []
                    for j in range(n):
                        acc = zero
                        for l in range(n):
                            acc = acc + ginv[k][l] * (dg[i][l][j] + dg[j][l][i] - dg[i][j][l])
                        row.append(0.5 * acc)
                    plane.append(row)
                gamma.append(plane)
            got = gamma
            self._cache["gamma"] = got
        return got


def _det_field_matrix(rows: list[list[ScalarField]], chart: ChartSpec) -> ScalarField:
    n = len(rows)
    if n == 0:
        return ef.constant(chart, 1.0)
    if n == 1:
        return rows[0][0]
    acc = ef.constant(chart, 0.0)
    for j in range(n):
        if rows[0][j].is_zero:  # skips the whole expansion of its minor
            continue
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = rows[0][j] * _det_field_matrix(minor, chart)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


# Each contraction below is one einsum over point-last operands: einsum adds the summed
# indices in order from +0.0, point axis innermost, as its operands' strides direct.
def _christoffel_core(ginv: np.ndarray, dg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel assembly over point-last arrays: ginv[k,l,p], dg[i,j,k,p] = d_k g_ij."""
    # S[l,i,j] = d_j g_il + d_i g_jl - d_l g_ij
    s = dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg.transpose(2, 0, 1, 3)
    return s, 0.5 * np.einsum("klp,lijp->kijp", ginv, s)


def _derivative_pieces(ginv: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ds[l,i,j,m] = d_m S[l,i,j] and dginv[i,j,m] = d_m g^ij, point-last, from
    ddg[i,j,k,m,p] = d_k d_m g_ij: both cores differentiate Gamma from these."""
    ds = ddg.transpose(1, 0, 2, 3, 4) + ddg.transpose(1, 2, 0, 3, 4)
    ds -= ddg.transpose(2, 0, 1, 3, 4)
    # -(g^ia d_m g_ab) g^bj, summed over a (outer) then b (inner)
    dginv = np.einsum("iap,abmp,bjp->ijmp", ginv, dg, ginv)
    return ds, np.negative(dginv, out=dginv)


def _riemann_core(
    ginv: np.ndarray, dg: np.ndarray, s: np.ndarray, gamma: np.ndarray, ddg: np.ndarray
) -> np.ndarray:
    """Point-last curvature R^l_ijk from the Christoffel pieces and ddg[i,j,k,m,p] = d_k d_m g_ij."""
    ds, dginv = _derivative_pieces(ginv, dg, ddg)
    # dgamma[m,k,i,j] = d_m Gamma^k_ij
    dgamma = np.einsum("klmp,lijp->mkijp", dginv, s)
    dgamma += np.einsum("klp,lijmp->mkijp", ginv, ds)
    dgamma *= 0.5
    # gg[l,i,j,k] = Gamma^l_im Gamma^m_jk; the second product is its (i, j) transpose
    gg = np.einsum("limp,mjkp->lijkp", gamma, gamma)
    riem = dgamma.transpose(1, 0, 2, 3, 4) - dgamma.transpose(1, 2, 0, 3, 4)
    riem += gg
    riem -= gg.transpose(0, 2, 1, 3, 4)
    return riem


def _ricci_core(
    ginv: np.ndarray, dg: np.ndarray, s: np.ndarray, gamma: np.ndarray, ddg: np.ndarray
) -> np.ndarray:
    """Point-last Ricci R^l_ljk, taking _riemann_core's arguments and no n**4 curvature.

    Each R^l_ljk is formed as _riemann_core forms it, from the same products
    summed in the same order, but only the entries of d Gamma and Gamma Gamma
    on that trace are built; the sum over l then runs from +0.0, as
    ``einsum("lljk->jk")`` adds.
    """
    ds, dginv = _derivative_pieces(ginv, dg, ddg)
    # [l,j,k] = d_l Gamma^l_jk - d_j Gamma^l_lk + Gamma^l_lm Gamma^m_jk - Gamma^l_jm Gamma^m_lk, in place
    ric = np.einsum("lalp,aijp->lijp", dginv, s)
    ric += np.einsum("klp,lijkp->kijp", ginv, ds)
    ric *= 0.5
    dgamma_j = np.einsum("lajp,alkp->ljkp", dginv, s)
    dgamma_j += np.einsum("lap,alkjp->ljkp", ginv, ds)
    dgamma_j *= 0.5
    ric -= dgamma_j
    ric += np.einsum("llap,aijp->lijp", gamma, gamma)
    ric -= np.einsum("ljap,alkp->ljkp", gamma, gamma)
    return np.add.reduce(ric, axis=0, initial=0.0)


def check_finite(named_values, pts: np.ndarray) -> None:
    """Fail closed on a non-finite value, naming its field and the first bad point.

    ``named_values`` pairs a field name with an array over ``pts`` whose last
    axis is the point axis, such as a batched jet's coefficients.
    """
    if all(np.isfinite(a).all() for _, a in named_values):
        return
    npts = len(pts)
    bad = np.stack([~np.isfinite(a).reshape(-1, npts).all(axis=0) for _, a in named_values])
    k = int(np.argmax(bad.any(axis=0)))
    name = named_values[int(np.argmax(bad[:, k]))][0]
    raise DomainError(f"non-finite value of {name} at point {tuple(pts[k].tolist())}")


def _metric_jets(m: MetricSpec, pts: np.ndarray, order: int, extra=()) -> list:
    """Jets of the metric's upper triangle, row by row, then of the extra fields, in one sweep.

    A subtree they share is evaluated once; the extra fields' errors still
    come after the metric's, its assembly's included.  The sweep validates
    the points against the chart's box, so its callers do not.
    """
    try:
        return ef.eval_jets_batch([*m._upper.values(), *extra], pts, order)
    except DomainError:
        if extra:
            # raise what the metric raises alone, as when the extra fields had a sweep of their own
            _metric_tensors(pts, _metric_jets(m, pts, order), order)
        raise


def _metric_tensors(pts: np.ndarray, jets, order: int, ricci: bool = False) -> tuple[list, np.ndarray]:
    """[g, ginv], then Gamma (order >= 1) and Riemann (order 2), over points; then det g.

    The one place where metric jets become tensors: ``jets`` are the jets of
    the upper triangle over ``pts``, as _metric_jets orders them, and every
    array returned has a leading point axis.  Gamma and Riemann are assembled
    over CHUNK_DOUBLES // n**4 points at a time.  The derivatives dg and ddg
    are filled per chunk, point-last, from the jets' coefficients, into one
    chunk-sized buffer each, so they and the cores' einsum results (at most
    n**4 per point) stay a few MB at any point count.  With ``ricci``, the
    Ricci-only core builds R^l_ljk in Riemann's place.  A non-finite metric
    coefficient, or a Gamma or curvature entry that overflows in the cores,
    raises DomainError naming it and the first bad point.
    """
    npts, n = pts.shape
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    space = jets[0].space
    g = np.empty((npts, n, n))
    for (i, j), jet in zip(upper, jets):
        g[:, i, j] = g[:, j, i] = jet.coeffs[0]
    # the d_k d_k g_ij that Jet.hessian() doubles: 2c is finite exactly where |c| <= DBL_MAX/2
    diag, half_max = space._hess_pos.diagonal() if order >= 2 else [], np.finfo(float).max / 2
    distinct = {id(jet): jet.coeffs for jet in jets}.values()
    if not all(np.isfinite(c).all() and (np.abs(c[diag]) <= half_max).all() for c in distinct):
        named = [(f"g_{i}_{j}", jet.coeffs) for (i, j), jet in zip(upper, jets)]  # to word the error
        with np.errstate(over="ignore"):
            named += [(f"g_{i}_{j}", 2.0 * jet.coeffs[diag]) for (i, j), jet in zip(upper, jets)]
        check_finite(named, pts)
    with np.errstate(over="ignore"):  # an inf passes the degeneracy test; GeometryBatch.density raises on it
        det = np.linalg.det(g)
    worst = float(np.min(np.abs(det)))
    if worst < DEGENERACY_THRESHOLD:
        raise DegenerateMetricError(
            f"|det g| = {worst:.3e} below threshold {DEGENERACY_THRESHOLD:.0e}"
        )
    ginv = np.linalg.inv(g)
    if np.max(np.abs(np.einsum("pij,pjk->pik", g, ginv) - np.eye(n))) > 1e-10:
        raise DegenerateMetricError("metric inverse failed the identity check")
    out = [g, ginv] + [np.empty((npts,) + (n,) * rank) for rank in (3, 2 if ricci else 4)[:order]]
    if order == 0:
        return out, det
    core, curvature = (_ricci_core, "Ricci") if ricci else (_riemann_core, "Riemann")
    gi = np.ascontiguousarray(ginv.transpose(1, 2, 0))
    step = max(1, CHUNK_DOUBLES // n**4)
    size = min(step, npts)
    dg_buf = np.empty((n, n, n, size))  # dg[i,j,k,p] = d_k g_ij
    ddg_buf = np.empty((n,) * 4 + (size,)) if order >= 2 else None  # ddg[i,j,k,m,p] = d_k d_m g_ij
    k = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # checked per chunk
        for c in range(0, npts, step):
            sl = slice(c, c + step)
            m = min(step, npts - c)
            dg = dg_buf[..., :m]
            for (i, j), jet in zip(upper, jets):
                dg[i, j] = dg[j, i] = jet.coeffs[:, sl].take(space._grad_pos, 0)
            s, gamma = _christoffel_core(gi[..., sl], dg)
            named = [("Gamma", gamma)]
            out[2][sl] = np.moveaxis(gamma, -1, 0)
            if order >= 2:
                ddg = ddg_buf[..., :m]
                for (i, j), jet in zip(upper, jets):
                    ddg[i, j] = ddg[j, i] = jet.coeffs[:, sl].take(space._hess_pos, 0)
                ddg[:, :, k, k] *= 2.0
                curv = core(gi[..., sl], dg, s, gamma, ddg)
                named.append((curvature, curv))
                out[3][sl] = np.moveaxis(curv, -1, 0)
            check_finite(named, pts[sl])
    return out, det


def curvature_data_batch(m: MetricSpec, points, extra=None) -> tuple:
    """Batched (g, ginv, Gamma, Riemann), each with a leading point axis.

    Given a list of extra fields of the chart, it returns what geometry_batch
    reads instead: (g, ginv, Gamma, Ricci, det g, the sweep's jets), from one
    order-2 jet sweep of the metric's upper triangle and then the extra
    fields, with Ricci from the Ricci-only core.
    """
    pts = np.asarray(points, dtype=float)
    jets = _metric_jets(m, pts, 2, extra or ())
    arrays, det = _metric_tensors(pts, jets[: len(m._upper)], 2, ricci=extra is not None)
    return tuple(arrays) if extra is None else (*arrays, det, jets)


def hessian_batch(gamma: np.ndarray, jet) -> np.ndarray:
    """Hes(f)[p,i,j] = d_i d_j f - Gamma^k_ij d_k f from an order-2 jet batch of f."""
    return np.moveaxis(jet.hessian(), -1, 0) - np.einsum("pkij,pk->pij", gamma, jet.gradient().T)


def _at(m: MetricSpec, p, order: int, ricci: bool = False) -> tuple[tuple[float, ...], list[np.ndarray]]:
    """The point as floats and the metric arrays of the batch of one it makes."""
    pts = np.asarray([p], dtype=float)
    arrays, _ = _metric_tensors(pts, _metric_jets(m, pts, order), order, ricci)
    return tuple(pts[0].tolist()), [a[0] for a in arrays]


def metric_at(m: MetricSpec, p) -> tuple[TensorValue, TensorValue]:
    """Metric and inverse metric values at p."""
    pt, (g, ginv) = _at(m, p, 0)
    return TensorValue(("d", "d"), g, pt), TensorValue(("u", "u"), ginv, pt)


def christoffel_at(m: MetricSpec, p) -> TensorValue:
    """Gamma^k_ij at p, from order-1 jets of the metric components."""
    pt, (_, _, gamma) = _at(m, p, 1)
    return TensorValue(("u", "d", "d"), gamma, pt)


def riemann_at(m: MetricSpec, p) -> TensorValue:
    """R^l_ijk at p with R(e_i, e_j) e_k = R^l_ijk e_l."""
    pt, (*_, riem) = _at(m, p, 2)
    return TensorValue(("u", "d", "d", "d"), riem, pt)


def curvature_data_at(m: MetricSpec, p) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One-sweep bundle (g, ginv, Gamma, Riemann) for callers needing several pieces."""
    return tuple(_at(m, p, 2)[1])


def ricci_at(m: MetricSpec, p) -> TensorValue:
    """Ric_jk = R^l_ljk."""
    pt, (*_, ric) = _at(m, p, 2, ricci=True)
    return TensorValue(("d", "d"), ric, pt)


def scalar_curvature_at(m: MetricSpec, p) -> float:
    _, (_, ginv, _, ric) = _at(m, p, 2, ricci=True)
    return float(np.einsum("jk,jk->", ginv, ric))


def gradient_at(m: MetricSpec, f: ScalarField, p) -> TensorValue:
    """(grad f)^i = g^ij d_j f."""
    pt, (_, ginv) = _at(m, p, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        jet = ef.eval_jet_batch(f, [pt], 1)
        grad = ginv @ jet.gradient()[:, 0]
    check_finite([("f", jet.coeffs), ("the gradient of f", grad)], np.array([pt]))
    return TensorValue(("u",), grad, pt)


def hessian_at(m: MetricSpec, f: ScalarField, p) -> TensorValue:
    """Hes(f)_ij = d_i d_j f - Gamma^k_ij d_k f."""
    pt, (_, _, gamma) = _at(m, p, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        jet = ef.eval_jet_batch(f, [pt], 2)
        hes = hessian_batch(gamma[None], jet)[0]
    check_finite([("the Hessian of f", hes)], np.array([pt]))
    return TensorValue(("d", "d"), hes, pt)


def laplacian_at(m: MetricSpec, f: ScalarField, p) -> float:
    """Trace of the Hessian: div(grad f)."""
    pt, (_, ginv, gamma) = _at(m, p, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        jet = ef.eval_jet_batch(f, [pt], 2)
        hes = hessian_batch(gamma[None], jet)[0]
        lap = np.einsum("ij,ij->", ginv, hes)
    check_finite([("the Hessian of f", hes), ("the Laplacian of f", lap)], np.array([pt]))
    return float(lap)


def divergence_vec_at(m: MetricSpec, v, p) -> float:
    """div V = d_i V^i + Gamma^i_ik V^k for contravariant component fields V."""
    n = m.chart.dim
    if len(v) != n:
        raise ValueError("vector field needs one component per coordinate")
    pt, (_, _, gamma) = _at(m, p, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        jets = ef.eval_jets_batch(v, [pt], 1)
        vals = np.array([jet.value[0] for jet in jets])
        dv = np.array([jet.gradient()[:, 0] for jet in jets])  # dv[i,j] = d_j V^i
        div = np.trace(dv) + np.einsum("iik,k->", gamma, vals)
    named = [(f"V^{i}", jet.coeffs) for i, jet in enumerate(jets)]
    check_finite([*named, ("the divergence of V", div)], np.array([pt]))
    return float(div)


def divergence_sym2_batch(ginv: np.ndarray, gamma: np.ndarray, s_fields, points) -> np.ndarray:
    """div(S)[p,k] = g^ij (nabla_i S)_jk over points for a symmetric covariant 2-tensor field."""
    n = gamma.shape[-1]
    rows = [list(r) for r in s_fields]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"tensor field needs a {n}x{n} component matrix")
    jets = ef.eval_jets_batch([f for r in rows for f in r], points, 1)
    vals = np.stack([jet.coeffs[0] for jet in jets], axis=-1).reshape(-1, n, n)
    ds = np.stack([jet.gradient().T for jet in jets], axis=1).reshape(-1, n, n, n)  # ds[p,j,k,i] = d_i S_jk
    asym = np.max(np.abs(vals - vals.transpose(0, 2, 1)), axis=(1, 2))
    if np.any(asym > 1e-12 * (1.0 + np.max(np.abs(vals), axis=(1, 2)))):
        raise ValueError("tensor field is not symmetric at the evaluation point")
    covd = (
        np.einsum("pjki->pijk", ds)
        - np.einsum("pmij,pmk->pijk", gamma, vals)
        - np.einsum("pmik,pjm->pijk", gamma, vals)
    )
    return np.einsum("pij,pijk->pk", ginv, covd)


def divergence_sym2_at(m: MetricSpec, s_fields, p) -> TensorValue:
    """div(S)_k = g^ij (nabla_i S)_jk for a symmetric covariant 2-tensor field."""
    pt, (_, ginv, gamma) = _at(m, p, 1)
    return TensorValue(("d",), divergence_sym2_batch(ginv[None], gamma[None], s_fields, [pt])[0], pt)


def signature_at(m: MetricSpec, p) -> tuple[int, ...]:
    """Signs of the metric eigenvalues at p, sorted ascending."""
    g = metric_at(m, p)[0].components
    eig = np.linalg.eigvalsh(g)
    return tuple(int(np.sign(e)) for e in np.sort(eig))
