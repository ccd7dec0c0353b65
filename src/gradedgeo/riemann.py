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

    def to_json_dict(self) -> dict:
        return {
            "valence": list(self.valence),
            "shape": list(self.components.shape),
            "components": [float(x) for x in self.components.ravel()],
            "point": list(self.base_point),
        }


def _as_field(entry, chart: ChartSpec) -> ScalarField:
    if isinstance(entry, ScalarField):
        if entry.chart != chart:
            raise ValueError("metric component bound to a different chart")
        return entry
    if isinstance(entry, str):
        return ef.parse_field(entry, chart)
    if isinstance(entry, (int, float)):
        return ef.constant(chart, float(entry))
    raise TypeError(f"cannot use {entry!r} as a scalar field")


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
                upper[(i, j)] = _as_field(row[j], chart)
        for i in range(n):
            row = list(rows[i])
            for j in range(i):
                low = _as_field(row[j], chart)
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
            got = _det_field(self.component_fields())
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
                            term = dg[i][l][j] + dg[j][l][i] - dg[i][j][l]
                            if not (ginv[k][l].is_zero or term.is_zero):
                                acc = acc + ginv[k][l] * term
                        row.append(0.5 * acc)
                    plane.append(row)
                gamma.append(plane)
            got = gamma
            self._cache["gamma"] = got
        return got

    def jets_batch(self, points, order: int):
        """Component jets over an array of points, one shared evaluation pass."""
        n = self.chart.dim
        keys = list(self._upper)
        jets = ef.eval_jets_batch([self._upper[k] for k in keys], points, order)
        out = [[None] * n for _ in range(n)]
        for (i, j), jet in zip(keys, jets):
            out[i][j] = jet
            out[j][i] = jet
        return out


def _det_field_matrix(rows: list[list[ScalarField]], chart: ChartSpec) -> ScalarField:
    n = len(rows)
    if n == 0:
        return ef.constant(chart, 1.0)
    if n == 1:
        return rows[0][0]
    acc = ef.constant(chart, 0.0)
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = rows[0][j] * _det_field_matrix(minor, chart)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _det_field(rows: list[list[ScalarField]]) -> ScalarField:
    return _det_field_matrix(rows, rows[0][0].chart)


def _christoffel_core(ginv: np.ndarray, dg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (leading point axis) Christoffel assembly from metric derivatives."""
    # S[l,i,j] = d_j g_il + d_i g_jl - d_l g_ij
    s = (
        np.einsum("pilj->plij", dg)
        + np.einsum("pjli->plij", dg)
        - np.einsum("pijl->plij", dg)
    )
    gamma = 0.5 * np.einsum("pkl,plij->pkij", ginv, s)
    return s, gamma


def _riemann_core(
    ginv: np.ndarray, dg: np.ndarray, s: np.ndarray, gamma: np.ndarray, ddg: np.ndarray
) -> np.ndarray:
    """Batched curvature R^l_ijk from the Christoffel pieces and d_k d_m g_ij."""
    # ds[l,i,j,m] = d_m S[l,i,j]
    ds = (
        np.einsum("piljm->plijm", ddg)
        + np.einsum("pjlim->plijm", ddg)
        - np.einsum("pijlm->plijm", ddg)
    )
    dginv = -np.einsum("pia,pabm,pbj->pijm", ginv, dg, ginv)
    dgamma = 0.5 * (
        np.einsum("pklm,plij->pmkij", dginv, s) + np.einsum("pkl,plijm->pmkij", ginv, ds)
    )
    return (
        np.einsum("piljk->plijk", dgamma)
        - np.einsum("pjlik->plijk", dgamma)
        + np.einsum("plim,pmjk->plijk", gamma, gamma)
        - np.einsum("pljm,pmik->plijk", gamma, gamma)
    )


def check_finite(named_values, pts: np.ndarray) -> None:
    """Fail closed on a non-finite value, naming its field and the first bad point.

    ``named_values`` pairs a field name with an array over ``pts`` whose last
    axis is the point axis, such as a batched jet's coefficients.
    """
    npts = len(pts)
    bad = np.stack([~np.isfinite(a).reshape(-1, npts).all(axis=0) for _, a in named_values])
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        name = named_values[int(np.argmax(bad[:, k]))][0]
        raise DomainError(f"non-finite value of {name} at point {tuple(pts[k].tolist())}")


def _metric_arrays(m: MetricSpec, points, order: int) -> list[np.ndarray]:
    """[g, ginv], then Gamma (order >= 1) and Riemann (order 2), over points.

    The one place where metric jets become tensors; one jet sweep of the
    given order, and every array has a leading point axis.
    """
    pts = m.chart.require_points(points)
    npts = len(pts)
    n = m.chart.dim
    jets = m.jets_batch(pts, order)
    g = np.empty((npts, n, n))
    dg = np.empty((npts, n, n, n)) if order >= 1 else None  # dg[p,i,j,k] = d_k g_ij
    ddg = np.empty((npts,) + (n,) * 4) if order >= 2 else None  # ddg[p,i,j,k,m] = d_k d_m g_ij
    with np.errstate(over="ignore"):  # hessian() doubles the diagonal; checked below
        for i in range(n):
            for j in range(n):
                g[:, i, j] = jets[i][j].coeffs[0]
                if order >= 1:
                    dg[:, i, j] = jets[i][j].gradient().T
                if order >= 2:
                    ddg[:, i, j] = np.moveaxis(jets[i][j].hessian(), -1, 0)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    named = [(f"g_{i}_{j}", jets[i][j].coeffs) for i, j in upper]
    if order >= 2:
        named += [(f"g_{i}_{j}", np.moveaxis(ddg[:, i, j], 0, -1)) for i, j in upper]
    check_finite(named, pts)
    det = np.linalg.det(g)
    worst = float(np.min(np.abs(det)))
    if worst < DEGENERACY_THRESHOLD:
        raise DegenerateMetricError(
            f"|det g| = {worst:.3e} below threshold {DEGENERACY_THRESHOLD:.0e}"
        )
    ginv = np.linalg.inv(g)
    if np.max(np.abs(np.einsum("pij,pjk->pik", g, ginv) - np.eye(n))) > 1e-10:
        raise DegenerateMetricError("metric inverse failed the identity check")
    out = [g, ginv]
    if order >= 1:
        s, gamma = _christoffel_core(ginv, dg)
        out.append(gamma)
    if order >= 2:
        out.append(_riemann_core(ginv, dg, s, gamma, ddg))
    return out


def curvature_data_batch(
    m: MetricSpec, points
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched (g, ginv, Gamma, Riemann), each with a leading point axis."""
    return tuple(_metric_arrays(m, points, 2))


def hessian_batch(gamma: np.ndarray, jet) -> np.ndarray:
    """Hes(f)[p,i,j] = d_i d_j f - Gamma^k_ij d_k f from an order-2 jet batch of f."""
    return np.moveaxis(jet.hessian(), -1, 0) - np.einsum("pkij,pk->pij", gamma, jet.gradient().T)


def _at(m: MetricSpec, p, order: int) -> tuple[tuple[float, ...], list[np.ndarray]]:
    """The point as floats and the metric arrays of the batch of one it makes."""
    pt = m.chart.require_point(p)
    return pt, [a[0] for a in _metric_arrays(m, [pt], order)]


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
    pt, (*_, riem) = _at(m, p, 2)
    return TensorValue(("d", "d"), np.einsum("lljk->jk", riem), pt)


def scalar_curvature_at(m: MetricSpec, p) -> float:
    _, (_, ginv, _, riem) = _at(m, p, 2)
    return float(np.einsum("jk,jk->", ginv, np.einsum("lljk->jk", riem)))


def gradient_at(m: MetricSpec, f: ScalarField, p) -> TensorValue:
    """(grad f)^i = g^ij d_j f."""
    pt, (_, ginv) = _at(m, p, 0)
    df = ef.eval_jet(f, pt, 1).gradient()
    return TensorValue(("u",), ginv @ df, pt)


def hessian_at(m: MetricSpec, f: ScalarField, p) -> TensorValue:
    """Hes(f)_ij = d_i d_j f - Gamma^k_ij d_k f."""
    pt, (_, _, gamma) = _at(m, p, 1)
    hes = hessian_batch(gamma[None], ef.eval_jet_batch(f, [pt], 2))[0]
    return TensorValue(("d", "d"), hes, pt)


def laplacian_at(m: MetricSpec, f: ScalarField, p) -> float:
    """Trace of the Hessian: div(grad f)."""
    pt, (_, ginv, gamma) = _at(m, p, 1)
    hes = hessian_batch(gamma[None], ef.eval_jet_batch(f, [pt], 2))[0]
    return float(np.einsum("ij,ij->", ginv, hes))


def divergence_vec_at(m: MetricSpec, v, p) -> float:
    """div V = d_i V^i + Gamma^i_ik V^k for contravariant component fields V."""
    n = m.chart.dim
    if len(v) != n:
        raise ValueError("vector field needs one component per coordinate")
    pt, (_, _, gamma) = _at(m, p, 1)
    jets = ef.eval_jets_batch(v, [pt], 1)
    vals = np.array([jet.value[0] for jet in jets])
    dv = np.array([jet.gradient()[:, 0] for jet in jets])  # dv[i,j] = d_j V^i
    return float(np.trace(dv) + np.einsum("iik,k->", gamma, vals))


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
