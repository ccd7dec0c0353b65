"""Semi-Riemannian calculus over point arrays: curvature, derivative operators, divergences.

All derivative information flows through the jet engine, so quantities that
need k metric derivatives request order-k jets of the component fields, in
one sweep over an array of points.  The ``*_at`` functions are views of a
batch of one point.
Tensor fields passed to the divergence operators are arrays of ScalarField,
which keeps their partials on the same exact path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import exprfield as ef
from .errors import DegenerateMetricError, DomainError
from .exprfield import ChartSpec, ScalarField

DEGENERACY_THRESHOLD = 1e-10
CHUNK_DOUBLES = 2**16  # per point block: the doubles of its n**2 order-2 jets, or of one point-last n**4 array


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


def _scratch(work: dict, name: str, shape: tuple) -> np.ndarray:
    """An uninitialised C-contiguous array of ``shape``: a view of the buffer
    ``work`` keeps under ``name``, grown when too small.

    The blocks of one batched assembly (_over_blocks) share one ``work``, so
    their temporaries reuse the same memory instead of being allocated,
    faulted in and returned to the system block by block.
    """
    size = math.prod(shape)
    buf = work.get(name)
    if buf is None or buf.size < size:
        buf = work[name] = np.empty(size)
    return buf[:size].reshape(shape)


# Each contraction below is one einsum over point-last operands: einsum adds the summed
# indices in order from +0.0, point axis innermost, as its operands' strides direct.
# Their results go to _scratch arrays of the shape einsum would allocate.
def _christoffel_core(ginv: np.ndarray, dg: np.ndarray, work: dict) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel assembly over point-last arrays: ginv[k,l,p], dg[i,j,k,p] = d_k g_ij."""
    # S[l,i,j] = d_j g_il + d_i g_jl - d_l g_ij
    s = np.add(dg.transpose(1, 0, 2, 3), dg.transpose(1, 2, 0, 3), out=_scratch(work, "s", dg.shape))
    s -= dg.transpose(2, 0, 1, 3)
    gamma = np.einsum("klp,lijp->kijp", ginv, s, out=_scratch(work, "gamma", dg.shape))
    gamma *= 0.5
    return s, gamma


def _riemann_core(
    ginv: np.ndarray, dg: np.ndarray, s: np.ndarray, gamma: np.ndarray, ddg: np.ndarray, work: dict
) -> np.ndarray:
    """Point-last curvature R^l_ijk from the Christoffel pieces and ddg[i,j,k,m,p] = d_k d_m g_ij."""
    # ds[l,i,j,m] = d_m S[l,i,j] and dginv[i,j,m] = d_m g^ij
    ds = np.add(ddg.transpose(1, 0, 2, 3, 4), ddg.transpose(1, 2, 0, 3, 4), out=_scratch(work, "ds", ddg.shape))
    ds -= ddg.transpose(2, 0, 1, 3, 4)
    # -(g^ia d_m g_ab) g^bj, summed over a (outer) then b (inner)
    dginv = np.einsum("iap,abmp,bjp->ijmp", ginv, dg, ginv, out=_scratch(work, "dginv", dg.shape))
    np.negative(dginv, out=dginv)
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


def _trace_core(ginv: np.ndarray, dg: np.ndarray, gamma: np.ndarray, ddg: np.ndarray, work: dict) -> np.ndarray:
    """Point-last z[j,k,p] whose symmetric part is Ricci, so that W^jk z_jk = W^jk R_jk for
    every symmetric W: the one curvature core of every caller but the Riemann tensor's
    (see _traces).  From _riemann_core's arguments, with no d Gamma, no d(g^-1) and
    O(n**4) work per point.

    With M_j = g^-1 d_j g and v_m = g^lc d_l g_cm, the trace of M_l's row l,
        z_jk = g^la (d_l d_k g_ja - d_l d_a g_jk / 2 - d_j d_k g_la / 2) + tr(M_j M_k) / 2
               + (Gamma^l_lm - v_m) Gamma^m_jk - Gamma^l_jm Gamma^m_lk:
    d_l Gamma^l_jk - d_j Gamma^l_lk by the product rule, since d_l g^la = -g^ad v_d and
    Gamma^l_lk = g^la d_k g_la / 2.  In dim 1, and wherever g is diagonal with one
    entry varying along one coordinate, each group cancels exactly and z is 0, as
    Ricci is.
    """
    shape = ginv.shape[:1] * 2 + ginv.shape[-1:]  # [j,k,p]
    term = _scratch(work, "term", shape)
    z = np.einsum("lap,jalkp->jkp", ginv, ddg, out=_scratch(work, "z", shape))
    half = np.einsum("lap,jklap->jkp", ginv, ddg, out=_scratch(work, "half", shape))
    half += np.einsum("lap,lajkp->jkp", ginv, ddg, out=term)
    half *= 0.5
    z -= half
    # [j,l,b] = (M_j)^l_b
    gdg = np.einsum("lap,abjp->jlbp", ginv, dg, out=_scratch(work, "gdg", dg.shape))
    half = np.einsum("jlbp,kblp->jkp", gdg, gdg, out=half)
    half *= 0.5
    z += half
    gamma_minus_v = np.einsum("llmp->mp", gamma) - np.einsum("llmp->mp", gdg)
    z += np.einsum("mp,mjkp->jkp", gamma_minus_v, gamma, out=term)
    z -= np.einsum("ljmp,mlkp->jkp", gamma, gamma, out=term)
    return z


_INVERSE_MAX_DIM = 4  # above it LAPACK inverts the metric


@functools.lru_cache(maxsize=None)
def _cofactor_plan(n: int) -> tuple:
    """Index tables for the cofactors C_ij, i <= j, of an n x n matrix, 2 <= n <= 4, with
    the matrix's entries and each level's minors stacked on a leading axis.

    Each minor is expanded along its first row into minors one smaller, so
    the plan holds one level per minor size: ``first`` picks the 1 x 1 minors
    from the entries, and each step gives, for every minor of the next size,
    its first row's entries and the positions of the smaller minors they
    multiply in the level below.  The last level's minors are those of the
    upper-triangle cofactors, row by row, which ``signs`` turns into cofactors
    and ``mirror`` spreads over the n x n entries, row by row.
    """
    targets = [
        (tuple(r for r in range(n) if r != i), tuple(c for c in range(n) if c != j))
        for i in range(n) for j in range(i, n)
    ]
    levels = [targets]
    while len(levels[-1][0][0]) > 1:
        below = {}
        for rows, cols in levels[-1]:
            for m in range(len(cols)):
                below.setdefault((rows[1:], cols[:m] + cols[m + 1:]), len(below))
        levels.append(list(below))
    levels.reverse()
    first = np.array([rows[0] * n + cols[0] for rows, cols in levels[0]])
    steps = []
    for size, level in enumerate(levels[1:], 2):
        index = {key: k for k, key in enumerate(levels[size - 2])}
        entries = np.array([[rows[0] * n + c for c in cols] for rows, cols in level])
        below = np.array([[index[(rows[1:], cols[:m] + cols[m + 1:])] for m in range(size)] for rows, cols in level])
        steps.append((entries, below))
    signs = np.array([1.0 if (i + j) % 2 == 0 else -1.0 for i in range(n) for j in range(i, n)])[:, None]
    mirror = np.zeros((n, n), dtype=np.intp)
    mirror[np.triu_indices(n)] = np.arange(len(targets))
    mirror = np.maximum(mirror, mirror.T).ravel()
    for a in (first, signs, mirror, *(a for step in steps for a in step)):
        a.flags.writeable = False  # shared by every caller
    return first, steps, signs, mirror


def _cofactor_inverse(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inverse, det) of symmetric point-last g[i,j,p], n <= 4, by cofactors along each
    minor's first row, every step one array operation over all the minors of one size.

    The rows and columns are first scaled exactly, h = D g D with D_i = 2**-(e_i // 2)
    and 2**e_i the binade of row i's largest |entry|, so that h's entries are
    O(1) and no product of them overflows or underflows.  det g is det h times
    2**(2 sum_i (e_i // 2)), by ldexp, which overflows to inf or underflows to 0
    only where that exact product does; an exactly singular g gives 0.  The
    inverse is mirrored from the upper triangle, so it is exactly symmetric.
    Scaling g by 2**k scales both results exactly, while no entry leaves the
    normal range.
    """
    n, npts = g.shape[0], g.shape[-1]
    half = np.frexp(np.max(np.abs(g), axis=1))[1] >> 1  # [i,p]
    d = np.ldexp(1.0, -half)
    h = g * d[:, None]
    h *= d
    if n == 1:
        return np.ldexp(1.0 / h, -2 * half), np.ldexp(h[0, 0], 2 * half[0])
    first, steps, signs, mirror = _cofactor_plan(n)
    flat = h.reshape(n * n, npts)
    minors = flat.take(first, axis=0)
    for entries, below in steps:
        terms = flat.take(entries, axis=0)
        terms *= minors.take(below, axis=0)  # [minor, m, p]: the first row's m-th entry times its minor
        minors = terms[:, 0] - terms[:, 1]
        for m in range(2, entries.shape[1]):
            minors = minors + terms[:, m] if m % 2 == 0 else minors - terms[:, m]
    cof = minors * signs  # C_ij, i <= j, row by row: row 0's come first
    terms = flat[:n] * cof[:n]
    det_h = terms[0] + terms[1]
    for j in range(2, n):
        det_h += terms[j]
    inv = (cof / det_h).take(mirror, axis=0).reshape(n, n, npts)
    inv *= d[:, None]
    inv *= d
    return inv, np.ldexp(det_h, 2 * np.sum(half, axis=0))


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


def _metric_tensors(pts: np.ndarray, jets, work: dict, curvature="riemann") -> tuple[list, np.ndarray]:
    """[g, ginv], then Gamma (order >= 1) and the ``curvature`` piece (order 2), over points; then det g.

    The one place where metric jets become tensors: ``jets`` are the jets of
    the upper triangle over ``pts``, row by row, and their order is the order
    assembled; every array returned has a leading point axis.  It assembles
    all the points it is given at once; the batched callers hand it one block
    at a time (_over_blocks), so its arrays stay a few MB at any point count.  The
    derivatives dg and ddg are filled point-last from the jets'
    coefficients, and they and the cores' einsum results (at most n**4 per
    point) go to the buffers ``work`` keeps (see _scratch).

    ``curvature`` names what is assembled from ddg: "riemann" R^l_ijk
    (_riemann_core), or "traces" a function ``traces(*named)`` bound to this
    assembly, which gives Ricci, R and pairings with Ricci from one trace core
    call (see _traces) and which the next assembly with the same ``work``
    invalidates.

    g is inverted in closed form for n <= 4 (_cofactor_inverse) and by LAPACK
    above.  A non-finite metric coefficient, or a Gamma or curvature entry
    that overflows in the cores, raises DomainError naming it and the first
    bad point.
    """
    npts, n = pts.shape
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    space = jets[0].space
    order = space.order
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
    gp = np.ascontiguousarray(g.transpose(1, 2, 0))
    # an inf det passes the degeneracy test (GeometryBatch.density raises on it), and a
    # degenerate g's inverse is never read
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gi, det = _cofactor_inverse(gp) if n <= _INVERSE_MAX_DIM else (None, np.linalg.det(g))
    worst = float(np.min(np.abs(det)))
    if worst < DEGENERACY_THRESHOLD:
        raise DegenerateMetricError(
            f"|det g| = {worst:.3e} below threshold {DEGENERACY_THRESHOLD:.0e}"
        )
    if gi is None:
        gi = np.ascontiguousarray(np.linalg.inv(g).transpose(1, 2, 0))
    identity = np.einsum("ijp,jkp->ikp", gp, gi)
    if np.max(np.abs(identity - np.eye(n)[:, :, None])) > 1e-10:
        raise DegenerateMetricError("metric inverse failed the identity check")
    out = [g, np.ascontiguousarray(gi.transpose(2, 0, 1))]
    if order == 0:
        return out, det
    dg = _scratch(work, "dg", (n, n, n, npts))  # dg[i,j,k,p] = d_k g_ij
    for (i, j), jet in zip(upper, jets):
        dg[i, j] = dg[j, i] = jet.coeffs.take(space._grad_pos, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        s, gamma = _christoffel_core(gi, dg, work)
        named = [("Gamma", gamma)]
        if order >= 2:
            ddg = _scratch(work, "ddg", (n,) * 4 + (npts,))  # ddg[i,j,k,m,p] = d_k d_m g_ij
            for (i, j), jet in zip(upper, jets):
                ddg[i, j] = ddg[j, i] = jet.coeffs.take(space._hess_pos, 0)
            k = np.arange(n)
            ddg[:, :, k, k] *= 2.0
            if curvature == "riemann":
                named.append(("Riemann", _riemann_core(gi, dg, s, gamma, ddg, work)))
        check_finite(named, pts)
    # gamma and the curvature arrays are work buffers, which the next assembly overwrites
    out += [np.moveaxis(a, -1, 0).copy() for _, a in named]
    if order == 2 and curvature == "traces":
        out.append(_traces(pts, gi, dg, gamma, ddg, work))
    return out, det


def _traces(pts, gi, dg, gamma, ddg, work):
    """``traces(*named)``: over pts, Ricci R_jk[p,j,k], the symmetric part of one
    _trace_core call's z, then from that z the scalar curvature R = g^jk z_jk and
    <s, Ric> = s_ab g^aj g^bk z_jk for each (name, s) pair given, s[a,b,p] symmetric
    and point-last, as rows over pts.

    Ricci is (z + z^T) / 2 with z halved first, so that it overflows only where
    an entry of it does.  R's row does not depend on what follows it.  z is
    raised before s is paired with it, so a g^-1 too large to square does not
    overflow where the raised Ricci is finite.  A lone point is assembled twice
    over, as a block of two: with one point, einsum would run some sums over j,
    k, l or a in its inner loop, which adds them in another order, and the
    results would depend on the blocks.  A result that is not finite raises
    DomainError naming it ("Ricci", then "scalar curvature" for R) and the first
    bad point; where z overflows, R does too, so Ricci's check fails no
    assembly that R's would pass.
    """
    npts = len(pts)
    twice = (lambda a: np.concatenate([a, a], axis=-1)) if npts == 1 else (lambda a: a)
    gi, dg, gamma, ddg = map(twice, (gi, dg, gamma, ddg))

    def traces(*named):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            z = _trace_core(gi, dg, gamma, ddg, work)
            half = 0.5 * z
            ric = half + half.transpose(1, 0, 2)
            rows = [np.einsum("jkp,jkp->p", gi, z)]
            if named:
                raised = np.einsum("akp,kbp->abp", np.einsum("ajp,jkp->akp", gi, z), gi)
                rows += [np.einsum("abp,abp->p", twice(s), raised) for _, s in named]
        ric, rows = ric[..., :npts], [row[:npts] for row in rows]
        check_finite([("Ricci", ric), *zip(["scalar curvature", *(name for name, _ in named)], rows)], pts)
        return [np.moveaxis(ric, -1, 0).copy(), *rows]

    return traces


def _blocks(npts: int, n: int) -> list[slice]:
    """range(npts) split evenly into the fewest slices of at most cap points (one slice if empty).

    A block holds at most CHUNK_DOUBLES doubles of n**2 order-2 jets, or of
    one point-last n**4 array, so one block's jets, tensors and work buffers
    take a few MB at any point count.
    """
    cap = max(1, CHUNK_DOUBLES // max(n**4, n * n * ef.jet_space(n, 2).count))
    count = max(1, -(-npts // cap))
    return [slice(k * npts // count, (k + 1) * npts // count) for k in range(count)]


def _over_blocks(m: MetricSpec, pts: np.ndarray, extra, curvature, block, cache=None) -> list[np.ndarray]:
    """The arrays ``block(points, arrays, det, jets, work)`` gives over each point block, joined.

    The one place that splits points for a batched assembly (see _blocks). For
    each block in point order it sweeps the order-2 jets of the metric's upper
    triangle, row by row, then of the ``extra`` fields in the same pass, builds
    [g, ginv, Gamma, curvature] and det g from the metric's (_metric_tensors)
    and hands all of it to ``block``; every block's assemblies share one
    ``work`` dict.  The fields' Program, kept in ``cache`` (their owner's dict)
    if given, else for the call, is built before the first block, so each sweep
    frees its jets after their last reader.  ``block`` owns the list
    ``arrays``: nothing else holds its tensors, so emptying it frees them.
    Each array ``block`` returns has a leading point axis: they are written
    into arrays over every point as the blocks come, or returned as they are
    when one block holds every point.  Errors come in block order, one block's
    before the next block is swept, and within a block the metric's, its
    assembly's included, before the extra fields': a failed sweep is replayed
    on the metric alone.  So the degeneracy message's |det g| is the minimum
    over the failing block, not over every point.
    """
    npts, work, out = len(pts), {}, None
    upper = list(m._upper.values())
    program = ef.program_in({} if cache is None else cache, [*upper, *extra])

    def sweep(p):  # a block's jets and tensors are freed before the next block is swept
        try:
            jets = ef.eval_jets_batch([*upper, *extra], p, 2, program)
        except DomainError:
            if extra:
                # raise what the metric raises alone, as when the extra fields had a sweep of their own
                arrays, _ = _metric_tensors(p, ef.eval_jets_batch(upper, p, 2), {}, curvature)
                if curvature == "traces":
                    arrays[-1]()
            raise
        return block(p, *_metric_tensors(p, jets[: len(upper)], work, curvature), jets, work)

    for sl in _blocks(npts, m.chart.dim):
        got = sweep(pts[sl])
        if sl.stop - sl.start == npts:
            return list(got)
        if out is None:
            out = [np.empty((npts, *a.shape[1:]), a.dtype) for a in got]
        for k, full in enumerate(out):
            full[sl] = got[k]
        del got  # a block's results are not held while the next block is swept
    return out


def curvature_data_batch(m: MetricSpec, points) -> tuple:
    """Batched (g, ginv, Gamma, Riemann), each with a leading point axis, filled block by block."""
    pts = np.asarray(points, dtype=float)
    return tuple(_over_blocks(m, pts, (), "riemann", lambda p, arrays, det, jets, work: arrays))


def hessian_batch(gamma: np.ndarray, jet) -> np.ndarray:
    """Hes(f)[p,i,j] = d_i d_j f - Gamma^k_ij d_k f from an order-2 jet batch of f."""
    return np.moveaxis(jet.hessian(), -1, 0) - np.einsum("pkij,pk->pij", gamma, jet.gradient().T)


def _at(m: MetricSpec, p, order: int, curvature="riemann") -> tuple[tuple[float, ...], list]:
    """The point as floats and the metric arrays of the batch of one it makes (traces as bound)."""
    pts = np.asarray([p], dtype=float)
    arrays, _ = _metric_tensors(pts, ef.eval_jets_batch(m._upper.values(), pts, order, m._cache), {}, curvature)
    return tuple(pts[0].tolist()), [a[0] if isinstance(a, np.ndarray) else a for a in arrays]


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
    """Ric_jk = R^l_ljk, from the trace core (the row GeometryBatch.ric has)."""
    pt, (*_, traces) = _at(m, p, 2, "traces")
    return TensorValue(("d", "d"), traces()[0][0], pt)


def scalar_curvature_at(m: MetricSpec, p) -> float:
    """R = g^jk R_jk, from the trace core (the row GeometryBatch.scalar has)."""
    _, (*_, traces) = _at(m, p, 2, "traces")
    return float(traces()[1][0])


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


def divergence_sym2_batch(ginv: np.ndarray, gamma: np.ndarray, s_fields, points, cache=None) -> np.ndarray:
    """div(S)[p,k] = g^ij (nabla_i S)_jk over points for a symmetric covariant 2-tensor
    field; ``cache``, the dict of the fields' owner, keeps their Program if given."""
    n = gamma.shape[-1]
    rows = [list(r) for r in s_fields]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"tensor field needs a {n}x{n} component matrix")
    jets = ef.eval_jets_batch([f for r in rows for f in r], points, 1, cache)
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
