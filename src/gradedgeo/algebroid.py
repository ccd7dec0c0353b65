"""Dual-number function algebra and its graded derivations.

Scalars on a chart are extended by a generator ``tau`` with ``tau^2 = 1``,
so a function is a pair ``f + g*tau``.  Derivations of that algebra are
pairs ``X + h*xi`` where ``X`` is an ordinary vector field and ``xi`` is
the odd derivation killing ordinary functions and sending ``tau`` to 1.
The module also carries the super bracket, the projection back onto
ordinary vector fields, and a generic Koszul-formula evaluator for
extended metric pairings.  Everything is symbolic down to evaluation,
except the Koszul evaluator: it reads the derivatives its formula needs off
one order-1 jet pass of the fields and the extended metric's entries, so it
takes no symbolic derivative of what it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import exprfield as ef
from . import riemann as rm
from .exprfield import ChartSpec, ScalarField

if TYPE_CHECKING:
    from .graded import GradedMetric

__all__ = [
    "DualFunction",
    "GradedVectorField",
    "anchor",
    "bracket",
    "derive",
    "dual_mul",
    "koszul_eval",
    "koszul_values",
    "pairing_field",
    "vector_apply",
]


@dataclass(frozen=True)
class DualFunction:
    """Element ``even + odd*tau`` of the extended function algebra."""

    even: ScalarField
    odd: ScalarField

    def __post_init__(self):
        if self.even.chart != self.odd.chart:
            raise ValueError("even and odd parts live on different charts")

    @property
    def chart(self) -> ChartSpec:
        return self.even.chart

    @classmethod
    def of(cls, chart: ChartSpec, even, odd=0.0) -> "DualFunction":
        return cls(ScalarField.of(chart, even), ScalarField.of(chart, odd))

    def __call__(self, point) -> tuple[float, float]:
        return self.even(point), self.odd(point)

    def __add__(self, other: "DualFunction") -> "DualFunction":
        return DualFunction(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: "DualFunction") -> "DualFunction":
        return DualFunction(self.even - other.even, self.odd - other.odd)

    def __neg__(self) -> "DualFunction":
        return DualFunction(-self.even, -self.odd)

    def __mul__(self, other):
        if isinstance(other, DualFunction):
            return dual_mul(self, other)
        f = ScalarField.of(self.chart, other)
        return DualFunction(self.even * f, self.odd * f)

    def __rmul__(self, other):
        return self.__mul__(other)

    @property
    def is_zero(self) -> bool:
        return self.even.is_zero and self.odd.is_zero


def dual_mul(a: DualFunction, b: DualFunction) -> DualFunction:
    """Product with ``tau^2 = 1``."""
    if a.chart != b.chart:
        raise ValueError("operands live on different charts")
    return DualFunction(
        a.even * b.even + a.odd * b.odd,
        a.even * b.odd + a.odd * b.even,
    )


@dataclass(frozen=True)
class GradedVectorField:
    """Derivation ``X + h*xi`` of the extended algebra."""

    even: tuple[ScalarField, ...]
    odd: ScalarField

    def __post_init__(self):
        object.__setattr__(self, "even", tuple(self.even))
        chart = self.odd.chart
        if len(self.even) != chart.dim:
            raise ValueError(
                f"expected {chart.dim} even components, got {len(self.even)}"
            )
        for c in self.even:
            if c.chart != chart:
                raise ValueError("components live on different charts")

    @property
    def chart(self) -> ChartSpec:
        return self.odd.chart

    @classmethod
    def of(cls, chart: ChartSpec, even: Sequence, odd=0.0) -> "GradedVectorField":
        return cls(tuple(ScalarField.of(chart, c) for c in even), ScalarField.of(chart, odd))

    def __add__(self, other: "GradedVectorField") -> "GradedVectorField":
        return GradedVectorField(
            tuple(a + b for a, b in zip(self.even, other.even)),
            self.odd + other.odd,
        )

    def __sub__(self, other: "GradedVectorField") -> "GradedVectorField":
        return GradedVectorField(
            tuple(a - b for a, b in zip(self.even, other.even)),
            self.odd - other.odd,
        )

    def __neg__(self) -> "GradedVectorField":
        return GradedVectorField(tuple(-c for c in self.even), -self.odd)


def vector_apply(components: Sequence[ScalarField], f: ScalarField) -> ScalarField:
    """Directional derivative of an ordinary function."""
    out = ef.constant(f.chart, 0.0)
    for axis, c in enumerate(components):
        out = out + c * f.d(axis)
    return out


def derive(v: GradedVectorField, a: DualFunction) -> DualFunction:
    """Action of ``X + h*xi`` on ``f + g*tau``."""
    if v.chart != a.chart:
        raise ValueError("field and function live on different charts")
    return DualFunction(
        vector_apply(v.even, a.even) + a.odd * v.odd,
        vector_apply(v.even, a.odd),
    )


def bracket(v: GradedVectorField, w: GradedVectorField) -> GradedVectorField:
    """Super bracket; the odd-odd part always cancels."""
    if v.chart != w.chart:
        raise ValueError("fields live on different charts")
    even = tuple(
        vector_apply(v.even, w.even[k]) - vector_apply(w.even, v.even[k])
        for k in range(v.chart.dim)
    )
    odd = vector_apply(v.even, w.odd) - vector_apply(w.even, v.odd)
    return GradedVectorField(even, odd)


def anchor(v: GradedVectorField) -> tuple[ScalarField, ...]:
    """Projection onto the ordinary vector-field part."""
    return v.even


def pairing_field(gm: "GradedMetric", v: GradedVectorField, w: GradedVectorField) -> ScalarField:
    """Extended metric pairing as a symbolic scalar field.

    Even parts pair through the base metric, odd coefficients through the
    positive weight carried by the extended direction.
    """
    chart = v.chart
    if w.chart != chart or gm.metric.chart != chart:
        raise ValueError("pairing arguments live on different charts")
    out = ef.constant(chart, 0.0)
    n = chart.dim
    for i in range(n):
        for j in range(n):
            out = out + gm.metric.component(i, j) * v.even[i] * w.even[j]
    return out + v.odd * w.odd * gm.weight()


def koszul_values(gm: "GradedMetric", triples, points) -> np.ndarray:
    """Koszul pairing <nabla_x y, z> of each triple (x, y, z) at its own point.

    The components of every x, y and z and the entries of the extended
    metric go through one order-1 jet pass over all the points
    (_order_one_pass), and each triple reads its own point's values and
    gradients; the formula is :func:`_koszul_from_jets`.  No symbolic
    derivative is taken, so it shares none with the connection it checks.
    """
    pts = gm.chart.require_points(points)
    if len(triples) != len(pts):
        raise ValueError(f"{len(triples)} triples for {len(pts)} points")
    n, t = gm.chart.dim, len(pts)
    fields = [c for triple in triples for v in triple for c in (*v.even, v.odd)]
    val, grad, g, dg = _order_one_pass(gm, fields, pts)
    val, grad = val.reshape(t, 3, n + 1, t), grad.reshape(t, 3, n + 1, n, t)
    # each triple's components at its own point: [x/y/z, component, (axis,) point]
    v, dv = np.diagonal(val, axis1=0, axis2=3), np.diagonal(grad, axis1=0, axis2=4)
    return _koszul_from_jets(g, dg, v, dv)


def _order_one_pass(gm: "GradedMetric", fields, pts: np.ndarray, cache=None):
    """Order-1 jets of ``fields`` and ``GradedMetric.extended_metric()`` at pts, from one pass.

    ``cache``, the dict of the fields' owner, keeps the pass's Program if given.
    Returns the fields' values [field, t] and gradients [field, m, t], then
    g[a, b, t] and dg[a, b, m, t], the odd index last.  A non-finite g_ij or
    weight raises DomainError naming it and the first bad point; a
    non-finite field value is left to the caller's check.
    """
    t, n = pts.shape
    with np.errstate(over="ignore", invalid="ignore"):
        jets = ef.eval_jets_batch([*fields, *gm.extended_metric()], pts, 1, cache)
    k = len(fields)
    names = [f"g_{i}_{j}" if max(i, j) < n else "exp(2*theta)" for i in range(n + 1) for j in range(n + 1)]
    rm.check_finite([(name, jet.coeffs) for name, jet in zip(names, jets[k:])], pts)
    val, grad = np.array([jet.value for jet in jets]), np.array([jet.gradient() for jet in jets])
    return val[:k], grad[:k], val[k:].reshape(n + 1, n + 1, t), grad[k:].reshape(n + 1, n + 1, n, t)


def _koszul_from_jets(g: np.ndarray, dg: np.ndarray, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """The Koszul formula from the extended metric and the fields' order-1 jets.

    Column t of every array is triple t at its own point: the metric values
    g[a, b, t] and gradients dg[a, b, m, t] (``_order_one_pass``), the field
    values v[x/y/z, e, t] and gradients dv[x/y/z, e, m, t].  Pairings and
    their gradients are products of values and gradients; the anchor
    actions x<y, z> and the super brackets are read off the gradients, and
    the six-term sum is halved.
    """
    n = dg.shape[2]
    # einsum's summation order follows its operands' strides: read the fields point-major
    (vx, vy, vz), (dx, dy, dz) = (np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1) for a in (v, dv))

    def pair(u, w):
        return np.einsum("abt,at,bt->t", g, u, w)

    def act(v, u, du, w, dw):
        # anchor of v applied to <u, w>: v^m d_m <u, w>
        d = (
            np.einsum("abmt,at,bt->mt", dg, u, w)
            + np.einsum("abt,amt,bt->mt", g, du, w)
            + np.einsum("abt,at,bmt->mt", g, u, dw)
        )
        return np.einsum("mt,mt->t", v[:n], d)

    def bracket_of(u, du, w, dw):
        return np.einsum("mt,amt->at", u[:n], dw) - np.einsum("mt,amt->at", w[:n], du)

    total = (
        act(vx, vy, dy, vz, dz)
        + act(vy, vz, dz, vx, dx)
        - act(vz, vx, dx, vy, dy)
        + pair(bracket_of(vx, dx, vy, dy), vz)
        - pair(bracket_of(vy, dy, vz, dz), vx)
        + pair(bracket_of(vz, dz, vx, dx), vy)
    )
    return 0.5 * total


def koszul_eval(
    gm: "GradedMetric",
    x: GradedVectorField,
    y: GradedVectorField,
    z: GradedVectorField,
    point,
) -> float:
    """Pairing of the metric connection's output with a third field.

    The batch of one of :func:`koszul_values`: the six-term Koszul formula
    on order-1 jets of the fields, the metric and the weight at the point.
    Independent of any closed-form connection.
    """
    return float(koszul_values(gm, [(x, y, z)], [point])[0])
