"""Dual-number function algebra and its graded derivations.

Scalars on a chart are extended by a generator ``tau`` with ``tau^2 = 1``,
so a function is a pair ``f + g*tau``.  Derivations of that algebra are
pairs ``X + h*xi`` where ``X`` is an ordinary vector field and ``xi`` is
the odd derivation killing ordinary functions and sending ``tau`` to 1.
The module also carries the super bracket, the projection back onto
ordinary vector fields, and a generic Koszul-formula evaluator for
extended metric pairings.  Everything is symbolic down to evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import exprfield as ef
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
    "pairing_field",
    "vector_apply",
]


def _coerce_field(chart: ChartSpec, value) -> ScalarField:
    if isinstance(value, ScalarField):
        if value.chart != chart:
            raise ValueError("field lives on a different chart")
        return value
    if isinstance(value, str):
        return ef.parse_field(value, chart)
    return ef.constant(chart, float(value))


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
        return cls(_coerce_field(chart, even), _coerce_field(chart, odd))

    @classmethod
    def from_eigen(cls, a: ScalarField, b: ScalarField) -> "DualFunction":
        """Build from values on the two projectors (1±tau)/2."""
        half = ef.constant(a.chart, 0.5)
        return cls(half * (a + b), half * (a - b))

    def eigen_parts(self) -> tuple[ScalarField, ScalarField]:
        """Values on the two projectors; product is componentwise there."""
        return self.even + self.odd, self.even - self.odd

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
        f = _coerce_field(self.chart, other)
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
        return cls(tuple(_coerce_field(chart, c) for c in even), _coerce_field(chart, odd))

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

    def scaled(self, factor) -> "GradedVectorField":
        f = _coerce_field(self.chart, factor)
        return GradedVectorField(tuple(f * c for c in self.even), f * self.odd)


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
        if v.even[i].is_zero:
            continue
        for j in range(n):
            gij = gm.metric.component(i, j)
            if gij.is_zero or w.even[j].is_zero:
                continue
            out = out + gij * v.even[i] * w.even[j]
    if not (v.odd.is_zero or w.odd.is_zero):
        out = out + v.odd * w.odd * ef.exp(gm.theta + gm.theta)
    return out


def koszul_eval(
    gm: "GradedMetric",
    x: GradedVectorField,
    y: GradedVectorField,
    z: GradedVectorField,
    point,
) -> float:
    """Pairing of the metric connection's output with a third field.

    Expands the six-term Koszul formula symbolically (vector actions go
    through the anchor, brackets are super brackets) and evaluates at the
    point, then halves.  Independent of any closed-form connection.
    """
    pair = pairing_field
    term_x = vector_apply(anchor(x), pair(gm, y, z))
    term_y = vector_apply(anchor(y), pair(gm, z, x))
    term_z = vector_apply(anchor(z), pair(gm, x, y))
    b_xy = pair(gm, bracket(x, y), z)
    b_yz = pair(gm, bracket(y, z), x)
    b_zx = pair(gm, bracket(z, x), y)
    total = term_x + term_y - term_z + b_xy - b_yz + b_zx
    return 0.5 * total(point)
