"""Seeded random geometry generators for validation runs and property tests.

Metrics are polynomial perturbations of a constant-signature diagonal, scaled
so nondegeneracy and signature are stable across the chart box.  Graded
vector fields come as symbolic fields (``random_graded_field``) or, for the
degree-1 fields validate reads only at points, as affine coefficient arrays
(``random_affine_fields``) drawn from the same random calls, whose values and
gradients ``affine_jets`` computes as the order-1 jets of the symbolic fields.
"""

from __future__ import annotations

import numpy as np

from . import exprfield as ef
from .exprfield import ChartSpec, ScalarField
from .riemann import MetricSpec

_INTERIOR_MARGIN = 0.15  # random_interior_point keeps this share of each axis clear at both ends


def default_chart(dim: int) -> ChartSpec:
    return ChartSpec(("x", "y", "z", "w", "v")[:dim], ((-0.4, 0.4),) * dim)


def random_polynomial(
    rng: np.random.Generator,
    chart: ChartSpec,
    degree: int = 2,
    scale: float = 0.1,
) -> ScalarField:
    coords = [ef.coordinate(chart, name) for name in chart.coord_names]
    f = ef.constant(chart, float(rng.uniform(-scale, scale)))
    for _ in range(degree * chart.dim):
        mono = ef.constant(chart, float(rng.uniform(-scale, scale)))
        for _ in range(int(rng.integers(1, degree + 1))):
            mono = mono * coords[int(rng.integers(0, chart.dim))]
        f = f + mono
    return f


def random_metric(
    rng: np.random.Generator,
    chart: ChartSpec,
    signature: tuple[int, ...] | None = None,
    scale: float = 0.1,
) -> MetricSpec:
    """diag(signature) plus a symmetric random polynomial perturbation."""
    n = chart.dim
    if signature is None:
        signature = (1,) * n
    if len(signature) != n or any(s not in (-1, 1) for s in signature):
        raise ValueError(f"signature must be +-1 per coordinate, got {signature}")
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            pert = random_polynomial(rng, chart, degree=2, scale=scale)
            entry = pert + float(signature[i]) if i == j else pert
            rows[i][j] = entry
            rows[j][i] = entry
    return MetricSpec(chart, rows)


def random_graded_metric(
    rng: np.random.Generator,
    chart: ChartSpec,
    signature: tuple[int, ...] | None = None,
):
    from .graded import GradedMetric

    g = random_metric(rng, chart, signature)
    theta = random_polynomial(rng, chart, degree=2, scale=0.5)
    return GradedMetric(g, theta)


def random_graded_field(rng: np.random.Generator, chart: ChartSpec, degree: int = 1):
    from .algebroid import GradedVectorField

    even = tuple(random_polynomial(rng, chart, degree=degree, scale=1.0) for _ in chart.coord_names)
    odd = random_polynomial(rng, chart, degree=degree, scale=1.0)
    return GradedVectorField(even, odd)


def random_affine_fields(rng: np.random.Generator, chart: ChartSpec, count: int):
    """``count`` degree-1 graded fields as coefficient arrays (bias, coef, axis).

    Component e of field f (the odd one last) is bias[f, e] + sum_k
    coef[f, e, k] * x[axis[f, e, k]].  Two draws make them, in this order:
    w = uniform(-1, 1) of shape (count, n+1, n+1), whose first column is the
    bias and the rest coef, then axis = integers(0, n) of shape (count, n+1, n).
    """
    n = chart.dim
    w = rng.uniform(-1.0, 1.0, (count, n + 1, n + 1))
    axis = rng.integers(0, n, (count, n + 1, n))
    return w[..., 0], w[..., 1:], axis


def affine_jets(bias: np.ndarray, coef: np.ndarray, axis: np.ndarray, pts: np.ndarray):
    """Values [f, e, t] and gradients [f, e, m, t] of affine fields at pts[t].

    The steps are the order-1 jet rule's on the symbolic field: the bias,
    then ``+ (x * coef + 0.0)`` for each term in turn, and on the gradient
    the bias constant's signed zero plus ``(seed * coef + 0.0)`` per term.
    So the results are the bits of ``eval_jets_batch`` at order 1.
    """
    npts, n = pts.shape
    val = np.broadcast_to(bias[..., None], (*bias.shape, npts))
    # the tree holds a negative bias as a negated constant, whose gradient is -0.0
    grad = np.broadcast_to(np.where(bias < 0.0, -0.0, 0.0)[..., None, None], (*bias.shape, n, npts))
    seeds = np.eye(n)
    for k in range(coef.shape[-1]):
        c = coef[..., k, None]
        val = val + (pts.T[axis[..., k]] * c + 0.0)
        grad = grad + (seeds[axis[..., k]] * c + 0.0)[..., None]
    return val, grad


def random_dual_function(rng: np.random.Generator, chart: ChartSpec):
    from .algebroid import DualFunction

    return DualFunction(random_polynomial(rng, chart, scale=1.0), random_polynomial(rng, chart, scale=1.0))


def random_interior_point(rng: np.random.Generator, chart: ChartSpec):
    return tuple(
        float(rng.uniform(lo + _INTERIOR_MARGIN * (hi - lo), hi - _INTERIOR_MARGIN * (hi - lo)))
        for lo, hi in chart.box
    )
