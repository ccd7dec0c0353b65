"""Tensor-product Gauss-Legendre quadrature over chart boxes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ConfigError
from .exprfield import ChartSpec

__all__ = ["QuadSpec", "tensor_rule"]


@dataclass(frozen=True)
class QuadSpec:
    """Nodes per axis and an optional sub-box of the chart."""

    nodes_per_axis: int
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.nodes_per_axis < 1:
            raise ConfigError("quadrature needs at least one node per axis")
        if self.box is not None:
            object.__setattr__(
                self, "box", tuple((float(lo), float(hi)) for lo, hi in self.box)
            )

    def resolve_box(self, chart: ChartSpec) -> tuple[tuple[float, float], ...]:
        if self.box is None:
            return chart.box
        if len(self.box) != chart.dim:
            raise ConfigError(
                f"quadrature box has {len(self.box)} axes, chart has {chart.dim}"
            )
        for (lo, hi), (clo, chi), name in zip(self.box, chart.box, chart.coord_names):
            if not lo < hi:
                raise ConfigError(f"empty quadrature range for {name}: [{lo}, {hi}]")
            slack = 1e-12 * (chi - clo)
            if lo < clo - slack or hi > chi + slack:
                raise ConfigError(
                    f"quadrature range [{lo}, {hi}] for {name} leaves the chart box"
                )
        return self.box


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence written as
    P_j = t + (j-1)/j (t - P_{j-2}), t = x P_{j-1}."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        t = x * p1
        p0, p1 = p1, t + (j - 1) * (t - p0) / j
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], computed once per n
    and read-only.

    Newton's method on the recurrence finds the roots in [0, 1) (Hale & Townsend,
    SIAM J. Sci. Comput. 35, 2013), from Tricomi's start
    (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2)); the middle root of an odd n is 0.
    Newton's error constant at a root is x/(1 - x^2), so once every step
    |dx| / sqrt(1 - x^2) is at most 1e-9 the roots are within 1e-18 relative of
    exact, up to rounding; from the start that takes two or three steps. One more
    evaluation gives the weights 2 / ((1 - x^2) P_n'(x)^2) and a last correction.
    The negative half mirrors the positive one, so the rule is exactly symmetric.
    After the start only + - * / (and sqrt, exactly rounded, in the stop test)
    run, in O(n) memory and O(n^2) time.
    """
    m = n // 2  # roots in (0, 1)
    k = np.arange(1, m + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n**3))
    if n % 2:
        x = np.append(x, 0.0)
    done = False
    while True:
        p, dp = _legendre(n, x)
        if done:
            break
        dx = p / dp
        x = x - dx
        done = np.max(np.abs(dx) / np.sqrt((1.0 - x) * (1.0 + x))) <= 1e-9
    weights = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x = x - p / dp
    nodes, weights = np.concatenate((-x[:m], x[::-1])), np.concatenate((weights[:m], weights[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def tensor_rule(chart: ChartSpec, quad: QuadSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (strictly interior) and weights for the product rule.

    The nodes are an (npoints, dim) array in C order over the axes, the last
    axis varying fastest; the weights are a matching (npoints,) array.
    """
    box = quad.resolve_box(chart)
    base_x, base_w = _leggauss(quad.nodes_per_axis)
    axes, axis_w = [], []
    for lo, hi in box:
        half = 0.5 * (hi - lo)
        axes.append(0.5 * (lo + hi) + half * base_x)
        axis_w.append(half * base_w)
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    weights = reduce(np.multiply.outer, axis_w).ravel()
    return points, weights

