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


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
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

