"""Seeded inputs for the benchmark workloads.

The seed picks coefficients, amplitudes and points only.  Every count, every
dimension, every sign and the shape of every expression are constants of this
module, so a workload does the same work for every seed.  A seeded
coefficient ``c`` in ``[-s, s]`` is written as the difference ``(u - s)`` of
two non-negative literals: a negative literal would parse to an extra
negation node, and the tree would then depend on the sign the seed drew.
"""

from __future__ import annotations

import math

import numpy as np

# --- power-law solution configs (eds_cli_grid, action_variation) ----------

# Spatial dimensions n of the power-law solution; the chart has dim n + 1.
EDS_DIMS = (2, 3)
EDS_SPATIAL_NAMES = ("x", "y", "z")
EDS_SPATIAL_HALF_WIDTH = 2.0
EDS_T_BOX = (0.3, 9.0)
# Explicit grid points per config: spatial coordinates in +-1.5, t in [0.5, 8.5].
EDS_POINTS = 8
# The detuned coupling is c = factor * sqrt((n-1)/(2n)), factor in this range.
EDS_DETUNE = (1.2, 1.5)


def eds_coupling(n: int) -> float:
    """Coupling of the power-law solution, c^2 = (n-1)/(2n)."""
    return math.sqrt((n - 1) / (2.0 * n))


def eds_points(rng: np.random.Generator, n: int) -> list[tuple[float, ...]]:
    spatial = rng.uniform(-1.5, 1.5, (EDS_POINTS, n))
    times = rng.uniform(0.5, 8.5, EDS_POINTS)
    return [tuple(float(v) for v in row) + (float(t),) for row, t in zip(spatial, times)]


def eds_detuned_coupling(rng: np.random.Generator, n: int) -> float:
    return float(rng.uniform(*EDS_DETUNE)) * eds_coupling(n)


def eds_config(n: int, c: float, points) -> str:
    """Config text for a = ln(t)/n (spatial metric t^(2/n)), theta = c ln t."""
    names = EDS_SPATIAL_NAMES[:n] + ("t",)
    lines = ["[chart]", "coords = " + ", ".join(names)]
    for name in names[:-1]:
        lines.append(f"box_{name} = {-EDS_SPATIAL_HALF_WIDTH!r}, {EDS_SPATIAL_HALF_WIDTH!r}")
    lines.append(f"box_t = {EDS_T_BOX[0]!r}, {EDS_T_BOX[1]!r}")
    lines.append("")
    lines.append("[metric]")
    for i in range(n):
        lines.append(f"g_{i}_{i} = t^(2/{n})")
    lines.append(f"g_{n}_{n} = -1")
    lines.append("")
    lines.append("[theta]")
    lines.append(f"expr = {c!r}*ln(t)")
    if points:
        lines.append("")
        lines.append("[grid]")
        lines.append("points = " + "; ".join(" ".join(repr(v) for v in p) for p in points))
    return "\n".join(lines) + "\n"


# --- random polynomial graded metrics (random_validate) ---------------------

RV_COORDS = ("x", "y")  # the chart is gradedgeo.randgen.default_chart(2), box +-0.4
# Every monomial x^a y^b of total degree <= 2.
RV_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
RV_METRIC_SCALE = 0.1
RV_THETA_SCALE = 0.5
# Geometries per round; even indices are Riemannian, odd ones Lorentzian.
RV_GEOMETRIES = 4
RV_SIGNATURES = ((1, 1), (1, -1))
# Sample points per geometry, inside +-0.3.
RV_SAMPLE = 5
RV_SAMPLE_HALF_WIDTH = 0.3


class Polynomial:
    """Seeded coefficients over RV_MONOMIALS, kept as the (u, s) literal pairs."""

    def __init__(self, rng: np.random.Generator, scale: float):
        self.scale = float(scale)
        self.u = [float(v) for v in rng.uniform(0.0, 2.0 * scale, len(RV_MONOMIALS))]

    @property
    def coeffs(self) -> np.ndarray:
        # the same float subtraction the parsed (u - s) node performs
        return np.array([u - self.scale for u in self.u])

    def expr(self) -> str:
        terms = []
        for (a, b), u in zip(RV_MONOMIALS, self.u):
            factors = [f"({u!r} - {self.scale!r})"]
            for name, power in zip(RV_COORDS, (a, b)):
                if power == 1:
                    factors.append(name)
                elif power > 1:
                    factors.append(f"{name}^{power}")
            terms.append("*".join(factors))
        return " + ".join(terms)

    def value(self, p) -> float:
        x, y = p
        return float(sum(c * x**a * y**b for c, (a, b) in zip(self.coeffs, RV_MONOMIALS)))


class RandomGeometry:
    """g_ij = signature_i delta_ij + P_ij(x, y), theta = Q(x, y)."""

    def __init__(self, rng: np.random.Generator, index: int):
        self.index = index
        self.signature = RV_SIGNATURES[index % 2]
        self.metric = {
            (i, j): Polynomial(rng, RV_METRIC_SCALE) for i in range(2) for j in range(i, 2)
        }
        self.theta = Polynomial(rng, RV_THETA_SCALE)
        lim = RV_SAMPLE_HALF_WIDTH
        self.sample = [tuple(float(v) for v in row) for row in rng.uniform(-lim, lim, (RV_SAMPLE, 2))]

    def metric_exprs(self) -> dict[tuple[int, int], str]:
        out = {}
        for (i, j), poly in self.metric.items():
            out[(i, j)] = f"{self.signature[i]} + {poly.expr()}" if i == j else poly.expr()
        return out

    def metric_value(self, p) -> np.ndarray:
        g = np.diag(np.array(self.signature, dtype=float))
        for (i, j), poly in self.metric.items():
            v = poly.value(p)
            g[i, j] += v
            if i != j:
                g[j, i] += v
        return g


# --- bump variations (action_variation) -------------------------------------

# Power-law solution case: chart of eds_config(3, ...), c06's support box.
AV_SOLUTION_N = 3
AV_SOLUTION_SUPPORT = ((-0.5, 0.5),) * 3 + ((0.9, 1.9),)
AV_SOLUTION_NODES = 6
AV_MAGNITUDE_NODES = 8
# Off-solution probe of criterion c06 on the dim-2 chart of randgen.default_chart.
AV_PROBE_METRIC = ("1 + 0.3*x^2", "1 + 0.2*y^2")
AV_PROBE_THETA = "0.4*y"
AV_PROBE_SUPPORT = ((-0.3, 0.3), (-0.3, 0.3))
AV_PROBE_NODES = 56
AV_AMPLITUDE = (0.5, 1.0)


def _signs(n: int) -> np.ndarray:
    return np.array([[(-1.0) ** (i + j) for j in range(n)] for i in range(n)])


# Fixed sign patterns (amplitude matrix, then log-weight amplitude).  On the
# probe metric the first variation is 0.00283 * (A_11 - A_00) up to the
# negligible log-weight part, so A_00 < 0 < A_11 keeps it at least 0.0028
# in size for every seed: the probe stays away from a critical direction.
AV_SOLUTION_SIGNS = (_signs(4), 1.0)
AV_PROBE_SIGNS = (np.array([[-1.0, 1.0], [1.0, 1.0]]), 1.0)


def bump_amplitudes(rng: np.random.Generator, signs) -> tuple[np.ndarray, float]:
    """Symmetric amplitude matrix and log-weight amplitude, magnitudes seeded."""
    pattern, h_sign = signs
    n = pattern.shape[0]
    mags = rng.uniform(*AV_AMPLITUDE, (n, n))
    mags = np.triu(mags) + np.triu(mags, 1).T
    return mags * pattern, h_sign * float(rng.uniform(*AV_AMPLITUDE))
