"""Reference values computed apart from gradedgeo, with numpy and closed forms.

Nothing here imports the package: a check that used the engine to check the
engine would pass whatever the engine does.
"""

from __future__ import annotations

import numpy as np

FD_STEP = 1e-4


def _christoffel(metric, p: np.ndarray, h: float) -> np.ndarray:
    """Gamma[l, i, j] from central differences of the metric function."""
    n = len(p)
    ginv = np.linalg.inv(metric(p))
    dg = np.empty((n, n, n))  # dg[k, i, j] = d_k g_ij
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dg[k] = (metric(p + e) - metric(p - e)) / (2.0 * h)
    # d_i g_jm + d_j g_im - d_m g_ij, indexed [m, i, j]
    term = np.einsum("ijm->mij", dg) + np.einsum("jim->mij", dg) - dg
    return 0.5 * np.einsum("lm,mij->lij", ginv, term)


def fd_scalar_curvature(metric, p, h: float = FD_STEP) -> float:
    """Scalar curvature at p from nested central differences.

    R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk
    - Gamma^l_jm Gamma^m_ik, Ric_jk = R^l_ljk, R = g^jk Ric_jk.
    For a polynomial metric of degree 2 the first differences are exact up
    to roundoff; the second ones carry an O(h^2) truncation error.
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    gamma = _christoffel(metric, p, h)
    dgamma = np.empty((n, n, n, n))  # dgamma[i, l, j, k] = d_i Gamma^l_jk
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        dgamma[i] = (_christoffel(metric, p + e, h) - _christoffel(metric, p - e, h)) / (2.0 * h)
    riem = (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )
    ric = np.einsum("lljk->jk", riem)
    return float(np.einsum("jk,jk->", np.linalg.inv(metric(p)), ric))


# Power-law geometry: spatial metric t^(2/n) delta, g_tt = -1, theta = c ln t.
# With a = ln(t)/n: Ric_tt = (n-1)/(n t^2), spatial Ricci 0, Laplacian of
# theta 0 for every c, |grad theta|^2 = -c^2/t^2.


def eds_scalar(n: int, t: float) -> float:
    return -(n - 1) / (n * t * t)


def eds_e29(n: int, c: float, t: float) -> float:
    """max |Ric - 2 dtheta x dtheta|, all of it in the tt entry."""
    return 2.0 * abs((n - 1) / (2.0 * n) - c * c) / (t * t)


def eds_graded_scalar(n: int, c: float, t: float) -> float:
    """R - 2 tr T with tr T = lap theta + |grad theta|^2 = -c^2/t^2."""
    return eds_scalar(n, t) + 2.0 * c * c / (t * t)


def eds_graded_odd(c: float, t: float) -> float:
    """Odd graded Ricci block -e^(2 theta) tr T = c^2 t^(2c) / t^2."""
    return c * c * t ** (2.0 * c) / (t * t)


def eds_metric_diag(n: int, t: float) -> list[float]:
    return [t ** (2.0 / n)] * n + [-1.0]
