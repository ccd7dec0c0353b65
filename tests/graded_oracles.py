"""Graded quantities rebuilt from the connection triple's fields and the
classical tensors at one point, independent of the geometry batch they check,
the symbolic curvature operator, validate's affine random fields rebuilt
as symbolic fields, and one-point readings of validate's frame-summed Ricci.
"""

from __future__ import annotations

import numpy as np

from gradedgeo import exprfield as ef
from gradedgeo import graded as gd
from gradedgeo import riemann as rm
from gradedgeo import validate as vd
from gradedgeo.algebroid import GradedVectorField, bracket


def _alpha_at(gm, p) -> tuple[np.ndarray, np.ndarray]:
    """The triple's 1-form alpha at p and its gradients, da[j, i] = d_i alpha_j."""
    jets = ef.eval_jets_batch(gd.levicivita_triple(gm).alpha, [p], 1)
    return np.array([j.coeffs[0, 0] for j in jets]), np.array([j.gradient()[:, 0] for j in jets])


def even_odd_block(gm, p) -> np.ndarray:
    """Odd coefficient of the curvature on an odd operand, antisymmetric
    [arg1, arg2]: d_i alpha_j - d_j alpha_i, zero when alpha is closed."""
    _, da = _alpha_at(gm, p)
    return da.T - da


def odd_even_block(gm, p) -> np.ndarray:
    """Odd coefficient of the curvature for an odd second argument,
    [arg1, operand]: d_i alpha_k - Gamma^m_ik alpha_m + alpha_i alpha_k."""
    a, da = _alpha_at(gm, p)
    gamma = rm.christoffel_at(gm.metric, p).components
    return da.T - np.einsum("mik,m->ik", gamma, a) + np.outer(a, a)


def graded_trace(gm, value) -> float:
    """Trace of a GradedTensorValue against the extended metric (odd block
    weighted by 1/exp(2*theta))."""
    p = value.base_point
    ginv = rm.metric_at(gm.metric, p)[1].components
    even = float(np.einsum("ij,ij->", ginv, value.even.components))
    return even + value.odd / float(np.exp(2.0 * gm.theta(p)))


def curvature_field(conn, x, y, z) -> GradedVectorField:
    """Curvature operator value R(x, y)z from nested covariant derivatives."""
    a = gd.graded_apply_field(conn, x, gd.graded_apply_field(conn, y, z))
    b = gd.graded_apply_field(conn, y, gd.graded_apply_field(conn, x, z))
    c = gd.graded_apply_field(conn, bracket(x, y), z)
    return a - b - c


def affine_fields(chart, bias, coef, axis) -> list[GradedVectorField]:
    """The symbolic fields of ``random_affine_fields`` arrays, in
    ``random_polynomial``'s tree shape: the bias constant, then
    ``+ constant(coef_k) * coordinate(axis_k)`` for each term k."""
    coords = [ef.coordinate(chart, name) for name in chart.coord_names]

    def component(b, c, a):
        f = ef.constant(chart, float(b))
        for ck, ak in zip(c, a):
            f = f + ef.constant(chart, float(ck)) * coords[int(ak)]
        return f

    fields = []
    for b, c, a in zip(bias, coef, axis):
        comps = [component(*e) for e in zip(b, c, a)]
        fields.append(GradedVectorField(tuple(comps[:-1]), comps[-1]))
    return fields


def frame_ricci(gm, x, y, p) -> float:
    """Ricci pairing of the graded fields x and y at p, from validate's
    frame-summed Ricci on the graded coordinate basis."""
    ric = vd._frame_sums(gm, [p])[0][0]
    xv, yv = (np.array([f(p) for f in (*v.even, v.odd)]) for v in (x, y))
    return float(xv @ ric @ yv)


def frame_scalar(gm, p) -> float:
    """Scalar curvature at p as the frame trace of validate's frame-summed Ricci."""
    return float(vd._frame_scalar(*vd._frame_sums(gm, [p]))[0])
