"""The jet rule as full jet arithmetic at every node: the reference for the engine.

Every node is a full jet, constants included: a product is the whole
truncated Leibniz table and a composition runs Horner's rule from a
constant jet.  The engine's constant-aware rule must give these bits
wherever they are finite, and its order-0 value path must give them always.
"""

from __future__ import annotations

import operator

import numpy as np

from gradedgeo import exprfield as ef


def dense_compose(u: ef.Jet, coeffs_by_order: list) -> ef.Jet:
    w = ef.Jet(u.space, u.coeffs.copy())
    w.coeffs[0] = 0.0
    out_c = np.zeros_like(u.coeffs)
    out_c[0] = coeffs_by_order[-1]
    out = ef.Jet(u.space, out_c)
    for c in reversed(coeffs_by_order[:-1]):
        out = out * w + c
    return out


def dense_reciprocal(u: ef.Jet) -> ef.Jet:
    return dense_compose(u, ef._reciprocal_coeffs(u.value, u.space.order))


def dense_pow(u: ef.Jet, r) -> ef.Jet:
    if r.denominator != 1:
        return dense_compose(u, ef._pow_frac_coeffs(u.value, r, u.space.order))
    k = r.numerator
    if k == 0:
        c = np.zeros_like(u.coeffs)
        c[0] = 1.0
        return ef.Jet(u.space, c)
    out = ef._int_power(u, u.value, k, operator.mul)
    return dense_reciprocal(out) if k < 0 else out


def dense_jet_rule(space: ef.JetSpace, seeds: list[ef.Jet]):
    """Rule of ef._walk evaluating each node as a full jet, at any order."""
    shape = seeds[0].coeffs.shape

    def jet(e: ef.Expr, args: list) -> ef.Jet:
        t = type(e)
        if t is ef.Mul:
            return args[0] * args[1]
        if t is ef.Add:
            return args[0] + args[1]
        if t is ef.Sub:
            return args[0] - args[1]
        if t is ef.Const:
            c = np.zeros(shape)
            c[0] = e.value
            return ef.Jet(space, c)
        if t is ef.Coord:
            return seeds[e.index]
        if t is ef.Pow:
            return dense_pow(args[0], e.exponent)
        if t is ef.Div:
            ef._check_divisor(args[1].value)
            return args[0] * dense_reciprocal(args[1])
        if t is ef.Neg:
            return -args[0]
        if t is ef.Call:
            u = args[0]
            if e.fn == "tan":
                sin_cs, cos_cs = ef._tan_coeffs(u.value, space.order)
                return dense_compose(u, sin_cs) * dense_reciprocal(dense_compose(u, cos_cs))
            return dense_compose(u, ef._TAYLOR[e.fn](u.value, space.order))
        raise TypeError(f"not an expression node: {type(e).__name__}")

    return jet
