"""Univariate B-splines on [0, 1] with uniform interior knots.

Splines of order ``r`` (degree ``r - 1``) with ``m`` interior knots are built
from the recursion on indicator functions, using a knot vector with full
multiplicity at both endpoints.  That yields ``m + r`` basis functions forming
a partition of unity; evaluation at ``x = 1`` uses the left limit (the last
knot interval is closed).  At most ``r`` functions are nonzero at a point,
each a polynomial of degree ``r - 1`` on its knot span, tabulated once per
knot vector; so a point costs O(r^2) whatever the basis size.
"""

import functools

import numpy as np


def knot_vector(order, n_interior):
    """Full-multiplicity knot vector on [0, 1] with uniform interior knots.

    Returns an array of length ``n_interior + 2 * order``.  Basis function
    ``j`` (``0 <= j < n_interior + order``) has support
    ``[T[j], T[j + order]]``.
    """
    if order < 1:
        raise ValueError(f"spline order must be >= 1, got {order}")
    if n_interior < 0:
        raise ValueError(f"interior knot count must be >= 0, got {n_interior}")
    interior = np.arange(1, n_interior + 1) / (n_interior + 1)
    return np.concatenate([np.zeros(order), interior, np.ones(order)])


@functools.lru_cache(maxsize=64)
def _pp_table(key, order):
    """``(edges, offset, coef, deriv)`` for the float64 knots `key` (bytes).
    On span s, ``[edges[s], edges[s + 1])``, ``coef[p, i, s]`` multiplies
    u^p in function ``offset + s + i``, and `deriv` holds d/dx likewise.
    Read-only, as replication threads share it.
    """
    t = np.frombuffer(key)
    if (np.count_nonzero(t == t[0]) < order
            or np.count_nonzero(t == t[-1]) < order):
        raise ValueError("the local form needs end knots of full multiplicity")
    nonempty = np.flatnonzero(t[1:] > t[:-1])
    spans = np.arange(nonempty[0], nonempty[-1] + 1)
    start, width = t[spans], t[spans + 1] - t[spans]
    # poly[1:k] holds the k - 1 active functions of order k - 1 on each span,
    # between zero rows; order 1 is the indicator of the span
    poly = np.zeros((order + 1, spans.size, order))
    poly[1, :, 0] = 1.0
    for k in range(2, order + 1):
        # the k active functions j per span (a zero denominator drops its
        # term); x - T_j = (T_s - T_j) + h u, and T_{j+k} - x likewise
        j = np.arange(1 - k, 1)[:, None] + spans
        d_l, d_r = t[j + k - 1] - t[j], t[j + k] - t[j + 1]
        left = poly[:k] / np.where(d_l > 0.0, d_l, np.inf)[..., None]
        right = poly[1:k + 1] / np.where(d_r > 0.0, d_r, np.inf)[..., None]
        poly[1:k + 1] = ((start - t[j])[..., None] * left
                         + (t[j + k] - start)[..., None] * right)
        poly[1:k + 1, :, 1:] += width[:, None] * (left - right)[..., :-1]
    coef = np.ascontiguousarray(poly[1:].transpose(2, 0, 1))
    # d/dx of c_p u^p is p c_p u^(p-1) / h; empty spans are never read
    deriv = (np.arange(1, order)[:, None, None] * coef[1:]
             / np.where(width > 0.0, width, 1.0) if order > 1
             else np.zeros_like(coef))
    coef.flags.writeable = deriv.flags.writeable = False
    return t[spans[0]:spans[-1] + 2], spans[0] - (order - 1), coef, deriv


def _evaluate(knots, order, x, derivative):
    t, offset, coef, deriv = _pp_table(
        np.asarray(knots, dtype=float).tobytes(), order)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # knot span of each point; x = T[-1] (and NaN) joins the last one
    span = np.clip(np.searchsorted(t, x, side="right") - 1, 0, t.size - 2)
    lo = t[span]
    u = (x - lo) / (t[span + 1] - lo)
    # Horner on (r, n) rows: each step gathers every point's r coefficients
    coef = deriv if derivative else coef
    vals = coef[-1].take(span, axis=1)
    for c in coef[-2::-1]:
        vals *= u
        vals += c.take(span, axis=1)
    vals[:, ~((x >= t[0]) & (x <= t[-1]))] = 0.0
    return span + offset, vals.T


def design_matrix(knots, order, x):
    """Evaluate all splines of `order` on `knots` at the points `x`.

    Returns ``(first, vals)``: ``vals[i]`` holds the values of functions
    ``first[i] + 0..r-1``, the `order` functions that can be nonzero at
    point i; every other function is 0 there, and every function is 0 off
    the knot range (NaN included).  The Cox-de Boor triangle (de Boor, *A
    Practical Guide to Splines*; 0/0 = 0 at repeated knots) runs once per
    knot vector and order, over the knot spans, on the polynomial
    coefficients of each span's `order` functions in
    ``u = (x - T_s) / (T_{s+1} - T_s)``; each point then finds its span by
    binary search and reads that table by Horner's rule.  The end knots
    must have full multiplicity, as `knot_vector` builds.
    """
    return _evaluate(knots, order, x, False)


def design_derivative(knots, order, x):
    """First derivative of every spline of `order` at the points `x`, as
    ``(first, vals)`` in the form and windows of `design_matrix`, from the
    same table differentiated term by term (``p c_p u^(p-1) / h``).
    Order-1 splines are piecewise constant, so their derivative is reported
    as 0 everywhere (including at the knots).
    """
    return _evaluate(knots, order, x, True)


def support_intervals(knots, order):
    """(K, 2) array of [start, end] supports of the basis functions."""
    n_funcs = knots.size - order
    return np.column_stack([knots[:n_funcs], knots[order:order + n_funcs]])
