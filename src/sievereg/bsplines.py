"""Univariate B-splines on [0, 1] with uniform interior knots.

Splines of order ``r`` (degree ``r - 1``) with ``m`` interior knots are built
from the recursion on indicator functions, using a knot vector with full
multiplicity at both endpoints.  That yields ``m + r`` basis functions forming
a partition of unity; evaluation at ``x = 1`` uses the left limit (the last
knot interval is closed).  At most ``r`` functions are nonzero at a point,
and only those are computed, so the recursion costs O(r^2) per point
whatever the basis size.
"""

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


def _check_end_knots(knots, order):
    if (np.count_nonzero(knots == knots[0]) < order
            or np.count_nonzero(knots == knots[-1]) < order):
        raise ValueError("the local form needs end knots of full multiplicity")


def design_matrix(knots, order, x):
    """Evaluate all splines of `order` on `knots` at the points `x`.

    Returns ``(first, vals)``: ``vals[i]`` holds the values of functions
    ``first[i] + 0..r-1``, the `order` functions that can be nonzero at
    point i; every other function is 0 there.  Only these are computed: the
    Cox-de Boor triangle runs on them (de Boor, *A Practical Guide to
    Splines*), with the convention 0/0 = 0 at repeated knots.  The end knots
    must have full multiplicity, as `knot_vector` builds.
    """
    _check_end_knots(knots, order)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = knots
    nonempty = np.flatnonzero(t[1:] > t[:-1])
    # knot interval of each point; x = knots[-1] joins the last nonempty one
    span = np.clip(np.searchsorted(t, x, side="right") - 1,
                   nonempty[0], nonempty[-1])
    row = span - nonempty[0]
    spans = np.arange(nonempty[0], nonempty[-1] + 1)
    # vals[1:k] holds the k - 1 active values of order k - 1 at each point,
    # between zeros; order 1 is the indicator of the interval, 0 off the knot
    # range.  Points run along the last axis so every operation is long.
    vals = np.zeros((order + 1, x.size))
    vals[1] = (x >= t[0]) & (x <= t[-1])

    def at_points(table):
        """Per-interval table (rows: functions) gathered at each point."""
        return table.take(row, axis=1)

    for k in range(2, order + 1):
        # the k active functions j per interval; a zero denominator drops
        # its term (0/0 = 0)
        j = np.arange(1 - k, 1)[:, None] + spans
        denom_l, denom_r = t[j + k - 1] - t[j], t[j + k] - t[j + 1]
        has_l, has_r = denom_l > 0.0, denom_r > 0.0
        left = ((x - at_points(t[j]))
                / at_points(np.where(has_l, denom_l, 1.0))
                * vals[:k] * at_points(has_l))
        right = ((at_points(t[j + k]) - x)
                 / at_points(np.where(has_r, denom_r, 1.0))
                 * vals[1:k + 1] * at_points(has_r))
        vals[1:k + 1] = left + right
    return span - (order - 1), vals[1:].T


def design_derivative(knots, order, x):
    """First derivative of every spline of `order` at the points `x`, as
    ``(first, vals)`` in the form of `design_matrix`.

    Uses the lower-order recursion
    ``N'_{j,r} = (r-1) [N_{j,r-1}/(T_{j+r-1}-T_j) - N_{j+1,r-1}/(T_{j+r}-T_{j+1})]``.
    Order-1 splines are piecewise constant, so their derivative is reported
    as 0 everywhere (including at the knots).
    """
    _check_end_knots(knots, order)
    if order == 1:
        first, vals = design_matrix(knots, 1, x)
        return first, np.zeros_like(vals)
    first, lower = design_matrix(knots, order - 1, x)
    # lower[:, i] is function first + i of order r - 1; 0 beyond them
    lower = np.pad(lower, ((0, 0), (1, 1)))
    j = first[:, None] + np.arange(-1, order - 1)
    denom_l = knots[j + order - 1] - knots[j]
    denom_r = knots[j + order] - knots[j + 1]
    has_l, has_r = denom_l > 0.0, denom_r > 0.0
    acc = np.where(has_l, lower[:, :-1] / np.where(has_l, denom_l, 1.0), 0.0)
    acc = np.where(has_r, acc - lower[:, 1:] / np.where(has_r, denom_r, 1.0),
                   acc)
    return first - 1, (order - 1) * acc


def support_intervals(knots, order):
    """(K, 2) array of [start, end] supports of the basis functions."""
    n_funcs = knots.size - order
    return np.column_stack([knots[:n_funcs], knots[order:order + n_funcs]])
