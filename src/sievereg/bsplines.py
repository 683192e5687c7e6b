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


def design_matrix(knots, order, x, local=False):
    """Evaluate all splines of `order` on `knots` at the points `x`.

    Returns an ``(len(x), K)`` array with ``K = len(knots) - order``.  Only
    the `order` functions that can be nonzero at a point are computed: the
    Cox-de Boor triangle runs on them (de Boor, *A Practical Guide to
    Splines*), with the convention 0/0 = 0 at repeated knots, and the result
    is scattered into the dense array.  ``local=True`` returns ``(first,
    vals)`` instead: the values ``vals[i]`` of functions ``first[i] + 0..r-1``;
    it needs full-multiplicity end knots, as `knot_vector` builds.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_funcs = knots.size - order
    # repeat an end knot up to `order` times so that every point has `order`
    # candidate functions; the added ones are cut off at the end
    lead = max(0, order - np.count_nonzero(knots == knots[0]))
    trail = max(0, order - np.count_nonzero(knots == knots[-1]))
    t = np.concatenate([np.full(lead, knots[0]), knots,
                        np.full(trail, knots[-1])])
    nonempty = np.flatnonzero(t[1:] > t[:-1])
    # knot interval of each point; x = knots[-1] joins the last nonempty one
    span = np.clip(np.searchsorted(t, x, side="right") - 1,
                   nonempty[0], nonempty[-1])
    row = span - nonempty[0]
    spans = np.arange(nonempty[0], nonempty[-1] + 1)
    if local and lead + trail:
        raise ValueError("the local form needs end knots of full multiplicity")
    # the dense output first: allocated after the triangle's temporaries it
    # fragments the heap and raises the peak resident memory
    n_all = t.size - order
    out = None if local else np.zeros((x.size, n_all))
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
    if local:
        return span - (order - 1), vals[1:].T
    first = np.arange(x.size) * n_all + span - (order - 1)
    out.ravel()[first + np.arange(order)[:, None]] = vals[1:]
    return np.ascontiguousarray(out[:, lead:lead + n_funcs])


def design_derivative(knots, order, x):
    """First derivative of every spline of `order` at the points `x`.

    Uses the lower-order recursion
    ``N'_{j,r} = (r-1) [N_{j,r-1}/(T_{j+r-1}-T_j) - N_{j+1,r-1}/(T_{j+r}-T_{j+1})]``.
    Order-1 splines are piecewise constant, so their derivative is reported
    as 0 everywhere (including at the knots).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_funcs = knots.size - order
    if order == 1:
        return np.zeros((x.size, n_funcs))
    lower = design_matrix(knots, order - 1, x)
    j = np.arange(n_funcs)
    denom_l = knots[j + order - 1] - knots[j]
    denom_r = knots[j + order] - knots[j + 1]
    has_l, has_r = denom_l > 0.0, denom_r > 0.0
    acc = np.where(has_l, lower[:, :-1] / np.where(has_l, denom_l, 1.0), 0.0)
    acc = np.where(has_r, acc - lower[:, 1:] / np.where(has_r, denom_r, 1.0),
                   acc)
    return (order - 1) * acc


def support_intervals(knots, order):
    """(K, 2) array of [start, end] supports of the basis functions."""
    n_funcs = knots.size - order
    return np.column_stack([knots[:n_funcs], knots[order:order + n_funcs]])
