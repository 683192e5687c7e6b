"""Tabulated Daubechies scaling functions and boundary families on [0, 1].

The interior scaling function with ``n_moments`` vanishing moments is
tabulated exactly (up to rounding) on the dyadic grid of step
``2**-TAB_DEPTH``: its integer values solve the two-scale refinement
relation, and one pass of the relation per dyadic level fills in the rest.
Boundary families for the unit interval are obtained by truncating the
shifted generators at 0 and orthonormalizing them (Gram-Schmidt in shift
order, through the Cholesky factor of their Gram) under the discrete inner
product of the tabulation grid; they are fixed once per ``n_moments`` and
reused at every resolution level.

Filters exist for ``n_moments`` in {1, 2, 3}, tables for 2 and 3.  The
tabulation uses the support convention [0, 2N-1]; consumers shift by N-1
when they want the centered convention.
"""

from dataclasses import dataclass

import numpy as np

TAB_DEPTH = 12      # tabulation grid step 2**-12


def scaling_filter(n_moments):
    """Orthonormal refinement filter (sums to sqrt(2)) for 1-3 moments."""
    if n_moments == 1:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    if n_moments == 2:
        s3 = np.sqrt(3.0)
        return np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * np.sqrt(2.0))
    if n_moments == 3:
        s10 = np.sqrt(10.0)
        s5 = np.sqrt(5.0 + 2.0 * s10)
        raw = np.array([
            1.0 + s10 + s5,
            5.0 + s10 + 3.0 * s5,
            10.0 - 2.0 * s10 + 2.0 * s5,
            10.0 - 2.0 * s10 - 2.0 * s5,
            5.0 + s10 - 3.0 * s5,
            1.0 + s10 - s5,
        ])
        return raw * np.sqrt(2.0) / 32.0
    raise ValueError(f"vanishing-moment count must be in {{1, 2, 3}}, got {n_moments}")


def _refine(filt):
    """The scaling function on [0, 2N-1] at step 2**-TAB_DEPTH, exact up to
    rounding (Daubechies, Ten Lectures on Wavelets, section 6.5).

    Its values at the integers solve the two-scale relation
    phi(m) = sqrt(2) sum_k h_k phi(2m - k) with phi(1) + ... + phi(2N-2) = 1
    (phi(0) = phi(2N-1) = 0).  Each level then fills the odd points of a
    grid twice as fine from the coarser ones through the same relation.
    """
    width, steps = filt.size - 1, 2 ** TAB_DEPTH
    taps = np.sqrt(2.0) * filt
    m = np.arange(1, width)
    k = 2 * m[:, None] - m      # tap of phi(m) on phi(j), j = 1..2N-2
    system = np.pad(taps, width)[k + width] - np.eye(width - 1)
    system[-1] = 1.0            # one equation is redundant: fix the sum
    n_pts = width * steps + 1
    padded = np.zeros(3 * n_pts)    # 0 beyond the support, where 2x - k falls
    phi = padded[n_pts:2 * n_pts]
    phi[steps:-1:steps] = np.linalg.solve(system, np.eye(width - 1)[-1])
    for gap in 2 ** np.arange(TAB_DEPTH)[::-1]:
        odd = np.arange(gap, n_pts, 2 * gap)
        src = n_pts + 2 * odd[:, None] - np.arange(filt.size) * steps
        phi[odd] = np.sum(taps * padded[src], axis=1)
    return phi.copy()


def grid_inner(f, g, step):
    """Exact L2 inner product of the piecewise-linear interpolants of f, g.

    On each grid cell both functions are linear, so the product integrates
    to ``step/6 * (2 f0 g0 + f0 g1 + f1 g0 + 2 f1 g1)``.
    """
    f0, f1 = f[:-1], f[1:]
    g0, g1 = g[:-1], g[1:]
    return step / 6.0 * np.sum(2.0 * f0 * g0 + f0 * g1 + f1 * g0 + 2.0 * f1 * g1)


def _orthonormalize(rows):
    """Gram-Schmidt of the rows, in order, under the tabulation grid's inner
    product: the rows times the inverse Cholesky factor of their Gram, by
    forward substitution, so row i stays 0 wherever rows 0..i are all 0."""
    step = ScalingFamily.step
    chol = np.linalg.cholesky([[grid_inner(a, b, step) for b in rows]
                               for a in rows])
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        out[i] = (row - np.sum(chol[i, :i, None] * out[:i], axis=0)) / chol[i, i]
    return out


@dataclass(frozen=True)
class ScalingFamily:
    """Tabulated scaling function plus boundary families for [0, 1].

    Attributes
    ----------
    n_moments : int
        Daubechies vanishing-moment count N.
    depth, step : int, float
        Dyadic tabulation depth R (TAB_DEPTH, the same for every family)
        and the grid step 2**-depth.
    phi : ndarray
        Interior scaling function on [0, 2N-1], ``(2N-1) * 2**depth + 1``
        values.
    left : ndarray, shape (N, (2N-1) * 2**depth + 1)
        Left-edge functions on [0, 2N-1] (zero beyond their support
        [0, N+k]), orthonormal under the grid inner product.
    right : ndarray, shape (N, (2N-1) * 2**depth + 1)
        Right-edge functions on [-(2N-1), 0] stored left-to-right (zero
        below their support [-(N+k-1), 0] for k = 1..N).
    """

    n_moments: int
    phi: np.ndarray
    left: np.ndarray
    right: np.ndarray
    depth = TAB_DEPTH
    step = 2.0 ** -TAB_DEPTH


def tabulate_daubechies(n_moments):
    """Build the ScalingFamily for `n_moments` in {2, 3} at TAB_DEPTH.

    The left boundary functions orthonormalize the truncations
    ``phi(. - k)|[0, inf)`` for ``k = 0..N-1`` (centered convention, support
    [0, N+k]); the right ones mirror this at the other endpoint with
    ``phi(. + k)|(-inf, 0]`` for ``k = 1..N``.  Both are orthogonal to every
    interior shift by construction, because interior shifts vanish on the
    truncated side.  Haar (N = 1) is not tabulated: `basis` evaluates it in
    closed form.
    """
    if n_moments not in (2, 3):
        raise ValueError(f"tabulated vanishing-moment counts are 2 and 3, "
                         f"got {n_moments}")
    phi = _refine(scaling_filter(n_moments))
    n, steps = n_moments, 2 ** TAB_DEPTH
    left, right = np.zeros((2, n, phi.size))
    for k in range(n):
        # phi(y - k) (support [0, N+k]) and phi(y + k + 1) (support
        # [-(N+k), 0]) in the centered convention: the table shifted by
        # N-1-k units one way and the other
        shift = (n - 1 - k) * steps
        left[k, : phi.size - shift] = phi[shift:]
        right[k, shift:] = phi[: phi.size - shift]
    return ScalingFamily(n_moments=n, phi=phi, left=_orthonormalize(left),
                         right=_orthonormalize(right))
