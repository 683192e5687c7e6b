"""Tabulated Daubechies scaling functions and boundary families on [0, 1].

The interior scaling function with ``n_moments`` vanishing moments is
tabulated on a dyadic grid of step ``2**-depth`` by iterating the two-scale
refinement relation on the fixed grid until the values converge.  Boundary
families for the unit interval are obtained by truncating the shifted
generators at 0 and orthonormalizing them (Gram-Schmidt, in shift order)
under the discrete inner product of the tabulation grid; they are fixed once
per (n_moments, depth) and reused at every resolution level.

Only ``n_moments`` in {1, 2, 3} is supported.  The tabulation uses the
support convention [0, 2N-1]; consumers shift by N-1 when they want the
centered convention.
"""

from dataclasses import dataclass

import numpy as np

_CASCADE_STEPS = 60     # refinement steps before the cascade gives up


class CascadeError(RuntimeError):
    """Fixed-grid refinement iteration failed to converge."""


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


def cascade(filt, depth):
    """Tabulate the scaling function on [0, 2N-1] at step 2**-depth.

    Starts from the unit box and applies the two-scale map on the fixed grid
    until the sup change falls to 1e-8.  Raises CascadeError when the
    iteration has not converged after `_CASCADE_STEPS` steps.

    At node 0 the map reads phi(0) = sqrt(2) h_0 phi(0), so phi(0) = 0
    unless sqrt(2) h_0 = 1 (Haar); the iteration only shrinks it (to 7.7e-9
    for N = 2), so it is set to 0 on return.
    """
    n_taps = filt.size
    width = n_taps - 1
    steps_per_unit = 2 ** depth
    n_pts = width * steps_per_unit + 1
    phi = np.zeros(n_pts)
    phi[:steps_per_unit] = 1.0  # box on [0, 1)

    sqrt2 = np.sqrt(2.0)
    idx = np.arange(n_pts)
    for _ in range(_CASCADE_STEPS):
        nxt = np.zeros(n_pts)
        for k in range(n_taps):
            src = 2 * idx - k * steps_per_unit
            valid = (src >= 0) & (src < n_pts)
            nxt[valid] += filt[k] * phi[src[valid]]
        nxt *= sqrt2
        delta = np.max(np.abs(nxt - phi))
        phi = nxt
        if delta <= 1e-8:
            if not np.isclose(sqrt2 * filt[0], 1.0):
                phi[0] = 0.0
            return phi
    raise CascadeError(
        f"refinement iteration still changing by {delta:.2e} (> 1e-08) "
        f"after {_CASCADE_STEPS} iterations"
    )


def grid_inner(f, g, step):
    """Exact L2 inner product of the piecewise-linear interpolants of f, g.

    On each grid cell both functions are linear, so the product integrates
    to ``step/6 * (2 f0 g0 + f0 g1 + f1 g0 + 2 f1 g1)``.
    """
    f0, f1 = f[:-1], f[1:]
    g0, g1 = g[:-1], g[1:]
    return step / 6.0 * np.sum(2.0 * f0 * g0 + f0 * g1 + f1 * g0 + 2.0 * f1 * g1)


def _gram_schmidt(rows, step):
    """Orthonormalize the rows (in order) under the grid inner product."""
    out = []
    for row in rows:
        v = row.copy()
        for u in out:
            v -= grid_inner(v, u, step) * u
        norm = np.sqrt(grid_inner(v, v, step))
        if norm <= 1e-10:
            raise CascadeError("boundary generator became numerically dependent")
        out.append(v / norm)
    return out


@dataclass(frozen=True)
class ScalingFamily:
    """Tabulated scaling function plus boundary families for [0, 1].

    Attributes
    ----------
    n_moments : int
        Daubechies vanishing-moment count N.
    depth : int
        Dyadic tabulation depth R; grid step is 2**-depth.
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
    depth: int
    phi: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def step(self):
        return 2.0 ** (-self.depth)


def tabulate_daubechies(n_moments, depth):
    """Build the ScalingFamily for `n_moments` at tabulation `depth`.

    The left boundary functions orthonormalize the truncations
    ``phi(. - k)|[0, inf)`` for ``k = 0..N-1`` (centered convention, support
    [0, N+k]); the right ones mirror this at the other endpoint with
    ``phi(. + k)|(-inf, 0]`` for ``k = 1..N``.  Both are orthogonal to every
    interior shift by construction, because interior shifts vanish on the
    truncated side.
    """
    if depth < 10:
        raise ValueError(f"tabulation depth must be >= 10, got {depth}")
    filt = scaling_filter(n_moments)
    phi = cascade(filt, depth)

    steps = 2 ** depth
    n_pts = phi.size
    n = n_moments
    left_raw = []
    for k in range(n):
        # phi(y - k) on [0, 2N-1] in the centered convention equals the
        # tabulation shifted by (N-1-k) units; support becomes [0, N+k].
        row = np.zeros(n_pts)
        shift = (n - 1 - k) * steps
        row[: n_pts - shift] = phi[shift:]
        left_raw.append(row)
    right_raw = []
    for k in range(1, n + 1):
        # phi(y + k) on [-(2N-1), 0]; support [-(N+k-1), 0].
        row = np.zeros(n_pts)
        shift = (n - k) * steps
        row[shift:] = phi[: n_pts - shift]
        right_raw.append(row)

    step = 2.0 ** (-depth)
    left = np.array(_gram_schmidt(left_raw, step))
    right = np.array(_gram_schmidt(right_raw, step))
    return ScalingFamily(n_moments=n_moments, depth=depth, phi=phi,
                         left=left, right=right)

