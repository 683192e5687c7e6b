"""Gram matrices, orthonormalized deviations, and projection sup norms.

The theoretical Gram ``G = E[b_w(X) b_w(X)']`` is computed by the
basis-aligned quadrature of :mod:`sievereg.quadrature`; the empirical Gram is
``B_w' B_w / n``.  The deviation ``||G^{-1/2} (B'B/n) G^{-1/2} - I||`` (spectral
norm) measures how far the empirical and theoretical L2 norms are from
agreeing over the sieve; it equals the worst relative discrepancy of the
empirical second moment over unit-L2(X) functions in the span.

Also here: the Lebesgue constants (sup-norm operator norms) of the
theoretical and empirical L2 projections onto the sieve, and the
banded-inverse bound with its exponential off-diagonal decay envelope.
"""

from dataclasses import dataclass

import numpy as np

from .quadrature import (basis_quadrature, points_2d, sup_grid,
                         weighted_basis_gram)


class NumericError(RuntimeError):
    """A numeric precondition failed (singular Gram, degenerate input)."""


class GramFactor:
    """One symmetric eigendecomposition of a Gram matrix, shared by its users.

    Eigenvalues at or below the rank tolerance K * eps * max(lambda_max, 0)
    count as zero: `solve` pseudo-inverts over them and flags it, and
    `inv_sqrt` refuses them.
    """

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        self.evals, self.evecs = np.linalg.eigh(0.5 * (mat + mat.T))
        self.tol = mat.shape[0] * np.finfo(float).eps * max(float(self.evals[-1]), 0.0)

    @property
    def lam(self):
        """[lambda_min]^{-1/2}; infinite when the matrix is singular."""
        lam_min = float(self.evals[0])
        return np.inf if lam_min <= 0.0 else 1.0 / np.sqrt(lam_min)

    def solve(self, rhs):
        """(solution, rank_deficient_flag) of mat @ x = rhs, pseudo-inverting."""
        keep = self.evals > self.tol
        inv = np.where(keep, 1.0 / np.where(keep, self.evals, 1.0), 0.0)
        rhs = np.asarray(rhs, dtype=float)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        sol = self.evecs @ (inv[:, None] * (self.evecs.T @ rhs))
        return (sol[:, 0] if squeeze else sol), bool(np.any(~keep))

    def inv_sqrt(self):
        """Symmetric mat^{-1/2}; NumericError when mat is not invertible."""
        if self.evals[0] <= self.tol:
            raise NumericError("theoretical Gram not invertible")
        return (self.evecs / np.sqrt(self.evals)) @ self.evecs.T

    def deviation(self, gram_emp):
        """Spectral norm of G^{-1/2} G_emp G^{-1/2} - I for this factor's G.

        gram_emp may be one K x K matrix (returns a float) or a stack
        (..., K, K) (returns an array of the leading shape).
        """
        w = self.inv_sqrt()
        m = w @ gram_emp @ w
        m = 0.5 * (m + np.swapaxes(m, -1, -2))
        evals = np.linalg.eigvalsh(m - np.eye(m.shape[-1]))
        dev = np.max(np.abs(evals), axis=-1)
        return float(dev) if dev.ndim == 0 else dev


def theoretical_gram(basis, density, quad=None):
    """K x K matrix of L2(X) inner products of the weighted basis."""
    if quad is None:
        quad = basis_quadrature(basis)
    return weighted_basis_gram(basis, quad, point_weight=density)


def empirical_gram_matrix(basis, x):
    x = points_2d(x)
    vals = basis.evaluate(x)
    return vals.T @ vals / x.shape[0]


def gram_deviation(gram, gram_emp):
    """Spectral norm of G^{-1/2} G_emp G^{-1/2} - I: the worst relative gap
    |n^{-1} sum b(X_i)^2 - 1| over unit-L2(X) functions b in the sieve.

    `gram` is G or its GramFactor; passing the factor reuses its
    decomposition across many empirical Grams.
    """
    factor = gram if isinstance(gram, GramFactor) else GramFactor(gram)
    return factor.deviation(gram_emp)


def zeta_constant(basis, grid=None):
    """sup_x ||b_w(x)|| over the certification grid."""
    if grid is None:
        grid = sup_grid(basis)
    best = 0.0
    for start in range(0, grid.shape[0], 65536):
        vals = basis.evaluate(grid[start:start + 65536])
        best = max(best, float(np.max(np.sum(vals * vals, axis=1))))
    return np.sqrt(best)


def half_bandwidth(mat, rel_tol=1e-12):
    """Largest |i - j| whose entry exceeds rel_tol * max|entry|."""
    scale = np.max(np.abs(mat))
    if scale == 0.0:
        return 0
    i, j = np.nonzero(np.abs(mat) > rel_tol * scale)
    return int(np.max(np.abs(i - j))) if i.size else 0


def empirical_gram(basis, x, gram, grid=None):
    """(B'B/n, report) for a sample, given the theoretical Gram G.

    The report holds dev (the whitened deviation), zeta (the grid sup of
    ||b_w(x)||), lambda ([lambda_min(G)]^{-1/2}), bandwidth (the half-band
    of G: max |i-j| with a nonzero entry), n and k.
    """
    x = points_2d(x)
    gram_emp = empirical_gram_matrix(basis, x)
    factor = GramFactor(gram)
    return gram_emp, {"dev": factor.deviation(gram_emp),
                      "zeta": zeta_constant(basis, grid=grid),
                      "lambda": factor.lam, "bandwidth": half_bandwidth(gram),
                      "n": x.shape[0], "k": int(gram.shape[0])}


# grid rows per kernel block: a (64, 20000) block is 10 MB, the grid chunk's
# full (512, 20000) product would be 82 MB
_KERNEL_ROWS = 64


def _kernel_abs_sup(basis, grid, half, chunk, weights=None):
    """max over grid points x of sum_j |b(x)' half[:, j]| (times weights[j]).

    The grid's LocalDesign is taken `chunk` points at a time and grouped
    by window, and a group's rows multiply only the window's rows of
    `half`: O(G n w) for G grid points where a dense product is O(G n K).
    A row equal to the one before it (a Haar cell on a sorted grid) is not
    formed again.  Products are formed _KERNEL_ROWS rows at a time into one
    reused buffer, overwritten in place by |.| and the weights.  The row
    sums are numpy reductions, not a threaded BLAS gemv whose row split
    moves with the block size and thread count, so the result does not
    depend on the blocking.
    """
    buf = np.empty((_KERNEL_ROWS, half.shape[1]))
    best = 0.0
    for start in range(0, grid.shape[0], chunk):
        local = basis.local(grid[start:start + chunk])
        for cols, rows in local.windows():
            vals = local.vals[rows]
            vals = vals[np.r_[True, np.any(vals[1:] != vals[:-1], axis=1)]]
            lo, hi = cols[0], cols[-1] + 1
            # (w**d, n): a view when the window's columns are consecutive
            sub = half[lo:hi] if hi - lo == cols.size else half[cols]
            for row in range(0, vals.shape[0], _KERNEL_ROWS):
                block = vals[row:row + _KERNEL_ROWS]
                kern = np.matmul(block, sub, out=buf[:block.shape[0]])
                np.abs(kern, out=kern)
                if weights is not None:
                    kern *= weights
                best = max(best, float(np.max(np.sum(kern, axis=1))))
    return best


def lebesgue_constant_theoretical(basis, density, quad=None, grid=None,
                                  chunk=512):
    """Sup-norm operator norm of the L2(X) projection onto the sieve.

    Evaluates sup over the grid in x of the L1(X) norm of the projection
    kernel b(x)' G^{-1} b(.), which the sign pattern of the kernel attains.
    """
    if quad is None:
        max_nodes = 2 ** 14 if basis.spec.family == "wavelet" else None
        quad = basis_quadrature(basis, max_nodes_1d=max_nodes)
    if grid is None:
        grid = sup_grid(basis)
    gram = theoretical_gram(basis, density, quad=quad)
    vals_q = basis.evaluate(quad.nodes)          # (Q, K)
    wq = quad.weights * density(quad.nodes)      # (Q,)
    kernel_half, _ = GramFactor(gram).solve(vals_q.T)  # (K, Q)
    return _kernel_abs_sup(basis, grid, kernel_half, chunk, weights=wq)


@dataclass
class EmpiricalLebesgue:
    value: float
    rank_deficient: bool


def lebesgue_constant_empirical(basis, x, grid=None, chunk=512):
    """Sup-norm operator norm of the empirical projection P_{K,w,n}.

    Over functions unconstrained off the sample, the norm at a point x is
    sum_i |b(x)' (B'B)^- b(X_i)|; the result takes the sup over the grid.
    A rank-deficient design switches to the pseudo-inverse and is flagged.
    """
    x = points_2d(x)
    if grid is None:
        grid = sup_grid(basis)
    vals = basis.evaluate(x)                       # (n, K)
    half, flagged = GramFactor(vals.T @ vals).solve(vals.T)   # (K, n)
    best = _kernel_abs_sup(basis, grid, half, chunk)
    return EmpiricalLebesgue(value=best, rank_deficient=flagged)


@dataclass
class DmsBound:
    """Banded-inverse bound: ||A^{-1}||_linf <= bound = 2C/(1 - lambda_decay).

    kappa is the condition number, lambda_decay the per-offdiagonal decay
    rate, and C the entrywise envelope constant:
    |A^{-1}_{ij}| <= C * lambda_decay ** |i-j|.
    """

    kappa: float
    lambda_decay: float
    C: float
    bound: float


def dms_bound(mat, band):
    """Decay bound for the inverse of a symmetric positive definite matrix
    whose entries vanish for |i - j| > band / 2 (band even).
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if band < 2 or band % 2 != 0:
        raise ValueError(f"band must be a positive even integer, got {band}")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(mat)))):
        raise ValueError("matrix must be symmetric")
    i, j = np.nonzero(np.abs(mat) > 1e-13 * max(1.0, np.max(np.abs(mat))))
    if i.size and np.max(np.abs(i - j)) > band // 2:
        raise ValueError(
            f"band violation: nonzero entry at offset {np.max(np.abs(i - j))} "
            f"> band/2 = {band // 2}"
        )
    evals = GramFactor(mat).evals
    if evals[0] <= 0.0:
        raise NumericError("matrix is not positive definite")
    kappa = float(evals[-1] / evals[0])
    root = np.sqrt(kappa)
    lam = ((root - 1.0) / (root + 1.0)) ** (2.0 / band)
    coef = (1.0 / evals[0]) * max(1.0, (1.0 + root) ** 2 / (2.0 * kappa))
    return DmsBound(kappa=kappa, lambda_decay=float(lam), C=float(coef),
                    bound=float(2.0 * coef / (1.0 - lam)))
