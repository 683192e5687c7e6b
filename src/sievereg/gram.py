"""Gram matrices, orthonormalized deviations, and projection sup norms.

The theoretical Gram ``G = E[b(X) b(X)']`` is the d-fold Kronecker power of
the 1-D Gram, which the basis-aligned rule of :mod:`sievereg.quadrature`
integrates; the empirical Gram is ``B'B/n``.  The deviation
``||G^{-1/2} (B'B/n) G^{-1/2} - I||`` (spectral norm) measures how far the
empirical and theoretical L2 norms are from agreeing over the sieve; it
equals the worst relative discrepancy of the empirical second moment over
unit-L2(X) functions in the span.

Also here: the Lebesgue constants (sup-norm operator norms) of the
theoretical and empirical L2 projections onto the sieve, and the
banded-inverse bound with its exponential off-diagonal decay envelope.
"""

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .basis import build_basis
from .quadrature import (basis_quadrature, points_2d, sup_grid,
                         weighted_basis_gram)


class NumericError(RuntimeError):
    """A numeric precondition failed (singular Gram, degenerate input)."""


class GramFactor:
    """One symmetric eigendecomposition of a Gram matrix, shared by its users.

    Eigenvalues at or below the rank tolerance K * eps * max(lambda_max, 0)
    count as zero: `solve` pseudo-inverts over them and flags it, and
    `inv_sqrt` refuses them.

    A matrix with no nonzero off-diagonal entry (the Gram of a Haar design)
    is not handed to `eigh`: its eigenvalues are its stably sorted diagonal
    and its eigenvectors the matching columns of the identity, which is what
    `eigh` returns for it up to the order and signs of tied columns.  A
    product with a signed permutation is exact, so `solve`, `inv_sqrt`, `lam`
    and `deviation` give the same bits on either path.
    """

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        diag = np.diagonal(mat)
        self.is_diagonal = np.count_nonzero(mat) == np.count_nonzero(diag)
        if self.is_diagonal:
            order = np.argsort(diag, kind="stable")
            self.evals, self.evecs = diag[order], np.eye(diag.size)[:, order]
        else:
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
        (..., K, K) (returns an array of the leading shape).  When G and
        every G_emp are diagonal, the whitened matrices are too, and their
        eigenvalues are read off the diagonal instead of from `eigvalsh`,
        which returns a diagonal's entries exactly.
        """
        w = self.inv_sqrt()
        gram_emp = np.asarray(gram_emp, dtype=float)
        diag = np.diagonal(gram_emp, axis1=-2, axis2=-1)
        if (self.is_diagonal
                and np.count_nonzero(gram_emp) == np.count_nonzero(diag)):
            w = np.diagonal(w)
            evals = w * diag * w - 1.0
        else:
            m = w @ gram_emp @ w
            m = 0.5 * (m + np.swapaxes(m, -1, -2))
            evals = np.linalg.eigvalsh(m - np.eye(m.shape[-1]))
        dev = np.max(np.abs(evals), axis=-1)
        return float(dev) if dev.ndim == 0 else dev


def theoretical_gram(basis, density):
    """K x K matrix of L2(X) inner products of the basis.

    The basis is a tensor product of one univariate basis and the density
    a product of one identical factor per coordinate (see `Density`), so
    the Gram is the d-fold Kronecker power of the univariate basis' Gram
    under that factor, integrated by its 1-D `basis_quadrature` rule.
    """
    d = basis.spec.dim
    basis_1d = basis if d == 1 else build_basis(replace(basis.spec, dim=1))
    gram_1d = weighted_basis_gram(basis_1d, basis_quadrature(basis_1d),
                                  point_weight=density)
    return reduce(np.kron, [gram_1d] * d)


def empirical_gram_matrix(basis, x):
    return basis.local(points_2d(x)).gram()


def gram_deviation(gram, gram_emp):
    """Spectral norm of G^{-1/2} G_emp G^{-1/2} - I: the worst relative gap
    |n^{-1} sum b(X_i)^2 - 1| over unit-L2(X) functions b in the sieve.

    `gram` is G or its GramFactor; passing the factor reuses its
    decomposition across many empirical Grams.
    """
    factor = gram if isinstance(gram, GramFactor) else GramFactor(gram)
    return factor.deviation(gram_emp)


def zeta_constant(basis, grid=None):
    """sup_x ||b(x)|| over the certification grid."""
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
    ||b(x)||), lambda ([lambda_min(G)]^{-1/2}), bandwidth (the half-band
    of G: max |i-j| with a nonzero entry), n and k.
    """
    x = points_2d(x)
    gram_emp = empirical_gram_matrix(basis, x)
    factor = GramFactor(gram)
    return gram_emp, {"dev": factor.deviation(gram_emp),
                      "zeta": zeta_constant(basis, grid=grid),
                      "lambda": factor.lam, "bandwidth": half_bandwidth(gram),
                      "n": x.shape[0], "k": int(gram.shape[0])}


# grid points per LocalDesign, and grid rows per kernel block: a (64, 20000)
# block is 10 MB, the grid chunk's full (512, 20000) product would be 82 MB
_GRID_CHUNK, _KERNEL_ROWS = 512, 64


def _row_sums(block, sub, weights, buf):
    """Row sums of |block @ sub| (times weights), formed in the flat buf."""
    kern = np.matmul(block, sub, out=buf[:block.shape[0] * sub.shape[1]]
                     .reshape(block.shape[0], sub.shape[1]))
    np.abs(kern, out=kern)
    if weights is not None:
        kern *= weights
    return np.sum(kern, axis=1)


def _kernel_abs_sup(basis, grid, half, design, weights=None, root=None):
    """max over grid points x of sum_j |b(x)' half[:, j]| (times weights[j]);
    column j of `half` belongs to row j of the sample (or node) `design`.

    Each _GRID_CHUNK of grid points is grouped by window; a row equal to
    the one before (a Haar cell on a sorted grid) is dropped and the rest
    cut into blocks of _KERNEL_ROWS that multiply the window's rows of
    `half`.  The value is one block's largest numpy row sum, so this fixed
    partition pins its bits.
    Blocks are formed in descending order of a bound on that sum (a
    non-finite bound read as +inf) until one falls below (1 - 1e-8) x the
    running maximum.  The first bound is the smaller of |v| @ F with
    F_c = sum_j |half[c, j]| w_j (the triangle inequality) and, given
    `root` (see `_cs_root`), the Cauchy-Schwarz bound
    sqrt(sum_j w_j * sum((v @ root[cols])**2)) x (1 + 1e-6); it is dropped
    when `half` or the weights hold a non-finite entry.  A block that the
    first bound leaves, and whose window has more than one column, gets the
    exact sum over the samples whose design row peaks within one column of
    the window plus |v| @ F over the rest (small by the inverse's decay).
    """
    k, n = half.shape
    buf, blocks = np.empty(_KERNEL_ROWS * n), []
    for start in range(0, grid.shape[0], _GRID_CHUNK):
        local = basis.local(grid[start:start + _GRID_CHUNK])
        for cols, rows in local.windows():
            vals = local.vals[rows]
            vals = vals[np.r_[True, np.any(vals[1:] != vals[:-1], axis=1)]]
            blocks += [(cols, vals[row:row + _KERNEL_ROWS])
                       for row in range(0, vals.shape[0], _KERNEL_ROWS)]
    keys = np.argmax(design, axis=1)    # the column where row j peaks
    scale = 1.0 if weights is None else weights
    table = np.array([np.bincount(keys, np.abs(r) * scale, minlength=k)
                      for r in half])   # [c, t]: |half[c]| w over key t
    by_key = np.argsort(keys, kind="stable")
    edges = np.r_[0, np.cumsum(np.bincount(keys, minlength=k))]
    if not np.all(np.isfinite(table)):  # root no longer describes half
        root = None
    total = n if weights is None else float(np.sum(weights))

    def sub_of(cols):   # a view when the window's columns are consecutive
        lo, hi = cols[0], cols[-1] + 1
        return half[lo:hi] if hi - lo == cols.size else half[cols]

    def exact(cols, block):
        return float(np.max(_row_sums(block, sub_of(cols), weights, buf)))

    def first_bound(cols, block):   # fmin: a NaN bound leaves the other
        tri = np.max(np.abs(block) @ table[cols].sum(1))
        return tri if root is None else np.fmin(tri, (1.0 + 1e-6) * np.sqrt(
            total * np.max(np.sum((block @ root[cols]) ** 2, axis=1))))

    def near_bound(cols, block):
        if cols.size == 1:      # |v| @ F is already the exact row sum
            return np.inf
        lo, hi = max(cols[0] - 1, 0), min(cols[-1] + 2, k)
        near = by_key[edges[lo]:edges[hi]]
        if near.size == n:      # a full-width window: no sample is far
            return np.inf
        far = table[cols, :lo].sum(axis=1) + table[cols, hi:].sum(axis=1)
        return np.max(np.abs(block) @ far + _row_sums(
            block, sub_of(cols)[:, near],
            None if weights is None else weights[near], buf))

    cheap = np.array([first_bound(*b) for b in blocks])
    cheap[np.isnan(cheap)] = np.inf       # NaN never rules a block out
    order = np.argsort(-cheap, kind="stable")
    best = max(0.0, exact(*blocks[order[0]]))
    live = order[1:][cheap[order[1:]] >= (1.0 - 1e-8) * best]
    # fmin: a NaN near bound leaves the first bound standing
    sharp = np.array([np.fmin(cheap[i], near_bound(*blocks[i])) for i in live])
    for i in np.argsort(-sharp, kind="stable"):
        if sharp[i] < (1.0 - 1e-8) * best:
            break
        best = max(best, exact(*blocks[live[i]]))
    return best


def _cs_root(factor, scale, length):
    """R with R R' = (scale * mat)^{-1} for the factor's mat, the M of the
    Cauchy-Schwarz kernel bound; None where that bound is not trusted.

    The bound has to hold for the kernel as computed.  Rounding in the
    Gram (sums of `length` terms), in `eigh` and in the products that form
    `half` (sums of K terms) is a backward error delta in the Gram with
    ||delta|| <~ (K + length) eps lambda_max.  As G + delta >= (1 - kappa
    ||delta|| / lambda_max) G, it moves v'Mv by a relative
    kappa (K + length) eps at most, times a modest constant.  The guard
    keeps that at or below 1e-9, so the margin of 1e-6 covers it about 1e3
    times over, and the square root halves it again.  Forming a kernel row
    adds (K + length) eps relative to |v| @ F, which is up to about 150 x
    the row sum in the benchmark's power cells; that term stays below the
    margin while the ratio stays below 1e-6 / ((K + length) eps).
    A rank-deficient mat (a pseudo-inverse half) gets no bound.
    """
    evals = factor.evals
    if (evals[0] <= factor.tol or evals[-1] / evals[0]
            * (evals.size + length) * np.finfo(float).eps > 1e-9):
        return None
    return factor.evecs / np.sqrt(scale * evals)


def lebesgue_constant_theoretical(basis, density, quad=None, grid=None):
    """Sup-norm operator norm of the L2(X) projection onto the sieve.

    Evaluates sup over the grid in x of the L1(X) norm of the projection
    kernel b(x)' G^{-1} b(.), which the sign pattern of the kernel attains.
    """
    if quad is None:
        max_nodes = 2 ** 14 if basis.spec.family == "wavelet" else None
        quad = basis_quadrature(basis, max_nodes_1d=max_nodes)
    if grid is None:
        grid = sup_grid(basis)
    factor = GramFactor(weighted_basis_gram(basis, quad, point_weight=density))
    vals_q = basis.evaluate(quad.nodes)          # (Q, K)
    wq = quad.weights * density(quad.nodes)      # (Q,)
    kernel_half, _ = factor.solve(vals_q.T)      # (K, Q)
    return _kernel_abs_sup(basis, grid, kernel_half, vals_q, weights=wq,
                           root=_cs_root(factor, 1.0, wq.size))


@dataclass
class EmpiricalLebesgue:
    value: float
    rank_deficient: bool


def lebesgue_constant_empirical(basis, x, grid=None, gram=None):
    """Sup-norm operator norm of the empirical projection P_{K,w,n}.

    Over functions unconstrained off the sample, the norm at a point x is
    sum_i |b(x)' (B'B)^- b(X_i)|; the result takes the sup over the grid.
    A rank-deficient design switches to the pseudo-inverse and is flagged.
    `gram` is the sample's B'B/n (`empirical_gram_matrix`) when the caller
    already has it; it is factored instead of forming B'B here, which moves
    the value only by rounding.
    """
    x = points_2d(x)
    if grid is None:
        grid = sup_grid(basis)
    vals = basis.evaluate(x)                       # (n, K)
    scale = 1.0 if gram is None else x.shape[0]    # gram is B'B/n
    factor = GramFactor(vals.T @ vals if gram is None else gram)
    half, flagged = factor.solve(vals.T)           # (K, n)
    half /= scale
    best = _kernel_abs_sup(basis, grid, half, vals,
                           root=_cs_root(factor, scale, x.shape[0]))
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
