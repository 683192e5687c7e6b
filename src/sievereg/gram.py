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

from dataclasses import dataclass
from functools import reduce

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

    A matrix with no nonzero off-diagonal entry (the Gram of a Haar design)
    is not handed to `eigh`: its eigenvalues are its stably sorted diagonal
    and its eigenvectors the matching columns of the identity, which is what
    `eigh` returns for it up to the order and signs of tied columns.  A
    product with a signed permutation is exact, so `solve` (the same
    eigenvector products on both paths), `inv_sqrt`, `lam` and `deviation`
    give the same bits on either path.
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
        keep = self.evals > self.tol      # the rank cut of solve and pinv
        self._inv = np.where(keep, 1.0 / np.where(keep, self.evals, 1.0), 0.0)
        self._cut = bool(np.any(~keep))

    @property
    def lam(self):
        """[lambda_min]^{-1/2}; infinite when the matrix is singular."""
        lam_min = float(self.evals[0])
        return np.inf if lam_min <= 0.0 else 1.0 / np.sqrt(lam_min)

    def solve(self, rhs):
        """(solution, rank_deficient_flag) of mat @ x = rhs, pseudo-inverting.
        A K-vector is solved as one (K, 1) column."""
        rhs = np.asarray(rhs, dtype=float)
        sol = self.evecs @ (self._inv[:, None]
                            * (self.evecs.T @ rhs.reshape(rhs.shape[0], -1)))
        return sol.reshape(rhs.shape), self._cut

    def pinv(self, scale=1.0):
        """(scale * mat^-, rank_deficient_flag): the K x K pseudo-inverse
        with `solve`'s rank cut.  A diagonal factor's is diagonal, so each
        entry of pinv(s) @ rhs is one product: its row's scale times it."""
        return (self.evecs * (scale * self._inv)) @ self.evecs.T, self._cut

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
    the Gram is the d-fold Kronecker power of the Gram of `basis.factor`
    under the density's factor, integrated by its 1-D `basis_quadrature` rule.
    """
    gram_1d = weighted_basis_gram(basis.factor, basis_quadrature(basis.factor),
                                  point_weight=density)
    return reduce(np.kron, [gram_1d] * basis.spec.dim)


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


def zeta_constant(basis):
    """sup_x ||b(x)|| over the certification grid `sup_grid(basis)`, read
    from the grid's LocalDesign: O(G w) for G points, not O(G K)."""
    vals = basis.local(sup_grid(basis)).vals
    return np.sqrt(np.max(np.sum(vals * vals, axis=1)))


def half_bandwidth(mat):
    """Largest |i - j| whose entry exceeds 1e-12 * max|entry|."""
    scale = np.max(np.abs(mat))
    if scale == 0.0:
        return 0
    i, j = np.nonzero(np.abs(mat) > 1e-12 * scale)
    return int(np.max(np.abs(i - j))) if i.size else 0


def empirical_gram(basis, x, gram):
    """(B'B/n, report) for a sample, given the theoretical Gram G.

    The report holds dev (the whitened deviation), zeta (the grid sup of
    ||b(x)||), lambda ([lambda_min(G)]^{-1/2}), bandwidth (the half-band
    of G: max |i-j| with a nonzero entry), n and k.
    """
    x = points_2d(x)
    gram_emp = empirical_gram_matrix(basis, x)
    factor = GramFactor(gram)
    return gram_emp, {"dev": factor.deviation(gram_emp),
                      "zeta": zeta_constant(basis),
                      "lambda": factor.lam, "bandwidth": half_bandwidth(gram),
                      "n": x.shape[0], "k": int(gram.shape[0])}


# grid rows per kernel block: a (64, 20000) block is 10 MB, and the fixed
# cut pins the bits of every value (see `_kernel_abs_sup`)
_KERNEL_ROWS = 64


def _row_sums(block, sub, buf):
    """Row sums of |block @ sub|, formed in the flat buf."""
    kern = np.matmul(block, sub, out=buf[:block.shape[0] * sub.shape[1]]
                     .reshape(block.shape[0], sub.shape[1]))
    np.abs(kern, out=kern)
    return np.sum(kern, axis=1)


def _rows_of(half, cols):
    """half[cols]: a view when the window's columns are consecutive."""
    lo, hi = cols[0], cols[-1] + 1
    return half[lo:hi] if hi - lo == cols.size else half[cols]


class _NearBuckets:
    """Near-bucket bounds (see `_kernel_abs_sup`) on the row sums
    sum_j |v'half[cols, j]| of windows of 1 < w < K columns, given F, with
    each window's bucket moments formed once, on its first use."""

    def __init__(self, half, keys, col_sums):
        k = half.shape[0]
        self.half, self.col_sums, self.moments = half, col_sums, {}
        self.by_key = np.argsort(keys, kind="stable")
        self.edges = np.r_[0, np.cumsum(np.bincount(keys, minlength=k))]

    def _moments(self, cols):
        w, (k, n) = cols.size, self.half.shape
        lo, hi = max(cols[0] - 1, 0), min(cols[-1] + 2, k)
        edges = self.edges[lo:hi + 1]
        near = np.flatnonzero(np.diff(edges))   # the buckets, less lo
        h = np.take(_rows_of(self.half, cols),
                    self.by_key[edges[0]:edges[-1]], axis=1)
        parts = np.split(h, edges[near[1:]] - edges[0], axis=1)[:near.size]
        tri = np.array([np.abs(p).sum(axis=1) for p in parts]).reshape(-1, w)
        f = self.col_sums[cols]
        far = (np.maximum(f - np.sum(tri, axis=0), 0.0)
               + 2.0 * (n + k) * np.finfo(float).eps * f)
        return (far, tri.T, np.diff(edges)[near][:, None],
                np.array([p @ p.T for p in parts]).reshape(-1, w, w))

    def bound(self, cols, v):
        """The bound for each row of v (m, w)."""
        if cols[0] not in self.moments:
            self.moments[cols[0]] = self._moments(cols)
        far, tri, count, moment = self.moments[cols[0]]
        av = np.abs(v)
        sums = (av @ tri).T                                 # (T, m)
        quad = np.sum((v @ moment) * v, axis=2)
        quad += 4.0 * (count + cols.size) * np.finfo(float).eps * sums ** 2
        return (1.0 + 1e-6) * (av @ far + np.sum(
            np.fmin(np.sqrt(count * quad), sums), axis=0))


def _kernel_abs_sup(grid, half, design, root=None):
    """max over the rows b(x) of the grid's design of sum_j |b(x)' half[:, j]|;
    column j of `half` belongs to row j of the sample (or node) `design`.

    The grid's rows are grouped by window; a row equal to the one before
    in its window (a Haar cell on a sorted grid) is dropped and the rest
    cut into blocks of at most _KERNEL_ROWS rows of one window, which
    multiply the window's rows of `half`.  The value is one block's largest
    numpy row sum, so this fixed partition pins its bits.
    Blocks are formed in descending order of a bound on that sum (a
    non-finite bound read as +inf) until one falls below (1 - 1e-8) x the
    running maximum.  A block's first bound is the largest over its rows v
    (computed for the whole grid at once) of the smaller of |v| @ F with
    F_c = sum_j |half[c, j]| (the triangle inequality, whose relative
    (n + K) eps rounding the stop rule's slack covers) and, for a
    full-width window (w = K) given `root` (see `_cs_root`),
    sqrt(sum((v @ root)**2)) x (1 + 1e-6), dropped when F is not finite.
    A narrower window takes no Cauchy-Schwarz first bound: in 1-D it rules
    out no block that the triangle and near-bucket bounds leave.  A block
    the first bound leaves, in a window of 1 < w < K columns, also gets
    the near-bucket bound (its bucket index is built only then).  Sample j
    falls in bucket t_j, the column where its design row peaks.  Take H_t,
    the window's rows of `half` over bucket t's n_t samples, tri_t = |H_t|
    summed over them, T = |v| @ tri_t and S_t = H_t H_t'.  A bucket within
    one column of the window adds the smaller of T and
    sqrt(n_t (v'S_t v + 4 (n_t + w) eps T^2)); the others together add
    |v| @ (max(F[cols] - sum_t tri_t, 0) + 2 (n + K) eps F[cols]), whose
    eps term covers the rounding of the sums and of the difference.  The
    sum carries a margin of (1 + 1e-6) for the roundings of its triangle
    terms, roots and sums.  Under the root, a block's y_j = v'h_j is off
    by at most g_w |v|'|h_j| (g_m = m eps / (1 - m eps)), so the bucket's
    sum |y_j| <= sqrt(n_t) (sqrt(Q) + g_w sqrt(R)) for Q = v'S_t v <= R =
    sum_j (|v|'|h_j|)^2 <= T^2, and that square is at most Q + 2.1 g_w R.
    Forming S_t (n_t terms) and Q (2w) moves Q by at most (g_(n_t) + g_2w)
    R and T by g_(n_t + w) T, so 4 (n_t + w) eps T^2 covers it all, also
    where v'h_j cancels and Q is itself a rounding error.
    """
    k, n = half.shape
    if grid.size != k:      # a smaller basis' design would read wrong rows
        raise ValueError(f"the grid design has {grid.size} columns, not {k}")
    buf = np.empty(_KERNEL_ROWS * n)
    width = grid.vals.shape[1]
    col_sums = np.array([np.sum(np.abs(r)) for r in half])
    if width < k or not np.all(np.isfinite(col_sums)):
        root = None     # prunes full width only; a non-finite half breaks it
    bound = np.sum(np.abs(grid.vals) * col_sums[grid.cols], axis=1)
    if root is not None:    # fmin: a NaN bound leaves the other
        bound = np.fmin(bound, (1.0 + 1e-6) * np.sqrt(
            np.sum((grid.vals @ root) ** 2, axis=1)))
    # rows by window, each row unlike the one before, in blocks
    order = np.argsort(grid.cols[:, 0], kind="stable")
    first, vals = grid.cols[order, 0], grid.vals[order]
    new = np.r_[True, first[1:] != first[:-1]]
    keep = new | np.r_[True, np.any(vals[1:] != vals[:-1], axis=1)]
    rows, new = order[keep], new[keep]
    pos = np.arange(rows.size) - np.flatnonzero(new)[np.cumsum(new) - 1]
    cuts = np.flatnonzero(pos % _KERNEL_ROWS == 0)
    blocks = [(grid.cols[r[0]], grid.vals[r]) for r in np.split(rows, cuts[1:])]
    cheap = np.maximum.reduceat(bound[rows], cuts)
    cheap[np.isnan(cheap)] = np.inf       # NaN never rules a block out

    def exact(i):
        cols, block = blocks[i]
        return float(np.max(_row_sums(block, _rows_of(half, cols), buf)))

    order = np.argsort(-cheap, kind="stable")
    best = max(0.0, exact(order[0]))
    live = order[1:][cheap[order[1:]] >= (1.0 - 1e-8) * best]
    sharp = cheap[live]
    if 1 < width < k and live.size:
        near = _NearBuckets(half, np.argmax(design, axis=1), col_sums)
        # fmin: a NaN near bound leaves the first bound
        sharp = np.fmin(sharp, [np.max(near.bound(*blocks[i])) for i in live])
    for i in np.argsort(-sharp, kind="stable"):
        if sharp[i] < (1.0 - 1e-8) * best:
            break
        best = max(best, exact(live[i]))
    return best


def _cs_root(factor, total, length):
    """R with R R' = total * mat^{-1}, so that sqrt(sum((v @ R)**2)) bounds
    sum_j |v'half_j| for half = mat^{-1} B'W, mat = B'WB and weights
    W >= 0 summing to `total` (Cauchy-Schwarz); None where not trusted.

    The bound has to hold for the kernel as computed.  Rounding in the Gram
    (sums of `length` terms), in `eigh`, in the pseudo-inverse
    P = V diag(scale / lambda) V' and in the one product P B' that forms
    `half` (sums of K terms each) is a backward error delta in the Gram
    with ||delta|| <~ (K + length) eps lambda_max.  As G + delta >=
    (1 - kappa ||delta|| / lambda_max) G, it moves v' mat^{-1} v by a
    relative kappa (K + length) eps at most, times a modest constant.  The
    guard keeps that at or below 1e-9, so the margin of 1e-6 covers it
    about 1e3 times over, and the square root halves it again.  The 1/n
    folded into P, or the weights that scale the theoretical `half`, add
    one rounding per entry, which it covers too.  Forming a kernel row
    adds (K + length) eps relative to |v| @ F, which is up to about 150 x
    the row sum in the benchmark's power cells; that term stays below the
    margin while the ratio stays below 1e-6 / ((K + length) eps).  A
    rank-deficient mat (a pseudo-inverse half) gets no bound.
    """
    evals = factor.evals
    if (evals[0] <= factor.tol or evals[-1] / evals[0]
            * (evals.size + length) * np.finfo(float).eps > 1e-9):
        return None
    return factor.evecs * np.sqrt(total / evals)


def lebesgue_constant_theoretical(basis, density, quad=None, grid=None):
    """Sup-norm operator norm of the L2(X) projection onto the sieve.

    Evaluates sup over the grid in x of the L1(X) norm of the projection
    kernel b(x)' G^{-1} b(.), which the sign pattern of the kernel attains.
    `grid` is the grid's LocalDesign, `basis.local(sup_grid(basis))` when
    not given; one of another size than the basis is a ValueError.
    """
    if quad is None:
        max_nodes = 2 ** 14 if basis.spec.family == "wavelet" else None
        quad = basis_quadrature(basis, max_nodes_1d=max_nodes)
    if grid is None:
        grid = basis.local(sup_grid(basis))
    wq = quad.weights * density(quad.nodes)      # (Q,), folded into half
    if not np.all(np.isfinite(wq) & (wq >= 0.0)):
        raise ValueError("weights times density must be finite and >= 0")
    factor = GramFactor(weighted_basis_gram(basis, quad, point_weight=density))
    vals_q = basis.evaluate(quad.nodes)          # (Q, K)
    half = factor.pinv()[0] @ vals_q.T           # (K, Q)
    half *= wq
    return _kernel_abs_sup(grid, half, vals_q,
                           root=_cs_root(factor, float(np.sum(wq)), wq.size))


@dataclass
class EmpiricalLebesgue:
    value: float
    rank_deficient: bool


def lebesgue_constant_empirical(basis, x, grid=None, gram=None):
    """Sup-norm operator norm of the empirical projection P_{K,w,n}.

    Over functions unconstrained off the sample, the norm at a point x is
    sum_i |b(x)' (B'B/n)^- b(X_i) / n|; the result takes the sup over the
    grid.  A rank-deficient design switches to the pseudo-inverse and is
    flagged.  `gram` is the sample's B'B/n, `empirical_gram_matrix(basis,
    x)`, which is formed here when the caller does not already have it.
    `grid` is the grid's LocalDesign, as in `lebesgue_constant_theoretical`.
    """
    x = points_2d(x)
    if grid is None:
        grid = basis.local(sup_grid(basis))
    factor = GramFactor(empirical_gram_matrix(basis, x) if gram is None
                        else gram)
    vals = basis.evaluate(x)                       # (n, K)
    pinv, flagged = factor.pinv(1.0 / x.shape[0])
    best = _kernel_abs_sup(grid, pinv @ vals.T, vals,
                           root=_cs_root(factor, 1.0, x.shape[0]))
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
