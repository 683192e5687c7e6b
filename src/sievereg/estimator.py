"""Series least-squares fits and error functionals.

``fit`` regresses responses on the K basis functions by solving the
normal equations ``(B'B/n) c = B'y/n`` through the fit's one
:class:`~sievereg.gram.GramFactor` of the empirical Gram, which inference
then reuses.  Normal equations square the condition number of the design.
That is acceptable here because spline and wavelet Grams have eigenvalues
bounded away from zero (the paper assumes it and ``dms_bound`` certifies
it) and the power basis is already Legendre-orthonormal.  When the Gram's
eigenvalue ratio is below ``MIN_GRAM_RCOND`` the fit falls back to an
orthogonal (SVD) least-squares solve, which realizes the Moore-Penrose
solution exactly; rank deficiency is flagged, never fatal.
``project_oracle`` fits the noiseless responses h0(X_i), i.e. the
projection of the target onto the sieve under the empirical measure, which
splits the estimation error into an approximation part and a noise part.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import ConfigurationError, LocalDesign, _check_real
from .gram import GramFactor
from .quadrature import points_2d

# Smallest lambda_min / lambda_max of B'B/n solved through the normal
# equations, i.e. a design condition number up to 1e4: the squared condition
# number then stays at or below 1e8, which still leaves about 7 significant
# digits.  Below it the fit takes the SVD path, whose rank and condition
# number are exact.
MIN_GRAM_RCOND = 1e-8


@dataclass
class FitResult:
    """Series LS solution: coefficients, residuals, and rank diagnostics.

    `predict` evaluates the fitted function at points, or takes a
    precomputed `LocalDesign` of the basis at them (see `fixed_design`) as
    is; either way the fitted values are the one product of the dense
    design with the coefficients.  `cond` is the condition number of the
    design; `design` is the sample's LocalDesign (never a dense (n, K)
    matrix) and `gram_factor` the GramFactor of its empirical Gram B'B/n,
    which inference reuses instead of evaluating or decomposing them again.
    """

    basis: object
    coeffs: np.ndarray
    residuals: np.ndarray
    rank: int
    rank_deficient: bool
    cond: float
    design: LocalDesign = field(repr=False, default=None)
    gram_factor: GramFactor = field(repr=False, default=None)

    def predict(self, pts):
        design = (pts.dense() if isinstance(pts, LocalDesign)
                  else self.basis.evaluate(pts))
        return design @ self.coeffs


def fixed_design(basis, pts):
    """The basis at fixed (m, d) points, for every fit that predicts there.

    It is evaluated once, by `basis.evaluate`, and kept as the full-width
    LocalDesign, whose `dense()` is that (m, K) array itself: `predict` on
    it gives the bits of `predict` on the points without evaluating again.
    """
    dense = basis.evaluate(pts)
    cols = np.broadcast_to(np.arange(dense.shape[1]), dense.shape)
    return LocalDesign(cols, dense, dense.shape[1])


def fit(basis, x, y):
    """Least-squares fit of y on the basis at the points x.

    The design is evaluated once, in local form (`basis.local`), and is
    the only one the fit holds: B'y is one bincount over its entries, the
    residuals are `LocalDesign @ coeffs` row sums (no BLAS, so no bits
    depend on the BLAS thread count), the Gram B'B/n is `LocalDesign.gram`
    and only the SVD fallback scatters it to dense.

    Raises ValueError unless y holds one finite response per point.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("responses must be finite")
    local = basis.local(points_2d(x))
    n, k = local.vals.shape[0], local.size
    if y.shape != (n,):
        raise ValueError(f"{y.size} responses for {n} points")
    factor = GramFactor(local.gram())
    lam_min, lam_max = factor.evals[0], factor.evals[-1]
    if lam_min > MIN_GRAM_RCOND * lam_max:
        bty = np.bincount(local.cols.ravel(),
                          (local.vals * y[:, None]).ravel(), k)
        coeffs, _ = factor.solve(bty / n)
        rank, cond = k, float(np.sqrt(lam_max / lam_min))
    else:
        coeffs, _, rank, svals = np.linalg.lstsq(local.dense(), y,
                                                 rcond=k * np.finfo(float).eps)
        # lstsq returns min(n, K) singular values: at n < K the rest are 0
        cond = (float(svals[0] / svals[-1])
                if svals.size == k and svals[-1] > 0 else np.inf)
    return FitResult(basis=basis, coeffs=coeffs, rank=int(rank),
                     residuals=y - local @ coeffs, rank_deficient=rank < k,
                     cond=cond, design=local, gram_factor=factor)


def project_oracle(basis, x, h0):
    """The fit of the noiseless responses h0(X_i): the simulation bias oracle."""
    x = points_2d(x)
    return fit(basis, x, h0(x))


def sup_error(f, g):
    """max |f - g| over the values of f and g at the same grid points."""
    return float(np.max(np.abs(f - g)))


def l2_error(f, g, density, quad):
    """L2(X) distance of f and g under the closed-form density, from their
    values at the nodes of the quadrature rule `quad`."""
    diff = f - g
    val = float(np.sum(quad.weights * density(quad.nodes) * diff * diff))
    return float(np.sqrt(max(val, 0.0)))


# --- Shipped regression targets ------------------------------------------
#
# smooth_trig is infinitely smooth; the holder family has finite declared
# smoothness p at the interior kink, which the rate studies target.

def smooth_trig(pts):
    pts = points_2d(pts)
    return np.sum(np.sin(2.0 * np.pi * pts) + 0.3 * np.cos(5.0 * pts), axis=1)


def holder_kink(p):
    """Target with Holder smoothness exactly p at the interior kink.

    For non-integer p this is |x - 1/2|^p (plus a smooth background so the
    function is not even); for integer p the signed variant
    sign(x - 1/2) |x - 1/2|^p keeps the p-th derivative discontinuous.
    """
    _check_real(p=p)
    if not p > 0:       # NaN too
        raise ConfigurationError("smoothness p must be positive")

    def target(pts):
        pts = points_2d(pts)
        u = pts - 0.5
        core = np.abs(u) ** p
        if float(p).is_integer():
            core = core * np.sign(u)
        return np.sum(core + 0.25 * np.sin(2.0 * np.pi * pts), axis=1)

    return target


NAMED_TARGETS = {
    "smooth_trig": lambda p: smooth_trig,
    "holder": holder_kink,
}


def named_target(name, p):
    """The target `name`; `p` is the holder smoothness (smooth_trig has
    none and ignores it)."""
    if name not in NAMED_TARGETS:
        raise ConfigurationError(f"unknown target {name!r}; expected one of "
                                 f"{sorted(NAMED_TARGETS)}")
    return NAMED_TARGETS[name](p)
