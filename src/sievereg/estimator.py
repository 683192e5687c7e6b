"""Weighted series least-squares fits and error functionals.

``fit`` regresses responses on the K weighted basis functions by solving the
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

from .gram import GramFactor
from .quadrature import basis_quadrature, points_2d

# Smallest lambda_min / lambda_max of B'B/n solved through the normal
# equations, i.e. a design condition number up to 1e4: the squared condition
# number then stays at or below 1e8, which still leaves about 7 significant
# digits.  Below it the fit takes the SVD path, whose rank and condition
# number are exact.
MIN_GRAM_RCOND = 1e-8


@dataclass
class FitResult:
    """Series LS solution: coefficients, residuals, and rank diagnostics.

    `predict` evaluates the fitted function (0 outside the weighting
    region).  `cond` is the condition number of the design; `design` is the
    (n, K) matrix of the weighted basis at the sample points and
    `gram_factor` the GramFactor of its empirical Gram B'B/n, which
    inference reuses instead of evaluating or decomposing them again.
    """

    basis: object
    coeffs: np.ndarray
    residuals: np.ndarray
    rank: int
    rank_deficient: bool
    cond: float
    design: np.ndarray = field(repr=False, default=None)
    gram_factor: GramFactor = field(repr=False, default=None)

    def predict(self, pts):
        vals = self.basis.evaluate(pts)
        return vals @ self.coeffs

    def __call__(self, pts):
        return self.predict(pts)


def fit(basis, x, y):
    """Least-squares fit of y on the weighted basis at the points x.

    Raises ValueError when a response is NaN or infinite.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("responses must be finite")
    design = basis.evaluate(points_2d(x))
    n, k = design.shape
    factor = GramFactor(design.T @ design / n)
    lam_min, lam_max = factor.evals[0], factor.evals[-1]
    if lam_min > MIN_GRAM_RCOND * lam_max:
        coeffs, _ = factor.solve(design.T @ y / n)
        rank, cond = k, float(np.sqrt(lam_max / lam_min))
    else:
        coeffs, _, rank, svals = np.linalg.lstsq(design, y,
                                                 rcond=k * np.finfo(float).eps)
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    residuals = y - design @ coeffs
    return FitResult(basis=basis, coeffs=coeffs, residuals=residuals,
                     rank=int(rank), rank_deficient=rank < k, cond=cond,
                     design=design, gram_factor=factor)


def project_oracle(basis, x, h0):
    """The fit of the noiseless responses h0(X_i): the simulation bias oracle."""
    x = points_2d(x)
    return fit(basis, x, h0(x))


def sup_error(f, g, grid):
    """max_x |f(x) - g(x)| over the grid (callables or arrays)."""
    fv = f(grid) if callable(f) else np.asarray(f)
    gv = g(grid) if callable(g) else np.asarray(g)
    return float(np.max(np.abs(fv - gv)))


def l2_error(f, g, density, basis=None, quad=None):
    """L2(X) distance of f and g under the closed-form density."""
    if quad is None:
        if basis is None:
            raise ValueError("need either a quadrature rule or a basis")
        quad = basis_quadrature(basis)
    fv = f(quad.nodes) if callable(f) else np.asarray(f)
    gv = g(quad.nodes) if callable(g) else np.asarray(g)
    diff = fv - gv
    val = float(np.sum(quad.weights * density(quad.nodes) * diff * diff))
    return float(np.sqrt(max(val, 0.0)))


# --- Shipped regression targets ------------------------------------------
#
# smooth_trig is infinitely smooth; the holder family has finite declared
# smoothness p at the interior kink, which the rate studies target.

def smooth_trig(pts):
    pts = points_2d(pts)
    return np.sum(np.sin(2.0 * np.pi * pts) + 0.3 * np.cos(5.0 * pts), axis=1)


def holder_kink(p, center=0.5):
    """Target with Holder smoothness exactly p at the interior kink.

    For non-integer p this is |x - c|^p (plus a smooth background so the
    function is not even); for integer p the signed variant
    sign(x - c) |x - c|^p keeps the p-th derivative discontinuous.
    """
    if p <= 0:
        raise ValueError("smoothness p must be positive")

    def target(pts):
        pts = points_2d(pts)
        u = pts - center
        core = np.abs(u) ** p
        if float(p).is_integer():
            core = core * np.sign(u)
        return np.sum(core + 0.25 * np.sin(2.0 * np.pi * pts), axis=1)

    return target


NAMED_TARGETS = {
    "smooth_trig": lambda p=None: smooth_trig,
    "holder": lambda p=None: holder_kink(p if p is not None else 1.5),
}


def named_target(name, p=None):
    if name not in NAMED_TARGETS:
        raise ValueError(f"unknown target {name!r}; expected one of "
                         f"{sorted(NAMED_TARGETS)}")
    return NAMED_TARGETS[name](p)
