"""Riesz representers, sieve variances, t statistics and confidence intervals.

A functional of the regression function is described by its kind plus the
rule for the derivative vector (the functional applied to each basis
function).  The representer of that derivative under the L2(X) inner
product has coefficients Gram^{-1} times the derivative vector; its
sample-second-moment of representer times residual gives the plug-in
variance, and normal critical values give the interval.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .gram import GramFactor, NumericError
from .quadrature import basis_quadrature

EXP_CLAMP = 50.0


@dataclass(frozen=True)
class FunctionalSpec:
    """Functional of the fitted function: evaluation, integral, or exp-eval.

    kind is one of "point_eval" (h -> h(x0)), "integral"
    (h -> int h(y) weight(y) dy, Lebesgue), "nonlinear_exp_eval"
    (h -> exp(h(x0))).  The first two are linear: their derivative vector
    does not depend on h.
    """

    kind: str
    x0: np.ndarray = None
    weight: object = None

    def __post_init__(self):
        if self.kind not in ("point_eval", "integral", "nonlinear_exp_eval"):
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind in ("point_eval", "nonlinear_exp_eval") and self.x0 is None:
            raise ValueError(f"{self.kind} needs the evaluation point x0")
        if self.kind == "integral" and self.weight is None:
            raise ValueError("integral functional needs a weight callable")

    @property
    def linear(self):
        return self.kind in ("point_eval", "integral")

    @staticmethod
    def point_eval(x0):
        return FunctionalSpec(kind="point_eval", x0=np.atleast_1d(np.asarray(x0, float)))

    @staticmethod
    def integral(weight):
        return FunctionalSpec(kind="integral", weight=weight)

    @staticmethod
    def nonlinear_exp_eval(x0):
        return FunctionalSpec(kind="nonlinear_exp_eval",
                              x0=np.atleast_1d(np.asarray(x0, float)))

    def _linear(self, g, basis, quad):
        """The linear part applied to g, which maps points to values (n,)
        or to a design (n, K): g(x0), or the weight-times-quadrature sum of
        g over the nodes of `quad` (default: the basis' rule)."""
        if self.kind != "integral":
            return np.atleast_1d(g(self.x0.reshape(1, -1)))[0]
        if quad is None:
            quad = basis_quadrature(basis)
        gv = np.asarray(g(quad.nodes), dtype=float)
        wq = quad.weights * np.asarray(self.weight(quad.nodes), dtype=float)
        # a pairwise sum for a value, one gemv for a design
        return gv.T @ wq if gv.ndim == 2 else np.sum(wq * gv)

    def value(self, h, basis=None, quad=None):
        """f(h) for an evaluator h; returns (value, clamped_flag).  The exp
        functional clamps |h(x0)| at EXP_CLAMP and flags the clamp."""
        hx = float(self._linear(h, basis, quad))
        if self.linear:
            return hx, False
        return float(np.exp(np.clip(hx, -EXP_CLAMP, EXP_CLAMP))), abs(hx) > EXP_CLAMP

    def derivative(self, basis, h=None, quad=None):
        """K-vector of pathwise derivatives along the basis directions."""
        deriv = self._linear(basis.evaluate, basis, quad)
        if self.linear:
            return deriv
        if h is None:
            raise ValueError("nonlinear functional derivative needs the function h")
        return self.value(h)[0] * deriv


def riesz_representer(gram, deriv):
    """Coefficients of the representer, its squared L2(X) norm, and a flag.

    Solves Gram * c = deriv; a singular Gram falls back to the
    pseudo-inverse and flags the result.
    """
    deriv = np.asarray(deriv, dtype=float)
    coeffs, flagged = GramFactor(gram).solve(deriv)
    norm_sq = float(deriv @ coeffs)
    return coeffs, max(norm_sq, 0.0), flagged


def sieve_variance_plugin(fit_result, deriv):
    """Residual-based plug-in variance of the functional.

    v_hat(X_i) = b(X_i)' (B'B/n)^- deriv, and the variance is
    n^{-1} sum v_hat(X_i)^2 resid_i^2.  All-zero residuals are degenerate.
    """
    residuals = fit_result.residuals
    if not np.any(residuals != 0.0):
        raise NumericError("degenerate variance: all residuals are zero")
    coeffs, _ = fit_result.gram_factor.solve(deriv)
    v_hat = fit_result.design @ coeffs
    return float(np.mean((v_hat * residuals) ** 2))


def sieve_variance_oracle(basis, gram, deriv, sigma2, density, quad=None):
    """Population variance with known conditional variance function.

    deriv' G^{-1} Omega G^{-1} deriv with
    Omega = int sigma2(y) b(y) b(y)' f(y) dy by quadrature.
    """
    from .quadrature import weighted_basis_gram
    if quad is None:
        quad = basis_quadrature(basis)
    omega = weighted_basis_gram(
        basis, quad,
        point_weight=lambda pts: np.asarray(sigma2(pts), float) * density(pts))
    coeffs, _, _ = riesz_representer(gram, np.asarray(deriv, float))
    return float(coeffs @ omega @ coeffs)


def omega_hat(fit_result, gram):
    """Whitened residual-weighted second-moment matrix (diagnostic).

    B_tilde' diag(resid^2) B_tilde / n where B_tilde whitens by G^{-1/2};
    its distance to its population counterpart is monitored, not assumed.
    """
    design = fit_result.design
    tilde = design @ GramFactor(gram).inv_sqrt()
    r2 = fit_result.residuals ** 2
    return tilde.T @ (tilde * r2[:, None]) / design.shape[0]


def t_statistic(fhat, f0, vk_hat, n):
    """sqrt(n) (f(h_hat) - f0) / sqrt(V_hat)."""
    if vk_hat <= 0.0:
        raise NumericError("degenerate variance: V_hat must be positive")
    return float(np.sqrt(n) * (fhat - f0) / np.sqrt(vk_hat))


def confidence_interval(fhat, vk_hat, n, level=0.95):
    if vk_hat <= 0.0:
        raise NumericError("degenerate variance: V_hat must be positive")
    z = norm.ppf(0.5 + level / 2.0)
    half = z * np.sqrt(vk_hat / n)
    return (float(fhat - half), float(fhat + half))


@dataclass
class FunctionalReport:
    """Point estimate, representer, variance, and interval for a functional."""

    fhat: float
    deriv: np.ndarray
    riesz_coeffs: np.ndarray
    vk_hat: float
    ci: tuple
    n: int
    level: float
    tstat: float = np.nan
    f0: float = None
    clamped: bool = False
    rank_deficient: bool = False

    def to_jsonable(self):
        return {
            "fhat": self.fhat,
            "vk_hat": self.vk_hat,
            "tstat": None if np.isnan(self.tstat) else self.tstat,
            "f0": self.f0,
            "ci_lo": self.ci[0],
            "ci_hi": self.ci[1],
            "level": self.level,
            "n": self.n,
            "clamped": self.clamped,
            "rank_deficient": self.rank_deficient,
        }


def functional_report(fit_result, spec, f0=None, level=0.95, quad=None):
    """Full plug-in inference for one functional of one fit.

    The t statistic against the true value is only meaningful in
    simulation, so it is filled only when f0 is given.
    """
    basis = fit_result.basis
    fhat, clamped = spec.value(fit_result.predict, basis=basis, quad=quad)
    deriv = spec.derivative(basis, h=fit_result.predict, quad=quad)
    n = fit_result.design.shape[0]
    riesz_coeffs, flagged = fit_result.gram_factor.solve(deriv)
    vk_hat = sieve_variance_plugin(fit_result, deriv)
    ci = confidence_interval(fhat, vk_hat, n, level=level)
    tstat = np.nan if f0 is None else t_statistic(fhat, f0, vk_hat, n)
    return FunctionalReport(fhat=fhat, deriv=deriv, riesz_coeffs=riesz_coeffs,
                            vk_hat=vk_hat, ci=ci, n=n, level=level,
                            tstat=tstat, f0=f0, clamped=clamped,
                            rank_deficient=flagged or fit_result.rank_deficient)
