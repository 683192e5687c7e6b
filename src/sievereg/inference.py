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
from scipy.special import ndtri

from .basis import ConfigurationError, _check_real
from .gram import GramFactor, NumericError
from .quadrature import basis_quadrature

EXP_CLAMP = 50.0


@dataclass(frozen=True)
class FunctionalSpec:
    """Functional of the fitted function: evaluation, integral, or exp-eval.

    kind is one of "point_eval" (h -> h(x0)), "integral"
    (h -> int over [0, 1]^d of h, Lebesgue), "nonlinear_exp_eval"
    (h -> exp(h(x0))).  The first two are linear: their derivative vector
    does not depend on h.  A given x0 is kept as a float array.
    """

    kind: str
    x0: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("point_eval", "integral", "nonlinear_exp_eval"):
            raise ConfigurationError(f"unknown functional kind {self.kind!r}")
        if (self.kind == "integral") != (self.x0 is None):
            need = "takes no" if self.x0 is not None else "needs the"
            raise ConfigurationError(f"{self.kind} {need} evaluation point `x0`")
        if self.x0 is not None:
            _check_real(x0=self.x0)
            object.__setattr__(self, "x0", np.array(self.x0, float, ndmin=1))

    @property
    def linear(self):
        return self.kind in ("point_eval", "integral")

    @staticmethod
    def point_eval(x0):
        return FunctionalSpec(kind="point_eval", x0=x0)

    @staticmethod
    def integral():
        return FunctionalSpec(kind="integral")

    @staticmethod
    def nonlinear_exp_eval(x0):
        return FunctionalSpec(kind="nonlinear_exp_eval", x0=x0)

    def _points(self, basis, quad):
        """Where the linear part looks and how it weighs: x0 as one row and
        no weights, or the nodes and weights of `quad` (default: the basis'
        rule)."""
        if self.kind != "integral":
            return self.x0.reshape(1, -1), None
        if quad is None:
            if basis is None:
                raise ValueError("integral needs a quadrature rule: `quad` "
                                 "or the `basis` whose rule it takes")
            quad = basis_quadrature(basis)
        return quad.nodes, quad.weights

    def linear_part(self, basis, quad=None):
        """(design, weights): the basis at the points of the linear part,
        the (1, K) row b(x0) or the (m, K) design at the quadrature nodes.
        It depends on no fit, so a study builds it once per basis and hands
        it to every `functional_report`."""
        pts, wq = self._points(basis, quad)
        return basis.evaluate(pts), wq

    @staticmethod
    def _apply(gv, wq):
        """The linear part of values (m,) or of a design (m, K) at its
        points: row 0, or the weighted sum (a pairwise sum for values, one
        gemv for a design)."""
        if wq is None:
            return np.atleast_1d(gv)[0]
        gv = np.asarray(gv, dtype=float)
        return gv.T @ wq if gv.ndim == 2 else np.sum(wq * gv)

    def _outer(self, hx):
        """(f(h), clamped_flag) from the linear part hx of h."""
        hx = float(hx)
        if self.linear:
            return hx, False
        return float(np.exp(np.clip(hx, -EXP_CLAMP, EXP_CLAMP))), abs(hx) > EXP_CLAMP

    def value(self, h, basis=None, quad=None):
        """f(h) for an evaluator h; returns (value, clamped_flag).  The exp
        functional clamps |h(x0)| at EXP_CLAMP and flags the clamp."""
        pts, wq = self._points(basis, quad)
        return self._outer(self._apply(h(pts), wq))

    def derivative(self, basis, h=None, quad=None):
        """K-vector of pathwise derivatives along the basis directions."""
        deriv = self._apply(*self.linear_part(basis, quad))
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


def sieve_variance_plugin(fit_result, deriv, *, coeffs=None):
    """Residual-based plug-in variance of the functional.

    v_hat(X_i) = b(X_i)' (B'B/n)^- deriv, and the variance is
    n^{-1} sum v_hat(X_i)^2 resid_i^2.  All-zero residuals are degenerate.
    `coeffs` is (B'B/n)^- deriv from the fit's `gram_factor.solve(deriv)`
    when the caller already has it.
    """
    residuals = fit_result.residuals
    if not np.any(residuals != 0.0):
        raise NumericError("degenerate variance: all residuals are zero")
    if coeffs is None:
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


def t_statistic(fhat, f0, vk_hat, n):
    """sqrt(n) (f(h_hat) - f0) / sqrt(V_hat)."""
    if vk_hat <= 0.0:
        raise NumericError("degenerate variance: V_hat must be positive")
    return float(np.sqrt(n) * (fhat - f0) / np.sqrt(vk_hat))


def confidence_interval(fhat, vk_hat, n, level=0.95):
    if vk_hat <= 0.0:
        raise NumericError("degenerate variance: V_hat must be positive")
    half = ndtri(0.5 + level / 2.0) * np.sqrt(vk_hat / n)
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


def functional_report(fit_result, spec, f0=None, level=0.95, part=None):
    """Full plug-in inference for one functional of one fit.

    `part` is the functional's `linear_part` on the fit's basis (built here
    on the basis' own rule when not given); a study builds it once for all
    its fits.  The t statistic against the true value is only meaningful
    in simulation, so it is filled only when f0 is given.
    """
    design, wq = spec.linear_part(fit_result.basis) if part is None else part
    fhat, clamped = spec._outer(spec._apply(design @ fit_result.coeffs, wq))
    deriv = spec._apply(design, wq)
    if not spec.linear:
        deriv = fhat * deriv          # d exp(h(x0)) = exp(h(x0)) b(x0)
    n = fit_result.residuals.size
    riesz_coeffs, flagged = fit_result.gram_factor.solve(deriv)
    vk_hat = sieve_variance_plugin(fit_result, deriv, coeffs=riesz_coeffs)
    ci = confidence_interval(fhat, vk_hat, n, level=level)
    tstat = np.nan if f0 is None else t_statistic(fhat, f0, vk_hat, n)
    return FunctionalReport(fhat=fhat, deriv=deriv, riesz_coeffs=riesz_coeffs,
                            vk_hat=vk_hat, ci=ci, n=n, level=level,
                            tstat=tstat, f0=f0, clamped=clamped,
                            rank_deficient=flagged or fit_result.rank_deficient)
