import numpy as np
import pytest

from sievereg.basis import BasisSpec, build_basis
from sievereg.estimator import fit, smooth_trig
from sievereg.gram import NumericError, theoretical_gram
from sievereg.inference import (FunctionalSpec, confidence_interval,
                                functional_report, riesz_representer,
                                sieve_variance_oracle, sieve_variance_plugin,
                                t_statistic)
from sievereg.quadrature import basis_quadrature, uniform_density

UNIFORM = uniform_density()


@pytest.fixture(scope="module")
def haar2():
    basis = build_basis(BasisSpec.wavelet(1, 2))
    return basis, theoretical_gram(basis, UNIFORM)


def test_point_eval_derivative_is_basis_vector(haar2):
    basis, _ = haar2
    spec = FunctionalSpec.point_eval(0.3)
    assert np.array_equal(spec.derivative(basis), basis.evaluate(0.3))
    assert spec.linear


def test_representer_orthonormal_case(haar2):
    basis, gram = haar2
    spec = FunctionalSpec.point_eval(0.3)
    coeffs, norm_sq, flagged = riesz_representer(gram, spec.derivative(basis))
    assert np.allclose(coeffs, basis.evaluate(0.3), atol=1e-10)
    assert norm_sq == pytest.approx(np.sum(basis.evaluate(0.3) ** 2), abs=1e-10)
    assert not flagged


def test_representer_integral_weight_is_constant_one(haar2):
    basis, gram = haar2
    spec = FunctionalSpec.integral()
    coeffs, norm_sq, _ = riesz_representer(gram, spec.derivative(basis))
    grid = np.linspace(0, 1, 201).reshape(-1, 1)
    assert np.max(np.abs(basis.evaluate(grid) @ coeffs - 1.0)) < 1e-10
    assert norm_sq == pytest.approx(1.0, abs=1e-10)


def test_integral_refuses_x0_and_points_need_it():
    with pytest.raises(ValueError, match="`x0`"):
        FunctionalSpec("integral", x0=np.array([0.5]))
    with pytest.raises(ValueError, match="`x0`"):
        FunctionalSpec("point_eval")


def test_x0_is_kept_as_a_float_array():
    spec = FunctionalSpec("point_eval", x0=1)
    assert spec.x0.dtype == float and spec.x0.tolist() == [1.0]
    assert np.array_equal(FunctionalSpec.point_eval(1).x0, spec.x0)


def test_integral_value_needs_a_rule(haar2):
    # without `quad` or `basis` there is no rule to integrate h on
    basis, _ = haar2
    spec = FunctionalSpec.integral()
    with pytest.raises(ValueError, match="`quad`"):
        spec.value(smooth_trig)
    one = spec.value(lambda pts: np.ones(len(pts)), basis)[0]
    assert one == pytest.approx(1.0, abs=1e-12)


def test_representer_property_random_directions(haar2):
    # E_quad[v* v] recovers the functional derivative for span elements
    basis, gram = haar2
    quad = basis_quadrature(basis)
    vals_q = basis.evaluate(quad.nodes)
    rng = np.random.default_rng(12)
    for spec in (FunctionalSpec.point_eval(0.41),
                 FunctionalSpec.integral()):
        deriv = spec.derivative(basis, quad=quad)
        coeffs, _, _ = riesz_representer(gram, deriv)
        vstar_q = vals_q @ coeffs
        for _ in range(50):
            direction = rng.normal(size=basis.size)
            v_q = vals_q @ direction
            lhs = float(np.sum(quad.weights * vstar_q * v_q))
            rhs = float(deriv @ direction)
            assert abs(lhs - rhs) <= 1e-8 * np.linalg.norm(direction)


def test_constant_basis_representer():
    basis = build_basis(BasisSpec.power(0))
    gram = theoretical_gram(basis, UNIFORM)
    spec = FunctionalSpec.point_eval(0.3)
    coeffs, norm_sq, _ = riesz_representer(gram, spec.derivative(basis))
    # representer is the constant function with E[v* c] = c for constants
    assert basis.evaluate(0.9) @ coeffs == pytest.approx(1.0)
    assert norm_sq == pytest.approx(1.0)


def test_oracle_variance_haar_point(haar2):
    basis, gram = haar2
    spec = FunctionalSpec.point_eval(0.3)
    vk = sieve_variance_oracle(basis, gram, spec.derivative(basis),
                               lambda pts: np.ones(pts.shape[0]), UNIFORM)
    assert vk == pytest.approx(4.0, abs=1e-8)


def test_plugin_variance_constant_residual_identity(haar2):
    basis, _ = haar2
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, 64)
    y = rng.normal(size=64)
    res = fit(basis, x, y)
    c = 0.37
    res.residuals = np.full(64, c)
    spec = FunctionalSpec.point_eval(0.3)
    deriv = spec.derivative(basis)
    vk = sieve_variance_plugin(res, deriv)
    design = basis.evaluate(x)
    coeffs, _, _ = riesz_representer(design.T @ design / 64, deriv)
    vhat = design @ coeffs
    assert vk == pytest.approx(c ** 2 * np.mean(vhat ** 2))


def test_plugin_variance_residual_scaling(haar2):
    # doubling the noise scales the plug-in variance by exactly 4 when the
    # target sits in the span (its projection residual is then zero)
    basis, _ = haar2
    rng = np.random.default_rng(14)
    x = rng.uniform(0, 1, 256)
    h0 = basis.evaluate(x) @ np.array([0.5, -0.2, 0.8, 0.1])
    eps = rng.normal(size=256)
    spec = FunctionalSpec.point_eval(0.3)
    deriv = spec.derivative(basis)
    v1 = sieve_variance_plugin(fit(basis, x, h0 + eps), deriv)
    v2 = sieve_variance_plugin(fit(basis, x, h0 + 2 * eps), deriv)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-9)


def test_degenerate_variance_raises(haar2):
    basis, _ = haar2
    x = np.array([0.125, 0.375, 0.625, 0.875])
    res = fit(basis, x, np.array([1.0, 2.0, 3.0, 4.0]))  # interpolates
    with pytest.raises(NumericError, match="degenerate"):
        sieve_variance_plugin(res, basis.evaluate(0.3))


def test_t_statistic_and_interval():
    assert t_statistic(1.3, 1.3, 2.0, 100) == 0.0
    lo, hi = confidence_interval(1.0, 4.0, 400, level=0.95)
    assert lo == pytest.approx(1.0 - 1.959963984540054 * 0.1)
    assert hi == pytest.approx(1.0 + 1.959963984540054 * 0.1)
    assert lo < 1.0 < hi
    with pytest.raises(NumericError):
        t_statistic(1.0, 0.0, 0.0, 10)


def test_normal_quantile_equals_scipy_stats_bit_for_bit():
    # with V_hat = n the half-width is the critical value times sqrt(1.0)
    from scipy.stats import norm
    for level in (0.8, 0.9, 0.95, 0.99):
        assert confidence_interval(0.0, 1.0, 1, level)[1] == norm.ppf(
            0.5 + level / 2.0)
    levels = np.linspace(0.0, 1.0, 10**4 + 2)[1:-1]
    got = np.array([confidence_interval(0.0, 7.0, 7, level)[1]
                    for level in levels])
    assert np.array_equal(got, norm.ppf(0.5 + levels / 2.0))


def test_nonlinear_exp_eval(haar2):
    basis, _ = haar2
    spec = FunctionalSpec.nonlinear_exp_eval(0.37)
    zero = lambda pts: np.zeros(pts.shape[0])
    value, clamped = spec.value(zero)
    deriv = spec.derivative(basis, h=zero)
    assert value == 1.0 and not clamped
    assert np.array_equal(deriv, basis.evaluate(0.37))
    const = lambda pts: np.full(pts.shape[0], 2.5)
    value, _ = spec.value(const)
    assert value == pytest.approx(np.exp(2.5))
    huge = lambda pts: np.full(pts.shape[0], 120.0)
    value, clamped = spec.value(huge)
    assert clamped and value == pytest.approx(np.exp(50.0))
    with pytest.raises(ValueError):
        spec.derivative(basis)


def test_nonlinear_derivative_finite_difference(haar2):
    # central differences of f along each basis direction
    basis, _ = haar2
    spec = FunctionalSpec.nonlinear_exp_eval(0.37)
    coeffs = np.array([0.2, -0.1, 0.4, 0.05])

    def h_of(c):
        return lambda pts: basis.evaluate(pts) @ c

    deriv = spec.derivative(basis, h=h_of(coeffs))
    step = 1e-6
    for k in range(basis.size):
        up = coeffs.copy(); up[k] += step
        dn = coeffs.copy(); dn[k] -= step
        vu, _ = spec.value(h_of(up))
        vd, _ = spec.value(h_of(dn))
        assert abs((vu - vd) / (2 * step) - deriv[k]) < 1e-6


def test_variance_invariant_under_reparameterization():
    from tests.test_estimator import _TransformedBasis
    basis = build_basis(BasisSpec.bspline(3, 5))
    rng = np.random.default_rng(15)
    x = rng.uniform(0, 1, 400)
    y = smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 0.5, 400)
    mat = rng.uniform(-1, 1, (basis.size, basis.size)) + 2 * np.eye(basis.size)
    spec = FunctionalSpec.point_eval(0.42)
    v1 = sieve_variance_plugin(fit(basis, x, y), spec.derivative(basis))
    tbasis = _TransformedBasis(basis, mat)
    v2 = sieve_variance_plugin(fit(tbasis, x, y), spec.derivative(tbasis))
    assert v2 == pytest.approx(v1, rel=1e-9)


def test_report_fields_and_positivity(haar2):
    basis, _ = haar2
    rng = np.random.default_rng(16)
    x = rng.uniform(0, 1, 500)
    y = smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 1, 500)
    res = fit(basis, x, y)
    f0 = float(smooth_trig(np.array([[0.3]]))[0])
    report = functional_report(res, FunctionalSpec.point_eval(0.3), f0=f0)
    assert report.vk_hat > 0.0
    assert report.ci[0] < report.fhat < report.ci[1]
    assert np.isfinite(report.tstat)
    assert report.n == 500 and report.f0 == f0


class _CountingBasis:
    """Test helper: a basis that records the row count of each evaluation,
    dense or local."""

    def __init__(self, base):
        self.base = base
        self.size = base.size
        self.spec = base.spec
        self.rows = []

    def evaluate(self, x):
        vals = self.base.evaluate(x)
        self.rows.append(np.atleast_2d(vals).shape[0])
        return vals

    def local(self, x):
        local = self.base.local(x)
        self.rows.append(local.vals.shape[0])
        return local


def test_report_evaluates_design_once_per_fit(haar2):
    basis = _CountingBasis(haar2[0])
    rng = np.random.default_rng(17)
    x = rng.uniform(0, 1, 300)
    res = fit(basis, x, smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 1, 300))
    functional_report(res, FunctionalSpec.point_eval(0.3))
    assert basis.rows.count(300) == 1


def test_plugin_consistent_for_oracle_variance():
    # medians over replications stay within 5% of the oracle value
    basis = build_basis(BasisSpec.wavelet(1, 3))
    gram = theoretical_gram(basis, UNIFORM)
    spec = FunctionalSpec.point_eval(0.3)
    deriv = spec.derivative(basis)
    oracle = sieve_variance_oracle(basis, gram, deriv,
                                   lambda pts: np.ones(pts.shape[0]), UNIFORM)
    rels = []
    for rep in range(50):
        rng = np.random.default_rng([77, rep])
        x = rng.uniform(0, 1, 20000)
        y = smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 1, 20000)
        vk = sieve_variance_plugin(fit(basis, x, y), deriv)
        rels.append(abs(vk / oracle - 1.0))
    assert np.median(rels) < 0.05


@pytest.mark.parametrize("spec", [
    FunctionalSpec.point_eval(0.37), FunctionalSpec.nonlinear_exp_eval(0.37),
    FunctionalSpec.integral()],
    ids=["point_eval", "nonlinear_exp_eval", "integral"])
def test_report_linear_part_bitwise(spec):
    # one linear part on the basis' rule for many fits gives the bits of
    # building it per call, and of the per-call value and derivative
    basis = build_basis(BasisSpec.bspline(3, 6))
    quad = basis_quadrature(basis)
    part = spec.linear_part(basis, quad)
    rng = np.random.default_rng(18)
    for _ in range(3):
        x = rng.uniform(0, 1, 300)
        res = fit(basis, x, smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 1, 300))
        shared = functional_report(res, spec, f0=0.5, part=part)
        alone = functional_report(res, spec, f0=0.5)
        for got in (shared, alone):
            assert (got.fhat, got.clamped) == spec.value(res.predict, basis, quad)
            assert np.array_equal(
                got.deriv, spec.derivative(basis, h=res.predict, quad=quad))
        assert np.array_equal(shared.deriv, alone.deriv)
        assert (shared.fhat, shared.vk_hat, shared.ci, shared.tstat) == (
            alone.fhat, alone.vk_hat, alone.ci, alone.tstat)
        # the report hands its representer to the plug-in variance, with
        # the bits of the plug-in solving for it again
        assert shared.vk_hat == sieve_variance_plugin(res, shared.deriv)
