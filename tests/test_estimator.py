import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievereg.basis import BasisSpec, LocalDesign, build_basis
from sievereg.estimator import (fit, fixed_design, holder_kink, l2_error,
                                project_oracle, smooth_trig, sup_error,
                                named_target)
from sievereg.gram import (GramFactor, lebesgue_constant_empirical,
                           theoretical_gram, gram_deviation,
                           empirical_gram_matrix)
from sievereg.inference import FunctionalSpec, functional_report
from sievereg.quadrature import basis_quadrature, sup_grid, uniform_density

UNIFORM = uniform_density()


class _TransformedBasis:
    """Test helper: basis composed with an invertible K x K map."""

    def __init__(self, base, mat):
        self.base = base
        self.mat = mat
        self.size = base.size
        self.spec = base.spec
        self.breakpoints_1d = base.breakpoints_1d
        self.supports = base.supports

    def evaluate(self, x):
        return self.base.evaluate(x) @ self.mat

    def local(self, x):
        vals = np.atleast_2d(self.evaluate(x))
        cols = np.broadcast_to(np.arange(self.size), vals.shape)
        return LocalDesign(cols, vals, self.size)


def test_constant_basis_fits_mean():
    basis = build_basis(BasisSpec.power(0))
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 50)
    y = rng.normal(2.0, 1.0, 50)
    res = fit(basis, x, y)
    assert res.predict(np.array([[0.3]]))[0] == pytest.approx(np.mean(y))


def test_in_span_target_reproduced():
    basis = build_basis(BasisSpec.bspline(2, 3))
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 100)
    target = 0.5 + 1.2 * x
    res = fit(basis, x, target)
    assert np.max(np.abs(res.predict(x) - target)) < 1e-10


def test_balanced_haar_coefficients():
    basis = build_basis(BasisSpec.wavelet(1, 2))
    x = np.array([0.125, 0.375, 0.625, 0.875])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    res = fit(basis, x, y)
    assert np.allclose(res.coeffs, [0.5, 1.0, 1.5, 2.0])
    assert np.allclose(res.predict(x), y)


def test_residual_orthogonality_and_idempotence():
    basis = build_basis(BasisSpec.bspline(3, 5))
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, 400)
    y = smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 0.5, 400)
    res = fit(basis, x, y)
    design = basis.evaluate(x)
    assert np.max(np.abs(design.T @ res.residuals)) <= 1e-8 * np.linalg.norm(y)
    again = fit(basis, x, res.predict(x))
    assert np.max(np.abs(again.coeffs - res.coeffs)) < 1e-10


def test_non_finite_response_rejected():
    basis = build_basis(BasisSpec.bspline(2, 3))
    x = np.linspace(0.05, 0.95, 20)
    y = np.sin(x)
    y[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fit(basis, x, y)


def test_linearity_of_fit():
    basis = build_basis(BasisSpec.trig(3))
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 200)
    y1 = rng.normal(size=200)
    y2 = rng.normal(size=200)
    c1 = fit(basis, x, y1).coeffs
    c2 = fit(basis, x, y2).coeffs
    c12 = fit(basis, x, y1 + y2).coeffs
    assert np.allclose(c12, c1 + c2, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from([BasisSpec.bspline(3, 5), BasisSpec.wavelet(1, 3),
                             BasisSpec.wavelet(2, 3), BasisSpec.trig(3),
                             BasisSpec.power(5)]),
       seed=st.integers(0, 2 ** 32 - 1), cond=st.floats(1.0, 100.0))
def test_invariance_under_reparameterization(spec, seed, cond):
    # the fit depends on the span only: composing the basis with an
    # invertible map M of condition number `cond` leaves predictions alone
    basis = build_basis(spec)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, 300)
    y = smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 0.3, 300)
    k = basis.size
    q1, _ = np.linalg.qr(rng.normal(size=(k, k)))
    q2, _ = np.linalg.qr(rng.normal(size=(k, k)))
    mat = (q1 * np.geomspace(1.0, cond, k)) @ q2.T
    grid = np.linspace(0, 1, 257).reshape(-1, 1)
    p1 = fit(basis, x, y).predict(grid)
    p2 = fit(_TransformedBasis(basis, mat), x, y).predict(grid)
    assert np.max(np.abs(p1 - p2)) <= 1e-9 * np.max(np.abs(p1))


def test_rank_deficiency_flagged_not_fatal():
    basis = build_basis(BasisSpec.wavelet(1, 3))
    x = np.full(10, 0.3)
    y = np.ones(10)
    res = fit(basis, x, y)
    assert res.rank_deficient
    assert np.isfinite(res.coeffs).all()


def test_fewer_points_than_functions_has_infinite_cond():
    # lstsq returns min(n, K) = 3 singular values for K = 5: the design's
    # condition number is infinite although all three are positive
    basis = build_basis(BasisSpec.bspline(3, 2))
    res = fit(basis, np.array([0.1, 0.5, 0.9]), np.array([1.0, 2.0, 0.5]))
    assert (res.rank, basis.size) == (3, 5) and res.rank_deficient
    assert res.cond == np.inf


@pytest.mark.parametrize("spec, lo, hi", [
    (BasisSpec.bspline(3, 17), 0.0, 1.0),
    (BasisSpec.wavelet(1, 5), 0.0, 1.0),
    (BasisSpec.wavelet(2, 5), 0.0, 1.0),
    (BasisSpec.power(6), 0.0, 1.0),
    # design condition number ~8e5, beyond the normal-equations threshold
    (BasisSpec.power(6), 0.0, 0.3),
])
def test_fit_matches_lstsq(spec, lo, hi):
    basis = build_basis(spec)
    rng = np.random.default_rng(6)
    x = rng.uniform(lo, hi, 2000)
    y = smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 0.5, 2000)
    res = fit(basis, x, y)
    design = basis.evaluate(x)
    coeffs, _, rank, svals = np.linalg.lstsq(
        design, y, rcond=basis.size * np.finfo(float).eps)
    assert res.rank == rank == basis.size and not res.rank_deficient
    assert np.max(np.abs(res.coeffs - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))
    assert res.cond == pytest.approx(svals[0] / svals[-1], rel=1e-12)


def test_fit_and_report_factor_the_gram_once_without_svd(monkeypatch):
    # one GramFactor per fit and report; a Haar Gram is diagonal and takes no
    # eigh, an order-3 spline Gram takes exactly one
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 500)
    y = smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 0.5, 500)
    factors, eighs = [], []
    init, eigh = GramFactor.__init__, np.linalg.eigh

    def counting_init(self, *args, **kwargs):
        factors.append(1)
        init(self, *args, **kwargs)

    def counting_eigh(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD path taken")

    monkeypatch.setattr(GramFactor, "__init__", counting_init)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "lstsq", no_svd)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for spec, n_eigh in ((BasisSpec.wavelet(1, 4), 0),
                         (BasisSpec.bspline(3, 9), 1)):
        factors.clear(), eighs.clear()
        res = fit(build_basis(spec), x, y)
        report = functional_report(res, FunctionalSpec.point_eval([0.3]),
                                   f0=0.0)
        assert len(factors) == 1 and len(eighs) == n_eigh, spec
        assert np.isfinite(report.vk_hat) and not report.rank_deficient


def test_oracle_projection_and_variance_term_linearity():
    basis = build_basis(BasisSpec.bspline(3, 4))
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, 500)
    h0 = smooth_trig
    noise = rng.normal(0, 1, 500)
    proj = project_oracle(basis, x, h0)
    noisy = fit(basis, x, h0(x.reshape(-1, 1)) + noise)
    noise_only = fit(basis, x, noise)
    grid = np.linspace(0, 1, 513).reshape(-1, 1)
    lhs = noisy.predict(grid) - proj.predict(grid)
    assert np.max(np.abs(lhs - noise_only.predict(grid))) < 1e-10


def test_in_span_oracle_projection_exact():
    basis = build_basis(BasisSpec.bspline(2, 3))
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 100)
    proj = project_oracle(basis, x, lambda pts: 2.0 - pts[:, 0])
    assert np.max(np.abs(proj.predict(x) - (2.0 - x))) < 1e-10


def _best_sup_candidate(basis, h0, grid, iters=6):
    """Upper bound on the best sup-norm approximation from the span:
    reweighted least squares pushes weight onto the worst points."""
    vals = basis.evaluate(grid)
    target = h0(grid)
    w = np.ones(grid.shape[0])
    best = np.inf
    for _ in range(iters):
        sw = np.sqrt(w)[:, None]
        coef, *_ = np.linalg.lstsq(vals * sw, target * sw[:, 0], rcond=None)
        resid = np.abs(target - vals @ coef)
        best = min(best, float(np.max(resid)))
        w = w * (0.1 + resid / np.max(resid))
    return best


def test_projection_bounded_by_lebesgue_times_best_approx():
    basis = build_basis(BasisSpec.bspline(3, 5))
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, 2000)
    grid = sup_grid(basis)
    proj = project_oracle(basis, x, smooth_trig)
    err = np.max(np.abs(proj.predict(grid) - smooth_trig(grid)))
    leb = lebesgue_constant_empirical(basis, x,
                                      grid=basis.local(grid)).value
    bestinf = _best_sup_candidate(basis, smooth_trig, grid)
    assert err <= (1.0 + leb) * bestinf + 1e-12


def test_sup_and_l2_error_examples():
    basis = build_basis(BasisSpec.bspline(2, 6))
    grid = sup_grid(basis)
    quad = basis_quadrature(basis)
    f = lambda pts: np.sin(2 * np.pi * pts[:, 0])
    assert sup_error(f(grid), f(grid)) == 0.0
    assert sup_error(np.full(grid.shape[0], 0.7),
                     np.zeros(grid.shape[0])) == pytest.approx(0.7)
    zero = np.zeros(quad.nodes.shape[0])
    assert l2_error(np.full_like(zero, 0.7), zero, UNIFORM,
                    quad=quad) == pytest.approx(0.7)
    assert l2_error(f(quad.nodes), zero, UNIFORM, quad=quad) == pytest.approx(
        1 / np.sqrt(2), abs=1e-10)


def test_norm_equivalence_bounded_by_dev():
    basis = build_basis(BasisSpec.wavelet(1, 4))
    gram = theoretical_gram(basis, UNIFORM)
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, 3000)
    y = smooth_trig(x.reshape(-1, 1)) + rng.normal(0, 1, 3000)
    res = fit(basis, x, y)
    dev = gram_deviation(gram, empirical_gram_matrix(basis, x))
    quad = basis_quadrature(basis)
    fitted = res.predict(x)
    emp_sq = float(np.mean(fitted ** 2))
    vals = res.predict(quad.nodes)
    th_sq = float(np.sum(quad.weights * vals * vals))
    assert abs(emp_sq / th_sq - 1.0) <= dev + 1e-12


def test_named_target_registry():
    assert named_target("smooth_trig", p=2.0) is smooth_trig
    hp = named_target("holder", p=1.5)
    pts = np.array([[0.2], [0.5], [0.9]])
    assert np.array_equal(hp(pts), holder_kink(1.5)(pts))
    with pytest.raises(ValueError):
        named_target("mystery", p=2.0)
    with pytest.raises(ValueError, match="positive"):
        named_target("holder", p=0.0)
    with pytest.raises(ValueError):
        holder_kink(0.0)


def test_holder_kink_integer_vs_fractional():
    frac = holder_kink(1.5)
    integer = holder_kink(2.0)

    def core(fn, x):
        pts = np.array([[x]])
        return fn(pts)[0] - 0.25 * np.sin(2 * np.pi * x)

    # fractional exponent: kink part is even around the center
    assert core(frac, 0.7) == pytest.approx(core(frac, 0.3))
    # integer exponent: signed power keeps the kink by being odd instead
    assert core(integer, 0.7) == pytest.approx(-core(integer, 0.3))


def test_two_dimensional_fit_reproduces_span_element():
    basis = build_basis(BasisSpec.bspline(2, 1, dim=2))
    rng = np.random.default_rng(30)
    x = rng.uniform(0, 1, (300, 2))
    target = 0.4 + 0.9 * x[:, 0] - 1.3 * x[:, 1]  # bilinear-free, in span
    res = fit(basis, x, target)
    grid = rng.uniform(0, 1, (50, 2))
    want = 0.4 + 0.9 * grid[:, 0] - 1.3 * grid[:, 1]
    assert np.max(np.abs(res.predict(grid) - want)) < 1e-9


@pytest.mark.parametrize("spec", [
    BasisSpec.bspline(3, 6), BasisSpec.wavelet(1, 3), BasisSpec.wavelet(2, 3),
    BasisSpec.power(4), BasisSpec.bspline(3, 2, dim=2)],
    ids=["bspline", "haar", "d2", "power", "bspline_2d"])
def test_predict_on_fixed_design_bitwise(spec):
    # a design evaluated once gives every fit the bits of evaluating again
    basis = build_basis(spec)
    rng = np.random.default_rng(31)
    dim = spec.dim
    grid = sup_grid(basis)
    nodes = basis_quadrature(basis).nodes
    at_grid, at_nodes = fixed_design(basis, grid), fixed_design(basis, nodes)
    for _ in range(3):
        x = rng.uniform(0, 1, (400, dim))
        res = fit(basis, x, smooth_trig(x) + rng.normal(0, 0.3, 400))
        assert np.array_equal(res.predict(at_grid), res.predict(grid))
        assert np.array_equal(res.predict(at_nodes), res.predict(nodes))
    # a LocalDesign from basis.local is scattered, then takes the same product
    assert np.array_equal(res.predict(basis.local(grid)), res.predict(grid))


@pytest.mark.parametrize("spec", [
    BasisSpec.bspline(1, 5), BasisSpec.bspline(2, 5), BasisSpec.bspline(3, 5),
    BasisSpec.bspline(4, 5), BasisSpec.wavelet(1, 4), BasisSpec.wavelet(2, 4),
    BasisSpec.wavelet(3, 4), BasisSpec.trig(4), BasisSpec.power(6),
    BasisSpec.bspline(3, 3, dim=2), BasisSpec.wavelet(2, 3, dim=2)],
    ids=["spline1", "spline2", "spline3", "spline4", "haar", "d2", "d3",
         "trig", "power", "spline_2d", "d2_2d"])
def test_local_products_match_dense(spec, monkeypatch):
    # LocalDesign @ c (sample design and fixed_design wrapper) and fit's
    # bincount B'y are the dense products up to rounding: a sum of m terms
    # is within m eps of their absolute sum, on each side
    basis = build_basis(spec)
    rng = np.random.default_rng(32)
    n, eps = 3000, np.finfo(float).eps
    x = rng.uniform(0, 1, (n, spec.dim))
    y = rng.standard_normal(n)
    c = rng.standard_normal(basis.size)
    dense = basis.evaluate(x)
    for design in (basis.local(x), fixed_design(basis, x)):
        assert np.array_equal(design.dense(), dense)
        bound = 2 * basis.size * eps * (np.abs(dense) @ np.abs(c))
        assert np.all(np.abs(design @ c - dense @ c) <= bound)
    rhs, solve = [], GramFactor.solve
    monkeypatch.setattr(GramFactor, "solve",
                        lambda self, b: rhs.append(b) or solve(self, b))
    res = fit(basis, x, y)
    bound = 2 * n * eps * (np.abs(dense.T) @ np.abs(y)) / n
    assert np.all(np.abs(rhs[0] - dense.T @ y / n) <= bound)
    # the fit holds the local design only: w**d values per point
    assert isinstance(res.design, LocalDesign)
    assert res.design.vals.shape == basis.local(x).vals.shape
    assert np.array_equal(res.residuals, y - res.design @ res.coeffs)


def test_fit_mismatched_responses_raise():
    basis = build_basis(BasisSpec.bspline(3, 4))
    x = np.linspace(0, 1, 50)
    for y in (np.ones(1), np.ones(49), np.ones((50, 1))):
        with pytest.raises(ValueError, match="responses for 50 points"):
            fit(basis, x, y)


def test_fit_and_report_bitwise_at_1_and_2_blas_threads():
    # neither B'y, the residuals nor the plug-in variance reduces over the
    # sample through BLAS.  At n = 32000, K = 20 a BLAS gemv took other
    # last bits at 2 threads than at 1.
    code = textwrap.dedent("""
        import hashlib, numpy as np
        from sievereg import BasisSpec, build_basis, fit
        from sievereg.inference import FunctionalSpec, functional_report
        rng = np.random.default_rng(33)
        x = rng.uniform(0, 1, 32000)
        y = np.sin(6 * x) + rng.standard_normal(32000)
        res = fit(build_basis(BasisSpec.bspline(3, 17)), x, y)
        rep = functional_report(res, FunctionalSpec.point_eval([0.3]))
        print(hashlib.sha256(res.coeffs.tobytes() + res.residuals.tobytes()
                             + np.float64(rep.vk_hat).tobytes()).hexdigest())
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
