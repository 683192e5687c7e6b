import numpy as np
import pytest
import scipy.linalg

from sievereg.basis import BasisSpec, build_basis
from sievereg.gram import (DmsBound, GramFactor, NumericError, dms_bound,
                           empirical_gram, empirical_gram_matrix,
                           gram_deviation, lebesgue_constant_empirical,
                           lebesgue_constant_theoretical, theoretical_gram,
                           zeta_constant)
from sievereg.quadrature import (basis_quadrature, sine_density, sup_grid,
                                  uniform_density, weighted_basis_gram)

UNIFORM = uniform_density()


@pytest.fixture(scope="module")
def haar2():
    basis = build_basis(BasisSpec.wavelet(1, 2))
    return basis, theoretical_gram(basis, UNIFORM)


def test_haar_gram_identity(haar2):
    _, gram = haar2
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_indicator_gram_diagonal():
    basis = build_basis(BasisSpec.bspline(1, 1))
    gram = theoretical_gram(basis, UNIFORM)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-14


def test_closed_form_linear_spline_gram():
    # b = sqrt(2) * {1 - x, x}: entries from the polynomial integrals
    basis = build_basis(BasisSpec.bspline(2, 0))
    gram = theoretical_gram(basis, UNIFORM)
    expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert np.max(np.abs(gram - expected)) < 1e-14


def test_balanced_design_gram(haar2):
    basis, gram = haar2
    x = np.array([0.125, 0.375, 0.625, 0.875])
    gram_emp, report = empirical_gram(basis, x, gram)
    assert np.max(np.abs(gram_emp - np.eye(4))) < 1e-15
    assert report["dev"] < 1e-14
    assert report["zeta"] == pytest.approx(2.0)
    assert report["lambda"] == pytest.approx(1.0)
    assert report["bandwidth"] == 0


def test_dev_matches_dense_recomputation(haar2):
    # independent path: scipy sqrtm whitening plus singular values
    basis, gram = haar2
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 1, 1000)
    _, report = empirical_gram(basis, x, gram)
    white = np.real(scipy.linalg.sqrtm(np.linalg.inv(gram)))
    mid = white @ empirical_gram_matrix(basis, x) @ white
    dev_dense = np.max(scipy.linalg.svdvals(mid - np.eye(4)))
    assert abs(report["dev"] - dev_dense) < 1e-12
    # the theoretical Gram's factor stands in for the Gram itself
    emp = empirical_gram_matrix(basis, x)
    assert gram_deviation(GramFactor(gram), emp) == gram_deviation(gram, emp)


def test_deviation_of_a_stack_matches_each_matrix():
    # order-3 splines: G^{-1/2} is dense, so whitening mixes every entry
    basis = build_basis(BasisSpec.bspline(3, 9))
    factor = GramFactor(theoretical_gram(basis, UNIFORM))
    rng = np.random.default_rng(5)
    stack = np.stack([empirical_gram_matrix(basis, rng.uniform(0, 1, n))
                      for n in (40, 200, 1000, 5000, 200, 40)])
    devs = factor.deviation(stack)
    assert devs.shape == (6,)
    single = [factor.deviation(g) for g in stack]
    assert all(type(d) is float for d in single)
    assert np.allclose(devs, single, rtol=1e-14, atol=0.0)
    grid = factor.deviation(stack.reshape(2, 3, *stack.shape[1:]))
    assert np.array_equal(grid.ravel(), devs)


def test_singular_gram_error(haar2):
    basis, _ = haar2
    with pytest.raises(NumericError, match="theoretical Gram not invertible"):
        empirical_gram(basis, np.array([0.1, 0.6]), np.zeros((4, 4)))
    with pytest.raises(NumericError, match="theoretical Gram not invertible"):
        GramFactor(np.diag([1.0, 0.0])).inv_sqrt()


def _random_search_gap(basis, x, gram, draws, rng):
    """Randomized lower-bound search for the worst relative second-moment
    mismatch: iid directions plus matrix-boosted directions (still random,
    independent of the eigendecomposition under test)."""
    white = np.real(scipy.linalg.sqrtm(np.linalg.inv(gram)))
    m = white @ empirical_gram_matrix(basis, x) @ white - np.eye(basis.size)
    best = 0.0
    for _ in range(draws // 10000):
        c = rng.standard_normal((10000, basis.size))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        boosted = c @ m
        boosted /= np.maximum(np.linalg.norm(boosted, axis=1, keepdims=True),
                              1e-300)
        for cand in (c, boosted):
            vals = np.abs(np.einsum("ij,jk,ik->i", cand, m, cand))
            best = max(best, float(np.max(vals)))
    return best


def test_identifiability_gap_equals_spectral_norm(haar2):
    basis, gram = haar2
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 200)
    gap = gram_deviation(gram, empirical_gram_matrix(basis, x))
    search = _random_search_gap(basis, x, gram, 100000, rng)
    assert search <= gap + 1e-12
    assert search >= 0.99 * gap


def test_identifiability_constant_function():
    basis = build_basis(BasisSpec.power(0))
    gram = theoretical_gram(basis, UNIFORM)
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, 50)
    assert gram_deviation(gram, empirical_gram_matrix(basis, x)) < 1e-14


def test_zeta_lambda_constants():
    basis = build_basis(BasisSpec.bspline(1, 3))
    gram = theoretical_gram(basis, UNIFORM)
    assert zeta_constant(basis) == pytest.approx(2.0)
    assert GramFactor(gram).lam == pytest.approx(1.0)
    assert GramFactor(np.zeros((2, 2))).lam == np.inf
    assert GramFactor(np.zeros((2, 2))).lam == np.inf


def test_lebesgue_theoretical_haar_and_indicator():
    for spec in (BasisSpec.wavelet(1, 2), BasisSpec.wavelet(1, 3),
                 BasisSpec.bspline(1, 5)):
        basis = build_basis(spec)
        val = lebesgue_constant_theoretical(basis, UNIFORM)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_lebesgue_theoretical_power_vs_indicator_spline():
    power = build_basis(BasisSpec.power(7))
    spline = build_basis(BasisSpec.bspline(1, 7))
    lp = lebesgue_constant_theoretical(power, UNIFORM)
    ls = lebesgue_constant_theoretical(spline, UNIFORM)
    assert lp > 2.0 * ls


def test_lebesgue_empirical_balanced_haar(haar2):
    basis, _ = haar2
    x = np.array([0.125, 0.375, 0.625, 0.875])
    res = lebesgue_constant_empirical(basis, x)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert not res.rank_deficient


def test_lebesgue_empirical_sign_pattern_oracle():
    # square nonsingular design: the sign pattern of the kernel row attains
    # the operator norm at each grid point
    basis = build_basis(BasisSpec.bspline(2, 2))
    rng = np.random.default_rng(17)
    x = np.sort(rng.uniform(0, 1, basis.size))
    res = lebesgue_constant_empirical(basis, x)
    vals = basis.evaluate(x)
    kernel = np.linalg.solve(vals.T @ vals, vals.T)
    grid = np.linspace(0, 1, 2049).reshape(-1, 1)
    best = 0.0
    for pt in grid:
        row = basis.evaluate(pt[0]) @ kernel
        h = np.sign(row)
        best = max(best, abs(float(row @ h)))
    assert res.value == pytest.approx(best, rel=1e-9)


def test_lebesgue_empirical_haar_large_sample():
    basis = build_basis(BasisSpec.wavelet(1, 3))
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 5000)
    res = lebesgue_constant_empirical(basis, x)
    assert 1.0 <= res.value <= 1.2


def test_lebesgue_empirical_rank_deficient_flagged():
    basis = build_basis(BasisSpec.wavelet(1, 3))
    x = np.full(20, 0.3)  # all mass in one cell
    res = lebesgue_constant_empirical(basis, x)
    assert res.rank_deficient
    # singular PSD matrix 2 v v' with v = (1, 1)/sqrt(2): pseudo-inverse solve
    sol, flagged = GramFactor(np.ones((2, 2))).solve(np.array([2.0, 2.0]))
    assert flagged
    assert np.allclose(sol, [1.0, 1.0], rtol=0.0, atol=1e-14)


def test_dms_identity():
    res = dms_bound(np.eye(5), 2)
    assert res.kappa == pytest.approx(1.0)
    assert res.lambda_decay == pytest.approx(0.0)
    # C = ||A^{-1}|| * max(1, (1+sqrt(kappa))^2 / (2 kappa)) = 2 at kappa = 1
    assert res.C == pytest.approx(2.0)
    assert res.bound == pytest.approx(4.0)
    assert res.bound >= 1.0


def test_dms_tridiagonal():
    a = np.diag(np.full(4, 2.0)) + np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
    res = dms_bound(a, 2)
    inv = np.linalg.inv(a)
    linf = np.max(np.abs(inv).sum(axis=1))
    assert res.bound >= linf
    offsets = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    assert np.all(np.abs(inv) <= res.C * res.lambda_decay ** offsets + 1e-12)


def test_dms_haar_gram_under_sine_density():
    basis = build_basis(BasisSpec.wavelet(1, 3))
    gram = theoretical_gram(basis, sine_density(0.5))
    res = dms_bound(gram, 2)
    inv = np.linalg.inv(gram)
    assert np.isfinite(res.bound)
    assert res.bound >= np.max(np.abs(inv).sum(axis=1))


def test_dms_random_banded_decay():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(4, 24))
        half = int(rng.integers(1, 4))
        mat = np.zeros((k, k))
        for off in range(half + 1):
            vals = rng.uniform(-1, 1, k - off)
            mat += np.diag(vals, off)
            if off:
                mat += np.diag(vals, -off)
        mat += np.eye(k) * (2.0 * half + 1.5)  # diagonally dominant => SPD
        res = dms_bound(mat, 2 * half)
        inv = np.linalg.inv(mat)
        assert np.max(np.abs(inv).sum(axis=1)) <= res.bound
        offsets = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
        assert np.all(np.abs(inv) <= res.C * res.lambda_decay ** offsets + 1e-10)


def test_dms_errors():
    with pytest.raises(NumericError):
        dms_bound(np.diag([1.0, -1.0]), 2)
    with pytest.raises(ValueError, match="band violation"):
        dms_bound(np.full((4, 4), 1.0) + 3 * np.eye(4), 2)
    with pytest.raises(ValueError):
        dms_bound(np.eye(3), 3)


def test_eigenvalue_sandwich_wavelets():
    density = sine_density(0.5)
    for spec in (BasisSpec.wavelet(1, 4), BasisSpec.wavelet(2, 4)):
        basis = build_basis(spec)
        evals = np.linalg.eigvalsh(theoretical_gram(basis, density))
        assert evals[0] >= density.inf - 1e-8
        assert evals[-1] <= density.sup + 1e-8


def test_dev_scaling_with_n():
    # scaled-down version of the sqrt(n) decay check (full one in acceptance)
    basis = build_basis(BasisSpec.wavelet(1, 4))
    gram = np.eye(16)
    meds = []
    ns = [500, 2000, 8000]
    for i, n in enumerate(ns):
        devs = []
        for rep in range(10):
            rng = np.random.default_rng([4, i, rep])
            x = rng.uniform(0, 1, n)
            devs.append(gram_deviation(gram, empirical_gram_matrix(basis, x)))
        meds.append(np.median(devs))
    slope = np.polyfit(np.log(ns), np.log(meds), 1)[0]
    assert -0.75 < slope < -0.3


def test_two_dimensional_haar_gram_identity():
    basis = build_basis(BasisSpec.wavelet(1, 2, dim=2))
    gram = theoretical_gram(basis, uniform_density(dim=2))
    assert gram.shape == (16, 16)
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12


_LEBESGUE_SPECS = {
    "spline": lambda k: BasisSpec.bspline(3, k - 3),
    "d2": lambda k: BasisSpec.wavelet(2, int(np.log2(k))),
    "haar": lambda k: BasisSpec.wavelet(1, int(np.log2(k))),
    "power": lambda k: BasisSpec.power(k - 1),
    "spline-2d": lambda k: BasisSpec.bspline(3, int(np.sqrt(k)) - 3, dim=2),
}


@pytest.mark.parametrize("k", [16, 64])
@pytest.mark.parametrize("family", sorted(_LEBESGUE_SPECS))
def test_lebesgue_blocks_equal_one_shot_products(family, k):
    # the grouped kernel equals the dense product bit for bit; the grid
    # spans three evaluation chunks and a ragged last kernel block
    basis = build_basis(_LEBESGUE_SPECS[family](k))
    grid = sup_grid(basis, base_points=1100 if basis.spec.dim == 1 else 33)
    assert grid.shape[0] > 1024 and grid.shape[0] % 64
    quad = basis_quadrature(basis, max_nodes_1d=2 ** 12)
    bx = basis.evaluate(grid)
    gram = weighted_basis_gram(basis, quad, point_weight=UNIFORM)
    wq = quad.weights * UNIFORM(quad.nodes)
    half, _ = GramFactor(gram).solve(basis.evaluate(quad.nodes).T)
    one_shot = float(np.max(np.sum(np.abs(bx @ half) * wq, axis=1)))
    assert lebesgue_constant_theoretical(basis, UNIFORM, quad=quad,
                                         grid=grid) == one_shot
    x = np.random.default_rng(k).uniform(0, 1, (3000, basis.spec.dim))
    vals = basis.evaluate(x)
    half, _ = GramFactor(vals.T @ vals).solve(vals.T)
    one_shot = float(np.max(np.sum(np.abs(bx @ half), axis=1)))
    assert lebesgue_constant_empirical(basis, x, grid=grid).value == one_shot


@pytest.mark.parametrize("spec,box", [
    (BasisSpec.bspline(3, 13), None),
    (BasisSpec.bspline(4, 9), (0.15, 0.8)),
    (BasisSpec.wavelet(2, 5), None),
    (BasisSpec.wavelet(3, 4), (0.3, 0.9)),
    (BasisSpec.wavelet(1, 5), None),
    (BasisSpec.power(9), None),
    (BasisSpec.bspline(3, 3, dim=2), (0.1, 0.7)),
    (BasisSpec.wavelet(2, 3, dim=2), None),
], ids=["spline", "spline-box", "d2", "d3-box", "haar", "power", "spline-2d",
        "d2-2d"])
def test_grouped_gram_matches_dense_accumulation(spec, box):
    basis = build_basis(spec)
    if box is not None:
        basis = basis.with_weight_box(*box)
    quad = basis_quadrature(basis, max_nodes_1d=2 ** 12 if spec.dim == 1
                            else 2 ** 7)
    density = sine_density(0.4, dim=spec.dim)
    vals = basis.evaluate(quad.nodes)
    dense = vals.T @ (vals * (quad.weights * density(quad.nodes))[:, None])
    grouped = weighted_basis_gram(basis, quad, point_weight=density,
                                  chunk=5000)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(grouped - dense)) <= 1e-13 * scale
