import numpy as np
import pytest
import scipy.linalg

from sievereg import gram as gram_module
from sievereg.basis import BasisSpec, build_basis
from sievereg.gram import (DmsBound, GramFactor, NumericError, dms_bound,
                           empirical_gram, empirical_gram_matrix,
                           gram_deviation, lebesgue_constant_empirical,
                           lebesgue_constant_theoretical, theoretical_gram,
                           zeta_constant)
from sievereg.quadrature import (basis_quadrature, sine_density, sup_grid,
                                  uniform_density, weighted_basis_gram)
from sievereg.simulate import RegressorSpec, regressor_paths

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


def _eigh_built(mat):
    """The factor the general path builds: eigh's decomposition of mat."""
    ref = GramFactor(mat)
    ref.evals, ref.evecs = np.linalg.eigh(0.5 * (mat + mat.T))
    ref.is_diagonal = False
    return ref


@pytest.mark.parametrize("diag", [
    [2.0, 0.5, 2.0, 1.0 / 3.0, 3.0, 0.5],     # ties
    [2.0, 0.5, 2.0, 0.0, 3.0, 0.5],           # ties and a zero: singular
])
def test_diagonal_factor_matches_eigh_bit_for_bit(diag):
    mat = np.diag(diag)
    fast, ref = GramFactor(mat), _eigh_built(mat)
    assert fast.is_diagonal and np.array_equal(fast.evals, ref.evals)
    assert fast.tol == ref.tol and fast.lam == ref.lam
    rhs = np.random.default_rng(4).normal(size=(6, 3))
    for b in (rhs, rhs[:, 0]):
        (x_fast, flag_fast), (x_ref, flag_ref) = fast.solve(b), ref.solve(b)
        assert np.array_equal(x_fast, x_ref) and flag_fast == flag_ref
    singular = 0.0 in diag
    assert flag_fast == singular
    if singular:
        # the pseudo-inverse: 0 in the null direction, 1/d elsewhere
        d = mat.diagonal()
        expected = np.divide(rhs[:, 0], d, out=np.zeros(6), where=d > 0)
        assert np.allclose(x_fast, expected, rtol=1e-15, atol=0.0)
        for factor in (fast, ref):
            with pytest.raises(NumericError):
                factor.inv_sqrt()
        return
    assert np.array_equal(fast.inv_sqrt(), ref.inv_sqrt())
    # stacked deviations of diagonal Grams (read off the diagonal) and of
    # full ones (eigvalsh on both sides)
    basis = build_basis(BasisSpec.wavelet(1, 3))
    x = np.random.default_rng(6).uniform(0, 1, (5 * 40, 1))
    haar = basis.local(x).gram(blocks=5)[:, 1:7, 1:7]
    full = haar + 0.01 * np.random.default_rng(7).normal(size=(6, 6))
    for stack in (haar, full):
        assert np.array_equal(fast.deviation(stack), ref.deviation(stack))
        assert fast.deviation(stack[0]) == ref.deviation(stack[0])


@pytest.mark.parametrize("level,n", [(3, 500), (4, 500), (5, 500), (6, 500),
                                     (7, 500), (5, 2000), (7, 2000)])
def test_width1_gram_matches_dense_product(level, n):
    # one active column per point: B'B/n is the bincount of squared values.
    # At even levels the values are sqrt(K) = 2^(level/2) and every partial
    # sum is exact; at odd levels the rounded squares may sum to 1 ulp away
    # from the dense product's fused multiply-adds.
    basis = build_basis(BasisSpec.wavelet(1, level))
    x = np.random.default_rng(11).uniform(0, 1, (n, 1))
    design = basis.evaluate(x)
    dense = design.T @ design / n
    gram = basis.local(x).gram()
    off = ~np.eye(basis.size, dtype=bool)
    assert not np.any(gram[off]) and not np.any(dense[off])
    ulps = np.abs(gram - dense).diagonal() / np.spacing(dense.diagonal())
    assert np.max(ulps) <= (0 if level % 2 == 0 else 1)
    assert np.array_equal(empirical_gram_matrix(basis, x), gram)


@pytest.mark.parametrize("spec, span", [
    (BasisSpec.wavelet(1, 5), None),
    (BasisSpec.wavelet(1, 2, dim=2), None),
    (BasisSpec.wavelet(1, 4), (0.2, 0.7)),
    (BasisSpec.bspline(3, 5), None),
    (BasisSpec.wavelet(2, 4), None),
    (BasisSpec.wavelet(3, 4), None),
    (BasisSpec.bspline(1, 6), None),
    (BasisSpec.bspline(4, 5), None),
    (BasisSpec.bspline(3, 2, dim=2), None),
    (BasisSpec.wavelet(2, 3, dim=2), None),
    (BasisSpec.trig(3), None),
    (BasisSpec.power(5, dim=2), None),
])
def test_stacked_sample_grams_match_each_block(spec, span):
    # a span confines the points to part of [0, 1], so some Haar cells are
    # empty and their diagonal entries 0
    basis = build_basis(spec)
    blocks, n = 4, 300
    rng = np.random.default_rng(12)
    x = rng.uniform(*(span or (0, 1)), (blocks * n, spec.dim))
    stack = basis.local(x).gram(blocks=blocks)
    for b in range(blocks):
        block = basis.local(x[b * n:(b + 1) * n])
        assert np.array_equal(stack[b], block.gram())
    # every branch (width 1, full width, pairs of window offsets) against
    # the dense V' diag(w) V, unweighted (w = 1/n) and weighted
    local, design = basis.local(x[:n]), basis.evaluate(x[:n])
    w = rng.uniform(0.5, 2.0, n)
    for gram, dense in ((stack[0], design.T @ design / n),
                        (local.gram(weights=w),
                         design.T @ (design * w[:, None]))):
        assert np.max(np.abs(gram - dense)) <= 1e-14 * np.max(np.abs(dense))
    assert np.array_equal(stack[0], stack[0].T)
    width = local.vals.shape[1]
    if width == basis.size or (width == 1 and spec.level % 2 == 0):
        # one product, or exact squares (see above): the dense product's bits
        assert np.array_equal(stack[0], design.T @ design / n)


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


@pytest.mark.parametrize("spec", [
    BasisSpec.bspline(3, 9), BasisSpec.wavelet(1, 4), BasisSpec.wavelet(2, 3),
    BasisSpec.wavelet(2, 7), BasisSpec.power(7), BasisSpec.trig(4),
], ids=["spline", "haar", "d2-level3", "d2-level7", "power", "trig"])
@pytest.mark.parametrize("density", [UNIFORM, sine_density(0.4)],
                         ids=["uniform", "sine"])
def test_kron_1d_gram_is_the_basis_rule_gram(spec, density):
    # in 1-D the Kronecker power is the Gram itself, bit for bit
    basis = build_basis(spec)
    rule_gram = weighted_basis_gram(basis, basis_quadrature(basis),
                                    point_weight=density)
    assert np.array_equal(theoretical_gram(basis, density), rule_gram)


@pytest.mark.parametrize("spec", [BasisSpec.bspline(3, 4, dim=2),
                                  BasisSpec.wavelet(1, 3, dim=2)],
                         ids=["spline", "haar"])
@pytest.mark.parametrize("density", [uniform_density(2), sine_density(0.4, 2)],
                         ids=["uniform", "sine"])
def test_kron_2d_gram_matches_product_rule(spec, density):
    # spline and Haar product rules are exact: both forms give the same Gram
    basis = build_basis(spec)
    rule_gram = weighted_basis_gram(basis, basis_quadrature(basis),
                                    point_weight=density)
    gram = theoretical_gram(basis, density)
    assert gram.shape == (basis.size, basis.size)
    assert (np.max(np.abs(gram - rule_gram))
            <= 1e-14 * np.max(np.abs(rule_gram)))


def test_kron_2d_daubechies_gram_is_exact():
    # the default 1-D D2 rule at J = 3 already refines to the tabulation
    # step, so the 2-D Gram is the Kronecker square of the exact 1-D Gram
    uni = build_basis(BasisSpec.wavelet(2, 3))
    density = sine_density(0.4, 2)
    exact = weighted_basis_gram(uni, basis_quadrature(uni, max_nodes_1d=2 ** 30),
                                point_weight=density)
    assert np.array_equal(theoretical_gram(uni, density), exact)
    gram = theoretical_gram(build_basis(BasisSpec.wavelet(2, 3, dim=2)),
                            density)
    assert np.array_equal(gram, np.kron(exact, exact))


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


def _exhaustive_abs_sup(basis, grid, half, weights=None):
    """The Lebesgue kernel sup with every block of the fixed partition
    formed: grid chunks, windows, de-duplicated rows, 64-row slices."""
    best, rows_per_block = 0.0, gram_module._KERNEL_ROWS
    for start in range(0, grid.shape[0], gram_module._GRID_CHUNK):
        local = basis.local(grid[start:start + gram_module._GRID_CHUNK])
        for cols, rows in local.windows():
            vals = local.vals[rows]
            vals = vals[np.r_[True, np.any(vals[1:] != vals[:-1], axis=1)]]
            for row in range(0, vals.shape[0], rows_per_block):
                kern = np.abs(vals[row:row + rows_per_block] @ half[cols])
                if weights is not None:
                    kern *= weights
                best = max(best, float(np.max(np.sum(kern, axis=1))))
    return best


def _sample_half(basis, x):
    vals = basis.evaluate(x)
    return GramFactor(vals.T @ vals).solve(vals.T)[0]


_PRUNED_SPECS = {
    **{f"spline{r}": BasisSpec.bspline(r, 12 - r) for r in (2, 3, 4)},
    "haar": BasisSpec.wavelet(1, 4), "d2": BasisSpec.wavelet(2, 4),
    "d3": BasisSpec.wavelet(3, 4), "trig": BasisSpec.trig(5),
    "power": BasisSpec.power(9),
    **{f"spline{r}-2d": BasisSpec.bspline(r, 5 - r, dim=2) for r in (2, 3, 4)},
    "haar-2d": BasisSpec.wavelet(1, 2, dim=2),
    "d2-2d": BasisSpec.wavelet(2, 3, dim=2),
    "d3-2d": BasisSpec.wavelet(3, 3, dim=2),
    "trig-2d": BasisSpec.trig(2, dim=2), "power-2d": BasisSpec.power(3, dim=2),
    # K = 64-81: full-width windows that the Cauchy-Schwarz bound prunes
    "power-k64": BasisSpec.power(63), "trig-k65": BasisSpec.trig(32),
    "power-k64-2d": BasisSpec.power(7, dim=2),
    "trig-k81-2d": BasisSpec.trig(4, dim=2),
}
_FULL_WIDTH = ["power-k64", "power-k64-2d", "trig-k65", "trig-k81-2d"]


@pytest.mark.parametrize("sample", ["iid", "ar", "theoretical"])
@pytest.mark.parametrize("family", sorted(_PRUNED_SPECS))
def test_pruned_lebesgue_equals_exhaustive_bitwise(family, sample):
    # the bound-pruned search gives the bits of forming every block; the
    # 1-D grid spans three evaluation chunks and ragged last blocks
    basis = build_basis(_PRUNED_SPECS[family])
    dim = basis.spec.dim
    grid = sup_grid(basis, base_points=1100 if dim == 1 else 33)
    if sample == "theoretical":
        density = sine_density(0.4, dim=dim)
        quad = basis_quadrature(basis, max_nodes_1d=2 ** 12 if dim == 1
                                else 2 ** 6)
        half, _ = GramFactor(weighted_basis_gram(
            basis, quad, point_weight=density)).solve(
                basis.evaluate(quad.nodes).T)
        wq = quad.weights * density(quad.nodes)
        assert (lebesgue_constant_theoretical(basis, density, quad=quad,
                                              grid=grid)
                == _exhaustive_abs_sup(basis, grid, half, wq))
        return
    regressor = RegressorSpec(*(("ar_copula", 0.9) if sample == "ar"
                                else ("iid_uniform",)))
    x = regressor_paths(regressor, 3000, dim, np.random.default_rng(5))[0]
    assert (lebesgue_constant_empirical(basis, x, grid=grid).value
            == _exhaustive_abs_sup(basis, grid, _sample_half(basis, x)))


@pytest.mark.parametrize("spec", [BasisSpec.bspline(3, 9),
                                  BasisSpec.wavelet(2, 4),
                                  BasisSpec.bspline(3, 2, dim=2)],
                         ids=["spline", "d2", "spline-2d"])
def test_pruned_lebesgue_rank_deficient_bitwise(spec):
    # n < K: the pseudo-inverse half, flagged
    basis = build_basis(spec)
    grid = sup_grid(basis, base_points=1100 if spec.dim == 1 else 33)
    x = np.random.default_rng(3).uniform(0, 1, (basis.size - 3, spec.dim))
    res = lebesgue_constant_empirical(basis, x, grid=grid)
    assert res.rank_deficient
    assert res.value == _exhaustive_abs_sup(basis, grid,
                                            _sample_half(basis, x))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("spec", [BasisSpec.bspline(3, 9),
                                  BasisSpec.wavelet(2, 4)],
                         ids=["spline", "d2"])
def test_pruned_lebesgue_non_finite_half(spec, bad):
    # a non-finite entry makes some bounds inf or NaN (0 * inf); neither may
    # skip a block, so the result is still the exhaustive one
    basis = build_basis(spec)
    grid = sup_grid(basis, base_points=1100)
    x = np.random.default_rng(4).uniform(0, 1, (2000, 1))
    half = _sample_half(basis, x)
    half[4, 17] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        pruned = gram_module._kernel_abs_sup(basis, grid, half,
                                             basis.evaluate(x))
        assert pruned == _exhaustive_abs_sup(basis, grid, half)


def test_pruned_lebesgue_nan_bound_block_is_formed():
    # column 9's sum overflows to inf; the D2 row at 0.5 has b_9(0.5) = 0,
    # so its bound is 0 * inf = NaN while its kernel row sum is finite and
    # the largest: the NaN bound must not skip it
    basis = build_basis(BasisSpec.wavelet(2, 4))
    x = np.random.default_rng(4).uniform(0, 1, (2000, 1))
    half = _sample_half(basis, x)
    half[9, :2] = 1e308
    grid = np.array([[0.1], [0.5]])
    assert basis.local(grid[1:]).vals[0, -1] == 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        pruned = gram_module._kernel_abs_sup(basis, grid, half,
                                             basis.evaluate(x))
        assert pruned == _exhaustive_abs_sup(basis, grid[1:], half)
        assert pruned > _exhaustive_abs_sup(basis, grid[:1], half)


@pytest.mark.parametrize("spec,most", [(BasisSpec.wavelet(2, 7), 3),
                                       (BasisSpec.bspline(3, 125), 3),
                                       (BasisSpec.power(127), 4)],
                         ids=["d2", "spline", "power"])
def test_pruned_lebesgue_forms_few_blocks(spec, most, monkeypatch):
    # at K = 128, n = 20000 the bounds leave a few of the 72-134 blocks;
    # power's full-width windows are pruned by the Cauchy-Schwarz bound
    basis = build_basis(spec)
    grid = sup_grid(basis)
    x = np.random.default_rng(6).uniform(0, 1, (20000, 1))
    row_sums, formed = gram_module._row_sums, []

    def counting(block, sub, weights, buf):
        formed.append(sub.shape[1] == x.shape[0])   # a whole block
        return row_sums(block, sub, weights, buf)

    monkeypatch.setattr(gram_module, "_row_sums", counting)
    value = lebesgue_constant_empirical(basis, x, grid=grid).value
    assert 1 <= sum(formed) <= most
    monkeypatch.undo()
    assert value == _exhaustive_abs_sup(basis, grid, _sample_half(basis, x))


def _full_width_case(family, sample):
    """(basis, grid, x) for the Cauchy-Schwarz cases: K = 64-81."""
    basis = build_basis(_PRUNED_SPECS[family])
    dim = basis.spec.dim
    rng = np.random.default_rng(8)
    n = {"iid": 3000, "beta": 3000, "rank-deficient": basis.size - 5}[sample]
    x = (rng.beta(0.05, 0.05, (n, dim)) if sample == "beta"
         else rng.uniform(0, 1, (n, dim)))
    return basis, sup_grid(basis, base_points=1100 if dim == 1 else 33), x


def _gram_half(basis, x):
    """The half that lebesgue_constant_empirical forms from gram=B'B/n."""
    half, _ = GramFactor(empirical_gram_matrix(basis, x)).solve(
        basis.evaluate(x).T)
    half /= x.shape[0]
    return half


@pytest.mark.parametrize("sample", ["iid", "beta", "rank-deficient"])
@pytest.mark.parametrize("family", _FULL_WIDTH)
def test_cs_pruned_lebesgue_equals_exhaustive_bitwise(family, sample):
    # with the factor of B'B or of a given B'B/n, near-singular (where the
    # conditioning guard drops the Cauchy-Schwarz bound) or rank deficient
    basis, grid, x = _full_width_case(family, sample)
    own = lebesgue_constant_empirical(basis, x, grid=grid)
    assert own.rank_deficient == (sample == "rank-deficient")
    assert own.value == _exhaustive_abs_sup(basis, grid,
                                            _sample_half(basis, x))
    shared = lebesgue_constant_empirical(
        basis, x, grid=grid, gram=empirical_gram_matrix(basis, x))
    assert shared.value == _exhaustive_abs_sup(basis, grid,
                                               _gram_half(basis, x))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["half", "root"])
@pytest.mark.parametrize("family", ["power-k64", "trig-k81-2d"])
def test_cs_pruned_lebesgue_non_finite(family, where, bad):
    # a non-finite half entry leaves a root that no longer describes it,
    # and a non-finite root gives an inf or NaN bound: neither may skip a
    # block, so the result is still the exhaustive one
    basis, grid, x = _full_width_case(family, "iid")
    vals = basis.evaluate(x)
    factor = GramFactor(vals.T @ vals)
    half = factor.solve(vals.T)[0]
    root = gram_module._cs_root(factor, 1.0, x.shape[0])
    assert root is not None
    (half if where == "half" else root)[4, 17] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        pruned = gram_module._kernel_abs_sup(basis, grid, half, vals,
                                             root=root)
        assert pruned == _exhaustive_abs_sup(basis, grid, half)


def test_pruned_lebesgue_cs_root_guard():
    # no root for a pseudo-inverse or a factor too ill-conditioned to trust
    factor = GramFactor(np.diag([1.0, 2.0, 4.0]))
    root = gram_module._cs_root(factor, 2.0, 10)
    assert np.allclose(root @ root.T, np.diag([0.5, 0.25, 0.125]),
                       rtol=1e-15, atol=0.0)
    assert gram_module._cs_root(GramFactor(np.diag([0.0, 1.0])), 1.0, 10) \
        is None
    assert gram_module._cs_root(GramFactor(np.diag([1e-8, 1.0])), 1.0,
                                10 ** 4) is None


@pytest.mark.parametrize("sample", ["iid", "rank-deficient"])
@pytest.mark.parametrize("family", sorted(_PRUNED_SPECS))
def test_pruned_lebesgue_given_gram_matches_own_gram(family, sample):
    # passing the sample's B'B/n factors it instead of forming B'B: the
    # same rank flag, and the same constant up to rounding, which the
    # condition number of the kept spectrum amplifies (up to about 2e13 for
    # a pseudo-inverse at n < K)
    basis = build_basis(_PRUNED_SPECS[family])
    dim = basis.spec.dim
    grid = sup_grid(basis, base_points=1100 if dim == 1 else 33)
    n = 3000 if sample == "iid" else basis.size - 3
    x = np.random.default_rng(9).uniform(0, 1, (n, dim))
    gram = empirical_gram_matrix(basis, x)
    own = lebesgue_constant_empirical(basis, x, grid=grid)
    shared = lebesgue_constant_empirical(basis, x, grid=grid, gram=gram)
    assert shared.rank_deficient == own.rank_deficient == (sample != "iid")
    factor = GramFactor(gram)
    kept = factor.evals[factor.evals > factor.tol]
    assert shared.value == pytest.approx(own.value,
                                         rel=1e-14 * kept[-1] / kept[0])


@pytest.mark.parametrize("spec", [
    BasisSpec.bspline(3, 13), BasisSpec.bspline(4, 9), BasisSpec.wavelet(2, 5),
    BasisSpec.wavelet(3, 4), BasisSpec.wavelet(1, 5), BasisSpec.power(9),
    BasisSpec.bspline(3, 3, dim=2), BasisSpec.wavelet(2, 3, dim=2),
], ids=["spline", "spline-order4", "d2", "d3", "haar", "power", "spline-2d",
        "d2-2d"])
def test_grouped_gram_matches_dense_accumulation(spec):
    basis = build_basis(spec)
    quad = basis_quadrature(basis, max_nodes_1d=2 ** 12 if spec.dim == 1
                            else 2 ** 7)
    density = sine_density(0.4, dim=spec.dim)
    vals = basis.evaluate(quad.nodes)
    dense = vals.T @ (vals * (quad.weights * density(quad.nodes))[:, None])
    grouped = weighted_basis_gram(basis, quad, point_weight=density,
                                  chunk=5000)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(grouped - dense)) <= 1e-13 * scale
