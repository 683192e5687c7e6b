from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievereg import basis as basis_module
from sievereg.basis import (BasisSpec, ConfigurationError, build_basis,
                            spec_with_size)

from grouping import windows


def test_order1_spline_indicators():
    # K = 4 indicators on the quarters, each scaled by sqrt(m + r) = 2
    basis = build_basis(BasisSpec.bspline(1, 3))
    assert basis.size == 4
    assert np.allclose(basis.evaluate(0.1), [2, 0, 0, 0])
    assert np.allclose(basis.evaluate(0.3), [0, 2, 0, 0])
    assert np.allclose(basis.evaluate(1.0), [0, 0, 0, 2])


def test_haar_level2():
    basis = build_basis(BasisSpec.wavelet(1, 2))
    assert basis.size == 4
    assert np.allclose(basis.evaluate(0.3), [0, 2, 0, 0])
    for k in range(4):
        mid = (k + 0.5) / 4
        assert basis.evaluate(mid)[k] == 2.0


def test_tensor_product_size_and_values():
    basis = build_basis(BasisSpec.bspline(2, 2, dim=2))
    assert basis.size == 16
    uni = build_basis(BasisSpec.bspline(2, 2))
    pt = np.array([0.2, 0.7])
    v1 = uni.evaluate(pt[0])
    v2 = uni.evaluate(pt[1])
    assert np.allclose(basis.evaluate(pt), np.outer(v1, v2).ravel())


def test_hand_run_recursion_at_third():
    basis = build_basis(BasisSpec.bspline(2, 2))
    assert np.allclose(basis.evaluate(1 / 3), [0, 2, 0, 0], atol=1e-15)


def test_partition_of_unity_prescale():
    xs = np.linspace(0, 1, 1001)
    for spec in (BasisSpec.bspline(3, 5), BasisSpec.bspline(1, 7),
                 BasisSpec.wavelet(1, 3)):
        basis = build_basis(spec)
        scaled = basis.evaluate(xs).sum(axis=1) / np.sqrt(basis.size)
        assert np.max(np.abs(scaled - 1.0)) < 1e-12


def test_wavelet_interior_partition_of_unity_on_grid():
    basis = build_basis(BasisSpec.wavelet(2, 4))
    fam = basis.tab_family
    m = 2 ** fam.depth
    idx = np.arange(m)
    total = np.zeros(m)
    for k in range(2 * fam.n_moments - 1):
        total += fam.phi[idx + k * m]
    assert np.max(np.abs(total - 1.0)) < 1e-6


def test_gradient_hand_values():
    # hats on knots 0,0,1/3,2/3,1,1: slopes -/+ 3, scaled by sqrt(4) = 2
    basis = build_basis(BasisSpec.bspline(2, 2))
    grad = basis.evaluate_gradient(0.5).ravel()
    assert np.allclose(grad, [0, -6, 6, 0])


def test_gradient_finite_difference_oracle():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.01, 0.99, 100)
    for spec in (BasisSpec.bspline(3, 4), BasisSpec.bspline(4, 6),
                 BasisSpec.trig(3), BasisSpec.power(5)):
        basis = build_basis(spec)
        analytic = basis.evaluate_gradient(xs)[:, :, 0]
        h = 1e-6
        fd = (basis.evaluate(xs + h) - basis.evaluate(xs - h)) / (2 * h)
        assert np.max(np.abs(analytic - fd)) < 1e-5


def test_order1_gradient_zero():
    basis = build_basis(BasisSpec.bspline(1, 3))
    assert np.all(basis.evaluate_gradient(np.array([0.1, 0.6])) == 0.0)


def test_wavelet_gradient_finite_difference():
    basis = build_basis(BasisSpec.wavelet(2, 3))
    xs = np.array([0.3, 0.55, 0.72])
    grad = basis.evaluate_gradient(xs)[:, :, 0]
    h = 1e-7
    fd = (basis.evaluate(xs + h) - basis.evaluate(xs - h)) / (2 * h)
    # tabulated functions are piecewise linear at step 2^-(J+R); away from
    # the grid kinks both differences see the same slope
    assert np.median(np.abs(grad - fd)) < 1e-3


@pytest.mark.parametrize("spec", [
    BasisSpec.wavelet(2, 3), BasisSpec.wavelet(2, 5), BasisSpec.wavelet(3, 3),
    BasisSpec.wavelet(3, 4), BasisSpec.bspline(3, 3, dim=2),
    BasisSpec.wavelet(2, 3, dim=2),
], ids=["d2", "d2-level5", "d3", "d3-level4", "spline-2d", "d2-2d"])
def test_gradient_edges_and_tensor_products(spec):
    basis = build_basis(spec)
    edges = basis.breakpoints_1d
    if spec.dim == 1:
        # the Daubechies gradient is the central difference at one
        # tabulation step, up to the clipped right-edge window
        h = 2.0 ** -(spec.level + 12)
        x = np.clip(np.concatenate([edges + f * h for f in
                                    (-1.0, -0.5, -0.125, 0.125, 0.5, 1.0)]),
                    0.0, 1.0)
        fd = (basis.evaluate(np.clip(x + h, 0.0, 1.0))
              - basis.evaluate(np.clip(x - h, 0.0, 1.0))) / (2.0 * h)
        assert np.array_equal(basis.evaluate_gradient(x)[:, :, 0], fd)
        return
    # a tensor function's partial derivative is its axis' 1-D gradient
    # times the other axis' 1-D values
    pts = np.vstack([np.random.default_rng(8).uniform(0, 1, (200, 2)),
                     np.column_stack([edges, edges[::-1]])])
    uni = build_basis(replace(spec, dim=1))
    vals = [uni.evaluate(pts[:, a]) for a in range(2)]
    grads = [uni.evaluate_gradient(pts[:, a])[:, :, 0] for a in range(2)]
    outer = [(grads[0][:, :, None] * vals[1][:, None, :]),
             (vals[0][:, :, None] * grads[1][:, None, :])]
    expected = np.stack([o.reshape(pts.shape[0], -1) for o in outer], axis=-1)
    assert np.array_equal(basis.evaluate_gradient(pts), expected)


def test_support_bookkeeping_random_pairs():
    rng = np.random.default_rng(123)
    for spec in (BasisSpec.bspline(3, 13), BasisSpec.wavelet(1, 4),
                 BasisSpec.wavelet(2, 4), BasisSpec.wavelet(3, 5)):
        basis = build_basis(spec)
        x = rng.uniform(0, 1, 25000)
        vals = basis.evaluate(x)
        ks = rng.integers(0, basis.size, 25000)
        lo = basis.supports[ks, 0, 0]
        hi = basis.supports[ks, 0, 1]
        picked = vals[np.arange(25000), ks]
        outside = (x < lo) | (x > hi)
        assert np.all(picked[outside] == 0.0)


@pytest.mark.parametrize("n_moments, level", [(1, 3), (2, 3), (3, 3), (2, 5),
                                              (3, 5)])
def test_wavelet_zero_just_left_of_dyadic_edges(n_moments, level):
    # phi(0) = 0, so function k is exactly 0 off [k - N + 1, k + N] / 2^J
    # (clipped to [0, 1]), also 1/2 and 1/8 of a tabulation step
    # (2^-(J+12)) left of a support start; alone and in a 2-D product
    k0 = 2 ** level
    k = np.arange(k0)
    closed = np.clip(np.column_stack([k - n_moments + 1, k + n_moments]),
                     0, k0) / k0
    edges = np.arange(k0 + 1) / k0
    step = 2.0 ** -(level + 12)
    x = np.clip(np.concatenate([edges, edges - step / 2, edges - step / 8,
                                edges - 3e-5, [0.74997, 0.49997, 0.937495]]),
                0.0, 1.0)
    for dim, pts in ((1, x[:, None]), (2, np.column_stack([x, x[::-1]]))):
        basis = build_basis(BasisSpec.wavelet(n_moments, level, dim=dim))
        idx = np.indices((k0,) * dim).reshape(dim, -1).T
        assert np.array_equal(basis.supports, closed[idx])
        lo, hi = basis.supports[..., 0], basis.supports[..., 1]
        outside = np.any((pts[:, None] < lo) | (pts[:, None] > hi), axis=2)
        assert np.all(basis.evaluate(pts)[outside] == 0.0)


def test_zeta_bound_families():
    # sup ||b(x)|| <= c sqrt(K) with one constant across K for the local and
    # trig families; the polynomial family grows linearly instead
    xs = np.linspace(0, 1, 4097)
    bound_c = 0.0
    for k_target in (4, 16, 64, 256):
        for spec in (BasisSpec.bspline(3, k_target - 3),
                     spec_with_size(BasisSpec.wavelet(1, 2), k_target),
                     spec_with_size(BasisSpec.trig(1), k_target)):
            basis = build_basis(spec)
            zeta = np.max(np.linalg.norm(basis.evaluate(xs), axis=1))
            bound_c = max(bound_c, zeta / np.sqrt(basis.size))
    assert bound_c < 4.0
    for k_target in (4, 16, 64, 256):
        basis = build_basis(BasisSpec.power(k_target - 1))
        zeta = np.max(np.linalg.norm(basis.evaluate(xs), axis=1))
        assert zeta >= 0.9 * basis.size


def test_domain_error():
    basis = build_basis(BasisSpec.bspline(2, 2))
    with pytest.raises(ValueError):
        basis.evaluate(1.2)
    with pytest.raises(ValueError):
        basis.evaluate(-0.1)


def test_non_finite_points_rejected():
    basis = build_basis(BasisSpec.bspline(2, 2))
    with pytest.raises(ValueError, match=r"\[0, 1\]\^d"):
        basis.evaluate(np.array([0.5, np.nan]))


def test_invalid_specs():
    with pytest.raises(ConfigurationError):
        BasisSpec.wavelet(2, 2)          # 2^2 <= 2 * 2
    with pytest.raises(ConfigurationError):
        BasisSpec.wavelet(4, 5)
    with pytest.raises(ConfigurationError):
        BasisSpec.bspline(0, 3)
    with pytest.raises(ConfigurationError):
        BasisSpec(family="mystery")
    # a nonzero field of another family is an error, not ignored
    for fields, key in (
            (dict(family="trig", degree=2, order=3), "order"),
            (dict(family="power", level=3), "level"),
            (dict(family="bspline", order=3, degree=2), "degree"),
            (dict(family="wavelet", n_moments=1, level=3, n_interior=2),
             "n_interior")):
        with pytest.raises(ConfigurationError, match=f"`{key}`"):
            BasisSpec(**fields)
    # counts are integers: a float is refused even when it is whole
    for fields, key in ((dict(order=2.5, n_interior=3), "order"),
                        (dict(order=3, n_interior=2.0), "n_interior")):
        with pytest.raises(ConfigurationError, match=f"`{key}`"):
            BasisSpec(family="bspline", **fields)


def test_numpy_integer_counts_accepted():
    spec = BasisSpec.bspline(np.int64(3), np.int32(2), dim=np.int64(1))
    assert build_basis(spec).size == 5
    assert BasisSpec.wavelet(np.int64(2), np.int64(3)).size == 8


def test_spec_with_size_families():
    assert spec_with_size(BasisSpec.bspline(4, 0), 12).size_1d == 12
    assert spec_with_size(BasisSpec.wavelet(1, 2), 16).level == 4
    assert spec_with_size(BasisSpec.wavelet(2, 3), 5).level == 3
    assert spec_with_size(BasisSpec.trig(1), 9).degree == 4
    assert spec_with_size(BasisSpec.power(1), 8).degree == 7
    # the target is the total K: 8 functions per axis in 2-D
    assert spec_with_size(BasisSpec.bspline(3, 0, dim=2), 64).size == 64


def test_trig_norm_constant():
    basis = build_basis(BasisSpec.trig(4))
    xs = np.linspace(0, 1, 513)
    norms = np.linalg.norm(basis.evaluate(xs), axis=1)
    assert np.max(np.abs(norms - np.sqrt(basis.size))) < 1e-12


def _columnwise_series(x, degree):
    """Per-column recurrences on an (n, K0) array: shifted Legendre and trig
    values and gradients, written one strided column at a time."""
    u = 2.0 * x - 1.0
    scale = np.sqrt(2.0 * np.arange(degree + 1) + 1.0)
    p = np.empty((x.size, degree + 1))
    p[:, 0] = 1.0
    if degree >= 1:
        p[:, 1] = u
    for k in range(1, degree):
        p[:, k + 1] = ((2 * k + 1) * u * p[:, k] - k * p[:, k - 1]) / (k + 1)
    leg = p * scale
    p = leg / scale
    dp = np.zeros((x.size, degree + 1))
    if degree >= 1:
        dp[:, 1] = 1.0
    for k in range(1, degree):
        dp[:, k + 1] = dp[:, k - 1] + (2 * k + 1) * p[:, k]
    trig = np.empty((x.size, 2 * degree + 1))
    dtrig = np.zeros((x.size, 2 * degree + 1))
    trig[:, 0] = 1.0
    root2 = np.sqrt(2.0)
    for l in range(1, degree + 1):
        trig[:, 2 * l - 1] = root2 * np.cos(2.0 * np.pi * l * x)
        trig[:, 2 * l] = root2 * np.sin(2.0 * np.pi * l * x)
        w = 2.0 * np.pi * l
        dtrig[:, 2 * l - 1] = -root2 * w * np.sin(w * x)
        dtrig[:, 2 * l] = root2 * w * np.cos(w * x)
    return {"_legendre_values": leg, "_legendre_gradients": 2.0 * dp * scale,
            "_trig_values": trig, "_trig_gradients": dtrig}


@pytest.mark.parametrize("degree", [0, 1, 2, 7, 40, 127])
def test_series_rows_match_columnwise_recurrence_bitwise(degree):
    # the row recurrences do the same elementwise arithmetic as a per-column
    # recurrence and return C-ordered (n, K0) arrays
    x = np.r_[0.0, 1.0, 0.5, np.random.default_rng(degree).uniform(0, 1, 997)]
    for name, expected in _columnwise_series(x, degree).items():
        got = getattr(basis_module, name)(x, degree)
        assert got.flags.c_contiguous, name
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


def test_active_function_counts():
    # at any point at most `order` splines (per dim) and at most 2N - 1
    # wavelet scaling functions (per dim) are nonzero, and the local form
    # holds exactly that many
    rng = np.random.default_rng(99)
    x = rng.uniform(0, 1, 2000)
    for spec, cap in ((BasisSpec.bspline(3, 13), 3),
                      (BasisSpec.bspline(1, 7), 1),
                      (BasisSpec.wavelet(1, 4), 1),
                      (BasisSpec.wavelet(2, 4), 3),
                      (BasisSpec.wavelet(3, 4), 5)):
        basis = build_basis(spec)
        active = np.count_nonzero(basis.evaluate(x), axis=1)
        assert np.max(active) <= cap
        assert basis.local(x).vals.shape == (x.size, cap)


_POINTS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


def _assert_zero_off_supports(basis, x, vals):
    lo, hi = basis.supports[:, 0, 0], basis.supports[:, 0, 1]
    outside = (x[:, None] < lo) | (x[:, None] > hi)
    assert np.all(vals[outside] == 0.0)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 5), m=st.integers(0, 40), xs=_POINTS)
def test_spline_unity_and_zeros_off_support_property(order, m, xs):
    basis = build_basis(BasisSpec.bspline(order, m))
    x = np.concatenate([xs, basis.breakpoints_1d])
    vals = basis.evaluate(x)
    assert np.max(np.abs(vals.sum(axis=1) / np.sqrt(basis.size) - 1.0)) < 1e-13
    _assert_zero_off_supports(basis, x, vals)


@settings(max_examples=60, deadline=None)
@given(n_moments=st.sampled_from([2, 3]), level=st.integers(3, 7), xs=_POINTS)
def test_wavelet_unity_and_zeros_off_support_property(n_moments, level, xs):
    basis = build_basis(BasisSpec.wavelet(n_moments, level))
    k0 = basis.size
    x = np.concatenate([xs, basis.breakpoints_1d])
    vals = basis.evaluate(x)
    _assert_zero_off_supports(basis, x, vals)
    # clear of the edge functions only shifts of phi are active, and they
    # sum to 1 (times the sqrt(K) scale) up to tabulation error
    u = x * k0
    interior = (u >= 2 * n_moments - 1) & (u <= k0 - 2 * n_moments)
    total = vals[interior].sum(axis=1) / np.sqrt(k0)
    assert np.all(np.abs(total - 1.0) < 1e-7)


_LOCAL_SPECS = st.one_of(
    st.builds(BasisSpec.bspline, order=st.integers(1, 5),
              n_interior=st.integers(0, 12), dim=st.integers(1, 2)),
    st.builds(BasisSpec.wavelet, n_moments=st.just(1),
              level=st.integers(1, 5), dim=st.integers(1, 2)),
    st.builds(BasisSpec.wavelet, n_moments=st.sampled_from([2, 3]),
              level=st.integers(3, 5), dim=st.integers(1, 2)),
    st.builds(BasisSpec.trig, degree=st.integers(0, 6), dim=st.integers(1, 2)),
    st.builds(BasisSpec.power, degree=st.integers(0, 8), dim=st.integers(1, 2)),
)


@settings(max_examples=80, deadline=None)
@given(spec=_LOCAL_SPECS, xs=_POINTS)
def test_local_design_scatters_to_evaluate_property(spec, xs):
    basis = build_basis(spec)
    x1 = np.concatenate([xs, [0.0, 0.2, 0.7, 1.0], basis.breakpoints_1d])
    if spec.dim == 1:
        x = x1[:, None]
    else:
        edges = basis.breakpoints_1d[::3]
        grid = np.stack(np.meshgrid(edges, edges, indexing="ij"), -1)
        x = np.vstack([np.column_stack([x1, x1[::-1]]), grid.reshape(-1, 2)])
    local = basis.local(x)
    dense = np.zeros((x.shape[0], basis.size))
    for i in range(x.shape[0]):
        dense[i, local.cols[i]] = local.vals[i]
    assert dense.tobytes() == basis.evaluate(x).tobytes()
    assert local.cols.min() >= 0 and local.cols.max() < basis.size
    assert np.all(np.diff(local.cols, axis=1) > 0)
    if local.vals.shape[1] == basis.size:   # trig, power, m = 0 splines
        # full width: 0..K-1 on every row, stored once (zero-stride)
        assert local.cols.strides[0] == 0
        assert np.array_equal(local.cols[0], np.arange(basis.size))
    # the first column names the window
    for cols, rows in windows(local):
        assert np.all(local.cols[rows] == cols)


def _per_function_interp(basis, x):
    """Each Daubechies function interpolated at all points by np.interp."""
    fam, k0 = basis.tab_family, basis.size
    n = fam.n_moments
    u = x * k0
    out = np.zeros((x.size, k0))
    for k in range(k0):
        if k < n:
            tab, lo, t = fam.left[k], 0.0, u
        elif k >= k0 - n:
            tab, lo, t = fam.right[k0 - k - 1], 1.0 - 2.0 * n, u - k0
        else:
            tab, lo, t = fam.phi, float(k - n + 1), u
        nodes = lo + fam.step * np.arange(tab.size)
        out[:, k] = np.sqrt(k0) * np.interp(t, nodes, tab, left=0.0, right=0.0)
    return out


@pytest.mark.parametrize("n_moments,level", [(2, 3), (2, 5), (3, 3), (3, 4)])
def test_wavelet_window_matches_per_function_interp(n_moments, level):
    # every tabulation node, the midpoints and one-ulp neighbours of the
    # cell edges, and random points: the by-point window interpolation
    # reproduces a per-function np.interp bit for bit
    basis = build_basis(BasisSpec.wavelet(n_moments, level))
    k0, step = basis.size, basis.tab_family.step
    nodes = np.arange(k0 * 2 ** basis.tab_family.depth + 1) * step / k0
    edges = np.arange(k0 + 1) / k0
    x = np.concatenate([
        nodes, nodes[:-1] + 0.5 * step / k0,
        np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        np.random.default_rng(level).uniform(0, 1, 5000)])
    x = np.clip(x, 0.0, 1.0)
    assert basis.evaluate(x).tobytes() == _per_function_interp(basis, x).tobytes()
