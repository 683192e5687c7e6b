import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievereg.basis import (BasisSpec, ConfigurationError, build_basis,
                            spec_with_size)


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
    # right-edge tables rise from 0 one tabulation step (2^-(J+12)) before
    # the dyadic point (k - N + 1) / 2^J; the supports must include it
    basis = build_basis(BasisSpec.wavelet(n_moments, level))
    edges = basis.breakpoints_1d[1:]
    step = 2.0 ** -(level + 12)
    x = np.concatenate([edges - step / 2, edges - step / 8, edges - 3e-5,
                        [0.74997, 0.49997, 0.937495]])
    _assert_zero_off_supports(basis, x, basis.evaluate(x))


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


def test_weight_box_zeroes_outside():
    basis = build_basis(BasisSpec.bspline(2, 4)).with_weight_box(0.25, 0.75)
    assert np.all(basis.evaluate(0.1) == 0.0)
    assert np.any(basis.evaluate(0.5) != 0.0)
    grads = basis.evaluate_gradient(0.9)
    assert np.all(grads == 0.0)


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


def test_config_roundtrip():
    for spec in (BasisSpec.bspline(3, 4, dim=2), BasisSpec.wavelet(2, 4),
                 BasisSpec.trig(5), BasisSpec.power(7)):
        assert BasisSpec.from_config(spec.to_config()) == spec
    with pytest.raises(ConfigurationError):
        BasisSpec.from_config({"family": "bspline", "order": "3",
                               "n_interior": "2", "typo": "1"})


_SPECS = st.one_of(
    st.builds(BasisSpec.bspline, order=st.integers(1, 6),
              n_interior=st.integers(0, 60), dim=st.integers(1, 3)),
    st.builds(BasisSpec.wavelet, n_moments=st.just(1),
              level=st.integers(1, 10), dim=st.integers(1, 3)),
    st.builds(BasisSpec.wavelet, n_moments=st.sampled_from([2, 3]),
              level=st.integers(3, 10), dim=st.integers(1, 3)),
    st.builds(BasisSpec.trig, degree=st.integers(0, 30),
              dim=st.integers(1, 3)),
    st.builds(BasisSpec.power, degree=st.integers(0, 30),
              dim=st.integers(1, 3)),
)


@settings(max_examples=100, deadline=None)
@given(spec=_SPECS)
def test_config_roundtrip_property(spec):
    block = spec.to_config()
    assert all(isinstance(v, str) for v in block.values())
    assert BasisSpec.from_config(block) == spec


def test_spec_with_size_families():
    assert spec_with_size(BasisSpec.bspline(4, 0), 12).size_1d == 12
    assert spec_with_size(BasisSpec.wavelet(1, 2), 16).level == 4
    assert spec_with_size(BasisSpec.wavelet(2, 3), 5).level == 3
    assert spec_with_size(BasisSpec.trig(1), 9).degree == 4
    assert spec_with_size(BasisSpec.power(1), 8).degree == 7


def test_trig_norm_constant():
    basis = build_basis(BasisSpec.trig(4))
    xs = np.linspace(0, 1, 513)
    norms = np.linalg.norm(basis.evaluate(xs), axis=1)
    assert np.max(np.abs(norms - np.sqrt(basis.size))) < 1e-12


def test_active_function_counts():
    # at any point at most `order` splines (per dim) and at most 2N wavelet
    # scaling functions (per dim) are nonzero
    rng = np.random.default_rng(99)
    x = rng.uniform(0, 1, 2000)
    for spec, cap in ((BasisSpec.bspline(3, 13), 3),
                      (BasisSpec.bspline(1, 7), 1),
                      (BasisSpec.wavelet(1, 4), 1),
                      (BasisSpec.wavelet(2, 4), 4),
                      (BasisSpec.wavelet(3, 4), 6)):
        basis = build_basis(spec)
        active = np.count_nonzero(basis.evaluate(x), axis=1)
        assert np.max(active) <= cap


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
@given(spec=_LOCAL_SPECS, xs=_POINTS, boxed=st.booleans())
def test_local_design_scatters_to_evaluate_property(spec, xs, boxed):
    basis = build_basis(spec)
    if boxed:
        basis = basis.with_weight_box(0.2, 0.7)
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
    # the first column names the window
    for cols, rows in local.windows():
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
