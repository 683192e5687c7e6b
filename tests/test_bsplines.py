import numpy as np
import pytest
from scipy.interpolate import BSpline

from sievereg import bsplines
from sievereg.basis import LocalDesign
from sievereg.bsplines import knot_vector, support_intervals


def _dense(local_form, knots, order):
    """Scatter a (first, vals) form into the (n, K) array."""
    first, vals = local_form
    cols = first[:, None] + np.arange(vals.shape[1])
    return LocalDesign(cols, vals, knots.size - order).dense()


def design_matrix(knots, order, x):
    return _dense(bsplines.design_matrix(knots, order, x), knots, order)


def design_derivative(knots, order, x):
    return _dense(bsplines.design_derivative(knots, order, x), knots, order)


def test_knot_vector_full_multiplicity():
    t = knot_vector(3, 2)
    assert t.size == 2 + 6
    assert np.allclose(t, [0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1])


def test_order1_indicators_cover_domain():
    t = knot_vector(1, 3)
    x = np.linspace(0, 1, 101)
    vals = design_matrix(t, 1, x)
    assert vals.shape == (101, 4)
    # exactly one indicator active everywhere, including x = 1
    assert np.array_equal(vals.sum(axis=1), np.ones(101))


def test_partition_of_unity_exact():
    for order in (1, 2, 3, 4):
        for m in (0, 2, 5):
            t = knot_vector(order, m)
            x = np.linspace(0, 1, 257)
            vals = design_matrix(t, order, x)
            assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-12


def test_hand_run_hat_values():
    # order 2, knots 0,0,1/3,2/3,1,1: at x=1/3 only the hat peaking there is 1
    t = knot_vector(2, 2)
    vals = design_matrix(t, 2, np.array([1 / 3]))[0]
    assert np.allclose(vals, [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    # halfway into the first interval the first two hats split the unit mass
    vals = design_matrix(t, 2, np.array([1 / 6]))[0]
    assert np.allclose(vals, [0.5, 0.5, 0.0, 0.0])


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(42)
    for order, m in ((2, 2), (3, 4), (4, 3)):
        t = knot_vector(order, m)
        x = rng.uniform(0.01, 0.99, 100)
        analytic = design_derivative(t, order, x)
        h = 1e-6
        fd = (design_matrix(t, order, x + h) - design_matrix(t, order, x - h)) / (2 * h)
        assert np.max(np.abs(analytic - fd)) < 1e-5


def test_order1_derivative_zero():
    t = knot_vector(1, 3)
    x = np.linspace(0, 1, 11)
    assert np.all(design_derivative(t, 1, x) == 0.0)


def test_supports_and_zero_outside():
    order, m = 3, 4
    t = knot_vector(order, m)
    sup = support_intervals(t, order)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 500)
    vals = design_matrix(t, order, x)
    for j in range(sup.shape[0]):
        outside = (x < sup[j, 0]) | (x > sup[j, 1])
        assert np.all(vals[outside, j] == 0.0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        knot_vector(0, 3)
    with pytest.raises(ValueError):
        knot_vector(2, -1)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [0, 1, 5, 17, 125])
def test_design_matches_scipy_oracle(order, m):
    # independent oracle: scipy's B-spline evaluation of degree order - 1,
    # at random points, at every knot (where the left/right choice matters)
    # and at both endpoints
    t = knot_vector(order, m)
    rng = np.random.default_rng(order * 1000 + m)
    x = np.concatenate([rng.uniform(0, 1, 400), np.unique(t), [0.0, 1.0]])
    oracle = BSpline.design_matrix(x, t, order - 1).toarray()
    assert np.max(np.abs(design_matrix(t, order, x) - oracle)) <= 1e-14
    if order > 1:
        d_oracle = BSpline(t, np.eye(t.size - order), order - 1)(x, nu=1)
        err = np.max(np.abs(design_derivative(t, order, x) - d_oracle))
        assert err <= 1e-14 * np.max(np.abs(d_oracle))


def test_knots_without_end_multiplicity_rejected():
    # the local form needs `order` copies of each end knot
    t = np.array([0.0, 0.1, 0.25, 0.5, 0.55, 0.8, 1.0])
    # order 1 needs one copy, so it still evaluates on these knots
    x = np.linspace(0.0, 1.0, 201)
    oracle = BSpline.design_matrix(x, t, 0).toarray()
    assert np.max(np.abs(design_matrix(t, 1, x) - oracle)) <= 1e-14
    for order in (2, 3):
        with pytest.raises(ValueError, match="full multiplicity"):
            bsplines.design_matrix(t, order, np.linspace(0.2, 0.6, 5))
        with pytest.raises(ValueError, match="full multiplicity"):
            bsplines.design_derivative(t, order, np.linspace(0.2, 0.6, 5))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_non_uniform_knots_match_scipy(order):
    # full multiplicity at the ends, uneven interior spans, above order 1
    t = np.array([0.0] * order + [0.1, 0.15, 0.7] + [1.0] * order)
    rng = np.random.default_rng(order)
    knots = np.unique(t)
    x = np.concatenate([rng.uniform(0, 1, 400), knots,
                        np.nextafter(knots[1:], -np.inf),
                        np.nextafter(knots[:-1], np.inf)])
    oracle = BSpline.design_matrix(x, t, order - 1).toarray()
    assert np.max(np.abs(design_matrix(t, order, x) - oracle)) <= 1e-14
    d_oracle = BSpline(t, np.eye(t.size - order), order - 1)(x, nu=1)
    err = np.max(np.abs(design_derivative(t, order, x) - d_oracle))
    assert err <= 1e-14 * np.max(np.abs(d_oracle))


def test_table_cache_keyed_on_knot_values():
    order, x = 3, np.linspace(0.0, 1.0, 97)
    t = knot_vector(order, 4)
    first, vals = bsplines.design_matrix(t, order, x)
    # a distinct array with the same values gives the same bits
    again_first, again = bsplines.design_matrix(t.copy(), order, x)
    assert np.array_equal(again_first, first)
    assert again.tobytes() == vals.tobytes()
    # other values of the same length, in a new array and written into the
    # array already seen, must not reuse its table
    other = np.array([0.0] * order + [0.1, 0.15, 0.6, 0.7] + [1.0] * order)
    oracle = BSpline.design_matrix(x, other, order - 1).toarray()
    assert np.max(np.abs(design_matrix(other, order, x) - oracle)) <= 1e-14
    t[:] = other
    assert np.max(np.abs(design_matrix(t, order, x) - oracle)) <= 1e-14


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_nan_takes_last_window_and_is_zero(order):
    # NaN is off the knot range: it takes the window of x = 1, as the
    # binary search puts it last, and every value there is 0
    t = knot_vector(order, 4)
    x = np.array([np.nan, 1.0])
    for evaluate in (bsplines.design_matrix, bsplines.design_derivative):
        first, vals = evaluate(t, order, x)
        assert first[0] == first[1]
        assert np.all(vals[0] == 0.0)
