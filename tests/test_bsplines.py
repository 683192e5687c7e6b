import numpy as np
import pytest
from scipy.interpolate import BSpline

from sievereg.bsplines import (design_derivative, design_matrix, knot_vector,
                               support_intervals)


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


def test_knots_without_end_multiplicity_match_scipy():
    # the same recursion on a knot vector whose ends are not repeated
    t = np.array([0.0, 0.1, 0.25, 0.5, 0.55, 0.8, 1.0])
    x = np.linspace(0.0, 1.0, 201)
    for order in (1, 2, 3):
        inside = (x >= t[order - 1]) & (x <= t[-order])
        oracle = BSpline.design_matrix(x[inside], t, order - 1).toarray()
        got = design_matrix(t, order, x[inside])
        assert np.max(np.abs(got - oracle)) <= 1e-14
