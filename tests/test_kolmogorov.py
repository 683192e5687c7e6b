"""The numpy port of the two-sided KS test against `scipy.stats`, bit for bit.

The port exists so that the coverage study need not import `scipy.stats`;
the tests may, and pin the port to it with `==` on the float64 bits.
"""

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest, kstwo

from sievereg import _kolmogorov


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_kstwo_sf_bitwise_at_every_branch_edge(monkeypatch):
    """Each edge of the branch selection, at the edge and one ulp either
    side, for n = 1..300 (and past the m x^2 = 370 cut-off, which only
    n > 370 reach)."""
    used = dict.fromkeys(("_durbin", "_pomeranz", "_pelz_good", "smirnov"), 0)
    for name in used:
        def counted(*args, _f=getattr(_kolmogorov, name), _name=name):
            used[_name] += 1
            return _f(*args)
        monkeypatch.setattr(_kolmogorov, name, counted)
    ns, xs = [], []
    for n in [*range(1, 301), 371, 400, 1000]:
        edges = [0.5 / n, 1.0 / n, (n - 1) / n, 0.5, (1.4 / n) ** (2 / 3)]
        edges += [np.sqrt(c / n) for c in (0.754693, 2.2, 4, 18, 370)]
        for x in edges:
            ns += [n] * 3
            xs += [np.nextafter(x, 0.0), x, np.nextafter(x, 2.0)]
    ns, xs = np.array(ns), np.array(xs)
    ours = [_kolmogorov.kstwo_sf(int(n), x) for n, x in zip(ns, xs)]
    assert np.array_equal(_bits(ours), _bits(kstwo.sf(xs, ns)))
    assert all(used.values()), used


@pytest.mark.parametrize("n", [140, 141])
def test_kstwo_sf_bitwise_across_the_range(n):
    """A dense grid of x on both sides of the n <= 140 switch."""
    xs = np.linspace(0.0, 1.0, 1001)
    ours = [_kolmogorov.kstwo_sf(n, x) for x in xs]
    assert np.array_equal(_bits(ours), _bits(kstwo.sf(xs, n)))


def test_ks_normal_bitwise_against_kstest():
    """(D, p) of kstest(t, ndtr) for samples of every size 1..300, centred,
    shifted and spread so that D falls in every branch."""
    rng = np.random.default_rng(18)
    shapes = [(0.0, 1.0), (0.3, 1.0), (0.0, 1.6), (2.5, 0.2), (-6.0, 1.0)]
    for m in range(1, 301):
        shift, scale = shapes[m % len(shapes)]
        t = shift + scale * rng.standard_normal(m)
        ref = kstest(t, ndtr)
        ours = _kolmogorov.ks_normal(t)
        assert np.array_equal(_bits(ours), _bits([ref.statistic, ref.pvalue])), m


@pytest.mark.parametrize("t", [[0.3], [0.0], [-np.inf], [np.inf, 0.2],
                               [0.1, np.nan, 0.4], [np.nan]])
def test_ks_normal_bitwise_small_and_nan_samples(t):
    ref = kstest(np.array(t), ndtr)
    ours = _kolmogorov.ks_normal(t)
    if np.isnan(ref.statistic):
        assert np.isnan(ours).all()
    else:
        assert np.array_equal(_bits(ours), _bits([ref.statistic, ref.pvalue]))


def test_ks_normal_empty_sample_is_nan():
    assert np.isnan(_kolmogorov.ks_normal([])).all()
