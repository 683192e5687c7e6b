import numpy as np
import pytest

from sievereg.daubechies import grid_inner, scaling_filter, tabulate_daubechies

DEPTH = 12
STEP = 2.0 ** -DEPTH


def test_filter_normalization_and_orthogonality():
    for n in (1, 2, 3):
        h = scaling_filter(n)
        assert h.size == 2 * n
        assert abs(h.sum() - np.sqrt(2.0)) < 1e-14
        for m in range(n):
            ip = np.sum(h[2 * m:] * h[: h.size - 2 * m])
            assert abs(ip - (1.0 if m == 0 else 0.0)) < 1e-14


def test_filter_rejects_unsupported_count():
    with pytest.raises(ValueError):
        scaling_filter(4)


@pytest.mark.parametrize("n_moments, at_zero", [(2, 0.0), (3, 0.0)])
def test_cascade_value_at_zero_is_exact(n_moments, at_zero):
    # the cascade's fixed point has phi(0) = sqrt(2) h_0 phi(0) with
    # sqrt(2) h_0 != 1, so phi(0) = 0; the table holds it exactly
    assert tabulate_daubechies(n_moments).phi[0] == at_zero


def test_two_moment_values_at_integers():
    # classic closed forms at the integer points of the support
    phi = tabulate_daubechies(2).phi
    m = 2 ** DEPTH
    assert abs(phi[m] - (1 + np.sqrt(3)) / 2) < 1e-15
    assert abs(phi[2 * m] - (1 - np.sqrt(3)) / 2) < 1e-15


def test_partition_of_unity_on_grid():
    # sum of integer shifts is 1 at every tabulation point
    m = 2 ** DEPTH
    for n in (2, 3):
        phi = tabulate_daubechies(n).phi
        total = phi[:-1].reshape(2 * n - 1, m).sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-13


@pytest.mark.parametrize("n_moments", [2, 3])
def test_table_is_a_two_scale_fixed_point(n_moments):
    # one step of phi(x) = sqrt(2) sum_k h_k phi(2x - k) on the grid
    phi, m = tabulate_daubechies(n_moments).phi, 2 ** DEPTH
    step = np.zeros(phi.size)
    for k, tap in enumerate(scaling_filter(n_moments)):
        src = 2 * np.arange(phi.size) - k * m
        ok = (src >= 0) & (src < phi.size)
        step[ok] += np.sqrt(2.0) * tap * phi[src[ok]]
    assert np.max(np.abs(step - phi)) <= 1e-14


def test_haar_is_not_tabulated():
    # basis evaluates Haar in closed form
    with pytest.raises(ValueError):
        tabulate_daubechies(1)


def test_boundary_counts_and_supports():
    fam = tabulate_daubechies(2)
    assert fam.left.shape == (2, fam.phi.size)
    assert fam.right.shape == (2, fam.phi.size)
    m = 2 ** DEPTH
    # left function k has support [0, N + k]: zero beyond
    assert np.all(fam.left[0][(2 + 0) * m + 1:] == 0.0)
    # right function k (stored for k = 1..N) vanishes below -(N + k - 1)
    # and at it
    assert np.all(fam.right[0][: (3 - 2) * m + 1] == 0.0)


def _independent_level_gram(fam, level):
    """Quadrature oracle: assemble the level system on the mapped tabulation
    grid by direct shifting, then integrate the piecewise-linear products."""
    n, depth = fam.n_moments, fam.depth
    m = 2 ** depth
    k0 = 2 ** level
    n_pts = k0 * m + 1
    rows = np.zeros((k0, n_pts))
    scale = 2.0 ** (level / 2.0)
    width = fam.phi.size
    for k in range(n):
        rows[k, :width] = scale * fam.left[k]
    for k in range(n, k0 - n):
        start = (k - n + 1) * m
        rows[k, start:start + width] = scale * fam.phi
    for k in range(1, n + 1):
        rows[k0 - k, n_pts - width:] = scale * fam.right[k - 1]
    step = 2.0 ** (-(level + depth))
    gram = np.empty((k0, k0))
    for i in range(k0):
        for j in range(i, k0):
            gram[i, j] = gram[j, i] = grid_inner(rows[i], rows[j], step)
    return gram


@pytest.mark.parametrize("n_moments,level", [(2, 4), (3, 4)])
def test_level_system_orthonormal(n_moments, level):
    fam = tabulate_daubechies(n_moments)
    gram = _independent_level_gram(fam, level)
    assert np.max(np.abs(gram - np.eye(2 ** level))) < 1e-6
