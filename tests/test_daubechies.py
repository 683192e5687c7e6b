import numpy as np
import pytest

from sievereg.daubechies import (CascadeError, cascade, grid_inner,
                                 scaling_filter, tabulate_daubechies)

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


def test_haar_cascade_is_box():
    phi = cascade(scaling_filter(1), DEPTH)
    m = 2 ** DEPTH
    assert np.all(phi[:m] == 1.0)
    assert phi[m] == 0.0


def test_two_moment_values_at_integers():
    # classic closed forms at the integer points of the support
    phi = cascade(scaling_filter(2), DEPTH)
    m = 2 ** DEPTH
    assert abs(phi[m] - (1 + np.sqrt(3)) / 2) < 1e-7
    assert abs(phi[2 * m] - (1 - np.sqrt(3)) / 2) < 1e-7
    assert phi[0] == pytest.approx(0.0, abs=1e-7)


def test_partition_of_unity_on_grid():
    # sum of integer shifts is 1 at every tabulation point
    for n in (2, 3):
        phi = cascade(scaling_filter(n), DEPTH)
        m = 2 ** DEPTH
        x_idx = np.arange(m)
        total = np.zeros(m)
        for k in range(2 * n - 1):
            total += phi[x_idx + k * m]
        assert np.max(np.abs(total - 1.0)) < 1e-6


def test_cascade_nonconvergence_raises():
    with pytest.raises(CascadeError):
        cascade(scaling_filter(2), DEPTH, max_iter=3)


def test_boundary_counts_and_supports():
    fam = tabulate_daubechies(2, DEPTH)
    assert fam.left.shape == (2, fam.phi.size)
    assert fam.right.shape == (2, fam.phi.size)
    m = 2 ** DEPTH
    # left function k has support [0, N + k]: zero beyond
    assert np.all(fam.left[0][(2 + 0) * m + 1:] == 0.0)
    # right function k (stored for k = 1..N) vanishes below -(N + k - 1)
    assert np.all(fam.right[0][: (3 - 2) * m] == 0.0)


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
    fam = tabulate_daubechies(n_moments, DEPTH)
    gram = _independent_level_gram(fam, level)
    assert np.max(np.abs(gram - np.eye(2 ** level))) < 1e-6


def test_depth_precondition():
    with pytest.raises(ValueError):
        tabulate_daubechies(2, 9)

