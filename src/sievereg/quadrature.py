"""Deterministic quadrature on [0, 1]^d aligned to basis breakpoints.

Each basis family gets a composite rule whose panels follow the points where
its functions lose smoothness: knot panels for splines (Gauss-Legendre,
exact for the polynomial integrands), dyadic cells for Haar, the tabulation
cells for Daubechies wavelets (two-point Gauss per cell, exact for the
piecewise-linear tabulated functions), and uniform panels for trig/power
series.  Theoretical Grams need only the 1-D rule (see
:func:`sievereg.gram.theoretical_gram`); the d-fold product rule serves the
integrals of functions that are not tensor products: `l2_error`, the
integral functional, `lebesgue_constant_theoretical` and
`sieve_variance_oracle`.  The closed-form densities are products of one
per-coordinate factor, so they take no dimension.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .basis import ConfigurationError, _check_real


def points_2d(x):
    """Float (n, d) view of points; a 1-D array is n points in one dimension."""
    x = np.asarray(x, dtype=float)
    return x.reshape(-1, 1) if x.ndim == 1 else x


@dataclass(frozen=True)
class Density:
    """Closed-form density on [0, 1]^d.

    A density is a product of identical per-coordinate factors: `sample`
    draws each coordinate alone, and `theoretical_gram` integrates one 1-D
    Gram under the factor.  `pdf` maps an (n, d) array of points to (n,)
    values, so on one-column points it is the factor.  `cdf_1d` is the
    factor's CDF, for i.i.d. sampling by CDF inversion; without it the
    factor is uniform.
    """

    pdf: object
    name: str = "custom"
    cdf_1d: object = None

    def __call__(self, pts):
        return np.asarray(self.pdf(points_2d(pts)), dtype=float)

    def sample(self, rng, n, dim):
        """i.i.d. draws by inverting the per-coordinate CDF (bisection)."""
        u = rng.random((n, dim))
        if self.cdf_1d is None:
            return u
        lo = np.zeros_like(u)
        hi = np.ones_like(u)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            below = self.cdf_1d(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def uniform_density():
    return Density(pdf=lambda pts: np.ones(pts.shape[0]), name="uniform")


def sine_density(amplitude=0.5):
    """Product density prod_a (1 + amplitude * sin(2 pi x_a)) in any
    dimension; integrates to 1."""
    _check_real(amplitude=amplitude)
    if not 0.0 <= amplitude < 1.0:
        raise ConfigurationError("amplitude must be in [0, 1)")

    def pdf(pts):
        return np.prod(1.0 + amplitude * np.sin(2.0 * np.pi * pts), axis=1)

    def cdf_1d(x):
        return x + amplitude * (1.0 - np.cos(2.0 * np.pi * x)) / (2.0 * np.pi)

    return Density(pdf=pdf, name="sine", cdf_1d=cdf_1d)


_DENSITIES = {"uniform": uniform_density, "sine": sine_density}


def density_by_name(name):
    if name not in _DENSITIES:
        raise ConfigurationError(f"unknown density {name!r}; expected one of "
                                 f"{sorted(_DENSITIES)}")
    return _DENSITIES[name]()


@dataclass(frozen=True)
class Quadrature:
    """Nodes (Q, d) and positive weights (Q,) on [0, 1]^d."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_panels(breakpoints, n_nodes):
    """Composite Gauss-Legendre rule over the given panel edges."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(n_nodes)
    ref_x = 0.5 * (ref_x + 1.0)  # to [0, 1]
    ref_w = 0.5 * ref_w
    edges = np.asarray(breakpoints, dtype=float)
    widths = np.diff(edges)
    keep = widths > 0
    lo = edges[:-1][keep]
    w = widths[keep]
    nodes = (lo[:, None] + w[:, None] * ref_x[None, :]).ravel()
    weights = (w[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _univariate_rule(basis, max_nodes):
    spec = basis.spec
    edges = basis.breakpoints_1d
    if spec.family == "bspline":
        return gauss_panels(edges, max(8, spec.order))
    if spec.family == "wavelet":
        if spec.n_moments == 1:
            return gauss_panels(edges, 4)
        # split each dyadic cell (its edges are grid points) into 2^sub,
        # down to the tabulation step if 2 nodes a cell fit in max_nodes:
        # then the two-point rule is exact for the piecewise-linear tables
        sub = max(0, min(basis.tab_family.depth,
                         int(max_nodes).bit_length() - 2 - spec.level))
        fine = np.linspace(0.0, 1.0, 2 ** (spec.level + sub) + 1)
        return gauss_panels(fine, 2)
    if spec.family == "trig":
        return gauss_panels(edges, 8)
    return gauss_panels(edges, max(8, spec.degree + 1))


def basis_quadrature(basis, max_nodes_1d=None):
    """Product quadrature adapted to the basis.

    Under the uniform density its Gauss panels integrate the Gram products
    of spline, Haar and power functions exactly, and those of trig
    functions to rounding-level accuracy.  A Daubechies-N (N >= 2) rule is
    exact only when it refines every dyadic cell down to the tabulation
    step, which needs 2^(J + 13) nodes per axis.  Above `max_nodes_1d`
    (default 2**19 for d = 1, 2**12 per axis for d >= 2) it stops short of
    that step and is not exact.  That matters for 1-D Daubechies rules at
    J >= 7 (the D2 Gram is 7.1e-7 off at J = 7) and for the product-rule
    users named above (a D2 rule with 2**12 nodes is 1.8e-5 off at J = 3);
    theoretical Grams use only the 1-D rule.
    """
    if max_nodes_1d is None:
        max_nodes_1d = 2 ** 19 if basis.spec.dim == 1 else 2 ** 12
    nodes_1d, w_1d = _univariate_rule(basis, max_nodes_1d)
    d = basis.spec.dim
    return Quadrature(nodes=_product(nodes_1d, d),
                      weights=reduce(np.multiply.outer, [w_1d] * d).ravel())


def _product(pts_1d, d):
    """The (m**d, d) points of the d-fold product of pts_1d, in C order."""
    grids = np.meshgrid(*([pts_1d] * d), indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def sup_grid(basis):
    """Evaluation grid used to certify sup norms.

    Dense uniform points plus every breakpoint and breakpoint-cell midpoint;
    suprema of the piecewise-smooth quantities here are attained at or near
    these points.
    """
    d = basis.spec.dim
    base_points = {1: 4096, 2: 256}.get(d, 32)
    edges = basis.breakpoints_1d
    mids = 0.5 * (edges[:-1] + edges[1:])
    return _product(np.union1d(np.linspace(0.0, 1.0, base_points + 1),
                               np.union1d(edges, mids)), d)


_GRAM_CHUNK = 65536     # quadrature nodes per LocalDesign


def weighted_basis_gram(basis, quad, point_weight):
    """sum_q w_q g(y_q) b(y_q) b(y_q)' by `LocalDesign.gram` over node
    chunks: O(Q w^2d) for Q nodes where a dense product is O(Q K^2)."""
    gram = np.zeros((basis.size,) * 2)
    for start in range(0, quad.nodes.shape[0], _GRAM_CHUNK):
        pts = quad.nodes[start:start + _GRAM_CHUNK]
        w = quad.weights[start:start + _GRAM_CHUNK] * point_weight(pts)
        gram += basis.local(pts).gram(weights=w)
    return 0.5 * (gram + gram.T)
