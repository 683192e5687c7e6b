"""Sieve bases on [0, 1]^d: B-splines, boundary wavelets, trig and power series.

A :class:`BasisSpec` names a concrete sieve family with its per-dimension
parameters; :func:`build_basis` turns it into an immutable
:class:`BasisSystem` that evaluates the K basis functions (and their
gradients) anywhere on the unit cube.  Multivariate bases are tensor
products of one univariate basis per coordinate, flattened in C order
(first coordinate slowest).

Conventions:

* splines are the L-infinity-normalized recursion output rescaled by
  ``sqrt(m + r)``, so K functions of order r with m uniform interior knots;
* wavelet bases are the 2^J scaling functions at resolution J (N left-edge,
  2^J - 2N interior shifts, N right-edge), orthonormal on L2([0,1]) up to
  tabulation tolerance; Haar (N = 1) is evaluated in closed form;
* ``trig`` is the orthonormal Fourier basis {1, sqrt2 cos(2 pi l x),
  sqrt2 sin(2 pi l x)}, size 2 * degree + 1;
* ``power`` spans polynomials up to `degree`, represented in the shifted
  Legendre orthonormal basis (raw monomial Grams are numerically singular
  beyond K ~ 12, and every quantity downstream is invariant to the choice
  of basis within the span);
* an optional axis-aligned box turns the basis into its weighted version:
  every function is multiplied by the indicator of the box.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import bsplines
from .daubechies import tabulate_daubechies

DEFAULT_TAB_DEPTH = 12

_FAMILIES = ("bspline", "wavelet", "trig", "power")


class ConfigurationError(ValueError):
    """A basis or study specification violates one of its constraints."""


@dataclass(frozen=True)
class BasisSpec:
    """Family plus per-dimension parameters of a sieve basis.

    The same parameters apply to every coordinate; the total dimension is
    ``K = K0 ** dim`` with ``K0 = m + r`` (splines), ``2**level`` (wavelets),
    ``2 * degree + 1`` (trig) or ``degree + 1`` (power).
    """

    family: str
    dim: int = 1
    order: int = 0        # bspline order r >= 1
    n_interior: int = 0   # bspline interior knot count m >= 0
    n_moments: int = 0    # wavelet vanishing moments N in {1, 2, 3}
    level: int = 0        # wavelet resolution J
    degree: int = 0       # trig / power degree

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(
                f"unknown basis family {self.family!r}; expected one of {_FAMILIES}"
            )
        if self.dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {self.dim}")
        if self.family == "bspline":
            if self.order < 1:
                raise ConfigurationError(
                    f"bspline order must be >= 1, got {self.order}"
                )
            if self.n_interior < 0:
                raise ConfigurationError(
                    f"bspline interior knot count must be >= 0, got {self.n_interior}"
                )
        elif self.family == "wavelet":
            if self.n_moments not in (1, 2, 3):
                raise ConfigurationError(
                    f"wavelet moment count must be in {{1, 2, 3}}, got {self.n_moments}"
                )
            if self.level < 1:
                raise ConfigurationError(
                    f"wavelet level must be >= 1, got {self.level}"
                )
            if self.n_moments >= 2 and 2 ** self.level <= 2 * self.n_moments:
                raise ConfigurationError(
                    f"wavelet level violates 2**level > 2 * n_moments: "
                    f"2**{self.level} = {2 ** self.level} <= {2 * self.n_moments}"
                )
        else:
            if self.degree < 0:
                raise ConfigurationError(
                    f"{self.family} degree must be >= 0, got {self.degree}"
                )

    @staticmethod
    def bspline(order, n_interior, dim=1):
        return BasisSpec(family="bspline", dim=dim, order=order,
                         n_interior=n_interior)

    @staticmethod
    def wavelet(n_moments, level, dim=1):
        return BasisSpec(family="wavelet", dim=dim, n_moments=n_moments,
                         level=level)

    @staticmethod
    def trig(degree, dim=1):
        return BasisSpec(family="trig", dim=dim, degree=degree)

    @staticmethod
    def power(degree, dim=1):
        return BasisSpec(family="power", dim=dim, degree=degree)

    @property
    def size_1d(self):
        if self.family == "bspline":
            return self.n_interior + self.order
        if self.family == "wavelet":
            return 2 ** self.level
        if self.family == "trig":
            return 2 * self.degree + 1
        return self.degree + 1

    @property
    def size(self):
        return self.size_1d ** self.dim

    def to_config(self):
        """Flat string key-value block (round-trips through from_config)."""
        out = {"family": self.family, "dim": str(self.dim)}
        if self.family == "bspline":
            out["order"] = str(self.order)
            out["n_interior"] = str(self.n_interior)
        elif self.family == "wavelet":
            out["n_moments"] = str(self.n_moments)
            out["level"] = str(self.level)
        else:
            out["degree"] = str(self.degree)
        return out

    @staticmethod
    def from_config(block):
        known = {"family", "dim", "order", "n_interior", "n_moments",
                 "level", "degree"}
        unknown = set(block) - known
        if unknown:
            raise ConfigurationError(
                f"unknown basis config keys: {sorted(unknown)}"
            )
        if "family" not in block:
            raise ConfigurationError("basis config is missing key 'family'")
        kwargs = {"family": block["family"]}
        for key in known - {"family"}:
            if key in block:
                kwargs[key] = int(block[key])
        return BasisSpec(**kwargs)


_family_cache = {}


def _scaling_family(n_moments, depth):
    key = (n_moments, depth)
    if key not in _family_cache:
        _family_cache[key] = tabulate_daubechies(n_moments, depth)
    return _family_cache[key]


class _Univariate:
    """One-dimensional evaluator: values, gradients, supports, breakpoints."""

    def __init__(self, spec, tab_depth):
        self.spec = spec
        self.size = spec.size_1d
        fam = spec.family
        if fam == "bspline":
            self.knots = bsplines.knot_vector(spec.order, spec.n_interior)
            self.scale = np.sqrt(self.size)
            self.supports = bsplines.support_intervals(self.knots, spec.order)
            self.breakpoints = np.unique(self.knots)
        elif fam == "wavelet":
            k0 = self.size
            self.scale = np.sqrt(k0)
            self.family_tab = None
            if spec.n_moments >= 2:
                self.family_tab = _scaling_family(spec.n_moments, tab_depth)
            self.supports = _wavelet_supports(spec.n_moments, spec.level)
            self.breakpoints = np.arange(k0 + 1) / k0
        else:
            self.supports = np.tile([0.0, 1.0], (self.size, 1))
            n_panels = max(16, 2 * spec.degree)
            self.breakpoints = np.arange(n_panels + 1) / n_panels

    def values(self, x):
        fam = self.spec.family
        if fam == "bspline":
            vals = bsplines.design_matrix(self.knots, self.spec.order, x)
            vals *= self.scale   # in place: the design can be n x K large
            return vals
        if fam == "wavelet":
            if self.spec.n_moments == 1:
                return _haar_values(x, self.spec.level)
            return _wavelet_values(x, self.spec.level, self.family_tab)
        if fam == "trig":
            return _trig_values(x, self.spec.degree)
        return _legendre_values(x, self.spec.degree)

    def gradients(self, x):
        fam = self.spec.family
        if fam == "bspline":
            return bsplines.design_derivative(self.knots, self.spec.order, x) * self.scale
        if fam == "wavelet":
            if self.spec.n_moments == 1:
                return np.zeros((np.atleast_1d(x).size, self.size))
            # central difference at one tabulation cell (diagnostic use only)
            h = 2.0 ** (-(self.spec.level + self.family_tab.depth))
            up = _wavelet_values(np.clip(x + h, 0.0, 1.0), self.spec.level,
                                 self.family_tab)
            dn = _wavelet_values(np.clip(x - h, 0.0, 1.0), self.spec.level,
                                 self.family_tab)
            return (up - dn) / (2.0 * h)
        if fam == "trig":
            return _trig_gradients(x, self.spec.degree)
        return _legendre_gradients(x, self.spec.degree)


def _haar_values(x, level):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k0 = 2 ** level
    cells = np.minimum((x * k0).astype(int), k0 - 1)  # x = 1 joins the last cell
    out = np.zeros((x.size, k0))
    out[np.arange(x.size), cells] = np.sqrt(k0)
    return out


def _wavelet_supports(n_moments, level):
    k0 = 2 ** level
    n = n_moments
    sup = np.empty((k0, 2))
    for k in range(n):
        sup[k] = (0.0, min(1.0, (n + k) / k0))
    for k in range(n, k0 - n):
        sup[k] = ((k - n + 1) / k0, (k + n) / k0)
    for k in range(1, n + 1):
        sup[k0 - k] = (max(0.0, 1.0 - (n + k - 1) / k0), 1.0)
    if n == 1:
        sup = np.column_stack([np.arange(k0) / k0, np.arange(1, k0 + 1) / k0])
    return sup


def _wavelet_values(x, level, family):
    """Tabulated Daubechies scaling functions at x.

    Each function is interpolated only at the points inside its closed
    support, a window of the sorted points, so the work is O(n (2N - 1))
    for n points rather than O(n K); elsewhere it is 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k0 = 2 ** level
    n = family.n_moments
    u = x * k0
    order = np.argsort(u, kind="stable")
    u = u[order]
    scale = np.sqrt(k0)
    out = np.zeros((x.size, k0))

    def put(col, tab, t_sorted, lo):
        """Column `col` from table `tab` starting at `lo`, on its support."""
        grid = lo + family.step * np.arange(tab.size)
        first = np.searchsorted(t_sorted, grid[0], side="left")
        last = np.searchsorted(t_sorted, grid[-1], side="right")
        out[order[first:last], col] = scale * np.interp(
            t_sorted[first:last], grid, tab, left=0.0, right=0.0)

    # left-edge functions live on [0, 2N-1] at unit scale
    for k in range(n):
        put(k, family.left[k], u, 0.0)
    # interior shifts: phi(u - k) with centered support [k-N+1, k+N]
    for k in range(n, k0 - n):
        put(k, family.phi, u, float(k - n + 1))
    # right-edge functions live on [-(2N-1), 0] relative to u = 2^J
    for k in range(1, n + 1):
        put(k0 - k, family.right[k - 1], u - k0, -(2.0 * n - 1.0))
    return out


def _trig_values(x, degree):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, 2 * degree + 1))
    out[:, 0] = 1.0
    root2 = np.sqrt(2.0)
    for l in range(1, degree + 1):
        out[:, 2 * l - 1] = root2 * np.cos(2.0 * np.pi * l * x)
        out[:, 2 * l] = root2 * np.sin(2.0 * np.pi * l * x)
    return out


def _trig_gradients(x, degree):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((x.size, 2 * degree + 1))
    root2 = np.sqrt(2.0)
    for l in range(1, degree + 1):
        w = 2.0 * np.pi * l
        out[:, 2 * l - 1] = -root2 * w * np.sin(w * x)
        out[:, 2 * l] = root2 * w * np.cos(w * x)
    return out


def _legendre_values(x, degree):
    """Shifted Legendre polynomials, orthonormal on L2([0,1])."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = 2.0 * x - 1.0
    p = np.empty((x.size, degree + 1))
    p[:, 0] = 1.0
    if degree >= 1:
        p[:, 1] = u
    for k in range(1, degree):
        p[:, k + 1] = ((2 * k + 1) * u * p[:, k] - k * p[:, k - 1]) / (k + 1)
    return p * np.sqrt(2.0 * np.arange(degree + 1) + 1.0)


def _legendre_gradients(x, degree):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = 2.0 * x - 1.0
    p = _legendre_values(x, degree) / np.sqrt(2.0 * np.arange(degree + 1) + 1.0)
    dp = np.zeros((x.size, degree + 1))
    if degree >= 1:
        dp[:, 1] = 1.0
    for k in range(1, degree):
        dp[:, k + 1] = dp[:, k - 1] + (2 * k + 1) * p[:, k]
    # chain rule for the [0,1] -> [-1,1] map
    return 2.0 * dp * np.sqrt(2.0 * np.arange(degree + 1) + 1.0)


class BasisSystem:
    """Immutable evaluator for the K tensor-product basis functions.

    Construction is single-threaded; evaluation is pure and safe to call
    concurrently.  All evaluation is 0 outside the weighting box (when one
    is set) and exactly 0 off each function's recorded support.
    """

    def __init__(self, spec, univariate, weight_box=None):
        self.spec = spec
        self._uni = univariate
        self.size = spec.size
        self.weight_box = None
        if weight_box is not None:
            box = np.asarray(weight_box, dtype=float).reshape(2, spec.dim)
            if np.any(box[0] > box[1]) or np.any(box[0] < 0) or np.any(box[1] > 1):
                raise ConfigurationError(
                    "weight box must satisfy 0 <= lo <= hi <= 1 per coordinate"
                )
            self.weight_box = box
        k0 = spec.size_1d
        idx = np.indices((k0,) * spec.dim).reshape(spec.dim, -1)
        # (K, dim, 2): per-coordinate support interval of each tensor function
        self.supports = np.stack(
            [self._uni.supports[idx[a]] for a in range(spec.dim)], axis=1
        )
        self.breakpoints_1d = self._uni.breakpoints

    def _as_points(self, x):
        x = np.asarray(x, dtype=float)
        if self.spec.dim == 1 and x.ndim <= 1:
            pts = np.atleast_1d(x).reshape(-1, 1)
            squeeze = x.ndim == 0
        elif x.ndim == 1:
            pts = x.reshape(1, -1)
            squeeze = True
        else:
            pts = x
            squeeze = False
        if pts.shape[1] != self.spec.dim:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, basis has {self.spec.dim}"
            )
        if not np.all((pts >= 0.0) & (pts <= 1.0)):
            raise ValueError("evaluation points must lie in [0, 1]^d")
        return pts, squeeze

    def _weight(self, pts):
        if self.weight_box is None:
            return None
        inside = np.all((pts >= self.weight_box[0]) & (pts <= self.weight_box[1]),
                        axis=1)
        return inside

    def evaluate(self, x):
        """Weighted basis vector b_w(x): shape (K,) or (n, K)."""
        pts, squeeze = self._as_points(x)
        cols = [self._uni.values(pts[:, a]) for a in range(self.spec.dim)]
        out = cols[0]
        for a in range(1, self.spec.dim):
            out = (out[:, :, None] * cols[a][:, None, :]).reshape(pts.shape[0], -1)
        inside = self._weight(pts)
        if inside is not None:
            out[~inside] = 0.0
        return out[0] if squeeze else out

    def evaluate_gradient(self, x):
        """Gradient of the weighted basis: shape (K, d) or (n, K, d)."""
        pts, squeeze = self._as_points(x)
        d = self.spec.dim
        vals = [self._uni.values(pts[:, a]) for a in range(d)]
        grads = [self._uni.gradients(pts[:, a]) for a in range(d)]
        n = pts.shape[0]
        out = np.empty((n, self.size, d))
        for a in range(d):
            factors = [grads[b] if b == a else vals[b] for b in range(d)]
            acc = factors[0]
            for b in range(1, d):
                acc = (acc[:, :, None] * factors[b][:, None, :]).reshape(n, -1)
            out[:, :, a] = acc
        inside = self._weight(pts)
        if inside is not None:
            out[~inside] = 0.0
        return out[0] if squeeze else out

    def with_weight_box(self, lo, hi):
        """Copy of this basis weighted by the indicator of [lo, hi] (per axis)."""
        box = np.array([np.broadcast_to(lo, (self.spec.dim,)),
                        np.broadcast_to(hi, (self.spec.dim,))], dtype=float)
        return BasisSystem(self.spec, self._uni, weight_box=box)

    @property
    def tab_family(self):
        return getattr(self._uni, "family_tab", None)


def build_basis(spec, weight_box=None, tab_depth=DEFAULT_TAB_DEPTH):
    """Construct the BasisSystem for `spec` (tabulating wavelets on demand)."""
    uni = _Univariate(spec, tab_depth)
    return BasisSystem(spec, uni, weight_box=weight_box)


def spec_with_size(spec, size_1d):
    """Nearest valid spec of the same family with per-dimension size target.

    Used by the K rules: splines keep their order and adjust the knot count,
    wavelets round the level to log2 of the target (respecting the level
    constraint), trig/power adjust the degree.
    """
    if spec.family == "bspline":
        m = max(0, int(round(size_1d)) - spec.order)
        return replace(spec, n_interior=m)
    if spec.family == "wavelet":
        level = max(1, int(round(np.log2(max(2, size_1d)))))
        if spec.n_moments >= 2:
            while 2 ** level <= 2 * spec.n_moments:
                level += 1
        return replace(spec, level=level)
    if spec.family == "trig":
        return replace(spec, degree=max(0, int(round((size_1d - 1) / 2))))
    return replace(spec, degree=max(0, int(round(size_1d)) - 1))
