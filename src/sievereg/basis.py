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
  of basis within the span).

Every family's values and gradients are computed in the local form of
:class:`LocalDesign`: the w**d functions per point that can be nonzero
there (w is r for order-r splines, 2N - 1 for Daubechies-N (2N along a
gradient's axis), 1 for Haar, K0 for trig and power).
"""

from dataclasses import dataclass, replace
from functools import cache
from numbers import Real

import numpy as np

from . import bsplines
from .daubechies import tabulate_daubechies

# family -> the per-dimension fields it reads, each with its smallest
# value; the other fields must stay 0
_FAMILIES = {"bspline": {"order": 1, "n_interior": 0},
             "wavelet": {"n_moments": 1, "level": 1},
             "trig": {"degree": 0}, "power": {"degree": 0}}


class ConfigurationError(ValueError):
    """A spec, study config or name lookup refuses a value: every one of
    them raises this type, a ValueError."""


def _check_entries(kind, ok, fields):
    """ConfigurationError naming the field unless each value's entries are
    all `ok` and there is one at least; a ragged nesting, which numpy
    cannot flatten, has none."""
    for name, value in fields.items():
        try:
            items = np.ravel(value).tolist()
        except ValueError:
            items = []
        if not items or not all(map(ok, items)):
            raise ConfigurationError(f"`{name}` must be {kind}, got {value!r}")


def _check_at_least(low, **fields):
    """ConfigurationError unless each value is an integer >= low or a
    non-empty grid of them."""
    kind = ("a non-negative integer" if low == 0 else
            "a positive integer" + (f" >= {low}" if low > 1 else ""))
    _check_entries(f"{kind} (or a non-empty grid of them)",
                   lambda v: isinstance(v, int) and v >= low, fields)


def _check_real(**fields):
    """ConfigurationError unless each value is a real number or a non-empty
    array of them."""
    _check_entries("a real number (or a non-empty array of them)",
                   lambda v: isinstance(v, Real), fields)


def _check_positive(**fields):
    """ConfigurationError unless each value other than None is a finite
    real number > 0."""
    for name, value in fields.items():
        if value is not None and not (isinstance(value, Real)
                                      and np.isfinite(value) and value > 0.0):
            raise ConfigurationError(
                f"`{name}` must be a finite number > 0, got {value}")


@dataclass(frozen=True)
class LocalDesign:
    """Row i of the dense (n, size) design holds vals[i] at the ascending
    columns cols[i] and 0 elsewhere.  The columns are the tensor product of
    one window of consecutive functions per coordinate, so cols[i, 0]
    identifies the whole window.
    """

    cols: np.ndarray    # (n, w**d) int
    vals: np.ndarray    # (n, w**d)
    size: int

    def dense(self):
        """The (n, size) design; a full-width window is vals itself."""
        n, w = self.vals.shape
        if w == self.size:
            return self.vals
        out = np.zeros((n, self.size))
        out.ravel()[self.cols + (self.size * np.arange(n))[:, None]] = self.vals
        return out

    def __matmul__(self, coeffs):
        """dense() @ coeffs as a numpy row sum of vals * coeffs over each
        row's window: one path for every width, and no BLAS."""
        return np.sum(self.vals * coeffs[self.cols], axis=1)

    def gram(self, weights=None, blocks=None):
        """sum_i w_i b_i b_i' over the rows b_i, or B'B/n without `weights`;
        with `blocks`, the stack of these over equal consecutive row blocks.

        Width 1 (Haar): one bincount of the squared values onto the diagonal.
        Full width (trig, power, `fixed_design`): one product.  Otherwise one
        bincount per pair a <= b of window offsets fills the upper triangle,
        which is mirrored: O(n w^2), no BLAS.
        """
        m = 1 if blocks is None else blocks
        rows, w = self.vals.shape
        k, n = self.size, rows // m
        scale, div = (1.0, n) if weights is None else (weights, 1)
        if w == k:
            v = self.vals.reshape(m, n, k)
            rhs = v if weights is None else v * weights.reshape(m, n, 1)
            grams = np.swapaxes(v, 1, 2) @ rhs / div
        elif w == 1:
            diag = np.bincount(self.cols[:, 0] + np.repeat(k * np.arange(m), n),
                               self.vals[:, 0] ** 2 * scale, m * k)
            grams = np.zeros((m, k, k))
            grams[:, np.arange(k), np.arange(k)] = diag.reshape(m, k) / div
        else:
            at = self.cols * k + np.repeat(k * k * np.arange(m), n)[:, None]
            flat = np.zeros(m * k * k)
            for a in range(w):
                for b in range(a, w):
                    flat += np.bincount(at[:, a] + self.cols[:, b],
                                        self.vals[:, a] * self.vals[:, b]
                                        * scale, m * k * k)
            upper = flat.reshape(m, k, k) / div
            grams = upper + np.swapaxes(np.triu(upper, 1), 1, 2)
        return grams if blocks is not None else grams[0]


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
                f"unknown basis family {self.family!r}; expected one of "
                f"{tuple(_FAMILIES)}"
            )
        for key in ("order", "n_interior", "n_moments", "level", "degree"):
            value = getattr(self, key)
            if value != 0 and key not in _FAMILIES[self.family]:
                raise ConfigurationError(
                    f"`{key}` = {value} is not a parameter of the "
                    f"{self.family} family")
        _check_at_least(1, dim=self.dim)
        for key, low in _FAMILIES[self.family].items():
            _check_at_least(low, **{key: getattr(self, key)})
        n, level = self.n_moments, self.level
        if self.family == "wavelet" and (n > 3 or
                                         n >= 2 and 2 ** level <= 2 * n):
            raise ConfigurationError(
                f"wavelets need n_moments in {{1, 2, 3}}, and 2**level > "
                f"2 * n_moments for n_moments >= 2, got `n_moments` = {n}, "
                f"`level` = {level}")

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


@cache
def _scaling_family(n_moments):
    return tabulate_daubechies(n_moments)


@cache
def _padded_tables(n_moments):
    """(flat tables, table length) of `_scaling_family(n_moments)`, built
    once: [left..., phi, right...], each with its last value repeated, so
    that slope 0 at the last node reads it exactly."""
    family = _scaling_family(n_moments)
    tables = np.vstack([family.left, family.phi, family.right])
    padded = np.pad(tables, ((0, 0), (0, 1)), mode="edge")
    return padded.ravel(), tables.shape[1]


class _Univariate:
    """One-dimensional evaluator: values, gradients, supports, breakpoints."""

    def __init__(self, spec):
        self.spec = spec
        self.size = spec.size_1d
        fam = spec.family
        if fam == "bspline":
            self.knots = bsplines.knot_vector(spec.order, spec.n_interior)
            self.scale = np.sqrt(self.size)
            self.supports = bsplines.support_intervals(self.knots, spec.order)
            self.breakpoints = np.unique(self.knots)
        elif fam == "wavelet":
            k0, n = self.size, spec.n_moments
            self.family_tab = _scaling_family(n) if n >= 2 else None
            # function k lives on [k - N + 1, k + N] / 2^J clipped to [0, 1]:
            # a shift of phi, the edge function replacing it, or a Haar cell
            k = np.arange(k0)
            self.supports = np.clip(np.column_stack([k - n + 1, k + n]),
                                    0, k0) / k0
            self.breakpoints = np.arange(k0 + 1) / k0
        else:
            self.supports = np.tile([0.0, 1.0], (self.size, 1))
            n_panels = max(16, 2 * spec.degree)
            self.breakpoints = np.arange(n_panels + 1) / n_panels

    def values(self, x):
        """(first, vals): point i's active functions are first[i] + 0..w-1."""
        fam = self.spec.family
        if fam == "bspline":
            first, vals = bsplines.design_matrix(self.knots, self.spec.order, x)
            vals *= self.scale
            return first, vals
        if fam == "wavelet":
            if self.spec.n_moments == 1:
                return _haar_values(x, self.spec.level)
            return _wavelet_values(x, self.spec.level, self.family_tab)
        series = _trig_values if fam == "trig" else _legendre_values
        vals = series(x, self.spec.degree)
        return np.zeros(len(vals), dtype=np.intp), vals

    def gradients(self, x):
        """(first, grads) in the form of `values`."""
        fam = self.spec.family
        if fam == "bspline":
            first, grads = bsplines.design_derivative(self.knots,
                                                      self.spec.order, x)
            grads *= self.scale
            return first, grads
        if fam == "wavelet":
            if self.spec.n_moments == 1:
                first, vals = _haar_values(x, self.spec.level)
                return first, np.zeros_like(vals)
            # central difference at one tabulation cell (diagnostic use
            # only), in a window one wider than the values' that holds both
            # and ends at column K0 - 1 at the latest
            h = 2.0 ** (-(self.spec.level + self.family_tab.depth))
            f_up, up = self.values(np.clip(x + h, 0.0, 1.0))
            f_dn, dn = self.values(np.clip(x - h, 0.0, 1.0))
            first = np.minimum(f_dn, self.size - up.shape[1] - 1)
            return first, (_widen(up, f_up - first)
                           - _widen(dn, f_dn - first)) / (2.0 * h)
        series = _trig_gradients if fam == "trig" else _legendre_gradients
        grads = series(x, self.spec.degree)
        return np.zeros(len(grads), dtype=np.intp), grads


def _widen(vals, shift):
    """vals in a window one column wider, starting `shift` (0 or 1) columns
    before vals' own."""
    return np.where(shift[:, None] == 1, np.pad(vals, ((0, 0), (1, 0))),
                    np.pad(vals, ((0, 0), (0, 1))))


def _haar_values(x, level):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k0 = 2 ** level
    cells = np.minimum((x * k0).astype(np.intp), k0 - 1)  # x = 1: last cell
    return cells, np.full((x.size, 1), np.sqrt(k0))


def _wavelet_values(x, level, family):
    """Tabulated Daubechies scaling functions on each point's window:
    (first, vals) with vals of shape (n, 2N - 1).

    The window of cell c is the 2N - 1 functions whose supports overlap it
    (`_Univariate.supports`), shifted to stay inside 0..2^J - 1.  Each
    value is computed as np.interp would on the function's own table (same
    nodes, slope and formula), so it equals a per-function interpolation.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k0 = 2 ** level
    n = family.n_moments
    w = 2 * n - 1
    u = x * k0
    first = np.clip(np.minimum(u.astype(np.intp), k0 - 1) - (n - 1), 0, k0 - w)
    j = first[:, None] + np.arange(w)
    # per column: its table in [left..., phi, right...], the table's first
    # node, and whether it is read at u - 2^J (right edge)
    col = np.arange(k0)
    right = col >= k0 - n
    tid = np.where(col < n, col, np.where(right, n + k0 - col, n))
    start = np.where(col < n, 0.0, np.where(right, 1.0 - 2.0 * n, col - n + 1.0))
    tables, size = _padded_tables(n)
    step = family.step
    t = np.where(right[j], u[:, None] - k0, u[:, None])
    lo = start[j]
    # node index left of t, corrected for rounding in t - lo
    i = np.floor((t - lo) / step).astype(np.intp)
    i -= lo + step * i > t
    i += lo + step * (i + 1) <= t
    inside = (i >= 0) & (i < size)
    i = np.clip(i, 0, size - 1)
    at = tid[j] * (size + 1) + i
    f0, f1 = tables[at], tables[at + 1]
    vals = (f1 - f0) / step * (t - (lo + step * i)) + f0
    return first, np.sqrt(k0) * np.where(inside, vals, 0.0)


def _trig_values(x, degree):
    # on contiguous (K0, n) rows, as below; returns the C-ordered transpose
    out = np.empty((2 * degree + 1, x.size))
    out[0] = 1.0
    root2 = np.sqrt(2.0)
    for l in range(1, degree + 1):
        out[2 * l - 1] = root2 * np.cos(2.0 * np.pi * l * x)
        out[2 * l] = root2 * np.sin(2.0 * np.pi * l * x)
    return np.ascontiguousarray(out.T)


def _trig_gradients(x, degree):
    out = np.zeros((2 * degree + 1, x.size))
    root2 = np.sqrt(2.0)
    for l in range(1, degree + 1):
        w = 2.0 * np.pi * l
        out[2 * l - 1] = -root2 * w * np.sin(w * x)
        out[2 * l] = root2 * w * np.cos(w * x)
    return np.ascontiguousarray(out.T)


def _legendre_values(x, degree):
    """Shifted Legendre polynomials, orthonormal on L2([0,1])."""
    u = 2.0 * x - 1.0
    p = np.empty((degree + 1, u.size))
    p[0] = 1.0
    if degree >= 1:
        p[1] = u
    for k in range(1, degree):
        p[k + 1] = ((2 * k + 1) * u * p[k] - k * p[k - 1]) / (k + 1)
    p *= np.sqrt(2.0 * np.arange(degree + 1) + 1.0)[:, None]
    return np.ascontiguousarray(p.T)


def _legendre_gradients(x, degree):
    scale = np.sqrt(2.0 * np.arange(degree + 1) + 1.0)[:, None]
    p = np.ascontiguousarray(_legendre_values(x, degree).T) / scale
    dp = np.zeros_like(p)
    if degree >= 1:
        dp[1] = 1.0
    for k in range(1, degree):
        dp[k + 1] = dp[k - 1] + (2 * k + 1) * p[k]
    # chain rule for the [0,1] -> [-1,1] map
    return np.ascontiguousarray((2.0 * dp * scale).T)


class BasisSystem:
    """Immutable evaluator for the K tensor-product basis functions.

    Construction is single-threaded; evaluation is pure and safe to call
    concurrently.  Every function is exactly 0 off its recorded support.
    """

    def __init__(self, spec, univariate):
        self.spec = spec
        self._uni = univariate
        self.size = spec.size
        # the 1-D basis whose d-fold tensor power this is; both share `_uni`
        self.factor = (self if spec.dim == 1 else
                       BasisSystem(replace(spec, dim=1), univariate))
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

    def local(self, x):
        """LocalDesign of b at the points: w**d active columns per point."""
        return self._local(self._as_points(x)[0])

    def _local(self, pts, grad_axis=None):
        """LocalDesign of b, or of its derivative along axis grad_axis."""
        n, k0 = pts.shape[0], self.spec.size_1d
        for a in range(self.spec.dim):
            rule = self._uni.gradients if a == grad_axis else self._uni.values
            first, v = rule(pts[:, a])
            c = (first + np.arange(v.shape[1])[:, None]).T   # F-ordered
            if a == 0:
                cols, vals = c, v
            else:
                cols = (cols[:, :, None] * k0 + c[:, None, :]).reshape(n, -1)
                vals = (vals[:, :, None] * v[:, None, :]).reshape(n, -1)
        if vals.shape[1] == self.size:  # full width: 0..K-1 on every row, once
            cols = np.broadcast_to(np.arange(self.size), vals.shape)
        return LocalDesign(cols, vals, self.size)

    def evaluate(self, x):
        """Basis vector b(x): shape (K,) or (n, K)."""
        pts, squeeze = self._as_points(x)
        out = self._local(pts).dense()
        return out[0] if squeeze else out

    def evaluate_gradient(self, x):
        """Gradient of the basis: shape (K, d) or (n, K, d)."""
        pts, squeeze = self._as_points(x)
        out = np.stack([self._local(pts, a).dense()
                        for a in range(self.spec.dim)], axis=-1)
        return out[0] if squeeze else out

    @property
    def tab_family(self):
        return getattr(self._uni, "family_tab", None)


def build_basis(spec):
    """Construct the BasisSystem for `spec` (tabulating wavelets on demand)."""
    return BasisSystem(spec, _Univariate(spec))


def spec_with_size(spec, k_target):
    """Nearest valid spec of the same family to k_target functions in all.

    Each axis takes round(k_target ** (1 / dim)), at least 2: splines adjust
    the knot count, wavelets round the level to log2 of it (respecting the
    level constraint), trig/power adjust the degree.
    """
    size_1d = max(2, int(round(k_target ** (1 / spec.dim))))
    if spec.family == "bspline":
        return replace(spec, n_interior=max(0, size_1d - spec.order))
    if spec.family == "wavelet":
        level = int(round(np.log2(size_1d)))
        while spec.n_moments >= 2 and 2 ** level <= 2 * spec.n_moments:
            level += 1
        return replace(spec, level=level)
    if spec.family == "trig":
        return replace(spec, degree=round((size_1d - 1) / 2))
    return replace(spec, degree=size_1d - 1)
