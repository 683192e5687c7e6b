"""Two-sided one-sample Kolmogorov-Smirnov test of a sample against N(0, 1).

`ks_normal(t)` returns what `scipy.stats.kstest(t, scipy.special.ndtr)`
returns, bit for bit, without importing `scipy.stats`, whose import costs
more than the rest of the package's.  The p-value is the exact survival
function of `scipy.stats.kstwo`, with its choice of method per (n, x)
(Simard & L'Ecuyer 2011, J. Stat. Softw. 39(11)): the Ruben-Gambino closed
forms at n x <= 1 and n x >= n - 1; twice the one-sided `smirnov` tail for
x >= 0.5 and the upper tail; the Durbin matrix as Marsaglia, Tsang & Wang
(2003) evaluate it; the Pomeranz recursion; the Pelz-Good series.

Every expression repeats `scipy/stats/_ksstats.py`, operand types included:
x is a 0-d array, the rescaled products turn long double where scipy's do,
and the result is rounded to float64 once.  Rewriting one can move the last
bit of a p-value (tests/test_kolmogorov.py pins them).
"""

import numpy as np
from scipy.special import ndtr, smirnov

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_PI_SQUARED, _PI_FOUR, _PI_SIX = np.pi ** 2, np.pi ** 4, np.pi ** 6
_SQRT2PI = np.sqrt(2 * np.pi)
# B_{2j} / (2j) / (2j - 1), j = 8, ..., 1: Stirling's series for log n!
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def ks_normal(t):
    """(D, p-value); both NaN when t is empty or holds a NaN."""
    t = np.sort(np.asarray(t, dtype=float))
    m = t.size
    if m == 0 or np.isnan(t[-1]):                 # sort puts NaNs last
        return np.nan, np.nan
    cdf = ndtr(t)
    d_plus = np.max(np.arange(1.0, m + 1) / m - cdf)
    d_minus = np.max(cdf - np.arange(0.0, m) / m)
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), kstwo_sf(m, d)


def kstwo_sf(n, x):
    """P(D_n >= x) for the two-sided statistic D_n of n points."""
    x = np.asarray(x, dtype=float)
    if not 0.5 / n < x:
        return 1.0
    if not x < 1.0:
        return 0.0
    return float(np.clip(_sf(n, x), 0.0, 1.0))


def _sf(n, x):
    t = n * x
    if t <= 1.0:
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:                                     # log(n!/n^n) by Stirling
            rn = 1.0 / n
            log_ratio = (np.log(n) / 2 - n + np.log(2 * np.pi) / 2
                         + rn * np.polyval(_STIRLING_COEFFS, rn / n))
            prob = np.exp(log_ratio + n * np.log(2 * t - 1))
        return 1.0 - prob
    if t >= n - 1:
        return 2 * (1.0 - x) ** n
    if x >= 0.5:
        return 2 * smirnov(n, x)
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return 1.0 - _durbin(n, x)
        if nxsquared <= 4:
            return 1.0 - _pomeranz(n, x)
        return 2 * smirnov(n, x)
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return 2 * smirnov(n, x)
    if n <= 100000 and n * x ** 1.5 <= 1.4:
        return 1.0 - _durbin(n, x)
    return 1.0 - _pelz_good(n, x)


def _durbin(n, d):
    """P(D_n < d): n!/n^n times the (k, k) entry of H^n, H of order 2k - 1
    for d = (k - h)/n, 0 <= h < 1; the powers are rescaled by 2^-128."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    intm = np.arange(1, m + 1)
    fac = np.divide.accumulate(np.concatenate(([1.0], intm)))   # 1/j!
    v = (1.0 - h ** intm) * fac[1:]
    v[-1] = (1.0 + (max(2 * h - 1.0, 0) ** m - 2 * h ** m)) * fac[-1]
    H = np.zeros([m, m])
    for i in range(1, m):
        H[i - 1:, i] = fac[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)
    Hpwr = np.eye(m)
    nn, expnt, Hexpnt = n, 0, 0
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128                           # long double from here on
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _pomeranz(n, x):
    """P(D_n < x): n! times the last entry after 2n + 1 convolutions of a
    row with the scaled Poisson weights (g/n)^j/j!, (2g/n)^j/j! or
    ((1 - 2g)/n)^j/j!, keeping the nonzero span of two rows."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf, roundf = int(f > 0), int(f > 0.5)
    npwrs = 2 * (ll + 1)
    pw = np.ones((3, npwrs))
    rates = np.array([g / n, 2 * g / n, (1 - 2 * g) / n])
    for j in range(1, npwrs):
        pw[:, j] = pw[:, j - 1] * rates / j

    def span(i):
        half, rem = divmod(i + 1, 2)
        if i == 0:
            j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
        elif rem:                                 # i even
            j1, j2 = half - 1 - ll - 1, half + ll + roundf - 1
        elif half == n + 1:
            j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
        else:
            j1, j2 = half - 1 - ll - roundf - 1, half + ll - 1 + ceilf - 1
        return max(j1 + 2, 0), min(j2, n)

    V0, V1 = np.zeros(npwrs), np.zeros(npwrs)
    V1[0] = 1
    V0s = V1s = expnt = 0
    j1, j2 = span(0)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1, V0s, V1s = V1, V0, V1s, V0s
        V1.fill(0.0)
        j1, j2 = span(i)
        pwrs = pw[0 if i in (1, 2 * n + 1) else 1 if i % 2 else 2]
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            V1[:j2 - j1 + 1] = conv[j1 - k1:j2 - k1 + 1]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1
    ans = V1[n - V1s]
    for j in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128                         # long double from here on
            expnt += _E128
        ans *= j
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _pelz_good(n, x):
    """P(D_n < x) by the Pelz-Good series K0 + K1/sqrt(n) + K2/n + K3/n^1.5
    in z = sqrt(n) x; the theta sums over odd integers by Horner's scheme."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z ** 2, z ** 3, z ** 4, z ** 6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < -708:                               # z below about 0.0417
        return 0.0
    q = np.exp(qlog)
    k1a, k1b = -zsquared, _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z ** 8
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m ** 2, m ** 4, m ** 6
        K0to3 *= np.power(q, 8 * k)
        K0to3 += np.array([
            1.0, k1a + k1b * msquared, k2a + k2b * msquared + k2c * mfour,
            k3a + k3b * msquared + k3c * mfour + k3d * msix])
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z ** 7, 6480 * z ** 10])
    # the sums over all integers k in K2 and K3
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = np.sqrt(3) * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(K0to3)
