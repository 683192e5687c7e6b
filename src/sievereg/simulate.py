"""Data-generating processes and Monte Carlo studies.

Regressors are i.i.d. uniform or a uniform-marginal AR copula: a latent
stationary Gaussian AR(1) per coordinate, z_t - rho z_{t-1} = e_t, which is
one unit lower-bidiagonal solve (LAPACK `dtbtrs`) with every path a column,
pushed through the normal CDF.  Errors are martingale differences: fresh
innovations, independent of the regressor path, optionally scaled by the
conditional deviation `bump_sigma` of the current regressor.  Both uniform
variants draw through the normal CDF so the rho -> 0 copula reproduces the
i.i.d. stream exactly.

The studies, the tail generator and the CLI's gram-report sample draw
from `derived_rng(seed, stream, *keys)`, default_rng([seed, tag, *keys])
with the tag from one table, `_STREAMS`.  The rate and coverage studies key a stream by (n-index,
replication) (coverage's one n has index 0); the stability study by
(1000 * n-index + K target, replication), so every family at a K target
reads the same regressor draws; the Gram-deviation tail generator by chunk
of replications.  So reports are bit-identical across reruns and worker
counts; replications may execute on a thread pool, results are
aggregated in replication order.
"""

import ctypes
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.special import ndtr

from ._kolmogorov import ks_normal
from .basis import (BasisSpec, ConfigurationError, _check_at_least,
                    _check_positive, _check_real, build_basis, spec_with_size)
from .estimator import fit, fixed_design, l2_error, named_target, sup_error
from .gram import (GramFactor, NumericError, empirical_gram_matrix,
                   gram_deviation, lebesgue_constant_empirical,
                   theoretical_gram)
from .inference import FunctionalSpec, functional_report
from .quadrature import (basis_quadrature, points_2d, sup_grid,
                         uniform_density)

# stream -> its tag in the seed sequence [seed, tag, *keys]
_STREAMS = {"rate": 1, "coverage": 2, "stability": 3, "gram-report": 7,
            "gram_deviation": 202}

# error rate (n / log n)^slope of the synthetic-oracle rate study
_SYNTHETIC_SLOPE = -0.4


@dataclass(frozen=True)
class RegressorSpec:
    """Strictly stationary regressor process on [0, 1]^d."""

    kind: str = "iid_uniform"   # or "ar_copula"
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iid_uniform", "ar_copula"):
            raise ConfigurationError(f"unknown regressor kind {self.kind!r}")
        _check_real(rho=self.rho)
        if self.kind == "iid_uniform" and self.rho != 0.0:
            raise ConfigurationError(f"`rho` applies only to ar_copula regressors, "
                                     f"not iid_uniform, got {self.rho}")
        if self.kind == "ar_copula" and not -1.0 < self.rho < 1.0:
            raise ConfigurationError(f"ar_copula rho must be in (-1, 1), "
                                     f"got {self.rho}")

    @property
    def mixing(self):
        """True when the regressors are serially dependent (beta-mixing)."""
        return self.kind == "ar_copula" and self.rho != 0.0


@dataclass(frozen=True)
class ErrorSpec:
    """Martingale-difference error distribution.

    "gaussian": N(0, sigma^2); "student_t": scale * t(df) (df = 3 has a
    finite (2+delta)-th moment for delta < 1 but infinite kurtosis);
    "heteroskedastic": bump_sigma(X_i) times a N(0, 1) innovation.  Every
    field is finite and > 0, and a law refuses a field that only another
    law reads, unless it is the default.
    """

    kind: str = "gaussian"
    sigma: float = 1.0
    df: float = 3.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "student_t", "heteroskedastic"):
            raise ConfigurationError(f"unknown error kind {self.kind!r}")
        _check_positive(sigma=self.sigma, df=self.df, scale=self.scale)
        for name, law in (("sigma", "gaussian"), ("df", "student_t"),
                          ("scale", "student_t")):
            value = getattr(self, name)
            if self.kind != law and value != getattr(ErrorSpec, name):
                raise ConfigurationError(f"`{name}` applies only to the {law} "
                                         f"error law, not {self.kind}, got {value}")
        if self.kind == "student_t" and self.df <= 2.0:
            raise ConfigurationError(f"student_t needs df > 2 for a finite "
                                     f"variance, got {self.df}")


def bump_sigma(pts):
    """Heteroskedastic conditional deviation 0.5 + mean_a x_a (1 - x_a);
    inf > 0."""
    pts = points_2d(pts)
    return 0.5 + np.mean(pts * (1.0 - pts), axis=1)


def _check_dims(dgp, name, *specs):
    """ConfigurationError unless each spec is a BasisSpec of the DGP's dim."""
    for spec in specs:
        if not isinstance(spec, BasisSpec):
            raise ConfigurationError(f"`{name}`: {spec!r} is not a BasisSpec")
        if spec.dim != dgp.dim:
            raise ConfigurationError(f"basis `dim` = {spec.dim} differs from "
                                     f"the DGP `dim` = {dgp.dim}")


@dataclass(frozen=True)
class DgpSpec:
    """Regressor process, error law, and named target ``h0`` (resolved here)."""

    regressor: RegressorSpec = RegressorSpec()
    error: ErrorSpec = ErrorSpec()
    h0_name: str = "smooth_trig"
    smoothness: float = 2.0
    dim: int = 1
    h0: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_at_least(1, dim=self.dim)
        _check_positive(p=self.smoothness)
        object.__setattr__(self, "h0",
                           named_target(self.h0_name, p=self.smoothness))


def derived_rng(master_seed, stream, *keys):
    """Deterministic generator of one stream of `_STREAMS` at the integer
    keys (a study's n-index and replication, a tail chunk)."""
    if stream not in _STREAMS:
        raise ValueError(f"unknown stream {stream!r}; expected one of "
                         f"{sorted(_STREAMS)}")
    return np.random.default_rng(
        [int(master_seed), _STREAMS[stream], *(int(key) for key in keys)])


def regressor_paths(spec, n, dim, rng, reps=1):
    """(reps, n, dim) array of regressor paths."""
    z = rng.standard_normal((reps, n, dim))
    if spec.mixing:
        rho = spec.rho
        innov = z * np.sqrt(1.0 - rho * rho)
        innov[:, 0, :] = z[:, 0, :]  # stationary start
        # band rows (1, -rho); column j is path (rep, coord) = divmod(j, dim)
        x, info = dtbtrs(np.array([np.ones(n), np.full(n, -rho)]),
                         innov.transpose(1, 0, 2).reshape(n, reps * dim),
                         uplo="L", diag="U")
        if info != 0:
            raise NumericError(f"AR(1) path solve failed (dtbtrs info {info})")
        z = x.reshape(n, reps, dim).transpose(1, 0, 2)
    return ndtr(z, order="C")


def error_draws(spec, x, rng):
    """Martingale-difference errors for the sample points x (n, d)."""
    n = x.shape[0]
    if spec.kind == "gaussian":
        return spec.sigma * rng.standard_normal(n)
    if spec.kind == "student_t":
        return spec.scale * rng.standard_t(spec.df, n)
    return bump_sigma(x) * rng.standard_normal(n)


def gen_sample(dgp, n, seed=None, rng=None):
    """One sample (X, Y) with Y_i = h0(X_i) + eps_i, deterministic given seed."""
    if rng is None:
        rng = np.random.default_rng(seed)
    x = regressor_paths(dgp.regressor, n, dgp.dim, rng, reps=1)[0]
    eps = error_draws(dgp.error, x, rng)
    y = dgp.h0(x) + eps
    return x, y


@dataclass
class StudyReport:
    """Study output: one summary mapping plus per-replication detail rows."""

    kind: str
    summary: dict
    rows: list
    columns: list
    config: dict = field(default_factory=dict)


def _set_heap_thresholds():
    """Fix glibc's mmap and trim thresholds at 32 and 64 MB: under its
    dynamic rule the heap of a study's per-fit arrays is trimmed and
    faulted in again on every fit.  Setting either turns the rule off for
    both, so both are set; a libc without `mallopt` is left as it is."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
        mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD


def _run_indexed(task, n_jobs, threads):
    """Evaluate task(i) for i in range(n_jobs), in order, optionally pooled."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(task, range(n_jobs)))
    return [task(i) for i in range(n_jobs)]


def fit_loglog_slope(sizes, errors):
    """OLS slope of log(error) on log(n / log n), with its SE and R^2."""
    sizes = np.asarray(sizes, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.unique(sizes).size < 2:
        raise ValueError("a log-log slope needs at least two distinct sizes")
    u = np.log(sizes / np.log(sizes))
    v = np.log(errors)
    design = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    resid = v - design @ coef
    dof = max(u.size - 2, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(design.T @ design)
    tss = float(np.sum((v - v.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else 1.0
    return float(coef[1]), float(np.sqrt(cov[1, 1])), r2


def k_rule(n, p, d, c=1.0):
    """Series size K = round(c * (n / log n)^(d / (2p + d)))."""
    return max(1, int(round(c * (n / np.log(n)) ** (d / (2.0 * p + d)))))


def _check_p_read(config):
    """Refuse a DGP `p` that neither h0 nor the K rule reads: smooth_trig
    has no smoothness, and a given `krule_p` replaces `p` in the K rule."""
    dgp = config.dgp
    if (dgp.h0_name == "smooth_trig" and config.krule_p is not None
            and dgp.smoothness != DgpSpec.smoothness):
        raise ConfigurationError(f"`p` = {dgp.smoothness} is read by neither "
                                 "h0 = smooth_trig nor the K rule (`krule_p`)")


def _sieve_spec(config, n):
    """The spec that the K rule gives a rate or coverage study at size n."""
    p = config.dgp.smoothness if config.krule_p is None else config.krule_p
    k = k_rule(n, p, config.dgp.dim, config.krule_c)
    return spec_with_size(config.basis_spec, k)


@dataclass(frozen=True)
class RateStudyConfig:
    dgp: DgpSpec
    basis_spec: BasisSpec
    n_grid: tuple[int, ...]
    reps: int
    krule_c: float = 1.0
    krule_p: float = None       # defaults to the DGP smoothness
    seed: int = 0
    threads: int = 1
    synthetic_oracle: bool = False

    def __post_init__(self):
        _check_at_least(1, reps=self.reps, threads=self.threads)
        _check_at_least(2, n_grid=self.n_grid)      # k_rule divides by log n
        _check_at_least(0, seed=self.seed)
        _check_positive(krule_c=self.krule_c, krule_p=self.krule_p)
        _check_dims(self.dgp, "basis_spec", self.basis_spec)
        _check_p_read(self)
        if len(set(self.n_grid)) < 2:       # no log-log slope to fit
            raise ConfigurationError("`n_grid` needs at least two distinct "
                                     f"sizes, got {self.n_grid!r}")


def rate_study(config):
    """Median sup/L2 error per n, the fitted log-log slopes, and fit health.

    The summary counts the rank-deficient fits and reports the largest
    design condition number seen (null when no fit ran).

    Meaningful slope estimates want at least 4 points in the n grid and
    50 or more replications; smaller runs are allowed for smoke tests and
    the synthetic-oracle plumbing check.
    """
    _set_heap_thresholds()
    dgp = config.dgp
    n_grid = tuple(int(n) for n in config.n_grid)
    density = uniform_density()  # both shipped designs have uniform marginals
    rows = []
    med_sup, med_l2 = [], []
    health = []     # (rank_deficient, cond) of every fit
    for i_n, n in enumerate(n_grid):
        spec_n = _sieve_spec(config, n)
        if config.synthetic_oracle:
            err = (n / np.log(n)) ** _SYNTHETIC_SLOPE
            sups = np.full(config.reps, err)
            l2s = np.full(config.reps, err)
        else:
            basis = build_basis(spec_n)
            grid = sup_grid(basis)
            quad = basis_quadrature(basis)
            h0_grid = dgp.h0(grid)
            h0_quad = dgp.h0(quad.nodes)
            # the error points are the same for every replication at this n
            at_grid = fixed_design(basis, grid)
            at_quad = fixed_design(basis, quad.nodes)

            def one_rep(rep):       # every call ends within this n's pass
                rng = derived_rng(config.seed, "rate", i_n, rep)
                x, y = gen_sample(dgp, n, rng=rng)
                fr = fit(basis, x, y)
                return (sup_error(fr.predict(at_grid), h0_grid),
                        l2_error(fr.predict(at_quad), h0_quad, density,
                                 quad=quad),
                        fr.rank_deficient, fr.cond)

            out = _run_indexed(one_rep, config.reps, config.threads)
            sups = np.array([o[0] for o in out])
            l2s = np.array([o[1] for o in out])
            health += [o[2:] for o in out]
        for rep in range(config.reps):
            rows.append((n, spec_n.size, rep, sups[rep], l2s[rep]))
        med_sup.append(float(np.median(sups)))
        med_l2.append(float(np.median(l2s)))
    slope_sup, se_sup, r2_sup = fit_loglog_slope(n_grid, med_sup)
    slope_l2, se_l2, r2_l2 = fit_loglog_slope(n_grid, med_l2)
    summary = {
        "n_grid": list(n_grid),
        "median_sup": med_sup,
        "median_l2": med_l2,
        "slope_sup": slope_sup, "slope_sup_se": se_sup, "slope_sup_r2": r2_sup,
        "slope_l2": slope_l2, "slope_l2_se": se_l2, "slope_l2_r2": r2_l2,
        "rank_deficient": sum(int(flag) for flag, _ in health),
        "max_cond": max((cond for _, cond in health), default=np.nan),
    }
    return StudyReport(kind="rate", summary=summary, rows=rows,
                       columns=["n", "k", "rep", "sup_error", "l2_error"],
                       config={"seed": config.seed, "reps": config.reps,
                               "krule_c": config.krule_c,
                               "synthetic_oracle": config.synthetic_oracle})


@dataclass(frozen=True)
class CoverageStudyConfig:
    dgp: DgpSpec
    basis_spec: BasisSpec
    n: int
    functional: FunctionalSpec
    reps: int
    level: float = 0.95
    krule_c: float = 1.0
    krule_p: float = None
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        _check_at_least(1, reps=self.reps, threads=self.threads)
        _check_at_least(2, n=self.n)                # k_rule divides by log n
        _check_at_least(0, seed=self.seed)
        _check_positive(krule_c=self.krule_c, krule_p=self.krule_p)
        _check_dims(self.dgp, "basis_spec", self.basis_spec)
        _check_p_read(self)
        _check_real(level=self.level)
        if not 0.0 < self.level < 1.0:
            raise ConfigurationError(f"`level` must be in (0, 1), got {self.level}")
        if self.functional.x0 is not None:
            x0 = np.ravel(self.functional.x0)
            if x0.size != self.dgp.dim or not np.all((x0 >= 0) & (x0 <= 1)):
                raise ConfigurationError(
                    f"`x0` must be a point of [0, 1]^{self.dgp.dim}, "
                    f"got {x0.tolist()}")


def coverage_study(config):
    """Empirical CI coverage and the replication t-statistics."""
    _set_heap_thresholds()
    dgp = config.dgp
    spec_n = _sieve_spec(config, config.n)
    basis = build_basis(spec_n)
    # only an integral reads a quadrature rule
    quad = (basis_quadrature(basis) if config.functional.kind == "integral"
            else None)
    f0, _ = config.functional.value(dgp.h0, quad=quad)
    part = config.functional.linear_part(basis, quad)

    def one_rep(rep):
        rng = derived_rng(config.seed, "coverage", 0, rep)
        x, y = gen_sample(dgp, config.n, rng=rng)
        fr = fit(basis, x, y)
        try:
            rep_out = functional_report(fr, config.functional, f0=f0,
                                        level=config.level, part=part)
        except NumericError:
            return None
        covered = rep_out.ci[0] <= f0 <= rep_out.ci[1]
        return (rep, rep_out.fhat, rep_out.vk_hat, rep_out.tstat,
                rep_out.ci[0], rep_out.ci[1], int(covered),
                rep_out.clamped, rep_out.rank_deficient)

    results = [r for r in _run_indexed(one_rep, config.reps, config.threads)
               if r is not None]
    rows = [r[:7] for r in results]
    degenerate = config.reps - len(results)
    tsample = np.array([r[3] for r in rows])
    covered = np.array([r[6] for r in rows])
    lengths = np.array([r[5] - r[4] for r in rows])
    ks_stat, ks_pvalue = ks_normal(tsample)
    summary = {
        "n": config.n, "k": spec_n.size, "level": config.level,
        "f0": f0,
        "coverage": float(np.mean(covered)) if covered.size else np.nan,
        "mean_ci_length": float(np.mean(lengths)) if lengths.size else np.nan,
        "ks_stat": ks_stat,
        "ks_pvalue": ks_pvalue,
        "degenerate": degenerate,
        "clamped": sum(int(r[7]) for r in results),
        "rank_deficient": sum(int(r[8]) for r in results),
        "reps": config.reps,
    }
    return StudyReport(kind="coverage", summary=summary, rows=rows,
                       columns=["rep", "fhat", "vk_hat", "t", "lo", "hi",
                                "covered"],
                       config={"seed": config.seed, "reps": config.reps,
                               "n": config.n,
                               "functional": config.functional.kind})


@dataclass(frozen=True)
class StabilityStudyConfig:
    dgp: DgpSpec
    basis_specs: tuple[BasisSpec, ...]      # templates, resized to each K
    k_grid: tuple[int, ...]
    n_grid: tuple[int, ...]
    reps: int
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        _check_at_least(1, reps=self.reps, k_grid=self.k_grid,
                        n_grid=self.n_grid, threads=self.threads)
        _check_at_least(0, seed=self.seed)
        if not isinstance(self.basis_specs, tuple) or not self.basis_specs:
            raise ConfigurationError("`basis_specs` must be a non-empty tuple "
                                     f"of BasisSpec, got {self.basis_specs!r}")
        _check_dims(self.dgp, "basis_specs", *self.basis_specs)
        if self.dgp != DgpSpec(regressor=self.dgp.regressor, dim=self.dgp.dim):
            raise ConfigurationError(f"the stability study reads only the DGP "
                                     f"regressor and `dim`, got {self.dgp}")
        cells = [(spec.family, spec_with_size(spec, k).size, n)
                 for spec in self.basis_specs for k in self.k_grid
                 for n in self.n_grid]
        if len(set(cells)) < len(cells):
            twice = next(c for i, c in enumerate(cells) if c in cells[:i])
            raise ConfigurationError(
                "stability cells must be distinct, but the basis templates, "
                f"`k_grid` and `n_grid` give (family, K, n) = {twice} twice")
        keys = {}
        for k in self.k_grid:
            for i_n, n in enumerate(self.n_grid):
                other = keys.setdefault(_stream_key(i_n, k), (k, n))
                if other != (k, n):
                    raise ConfigurationError(
                        f"stability cells (K target, n) = {other} and {(k, n)} "
                        f"share the regressor stream key {_stream_key(i_n, k)}"
                        " = 1000 * (`n_grid` index) + K target")


def _stream_key(i_n, k_target):
    """Replication stream key of the stability cell (n_grid[i_n], k_target)."""
    return 1000 * i_n + int(k_target)


def stability_study(config):
    """Gram deviation and empirical Lebesgue constant over (basis, K, n)."""
    _set_heap_thresholds()
    dgp = config.dgp
    density = uniform_density()  # both shipped designs have uniform marginals
    rows = []
    med = {}
    slopes = []     # per-(family, K) deviation slope in log n
    for spec_t in config.basis_specs:
        for k_target in config.k_grid:
            spec_k = spec_with_size(spec_t, k_target)
            basis = build_basis(spec_k)
            factor_th = GramFactor(theoretical_gram(basis, density))
            grid = basis.local(sup_grid(basis))
            med_devs = []
            for i_n, n in enumerate(config.n_grid):

                def one_rep(rep):   # every call ends within this cell's pass
                    rng = derived_rng(config.seed, "stability",
                                      _stream_key(i_n, k_target), rep)
                    x = regressor_paths(dgp.regressor, n, dgp.dim, rng)[0]
                    gram_emp = empirical_gram_matrix(basis, x)
                    dev = gram_deviation(factor_th, gram_emp)
                    leb = lebesgue_constant_empirical(basis, x, grid=grid,
                                                      gram=gram_emp)
                    return dev, leb.value, leb.rank_deficient

                out = _run_indexed(one_rep, config.reps, config.threads)
                devs = np.array([o[0] for o in out])
                lebs = np.array([o[1] for o in out])
                flagged = sum(int(o[2]) for o in out)
                for rep in range(config.reps):
                    rows.append((spec_t.family, spec_k.size, n, rep,
                                 devs[rep], lebs[rep]))
                med_devs.append(float(np.median(devs)))
                med[(spec_t.family, spec_k.size, n)] = (
                    med_devs[-1], float(np.median(lebs)), flagged)
            if len(med_devs) >= 2 and all(v > 0 for v in med_devs):
                slope = np.polyfit(np.log([float(n) for n in config.n_grid]),
                                   np.log(med_devs), 1)[0]
                slopes.append({"family": spec_t.family, "k": spec_k.size,
                               "dev_slope_logn": float(slope)})
    summary = {
        "medians": [
            {"family": fam, "k": k, "n": n, "dev": v[0],
             "lebesgue_empirical": v[1], "rank_deficient": v[2]}
            for (fam, k, n), v in sorted(med.items())
        ],
        "dev_slopes": slopes,
    }
    return StudyReport(kind="stability", summary=summary, rows=rows,
                       columns=["family", "k", "n", "rep", "dev",
                                "lebesgue_empirical"],
                       config={"seed": config.seed, "reps": config.reps})
