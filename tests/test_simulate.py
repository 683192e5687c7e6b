import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from sievereg.basis import (BasisSpec, BasisSystem, ConfigurationError,
                            build_basis, spec_with_size)
from sievereg.concentration import ConcentrationStudyConfig
from sievereg.estimator import fit, l2_error, named_target, sup_error
from sievereg.gram import GramFactor
from sievereg.quadrature import (basis_quadrature, density_by_name,
                                 sine_density, sup_grid, uniform_density)
from sievereg.simulate import (CoverageStudyConfig, DgpSpec, ErrorSpec,
                               RateStudyConfig, RegressorSpec,
                               StabilityStudyConfig, bump_sigma,
                               coverage_study, derived_rng, error_draws,
                               fit_loglog_slope, gen_sample, k_rule,
                               rate_study, regressor_paths, stability_study)
from sievereg import inference, simulate
from sievereg.inference import FunctionalSpec


def test_zero_rho_copula_equals_iid_with_shared_innovations():
    # both regressor kinds draw through the normal CDF, so the rho = 0
    # copula reproduces the i.i.d. stream exactly
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    a = regressor_paths(RegressorSpec("iid_uniform"), 100, 1, rng1)
    b = regressor_paths(RegressorSpec("ar_copula", 0.0), 100, 1, rng2)
    assert np.array_equal(a, b)


def test_copula_marginals_uniform_ks():
    # the 99% KS band is an i.i.d. band, so thin dependent paths down to a
    # lag where the residual autocorrelation is negligible
    n = 100000
    for rho in (0.0, 0.5, 0.9):
        rng = np.random.default_rng([9, int(rho * 10)])
        x = regressor_paths(RegressorSpec("ar_copula", rho), n, 1, rng)[0, :, 0]
        stride = 1 if rho == 0.0 else int(np.ceil(np.log(0.01) / np.log(rho)))
        thinned = x[::stride]
        dist = stats.kstest(thinned, "uniform").statistic
        assert dist < 1.63 / np.sqrt(thinned.size)


def test_copula_autocorrelation_present():
    rng = np.random.default_rng(10)
    x = regressor_paths(RegressorSpec("ar_copula", 0.8), 50000, 1, rng)[0, :, 0]
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert lag1 > 0.6


def test_noiseless_sample_is_exact():
    # sigma = 0 is refused, so take the noise out of a sample instead: it is
    # h0 at the regressors plus the error draws of the same stream, exactly
    dgp = DgpSpec(error=ErrorSpec(kind="gaussian", sigma=0.5))
    x, y = gen_sample(dgp, 200, seed=3)
    rng = np.random.default_rng(3)
    x_ref = regressor_paths(dgp.regressor, 200, 1, rng)[0]
    eps = error_draws(dgp.error, x_ref, rng)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(y, dgp.h0(x) + eps)


def test_sample_deterministic_given_seed():
    dgp = DgpSpec(regressor=RegressorSpec("ar_copula", 0.6),
                  error=ErrorSpec(kind="student_t", df=3.0))
    x1, y1 = gen_sample(dgp, 500, seed=11)
    x2, y2 = gen_sample(dgp, 500, seed=11)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_student_t3_moments():
    rng = np.random.default_rng(12)
    spec = ErrorSpec(kind="student_t", df=3.0, scale=0.5)
    x = np.zeros((1000000, 1))
    draws = error_draws(spec, x, rng)
    assert abs(np.mean(draws)) < 0.01
    assert np.var(draws) == pytest.approx(3.0 * 0.25, rel=0.05)
    # kurtosis diverges: batch medians of the 4th moment grow with batch size
    m4_small = np.median([np.mean(draws[i::100] ** 4) for i in range(100)])
    m4_large = np.median([np.mean(draws[i::4] ** 4) for i in range(4)])
    assert m4_large > m4_small


def test_martingale_difference_diagnostics():
    dgp = DgpSpec(regressor=RegressorSpec("ar_copula", 0.7),
                  error=ErrorSpec(kind="heteroskedastic"))
    n = 20000
    x, y = gen_sample(dgp, n, seed=13)
    eps = y - dgp.h0(x)
    band = 3.0 / np.sqrt(n)
    for lag in range(1, 6):
        corr = np.corrcoef(eps[:-lag], eps[lag:])[0, 1]
        assert abs(corr) < band
    # uncorrelated with a fixed transform of the current regressor
    corr_x = np.corrcoef(eps, np.sin(2 * np.pi * x[:, 0]))[0, 1]
    assert abs(corr_x) < band


def test_heteroskedastic_scale_applied():
    rng = np.random.default_rng(14)
    spec = ErrorSpec(kind="heteroskedastic")
    x = np.full((200000, 1), 0.5)
    draws = error_draws(spec, x, rng)
    assert np.std(draws) == pytest.approx(bump_sigma(x)[0], rel=0.01)


def test_invalid_specs():
    with pytest.raises(ValueError):
        RegressorSpec("ar_copula", 1.0)
    with pytest.raises(ValueError):
        RegressorSpec("garch")
    with pytest.raises(ValueError, match="`rho`"):
        RegressorSpec("iid_uniform", 0.9)
    with pytest.raises(ValueError):
        ErrorSpec(kind="student_t", df=2.0)
    with pytest.raises(ValueError):
        ErrorSpec(kind="cauchy")
    # a field that only another error law reads is refused, not dropped
    for kind, key, value in (("student_t", "sigma", 2.0),
                             ("heteroskedastic", "sigma", 4.0),
                             ("gaussian", "df", 7.0),
                             ("gaussian", "scale", 9.0)):
        with pytest.raises(ValueError, match=f"`{key}`"):
            ErrorSpec(kind, **{key: value})
    # a zero or negative deviation is refused, not drawn as a sign flip or
    # as noise-free data
    for kind, key, value in (("gaussian", "sigma", -1.0),
                             ("gaussian", "sigma", 0.0),
                             ("student_t", "scale", 0.0),
                             ("student_t", "scale", -2.0)):
        with pytest.raises(ConfigurationError, match=f"`{key}` must be a "
                                                     "finite number > 0"):
            ErrorSpec(kind, **{key: value})


def test_k_rule_and_slope_fitter():
    assert k_rule(2000, 2.0, 1, c=1.0) == round((2000 / np.log(2000)) ** 0.2)
    ns = [500, 1000, 2000, 4000]
    errs = [(n / np.log(n)) ** -0.4 for n in ns]
    slope, se, r2 = fit_loglog_slope(ns, errs)
    assert slope == pytest.approx(-0.4, abs=1e-12)
    assert r2 == pytest.approx(1.0)
    for sizes in ([200], [2000, 2000]):
        with pytest.raises(ValueError, match="two distinct sizes"):
            fit_loglog_slope(sizes, [0.1] * len(sizes))


def test_rate_study_synthetic_oracle():
    config = RateStudyConfig(dgp=DgpSpec(), basis_spec=BasisSpec.bspline(3, 2),
                             n_grid=(500, 1000, 2000, 4000), reps=3,
                             synthetic_oracle=True)
    report = rate_study(config)
    assert report.summary["slope_sup"] == pytest.approx(-0.4, abs=1e-12)
    assert report.summary["slope_l2"] == pytest.approx(-0.4, abs=1e-12)


def test_rate_study_reproducible():
    config = RateStudyConfig(dgp=DgpSpec(), basis_spec=BasisSpec.bspline(3, 2),
                             n_grid=(200, 400), reps=3, krule_c=4.0, seed=21)
    r1 = rate_study(config)
    r2 = rate_study(config)
    assert r1.summary == r2.summary
    assert r1.rows == r2.rows
    threaded = rate_study(
        RateStudyConfig(dgp=DgpSpec(), basis_spec=BasisSpec.bspline(3, 2),
                        n_grid=(200, 400), reps=3, krule_c=4.0, seed=21,
                        threads=3))
    assert threaded.rows == r1.rows


def test_rate_study_reports_fit_health():
    # Haar with K = 16 at n = 20 leaves cells empty: every such fit is
    # rank deficient with an infinite condition number; K = 32 at n = 400
    # fills every cell
    config = RateStudyConfig(dgp=DgpSpec(), basis_spec=BasisSpec.wavelet(1, 2),
                             n_grid=(20, 400), reps=3, krule_c=12.0, seed=4)
    summary = rate_study(config).summary
    assert summary["rank_deficient"] == 3
    assert summary["max_cond"] == np.inf
    healthy = rate_study(RateStudyConfig(
        dgp=DgpSpec(), basis_spec=BasisSpec.bspline(3, 2), n_grid=(200, 400),
        reps=3, seed=4)).summary
    assert healthy["rank_deficient"] == 0
    assert 1.0 <= healthy["max_cond"] < 1e4
    oracle = rate_study(RateStudyConfig(
        dgp=DgpSpec(), basis_spec=BasisSpec.bspline(3, 2), n_grid=(500, 1000),
        reps=2, synthetic_oracle=True)).summary
    assert oracle["rank_deficient"] == 0 and np.isnan(oracle["max_cond"])


def test_rate_study_fixed_designs_bitwise():
    # the study's once-per-n grid and quadrature designs give the rows of
    # a loop that evaluates the basis at the error points for every fit
    dgp = DgpSpec(regressor=RegressorSpec("ar_copula", 0.5),
                  error=ErrorSpec("student_t"), h0_name="holder",
                  smoothness=1.5)
    config = RateStudyConfig(dgp=dgp, basis_spec=BasisSpec.bspline(3, 2),
                             n_grid=(200, 400, 800), reps=2, krule_c=3.0,
                             seed=5)
    want = []
    for i_n, n in enumerate(config.n_grid):
        spec = spec_with_size(config.basis_spec, k_rule(n, 1.5, 1, 3.0))
        basis = build_basis(spec)
        grid, quad = sup_grid(basis), basis_quadrature(basis)
        for rep in range(config.reps):
            rng = derived_rng(config.seed, "rate", i_n, rep)
            fr = fit(basis, *gen_sample(dgp, n, rng=rng))
            want.append((n, spec.size, rep,
                         sup_error(fr.predict(grid), dgp.h0(grid)),
                         l2_error(fr.predict(quad.nodes), dgp.h0(quad.nodes),
                                  uniform_density(), quad=quad)))
    assert rate_study(config).rows == want


def test_coverage_study_smoke():
    config = CoverageStudyConfig(
        dgp=DgpSpec(), basis_spec=BasisSpec.wavelet(1, 3), n=400,
        functional=FunctionalSpec.point_eval(0.37), reps=20, krule_p=1.0,
        krule_c=4.0, seed=22)
    report = coverage_study(config)
    assert 0.0 <= report.summary["coverage"] <= 1.0
    assert report.summary["k"] == 16
    assert len(report.rows) + report.summary["degenerate"] == 20
    covered_col = [r[6] for r in report.rows]
    assert set(covered_col) <= {0, 1}


def test_coverage_replication_solves_twice(monkeypatch):
    # one solve for the fit and one for the representer, which the plug-in
    # variance takes from the report instead of solving for it again
    solve, calls = GramFactor.solve, []

    def counting(self, rhs):
        calls.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(GramFactor, "solve", counting)
    config = CoverageStudyConfig(
        dgp=DgpSpec(), basis_spec=BasisSpec.wavelet(1, 3), n=400,
        functional=FunctionalSpec.point_eval(0.37), reps=20, krule_p=1.0,
        krule_c=4.0, seed=22)
    report = coverage_study(config)
    assert report.summary["degenerate"] == 0
    assert len(calls) == 2 * config.reps


def test_coverage_counts_clamped_and_rank_deficient_reps(monkeypatch):
    # smooth_trig(0.37) is about 0.65, so every fitted h(x0) exceeds the clamp
    monkeypatch.setattr(inference, "EXP_CLAMP", 0.01)
    config = CoverageStudyConfig(
        dgp=DgpSpec(), basis_spec=BasisSpec.wavelet(1, 3), n=400,
        functional=FunctionalSpec.nonlinear_exp_eval(0.37), reps=6,
        krule_p=1.0, krule_c=4.0, seed=24)
    summary = coverage_study(config).summary
    assert summary["degenerate"] == 0
    assert summary["clamped"] == config.reps
    assert summary["rank_deficient"] == 0


def test_coverage_noiseless_reported_not_asserted():
    # with sigma near 0 (0 itself is refused) the residual is almost all
    # approximation error, so intervals collapse toward points at the
    # projected value; coverage is whatever the bias makes it and is
    # reported rather than asserted
    base = dict(basis_spec=BasisSpec.wavelet(1, 3), n=200,
                functional=FunctionalSpec.point_eval(0.37), reps=10,
                krule_p=1.0, krule_c=4.0, seed=23)
    noiseless = coverage_study(CoverageStudyConfig(
        dgp=DgpSpec(error=ErrorSpec(sigma=1e-9)), **base))
    noisy = coverage_study(CoverageStudyConfig(
        dgp=DgpSpec(error=ErrorSpec(sigma=1.0)), **base))
    assert 0.0 <= noiseless.summary["coverage"] <= 1.0
    assert noiseless.summary["mean_ci_length"] < 0.5 * noisy.summary["mean_ci_length"]


def test_stability_study_shapes_and_determinism():
    config = StabilityStudyConfig(
        dgp=DgpSpec(), basis_specs=(BasisSpec.wavelet(1, 3),
                                    BasisSpec.bspline(4, 4)),
        k_grid=(8, 16), n_grid=(500,), reps=3, seed=24)
    r1 = stability_study(config)
    r2 = stability_study(config)
    assert r1.rows == r2.rows
    assert len(r1.summary["medians"]) == 4
    for entry in r1.summary["medians"]:
        assert entry["dev"] > 0.0
        assert entry["lebesgue_empirical"] >= 1.0 - 1e-9


def test_stability_study_evaluates_each_sup_grid_once(monkeypatch):
    # one design per (basis, K) cell, over its whole sup grid, which every
    # replication's Lebesgue constant at every n then reads
    grids, reads = [], []
    sup_grid_of, local = simulate.sup_grid, BasisSystem._local

    def recording_grid(basis):
        grids.append(sup_grid_of(basis))
        return grids[-1]

    def recording_local(self, pts, grad_axis=None):
        reads.extend((i, pts.shape[0]) for i, g in enumerate(grids)
                     if np.shares_memory(pts, g))
        return local(self, pts, grad_axis)

    monkeypatch.setattr(simulate, "sup_grid", recording_grid)
    monkeypatch.setattr(BasisSystem, "_local", recording_local)
    stability_study(StabilityStudyConfig(
        dgp=DgpSpec(), basis_specs=(BasisSpec.wavelet(2, 3),
                                    BasisSpec.power(3)),
        k_grid=(8, 16), n_grid=(300, 600), reps=2, seed=3))
    assert len(grids) == 4
    assert reads == [(i, g.shape[0]) for i, g in enumerate(grids)]


@pytest.mark.parametrize("specs,k_grid,n_grid", [
    ((BasisSpec.wavelet(2, 3), BasisSpec.wavelet(3, 3)), (16,), (2000,)),
    ((BasisSpec.bspline(3, 2), BasisSpec.bspline(4, 2)), (16,), (2000,)),
    ((BasisSpec.wavelet(1, 3),), (16, 20), (2000,)),
    ((BasisSpec.bspline(3, 2),), (16,), (400, 400)),
], ids=["d2-and-d3", "spline-orders", "wavelet-k-16-and-20", "repeated-n"])
def test_stability_cells_must_be_distinct(specs, k_grid, n_grid):
    # medians are keyed by (family, K, n): a repeated cell would drop one
    with pytest.raises(ConfigurationError, match="`k_grid`"):
        StabilityStudyConfig(dgp=DgpSpec(), basis_specs=specs, k_grid=k_grid,
                             n_grid=n_grid)


def test_stability_stream_keys_must_not_collide():
    # the key 1000 * (n index) + K target of (n = 200, K 1001) is that of
    # (n = 400, K 1): the two cells would draw the same regressor paths
    with pytest.raises(ConfigurationError) as err:
        StabilityStudyConfig(dgp=DgpSpec(), basis_specs=(BasisSpec.wavelet(1, 3),),
                             k_grid=(1, 1001), n_grid=(200, 400))
    assert "(1, 400) and (1001, 200)" in str(err.value)


def test_derived_rng_streams_differ():
    a = derived_rng(1, "rate", 0, 0).random(4)
    b = derived_rng(1, "rate", 0, 1).random(4)
    c = derived_rng(1, "coverage", 0, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derived_rng_refuses_an_unknown_study():
    with pytest.raises(ValueError, match="'rates'"):
        derived_rng(1, "rates", 0, 0)


def test_tail_and_gram_report_draws_are_derived_rng_streams(tmp_path,
                                                            monkeypatch):
    # the tail chunks and the gram-report sample draw from derived_rng's
    # table like the studies
    from sievereg import cli, concentration

    reg = RegressorSpec("ar_copula", 0.5)
    basis = build_basis(BasisSpec.wavelet(1, 3))
    gen = concentration.GramDeviationGenerator(
        basis, np.eye(basis.size), n=40, regressor=reg)
    chunks = []

    def paths(spec, n, dim, rng, reps=1):
        chunks.append(regressor_paths(spec, n, dim, rng, reps))
        return chunks[-1]

    monkeypatch.setattr(concentration, "regressor_paths", paths)
    gen.sum_norms(70, seed=5)           # chunks of 64 and 6
    assert [len(x) for x in chunks] == [64, 6]
    for c, x in enumerate(chunks):
        want = regressor_paths(reg, 40, 1, derived_rng(5, "gram_deviation", c),
                               reps=len(x))
        assert np.array_equal(x, want)
    samples, empirical_gram = [], cli.empirical_gram

    def empirical(basis, x, gram):
        samples.append(x)
        return empirical_gram(basis, x, gram)

    monkeypatch.setattr(cli, "empirical_gram", empirical)
    cfg = tmp_path / "gram.ini"
    cfg.write_text("[gram]\nn = 50\nseed = 3\n[basis]\nfamily = wavelet\n"
                   "n_moments = 1\nlevel = 2\n")
    assert cli.run(["gram-report", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 0
    want = uniform_density().sample(derived_rng(3, "gram-report"), 50, 1)
    assert np.array_equal(samples[0], want)


def test_iid_uniform_matches_probit_of_normals():
    rng = np.random.default_rng(31)
    x = regressor_paths(RegressorSpec("iid_uniform"), 50, 2, rng)
    rng2 = np.random.default_rng(31)
    z = rng2.standard_normal((1, 50, 2))
    assert np.array_equal(x, ndtr(z))


class _KeepDraws:
    """A generator that keeps every array it hands out."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = []

    def standard_normal(self, shape):
        self.drawn.append(self.rng.standard_normal(shape))
        return self.drawn[-1]


@pytest.mark.parametrize("rho", [0.7, 0.5, 0.95, -0.3])
@pytest.mark.parametrize("reps,dim", [(3, 2), (1, 1)])
def test_ar_paths_match_scalar_recursion(rho, reps, dim):
    # the batched bidiagonal solve against z[t] = e[t] + rho z[t-1], path by
    # path: pins which column of the solve is which (rep, coordinate)
    n = 300
    rng = _KeepDraws([41, reps, dim])
    u = regressor_paths(RegressorSpec("ar_copula", rho), n, dim, rng, reps=reps)
    z = np.random.default_rng([41, reps, dim]).standard_normal((reps, n, dim))
    assert len(rng.drawn) == 1 and np.array_equal(rng.drawn[0], z)  # not mutated
    e = z * np.sqrt(1.0 - rho * rho)
    e[:, 0, :] = z[:, 0, :]
    latent = e.copy()
    for r in range(reps):
        for a in range(dim):
            for t in range(1, n):
                latent[r, t, a] = e[r, t, a] + rho * latent[r, t - 1, a]
    assert u.shape == (reps, n, dim) and u.flags.c_contiguous
    if rho == 0.5:      # rho * z is exact, so a fused multiply-add changes nothing
        assert np.array_equal(u, ndtr(latent))
    else:               # ndtr has slope <= 0.4: a few ulp of 1 at most
        np.testing.assert_allclose(u, ndtr(latent), rtol=0.0,
                                   atol=4 * np.finfo(float).eps)


_STUDY_CONFIGS = {
    "rate": lambda **kw: RateStudyConfig(**{
        "dgp": DgpSpec(), "basis_spec": BasisSpec.bspline(3, 2),
        "n_grid": (200, 400), "reps": 2, **kw}),
    "coverage": lambda **kw: CoverageStudyConfig(**{
        "dgp": DgpSpec(), "basis_spec": BasisSpec.wavelet(1, 3), "n": 400,
        "functional": FunctionalSpec.point_eval(0.37), "reps": 2, **kw}),
    "stability": lambda **kw: StabilityStudyConfig(**{
        "dgp": DgpSpec(), "basis_specs": (BasisSpec.wavelet(1, 3),),
        "k_grid": (8,), "n_grid": (400,), "reps": 2, **kw}),
    "concentration": lambda **kw: ConcentrationStudyConfig(**{
        "kind": "gram_deviation", "n": 50, "reps": 10, "t_max": 1.0,
        "basis_spec": BasisSpec.wavelet(1, 2), **kw}),
}


@pytest.mark.parametrize("study,field,value", [
    ("rate", "reps", 0), ("rate", "n_grid", (0, 500)),
    ("coverage", "reps", 0), ("coverage", "n", 0),
    ("stability", "reps", 0), ("stability", "k_grid", (0,)),
    ("stability", "n_grid", (0,)),
    ("concentration", "reps", 0), ("concentration", "t_count", 0),
    ("concentration", "n", 0),
])
def test_study_configs_reject_non_positive_counts(study, field, value):
    _STUDY_CONFIGS[study]()          # the valid baseline builds
    with pytest.raises(ConfigurationError, match=f"`{field}`"):
        _STUDY_CONFIGS[study](**{field: value})


@pytest.mark.parametrize("dgp", [
    DgpSpec(error=ErrorSpec("student_t")), DgpSpec(error=ErrorSpec(sigma=2.0)),
    DgpSpec(h0_name="holder"), DgpSpec(smoothness=1.5),
], ids=["student_t", "sigma", "holder", "p"])
def test_stability_refuses_dgp_fields_it_never_reads(dgp):
    # the study draws regressors only: an error law or target would be
    # dropped without a word
    _STUDY_CONFIGS["stability"](
        dgp=DgpSpec(regressor=RegressorSpec("ar_copula", 0.5)))
    with pytest.raises(ConfigurationError, match="regressor and `dim`"):
        _STUDY_CONFIGS["stability"](dgp=dgp)


@pytest.mark.parametrize("refuse", [
    lambda: RegressorSpec("mystery"),
    lambda: RegressorSpec("iid_uniform", 0.5),
    lambda: RegressorSpec("ar_copula", 1.0),
    lambda: ErrorSpec("mystery"),
    lambda: ErrorSpec("student_t", sigma=2.0),
    lambda: ErrorSpec("student_t", df=2.0),
    lambda: FunctionalSpec("mystery"),
    lambda: FunctionalSpec("integral", x0=0.5),
    lambda: named_target("mystery", 2.0),
    lambda: named_target("holder", 0.0),
    lambda: named_target("holder", float("nan")),
    lambda: sine_density(1.0),
    lambda: density_by_name("mystery"),
    # a value that is not a real number
    lambda: ErrorSpec(sigma="x"),
    lambda: DgpSpec(smoothness="x"),
    lambda: _STUDY_CONFIGS["rate"](krule_c="x"),
    lambda: RegressorSpec("ar_copula", "x"),
    lambda: _STUDY_CONFIGS["coverage"](level="x"),
    lambda: FunctionalSpec("point_eval", x0="a"),
    lambda: _STUDY_CONFIGS["concentration"](t_max="x"),
    lambda: named_target("holder", "x"),
    lambda: sine_density("x"),
    # a ragged nesting, which numpy cannot flatten
    lambda: FunctionalSpec("point_eval", x0=[[0.1], [0.2, 0.3]]),
    lambda: _STUDY_CONFIGS["rate"](n_grid=[[100], [200, 300]]),
    lambda: _STUDY_CONFIGS["stability"](k_grid=[[4], [8, 9]]),
], ids=["regressor-kind", "iid-rho", "copula-rho", "error-kind",
        "foreign-field", "student-df", "functional-kind", "functional-x0",
        "target", "holder-p", "holder-nan", "amplitude", "density",
        "str-sigma", "str-p", "str-krule_c", "str-rho", "str-level",
        "str-x0", "str-t_max", "str-holder-p", "str-amplitude",
        "ragged-x0", "ragged-n_grid", "ragged-k_grid"])
def test_spec_refusals_are_configuration_errors(refuse):
    # every spec and name lookup refuses with the one type the CLI maps to
    # exit 2 (a ValueError, so library callers may catch either)
    with pytest.raises(ConfigurationError):
        refuse()
