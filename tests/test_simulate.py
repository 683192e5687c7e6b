import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from sievereg.basis import BasisSpec, ConfigurationError
from sievereg.concentration import ConcentrationStudyConfig
from sievereg.simulate import (CoverageStudyConfig, DgpSpec, ErrorSpec,
                               RateStudyConfig, RegressorSpec,
                               StabilityStudyConfig, bump_sigma,
                               coverage_study, derived_rng, error_draws,
                               fit_loglog_slope, gen_sample, k_rule,
                               rate_study, regressor_paths, stability_study)
from sievereg import inference
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
    dgp = DgpSpec(error=ErrorSpec(kind="gaussian", sigma=0.0))
    x, y = gen_sample(dgp, 200, seed=3)
    assert np.array_equal(y, dgp.h0(x))


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
    with pytest.raises(ValueError):
        ErrorSpec(kind="student_t", df=2.0)
    with pytest.raises(ValueError):
        ErrorSpec(kind="cauchy")


def test_k_rule_and_slope_fitter():
    assert k_rule(2000, 2.0, 1, c=1.0) == round((2000 / np.log(2000)) ** 0.2)
    ns = [500, 1000, 2000, 4000]
    errs = [(n / np.log(n)) ** -0.4 for n in ns]
    slope, se, r2 = fit_loglog_slope(ns, errs)
    assert slope == pytest.approx(-0.4, abs=1e-12)
    assert r2 == pytest.approx(1.0)


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
    # with sigma = 0 the only residual is approximation error, so intervals
    # collapse toward points at the projected value; coverage is whatever
    # the bias makes it and is reported rather than asserted
    base = dict(basis_spec=BasisSpec.wavelet(1, 3), n=200,
                functional=FunctionalSpec.point_eval(0.37), reps=10,
                krule_p=1.0, krule_c=4.0, seed=23)
    noiseless = coverage_study(CoverageStudyConfig(
        dgp=DgpSpec(error=ErrorSpec(sigma=0.0)), **base))
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


def test_derived_rng_streams_differ():
    a = derived_rng(1, "rate", 0, 0).random(4)
    b = derived_rng(1, "rate", 0, 1).random(4)
    c = derived_rng(1, "coverage", 0, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_iid_uniform_matches_probit_of_normals():
    rng = np.random.default_rng(31)
    x = regressor_paths(RegressorSpec("iid_uniform"), 50, 2, rng)
    rng2 = np.random.default_rng(31)
    z = rng2.standard_normal((1, 50, 2))
    assert np.array_equal(x, ndtr(z))


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
        "kind": "rademacher", "n": 50, "reps": 10, "t_max": 1.0, **kw}),
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
