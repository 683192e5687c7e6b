import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievereg.basis import BasisSpec, ConfigurationError, build_basis
from sievereg.concentration import (ConcentrationStudyConfig,
                                    GramDeviationGenerator,
                                    RademacherGenerator, TailBoundInput,
                                    ZeroGenerator, concentration_study,
                                    empirical_tail, mixing_bound,
                                    tropp_bound)
from sievereg.gram import theoretical_gram
from sievereg.quadrature import uniform_density
from sievereg.simulate import RegressorSpec, regressor_paths

UNIFORM = uniform_density()


def test_tropp_values():
    inp = TailBoundInput(d1=1, d2=1, n=1, r_bound=1.0, sigma2=1.0)
    assert tropp_bound(inp, 0.0) == 2.0
    assert tropp_bound(inp, 3.0) == pytest.approx(2.0 * np.exp(-2.25))
    assert tropp_bound(inp, 1e6) < 1e-300 or tropp_bound(inp, 1e6) == 0.0
    d = TailBoundInput(d1=3, d2=5, n=1, r_bound=1.0, sigma2=1.0)
    assert tropp_bound(d, 0.0) == 8.0


def test_mixing_values():
    inp = TailBoundInput(d1=1, d2=1, n=100, r_bound=1.0, s2=0.01, q=5,
                         beta_q=0.001)
    # direct formula evaluation: 20 * 0.001 + 4 exp(-50 / (5 + 50/3))
    expected = 0.02 + 4.0 * np.exp(-50.0 / (5.0 + 50.0 / 3.0))
    assert mixing_bound(inp, 10.0) == pytest.approx(expected, rel=1e-15)
    assert mixing_bound(inp, 10.0) == pytest.approx(0.41796232197943384)
    # t = 0: coupling + 2 (d1 + d2)
    assert mixing_bound(inp, 0.0) == pytest.approx(0.02 + 4.0)


def test_mixing_beta_zero_divisible_blocks():
    inp = TailBoundInput(d1=2, d2=2, n=100, r_bound=0.5, s2=0.004, q=10,
                         beta_q=0.0)
    t = 3.0
    expected = 2 * 4 * np.exp(-(t * t / 2) / (100 * 10 * 0.004 + 10 * 0.5 * t / 3))
    assert mixing_bound(inp, t) == pytest.approx(expected)


def test_reduction_to_independent_structure():
    # q = 1, beta = 0, no remainder: equals twice the independent exponential
    # factor with sigma2 = n * s2
    inp = TailBoundInput(d1=2, d2=2, n=50, r_bound=0.3, s2=0.002, q=1,
                         beta_q=0.0, sigma2=50 * 0.002)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert mixing_bound(inp, t) == pytest.approx(2.0 * tropp_bound(inp, t),
                                                     rel=1e-14)


def test_bound_monotonicity_grids():
    inp = TailBoundInput(d1=4, d2=4, n=200, r_bound=0.1, sigma2=0.5, s2=0.01,
                         q=4, beta_q=0.01)
    ts = np.linspace(0.0, 5.0, 40)
    tb = [tropp_bound(inp, t) for t in ts]
    mb = [mixing_bound(inp, t) for t in ts]
    assert np.all(np.diff(tb) <= 1e-15)
    assert np.all(np.diff(mb) <= 1e-15)
    # nondecreasing in sigma2 and r_bound at positive t
    for t in (0.5, 2.0):
        vals_sigma = [tropp_bound(
            TailBoundInput(d1=4, d2=4, n=200, r_bound=0.1, sigma2=s), t)
            for s in (0.1, 0.5, 2.0)]
        assert np.all(np.diff(vals_sigma) >= 0.0)
        vals_r = [tropp_bound(
            TailBoundInput(d1=4, d2=4, n=200, r_bound=r, sigma2=0.5), t)
            for r in (0.05, 0.2, 1.0)]
        assert np.all(np.diff(vals_r) >= 0.0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        TailBoundInput(d1=0, d2=1, n=10, r_bound=1.0)
    with pytest.raises(ValueError):
        TailBoundInput(d1=1, d2=1, n=10, r_bound=-1.0)
    inp = TailBoundInput(d1=1, d2=1, n=10, r_bound=1.0, s2=0.1, q=6)
    with pytest.raises(ValueError, match="block length"):
        mixing_bound(inp, 1.0)
    with pytest.raises(ValueError):
        tropp_bound(TailBoundInput(d1=1, d2=1, n=1, r_bound=1.0), -1.0)


def test_zero_generator():
    gen = ZeroGenerator(100)
    study = empirical_tail(gen, np.array([0.0, 0.5, 1.0]), reps=50, seed=1)
    assert study.freq[0] == 1.0        # ||0|| >= 0
    assert np.all(study.freq[1:] == 0.0)


def test_rademacher_generator():
    gen = RademacherGenerator(100)
    study = empirical_tail(gen, np.array([0.0, 5.0, 40.0]), reps=400, seed=2)
    assert study.freq[0] == 1.0
    assert study.freq[-1] <= tropp_bound(gen.input, 40.0) + 3 * study.se[-1]
    # deterministic given seed
    again = empirical_tail(gen, np.array([0.0, 5.0, 40.0]), reps=400, seed=2)
    assert np.array_equal(study.norms, again.norms)


@pytest.fixture(scope="module")
def haar_gen():
    basis = build_basis(BasisSpec.wavelet(1, 4))
    gram = theoretical_gram(basis, UNIFORM)
    return basis, gram


def test_gram_deviation_generator_iid_bound(haar_gen):
    basis, gram = haar_gen
    gen = GramDeviationGenerator(basis, gram, n=400)
    ts = np.linspace(0.0, 1.2, 13)
    study = empirical_tail(gen, ts, reps=2000, seed=3)
    for t, f, s in zip(ts, study.freq, study.se):
        assert f <= tropp_bound(gen.input, t) + 3.0 * s


def test_gram_deviation_generator_mixing_bound(haar_gen):
    basis, gram = haar_gen
    reg = RegressorSpec("ar_copula", 0.7)
    gen = GramDeviationGenerator(basis, gram, n=400, regressor=reg)
    q = 8  # divides 400
    inp = TailBoundInput(d1=gen.input.d1, d2=gen.input.d2, n=400,
                         r_bound=gen.input.r_bound, s2=gen.input.s2, q=q,
                         beta_q=gen.beta_envelope(q))
    ts = np.linspace(0.0, 1.5, 13)
    study = empirical_tail(gen, ts, reps=2000, seed=4)
    for t, f, s in zip(ts, study.freq, study.se):
        assert f <= mixing_bound(inp, t / 6.0) + 3.0 * s


def test_beta_envelope():
    basis = build_basis(BasisSpec.wavelet(1, 3))
    gram = theoretical_gram(basis, UNIFORM)
    gen = GramDeviationGenerator(basis, gram, n=100,
                                 regressor=RegressorSpec("ar_copula", 0.5))
    assert gen.beta_envelope(3) == pytest.approx(4.0 * 0.5 ** 3)
    iid = GramDeviationGenerator(basis, gram, n=100)
    assert iid.beta_envelope(3) == 0.0


def _whitened_design_norms(gen, gram, reps, seed, chunk=64):
    """Tail-sum norms the direct way: whiten each n x K design, then one
    eigvalsh per replication (same draws as GramDeviationGenerator)."""
    evals, evecs = np.linalg.eigh(gram)
    white = (evecs / np.sqrt(evals)) @ evecs.T
    out = []
    for c, start in enumerate(range(0, reps, chunk)):
        m = min(chunk, reps - start)
        rng = np.random.default_rng([seed, 202, c])
        x = regressor_paths(gen.regressor, gen.n, 1, rng, reps=m)
        for path in x:
            vals = gen.basis.evaluate(path) @ white
            dev = vals.T @ vals / gen.n - np.eye(gen.k)
            out.append(np.max(np.abs(np.linalg.eigvalsh(dev))))
    return np.array(out)


@pytest.mark.parametrize("spec", [BasisSpec.wavelet(1, 4),
                                  BasisSpec.bspline(3, 9)],
                         ids=["haar-16", "spline3-12"])
def test_sum_norms_match_whitened_design_reference(spec):
    # the spline Gram is banded, so its G^{-1/2} is dense
    basis = build_basis(spec)
    gram = theoretical_gram(basis, UNIFORM)
    gen = GramDeviationGenerator(basis, gram, n=300,
                                 regressor=RegressorSpec("ar_copula", 0.6))
    norms = gen.sum_norms(150, seed=9)      # chunks of 64, 64 and 22
    ref = _whitened_design_norms(gen, gram, 150, seed=9)
    assert np.allclose(norms, ref, rtol=1e-12, atol=0.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 31), reps=st.integers(1, 140),
       rho=st.sampled_from([0.0, 0.7]))
def test_sum_norms_deterministic_per_seed(haar_gen, seed, reps, rho):
    basis, gram = haar_gen
    gen = GramDeviationGenerator(basis, gram, n=50,
                                 regressor=RegressorSpec("ar_copula", rho))
    first = gen.sum_norms(reps, seed)
    assert first.shape == (reps,)
    assert np.array_equal(first, gen.sum_norms(reps, seed))


def test_concentration_study_compares_each_threshold_with_its_bound():
    config = ConcentrationStudyConfig(kind="rademacher", n=50, reps=400,
                                      t_max=25.0, t_count=6, seed=3)
    report = concentration_study(config)
    gen = RademacherGenerator(50)
    tail = empirical_tail(gen, np.linspace(0.0, 25.0, 6), 400, 3)
    assert [row[0] for row in report.rows] == list(tail.t_grid)
    assert [row[2] for row in report.rows] == list(tail.freq)
    assert [row[1] for row in report.rows] == [
        tropp_bound(gen.input, t) for t in tail.t_grid]
    assert report.summary["mixing"] is False
    assert report.summary["violations"] == 0
    assert report.config == {"seed": 3}
    # an AR-copula regressor switches the Gram-deviation study to the
    # blocked bound at t / 6
    haar = BasisSpec.wavelet(1, 2)
    mixed = concentration_study(ConcentrationStudyConfig(
        kind="gram_deviation", n=50, reps=400, t_max=2.0, t_count=6, seed=3,
        regressor="ar_copula", rho=0.5, q=5, basis_spec=haar))
    basis = build_basis(haar)
    gen = GramDeviationGenerator(basis, theoretical_gram(basis, UNIFORM), 50,
                                 regressor=RegressorSpec("ar_copula", 0.5))
    inp = TailBoundInput(d1=4, d2=4, n=50, r_bound=gen.input.r_bound,
                         s2=gen.input.s2, q=5, beta_q=4.0 * 0.5 ** 5)
    assert mixed.summary["mixing"] is True
    assert [row[1] for row in mixed.rows] == [
        mixing_bound(inp, t / 6.0) for t in np.linspace(0.0, 2.0, 6)]
    with pytest.raises(ConfigurationError, match="`q`"):
        ConcentrationStudyConfig(kind="gram_deviation", n=50, reps=10,
                                 t_max=1.0, regressor="ar_copula", rho=0.5,
                                 q=26, basis_spec=haar)
    # the plumbing generators draw i.i.d. summands: no regressor, so no
    # `rho` and no `q` either
    for kind in ("rademacher", "zero"):
        with pytest.raises(ConfigurationError, match="`regressor`"):
            ConcentrationStudyConfig(kind=kind, n=50, reps=10, t_max=1.0,
                                     regressor="ar_copula", rho=0.5, q=5)
        with pytest.raises(ConfigurationError, match="`regressor`"):
            ConcentrationStudyConfig(kind=kind, n=50, reps=10, t_max=1.0,
                                     regressor="ar_copula")
    with pytest.raises(ConfigurationError, match="`kind`"):
        ConcentrationStudyConfig(kind="gaussian", n=50, reps=10, t_max=1.0)
    with pytest.raises(ConfigurationError, match="basis"):
        ConcentrationStudyConfig(kind="gram_deviation", n=50, reps=10,
                                 t_max=1.0)
