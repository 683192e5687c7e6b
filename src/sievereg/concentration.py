"""Matrix Bernstein tail bounds and their Monte Carlo validation.

``tropp_bound`` evaluates the exponential tail bound for the spectral norm
of a sum of independent, uniformly bounded, mean-zero random matrices.
``mixing_bound`` evaluates its blocking extension for absolutely regular
sequences; note its three-term value bounds ``P(||sum|| >= 6 t)`` at the
given ``t`` (the coupled odd/even block sums each cost a factor).  The
generator here simulates whitened-Gram deviation sums, the weakly dependent
random matrices of the paper's exponential inequality, with certified
envelope constants, so empirical tail frequencies can be compared against
the bounds.

``GramDeviationGenerator`` draws replications in chunks, forms each
replication's Gram ``B'B/n`` of the unwhitened design with one
``LocalDesign.gram`` call per chunk, and hands the chunk's K x K Grams to
the theoretical Gram's ``GramFactor``, which whitens them and takes all
their spectral norms at once.

``concentration_study`` compares the Gram-deviation generator's
exceedance frequencies with the independent bound, or the blocked bound at
t/6 under a mixing regressor.
"""

from dataclasses import dataclass, replace

import numpy as np

from .basis import (ConfigurationError, _check_at_least, _check_real,
                    build_basis)
from .gram import GramFactor, theoretical_gram, zeta_constant
from .quadrature import uniform_density
from .simulate import (RegressorSpec, StudyReport, _set_heap_thresholds,
                       derived_rng, regressor_paths)


# Replications per chunk in `GramDeviationGenerator.sum_norms`; each chunk
# draws from its own RNG stream, so the size keys the sums a seed gives.
_CHUNK = 64


@dataclass(frozen=True)
class TailBoundInput:
    """Constants entering the tail bounds.

    r_bound is the a.s. spectral-norm bound on each summand; sigma2 the
    independent-case variance proxy max(||sum E[XX']||, ||sum E[X'X]||);
    s2 the mixing-case pairwise proxy max_{i,j} of the same quantities;
    q the block length and beta_q the mixing coefficient at lag q.
    """

    d1: int
    d2: int
    n: int
    r_bound: float
    sigma2: float = 0.0
    s2: float = 0.0
    q: int = 1
    beta_q: float = 0.0

    def __post_init__(self):
        if min(self.d1, self.d2, self.n) < 1:
            raise ValueError("dimensions and sample size must be positive")
        if min(self.r_bound, self.sigma2, self.s2, self.beta_q) < 0:
            raise ValueError("bound constants must be nonnegative")


def tropp_bound(inp, t):
    """(d1 + d2) exp(-(t^2/2) / (sigma2 + r_bound * t / 3)); bounds
    P(||sum of independent mean-zero matrices|| >= t)."""
    if t < 0:
        raise ValueError("threshold t must be nonnegative")
    dims = inp.d1 + inp.d2
    if t == 0.0:
        return float(dims)
    denom = inp.sigma2 + inp.r_bound * t / 3.0
    if denom <= 0.0:
        return 0.0
    return float(dims * np.exp(-(t * t / 2.0) / denom))


def mixing_bound(inp, t):
    """Blocked tail bound for beta-mixing summands; bounds
    P(||sum|| >= 6 t).

    (n/q) beta(q) + 2 (d1+d2) exp(-(t^2/2) / (n q s2 + q r_bound t / 3)).
    """
    if t < 0:
        raise ValueError("threshold t must be nonnegative")
    if not 1 <= inp.q <= inp.n // 2:
        raise ValueError(f"block length q must be in [1, n/2], got {inp.q}")
    coupling = inp.n / inp.q * inp.beta_q
    dims = inp.d1 + inp.d2
    if t == 0.0:
        expo = 2.0 * dims
    else:
        denom = inp.n * inp.q * inp.s2 + inp.q * inp.r_bound * t / 3.0
        expo = 0.0 if denom <= 0.0 else 2.0 * dims * np.exp(-(t * t / 2.0) / denom)
    return float(coupling + expo)


class GramDeviationGenerator:
    """Summands n^{-1} (b_tilde(X_i) b_tilde(X_i)' - I) for a basis.

    The sum is the whitened empirical Gram minus the identity.  Envelope
    constants follow from ||b_tilde(x)||^2 <= zeta^2 lambda^2:
    r_bound = (zeta^2 lambda^2 + 1)/n, sigma2 <= (zeta^2 lambda^2 + 1)/n,
    and s2 <= (zeta^2 lambda^2 + 1)/n^2 (pairwise, by Cauchy-Schwarz).
    For the AR copula the beta envelope is 4 rho^q (exponential mixing of
    the latent Gaussian AR(1); a conservative coefficient).
    """

    def __init__(self, basis, gram, n, regressor=None):
        self.basis = basis
        self.n = n
        self.k = basis.size
        self.regressor = regressor if regressor is not None else RegressorSpec()
        self.factor = GramFactor(gram)
        self.factor.inv_sqrt()        # NumericError now if G is singular
        zeta, lam = zeta_constant(basis), self.factor.lam
        envelope = zeta * zeta * lam * lam + 1.0
        self.input = TailBoundInput(
            d1=self.k, d2=self.k, n=n,
            r_bound=envelope / n,
            sigma2=envelope / n,
            s2=envelope / (n * n),
        )

    def beta_envelope(self, q):
        if not self.regressor.mixing:
            return 0.0
        return 4.0 * abs(self.regressor.rho) ** q

    def sum_norms(self, reps, seed):
        """||sum_i Xi_i|| per replication (exact spectral norms).

        A chunk's designs are evaluated in one local form, and
        `LocalDesign.gram` stacks one Gram B'B/n per replication: for a
        width-1 (Haar) basis the diagonals, from one bincount in O(n) per
        replication, otherwise one bincount per pair of window offsets
        (one batched product for a full-width basis).  The shared factor
        whitens the chunk's K x K Grams and takes their spectral deviations
        in one call, read off the diagonals when both it and the Grams are
        diagonal.
        """
        out = np.empty(reps)
        for c, done in enumerate(range(0, reps, _CHUNK)):
            m = min(_CHUNK, reps - done)
            rng = derived_rng(seed, "gram_deviation", c)
            x = regressor_paths(self.regressor, self.n, self.basis.spec.dim,
                                rng, reps=m)
            local = self.basis.local(x.reshape(m * self.n, -1))
            out[done:done + m] = self.factor.deviation(
                local.gram(blocks=m))
        return out


@dataclass
class TailStudy:
    """Per-threshold empirical exceedance frequencies with binomial SEs."""

    t_grid: np.ndarray
    freq: np.ndarray
    se: np.ndarray
    reps: int
    norms: np.ndarray


def empirical_tail(generator, t_grid, reps, seed):
    """Monte Carlo frequencies of ||sum|| >= t over the threshold grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    norms = generator.sum_norms(reps, seed)
    freq = np.array([np.mean(norms >= t) for t in t_grid])
    se = np.sqrt(freq * (1.0 - freq) / reps)
    return TailStudy(t_grid=t_grid, freq=freq, se=se, reps=reps, norms=norms)


@dataclass(frozen=True)
class ConcentrationStudyConfig:
    """Tail study of the whitened Gram deviation of `basis_spec`'s basis;
    kind names the generator and is "gram_deviation" (it is reported as
    the summary's `generator`); q is the block length of the mixing bound,
    1 under a non-mixing regressor."""

    kind: str
    n: int
    reps: int
    t_max: float
    basis_spec: object
    t_count: int = 20
    seed: int = 0
    regressor: str = "iid_uniform"
    rho: float = 0.0
    q: int = 1

    def __post_init__(self):
        _check_at_least(1, reps=self.reps, t_count=self.t_count, n=self.n)
        _check_at_least(0, seed=self.seed)
        if self.kind != "gram_deviation":
            raise ConfigurationError(f"`kind` must be gram_deviation, the "
                                     f"only generator, got {self.kind!r}")
        _check_real(t_max=self.t_max)
        if not (np.isfinite(self.t_max) and self.t_max >= 0.0):
            raise ConfigurationError(
                f"`t_max` must be a finite number >= 0, got {self.t_max}")
        mixing = RegressorSpec(self.regressor, self.rho).mixing
        # the study's mixing bound has no incomplete-final-block term
        if mixing and not (1 <= self.q <= self.n // 2 and self.n % self.q == 0):
            raise ConfigurationError(
                f"`q` must divide n = {self.n} and lie in [1, n/2] under a "
                f"mixing regressor, got {self.q}")
        if not mixing and self.q != 1:
            raise ConfigurationError(f"`q` applies only under a mixing "
                                     f"regressor, got {self.q}")


def concentration_study(config):
    """Exceedance frequencies of ||sum|| >= t against the tail bound; a
    violation is a frequency above bound + 3 binomial standard errors."""
    _set_heap_thresholds()
    reg = RegressorSpec(config.regressor, config.rho)
    basis = build_basis(config.basis_spec)
    generator = GramDeviationGenerator(
        basis, theoretical_gram(basis, uniform_density()), config.n,
        regressor=reg)
    t_grid = np.linspace(0.0, config.t_max, config.t_count)
    tail = empirical_tail(generator, t_grid, config.reps, config.seed)
    if reg.mixing:
        inp = replace(generator.input, q=config.q,
                      beta_q=generator.beta_envelope(config.q))
    rows = []
    for t, f, s in zip(tail.t_grid, tail.freq, tail.se):
        bound = (mixing_bound(inp, t / 6.0) if reg.mixing
                 else tropp_bound(generator.input, t))
        rows.append((t, bound, f, s, tail.reps))
    violations = sum(int(not f <= b + 3.0 * s) for _, b, f, s, _ in rows)
    summary = {"generator": config.kind, "n": config.n, "reps": tail.reps,
               "q": config.q, "mixing": reg.mixing, "violations": violations}
    return StudyReport(kind="concentration", summary=summary, rows=rows,
                       columns=["t", "bound", "freq", "se", "reps"],
                       config={"seed": config.seed})
