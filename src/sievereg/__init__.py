"""Series least-squares regression on sieve bases.

Builds spline, boundary-wavelet, trigonometric, and polynomial sieves on
the unit cube; fits the weighted series LS estimator; quantifies the
empirical-vs-theoretical Gram agreement and the sup-norm stability of the
projections; produces plug-in t statistics and confidence intervals for
linear and nonlinear functionals; and validates matrix Bernstein tail
bounds (independent and beta-mixing) against simulation.
"""

from .basis import (BasisSpec, BasisSystem, ConfigurationError, LocalDesign,
                    build_basis, spec_with_size)
from .concentration import (ConcentrationStudyConfig, GramDeviationGenerator,
                            RademacherGenerator, TailBoundInput,
                            ZeroGenerator, concentration_study,
                            empirical_tail, mixing_bound, tropp_bound)
from .daubechies import ScalingFamily, scaling_filter, tabulate_daubechies
from .estimator import (FitResult, fit, fixed_design, holder_kink, l2_error,
                        project_oracle, smooth_trig, sup_error, named_target)
from .gram import (DmsBound, EmpiricalLebesgue, GramFactor, NumericError,
                   dms_bound, empirical_gram, empirical_gram_matrix,
                   gram_deviation, lebesgue_constant_empirical, lebesgue_constant_theoretical,
                   theoretical_gram, zeta_constant)
from .inference import (FunctionalReport, FunctionalSpec, confidence_interval,
                        functional_report, riesz_representer, sieve_variance_oracle,
                        sieve_variance_plugin, t_statistic)
from .quadrature import (Density, Quadrature, basis_quadrature,
                         density_by_name, sine_density, sup_grid,
                         uniform_density)
from .simulate import (CoverageStudyConfig, DgpSpec, ErrorSpec,
                       RateStudyConfig, RegressorSpec, StabilityStudyConfig,
                       StudyReport, bump_sigma, coverage_study, derived_rng,
                       fit_loglog_slope, gen_sample, k_rule, rate_study,
                       regressor_paths, stability_study)

__version__ = "0.1.0"
