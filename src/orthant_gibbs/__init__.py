"""Sampling constrained Gibbs posteriors on the non-negative orthant.

Models (logistic, Poisson inverse problem, Gaussian mixture locations with a
non-negativity constraint), good-set geometry around a possibly-boundary
mode, numeric checks of the local regularity assumptions, projected Langevin
Monte Carlo, and mixing/coverage diagnostics.
"""

from .assumptions import (AssumptionReport, RegionSpec, check_well_separation,
                          concentration_sample_size, decompose_likelihood,
                          estimate_constants, osc_bound, poincare_bound)
from .diagnostics import (EssReport, SpectralGapResult, bulk_ess,
                          credible_interval, ess_report, good_set_mass,
                          interval_hits, spectral_gap_1d)
from .errors import (ConfigError, DegenerateChainError, DomainError,
                     NonFiniteError, NumericalError, OrthantGibbsError, ShapeError)
from .experiments import (ExperimentConfig, preset_config, run_coverage_study,
                          run_ess_study)
from .geometry import (CoordinateSplit, GoodSet, build_good_set, contains_many,
                       default_deltas, project_good_set, split_coordinates)
from .mode import ModeResult, find_mode_global, find_mode_local, maximize_projected
from .models import (GmmData, LogisticData, ModelInstance, ModelTemplate,
                     PoissonData, Prior, grad_log_lik, grad_log_posterior_unnorm,
                     hess_log_lik, log_lik, log_posterior_unnorm, simulate)
from .rng import derive_seed, make_rng
from .sampler import Chain, SamplerConfig, check_membership, plmc_step, run_chain

__version__ = "0.1.0"
