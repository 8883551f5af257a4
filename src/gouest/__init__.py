"""Simulation and nonparametric estimation for generalized Ornstein-Uhlenbeck
models driven by Lévy subordinators.

The package simulates the stationary law of such models (the exponential
functional of the driving subordinator) and recovers the subordinator's
characteristics — drift, jump intensity, and jump density — from stationary
observations via empirical Mellin transforms and regularized Fourier
inversion.
"""

__version__ = "0.1.0"

from .errors import DomainError, GouestError, GridMismatch, PoleError, TruncationError
from .models import (MODELS, CPExp, SubordinatorModel, TruncNormCP, laplace_exponent,
                     levy_density, model_from_config, model_to_config)
from .kernels import FLAT_TOP_PLATEAU, flat_top
from .sampling import (Sample, make_generator, read_sample_csv, sample_stationary,
                       write_columns_csv, write_json, write_sample_csv)
from .mellin import (LaplaceCurve, laplace_curve, laplace_curve_from_mellin, symmetric_grid,
                     write_laplace_curve_csv)
from .estimators import (EstimationConfig, LevyDensityEstimate, TripletEstimate,
                         default_x_grid, estimate_fourier_nu_bar, fit_alphas,
                         invert_levy_density, inversion_alphas, run_algorithm1,
                         run_algorithm2, write_levy_density_csv, write_triplet_json)
from .rates import (MiseReport, RateStudyConfig, choose_vn_exponential,
                    choose_vn_polynomial, mise, rate_study, write_mise_report_json)

__all__ = [
    "__version__",
    # errors
    "GouestError", "PoleError", "TruncationError", "DomainError",
    "GridMismatch",
    # models
    "SubordinatorModel", "CPExp", "TruncNormCP", "MODELS",
    "laplace_exponent", "levy_density", "model_from_config", "model_to_config",
    # kernels
    "FLAT_TOP_PLATEAU", "flat_top",
    # sampling
    "Sample", "make_generator", "sample_stationary",
    "write_columns_csv", "write_json", "write_sample_csv", "read_sample_csv",
    # mellin
    "LaplaceCurve", "laplace_curve", "laplace_curve_from_mellin",
    "symmetric_grid", "write_laplace_curve_csv",
    # estimators
    "EstimationConfig", "TripletEstimate", "LevyDensityEstimate", "fit_alphas",
    "inversion_alphas", "estimate_fourier_nu_bar", "invert_levy_density",
    "run_algorithm1", "run_algorithm2", "default_x_grid", "write_levy_density_csv",
    "write_triplet_json",
    # rates
    "RateStudyConfig", "MiseReport", "choose_vn_polynomial", "choose_vn_exponential",
    "mise", "rate_study", "write_mise_report_json",
]
