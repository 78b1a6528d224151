"""Hoeffding decompositions of U-statistics with adjusted normal targets.

The package splits into layers: ``model`` holds kernels, distributions, and
the counter-based sampler; ``hoeffding`` projects kernels into orthogonal
components and computes the moment functionals; ``approx`` evaluates the
adjusted normal laws and distances; ``studentize`` adds the jackknife scale;
``oracle`` enumerates exact finite-support laws; ``exper`` runs deterministic
Monte Carlo studies; ``payload`` encodes every report from its fields; ``cli``
exposes everything as subcommands.
"""

from . import approx, exper, hoeffding, model, oracle, studentize
from .approx import (
    AdjustedNormal,
    adjusted_cdf,
    adjusted_cf,
    adjusted_density,
    dkw_bound,
    dkw_se,
    edgeworth2,
    kolmogorov_distance,
    normal_cdf,
    select_correction_order,
)
from .errors import (
    ArityError,
    BudgetError,
    ConfigError,
    DegenerateKernel,
    FitError,
    InsufficientSample,
    PresetError,
    UStatError,
    ValidationError,
    ZeroVarianceEstimate,
)
from .exper import (
    ExperimentConfig,
    RateReport,
    TargetSpec,
    char_function_check,
    fit_rate,
    perturbed_normal_study,
    quadratic_counterexample,
    run_ecdf_experiment,
    smooth_function_check,
    write_rate_report,
)
from .hoeffding import (
    DecomposedStatistic,
    decompose,
    kappa_vector,
    moment_inequalities,
    moment_summary,
)
from .model import (
    Kernel,
    distribution_preset,
    kernel_preset,
    sample,
    stream_generator,
    u_statistic,
)
from .oracle import ExactReport, exact_distribution, exact_u_distribution
from .studentize import StudentizedStat, jackknife_variance, studentized_ustat

__version__ = "0.1.0"

__all__ = [
    "AdjustedNormal",
    "ArityError",
    "BudgetError",
    "ConfigError",
    "DecomposedStatistic",
    "DegenerateKernel",
    "ExactReport",
    "ExperimentConfig",
    "FitError",
    "InsufficientSample",
    "Kernel",
    "PresetError",
    "RateReport",
    "StudentizedStat",
    "TargetSpec",
    "UStatError",
    "ValidationError",
    "ZeroVarianceEstimate",
    "adjusted_cdf",
    "adjusted_cf",
    "adjusted_density",
    "approx",
    "char_function_check",
    "decompose",
    "distribution_preset",
    "dkw_bound",
    "dkw_se",
    "edgeworth2",
    "exact_distribution",
    "exact_u_distribution",
    "exper",
    "fit_rate",
    "hoeffding",
    "jackknife_variance",
    "kappa_vector",
    "kernel_preset",
    "kolmogorov_distance",
    "model",
    "moment_inequalities",
    "moment_summary",
    "normal_cdf",
    "oracle",
    "perturbed_normal_study",
    "quadratic_counterexample",
    "run_ecdf_experiment",
    "sample",
    "select_correction_order",
    "smooth_function_check",
    "stream_generator",
    "studentized_ustat",
    "u_statistic",
    "write_rate_report",
]
