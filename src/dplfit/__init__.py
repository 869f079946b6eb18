"""Maximum-likelihood fitting of discrete power-law distributions with a
Monte Carlo Kolmogorov-Smirnov goodness-of-fit test and automatic
selection of the smallest acceptable lower cutoff."""

__version__ = "0.1.0"

from .distribution import (
    IntegerSample,
    PowerLawModel,
    SufficientStat,
    log_likelihood,
    sigma_beta,
    sufficient_stat,
)
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DplfitError,
    EmptyTailError,
    NumericRangeError,
    ParseError,
    TailTooLargeError,
)
from .ks import KsResult, PValue, ks_statistic, p_value
from .mle import MleConfig, MleResult, fit_beta
from .pipeline import FitAtA, ScanConfig, ScanResult, default_cutoffs, fit_at_a, scan
from .sampling import (
    RNG_ALGORITHM,
    RngStream,
    SamplerParams,
    accept_test,
    acceptance_ratio,
    sample_n,
)
from .zeta import BERNOULLI_EVEN, hurwitz_zeta

__all__ = [
    "BERNOULLI_EVEN",
    "ConvergenceError",
    "DegenerateDataError",
    "DplfitError",
    "EmptyTailError",
    "FitAtA",
    "IntegerSample",
    "KsResult",
    "MleConfig",
    "MleResult",
    "NumericRangeError",
    "ParseError",
    "PowerLawModel",
    "PValue",
    "RNG_ALGORITHM",
    "RngStream",
    "SamplerParams",
    "ScanConfig",
    "ScanResult",
    "SufficientStat",
    "TailTooLargeError",
    "accept_test",
    "acceptance_ratio",
    "default_cutoffs",
    "fit_at_a",
    "fit_beta",
    "hurwitz_zeta",
    "ks_statistic",
    "log_likelihood",
    "p_value",
    "sample_n",
    "scan",
    "sigma_beta",
    "sufficient_stat",
]
