"""Discrete power-law distribution and the data containers it is fit to.

The model puts mass f(n) = n^-(beta+1) / zeta(beta+1, a) on the integers
n = a, a+1, ... and has survival S(n) = zeta(beta+1, n) / zeta(beta+1, a).
With s = beta+1 and Z(s, a) = a^s zeta(s, a) both are evaluated in scaled
form, f(n) = (a/n)^s / Z(s, a) and S(n) = (a/n)^s Z(s, n) / Z(s, a), which
stay in double range for every cutoff.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, EmptyTailError
from .zeta import scaled_zeta

# Anything closer to log(a) than this counts as "all data equal to a";
# real near-degenerate samples sit many orders of magnitude above it.
_LOG_DEGENERACY_EPS = 1e-12
_INT64_MAX = np.iinfo(np.int64).max


def scaled_power(s, a, n):
    """(a/n)^s at n >= a (scalar or array), as exp(-s log1p((n - a)/a)):
    the one rounding of it that the model, the KS pass and the sampler's
    cells share."""
    return np.exp(-s * np.log1p((np.asarray(n) - a) / a))


def _whole(a):
    """Cutoff ``a`` if it is a whole number, of any numeric type (2,
    np.int64(2) and 2.0 all are); else ``ValueError``."""
    if not (isinstance(a, numbers.Integral) or float(a).is_integer()):
        raise ValueError(f"cutoff {a} is not a whole number")
    return a


class IntegerSample:
    """Multiset of positive integers, held as its table of distinct values.

    ``IntegerSample(values)`` tallies a sequence of observations;
    ``IntegerSample(values, counts)`` takes the table itself, with strictly
    increasing ``values`` and positive ``counts``.  Either way the sample
    is ``unique_values`` (sorted), ``unique_counts`` and ``size``, the
    number of observations; a count is never expanded.
    """

    def __init__(self, values, counts=None):
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise ValueError("sample values must be one-dimensional")
        if values.size == 0:
            raise ValueError("sample must contain at least one value")
        if counts is None:
            size = values.size
            values, counts = np.unique(values, return_counts=True)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != values.shape:
                raise ValueError("values and counts must have the same length")
            if np.any(values[1:] <= values[:-1]):
                raise ValueError("tabulated values must be strictly increasing")
            if counts.min() < 1:
                raise ValueError("counts must be >= 1")
            size = sum(counts.tolist())
            if size > _INT64_MAX:
                raise ValueError(f"total count {size} exceeds 2^63 - 1")
        if values[0] < 1:
            raise ValueError("sample values must be >= 1")
        self.unique_values = values
        self.unique_counts = counts
        self.size = size

    def __repr__(self):
        return (f"IntegerSample(n={self.size}, min={self.unique_values[0]}, "
                f"max={self.unique_values[-1]})")

    @property
    def survival_counts(self):
        """N_v = number of data >= v, for each distinct value v."""
        return self.unique_counts[::-1].cumsum()[::-1]

    def tail_start(self, a):
        """Index of the first distinct value >= a, or their number if there
        is none.  The cutoff is compared exactly, as a Python int or float,
        whatever its type: ``searchsorted`` would compare an ``np.uint64``
        or a float with the table in float64, rounded onto its largest
        values."""
        a = int(a) if isinstance(a, numbers.Integral) else float(a)
        if a > _INT64_MAX:  # no int64 value reaches it
            return self.unique_values.size
        return int(np.searchsorted(self.unique_values, math.ceil(a), side="left"))

    def truncated(self, a):
        """Sample of the values >= a, multiplicities preserved."""
        if a < 1:
            raise ValueError(f"cutoff must be >= 1, got {a}")
        start = self.tail_start(a)
        if start == self.unique_values.size:
            raise EmptyTailError(
                f"no values >= {a} (sample maximum is {self.unique_values[-1]})"
            )
        return IntegerSample(self.unique_values[start:], self.unique_counts[start:])


@dataclass(frozen=True)
class SufficientStat:
    """All the likelihood needs: tail size and mean log of the retained data."""

    n_a: int
    log_geo_mean: float


def log_geo_means(values, counts, starts, n):
    """Mean log of each of several value/count tables held end to end:
    sum(counts * log(values)) / n over the entries from each of ``starts``
    to the next.  A table's mean does not depend on the others."""
    return np.add.reduceat(counts * np.log(values), starts) / n


def sufficient_stat(sample):
    """Sufficient statistic of an (already truncated) sample."""
    return SufficientStat(
        n_a=sample.size,
        log_geo_mean=float(log_geo_means(sample.unique_values, sample.unique_counts,
                                         [0], sample.size)[0]),
    )


@dataclass(frozen=True)
class PowerLawModel:
    """Discrete power law on n >= a with exponent beta (mass ~ n^-(beta+1))."""

    a: int
    beta: float
    scaled_norm: float = field(init=False)  # Z(beta+1, a) = a^(beta+1) zeta(beta+1, a)

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.a}")
        if not self.beta + 1.0 > 1.0:  # beta + 1.0 == 1.0 would hit zeta's pole
            raise ValueError(f"exponent must be positive with beta + 1 > 1, got {self.beta}")
        object.__setattr__(self, "scaled_norm", float(scaled_zeta(self.beta + 1.0, self.a)))

    def _power(self, n):
        """(a/n)^(beta+1) at n >= a (scalar or array)."""
        if np.min(n) < self.a:
            raise ValueError(f"some n are below the lower cutoff a={self.a}")
        return scaled_power(self.beta + 1.0, self.a, n)

    def pmf(self, n):
        """Probability of the value n (scalar or array), n >= a."""
        out = self._power(n) / self.scaled_norm
        return float(out) if out.ndim == 0 else out

    def survival(self, n):
        """Probability of a value >= n (scalar or array), n >= a; S(a) = 1."""
        out = self._power(n) * (scaled_zeta(self.beta + 1.0, n) / self.scaled_norm)
        return float(out) if out.ndim == 0 else out


def log_likelihood(stat, a, beta):
    """Per-datum log-likelihood of the exponent:

    l(beta) = -ln zeta(beta+1, a) - (beta+1) * ln G_a,

    with ln G_a the mean log of the data retained above the cutoff.  It is
    evaluated as -ln Z(s, a) - s (ln G_a - ln a), Z(s, a) = a^s zeta(s, a),
    which stays in range for every cutoff.
    """
    if not beta > 0:
        raise ValueError(f"exponent must be positive, got {beta}")
    s = beta + 1.0
    return -math.log(scaled_zeta(s, a)) - s * (stat.log_geo_mean - math.log(a))


def sigma_beta(beta_emp, n_a):
    """Standard deviation of the fitted exponent, beta_emp / sqrt(N_a)."""
    if n_a < 1:
        raise ValueError("tail size must be >= 1")
    return beta_emp / math.sqrt(n_a)


def at_cutoff(log_geo_mean, a):
    """Whether a mean log (scalar or array) sits at ln a, i.e. all data equal a.

    There the likelihood increases without bound in beta.
    """
    return log_geo_mean <= math.log(a) + _LOG_DEGENERACY_EPS


def check_identifiable(stat, a):
    """Raise DegenerateDataError unless the likelihood has an interior maximum."""
    if stat.n_a < 2:
        raise DegenerateDataError(
            f"need at least 2 observations above the cutoff, got {stat.n_a}"
        )
    if at_cutoff(stat.log_geo_mean, a):
        raise DegenerateDataError(
            f"all retained data equal the cutoff {a}; "
            "the likelihood increases without bound in beta"
        )
