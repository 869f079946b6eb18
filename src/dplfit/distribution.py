"""Discrete power-law distribution and the data containers it is fit to.

The model puts mass f(n) = n^-(beta+1) / zeta(beta+1, a) on the integers
n = a, a+1, ... and has survival S(n) = zeta(beta+1, n) / zeta(beta+1, a).
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, EmptyTailError, NumericRangeError
from .zeta import hurwitz_zeta, scaled_zeta

# Anything closer to log(a) than this counts as "all data equal to a";
# real near-degenerate samples sit many orders of magnitude above it.
_LOG_DEGENERACY_EPS = 1e-12


class IntegerSample:
    """Multiset of positive integers, stored sorted for survival queries."""

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("sample values must be one-dimensional")
        if arr.size == 0:
            raise ValueError("sample must contain at least one value")
        if arr.min() < 1:
            raise ValueError("sample values must be >= 1")
        self.values = np.sort(arr)
        self._unique = None
        self._counts = None

    def __len__(self):
        return int(self.values.size)

    @property
    def size(self):
        return int(self.values.size)

    def __eq__(self, other):
        if not isinstance(other, IntegerSample):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    def __repr__(self):
        return f"IntegerSample(n={self.size}, min={self.values[0]}, max={self.values[-1]})"

    def _uniq(self):
        if self._unique is None:
            self._unique, self._counts = np.unique(self.values, return_counts=True)
        return self._unique, self._counts

    @property
    def unique_values(self):
        return self._uniq()[0]

    @property
    def unique_counts(self):
        return self._uniq()[1]

    @property
    def survival_counts(self):
        """N_v = number of data >= v, for each distinct value v."""
        counts = self.unique_counts
        return counts[::-1].cumsum()[::-1]

    def count_at_least(self, n):
        """Number of data >= n; n may be a scalar or array."""
        idx = np.searchsorted(self.values, n, side="left")
        out = self.values.size - idx
        return int(out) if np.ndim(n) == 0 else out

    def truncated(self, a):
        """Sample of the values >= a, multiplicities preserved."""
        if a < 1:
            raise ValueError(f"cutoff must be >= 1, got {a}")
        start = int(np.searchsorted(self.values, a, side="left"))
        if start == self.values.size:
            raise EmptyTailError(
                f"no values >= {a} (sample maximum is {self.values[-1]})"
            )
        return IntegerSample(self.values[start:])


@dataclass(frozen=True)
class SufficientStat:
    """All the likelihood needs: tail size and mean log of the retained data."""

    n_a: int
    log_geo_mean: float


def sufficient_stat(sample):
    """Sufficient statistic of an (already truncated) sample."""
    return SufficientStat(
        n_a=sample.size,
        log_geo_mean=float(np.log(sample.values).mean()),
    )


@dataclass(frozen=True)
class PowerLawModel:
    """Discrete power law on n >= a with exponent beta (mass ~ n^-(beta+1))."""

    a: int
    beta: float
    zeta_norm: float = field(init=False)

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.a}")
        if not self.beta > 0:
            raise ValueError(f"exponent must be positive, got {self.beta}")
        norm = hurwitz_zeta(self.beta + 1.0, self.a)
        if not norm >= sys.float_info.min:
            raise NumericRangeError(
                f"zeta({self.beta + 1.0:.6g}, {self.a}) = {norm:.3g} is below the "
                "double-precision range; the cutoff and exponent are too large"
            )
        object.__setattr__(self, "zeta_norm", norm)

    def _check_support(self, n):
        if np.ndim(n) == 0:
            if n < self.a:
                raise ValueError(f"n={n} is below the lower cutoff a={self.a}")
        elif np.asarray(n).min() < self.a:
            raise ValueError(f"some n are below the lower cutoff a={self.a}")

    def pmf(self, n):
        """Probability of the value n (scalar or array), n >= a."""
        self._check_support(n)
        if np.ndim(n) == 0:
            return 1.0 / (self.zeta_norm * float(n) ** (self.beta + 1.0))
        return 1.0 / (self.zeta_norm * np.asarray(n, dtype=np.float64) ** (self.beta + 1.0))

    def survival(self, n):
        """Probability of a value >= n (scalar or array), n >= a; S(a) = 1."""
        self._check_support(n)
        if np.ndim(n) == 0:
            if n == self.a:
                return 1.0
            return hurwitz_zeta(self.beta + 1.0, int(n)) / self.zeta_norm
        n = np.asarray(n)
        out = hurwitz_zeta(self.beta + 1.0, n) / self.zeta_norm
        out[n == self.a] = 1.0
        return out


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
