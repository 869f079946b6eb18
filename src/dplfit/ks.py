"""Kolmogorov-Smirnov distance and Monte Carlo p-value aggregation.

The empirical survival N_n/N and the model survival S(n) are constant
on every interval (m, m+1] between integers, and between consecutive
distinct values v < v' of a sample the empirical side is N_v'/N while S
falls, so the supremum over real n >= a sits at some v or v + 1 (at the
cutoff both sides are 1).  A sample is measured there, straight from its
table of distinct values v and their counts, as the sampler returns it:
N_v, the number of its data >= v, is its counts summed from its last
value back.  The model survival S(v) and mass f(v) are evaluated at every
distinct value as ``PowerLawModel.survival`` and ``.pmf`` evaluate them,
and S(v + 1) = S(v) - f(v) (``_deviations``).  A pass over many samples
makes one kernel call for all of their values and keeps no chunking of
its own: the kernel bounds its temporaries itself.
"""

from dataclasses import dataclass

import numpy as np

from .distribution import scaled_power
from .zeta import scaled_zeta


@dataclass(frozen=True)
class KsResult:
    d: float
    argmax_n: int


@dataclass(frozen=True)
class PValue:
    p: float
    sigma_p: float
    n_sim: int
    n_exceed: int


def _deviations(s, a, values, counts, lengths):
    """|N_n/N - S(n)| of several samples truncated at a, at each distinct
    value v (column 0) and at v + 1 (column 1), one row per value.

    Sample r is its ``lengths[r]`` sorted distinct values, stored one
    sample after another in ``values``, with their counts at the same
    places in ``counts``: the tables ``sample_replicas`` returns.  N_v is
    the sample's counts from v to its last value, N is N_v at its first
    value, and past its last value the empirical survival is 0.  ``s[r]``
    is the exponent + 1 of its model.

    The model survival S(v) = (a/v)^s Z(s, v) / Z(s, a) and mass
    f(v) = (a/v)^s / Z(s, a) are computed at every value with the
    operations of ``PowerLawModel.survival`` and ``.pmf``, so each bit
    equals theirs, and S(v + 1) = S(v) - f(v).  The kernel
    ``scaled_zeta`` runs once over every value, each taking its sample's
    exponent through its ``rows`` argument, so the terms that depend on s
    alone are computed once a sample; and once at the cutoff for every
    sample's norm Z(s, a).
    Every operation is elementwise, so a sample's distances do not depend
    on the samples it is measured with.
    """
    first = np.cumsum(lengths) - lengths
    sample = np.repeat(np.arange(len(lengths)), lengths)
    # the running sum of the samples' counts may pass 2^63 and wrap, but a
    # difference within one sample, at most its N, comes out exact
    total = np.cumsum(counts)
    above = total[first + lengths - 1][sample] - total + counts
    z = scaled_zeta(s, values, rows=sample)
    norm = scaled_zeta(s, a)[sample]
    power = scaled_power(s[sample], a, values)
    model = power * (z / norm)
    mass = power / norm
    # N_n / N as true division does it: both converted to float64
    dev = np.empty((values.size, 2))
    size = above[first][sample]
    np.divide(above, size, out=dev[:, 0])
    np.divide(above[1:], size[:-1], out=dev[:-1, 1])
    dev[first + lengths - 1, 1] = 0.0
    dev[:, 0] -= model
    model -= mass
    dev[:, 1] -= model
    return np.abs(dev, out=dev)


def ks_distances(s, a, values, counts, lengths):
    """KS distance of each of several samples truncated at a, each against
    its own model: the largest of its rows of ``_deviations``, which takes
    the same arguments, the sampler's tables of distinct values and
    counts."""
    dev = _deviations(s, a, values, counts, lengths).ravel()
    return np.maximum.reduceat(dev, 2 * (np.cumsum(lengths) - lengths))


def ks_statistic(sample, model):
    """sup_n |N_n/N_a - S(n)| over real n >= a, for a sample truncated at a.

    ``_deviations`` for a batch of one, so it equals the distance the
    Monte Carlo replicas are measured with.  Ties in the argmax go to the
    smallest n.
    """
    values = sample.unique_values
    if values[0] < model.a:
        raise ValueError(
            f"sample contains values below the cutoff a={model.a}; truncate first"
        )
    dev = _deviations(np.array([model.beta + 1.0]), model.a, values,
                      sample.unique_counts, [values.size]).ravel()
    i = int(np.argmax(dev))
    return KsResult(d=float(dev[i]), argmax_n=int(values[i // 2]) + i % 2)


def p_value(d_emp, d_sims):
    """Fraction of simulated KS distances strictly exceeding the empirical one.

    The error is the binomial one, sigma_p = sqrt(p (1-p) / n_sim).
    """
    d_sims = np.asarray(d_sims, dtype=np.float64)
    if d_sims.size == 0:
        raise ValueError("need at least one simulated statistic")
    n_sim = int(d_sims.size)
    n_exceed = int(np.count_nonzero(d_sims > d_emp))
    p = n_exceed / n_sim
    return PValue(
        p=p,
        sigma_p=float(np.sqrt(p * (1.0 - p) / n_sim)),
        n_sim=n_sim,
        n_exceed=n_exceed,
    )
