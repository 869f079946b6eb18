"""Kolmogorov-Smirnov distance and Monte Carlo p-value aggregation.

The empirical survival N_n/N and the model survival S(n) are constant
on every interval (m, m+1] between integers, and between consecutive
distinct values v < v' of a sample the empirical side is N_v'/N while S
falls, so the supremum over real n >= a sits at some v or v + 1 (at the
cutoff both sides are 1).  A sample is measured there, straight from its
table of distinct values v and N_v, the number of its data >= v.  The
model survival comes from the zeta kernel where a run of consecutive
values starts, one exponent a sample for all its runs, and is carried
along the run by subtraction (``_deviations``).
"""

from dataclasses import dataclass

import numpy as np

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


# Points per evaluation of the zeta kernel, to bound its temporaries.
_ZETA_CHUNK = 1 << 15


def _deviations(s, a, values, above, lengths):
    """|N_n/N - S(n)| of several samples truncated at a, at each distinct
    value v (column 0) and at v + 1 (column 1), one row per value.

    Sample r is its ``lengths[r]`` sorted distinct values, stored one
    sample after another in ``values``, with N_v at the same place in
    ``above``; N is N_v at its first value, and past its last value the
    empirical survival is 0.  ``s[r]`` is the exponent + 1 of its model.

    The model survival is S(n) = (a/n)^s Z(s, n) / Z(s, a), and from one
    integer to the next it falls by the mass at n:

        S(n+1) = S(n) - (a/n)^s / Z(s, a).

    A sample's values fall into runs of consecutive integers.  The kernel
    ``scaled_zeta`` runs only where a run starts, and at the cutoff for the
    norm Z(s, a) when no value sits there, with one exponent a sample
    (its ``rows`` argument), so the terms that depend on s alone are
    computed once a sample.  Along a run S is carried by the
    subtraction, one value at a time, and S(v + 1) is S(v) less the mass
    at v, so a value's row depends only on its own run and a sample's
    distances do not depend on the samples it is measured with.  Each step adds an
    absolute error of about one ulp of S, the scale the distance is
    measured at; relative to a small S(n) it can be large, which a
    distance does not see.
    """
    first = np.cumsum(lengths) - lengths
    start = np.empty(values.size, dtype=bool)
    np.not_equal(np.diff(values), 1, out=start[1:])
    start[first] = True
    heads = np.flatnonzero(start)
    # a run belongs to the last sample starting at or before it
    lead = np.searchsorted(heads, first)
    sample = np.repeat(np.arange(lead.size), np.diff(lead, append=heads.size))
    # (a/v)^s = exp(-s log1p((v-a)/a)), with one temporary per value
    mass = (values - a) / a
    np.log1p(mass, out=mass)
    mass *= np.repeat(s, lengths)
    np.negative(mass, out=mass)
    np.exp(mass, out=mass)
    z = np.empty(heads.size)
    for lo in range(0, heads.size, _ZETA_CHUNK):
        at = heads[lo:lo + _ZETA_CHUNK]
        z[lo:lo + _ZETA_CHUNK] = scaled_zeta(s, values[at], rows=sample[lo:lo + _ZETA_CHUNK])
    # the norm is the kernel at the first value where that is the cutoff
    norm = z[lead]
    off = np.flatnonzero(values[first] != a)
    norm[off] = scaled_zeta(s, a, rows=off)
    norm = np.repeat(norm, lengths)
    at_heads = mass[heads] * (z / norm[heads])
    mass /= norm
    model = norm  # the norm's buffer takes the model, run by run
    model[heads] = at_heads
    runs = np.diff(heads, append=values.size)
    live = np.flatnonzero(runs > 1)
    for j in range(1, int(runs.max(initial=0))):
        live = live[runs[live] > j]
        at = heads[live] + j
        model[at] = model[at - 1] - mass[at - 1]
    # N_n / N as true division does it: both converted to float64
    dev = np.empty((values.size, 2))
    size = np.repeat(above[first], lengths)
    np.divide(above, size, out=dev[:, 0])
    np.divide(above[1:], size[:-1], out=dev[:-1, 1])
    dev[first + lengths - 1, 1] = 0.0
    dev[:, 0] -= model
    model -= mass
    dev[:, 1] -= model
    return np.abs(dev, out=dev)


def ks_distances(s, a, values, above, lengths):
    """KS distance of each of several samples truncated at a, each against
    its own model: the largest of its rows of ``_deviations``, which takes
    the same arguments."""
    dev = _deviations(s, a, values, above, lengths).ravel()
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
                      sample.survival_counts, [values.size]).ravel()
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
