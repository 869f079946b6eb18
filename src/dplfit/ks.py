"""Kolmogorov-Smirnov distance and Monte Carlo p-value aggregation."""

from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError
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
_INT64_MAX = np.iinfo(np.int64).max


def ks_points(sample, a):
    """The points where the KS supremum of a sample truncated at a can sit,
    and the sample's empirical survival N_n/N_a at them.

    Both the empirical survival and the model survival S(n) are constant
    on every interval (m, m+1] between integers, so the supremum over all
    real n >= a is attained on integers; and between consecutive observed
    values the empirical side is flat while S decreases, so it suffices to
    evaluate at each distinct observed value v, at v+1, and at the cutoff
    itself.  The points come sorted, the cutoff first.
    """
    values = sample.values
    if values[0] < a:
        raise ValueError(
            f"sample contains values below the cutoff a={a}; truncate first"
        )
    if values[-1] == _INT64_MAX:
        raise NumericRangeError(f"the point {values[-1]} + 1 does not fit in int64")
    # values are sorted, so a, v_0, v_0+1, v_1, v_1+1, ... never decreases;
    # drop its repeats (a = v_0, v_i + 1 = v_{i+1})
    step = values[1:] != values[:-1]
    v = np.concatenate((values[:1], values[1:][step]))
    merged = np.empty(2 * v.size + 1, dtype=np.int64)
    merged[0] = a
    merged[1::2] = v
    merged[2::2] = v + 1
    fresh = np.empty(merged.size, dtype=bool)
    fresh[0] = True
    np.not_equal(merged[1:], merged[:-1], out=fresh[1:])
    points = merged[fresh]
    emp = (values.size - np.searchsorted(values, points)) / values.size
    return points, emp


def _deviations(s, a, points, emp):
    """|N_n/N_a - S(n)| at every KS point of every sample, as one flat array.

    The model survival S(n) = (a/n)^s Z(s, n) / Z(s, a) comes from one
    chunked ``scaled_zeta`` pass over all the points, so it stays in range
    for any cutoff.
    """
    lengths = [p.size for p in points]
    points = np.concatenate(points)
    s = np.repeat(s, lengths)
    z = np.empty(points.size)
    for lo in range(0, points.size, _ZETA_CHUNK):
        hi = lo + _ZETA_CHUNK
        z[lo:hi] = scaled_zeta(s[lo:hi], points[lo:hi])
    # each sample's first point is the cutoff, where Z(s, a) is the norm
    starts = np.cumsum(lengths) - lengths
    norm = np.repeat(z[starts], lengths)
    model = np.exp(-s * np.log1p((points - a) / a)) * (z / norm)
    return np.abs(np.concatenate(emp) - model)


def ks_distances(s, a, points, emp):
    """KS distance of each of several samples truncated at a, each against
    its own model.

    ``points`` and ``emp`` hold each sample's arrays from ``ks_points``
    and ``s[i]`` is the exponent + 1 of sample i's model.
    """
    lengths = [p.size for p in points]
    starts = np.cumsum(lengths) - lengths
    return np.maximum.reduceat(_deviations(s, a, points, emp), starts)


def ks_statistic(sample, model):
    """sup_n |N_n/N_a - S(n)| over real n >= a, for a sample truncated at a.

    Evaluated at ``ks_points`` by ``_deviations`` for a batch of one, so
    it equals the distance the Monte Carlo replicas are measured with.
    Ties in the argmax go to the smallest n.
    """
    points, emp = ks_points(sample, model.a)
    dev = _deviations([model.beta + 1.0], model.a, [points], [emp])
    i = int(np.argmax(dev))
    return KsResult(d=float(dev[i]), argmax_n=int(points[i]))


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
