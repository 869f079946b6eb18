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
    itself.  The points come sorted, the cutoff first.  This is the
    one-sample case of ``table_points``.
    """
    points, emp, _ = table_points(a, sample.unique_values, sample.survival_counts,
                                  [sample.unique_values.size], [sample.size])
    return points, emp


def table_points(a, values, above, distinct, sizes):
    """``ks_points`` of several samples truncated at a, as flat arrays.

    Sample r is its ``distinct[r]`` sorted distinct values, stored one
    sample after another in ``values``, with N_v, the number of its data
    >= v, at the same place in ``above``, and its size ``sizes[r]``.
    Returns every sample's points and empirical survival, one sample after
    another, and the number of points of each sample.
    """
    values = np.asarray(values, dtype=np.int64)
    above = np.asarray(above, dtype=np.int64)
    distinct = np.asarray(distinct, dtype=np.intp)
    sizes = np.asarray(sizes, dtype=np.int64)
    if values.min() < a:
        raise ValueError(
            f"sample contains values below the cutoff a={a}; truncate first"
        )
    if values.max() == _INT64_MAX:
        raise NumericRangeError(f"the point {values.max()} + 1 does not fit in int64")
    # Sample r's points a, v_0, v_0+1, v_1, v_1+1, ... never decrease; the
    # data >= each are N_a at a, N_v at v and N_{v'} at v+1, v' the next
    # distinct value (none after the last).  They start at 2 F_r + r, F_r
    # the distinct values before sample r.
    first = np.cumsum(distinct) - distinct
    starts = 2 * first + np.arange(distinct.size)
    # v_i of sample r sits at 2 i + r + 1, and v_i + 1 right after it
    at_v = np.repeat(np.arange(1, distinct.size + 1), distinct)
    at_v += np.arange(0, 2 * values.size, 2)
    merged = np.empty(2 * values.size + distinct.size, dtype=np.int64)
    count = np.empty(merged.size, dtype=np.int64)
    merged[starts] = a
    count[starts] = sizes
    merged[at_v] = values
    count[at_v] = above
    at_v += 1
    merged[at_v] = values + 1
    count[at_v[:-1]] = above[1:]
    count[at_v[first + distinct - 1]] = 0
    # Drop the repeats (a = v_0, v_i + 1 = v_{i+1}), which carry equal
    # counts; a sample's cutoff is below the previous sample's last point.
    fresh = np.empty(merged.size, dtype=bool)
    fresh[0] = True
    np.not_equal(merged[1:], merged[:-1], out=fresh[1:])
    lengths = np.add.reduceat(fresh, starts, dtype=np.intp)
    # N_n / N_a as true division does it: both converted to float64
    emp = count[fresh].astype(np.float64)
    emp /= np.repeat(sizes, lengths)
    return merged[fresh], emp, lengths


def _deviations(s, a, points, emp, lengths):
    """|N_n/N_a - S(n)| at every KS point of every sample, as one flat array.

    The model survival is S(n) = (a/n)^s Z(s, n) / Z(s, a), and from one
    integer to the next it falls by the mass at n:

        S(n+1) = S(n) - (a/n)^s / Z(s, a).

    A sample's points fall into runs of consecutive integers.  The kernel
    ``scaled_zeta`` runs only where a run starts: at the cutoff, where it
    gives the norm Z(s, a), and at each point after a gap.  Along a run S
    is carried by the subtraction, one run position at a time, so a
    point's value depends only on its own run and a sample's distances do
    not depend on the samples it is measured with.  Each step adds an
    absolute error of about one ulp of S, the scale the distance is
    measured at; relative to a small S(n) it can be large, which a
    distance does not see.
    """
    s = np.asarray(s, dtype=np.float64)
    first = np.cumsum(lengths) - lengths
    start = np.empty(points.size, dtype=bool)
    np.not_equal(points[1:], points[:-1] + 1, out=start[1:])
    start[first] = True
    heads = np.flatnonzero(start)
    # each sample's first run starts at its cutoff, where the kernel gives
    # the norm Z(s, a); a run belongs to the last sample starting at or
    # before it
    lead = np.searchsorted(heads, first)
    sample = np.repeat(np.arange(lead.size), np.diff(lead, append=heads.size))
    # (a/n)^s = exp(-s log1p((n-a)/a)), with one temporary per point
    mass = (points - a) / a
    np.log1p(mass, out=mass)
    mass *= np.repeat(s, lengths)
    np.negative(mass, out=mass)
    np.exp(mass, out=mass)
    z = np.empty(heads.size)
    for lo in range(0, heads.size, _ZETA_CHUNK):
        at = heads[lo:lo + _ZETA_CHUNK]
        z[lo:lo + _ZETA_CHUNK] = scaled_zeta(s[sample[lo:lo + _ZETA_CHUNK]], points[at])
    norm = np.repeat(z[lead], lengths)
    at_heads = mass[heads] * (z / norm[heads])
    mass /= norm
    model = norm  # the norm's buffer takes the model, run by run
    model[heads] = at_heads
    runs = np.diff(heads, append=points.size)
    live = np.flatnonzero(runs > 1)
    for j in range(1, int(runs.max(initial=0))):
        live = live[runs[live] > j]
        at = heads[live] + j
        model[at] = model[at - 1] - mass[at - 1]
    np.subtract(emp, model, out=model)
    return np.abs(model, out=model)


def ks_distances(s, a, points, emp, lengths):
    """KS distance of each of several samples truncated at a, each against
    its own model.

    ``points``, ``emp`` and ``lengths`` are the samples' flat arrays from
    ``table_points``, and ``s[i]`` is the exponent + 1 of sample i's model.
    """
    starts = np.cumsum(lengths) - lengths
    return np.maximum.reduceat(_deviations(s, a, points, emp, lengths), starts)


def ks_statistic(sample, model):
    """sup_n |N_n/N_a - S(n)| over real n >= a, for a sample truncated at a.

    Evaluated at ``ks_points`` by ``_deviations`` for a batch of one, so
    it equals the distance the Monte Carlo replicas are measured with.
    Ties in the argmax go to the smallest n.
    """
    points, emp = ks_points(sample, model.a)
    dev = _deviations([model.beta + 1.0], model.a, points, emp, [points.size])
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
