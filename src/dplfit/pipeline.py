"""The full recipe: fixed-cutoff fit with Monte Carlo p-value, and the
scan over cutoffs that selects a* = min{a : p > threshold}.

Replicas are refit and measured in blocks of about ``_BLOCK_POINTS`` KS
points, with one ``solve_betas`` and one ``ks_distances`` call per block.
A block's replicas are drawn in units of about ``sampling._UNIT``
variates (``sampling.sample_groups``), and each unit's rows are sorted
and reduced to ln G, KS points and empirical survival as flat arrays
with per-replica lengths.  Both sizes are memory budgets: they bound
what a fit holds at once and change no result.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distribution import PowerLawModel, at_cutoff, log_geo_means, sufficient_stat
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    EmptyTailError,
    NumericRangeError,
    TailTooLargeError,
)
from .ks import PValue, ks_distances, ks_points, ks_statistic, p_value, table_points
from .mle import DEFAULT_MLE_CONFIG, SOLVED, fit_beta, solve_betas
from .sampling import SamplerParams, replica_stream, sample_groups

# Replicas are refit and measured in blocks of about this many KS points,
# as many replicas as the empirical tail's point count divides into it (at
# least one, at most n_sim); only one block's KS points are held at once.
# The replicas are draws of the tail's size from the model fitted to it, so
# its point count is a fair estimate of theirs.
_BLOCK_POINTS = 1 << 16

# A fit whose replicas lose more than this proposal mass to the sampler's
# 2^63 cap is reported unreliable: its replicas are biased toward small
# values.
LOST_MASS_LIMIT = 1e-6


@dataclass(frozen=True)
class FitAtA:
    a: int
    n_a: int
    beta_emp: float
    sigma: float
    d_emp: float
    p: PValue
    regenerated: int = 0
    reliable: bool = True
    # populated only when fit_at_a(..., keep_d_sims=True); diagnostic, not
    # part of reports
    d_sims: tuple = None


@dataclass(frozen=True)
class ScanConfig:
    """Cutoff-scan settings.

    ``a_values`` of None means every distinct sample value, from the
    minimum up, for as long as the tail keeps at least ``min_tail``
    observations.  Each replica gets its own RNG substream derived from
    (seed, a, replica index), so growing n_sim extends the ensemble
    without reshuffling it, and workers do not affect results.
    """

    a_values: tuple = None
    min_tail: int = 10
    n_sim: int = 1000
    p_threshold: float = 0.20
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.n_sim < 100:
            raise ValueError(f"n_sim must be >= 100, got {self.n_sim}")
        if not 0.0 < self.p_threshold < 1.0:
            raise ValueError(f"p_threshold must be in (0, 1), got {self.p_threshold}")
        if self.min_tail < 2:
            raise ValueError("min_tail must be >= 2")
        if self.a_values is not None:
            a_values = tuple(int(a) for a in self.a_values)
            if any(x >= y for x, y in zip(a_values, a_values[1:])):
                raise ValueError("a_values must be strictly increasing")
            if a_values and a_values[0] < 1:
                raise ValueError("cutoffs must be >= 1")
            object.__setattr__(self, "a_values", a_values)


@dataclass(frozen=True)
class ScanResult:
    fits: tuple
    skipped: tuple  # (a, reason) pairs
    a_star: int = None
    beta_star: float = None
    sigma_star: float = None


def _seed_for_cutoff(seed, a):
    """A 64-bit seed for the cutoff's replica ensemble, derived by hashing."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(np.uint32(0xA5CAD), a))
    return int(ss.generate_state(1, np.uint64)[0])


def _tabulate(a, n_a, rows):
    """Sort ``rows`` in place and return each row's ln G and all their KS
    points, empirical survival and point counts, flat.

    A row's distinct values start where its sorted values change, and a
    value's count is the distance to the next start.  ln G is each row's
    segment of one ``log_geo_means`` call, the function ``sufficient_stat``
    calls with one segment, so it is bit-identical to it.
    """
    rows.sort(axis=1)
    new = np.empty(rows.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(rows[:, 1:], rows[:, :-1], out=new[:, 1:])
    at = np.flatnonzero(new)
    values = rows.ravel()[at]
    counts = np.diff(at, append=rows.size)
    distinct = np.count_nonzero(new, axis=1)
    log_g = log_geo_means(values, counts, np.cumsum(distinct) - distinct, n_a)
    return (log_g,) + table_points(a, values, n_a - at % n_a, distinct,
                                   np.full(distinct.size, n_a))


def _replicas(params, n_a, seed, streams):
    """Draw the replicas of substreams ``streams``; return each one's ln G
    and all their KS points, empirical survival and point counts, flat.

    Each unit of replicas from ``sample_groups`` is tabulated at once
    (``_tabulate``), and only one unit is held at a time.
    """
    parts = []
    for rows in sample_groups(params, n_a, seed, streams):
        parts.append(_tabulate(params.a, n_a, rows))
        del rows  # let the unit go before the next one is drawn
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _attempt(params, n_a, seed, ids, attempt, mle_config):
    """Draw, refit and measure replicas ``ids`` at ``attempt``: one
    ``solve_betas`` and one ``ks_distances`` call.  Returns which of them
    solved and those ones' KS distances.
    """
    a = params.a
    log_g, points, emp, lengths = _replicas(params, n_a, seed, replica_stream(ids, attempt))
    fit = np.flatnonzero(~at_cutoff(log_g, a))
    beta, _, status = solve_betas(log_g[fit], a, mle_config)
    solved = np.zeros(ids.size, dtype=bool)
    solved[fit[status == SOLVED]] = True
    if not solved.all():
        keep = np.repeat(solved, lengths)
        points, emp, lengths = points[keep], emp[keep], lengths[solved]
    return solved, ks_distances(beta[status == SOLVED] + 1.0, a, points, emp, lengths)


def fit_at_a(sample, a, n_sim, seed, mle_config=DEFAULT_MLE_CONFIG,
             keep_d_sims=False):
    """Steps 1-7 at a fixed cutoff.

    Fit beta on the tail, measure the KS distance, then simulate ``n_sim``
    replicas of the tail at the fitted exponent; every replica is refit
    and its KS distance is measured against its own refitted model.  The
    p-value is the fraction of replicas whose distance strictly exceeds
    the empirical one.

    Replica i is drawn from substream ``replica_stream(i, attempt)``.  A
    replica whose refit is degenerate or fails to converge is regenerated
    at the next attempt; regenerations are counted and more than 1% of
    them marks the result unreliable, as does a fitted exponent at which
    the sampler's 2^63 cap drops more than ``LOST_MASS_LIMIT`` of the
    proposal mass.  Replicas are drawn and tabulated in units of about
    ``sampling._UNIT`` variates (``sampling.sample_groups``), and refit and
    measured in blocks of about ``_BLOCK_POINTS`` KS points: the refits of
    a block's attempt are one ``solve_betas`` call and its KS distances one
    ``ks_distances`` call.  Each replica's result depends only on
    (seed, i, attempt), not on the units, the blocks or other replicas'
    regenerations.
    """
    tail = sample.truncated(a)
    stat = sufficient_stat(tail)
    mle = fit_beta(stat, a, mle_config)
    model = PowerLawModel(a, mle.beta_emp)
    d_emp = ks_statistic(tail, model).d

    params = SamplerParams(a, mle.beta_emp)
    n_a = tail.size
    d_sims = np.empty(n_sim)
    regenerated = 0
    retry_budget = 100 * n_sim  # loop guard only; heavy retrying is reported
    block = max(1, min(n_sim, _BLOCK_POINTS // ks_points(tail, a)[0].size))
    for first in range(0, n_sim, block):
        todo = np.arange(first, min(first + block, n_sim))
        attempt = 0
        while todo.size:
            solved, d = _attempt(params, n_a, seed, todo, attempt, mle_config)
            d_sims[todo[solved]] = d
            todo = todo[~solved]
            regenerated += todo.size
            if regenerated > retry_budget:
                raise ConvergenceError(
                    f"more than {retry_budget} replica refits failed at a={a}"
                )
            attempt += 1

    return FitAtA(
        a=int(a),
        n_a=n_a,
        beta_emp=mle.beta_emp,
        sigma=mle.sigma,
        d_emp=d_emp,
        p=p_value(d_emp, d_sims),
        regenerated=regenerated,
        reliable=(regenerated <= 0.01 * n_sim
                  and params.lost_mass <= LOST_MASS_LIMIT),
        d_sims=tuple(d_sims.tolist()) if keep_d_sims else None,
    )


def default_cutoffs(sample, min_tail):
    """Distinct sample values whose tails keep at least min_tail data."""
    uniq = sample.unique_values
    keep = sample.survival_counts >= min_tail
    return [int(u) for u in uniq[keep]]


def _fit_one_guarded(args):
    sample, a, n_sim, seed, mle_config = args
    try:
        return fit_at_a(sample, a, n_sim, _seed_for_cutoff(seed, a), mle_config)
    except (EmptyTailError, DegenerateDataError, ConvergenceError,
            NumericRangeError, TailTooLargeError) as err:
        return (type(err).__name__, str(err))


def _collect(a, outcome, fits, skipped):
    if isinstance(outcome, FitAtA):
        fits.append(outcome)
    else:
        skipped.append((int(a), f"{outcome[0]}: {outcome[1]}"))


def scan(sample, config=ScanConfig(), mle_config=DEFAULT_MLE_CONFIG):
    """Run fit_at_a over the cutoff grid and select a*.

    a* is the smallest tested cutoff whose p-value strictly exceeds
    ``config.p_threshold``; absent when no cutoff qualifies.  Cutoffs
    failing their preconditions are recorded as skipped, not fatal.

    Deterministic for identical (sample, config), including every
    simulated KS distance, regardless of ``workers``.
    """
    a_values = config.a_values
    if a_values is None:
        a_values = default_cutoffs(sample, config.min_tail)

    fits = []
    skipped = []
    tasks = [(sample, a, config.n_sim, config.seed, mle_config) for a in a_values]
    if config.workers > 1 and len(tasks) > 1:
        workers = min(config.workers, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_fit_one_guarded, tasks, chunksize=1)
            for a, outcome in zip(a_values, results):
                _collect(a, outcome, fits, skipped)
    else:
        for a, task in zip(a_values, tasks):
            _collect(a, _fit_one_guarded(task), fits, skipped)

    a_star = beta_star = sigma_star = None
    for fit in fits:
        if fit.p.p > config.p_threshold:
            a_star, beta_star, sigma_star = fit.a, fit.beta_emp, fit.sigma
            break
    return ScanResult(
        fits=tuple(fits),
        skipped=tuple(skipped),
        a_star=a_star,
        beta_star=beta_star,
        sigma_star=sigma_star,
    )
