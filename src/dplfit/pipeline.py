"""The full recipe: fixed-cutoff fit with Monte Carlo p-value, and the
scan over cutoffs that selects a* = min{a : p > threshold}.

Replicas are drawn in groups (``sampling.sample_groups``); each group's
rows are sorted and reduced to ln G, KS points and empirical survival as
flat arrays with per-replica lengths, which the block's one refit and one
KS pass take directly.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distribution import PowerLawModel, at_cutoff, sufficient_stat
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    EmptyTailError,
    NumericRangeError,
    TailTooLargeError,
)
from .ks import PValue, ks_distances, ks_statistic, p_value, table_points
from .mle import DEFAULT_MLE_CONFIG, SOLVED, fit_beta, solve_betas
from .sampling import SamplerParams, replica_stream, sample_groups

# Replicas are refit and measured this many at a time; only one block's KS
# points are held at once.
REPLICA_BLOCK = 256

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


def _replicas(params, n_a, seed, streams):
    """Draw the replicas of substreams ``streams``; return each one's ln G
    and all their KS points, empirical survival and point counts, flat.

    Each group of replicas from ``sample_groups`` is sorted and tabulated
    at once: a row's distinct values start where its sorted values change,
    and a value's count is the distance to the next start.  ln G is each
    row's counts @ log(values) / n_a, the dot product ``sufficient_stat``
    takes, so it is bit-identical to it.
    """
    parts = []
    for rows in sample_groups(params, n_a, seed, streams):
        rows.sort(axis=1)
        new = np.empty(rows.shape, dtype=bool)
        new[:, 0] = True
        np.not_equal(rows[:, 1:], rows[:, :-1], out=new[:, 1:])
        at = np.flatnonzero(new)
        values = rows.ravel()[at]
        counts = np.diff(at, append=rows.size)
        distinct = np.count_nonzero(new, axis=1)
        ends = np.cumsum(distinct)
        logs = np.log(values)
        log_g = np.array([counts[i:j] @ logs[i:j]
                          for i, j in zip((ends - distinct).tolist(), ends.tolist())]) / n_a
        points = table_points(params.a, values, n_a - at % n_a, distinct,
                              np.full(distinct.size, n_a))
        parts.append((log_g,) + points)
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


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
    proposal mass.  Replicas are drawn in groups (``sampling.sample_groups``)
    and refit and measured in blocks of ``REPLICA_BLOCK``: the refits of a
    block's attempt are one ``solve_betas`` call and its KS distances one
    ``ks_distances`` call.  Each replica's result depends only on
    (seed, i), not on the groups, the blocks or other replicas'
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
    for first in range(0, n_sim, REPLICA_BLOCK):
        todo = np.arange(first, min(first + REPLICA_BLOCK, n_sim))
        attempt = 0
        while todo.size:
            log_g, points, emp, lengths = _replicas(
                params, n_a, seed, replica_stream(todo, attempt))
            fit = np.flatnonzero(~at_cutoff(log_g, a))
            beta, _, status = solve_betas(log_g[fit], a, mle_config)
            solved = np.zeros(todo.size, dtype=bool)
            solved[fit[status == SOLVED]] = True
            keep = np.repeat(solved, lengths)
            d_sims[todo[solved]] = ks_distances(beta[status == SOLVED] + 1.0, a,
                                                points[keep], emp[keep], lengths[solved])
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
