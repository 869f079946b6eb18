"""The full recipe: fixed-cutoff fit with Monte Carlo p-value, and the
scan over cutoffs that selects a* = min{a : p > threshold}.

Replicas are refit and measured in blocks of about ``_BLOCK_VALUES``
distinct values, with one ``solve_betas`` and one ``ks_distances`` call
per block.  A block's replicas are drawn in units of about
``sampling._UNIT`` variates (``sampling.sample_groups``), and each unit's
rows are sorted and reduced to ln G and their tables of distinct values
and N_v, flat, which ``ks_distances`` reads as they are.  Both sizes are
memory budgets: they bound what one process of a fit holds at once and
change no result.

A scan's cutoffs, or a large fit's replica blocks, can run on processes
forked from the calling process (``_processes``): they return their
results, and only the calling process writes them.  ``scan`` and
``fit_at_a`` say who forks and when; a worker process forks nothing, and
where ``fork`` is unavailable everything runs in the calling process.
"""

import concurrent.futures
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from . import sampling
from .distribution import PowerLawModel, at_cutoff, log_geo_means, sufficient_stat
from .errors import ConvergenceError, DegenerateDataError, EmptyTailError, TailTooLargeError
from .ks import PValue, ks_distances, ks_statistic, p_value
from .mle import DEFAULT_MLE_CONFIG, SOLVED, fit_beta, solve_betas
from .sampling import SamplerParams, replica_stream, sample_groups, stream_starts

# Replicas are refit and measured in blocks of about this many distinct
# values, as many replicas as the empirical tail's distinct-value count
# divides into it (at least one, at most n_sim); only one block's tables
# are held at once.  The replicas are draws of the tail's size from the
# model fitted to it, so its count is a fair estimate of theirs.
_BLOCK_VALUES = 1 << 15

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
    without reshuffling it, and the processes that the cutoffs are spread
    over (``workers``; see ``scan``) do not affect results.
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
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
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


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(jobs, variates):
    """Processes to fork for ``jobs`` independent jobs that draw
    ``variates`` variates in all: at most one a usable CPU and one a job,
    and no more than give each process a whole reduce unit of
    ``sampling._UNIT`` variates, since less work takes less time than the
    fork."""
    workers = min(jobs, variates // sampling._UNIT)
    return 1 if workers < 2 else min(workers, _usable_cpus())


@contextmanager
def _processes(workers):
    """Yield ``(map, P)``: the ``map`` of a pool of P = ``workers`` processes
    forked from this one, which yields in input order and is shut down, its
    processes joined, when the ``with`` exits.  For fewer than two workers,
    in a worker process (whose own pool already spreads the work over the
    CPUs) or where ``fork`` is unavailable, yield the builtin ``map`` and
    P = 1.  The processes are forked, not spawned: a spawned process
    imports numpy and dplfit afresh, and a pool of two takes about 0.35 s
    to spawn against 12 ms to fork (2 vCPUs)."""
    if workers > 1:
        import multiprocessing  # slow to import: only a pool needs it

        if (multiprocessing.parent_process() is None
                and "fork" in multiprocessing.get_all_start_methods()):
            context = multiprocessing.get_context("fork")
            with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
                yield pool.map, workers
            return
    yield map, 1


def _tabulate(n_a, rows):
    """Sort ``rows`` in place and return each row's ln G and all their
    distinct values v, N_v and distinct-value counts, flat.

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
    return log_g, values, n_a - at % n_a, distinct


def _replicas(params, n_a, starts):
    """Draw the replicas of start states ``starts``; return each one's ln G
    and all their distinct values, N_v and distinct-value counts, flat.

    Each unit of replicas from ``sample_groups`` is tabulated at once
    (``_tabulate``), and only one unit is held at a time.
    """
    parts = []
    for rows in sample_groups(params, n_a, starts):
        parts.append(_tabulate(n_a, rows))
        del rows  # let the unit go before the next one is drawn
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _attempt(params, n_a, starts, mle_config):
    """Draw, refit and measure the replicas of start states ``starts``: one
    ``solve_betas`` and one ``ks_distances`` call.  Returns which of them
    solved and those ones' KS distances.
    """
    a = params.a
    log_g, values, above, lengths = _replicas(params, n_a, starts)
    fit = np.flatnonzero(~at_cutoff(log_g, a))
    beta, _, status = solve_betas(log_g[fit], a, mle_config)
    solved = np.zeros(len(starts), dtype=bool)
    solved[fit[status == SOLVED]] = True
    if not solved.all():
        keep = np.repeat(solved, lengths)
        values, above, lengths = values[keep], above[keep], lengths[solved]
    return solved, ks_distances(beta[status == SOLVED] + 1.0, a, values, above, lengths)


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
    ``sampling._UNIT`` variates (``sampling.sample_groups``), and refit
    and measured in blocks of at most ``_BLOCK_VALUES`` distinct values:
    the refits of a block's attempt are one ``solve_betas`` call and its
    KS distances one ``ks_distances`` call, which reads the replicas'
    tables of distinct values as they are.  The fit is one loop of
    attempts: each splits the replicas still to solve (at first all of
    them) into equal blocks, a multiple of the P processes they run on so
    that the processes finish together.  P is what ``_workers`` gives for
    n_sim jobs of N_a variates each; at P > 1 this call forks a pool of P
    processes and shuts it down before it returns, and at P = 1, or in a
    worker process of a scan, the blocks run in this process.  The blocks
    return which replicas solved and their distances, and only the calling
    process writes ``d_sims``; the unsolved make the next attempt, and
    more than 100 n_sim regenerations in all raise ``ConvergenceError``.
    An attempt's start states come in order from one ``stream_starts``
    generator, which hashes each 256-id key block once.  Each replica's
    result depends only on (seed, i, attempt), not on the units, the
    blocks, the processes or other replicas' regenerations.
    """
    if n_sim < 1:
        raise ValueError(f"n_sim must be >= 1, got {n_sim}")
    tail = sample.truncated(a)
    stat = sufficient_stat(tail)
    mle = fit_beta(stat, a, mle_config)
    model = PowerLawModel(a, mle.beta_emp)
    d_emp = ks_statistic(tail, model).d

    params = SamplerParams(a, mle.beta_emp)
    n_a = tail.size
    block = max(1, min(n_sim, _BLOCK_VALUES // tail.unique_values.size))
    d_sims = np.empty(n_sim)
    todo = np.arange(n_sim)
    regenerated = attempt = 0
    retry_budget = 100 * n_sim  # loop guard only; heavy retrying is reported
    with _processes(_workers(n_sim, n_sim * n_a)) as (mapped, workers):
        while todo.size:
            n_blocks = min(todo.size, workers * -(-todo.size // (workers * block)))
            starts = stream_starts(seed, replica_stream(todo, attempt).tolist())
            blocks = [list(islice(starts, ids.size))
                      for ids in np.array_split(todo, n_blocks)]
            outcomes = list(mapped(_attempt, repeat(params), repeat(n_a), blocks,
                                   repeat(mle_config)))
            solved = np.concatenate([s for s, _ in outcomes])
            d_sims[todo[solved]] = np.concatenate([d for _, d in outcomes])
            todo = todo[~solved]
            regenerated += todo.size
            if regenerated > retry_budget:
                raise ConvergenceError(
                    f"more than {retry_budget} replica refits failed at a={a}")
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


def _fit_one(task):
    """One cutoff of a scan: ``(fit, None)``, or ``(None, reason)`` when the
    cutoff fails a precondition."""
    sample, a, n_sim, seed = task
    try:
        return fit_at_a(sample, a, n_sim, _seed_for_cutoff(seed, a)), None
    except (EmptyTailError, DegenerateDataError, ConvergenceError,
            TailTooLargeError) as err:
        return None, f"{type(err).__name__}: {err}"


def scan(sample, config=ScanConfig()):
    """Run fit_at_a over the cutoff grid and select a*.

    a* is the smallest tested cutoff whose p-value strictly exceeds
    ``config.p_threshold``; absent when no cutoff qualifies.  Cutoffs
    failing their preconditions are recorded as skipped, not fatal.

    The scan spreads whole cutoffs over one pool of P forked processes,
    each fit inline in its process, and shuts the pool down before it
    returns.  With ``workers`` W >= 2, P is W, at most one a cutoff and
    one a usable CPU.  With ``workers`` 1 the scan picks P as a fit picks
    its own (``_workers``): at most one a usable CPU and one a cutoff,
    and no more than give each process 2^18 of the scan's n_sim x sum N_a
    variates.  At P = 1 (one cutoff, one usable CPU or a small scan), or
    where ``fork`` is unavailable, the cutoffs run in this process, and
    each fit forks as ``fit_at_a`` does.

    Deterministic for identical (sample, config), including every
    simulated KS distance, regardless of ``workers`` and of the CPUs.
    """
    a_values = config.a_values
    if a_values is None:
        a_values = default_cutoffs(sample, config.min_tail)

    fits = []
    skipped = []
    tasks = [(sample, a, config.n_sim, config.seed) for a in a_values]
    if config.workers > 1:
        workers = min(config.workers, len(tasks), _usable_cpus())
    else:
        tails = np.append(sample.survival_counts, 0)
        n_a = tails[np.searchsorted(sample.unique_values, a_values)]
        workers = _workers(len(tasks), config.n_sim * int(n_a.sum()))
    with _processes(workers) as (mapped, _):
        for a, (fit, reason) in zip(a_values, mapped(_fit_one, tasks)):
            if fit is None:
                skipped.append((int(a), reason))
            else:
                fits.append(fit)

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
