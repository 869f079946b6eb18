"""The full recipe: fixed-cutoff fit with Monte Carlo p-value, and the
scan over cutoffs that selects a* = min{a : p > threshold}.

A replica of a tail of N_a observations is N_a i.i.d. draws of the
model fitted to it, from its own substream: the replica ``sample_n``
draws.  The sampler returns every replica as its table of distinct
values and counts (``sample_replicas``), however it was drawn.

Replicas are refit and measured in blocks of about ``_BLOCK_VALUES``
distinct values, with one sampler call, one ``log_geo_means``, one
``solve_betas`` and one ``ks_distances`` call per block, each reading the
sampler's tables as they are.  The block size is a memory budget, as the
sampler's unit is: they bound what one process of a fit holds at once and
change no result.

A fit's or a scan's replicas run as jobs, each a run of consecutive
replica indices of one cutoff, on one pool of forked processes (``_fits``),
whose cutoffs' results are yielded in cutoff order as they come in; a
worker process forks nothing, and where ``fork`` is unavailable
everything runs in the calling process.
"""

import concurrent.futures
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .distribution import PowerLawModel, _whole, log_geo_means, sufficient_stat
from .errors import (ConvergenceError, DegenerateDataError, DplfitError, EmptyTailError,
                     TailTooLargeError)
from .ks import PValue, ks_distances, ks_statistic, p_value
from .mle import SOLVED, fit_beta, solve_betas
from . import sampling

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
    observations; given cutoffs must be whole numbers, strictly
    increasing.  Each replica gets its own RNG substream derived from
    (seed, a, replica index), so growing n_sim extends the ensemble
    without reshuffling it, and ``workers`` changes no result.
    """

    a_values: tuple = None
    min_tail: int = 10
    n_sim: int = 1000
    p_threshold: float = 0.20
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 100 <= operator.index(self.n_sim) <= sampling.RETRY_STREAM_BASE:
            raise ValueError(f"n_sim must be in [100, 2^32], got {self.n_sim}")
        if not 0.0 < self.p_threshold < 1.0:
            raise ValueError(f"p_threshold must be in (0, 1), got {self.p_threshold}")
        if operator.index(self.min_tail) < 2:
            raise ValueError("min_tail must be >= 2")
        if operator.index(self.workers) < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.a_values is not None:
            a_values = tuple(int(_whole(a)) for a in self.a_values)
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


def _prices(sample, a_values):
    """What one replica of ``sample``'s tail at each cutoff costs to draw,
    refit and measure, in row variates: min(N_a, ``_TABLE_DRAWS``) + D_a
    for a tail of N_a observations and D_a distinct values.  The sampler
    draws a replica as its count table once ``_TABLE_DRAWS`` of its draws
    are expected in the table's cells, so a draw costs at most about that
    many row variates, and the refit and KS pass cost a term a distinct
    value.  An empty tail costs 0.  Needs no fitted exponent, which only
    the jobs compute."""
    tails = np.append(sample.survival_counts, 0)
    distinct = sample.unique_values.size
    return [min(int(tails[i]), sampling._TABLE_DRAWS) + distinct - i
            for i in map(sample.tail_start, a_values)]


def _workers(jobs, work):
    """Processes to fork for ``jobs`` independent jobs of ``work`` in all,
    priced in row variates (``_prices``): at most one a usable CPU and one
    a job, and no more than give each process the work of a whole sampler
    unit of ``_UNIT`` variates, since less work takes less time than
    forking and joining the pool."""
    workers = min(jobs, work // sampling._UNIT)
    return 1 if workers < 2 else min(workers, _usable_cpus())


@contextmanager
def _processes(workers):
    """Yield ``(map, P)``: the ``map`` of a pool of P = ``workers`` processes
    forked from this one, which yields in input order and is shut down when
    the ``with`` exits, however it exits: the calls not yet handed to a
    process are cancelled, and the processes finish the ones they hold and
    are joined.  For fewer than two workers, in a worker process (whose
    pool already spreads the work over the CPUs) or where ``fork`` is
    unavailable, yield the builtin ``map`` and P = 1.  Forked, not spawned:
    a spawned process imports numpy and dplfit afresh, and a pool of two
    takes 0.35 s to spawn, 12 ms to fork (2 vCPUs).  End to end, forking,
    feeding and joining it cost about 20 ms a fit there."""
    if workers > 1:
        import multiprocessing  # slow to import: only a pool needs it

        if (multiprocessing.parent_process() is None
                and "fork" in multiprocessing.get_all_start_methods()):
            context = multiprocessing.get_context("fork")
            with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
                try:
                    yield pool.map, workers
                finally:
                    pool.shutdown(cancel_futures=True)
            return
    yield map, 1


def _attempt(params, n_a, starts):
    """Draw, refit and measure the replicas of start states ``starts``: one
    ``sample_replicas``, one ``log_geo_means``, one ``solve_betas`` and one
    ``ks_distances`` call over all of them, each reading the tables of
    distinct values and counts as the sampler returns them.  Returns which
    of them solved and those ones' KS distances.

    Each replica's ln G is its segment of one ``log_geo_means`` call, the
    function ``sufficient_stat`` calls with one segment, so it is
    bit-identical to it.  A replica whose values all equal the cutoff has
    its root past the upper bound and comes back AT_BOUND, so it needs no
    test of its own; each replica is measured independently of the others,
    so measuring the unsolved ones changes no solved replica's distance.
    """
    values, counts, lengths = sampling.sample_replicas(params, n_a, starts)
    log_g = log_geo_means(values, counts, np.cumsum(lengths) - lengths, n_a)
    beta, _, status = solve_betas(log_g, params.a)
    solved = status == SOLVED
    return solved, ks_distances(beta + 1.0, params.a, values, counts, lengths)[solved]


# A cutoff's precondition errors: ``fit_at_a`` raises them, ``scan`` skips it.
_PRECONDITIONS = (EmptyTailError, DegenerateDataError, ConvergenceError, TailTooLargeError)


def _job(task):
    """Replicas ``lo`` to ``hi`` - 1 of cutoff ``a``: the empirical fit and
    d_emp, then a loop of attempts over the replicas in blocks, each
    attempt's start states from one ``stream_starts`` generator (which
    hashes each 256-id key block once) fed one block's ids at a time, so
    that a replica holds only its id and its distance.  Returns (N_a, the
    fit, d_emp, the lost mass, the distances, the regenerations) or the
    precondition error raised; stops once the regenerations pass the
    budget of 100 n_sim.
    Raises ``DplfitError``, which is no precondition error, when the job
    runs out of memory, as the 8 GB of distances of 10^9 replicas do on a
    small machine."""
    sample, a, n_sim, seed, lo, hi = task
    try:
        tail = sample.truncated(a)
        mle = fit_beta(sufficient_stat(tail), a)
        d_emp = ks_statistic(tail, PowerLawModel(a, mle.beta_emp)).d
        params = sampling.SamplerParams(a, mle.beta_emp)
        block = max(1, min(n_sim, _BLOCK_VALUES // tail.unique_values.size))
        d_sims = np.empty(hi - lo)
        todo = np.arange(lo, hi)
        regenerated = attempt = 0
        while todo.size and regenerated <= 100 * n_sim:
            blocks = np.array_split(todo, -(-todo.size // block))
            starts = sampling.stream_starts(seed, chain.from_iterable(
                sampling.replica_stream(ids, attempt).tolist() for ids in blocks))
            unsolved = []
            for ids in blocks:
                solved, d = _attempt(params, tail.size, list(islice(starts, ids.size)))
                d_sims[ids[solved] - lo] = d
                unsolved.append(ids[~solved])
            todo = np.concatenate(unsolved)
            regenerated += todo.size
            attempt += 1
    except _PRECONDITIONS as err:
        return err
    except MemoryError:  # the distances or ids of too many replicas
        raise DplfitError(f"replicas {lo} to {hi - 1} at a={a} do not fit in memory") from None
    return tail.size, mle, d_emp, params.lost_mass, d_sims, regenerated


def _fits(sample, cutoffs, n_sim, workers, keep_d_sims=False):
    """Fit ``sample`` at each (a, seed) of ``cutoffs`` with ``n_sim``
    replicas: yield each cutoff's ``FitAtA`` or precondition error, in
    cutoff order, as soon as its jobs' results are in.

    Cutoff a holds w_a = n_sim x the price of its replica (``_prices``) of
    the work.  On P processes it runs as k = min(n_sim, ceil(P w_a / sum
    w)) jobs (``_job``), at least one: a cutoff that holds more than a
    P-th of the work is split, and every other runs whole in one process.
    ``workers`` W >= 2 gives P = min(W, usable CPUs) where there is work,
    and otherwise the ``_workers`` gate picks P from the same sum w (a sum
    of 0, no cutoff or only empty tails, runs inline).  A cutoff's first job
    error wins; else its distances are assembled in replica order and more
    than 100 n_sim regenerations in all raise ``ConvergenceError``.

    The pool is shut down when the generator ends, raises or is closed; a
    consumer that stops early closes it, and then no queued job starts
    that the pool had not yet handed to a process (``_processes``).
    """
    work = [n_sim * price for price in _prices(sample, [a for a, _ in cutoffs])]
    total = sum(work)
    workers = (min(workers, _usable_cpus()) if workers > 1 and total
               else _workers(n_sim * len(cutoffs), total))
    with _processes(workers) as (mapped, workers):
        splits = [max(1, min(n_sim, -(-workers * w // max(total, 1)))) for w in work]
        tasks = [(sample, a, n_sim, seed, n_sim * j // k, n_sim * (j + 1) // k)
                 for (a, seed), k in zip(cutoffs, splits) for j in range(k)]
        results = mapped(_job, tasks)
        for (a, _), k in zip(cutoffs, splits):
            parts = list(islice(results, k))
            errors = [part for part in parts if isinstance(part, Exception)]
            regenerated = 0 if errors else sum(r for *_, r in parts)
            if errors or regenerated > 100 * n_sim:
                yield errors[0] if errors else ConvergenceError(
                    f"more than {100 * n_sim} replica refits failed at a={a}")
                continue
            n_a, mle, d_emp, lost_mass, _, _ = parts[0]
            d_sims = np.concatenate([d for *_, d, _ in parts])
            yield FitAtA(
                a=int(a), n_a=n_a, beta_emp=mle.beta_emp, sigma=mle.sigma, d_emp=d_emp,
                p=p_value(d_emp, d_sims), regenerated=regenerated,
                reliable=regenerated <= 0.01 * n_sim and lost_mass <= LOST_MASS_LIMIT,
                d_sims=tuple(d_sims.tolist()) if keep_d_sims else None)


def fit_at_a(sample, a, n_sim, seed, keep_d_sims=False):
    """Steps 1-7 at a fixed cutoff.

    Fit beta on the tail, measure the KS distance, then simulate ``n_sim``
    replicas of the tail at the fitted exponent; every replica is refit
    and its KS distance is measured against its own refitted model.  The
    p-value is the fraction of replicas whose distance strictly exceeds
    the empirical one.

    ``a`` must be a whole number, and ``n_sim`` at most 2^32, where the
    substream ids of regenerations start (``replica_stream``).  Beta is
    fitted in the solver's fixed box ``MleConfig.beta_bounds``, for the
    sample and its replicas alike.

    Replica i is drawn from substream ``replica_stream(i, attempt)``.  A
    replica whose refit lands on the box's bound or fails to converge is
    regenerated at the next attempt; regenerations are counted and more than 1% of
    them marks the result unreliable, as does a fitted exponent at which
    the sampler's 2^63 cap drops more than ``LOST_MASS_LIMIT`` of the
    proposal mass, and more than 100 n_sim of them raise
    ``ConvergenceError``.

    This is ``_fits`` for one cutoff, whose one item is taken and whose
    generator is then run to its end: past the ``_workers`` gate, P slices
    of the replicas on a pool of P forked processes, shut down before this
    returns.  Each replica's result depends only on (seed, i, attempt), not
    on the units, blocks or processes or other replicas' regenerations.
    """
    a = int(_whole(a))
    if not 1 <= operator.index(n_sim) <= sampling.RETRY_STREAM_BASE:
        raise ValueError(f"n_sim must be in [1, 2^32], got {n_sim}")
    (fit,) = _fits(sample, [(a, seed)], n_sim, 1, keep_d_sims)
    if isinstance(fit, Exception):
        raise fit
    return fit


def default_cutoffs(sample, min_tail):
    """Distinct sample values whose tails keep at least min_tail data."""
    uniq = sample.unique_values
    keep = sample.survival_counts >= min_tail
    return [int(u) for u in uniq[keep]]


def scan(sample, config=ScanConfig()):
    """Fit every cutoff of the grid as ``fit_at_a`` does and select a*.

    a* is the smallest tested cutoff whose p-value strictly exceeds
    ``config.p_threshold``; absent when no cutoff qualifies.  Cutoffs
    failing their preconditions are recorded as skipped, not fatal.

    All the cutoffs run through one ``_fits`` call, on one pool of forked
    processes that is shut down before this returns: ``workers`` W >= 2
    fixes P at W, at most one a usable CPU, where the scan has any work,
    and otherwise the ``_workers`` gate picks P from the scan's priced
    work (``_fits``).
    Each cutoff's result is read as it arrives, in cutoff order, and the
    generator is read to its end.

    Deterministic for identical (sample, config), including every
    simulated KS distance, regardless of ``workers`` and of the CPUs.
    """
    a_values = config.a_values
    if a_values is None:
        a_values = default_cutoffs(sample, config.min_tail)

    cutoffs = [(a, _seed_for_cutoff(config.seed, a)) for a in a_values]
    fits, skipped = [], []
    a_star = beta_star = sigma_star = None
    # _fits first: zip then runs it to its end, which shuts its pool down
    for fit, a in zip(_fits(sample, cutoffs, config.n_sim, config.workers), a_values):
        if isinstance(fit, Exception):
            skipped.append((int(a), f"{type(fit).__name__}: {fit}"))
            continue
        fits.append(fit)
        if a_star is None and fit.p.p > config.p_threshold:
            a_star, beta_star, sigma_star = fit.a, fit.beta_emp, fit.sigma
    return ScanResult(fits=tuple(fits), skipped=tuple(skipped), a_star=a_star,
                      beta_star=beta_star, sigma_star=sigma_star)
