import concurrent.futures
import multiprocessing
import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dplfit.sampling
from dplfit import pipeline
from dplfit.distribution import IntegerSample, PowerLawModel, sufficient_stat
from dplfit.errors import ConvergenceError, TailTooLargeError
from dplfit.ks import ks_statistic
from dplfit.mle import DEFAULT_MLE_CONFIG, MleConfig, fit_beta
from dplfit.pipeline import (
    ScanConfig,
    _seed_for_cutoff,
    default_cutoffs,
    fit_at_a,
    scan,
)
from dplfit.sampling import (
    RngStream,
    SamplerParams,
    replica_stream,
    sample_n,
    stream_starts,
)

from oracles import expanded, replica_one_at_a_time


def power_law_data(beta, n, seed, a=1):
    return sample_n(SamplerParams(a, beta), n, RngStream(seed, 0))


def geometric_data(n, seed, p=0.35):
    rng = np.random.default_rng(seed)
    return IntegerSample(rng.geometric(p, size=n))


# ----------------------------------------------------------------- fit_at_a


def test_fit_at_a_fields():
    data = power_law_data(1.5, 3000, seed=1)
    fit = fit_at_a(data, 1, 100, seed=42)
    assert fit.a == 1
    assert fit.n_a == 3000
    assert fit.sigma == pytest.approx(fit.beta_emp / np.sqrt(3000), rel=1e-12)
    assert 0.0 <= fit.p.p <= 1.0
    assert fit.p.n_sim == 100
    assert fit.reliable


def test_fit_at_a_deterministic_including_d_sims():
    data = power_law_data(1.2, 2000, seed=2)
    one = fit_at_a(data, 1, 100, seed=9, keep_d_sims=True)
    two = fit_at_a(data, 1, 100, seed=9, keep_d_sims=True)
    assert one == two
    assert one.d_sims == two.d_sims
    other = fit_at_a(data, 1, 100, seed=10, keep_d_sims=True)
    assert one.d_sims != other.d_sims


def test_growing_ensemble_extends_existing_replicas():
    data = power_law_data(1.2, 1500, seed=3)
    small = fit_at_a(data, 1, 100, seed=5, keep_d_sims=True)
    large = fit_at_a(data, 1, 150, seed=5, keep_d_sims=True)
    assert large.d_sims[:100] == small.d_sims


def test_replica_distance_uses_own_refit():
    """Replica i is reproducible from its substream: same variates, and
    its KS distance is measured against its own refitted exponent."""
    data = power_law_data(1.4, 800, seed=4)
    fit = fit_at_a(data, 1, 10, seed=77, keep_d_sims=True)
    assert fit.regenerated == 0
    for i in [0, 3, 9]:
        sim = sample_n(SamplerParams(1, fit.beta_emp), 800, RngStream(77, stream_id=i))
        beta_sim = fit_beta(sufficient_stat(sim), 1).beta_emp
        d = ks_statistic(sim, PowerLawModel(1, beta_sim)).d
        assert d == fit.d_sims[i]
        # and against the *empirical* exponent it would generally differ
        d_wrong = ks_statistic(sim, PowerLawModel(1, fit.beta_emp)).d
        assert d != d_wrong


# The draw chunk (proposals), the reduce unit (variates) and the block
# budget (distinct values) at one row, one proposal and one value a pass, and
# past any ensemble.
PASS_SIZES = (1, 2**62)


def with_pass_sizes(monkeypatch, size):
    monkeypatch.setattr(dplfit.sampling, "_CHUNK", size)
    monkeypatch.setattr(pipeline, "_UNIT", size)
    monkeypatch.setattr(pipeline, "_BLOCK_VALUES", size)


def test_replicas_do_not_depend_on_pass_sizes(monkeypatch):
    data = power_law_data(1.2, 200, seed=31)
    default = fit_at_a(data, 1, 300, seed=8, keep_d_sims=True)
    larger = fit_at_a(data, 1, 600, seed=8, keep_d_sims=True)
    assert larger.d_sims[:300] == default.d_sims
    for size in PASS_SIZES:
        with_pass_sizes(monkeypatch, size)
        assert fit_at_a(data, 1, 300, seed=8, keep_d_sims=True) == default


def traced_peak(fn, *args):
    """``fn(*args)``'s tracemalloc peak in this process, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def first_block(data, a, n_sim, seed, workers):
    """The arguments of a fit's first block of replicas on ``workers``
    processes: the first block of the first of its min(n_sim, workers)
    slices, split as ``pipeline._job`` splits a slice."""
    tail = data.truncated(a)
    beta = fit_beta(sufficient_stat(tail), a).beta_emp
    block = max(1, min(n_sim, pipeline._BLOCK_VALUES // tail.unique_values.size))
    job = np.arange(n_sim // min(n_sim, workers))
    ids = np.array_split(job, -(-job.size // block))[0]
    starts = list(stream_starts(seed, replica_stream(ids, 0)))
    return SamplerParams(a, beta), tail.size, starts, DEFAULT_MLE_CONFIG


def test_fit_at_a_stays_within_its_memory_budget(monkeypatch):
    # the draw, reduce and block budgets bound what one fit holds at once:
    # a tail of about 350 observations (the corpus scan's middle cutoffs)
    # at n_sim = 1000 peaks at about 2.9 MB inline, as in a scan's worker
    # process
    data = power_law_data(1.13, 350, seed=5, a=23)
    n_a = data.truncated(23).size
    assert pipeline._workers(1000, 1000 * n_a) == 1
    assert traced_peak(fit_at_a, data, 23, 1000, 3) <= 8 * 2**20
    # split into two slices of 500 replicas on two processes, one block of
    # 250 replicas peaks at about 2.9 MB in its process
    assert traced_peak(pipeline._attempt, *first_block(data, 23, 1000, 3, 2)) <= 8 * 2**20
    # and the calling process, which holds the slices' distances, at about
    # 0.4 MB
    force_cpus(monkeypatch, 2)
    assert pipeline._workers(1000, 1000 * n_a) == 2
    assert traced_peak(fit_at_a, data, 23, 1000, 3) <= 2**20
    assert multiprocessing.active_children() == []


def force_cpus(monkeypatch, cpus, unit=64):
    # any fit of at least `cpus` reduce units of `unit` variates splits
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "_UNIT", unit)


def processes_in_a_worker(workers):
    with pipeline._processes(workers) as (_, size):
        return size


def test_process_count_gate(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
    # one process a whole 2^18-variate reduce unit, one a replica, one a CPU
    assert pipeline._workers(100, 100 * 300000) == 4
    assert pipeline._workers(100, 100 * 7864) == 2
    assert pipeline._workers(100, 100 * 5242) == 1
    assert pipeline._workers(100, 100 * 1000) == 1
    assert pipeline._workers(3, 3 * 10**7) == 3
    assert pipeline._workers(1, 10**7) == 1
    assert pipeline._workers(0, 0) == 1
    for cpus in (1, 2, 3):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        assert pipeline._workers(100, 100 * 300000) == cpus
        assert pipeline._workers(100, 100 * 7864) == min(cpus, 2)
        assert pipeline._workers(100, 100 * 5242) == 1
        assert pipeline._workers(3, 3 * 10**7) == cpus
        assert pipeline._workers(1, 10**7) == 1
        with pipeline._processes(cpus) as (mapped, size):
            assert size == cpus
            # a worker process forks no pool of its own, and at one CPU the
            # calling process runs the function
            in_pool = list(mapped(processes_in_a_worker, [2, 3]))
            assert in_pool == ([2, 3] if cpus == 1 else [1, 1])
    assert multiprocessing.active_children() == []


def never_solving(seed, replicas, attempts):
    """An ``_attempt`` under which ``replicas`` of the fit at ``seed`` fail
    their first ``attempts`` attempts and every other replica solves."""
    stuck = {start for k in range(attempts)
             for start in stream_starts(seed, replica_stream(replicas, k))}

    def never_solved(params, n_a, starts, mle_config):
        solved = np.array([start not in stuck for start in starts])
        return solved, np.zeros(np.count_nonzero(solved))

    return never_solved


@pytest.mark.parametrize("processes", [1, 2, 3, 8])
def test_processes_change_no_result(monkeypatch, processes):
    data = power_law_data(1.2, 200, seed=31)
    default = fit_at_a(data, 1, 300, seed=8, keep_d_sims=True)
    # narrow bounds make many replicas regenerate, as in the test above
    tiny = IntegerSample([1] * 9 + [2] * 3 + [3, 5])
    config = MleConfig(beta_bounds=(1.0, 3.0))
    regenerating = fit_at_a(tiny, 1, 100, seed=21, mle_config=config, keep_d_sims=True)
    assert regenerating.regenerated > 10
    scan_config = ScanConfig(a_values=(1, 2, 3), n_sim=100, seed=5)
    serial_scan = scan(data, scan_config)
    tails = [data.truncated(a).size for a in scan_config.a_values]
    force_cpus(monkeypatch, processes)
    assert pipeline._workers(300, 300 * 200) == pipeline._workers(100, 100 * 14) == processes
    assert pipeline._workers(300, 100 * sum(tails)) == processes
    # on more than one process the scan splits its first cutoff, which
    # holds more than a P-th of its work, into slices of its replicas
    assert (-(-processes * tails[0] // sum(tails)) > 1) == (processes > 1)
    # and at the pass sizes of the tests above, but for a reduce unit past
    # any ensemble, which would keep the fits from splitting
    for size in (None,) + PASS_SIZES:
        if size is not None:
            with_pass_sizes(monkeypatch, size)
            monkeypatch.setattr(pipeline, "_UNIT", min(size, 64))
        assert fit_at_a(data, 1, 300, seed=8, keep_d_sims=True) == default
        assert fit_at_a(tiny, 1, 100, seed=21, mle_config=config,
                        keep_d_sims=True) == regenerating
        assert scan(data, scan_config) == serial_scan
    # the retry budget counts the regenerations of all of a fit's slices:
    # the 100 replicas stuck for 301 attempts pass 100 n_sim = 30000
    monkeypatch.setattr(pipeline, "_attempt", never_solving(8, np.arange(0, 300, 3), 301))
    with pytest.raises(ConvergenceError, match="more than 30000 replica refits failed at a=1"):
        fit_at_a(data, 1, 300, seed=8)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("processes", [2, 3])
def test_blocks_finishing_out_of_order_change_no_result(monkeypatch, processes):
    data = power_law_data(1.2, 200, seed=31)
    tiny = IntegerSample([1] * 9 + [2] * 3 + [3, 5])
    config = MleConfig(beta_bounds=(1.0, 3.0))
    serial = fit_at_a(data, 1, 300, seed=8, keep_d_sims=True)
    regenerating = fit_at_a(tiny, 1, 100, seed=21, mle_config=config, keep_d_sims=True)
    assert regenerating.regenerated > 10
    # each block sleeps the longer the earlier its first replica, so the
    # slices of a fit, one block each, finish in reverse order; the pool's
    # processes report the order through a queue
    first = {start: i for seed in (8, 21) for k in range(40)
             for i, start in enumerate(stream_starts(seed, replica_stream(np.arange(300), k)))}
    queue = multiprocessing.get_context("fork").SimpleQueue()
    attempt = pipeline._attempt

    def slow_early_blocks(params, n_a, starts, mle_config):
        i = first[starts[0]]
        time.sleep(0.002 * (300 - i) / processes)
        result = attempt(params, n_a, starts, mle_config)
        queue.put((i, os.getpid()))
        return result

    def finished():
        order = []
        while not queue.empty():
            order.append(queue.get())
        assert os.getpid() not in {pid for _, pid in order}
        return [i for i, _ in order]

    force_cpus(monkeypatch, processes)
    monkeypatch.setattr(pipeline, "_attempt", slow_early_blocks)
    assert fit_at_a(data, 1, 300, seed=8, keep_d_sims=True) == serial
    order = finished()
    assert order[:processes] == sorted(order[:processes], reverse=True)
    assert fit_at_a(tiny, 1, 100, seed=21, mle_config=config,
                    keep_d_sims=True) == regenerating
    order = finished()
    assert order != sorted(order)


def test_errors_in_one_block_propagate(monkeypatch):
    data = power_law_data(1.2, 200, seed=31)
    force_cpus(monkeypatch, 2)
    # replica 0's start states, one an attempt, mark its block's attempts
    replica_0 = set(stream_starts(8, [replica_stream(0, k) for k in range(400)]))
    attempt = pipeline._attempt

    def too_large(params, n_a, starts, mle_config):
        if replica_0.intersection(starts):
            raise TailTooLargeError("first block")
        return attempt(params, n_a, starts, mle_config)

    # every third replica fails at each of its attempts: the 100 of them
    # regenerate 100 times an attempt and pass the budget of 100 n_sim =
    # 30000 at attempt 300
    never_solved = never_solving(8, np.arange(0, 300, 3), 301)
    threads_before = threading.active_count()
    monkeypatch.setattr(pipeline, "_attempt", too_large)
    with pytest.raises(TailTooLargeError, match="first block"):
        fit_at_a(data, 1, 300, seed=8)
    # each fit's pool is shut down with it, its processes joined
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(pipeline, "_attempt", never_solved)
    with pytest.raises(ConvergenceError, match="more than 30000 replica refits failed at a=1"):
        fit_at_a(data, 1, 300, seed=8)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before


def test_pooled_fit_stays_within_its_memory_budget(monkeypatch):
    # the reduce and block budgets hold per process: a block of a
    # 300000-observation tail peaks at about 4.2 MB in its process
    data = power_law_data(1.13, 300000, seed=5)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    assert pipeline._workers(20, 20 * data.size) == 2
    assert traced_peak(pipeline._attempt, *first_block(data, 1, 20, 3, 2)) <= 5.2 * 2**20
    # and the calling process, which runs no slice, at about 0.1 MB
    assert traced_peak(fit_at_a, data, 1, 20, 3) <= 2**20
    assert multiprocessing.active_children() == []


def test_fit_at_a_rejects_no_replicas():
    data = power_law_data(1.2, 200, seed=31)
    for n_sim in (0, -5):
        with pytest.raises(ValueError, match="n_sim"):
            fit_at_a(data, 1, n_sim, seed=8)


@pytest.mark.parametrize("beta,n,a,seed", [
    (1.3, 60, 2, 0),             # one group of all 100 replicas
    (1.1, 4000, 1, 2**63 + 11),  # one replica a group, its batch in one pass
    (1.6, 7000, 1, 2**64 - 1),   # batches drawn in passes of _CHUNK proposals
])
def test_fit_at_a_equals_one_replica_at_a_time(beta, n, a, seed):
    # group draws, block seeding and the flat reduction give every replica
    # the distance it has when drawn, refit and measured alone: bit for bit
    data = power_law_data(beta, n, seed=43)
    fit = fit_at_a(data, a, 100, seed=seed, keep_d_sims=True)
    ref = [replica_one_at_a_time(fit.beta_emp, a, fit.n_a, seed, i, DEFAULT_MLE_CONFIG)
           for i in range(100)]
    assert fit.d_sims == tuple(d for _, d in ref)
    assert fit.regenerated == sum(attempt for attempt, _ in ref)


def test_regenerated_replica_depends_only_on_its_own_attempts(monkeypatch):
    # Narrow bounds force bound hits on top of degenerate replicas, so many
    # replicas are regenerated; each must still be the first good attempt
    # of its own substreams, whatever failed before it.
    data = IntegerSample([1] * 9 + [2] * 3 + [3, 5])
    config = MleConfig(beta_bounds=(1.0, 3.0))
    fit = fit_at_a(data, 1, 100, seed=21, mle_config=config, keep_d_sims=True)
    attempts = []
    for i in range(100):
        attempt, d = replica_one_at_a_time(fit.beta_emp, 1, fit.n_a, 21, i, config)
        assert d == fit.d_sims[i]
        attempts.append(attempt)
    assert fit.regenerated == sum(attempts) > 10
    longer = fit_at_a(data, 1, 160, seed=21, mle_config=config, keep_d_sims=True)
    assert longer.d_sims[:100] == fit.d_sims
    for size in PASS_SIZES:
        with_pass_sizes(monkeypatch, size)
        assert fit_at_a(data, 1, 100, seed=21, mle_config=config, keep_d_sims=True) == fit


def test_no_exact_ties_between_replicas_and_data():
    data = power_law_data(1.3, 1000, seed=6)
    fit = fit_at_a(data, 1, 200, seed=11, keep_d_sims=True)
    assert all(d != fit.d_emp for d in fit.d_sims)


def test_misspecified_data_is_rejected():
    data = geometric_data(10**4, seed=8)
    fit = fit_at_a(data, 1, 100, seed=12)
    assert fit.p.p <= 0.05


def test_degenerate_replicas_are_regenerated_and_counted():
    # a tiny tail at a large fitted exponent makes all-at-cutoff replicas
    # common, which forces regeneration and flags the fit unreliable
    data = IntegerSample([1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1])
    fit = fit_at_a(data, 1, 100, seed=13)
    assert fit.regenerated > 0
    assert not fit.reliable
    assert fit.p.n_sim == 100
    # regeneration is deterministic too
    again = fit_at_a(data, 1, 100, seed=13)
    assert fit == again


def test_fit_flags_replicas_biased_by_the_proposal_cap():
    # at beta = 0.05 the sampler's 2^63 cap drops ~11% of the proposal
    # mass, so the replicas are biased and the fit is flagged; at 1.13 the
    # lost mass is ~1e-21 and the same fit is reliable
    low = fit_at_a(power_law_data(0.05, 200, seed=44), 1, 100, seed=3)
    assert abs(low.beta_emp - 0.05) < 0.02
    assert SamplerParams(1, low.beta_emp).lost_mass > pipeline.LOST_MASS_LIMIT
    assert low.regenerated <= 1
    assert not low.reliable
    high = fit_at_a(power_law_data(1.13, 200, seed=44), 1, 100, seed=3)
    assert SamplerParams(1, high.beta_emp).lost_mass < 1e-18
    assert high.reliable


def test_fit_at_a_huge_cutoff_and_exponent():
    # at a = 10^9, beta = 40 zeta(beta+1, a) is below double range and
    # a^beta above it; the model, sampler, refit and KS all work scaled
    data = power_law_data(40.0, 200, seed=45, a=10**9)
    fit = fit_at_a(data, 10**9, 100, seed=4, keep_d_sims=True)
    assert abs(fit.beta_emp - 40.0) < 4 * fit.sigma
    assert fit.reliable
    assert 0.0 < fit.d_emp < 0.2
    ref = [replica_one_at_a_time(fit.beta_emp, 10**9, fit.n_a, 4, i, DEFAULT_MLE_CONFIG)
           for i in range(10)]
    assert fit.d_sims[:10] == tuple(d for _, d in ref)


def test_fit_at_a_propagates_empty_tail():
    from dplfit.errors import EmptyTailError

    with pytest.raises(EmptyTailError):
        fit_at_a(IntegerSample([1, 2, 3]), 7, 100, seed=1)


# --------------------------------------------------------------------- scan


def test_default_cutoffs_prefix_by_tail_size():
    data = IntegerSample([1] * 50 + [2] * 30 + [3] * 9 + [5] * 2)
    assert default_cutoffs(data, min_tail=10) == [1, 2, 3]
    assert default_cutoffs(data, min_tail=12) == [1, 2]
    assert default_cutoffs(data, min_tail=200) == []


def test_scan_orders_fits_and_selects_smallest_qualifying_a():
    data = power_law_data(1.1, 4000, seed=21)
    config = ScanConfig(a_values=(1, 2, 3), n_sim=100, seed=3, p_threshold=0.2)
    result = scan(data, config)
    assert [f.a for f in result.fits] == [1, 2, 3]
    assert all(x.n_a >= y.n_a for x, y in zip(result.fits, result.fits[1:]))
    qualifying = [f.a for f in result.fits if f.p.p > 0.2]
    if qualifying:
        assert result.a_star == qualifying[0]
        chosen = result.fits[[f.a for f in result.fits].index(result.a_star)]
        assert result.beta_star == chosen.beta_emp
        assert result.sigma_star == chosen.sigma
    else:
        assert result.a_star is None


def test_scan_deterministic_and_worker_invariant():
    data = power_law_data(1.3, 1200, seed=22)
    config1 = ScanConfig(a_values=(1, 2, 3, 4), n_sim=100, seed=5, workers=1)
    config2 = ScanConfig(a_values=(1, 2, 3, 4), n_sim=100, seed=5, workers=2)
    r1 = scan(data, config1)
    r2 = scan(data, config1)
    r3 = scan(data, config2)
    assert r1 == r2
    assert r1 == r3


def test_scan_worker_processes_after_pooled_fits(monkeypatch):
    # both cutoffs are above the gate, so this process first runs a fit
    # that forks its own pool, then scans that spread the cutoffs' slices
    # over worker processes, which fork nothing; a pool kept past its fit
    # would be inherited by the workers
    data = power_law_data(1.3, 20000, seed=22)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    config = ScanConfig(a_values=(1, 2), n_sim=100, seed=5)
    tails = [data.truncated(a).size for a in config.a_values]
    assert all(pipeline._workers(100, 100 * n_a) == 2 for n_a in tails)
    pooled = fit_at_a(data, 1, 100, pipeline._seed_for_cutoff(5, 1))
    # each pool is shut down with its fit or its scan, its processes joined
    assert multiprocessing.active_children() == []
    results = []
    for workers in (1, 2):
        results.append(scan(data, replace(config, workers=workers)))
        assert multiprocessing.active_children() == []
    assert results[0] == results[1]
    assert results[0].fits[0] == pooled


def test_scan_forks_one_pool_for_its_cutoffs(monkeypatch):
    # at `workers` 1 a scan forks one pool of a process a CPU; a cutoff
    # that holds more than a P-th of the scan's work runs as slices of its
    # replicas, and every other cutoff runs whole in one process
    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, **kwargs)

    data = power_law_data(1.3, 1200, seed=22)
    config = ScanConfig(a_values=(1, 2, 3), n_sim=100, seed=5)
    expected = scan(data, config)
    queue = multiprocessing.get_context("fork").SimpleQueue()
    attempt = pipeline._attempt
    # the replica index of each start state at attempt 0
    first = {(a, start): i for a in config.a_values
             for i, start in enumerate(stream_starts(_seed_for_cutoff(5, a),
                                                     replica_stream(np.arange(100), 0)))}

    def recording_pid(params, n_a, starts, mle_config):
        queue.put((params.a, first.get((params.a, starts[0])), len(starts), os.getpid()))
        return attempt(params, n_a, starts, mle_config)

    def recorded():
        runs = []
        while not queue.empty():
            runs.append(queue.get())
        return runs

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(pipeline, "_attempt", recording_pid)
    # too small a scan to give each process a reduce unit forks nothing
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    assert scan(data, config) == expected
    assert pools == [] and {pid for *_, pid in recorded()} == {os.getpid()}
    force_cpus(monkeypatch, 2)
    tails = [data.truncated(a).size for a in config.a_values]
    assert pipeline._workers(300, 100 * sum(tails)) == 2
    assert scan(data, config) == expected
    assert pools == [2]
    runs = recorded()
    pids = {pid for *_, pid in runs}
    assert {a for a, *_ in runs} == set(config.a_values)
    assert len(pids) <= 2 and os.getpid() not in pids
    # a block holds a whole slice here, so each cutoff's first attempt is
    # its slices: cutoff 1 holds over half the work and runs as
    # ceil(2 w_1 / sum w) = 2 consecutive slices, the others whole, every
    # attempt of each in one process
    assert pipeline._BLOCK_VALUES // data.unique_values.size >= 100
    splits = [-(-2 * n_a // sum(tails)) for n_a in tails]
    assert splits == [2, 1, 1]
    for a, k in zip(config.a_values, splits):
        slices = sorted((i, size) for b, i, size, _ in runs if b == a and i is not None)
        assert slices == [(100 * j // k, 100 * (j + 1) // k - 100 * j // k) for j in range(k)]
        if k == 1:
            assert len({pid for b, *_, pid in runs if b == a}) == 1
    assert multiprocessing.active_children() == []


def test_scan_on_one_cpu_starts_no_process(monkeypatch):
    def no_processes(*args, **kwargs):
        raise AssertionError("a process pool was started")

    data = power_law_data(1.3, 1200, seed=22)
    config = ScanConfig(a_values=(1, 2), n_sim=100, seed=5)
    serial = scan(data, config)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_processes)
    assert scan(data, replace(config, workers=2)) == serial


def test_without_fork_everything_runs_inline(monkeypatch):
    def no_processes(*args, **kwargs):
        raise AssertionError("a process pool was started")

    data = power_law_data(1.3, 20000, seed=22)
    config = ScanConfig(a_values=(1, 2), n_sim=100, seed=5)
    expected_fit = fit_at_a(data, 1, 100, seed=5, keep_d_sims=True)
    expected = scan(data, config)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    assert pipeline._workers(100, 100 * data.size) == 2
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_processes)
    assert fit_at_a(data, 1, 100, seed=5, keep_d_sims=True) == expected_fit
    for workers in (1, 2):
        assert scan(data, replace(config, workers=workers)) == expected


def test_scan_records_skipped_cutoffs():
    data = IntegerSample([2] * 40 + [9])
    config = ScanConfig(a_values=(2, 9, 12), n_sim=100, seed=1)
    result = scan(data, config)
    # a=2 fits; a=9 leaves a single datum (degenerate); a=12 empties the tail
    assert [f.a for f in result.fits] == [2]
    assert [a for a, _ in result.skipped] == [9, 12]
    reasons = dict(result.skipped)
    assert "DegenerateDataError" in reasons[9]
    assert "EmptyTailError" in reasons[12]


def test_scan_all_skipped_gives_empty_result():
    data = IntegerSample([3] * 25)
    result = scan(data, ScanConfig(a_values=(3,), n_sim=100, seed=1))
    assert result.fits == ()
    assert result.a_star is None
    assert result.beta_star is None
    assert len(result.skipped) == 1


def test_scan_no_qualifying_cutoff():
    data = geometric_data(10**4, seed=23)
    result = scan(data, ScanConfig(a_values=(1,), n_sim=100, seed=2))
    assert result.a_star is None
    assert result.fits[0].p.p <= 0.05


def test_scan_mixed_body_starts_at_true_cutoff():
    # body below 5 from a different law, tail from a power law: the scan
    # must reject the contaminated cutoffs and settle at 5 or above
    rng = np.random.default_rng(24)
    body = rng.integers(1, 5, size=2000)
    tail = expanded(sample_n(SamplerParams(5, 2.0), 2000, RngStream(24, 0)))
    data = IntegerSample(np.concatenate([body, tail]))
    result = scan(data, ScanConfig(n_sim=100, seed=4, min_tail=30))
    assert result.a_star is not None
    assert result.a_star >= 5


def test_seed_derivation_distinct_per_cutoff():
    seeds = {_seed_for_cutoff(123, a) for a in range(1, 200)}
    assert len(seeds) == 199


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(n_sim=50)
    with pytest.raises(ValueError):
        ScanConfig(p_threshold=0.0)
    with pytest.raises(ValueError):
        ScanConfig(p_threshold=1.0)
    with pytest.raises(ValueError):
        ScanConfig(a_values=(3, 2))
    with pytest.raises(ValueError):
        ScanConfig(a_values=(0, 2))
    with pytest.raises(ValueError):
        ScanConfig(min_tail=1)
    for workers in (0, -1):
        with pytest.raises(ValueError):
            ScanConfig(workers=workers)


def test_pvalue_sigma_consistency_across_scan():
    data = power_law_data(1.5, 800, seed=25)
    result = scan(data, ScanConfig(a_values=(1, 2), n_sim=100, seed=6))
    for fit in result.fits:
        p = fit.p
        assert abs(p.sigma_p - np.sqrt(p.p * (1 - p.p) / p.n_sim)) < 1e-15


def test_fit_hashes_each_key_block_once(monkeypatch):
    # blocks of a few hundred replicas straddle the 256-id key blocks, and
    # each of the four key blocks of 1000 first attempts is hashed once
    keys = []

    class Recording(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            keys.append(self.spawn_key)

    data = power_law_data(1.13, 350, seed=5, a=23)
    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    fit = fit_at_a(data, 23, 1000, seed=3)
    assert fit.regenerated == 0
    assert keys == [(0,), (1,), (2,), (3,)]
