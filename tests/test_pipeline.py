import tracemalloc

import numpy as np
import pytest

import dplfit.sampling
from dplfit import pipeline
from dplfit.distribution import IntegerSample, PowerLawModel, sufficient_stat
from dplfit.ks import ks_statistic
from dplfit.mle import DEFAULT_MLE_CONFIG, MleConfig, fit_beta
from dplfit.pipeline import (
    ScanConfig,
    _seed_for_cutoff,
    default_cutoffs,
    fit_at_a,
    scan,
)
from dplfit.sampling import RngStream, SamplerParams, sample_n

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
# budget (KS points) at one row, one proposal and one point a pass, and
# past any ensemble.
PASS_SIZES = (1, 2**62)


def with_pass_sizes(monkeypatch, size):
    monkeypatch.setattr(dplfit.sampling, "_CHUNK", size)
    monkeypatch.setattr(dplfit.sampling, "_UNIT", size)
    monkeypatch.setattr(pipeline, "_BLOCK_POINTS", size)


def test_replicas_do_not_depend_on_pass_sizes(monkeypatch):
    data = power_law_data(1.2, 200, seed=31)
    default = fit_at_a(data, 1, 300, seed=8, keep_d_sims=True)
    larger = fit_at_a(data, 1, 600, seed=8, keep_d_sims=True)
    assert larger.d_sims[:300] == default.d_sims
    for size in PASS_SIZES:
        with_pass_sizes(monkeypatch, size)
        assert fit_at_a(data, 1, 300, seed=8, keep_d_sims=True) == default


def test_fit_at_a_stays_within_its_memory_budget():
    # the draw, reduce and block budgets bound what one fit holds at once:
    # a tail of about 350 observations (the corpus scan's middle cutoffs)
    # at n_sim = 1000 peaks at about 5.5 MB
    data = power_law_data(1.13, 350, seed=5, a=23)
    tracemalloc.start()
    try:
        fit_at_a(data, 23, 1000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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
    config = MleConfig(beta_init=1.5, beta_bounds=(1.0, 3.0))
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


def test_pvalue_sigma_consistency_across_scan():
    data = power_law_data(1.5, 800, seed=25)
    result = scan(data, ScanConfig(a_values=(1, 2), n_sim=100, seed=6))
    for fit in result.fits:
        p = fit.p
        assert abs(p.sigma_p - np.sqrt(p.p * (1 - p.p) / p.n_sim)) < 1e-15
