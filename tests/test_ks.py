import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dplfit.distribution import IntegerSample, PowerLawModel
from dplfit.ks import _deviations, ks_statistic, p_value
from dplfit.sampling import RngStream, SamplerParams, sample_n

from oracles import expanded, ks_exhaustive


def test_single_datum_at_cutoff():
    # empirical survival drops to 0 at a+1, so d = S(a+1)
    m = PowerLawModel(3, 1.2)
    r = ks_statistic(IntegerSample([3]), m)
    assert r.d == pytest.approx(m.survival(4), rel=1e-14)
    assert r.argmax_n == 4


def test_small_sample_matches_exhaustive_scan():
    s = IntegerSample([1, 2, 4])
    m = PowerLawModel(1, 1.0)
    r = ks_statistic(s, m)
    d_oracle, n_oracle = ks_exhaustive(s, m, beyond=10**6 - 4)
    assert abs(r.d - d_oracle) < 1e-14
    assert r.argmax_n == n_oracle


def test_largest_int64_value_is_measured():
    # half the data sit at the cutoff, where S(a + 1) = 1 - f(a) rounds to
    # 1: d = 1/2 just past the cutoff (mpmath: 0.49999999999999999957),
    # and the point just past 2^63 - 1 is reached without an int64 value
    r = ks_statistic(IntegerSample([2**62, 2**63 - 1]), PowerLawModel(2**62, 2.0))
    assert r.d == 0.5
    assert r.argmax_n == 2**62 + 1


def test_mismatch_below_cutoff():
    with pytest.raises(ValueError):
        ks_statistic(IntegerSample([1, 2, 3]), PowerLawModel(2, 1.0))


@pytest.mark.parametrize("a", [1, 2, 10, 10**3, 10**9, 2**62])
@pytest.mark.parametrize("beta", [0.05, 0.3, 1.13, 5.0, 40.0])
def test_deviations_use_the_model_survival(a, beta):
    # five samples measured in one batch, each against its own model:
    # runs of consecutive values, gaps, and a sample with no datum at the
    # cutoff; every row equals the model's own survival and mass bit for
    # bit, so it does not depend on the values before it in its run.  The
    # last two hold about 2^62 observations each, so the batch's running
    # count passes 2^63 and wraps, and each sample's N_v still comes out
    # exact
    offsets = [[0, 1, 2, 3, 4, 9, 10, 11, 500], [3, 4, 5, 6, 7, 8], [0, 70, 71],
               [0, 2, 3], [1, 5, 6, 40]]
    betas = [beta, 2.0 * beta, beta + 0.4, beta, 1.5 * beta]
    rng = np.random.default_rng(a % 1000 + int(100 * beta))
    counts = [rng.integers(1, 20, size=len(o)) for o in offsets[:3]]
    counts += [[2**61, 2**61 - 7, 1000], [2**62 - 100, 600, 300, 9]]
    samples = [IntegerSample(a + np.array(o), c) for o, c in zip(offsets, counts)]
    assert sum(x.size for x in samples) > 2**63
    dev = _deviations(np.array(betas) + 1.0, a,
                      np.concatenate([x.unique_values for x in samples]),
                      np.concatenate([x.unique_counts for x in samples]),
                      [x.unique_values.size for x in samples])
    at = 0
    for sample, b in zip(samples, betas):
        m = PowerLawModel(a, b)
        v, above = sample.unique_values, sample.survival_counts
        emp = above / above[0]
        after = np.append(above[1:], 0) / above[0]
        rows = dev[at:at + v.size]
        at += v.size
        assert rows[:, 0].tobytes() == np.abs(emp - m.survival(v)).tobytes()
        assert rows[:, 1].tobytes() == np.abs(after - (m.survival(v) - m.pmf(v))).tobytes()
    assert at == dev.shape[0]


@pytest.mark.parametrize("a,beta,size", [(10, 0.05, 50000), (1, 0.3, 20000)])
def test_long_run_matches_exhaustive_scan(a, beta, size):
    # one run of consecutive values, each the model survival at its own
    # value rather than carried from the run's start
    s = IntegerSample(np.arange(a, a + size))
    m = PowerLawModel(a, beta)
    r = ks_statistic(s, m)
    d_oracle, n_oracle = ks_exhaustive(s, m)
    assert abs(r.d - d_oracle) <= 1e-15
    assert r.argmax_n == n_oracle


@given(st.data())
@settings(max_examples=150)
def test_matches_exhaustive_scan_random_samples(data):
    kind = data.draw(st.sampled_from(["powerlaw", "uniform", "geometric", "odd"]))
    size = data.draw(st.integers(min_value=1, max_value=200))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    if kind == "powerlaw":
        beta = data.draw(st.floats(min_value=0.8, max_value=3.0))
        values = expanded(sample_n(SamplerParams(1, beta), size, RngStream(seed, 0)))
        values = np.minimum(values, 10**4)
    elif kind == "uniform":
        values = rng.integers(1, 50, size=size)
    elif kind == "geometric":
        values = rng.geometric(0.2, size=size)
    else:
        # gaps of exactly 2 between distinct values
        values = 2 * rng.integers(4, 30, size=size) + 1
    # the cutoff at or below the minimum: a sample with no datum at its
    # cutoff, as most replicas at large cutoffs are
    a = max(1, int(values.min()) - data.draw(st.integers(min_value=0, max_value=7)))
    s = IntegerSample(values)
    beta_model = data.draw(st.floats(min_value=0.3, max_value=3.5))
    m = PowerLawModel(a, beta_model)
    r = ks_statistic(s, m)
    d_oracle, n_oracle = ks_exhaustive(s, m)
    assert abs(r.d - d_oracle) < 1e-14
    assert r.argmax_n == n_oracle


@pytest.mark.slow
def test_ks_scaling_quartiles_stable_across_tail_sizes():
    """d*sqrt(N) for replica ensembles (each against its own refit) has a
    stable distribution across two decades of N: Kolmogorov-type scaling,
    checked as quartile agreement within 10%."""
    from dplfit.pipeline import fit_at_a

    quartiles = {}
    for n, seed in [(100, 301), (1000, 302), (10000, 303)]:
        data = sample_n(SamplerParams(1, 1.3), n, RngStream(seed, 0))
        fit = fit_at_a(data, 1, 1000, seed=seed + 1000, keep_d_sims=True)
        scaled = np.array(fit.d_sims) * math.sqrt(n)
        quartiles[n] = np.quantile(scaled, [0.25, 0.5, 0.75])
    for q in range(3):
        vals = [quartiles[n][q] for n in (100, 1000, 10000)]
        assert (max(vals) - min(vals)) / min(vals) < 0.10


def test_ks_scale_under_the_null():
    # d for data drawn from the very model it is compared against is
    # O(1/sqrt(N)); 5/sqrt(N) is a generous ceiling.
    for i, n in enumerate([100, 1000, 10000]):
        m = PowerLawModel(1, 1.4)
        violations = 0
        for rep in range(30):
            s = sample_n(SamplerParams(1, 1.4), n, RngStream(800 + i, rep))
            if ks_statistic(s, m).d * math.sqrt(n) >= 5.0:
                violations += 1
        assert violations == 0


def test_argmax_prefers_smallest_n():
    # one datum at 1 under a model that decays instantly: deviation is the
    # same |0 - S(n)| shape, the reported argmax must be the first maximum
    m = PowerLawModel(1, 3.0)
    r = ks_statistic(IntegerSample([1, 1, 1]), m)
    assert r.argmax_n == 2
    assert r.d == pytest.approx(m.survival(2), rel=1e-14)


# ---------------------------------------------------------------- p-value


def test_p_value_formulas():
    d_sims = [0.06] * 37 + [0.04] * 63
    r = p_value(0.05, d_sims)
    assert r.p == pytest.approx(0.37)
    assert r.n_exceed == 37
    assert r.n_sim == 100
    assert r.sigma_p == pytest.approx(math.sqrt(0.37 * 0.63 / 100), rel=1e-12)


def test_p_value_boundaries():
    none_exceed = p_value(0.5, [0.1, 0.2, 0.5])
    assert none_exceed.p == 0.0 and none_exceed.sigma_p == 0.0
    all_exceed = p_value(0.01, [0.1, 0.2, 0.5])
    assert all_exceed.p == 1.0 and all_exceed.sigma_p == 0.0


def test_p_value_strict_inequality():
    # ties with d_emp do not count as exceeding
    r = p_value(0.5, [0.5, 0.5, 0.6, 0.4])
    assert r.n_exceed == 1
    assert r.p == 0.25


def test_p_value_empty_rejected():
    with pytest.raises(ValueError):
        p_value(0.1, [])


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=200),
       st.floats(min_value=0, max_value=1))
def test_p_value_invariants(d_sims, d_emp):
    r = p_value(d_emp, d_sims)
    assert 0.0 <= r.p <= 1.0
    assert r.p == r.n_exceed / r.n_sim
    assert abs(r.sigma_p - math.sqrt(r.p * (1 - r.p) / r.n_sim)) < 1e-15
    # order independence
    assert p_value(d_emp, list(reversed(d_sims))) == r
