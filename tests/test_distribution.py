import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dplfit.distribution import (
    IntegerSample,
    PowerLawModel,
    SufficientStat,
    check_identifiable,
    log_likelihood,
    sigma_beta,
    sufficient_stat,
)
from dplfit.errors import DegenerateDataError, EmptyTailError
from dplfit.zeta import hurwitz_zeta

from oracles import expanded, table, zeta_bruteforce

# Frozen from zeta_bruteforce(2.13, 10) / zeta_bruteforce(2.13, 1).
SURVIVAL_10_BETA_1_13 = 0.045152298006495103


# ---------------------------------------------------------------- samples


def test_truncate_drops_below_cutoff():
    s = IntegerSample([1, 1, 2, 5])
    t = s.truncated(2)
    assert table(t) == ([2, 5], [1, 1])
    assert t.size == 2


def test_truncate_identity():
    s = IntegerSample([1, 1, 2, 5])
    assert table(s.truncated(1)) == table(s)
    assert s.truncated(1).size == s.size


def test_truncate_empty_tail():
    with pytest.raises(EmptyTailError):
        IntegerSample([1, 1, 2, 5]).truncated(6)
    # no int64 value reaches a cutoff of 2^63 or more; compared in float64
    # the cutoff would keep 2^63 - 2 and 2^63 - 1
    top = IntegerSample([2**63 - 500, 2**63 - 2, 2**63 - 1])
    for a in (2**63, np.uint64(2**63), 2.0**63):
        with pytest.raises(EmptyTailError):
            top.truncated(a)
    assert table(top.truncated(2**63 - 1)) == ([2**63 - 1], [1])


def test_truncate_compares_the_cutoff_exactly():
    # compared with the int64 table in float64, an np.uint64 or float
    # cutoff would round onto the largest values and keep those below it
    top = IntegerSample([2**63 - 500, 2**63 - 2, 2**63 - 1])
    assert table(top.truncated(np.uint64(2**63 - 1))) == ([2**63 - 1], [1])
    assert table(top.truncated(np.uint64(2**63 - 2))) == ([2**63 - 2, 2**63 - 1], [1, 1])
    near = IntegerSample([2**62 - 1, 2**62, 2**62 + 1])
    for a in (2**62, np.uint64(2**62), np.int64(2**62), 2.0**62, np.float64(2.0**62)):
        assert table(near.truncated(a)) == ([2**62, 2**62 + 1], [1, 1])
    assert table(near.truncated(2.0**62 - 0.5 * 2**10)) == table(near)


def test_sample_validation():
    with pytest.raises(ValueError):
        IntegerSample([])
    with pytest.raises(ValueError):
        IntegerSample([0, 1])
    with pytest.raises(ValueError):
        IntegerSample([[1, 2]])
    with pytest.raises(ValueError):
        IntegerSample([1, 2]).truncated(0)


def test_table_validation():
    with pytest.raises(ValueError):
        IntegerSample([1, 2], [3])
    with pytest.raises(ValueError):
        IntegerSample([2, 1], [1, 1])
    with pytest.raises(ValueError):
        IntegerSample([1, 1], [1, 1])
    with pytest.raises(ValueError):
        IntegerSample([1, 2], [1, 0])
    with pytest.raises(ValueError):
        IntegerSample([0, 2], [1, 1])
    with pytest.raises(ValueError):
        IntegerSample([1, 2], [2**62, 2**62])
    big = IntegerSample([1, 2], [2**62, 2**62 - 1])
    assert big.size == 2**63 - 1
    assert big.survival_counts.tolist() == [2**63 - 1, 2**62 - 1]


def test_survival_counts():
    s = IntegerSample([1, 1, 2, 5])
    assert s.unique_values.tolist() == [1, 2, 5]
    assert s.unique_counts.tolist() == [2, 1, 1]
    assert s.survival_counts.tolist() == [4, 2, 1]
    assert s.size == 4


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=50))
def test_truncate_preserves_multiplicity(values, a):
    s = IntegerSample(values)
    expected = sorted(v for v in values if v >= a)
    if not expected:
        with pytest.raises(EmptyTailError):
            s.truncated(a)
    else:
        t = s.truncated(a)
        assert expanded(t).tolist() == expected
        assert t.size == len(expected)
        assert t.survival_counts[0] == t.size


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=50))
def test_survival_counts_non_increasing(values):
    s = IntegerSample(values)
    counts = s.survival_counts
    assert all(x >= y for x, y in zip(counts, counts[1:]))
    assert counts[0] == s.size == len(values)


@given(st.dictionaries(st.integers(min_value=1, max_value=2**63 - 2),
                       st.integers(min_value=1, max_value=6),
                       min_size=1, max_size=25),
       st.data())
def test_multiset_and_table_agree(tally, data):
    """A multiset and its (value, count) table are the same sample."""
    values = sorted(tally)
    counts = [tally[v] for v in values]
    multiset = data.draw(st.permutations([v for v in values for _ in range(tally[v])]))
    one = IntegerSample(multiset)
    two = IntegerSample(values, counts)
    assert table(one) == table(two) == (values, counts)
    assert one.size == two.size == len(multiset)
    assert sufficient_stat(one) == sufficient_stat(two)
    a = data.draw(st.sampled_from(values))
    above = [sample.truncated(a).survival_counts.tobytes() for sample in (one, two)]
    assert above[0] == above[1]
    assert table(one.truncated(a)) == table(two.truncated(a))
    assert one.truncated(a).size == two.truncated(a).size


# ----------------------------------------------------------------- model


def test_pmf_analytic():
    m = PowerLawModel(1, 1.0)
    assert m.pmf(1) == pytest.approx(6 / math.pi**2, rel=1e-13)
    assert m.pmf(2) == pytest.approx(m.pmf(1) / 4, rel=1e-13)


def test_pmf_domain_error():
    m = PowerLawModel(3, 1.0)
    with pytest.raises(ValueError):
        m.pmf(2)
    with pytest.raises(ValueError):
        m.survival(2)
    with pytest.raises(ValueError):
        m.survival(np.array([3, 4, 2]))


def test_model_validation():
    with pytest.raises(ValueError):
        PowerLawModel(0, 1.0)
    with pytest.raises(ValueError):
        PowerLawModel(1, 0.0)
    with pytest.raises(ValueError):
        PowerLawModel(1, -2.0)
    # positive, but beta + 1.0 rounds to 1.0
    with pytest.raises(ValueError, match=r"beta \+ 1 > 1"):
        PowerLawModel(1, 1e-17)


def test_scaled_norm_cached():
    m = PowerLawModel(1, 1.13)
    assert m.scaled_norm == pytest.approx(zeta_bruteforce(2.13, 1, terms=10**6),
                                          rel=1e-10)
    m = PowerLawModel(10, 1.13)
    assert m.scaled_norm == pytest.approx(10**2.13 * zeta_bruteforce(2.13, 10, terms=10**6),
                                          rel=1e-10)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("a", [1, 2, 5, 10])
def test_pmf_normalization_brackets_one(beta, a):
    m = PowerLawModel(a, beta)
    top = 10**6
    n = np.arange(a, top + 1, dtype=np.float64)
    partial = float(np.sum(m.pmf(n)))
    s = beta + 1.0
    # integral bracket of the remainder sum_{n > top}
    norm = hurwitz_zeta(s, a)
    lo = (top + 1.0) ** (1.0 - s) / ((s - 1.0) * norm)
    hi = float(top) ** (1.0 - s) / ((s - 1.0) * norm)
    assert partial + lo <= 1.0 + 1e-8
    assert partial + hi >= 1.0 - 1e-8


def test_survival_at_cutoff_is_exactly_one():
    for a, beta in [(1, 1.0), (3, 0.7), (10, 2.5)]:
        m = PowerLawModel(a, beta)
        assert m.survival(a) == 1.0
        assert m.survival(np.array([a, a + 1]))[0] == 1.0


def test_survival_analytic():
    m = PowerLawModel(1, 1.0)
    z = math.pi**2 / 6
    assert m.survival(2) == pytest.approx((z - 1) / z, rel=1e-12)


def test_survival_frozen_oracle():
    m = PowerLawModel(1, 1.13)
    assert m.survival(10) == pytest.approx(SURVIVAL_10_BETA_1_13, rel=1e-10)


@pytest.mark.parametrize("beta", [0.5, 1.13, 2.0])
@pytest.mark.parametrize("a", [1, 2, 7])
def test_survival_minus_next_is_pmf(beta, a):
    m = PowerLawModel(a, beta)
    for n in [a, a + 1, a + 5, a + 30, a + 99]:
        diff = m.survival(n) - m.survival(n + 1)
        assert diff == pytest.approx(m.pmf(n), rel=1e-12)


def test_survival_strictly_decreasing():
    m = PowerLawModel(2, 1.3)
    ns = np.arange(2, 200)
    s = m.survival(ns)
    assert np.all(np.diff(s) < 0)


# ------------------------------------------------------------ likelihood


def test_loglik_all_data_at_cutoff():
    stat = SufficientStat(n_a=5, log_geo_mean=0.0)
    expected = -math.log(math.pi**2 / 6)
    assert log_likelihood(stat, 1, 1.0) == pytest.approx(expected, rel=1e-12)


def test_loglik_matches_brute_force_mean():
    s = IntegerSample([1, 2, 4])
    stat = sufficient_stat(s)
    m = PowerLawModel(1, 1.0)
    brute = sum(math.log(m.pmf(int(v))) for v in expanded(s)) / 3.0
    assert log_likelihood(stat, 1, 1.0) == pytest.approx(brute, rel=1e-12)


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=40),
       st.floats(min_value=0.2, max_value=4.0))
def test_loglik_brute_force_property(values, beta):
    s = IntegerSample(values)
    stat = sufficient_stat(s)
    m = PowerLawModel(1, beta)
    brute = sum(math.log(m.pmf(int(v))) for v in expanded(s)) / s.size
    assert log_likelihood(stat, 1, beta) == pytest.approx(brute, rel=1e-12, abs=5e-14)


def test_loglik_large_beta_limit():
    # zeta(beta+1, 1) -> 1, so l(beta) -> -(beta+1) ln G_a
    stat = SufficientStat(n_a=3, log_geo_mean=0.9)
    val = log_likelihood(stat, 1, 40.0)
    assert val == pytest.approx(-(41.0) * 0.9, rel=1e-10)


def test_loglik_rejects_bad_beta():
    stat = SufficientStat(n_a=3, log_geo_mean=0.9)
    with pytest.raises(ValueError):
        log_likelihood(stat, 1, 0.0)
    with pytest.raises(ValueError):
        log_likelihood(stat, 1, -1.0)


def test_sigma_beta_values():
    assert sigma_beta(1.13, 22035) == pytest.approx(0.00761, abs=5e-6)
    assert round(sigma_beta(1.13, 22035), 2) == 0.01
    assert sigma_beta(2.0, 4) == 0.5 * 2.0
    assert sigma_beta(1.5, 1) == 1.5
    with pytest.raises(ValueError):
        sigma_beta(1.0, 0)


def test_sufficient_stat_above_log_cutoff():
    s = IntegerSample([3, 5, 9]).truncated(3)
    stat = sufficient_stat(s)
    assert stat.n_a == 3
    assert stat.log_geo_mean >= math.log(3)


def test_degenerate_detection():
    with pytest.raises(DegenerateDataError):
        check_identifiable(SufficientStat(5, math.log(4)), 4)
    with pytest.raises(DegenerateDataError):
        check_identifiable(SufficientStat(1, 2.0), 1)
    check_identifiable(sufficient_stat(IntegerSample([4, 4, 4, 5])), 4)


def test_huge_cutoff_zeta_range():
    # the unscaled zeta underflows quietly, while the model, which works
    # with Z(s, a) = a^s zeta(s, a), stays in range at any cutoff
    assert hurwitz_zeta(31.0, 10**12) == 0.0
    m = PowerLawModel(10**12, 30.0)
    assert m.scaled_norm == pytest.approx(10**12 / 30.0 + 0.5, rel=1e-12)
    assert m.pmf(10**12) == pytest.approx(30.0 / 10**12, rel=1e-10)
    assert 0.0 < m.survival(10**12 + 10**10) < 1.0
    stat = SufficientStat(n_a=2, log_geo_mean=math.log(10**12) + 0.03)
    assert math.isfinite(log_likelihood(stat, 10**12, 30.0))


def test_pmf_at_a_huge_cutoff_does_not_overflow():
    # n^-(beta+1) underflowed here, leaving pmf 0.0 with an overflow warning
    m = PowerLawModel(10**15, 20.0)
    assert m.pmf(10**15) == pytest.approx(20.0 / 10**15, rel=1e-12)
    assert m.pmf(np.array([10**15, 2 * 10**15])) == pytest.approx(
        [20.0 / 10**15, 2.0**-21 * 20.0 / 10**15], rel=1e-12)
    assert m.survival(2 * 10**15) == pytest.approx(2.0**-20, rel=1e-10)
