import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

import dplfit.sampling
from dplfit.distribution import PowerLawModel
from dplfit.sampling import (
    _CHUNK,
    RngStream,
    SamplerParams,
    _proposals_from_uniforms,
    accept_test,
    acceptance_ratio,
    sample_groups,
    sample_n,
)

from oracles import (
    accepted_in_order,
    expanded,
    proposal_mass,
    table,
    variates_one_at_a_time,
)


def chi_squared_vs_pmf(values, model, n_bins=30):
    """Chi-squared statistic of observed values against the model over
    bins a..a+n_bins-1 plus one overflow bin; returns (stat, dof)."""
    a = model.a
    edges = np.arange(a, a + n_bins)
    obs = np.array([np.count_nonzero(values == n) for n in edges]
                   + [np.count_nonzero(values >= a + n_bins)])
    expected = np.array([model.pmf(int(n)) for n in edges]
                        + [model.survival(a + n_bins)]) * values.size
    assert expected.min() > 5, "bins too thin for the chi-squared approximation"
    return float(((obs - expected) ** 2 / expected).sum()), n_bins


# ------------------------------------------------------------- proposals


def test_umax_maps_to_cutoff():
    for a, beta in [(1, 1.0), (3, 0.4), (10, 2.7)]:
        params = SamplerParams(a, beta)
        # w = 1 is the u = u_max endpoint and must give y = a exactly
        assert int(_proposals_from_uniforms(params, 1.0)) == a


def test_proposal_mass_analytic():
    params = SamplerParams(1, 1.0)
    assert proposal_mass(params, 1) == pytest.approx(0.5, rel=1e-14)
    assert proposal_mass(params, 2) == pytest.approx(1 / 6, rel=1e-13)


def test_proposal_frequencies_match_q():
    params = SamplerParams(1, 1.0)
    rng = RngStream(97, 0)
    y = _proposals_from_uniforms(params, 1.0 - rng.uniform(10**6))
    y = np.minimum(y, 2.0**62).astype(np.int64)
    stat, dof = chi_squared_vs_pmf(
        y,
        _QWrapper(params),
        n_bins=50,
    )
    assert stat < chi2.ppf(0.99, dof)


class _QWrapper:
    """Adapter exposing the proposal distribution through the pmf interface."""

    def __init__(self, params):
        self.params = params
        self.a = params.a

    def pmf(self, n):
        return proposal_mass(self.params, n)

    def survival(self, n):
        return (self.params.a / n) ** self.params.beta


# ------------------------------------------------------------ acceptance


def test_accept_test_worked_example():
    # a=1, beta=1, y=2, v=0.9: tau=1.5, b=2, so 0.9*2*0.5/1 = 0.9 > 0.75 = 1*1.5/2
    params = SamplerParams(1, 1.0)
    assert accept_test(params, 2, 0.9) is False
    assert accept_test(params, 2, 0.74) is True
    assert acceptance_ratio(params, 2) == pytest.approx(0.75, rel=1e-13)


def test_cutoff_proposal_always_accepted():
    for a, beta in [(1, 1.0), (2, 0.3), (7, 2.2)]:
        params = SamplerParams(a, beta)
        assert acceptance_ratio(params, a) == pytest.approx(1.0, rel=1e-13)
        assert accept_test(params, a, 0.999999999)


@given(
    a=st.integers(min_value=1, max_value=1000),
    beta=st.floats(min_value=0.05, max_value=8.0),
    y_off=st.integers(min_value=0, max_value=10**4),
    v=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
@settings(max_examples=300)
def test_simplified_condition_matches_ratio(a, beta, y_off, v):
    """The cleared form used by accept_test and the explicit ratio
    f(y) q(a) / (f(a) q(y)) decide identically away from exact ties."""
    params = SamplerParams(a, beta)
    y = a + y_off
    ratio = acceptance_ratio(params, y)
    if abs(v - ratio) <= 1e-9 * ratio:
        return  # undecidable at double precision, either answer is fine
    assert accept_test(params, y, v) == (v <= ratio)


@pytest.mark.parametrize("a,beta", [(1, 1.0), (1, 0.6), (3, 1.5), (10, 2.5)])
def test_ratio_against_high_precision_oracle(a, beta):
    """acceptance_ratio agrees with f(y)q(a)/(f(a)q(y)) computed from the
    raw definitions at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    params = SamplerParams(a, beta)
    with mpmath.workdps(50):
        A, B = mpmath.mpf(a), mpmath.mpf(beta)

        def q(y):
            return (A / y) ** B - (A / (y + 1)) ** B

        for y in [a, a + 1, a + 7, a + 100, a + 9999]:
            f_ratio = (A / mpmath.mpf(y)) ** (B + 1)  # f(y)/f(a)
            exact = float(f_ratio * q(A) / q(mpmath.mpf(y)))
            assert acceptance_ratio(params, y) == pytest.approx(exact, rel=1e-12)


def test_acceptance_rate_matches_numeric_sum():
    # Overall acceptance rate is sum_y q(y) * ratio(y) = q(a)/f(a).
    params = SamplerParams(1, 1.0)
    y = np.arange(1, 10**6, dtype=np.float64)
    numeric = float(np.sum(proposal_mass(params, y)
                           * np.minimum(1.0, acceptance_ratio(params, y))))
    tail = (1.0 / 10**6)  # remaining proposal mass, accepted at most fully
    rng = RngStream(11, 0)
    n = 10**6
    w = 1.0 - rng.uniform(n)
    yy = np.maximum(_proposals_from_uniforms(params, w).astype(np.int64), 1)
    accepted = accept_test(params, yy, rng.uniform(n))
    rate = float(accepted.mean())
    sd = math.sqrt(numeric * (1 - numeric) / n)
    assert numeric <= rate + 4 * sd + tail
    assert rate <= numeric + 4 * sd + tail
    # cross-check the closed form q(a)/f(a) = (1 - (a/(a+1))^beta) * zeta * a^(beta+1)
    closed = 0.5 * (math.pi**2 / 6)
    assert numeric == pytest.approx(closed, abs=2 * tail)


# --------------------------------------------------------------- variates


@pytest.mark.parametrize("a,beta,seed", [(1, 1.5, 31), (2, 0.8, 32), (5, 2.0, 33)])
def test_variates_match_target_pmf(a, beta, seed):
    params = SamplerParams(a, beta)
    sample = sample_n(params, 10**6, RngStream(seed, 0))
    stat, dof = chi_squared_vs_pmf(expanded(sample), PowerLawModel(a, beta))
    # one test at the 0.01 level per parameter point, seeds pinned
    assert stat < chi2.ppf(0.99, dof)


def test_count_one():
    sample = sample_n(SamplerParams(3, 1.0), 1, RngStream(1, 0))
    assert sample.size == 1
    assert sample.unique_values[0] >= 3


@pytest.mark.parametrize("a,beta,count", [(1, 1.13, 50000), (3, 0.4, 3000), (1, 2.0, 20)])
def test_chunked_test_matches_whole_batch(monkeypatch, a, beta, count):
    # drawing proposals all in one pass, or in passes far smaller than the
    # batch rule asks for, gives the variates of the real rule: the
    # stream's first accepts
    params = SamplerParams(a, beta)
    got = sample_n(params, count, RngStream(77, 1))
    expected = variates_one_at_a_time(params, count, RngStream(77, 1))
    assert expanded(got).tolist() == expected.tolist()
    got = table(got)
    for chunk, rule in ((2**62, lambda params, need: 4 * need + 9),
                        (7, lambda params, need: need // 3 + 2)):
        monkeypatch.setattr(dplfit.sampling, "_batch_size", rule)
        monkeypatch.setattr(dplfit.sampling, "_CHUNK", chunk)
        assert table(sample_n(params, count, RngStream(77, 1))) == got


def test_count_zero_rejected():
    with pytest.raises(ValueError):
        sample_n(SamplerParams(1, 1.0), 0, RngStream(1, 0))


@given(
    a=st.integers(min_value=1, max_value=100),
    beta=st.floats(min_value=0.2, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=50)
def test_support_property(a, beta, seed):
    sample = sample_n(SamplerParams(a, beta), 200, RngStream(seed, 0))
    assert sample.unique_values[0] >= a


def test_reproducible_streams():
    params = SamplerParams(1, 1.13)
    one = sample_n(params, 5000, RngStream(123, 4))
    two = sample_n(params, 5000, RngStream(123, 4))
    other = sample_n(params, 5000, RngStream(123, 5))
    assert table(one) == table(two)
    assert table(one) != table(other)


def test_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(2**64, 0)
    with pytest.raises(ValueError):
        RngStream(1, -1)
    with pytest.raises(TypeError):
        RngStream(1.5, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        SamplerParams(0, 1.0)
    with pytest.raises(ValueError):
        SamplerParams(1, 0.0)


def test_params_at_a_huge_cutoff_and_exponent():
    # a^beta = 10^360 is beyond double range; nothing the sampler keeps
    # depends on it
    params = SamplerParams(10**9, 40.0)
    assert params.ta_minus_1 == pytest.approx(40.0 / 10**9, rel=1e-7)
    values = sample_n(params, 50, RngStream(5, 0)).unique_values
    assert values.min() >= 10**9


def test_lost_mass_at_the_proposal_cap():
    # proposals y >= 2^63 are redrawn; their mass is (a / 2^63)^beta
    assert SamplerParams(1, 0.05).lost_mass == pytest.approx(0.11266, rel=1e-4)
    assert SamplerParams(1, 1.13).lost_mass < 1e-20
    assert SamplerParams(10**6, 0.5).lost_mass == pytest.approx(
        (10**6 / 2.0**63) ** 0.5, rel=1e-12)


@pytest.mark.parametrize("a", [1, 2, 10])
@pytest.mark.parametrize("beta", [0.3, 1.13, 5.0])
def test_rate_bounds_the_acceptance_rate_from_below(a, beta):
    # the acceptance rate is sum_y q(y) ratio(y); past y = 10^6 the terms
    # are q(a) (a/y)^s, summed by their integral and half-term
    params = SamplerParams(a, beta)
    top = 10**6
    y = np.arange(a, top, dtype=np.float64)
    head = float(np.sum(proposal_mass(params, y) * acceptance_ratio(params, y)))
    tail = proposal_mass(params, a) * a ** (beta + 1) * (
        top ** -beta / beta + 0.5 * top ** -(beta + 1))
    exact = head + tail
    assert 0.98 * exact <= params.rate <= exact


# ------------------------------------------- stream keys and group draws

SEEDS = (0, 1, 2**63 + 11, 2**64 - 1)
# first attempts, both sides of a 256-id key block, the last id below the
# retry base, and retry ids above it
STREAMS = (0, 1, 6, 255, 256, 2**32 - 1, 2**32, 2**32 + 6, 2**32 + 255,
           5 * 2**32 + 17, 2**63 + 5)


def test_stream_key_is_seed_sequence_words():
    # substream (seed, id) is the PCG64 whose state is words 4 (id mod 256)
    # and + 1 of the id's SeedSequence block, and whose increment is the
    # next two, shifted up one bit and made odd
    for seed in SEEDS:
        for stream in (0, 255, 256, 2**63 + 5):
            block = np.random.SeedSequence(seed, spawn_key=(stream // 256,))
            words = block.generate_state(1024, np.uint64)[4 * (stream % 256):][:4].tolist()
            inc = ((words[2] << 64 | words[3]) << 1 | 1) % 2**128
            bitgen = np.random.PCG64()
            bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                            "state": {"state": words[0] << 64 | words[1], "inc": inc}}
            expected = np.random.Generator(bitgen).random(100)
            assert RngStream(seed, stream).uniform(100).tolist() == expected.tolist()


def test_sample_groups_reject_bad_seeds():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            next(sample_groups(SamplerParams(1, 1.0), 10, seed, [0]))


@pytest.mark.parametrize("count,group", [(20, 32), (700, 7), (3000, 1), (6000, 1)])
@pytest.mark.parametrize("seed", SEEDS)
def test_group_rows_equal_one_at_a_time(monkeypatch, seed, count, group):
    # units of 32, 7 and 1 rows, the unit budget set to that many rows,
    # with a partial last unit, each drawn in groups of a third as many
    # rows (at least one), the group budget set to that many first
    # batches; every row is the replica its own stream gives when drawn
    # alone, and no two streams agree
    params = SamplerParams(2, 0.9)
    monkeypatch.setattr(dplfit.sampling, "_UNIT", group * count)
    monkeypatch.setattr(dplfit.sampling, "_CHUNK",
                        max(1, group // 3) * dplfit.sampling._batch_size(params, count))
    streams = STREAMS + tuple(range(300, 300 + 2 * group))
    groups = list(sample_groups(params, count, seed, streams))
    sizes = [len(streams[lo:lo + group]) for lo in range(0, len(streams), group)]
    assert [rows.shape for rows in groups] == [(size, count) for size in sizes]
    rows = np.concatenate(groups)
    assert len({row.tobytes() for row in rows}) == len(streams)
    for row, stream in zip(rows, streams):
        expected = variates_one_at_a_time(params, count, RngStream(seed, stream))
        assert np.sort(row).tolist() == expected.tolist()
        alone = sample_n(params, count, RngStream(seed, stream))
        assert expanded(alone).tolist() == expected.tolist()


@pytest.mark.parametrize("chunk", [7, _CHUNK])
def test_short_rows_continue_on_their_own_streams(monkeypatch, chunk):
    # a batch rule that never fills a row leaves every row short after its
    # first batch, so each draws further batches from its own stream; with
    # chunks of 7 the larger batches are drawn 7 proposals at a time.  The
    # rows, in draw order, are those of the real batch rule and of one
    # that fills every row in its first batch.
    params = SamplerParams(1, 1.13)
    counts = (5, 40, 300)

    def draw(count):
        return np.concatenate(list(sample_groups(params, count, 9, STREAMS)))

    real = [draw(count) for count in counts]
    monkeypatch.setattr(dplfit.sampling, "_batch_size", lambda params, need: need // 3 + 2)
    monkeypatch.setattr(dplfit.sampling, "_CHUNK", chunk)
    short = [draw(count) for count in counts]
    monkeypatch.setattr(dplfit.sampling, "_batch_size", lambda params, need: 4 * need + 9)
    monkeypatch.setattr(dplfit.sampling, "_CHUNK", 2**62)
    whole = [draw(count) for count in counts]
    for count, rows, ref, other in zip(counts, short, real, whole):
        assert rows.tolist() == ref.tolist() == other.tolist()
        for row, stream in zip(rows, STREAMS):
            expected = variates_one_at_a_time(params, count, RngStream(9, stream))
            assert np.sort(row).tolist() == expected.tolist()


def test_sample_n_advances_its_stream():
    # successive sample_n calls on one stream take its successive accepts
    # and leave it just past the uniforms of the last one
    params = SamplerParams(3, 0.7)
    seed, stream = 2**64 - 1, 2**32 + 1
    counts = (20, 700, 3000, 6000, 1)
    rng = RngStream(seed, stream)
    got = [expanded(sample_n(params, count, rng)).tolist() for count in counts]
    accepts, used = accepted_in_order(params, sum(counts), RngStream(seed, stream))
    parts = np.split(accepts, np.cumsum(counts)[:-1])
    assert got == [np.sort(part).tolist() for part in parts]
    ref = RngStream(seed, stream)
    ref.uniform(2 * used)
    assert rng.uniform(5).tolist() == ref.uniform(5).tolist()


def test_sampler_never_touches_zeta():
    """The hot path must not evaluate the zeta function: the sampling
    module may not import the zeta module at all."""
    tree = ast.parse(inspect.getsource(dplfit.sampling))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all("zeta" not in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert "zeta" not in (node.module or "")
            assert all("zeta" not in alias.name for alias in node.names)
