import ast
import collections
import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

import dplfit.sampling
from dplfit.distribution import IntegerSample, PowerLawModel
from dplfit.errors import TailTooLargeError
from dplfit.sampling import (
    _CHUNK,
    RngStream,
    SamplerParams,
    _proposals_from_uniforms,
    accept_test,
    composite,
    sample_n,
    sample_replicas,
    sample_rows,
    stream_starts,
)

from oracles import (
    acceptance_ratio,
    draws_table,
    expanded,
    proposal_mass,
    table,
    table_one_at_a_time,
    uniforms,
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
    u = uniforms(RngStream(97, 0)).random(10**6)
    y = _proposals_from_uniforms(params, 1.0 - u)
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
    gen = uniforms(RngStream(11, 0))
    n = 10**6
    w = 1.0 - gen.random(n)
    yy = np.maximum(_proposals_from_uniforms(params, w).astype(np.int64), 1)
    accepted = accept_test(params, yy, gen.random(n))
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
    # batch rule asks for, gives the row of the real rule: the stream's
    # first accepts
    params = SamplerParams(a, beta)

    def row():
        return sample_rows(params, count, stream_starts(77, [1]))[0]

    got = row()
    expected = variates_one_at_a_time(params, count, RngStream(77, 1))
    assert np.sort(got).tolist() == expected.tolist()
    for chunk, rule in ((2**62, lambda params, need: 4 * need + 9),
                        (7, lambda params, need: need // 3 + 2)):
        monkeypatch.setattr(dplfit.sampling, "_batch_size", rule)
        monkeypatch.setattr(dplfit.sampling, "_CHUNK", chunk)
        assert row().tolist() == got.tolist()


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


def test_cap_must_leave_usable_proposal_mass():
    # past the cap every proposal was redrawn (a draw warned of an invalid
    # cast and never ended), and at 2^63 - 2^20 the cap kept 1.1e-13 of the
    # mass (a draw of 10 ran for minutes): both are refused at once
    for a in (2**63 - 100, 2**63 - 2**20):
        with pytest.raises(ValueError, match=r"leaves less than 2\^-20 of the proposal mass"):
            SamplerParams(a, 1.0)
    # the rule's edge at a = 1, where the cap keeps about 43.7 beta of the
    # mass, is near beta = 2.18e-8
    assert 1.0 - SamplerParams(1, 2.3e-8).lost_mass >= 2.0**-20
    with pytest.raises(ValueError):
        SamplerParams(1, 2.1e-8)
    # the corner of the accepted box that keeps the least, a = 2^62 and
    # beta = 1e-4, keeps 6.9e-5 of the mass and draws
    params = SamplerParams(2**62, 1e-4)
    assert 1.0 - params.lost_mass == pytest.approx(1.0 - 2.0**-1e-4, rel=1e-6)
    assert sample_n(params, 10, RngStream(1)).size == 10


@pytest.mark.parametrize("a", [1, 3])
def test_overflowing_proposals_are_redrawn_without_a_warning(a):
    # at beta = 1e-3 most w^(-1/beta) overflow; the suite turns the
    # RuntimeWarning that would leak from numpy into an error
    values = sample_n(SamplerParams(a, 1e-3), 1000, RngStream(1)).unique_values
    assert values.min() >= a and values.max() < 2**63


@pytest.mark.parametrize("beta,digest", [
    (0.05, "a331ada3d2277f153ad4767315a4fef8ed25a716febc36eb57382d7577874b67"),
    (1.13, "bb3aa4cfbb1305831258cd30c75d497cabc3d573b6dce15616234a7edf822749"),
])
def test_variates_keep_their_digest(beta, digest):
    # rows of 50 and of 20000 variates, whose first batch is cut at
    # _CHUNK proposals, in draw order: unchanged since the stream layout
    # was fixed
    h = hashlib.sha256()
    for count in (50, 20000):
        h.update(sample_rows(SamplerParams(1, beta), count, stream_starts(7, range(3))).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("beta,digest", [
    (0.3, "30437c58b2ac8cd8dfa48793820954928e08c8bd9c26f017580babe4a6885ee2"),
    (1.13, "b9e30b0e876c04ef3081d035059423a5cef2c68af3e52437c15d64541ebd53ea"),
    (5.0, "cdbec78c4962ef75538dbbf86afa56fcaf065b27bfba5234e71f0332042e4e5b"),
])
def test_sample_n_keeps_its_digest(beta, digest):
    # samples of 50 variates, a row, and of 20000, a table whose rows
    # would have had their first batch cut at _CHUNK proposals, from a
    # stream at the end of a 256-id key block and one past the retry base:
    # unchanged since replicas with cells became tables
    params = SamplerParams(1, beta)
    assert dplfit.sampling._batch_size(params, 50) < _CHUNK
    assert dplfit.sampling._batch_size(params, 20000) > _CHUNK
    assert draws_table(params, 20000) and not draws_table(params, 50)
    h = hashlib.sha256()
    for count in (50, 20000):
        for seed, stream in ((7, 255), (2**64 - 1, 2**32 + 1)):
            sample = sample_n(params, count, RngStream(seed, stream))
            h.update(sample.unique_values.tobytes())
            h.update(sample.unique_counts.tobytes())
    assert h.hexdigest() == digest


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


# ----------------------------------------------------------------- tables


def test_sampler_arguments_are_checked(monkeypatch):
    # a fractional stream id once drew stream 1, and a fractional cutoff
    # drew off the integer law
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        RngStream(5, 1.5)
    with pytest.raises(ValueError, match="cutoff 2.5 is not a whole number"):
        SamplerParams(2.5, 1.0)
    # whole numbers of any numeric type stay valid; the cutoff is an int
    assert SamplerParams(np.int64(2), 1.0) == SamplerParams(2.0, 1.0) == SamplerParams(2, 1.0)
    assert type(SamplerParams(np.float64(2.0), 1.0).a) is int
    params, rng = SamplerParams(1, 1.0), RngStream(1)
    assert table(sample_n(params, np.int64(30), RngStream(1, np.int64(3)))) == table(
        sample_n(params, 30, RngStream(1, 3)))

    # a fractional count is refused before anything is drawn, not inside numpy
    def no_draws(*args):
        raise AssertionError("a stream was keyed")

    monkeypatch.setattr(dplfit.sampling, "stream_starts", no_draws)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sample_n(params, 2.5, rng)


@pytest.mark.parametrize("a,beta,count", [
    (1, 1.13, 22035), (1, 1.13, 300000), (3, 0.5, 10**5), (1, 5.0, 10**6), (1, 0.3, 10**5),
    (10, 1.13, 10**4), (1, 0.05, 10**7), (7, 2.0, 10**9), (1, 1.13, 10**12),
    (10**9, 40.0, 10**12), (2**62, 0.5, 10**6),
])
def test_pvals_are_the_textbook_weights(a, beta, count):
    # cell n weighs (a/n)^s and the envelope W = (a/T)^s t_T/(t_T - 1), here
    # at 50 digits; the cells are the n whose expected count is at least 1
    # by the sampler's lower bound of Z, at most 2^16 of them
    mpmath = pytest.importorskip("mpmath")
    params = SamplerParams(a, beta)
    tail, pvals = composite(params, count)
    cells = tail.a - a
    assert tail == SamplerParams(a + cells, beta) and pvals.size == cells + 1
    with mpmath.workdps(50):
        s, A = mpmath.mpf(beta) + 1, mpmath.mpf(a)
        weights = [(A / n) ** s for n in range(a, tail.a + 1)]
        expected = [float(count * w / params.norm_bound) for w in weights]
        t_T = (1 + 1 / mpmath.mpf(tail.a)) ** mpmath.mpf(beta)
        weights[-1] *= t_T / (t_T - 1)
        total = mpmath.fsum(weights)
        exact = np.array([float(w / total) for w in weights])
    assert cells == dplfit.sampling._MAX_CELLS or expected[-1] < 1.0
    assert min(expected[:cells], default=1.0) >= 1.0
    # within 1e-15 absolute, and relative to each weight within 1e-15 plus
    # the error of (a/n)^s taken as exp(-s log1p((n - a)/a)), which grows
    # with s ln(n/a): 3.9e-15 relative at n = 2^16 at beta = 1.13
    n = np.arange(a, tail.a + 1, dtype=np.float64)
    assert np.all(np.abs(pvals - exact) <= 1e-15)
    assert np.all(np.abs(pvals - exact) <= 1e-15 * exact * (1.0 + (beta + 1.0) * np.log(n / a)))


def chi_squared_of_tables(values, counts, model, edges):
    """Chi-squared statistic of a pooled table against the model's law
    below the sampler's 2^63 cap, over the bins [edges[i], edges[i + 1])
    and [edges[-1], cap); returns (stat, dof)."""
    edges = np.asarray(edges, dtype=np.int64)
    bins = np.searchsorted(edges, values, side="right") - 1
    obs = np.bincount(bins, weights=counts, minlength=edges.size)
    cap = int(dplfit.sampling._MAX_PROPOSAL)
    survival = model.survival(np.append(edges, cap))
    expected = (survival[:-1] - survival[1:]) / (1.0 - survival[-1]) * counts.sum()
    assert expected.min() > 5, "bins too thin for the chi-squared approximation"
    return float(((obs - expected) ** 2 / expected).sum()), edges.size - 1


@pytest.mark.parametrize("a,beta,count,replicas", [
    (1, 1.13, 22035, 100),      # the corpus scan's a = 1
    (3, 0.5, 10**5, 20),
    (1, 5.0, 10**5, 20),
    (1, 0.3, 10**5, 20),
    (1, 0.05, 3 * 10**5, 5),    # ~11% of the proposal mass past the cap
    (10**9, 0.05, 10**4, 20),   # no cells: the envelope alone
    (1, 1.13, 10**11, 10),      # the 2^16 cells of the cap
])
def test_pooled_tables_follow_the_law(monkeypatch, a, beta, count, replicas):
    # replicas drawn as tables (the rule's threshold at 0 cell draws), pooled:
    # one chi-squared test at the 0.01 level over the cutoff's first values,
    # the values around the envelope's cutoff T and wide bins past it, seeds
    # pinned
    params = SamplerParams(a, beta)
    tail, _ = composite(params, count)
    monkeypatch.setattr(dplfit.sampling, "_TABLE_DRAWS", 0)
    values, counts, lengths = sample_replicas(params, count, stream_starts(404, range(replicas)))
    assert np.all(np.add.reduceat(counts, np.cumsum(lengths) - lengths) == count)
    model = PowerLawModel(a, beta)
    total = count * replicas
    # bins from the cutoff up: the first values, those at the cells' end
    # and geometric steps, each edge kept where the bin it closes and the
    # tail past it both hold at least 20 expected draws
    candidates = set(range(a + 1, a + 40)) | set(range(tail.a - 2, tail.a + 3))
    candidates |= set(np.geomspace(a + 1, 2**62, 80).astype(np.int64).tolist())
    edges = [a]
    for edge in sorted(n for n in candidates if n > a):
        mass = model.survival(edges[-1]) - model.survival(edge)
        if total * min(mass, model.survival(edge)) >= 20:
            edges.append(edge)
    stat, dof = chi_squared_of_tables(values, counts, model, edges)
    assert stat < chi2.ppf(0.99, dof)


@pytest.mark.parametrize("a,beta,count", [(1, 1.13, 1), (10**3, 1.13, 100), (10**9, 40.0, 200),
                                          (1, 1e-3, 1000)])
def test_replica_without_cells_is_its_row(monkeypatch, a, beta, count):
    # with no cells pvals is (1,), the multinomial draws nothing, and a
    # replica drawn as its table (the rule's threshold at 0 cell draws) is
    # the first accepts of its stream: its row of sample_rows
    params = SamplerParams(a, beta)
    assert composite(params, count)[1].tolist() == [1.0]
    assert not draws_table(params, count)
    starts = list(stream_starts(8, STREAMS))
    monkeypatch.setattr(dplfit.sampling, "_TABLE_DRAWS", 0)
    values, counts, lengths = sample_replicas(params, count, starts)
    at = np.cumsum(lengths) - lengths
    for row, lo, size in zip(sample_rows(params, count, starts), at, lengths):
        assert table(IntegerSample(row)) == (values[lo:lo + size].tolist(),
                                             counts[lo:lo + size].tolist())


@pytest.mark.parametrize("a,beta,count", [
    (1, 1.13, 22035), (2, 0.9, 3000), (3, 0.4, 3000), (1, 5.0, 4000), (10, 1.13, 10**4),
    (1, 0.05, 10**5),
])
@pytest.mark.parametrize("chunk", [7, _CHUNK])
def test_tables_equal_one_at_a_time(monkeypatch, a, beta, count, chunk):
    # each replica of a group drawn as tables, its envelope proposals in
    # passes of 7 or of _CHUNK, is the replica its own stream gives when
    # drawn alone by the oracle, and sample_n draws that replica
    params = SamplerParams(a, beta)
    assert draws_table(params, count)
    monkeypatch.setattr(dplfit.sampling, "_CHUNK", chunk)
    streams = STREAMS[:6]
    values, counts, lengths = sample_replicas(params, count, stream_starts(2**64 - 1, streams))
    at = np.cumsum(lengths) - lengths
    for lo, size, stream in zip(at, lengths, streams):
        expected = IntegerSample(table_one_at_a_time(params, count, RngStream(2**64 - 1, stream)))
        got = (values[lo:lo + size].tolist(), counts[lo:lo + size].tolist())
        assert got == table(expected)
        assert table(sample_n(params, count, RngStream(2**64 - 1, stream))) == got


@pytest.mark.parametrize("a,beta,count,chunk", [
    (1, 0.05, 10**5, 2**17),       # 11% of the proposals past the cap: 8-10 rounds
    (1, 2.0, 30000, 16),           # first-round trials 17 for stream 5, 6-16 for the rest
    (10**6, 1.13, 3000, 2000),     # no cells: rows, each short after its first batch
])
def test_block_rounds_equal_one_at_a_time(monkeypatch, a, beta, count, chunk):
    # a block's replicas are drawn round by round, each round's envelope
    # trials pooled into passes of at most `chunk` proposals, and a replica
    # of more trials than that takes passes of its own, its last one shared
    # with the next replicas; each replica is still the one its own stream
    # gives when drawn alone (the table oracle, or the row oracle for the
    # rows that finish through the same loop)
    params = SamplerParams(a, beta)
    _, pvals = composite(params, count)
    streams = range(8)
    rounds = collections.Counter()  # passes a replica's trials were in
    shared = []
    settle = dplfit.sampling._settle

    def spy(tail, u, pooled, *rest):
        assert u.size <= 2 * chunk
        rounds.update({r for r, _ in pooled})
        shared.append(len(pooled) > 1)
        return settle(tail, u, pooled, *rest)

    monkeypatch.setattr(dplfit.sampling, "_CHUNK", chunk)
    monkeypatch.setattr(dplfit.sampling, "_settle", spy)
    values, counts, lengths = sample_replicas(params, count, stream_starts(2, streams))
    draw = table_one_at_a_time if draws_table(params, count) else variates_one_at_a_time
    at = np.cumsum(lengths) - lengths
    for lo, size, stream in zip(at, lengths, streams):
        expected = IntegerSample(draw(params, count, RngStream(2, stream)))
        assert (values[lo:lo + size].tolist(), counts[lo:lo + size].tolist()) == table(expected)
    assert any(shared)
    first = [int(uniforms(RngStream(2, s)).multinomial(count, pvals)[-1]) for s in streams]
    if chunk == 2**17:
        # every replica fits one pass, so each of its passes is a round
        assert max(first) <= chunk and min(rounds.values()) >= 3
    elif chunk == 16:
        assert sorted(first)[-2:] == [16, 17]
    else:
        assert pvals.tolist() == [1.0] and dplfit.sampling._batch_size(params, count) > chunk


@pytest.mark.parametrize("a,beta,count", [(1, 1.13, 22035), (10**6, 1.13, 20000)])
def test_a_replica_does_not_depend_on_its_block(a, beta, count):
    # replicas 0-63 drawn in one block, tables or rows that come up short,
    # are those drawn as a block of 0-6 and one of 7-63: no replica reads
    # another's stream, however their rounds are pooled
    params = SamplerParams(a, beta)
    starts = list(stream_starts(5, range(64)))
    whole = sample_replicas(params, count, starts)
    split = zip(sample_replicas(params, count, starts[:7]),
                sample_replicas(params, count, starts[7:]))
    for got, parts in zip(whole, split):
        assert got.tolist() == np.concatenate(parts).tolist()


@pytest.mark.parametrize("a,beta,count", [(2, 0.9, 700), (1, 5.0, 3), (1, 1.13, 22035),
                                          (1, 5.0, 4000), (10**6, 1.13, 40000)])
@pytest.mark.parametrize("unit", [None, 2])
def test_replicas_are_their_tables(monkeypatch, a, beta, count, unit):
    # a block of replicas drawn as rows (700, 3 and 40000 draws) or as
    # tables (22035 and 4000), the rows reduced a unit of the default size
    # or of two rows at a time, is each replica's np.unique table end to
    # end, the replica drawn alone: the row oracle's or the table oracle's
    # replica; and sample_n draws the block's replica i.  At beta = 5 one
    # replica's last value often equals the next one's first, and still
    # the two tables stay apart.  At a = 10^6 the composite has no cells and
    # a row's first batch is capped at _CHUNK proposals, so every row comes
    # up short and finishes through the envelope loop
    params = SamplerParams(a, beta)
    assert draws_table(params, count) == (a == 1 and count > 1000)
    if a == 10**6:
        assert composite(params, count)[1].tolist() == [1.0]
        assert dplfit.sampling._batch_size(params, count) > _CHUNK
    if unit is not None:
        monkeypatch.setattr(dplfit.sampling, "_UNIT", unit * count)
    streams = STREAMS[:5]
    values, counts, lengths = sample_replicas(params, count, stream_starts(3, streams))
    assert values.size == counts.size == lengths.sum()
    at = np.cumsum(lengths) - lengths
    for stream, lo, size in zip(streams, at, lengths):
        rng = RngStream(3, stream)
        alone = (table_one_at_a_time if draws_table(params, count)
                 else variates_one_at_a_time)(params, count, rng)
        expected = [column.tolist() for column in np.unique(alone, return_counts=True)]
        got = [values[lo:lo + size].tolist(), counts[lo:lo + size].tolist()]
        assert got == expected
        assert size == len(expected[0])
        assert list(table(sample_n(params, count, rng))) == got


def test_table_rule_is_the_expected_cell_draws():
    # a replica is drawn as its table when its cells are expected to take
    # at least _TABLE_DRAWS of its draws, and never with no cells: the
    # sampler's replica is the oracle's on the path the rule picks
    paths = []
    for a, beta in [(1, 1.13), (7, 1.13), (50, 0.5), (1, 5.0)]:
        params = SamplerParams(a, beta)
        for count in (1, 100, 1000, 3000, 10**4, 10**6):
            rng = RngStream(12, 5)
            path = draws_table(params, count)
            draw = table_one_at_a_time if path else variates_one_at_a_time
            assert table(sample_n(params, count, rng)) == table(IntegerSample(draw(params, count, rng)))
            paths.append(path)
    assert True in paths and False in paths
    assert draws_table(SamplerParams(1, 1.13), 22035)
    assert not draws_table(SamplerParams(1, 1.13), 1000)


class _ShortOfMemory:
    """numpy, as the sampler sees it when no array of more than 10^6
    elements can be allocated."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=None):
        if np.prod(shape) > 10**6:
            raise MemoryError
        return np.empty(shape, dtype=dtype)


def test_table_too_large_for_memory_is_a_typed_error(monkeypatch):
    # the envelope's values are allocated once, for its first round's
    # trials (about 2e6 here), so a replica whose envelope does not fit
    # fails at once, with the replica's size in the message
    params = SamplerParams(1, 1.13)
    assert 10**6 < 10**12 * composite(params, 10**12)[1][-1] < 10**7
    monkeypatch.setattr(dplfit.sampling, "np", _ShortOfMemory())
    with pytest.raises(TailTooLargeError, match=f"a replica of {10**12} observations"):
        sample_replicas(params, 10**12, stream_starts(1, [0]))


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
            assert uniforms(RngStream(seed, stream)).random(100).tolist() == expected.tolist()


def test_sample_rows_reject_bad_seeds():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            sample_rows(SamplerParams(1, 1.0), 10, stream_starts(seed, [0]))


@pytest.mark.parametrize("count,group", [(20, 32), (700, 7), (3000, 1), (6000, 1)])
@pytest.mark.parametrize("seed", SEEDS)
def test_group_rows_equal_one_at_a_time(monkeypatch, seed, count, group):
    # rows drawn in groups of 10, 2 and 1 rows (a third of 32, 7 and 1, at
    # least one), the group budget set to that many first batches, with a
    # partial last group; every row is the replica its own stream gives
    # when drawn alone, and no two streams agree
    params = SamplerParams(2, 0.9)
    monkeypatch.setattr(dplfit.sampling, "_CHUNK",
                        max(1, group // 3) * dplfit.sampling._batch_size(params, count))
    # sample_n draws the replicas of 3000 and 6000 as tables, which
    # test_tables_equal_one_at_a_time checks; drawn as rows, every replica
    # is its stream's row
    monkeypatch.setattr(dplfit.sampling, "_TABLE_DRAWS", math.inf)
    streams = STREAMS + tuple(range(300, 300 + 2 * group))
    rows = sample_rows(params, count, stream_starts(seed, streams))
    assert rows.shape == (len(streams), count)
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
        return sample_rows(params, count, stream_starts(9, STREAMS))

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
