import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dplfit import mle
from dplfit.distribution import (
    IntegerSample,
    SufficientStat,
    at_cutoff,
    log_likelihood,
    sufficient_stat,
)
from dplfit.errors import ConvergenceError, DegenerateDataError
from dplfit.mle import AT_BOUND, SOLVED, MleConfig, fit_beta, solve_betas
from dplfit.sampling import RngStream, SamplerParams, sample_n, sample_rows, stream_starts

from oracles import grid_argmax_beta, psi_mpmath

# Frozen from the 1e-6-step grid search over the {1, 2, 4} likelihood.
BETA_124 = 0.879101


def test_small_sample_matches_grid_oracle():
    stat = sufficient_stat(IntegerSample([1, 2, 4]))
    oracle = grid_argmax_beta(stat, 1, lo=0.4, hi=1.4)
    result = fit_beta(stat, 1)
    assert abs(result.beta_emp - oracle) <= 2e-6
    assert result.beta_emp == pytest.approx(BETA_124, abs=1e-5)
    assert 1 <= result.iterations <= 10  # Newton evaluations
    assert result.sigma == result.beta_emp / math.sqrt(3)


def test_recovers_simulated_exponent():
    sample = sample_n(SamplerParams(1, 1.5), 10**4, RngStream(2024, 0))
    result = fit_beta(sufficient_stat(sample), 1)
    assert abs(result.beta_emp - 1.5) < 3 * result.sigma


def test_maximum_is_local_optimum():
    stat = sufficient_stat(IntegerSample([1, 1, 2, 3, 3, 7, 19]))
    result = fit_beta(stat, 1)
    tol = MleConfig().beta_tol
    here = log_likelihood(stat, 1, result.beta_emp)
    assert here >= log_likelihood(stat, 1, result.beta_emp + tol)
    assert here >= log_likelihood(stat, 1, result.beta_emp - tol)


def test_derivative_vanishes_at_maximum():
    sample = sample_n(SamplerParams(1, 1.2), 5000, RngStream(7, 0))
    stat = sufficient_stat(sample)
    beta = fit_beta(stat, 1).beta_emp
    h = 1e-5
    deriv = (log_likelihood(stat, 1, beta + h) - log_likelihood(stat, 1, beta - h)) / (2 * h)
    assert abs(deriv) < 1e-4


def test_degenerate_all_data_at_cutoff():
    with pytest.raises(DegenerateDataError):
        fit_beta(sufficient_stat(IntegerSample([3, 3, 3])), 3)


def test_single_datum_rejected():
    with pytest.raises(DegenerateDataError):
        fit_beta(sufficient_stat(IntegerSample([5])), 2)


def test_duplication_invariance():
    values = [1, 2, 2, 3, 8, 40]
    one = fit_beta(sufficient_stat(IntegerSample(values)), 1)
    two = fit_beta(sufficient_stat(IntegerSample(values * 2)), 1)
    assert abs(one.beta_emp - two.beta_emp) <= MleConfig().beta_tol
    # sigma does depend on the sample size
    assert two.sigma == pytest.approx(one.sigma / math.sqrt(2), rel=1e-9)


def test_heavier_tail_means_smaller_beta():
    betas = [
        fit_beta(SufficientStat(n_a=100, log_geo_mean=g), 1).beta_emp
        for g in [0.3, 0.5, 0.8, 1.2, 2.0]
    ]
    assert all(x > y for x, y in zip(betas, betas[1:]))


def test_bound_hit_raises_convergence_error():
    # ln G barely above ln a (for a >= 2) pushes the maximum far beyond
    # the search interval; that must surface as an error, never a
    # silent clamp.  (At a = 1 the degeneracy check fires first: the
    # interior maximum only escapes past beta = 50 once ln G is within
    # ln2 * 2^-51 of zero.)
    with pytest.raises(ConvergenceError):
        fit_beta(SufficientStat(n_a=10, log_geo_mean=math.log(2) + 2e-12), 2)


def test_deterministic():
    stat = sufficient_stat(IntegerSample([1, 3, 3, 9, 27]))
    a = fit_beta(stat, 1)
    b = fit_beta(stat, 1)
    assert a == b


def test_iteration_budget_exhaustion():
    # the table start is within about 1e-7 of the root, so one evaluation
    # meets the default tolerance; a far tighter one needs a second
    stat = sufficient_stat(IntegerSample([1, 2, 4, 9]))
    assert fit_beta(stat, 1, MleConfig(beta_tol=1e-12)).iterations > 1
    with pytest.raises(ConvergenceError, match="no convergence within 1 iterations"):
        fit_beta(stat, 1, MleConfig(beta_tol=1e-12, max_iter=1))


def test_config_validation():
    with pytest.raises(ValueError):
        MleConfig(beta_bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        MleConfig(beta_tol=0.0)
    # the bracket's lower end beta + 1 must lie in the kernel's domain s > 1
    with pytest.raises(ValueError, match="resolution of beta"):
        MleConfig(beta_bounds=(1e-300, 50.0))
    assert MleConfig(beta_bounds=(1e-15, 50.0)).beta_bounds[0] == 1e-15


@pytest.mark.parametrize("a", [1, 2, 7, 100, 10**4, 10**6])
def test_roots_match_high_precision_oracle(a):
    # ln G = psi(beta + 1, a) to 50 digits, rounded once to a float; the
    # solver must return beta within a quarter of the contract tolerance.
    tol = MleConfig().beta_tol
    for beta in [0.1, 0.5, 1.13, 3.0, 10.0, 30.0]:
        log_g = float(psi_mpmath(beta + 1.0, a))
        got = fit_beta(SufficientStat(n_a=10, log_geo_mean=log_g), a).beta_emp
        assert abs(got - beta) <= tol / 4, (a, beta, got)


def test_huge_cutoff_fits_without_overflow():
    # zeta(s, 10^12) itself underflows double precision for s > ~25.6, which
    # the solver never evaluates: it works with a^s zeta(s, a).
    a = 10**12
    stat = sufficient_stat(IntegerSample([a, a + 1, a + 3, a + 5, a + 100, 2 * a]))
    beta = fit_beta(stat, a).beta_emp
    tol = MleConfig().beta_tol
    score = lambda b: float(psi_mpmath(b + 1.0, a)) - stat.log_geo_mean
    assert score(beta - tol) > 0.0 > score(beta + tol)


@pytest.mark.parametrize("a", [1, 3, 40])
def test_batch_solve_bit_identical_to_single(a):
    rng = np.random.default_rng(a)
    log_g = math.log(a) + rng.uniform(1e-3, 3.0, size=1000)
    log_g[::97] = math.log(a) + 1e5  # root below the lower bound
    beta, iterations, status = solve_betas(log_g, a)
    assert np.all(status[::97] == AT_BOUND)
    for i, x in enumerate(log_g):
        one_beta, one_iterations, one_status = solve_betas([x], a)
        assert one_status[0] == status[i]
        assert one_iterations[0] == iterations[i]
        assert one_beta[0] == beta[i]
    for i in np.flatnonzero(status == SOLVED)[:20]:
        stat = SufficientStat(n_a=5, log_geo_mean=log_g[i])
        assert fit_beta(stat, a).beta_emp == beta[i]


def _targets(beta, a):
    """ln G - ln a at which the likelihood equation's root is exactly beta."""
    z, z1, _ = mle.scaled_zeta(np.asarray(beta, dtype=np.float64) + 1.0, a, derivatives=True)
    return -z1 / z


@pytest.mark.parametrize("a", [1, 3, 1000, 10**9, 2**62])
def test_roots_take_one_evaluation_or_two_near_the_upper_bound(a):
    # the table start is within about 1e-7 of the root, so Newton's first
    # step meets the tolerance; a step that rounds back to the start ends
    # the search rather than bisecting away from it
    beta = np.geomspace(1e-4, 50.0, 2001)[1:-1]
    got, iterations, status = solve_betas(_targets(beta, a) + math.log(a), a)
    solved = status == SOLVED
    assert np.all(iterations <= 2)
    assert np.all(iterations[beta < 2.0] == 1)
    assert np.all(np.abs(got[solved] - beta[solved]) <= MleConfig().beta_tol / 4)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 2**62), log_beta=st.floats(math.log(1e-4), math.log(50.0)))
def test_table_start_is_near_the_root(a, log_beta):
    target = _targets([math.exp(log_beta)], a)
    start = mle._start(target, a, MleConfig().beta_bounds) - 1.0
    beta, _, status = solve_betas(target + math.log(a), a)
    assert abs(start[0] - beta[0]) <= 1e-6 * beta[0], (a, log_beta, status)


@pytest.mark.parametrize("a", [1, 10, 500])
def test_replica_refit_makes_at_most_two_kernel_calls(monkeypatch, a):
    # 1000 replicas of a corpus-like tail, beta = 1.13 and N_a = 40, refit
    # as a replica block is: one kernel call a Newton evaluation for the
    # whole batch, and the start table built once for the cutoff
    rows = sample_rows(SamplerParams(a, 1.13), 40, stream_starts(a, range(1000)))
    log_g = np.log(rows).mean(axis=1)
    log_g = log_g[~at_cutoff(log_g, a)]
    mle._start_table.cache_clear()
    calls = []
    kernel = mle.scaled_zeta

    def counting(s, *args, **kwargs):
        calls.append(np.size(s))
        return kernel(s, *args, **kwargs)

    monkeypatch.setattr(mle, "scaled_zeta", counting)
    beta, iterations, status = solve_betas(log_g, a)
    assert calls[0] == mle._TABLE_NODES  # the table's build
    assert 1 <= len(calls) - 1 <= 2
    assert np.all(status == SOLVED)
    assert iterations.mean() <= 1.1
    calls.clear()
    assert np.array_equal(solve_betas(log_g, a)[0], beta)
    assert 1 <= len(calls) <= 2  # the table is kept
