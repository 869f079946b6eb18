"""Acceptance gate: one test per criterion, each at its stated tolerance.

A summary line per criterion is printed at the end of the pytest run
(see conftest).  Criteria 5 and 6 are Monte Carlo calibrations and carry
the bulk of the runtime; criterion 6 derives its pass bar from the 0.20
selection rule (see its docstring) rather than from the observed outcome.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, chi2

from dplfit.cli import InputSpec, ingest, run_scan
from dplfit.distribution import IntegerSample, PowerLawModel, sufficient_stat
from dplfit.ks import ks_statistic
from dplfit.mle import fit_beta
from dplfit.pipeline import ScanConfig, fit_at_a, scan
from dplfit.sampling import (
    RngStream,
    SamplerParams,
    accept_test,
    acceptance_ratio,
    sample_n,
)
from dplfit.zeta import hurwitz_zeta

from oracles import ks_exhaustive, zeta_bruteforce

GAMMA_GRID = [1.1, 1.5, 2.0, 2.13, 3.0, 6.0]
A_GRID = [1, 2, 5, 10, 100]

WORKERS = min(2, os.cpu_count() or 1)


def test_criterion_1_zeta_accuracy():
    worst_rel = 0.0
    worst_tel = 0.0
    for s in GAMMA_GRID:
        for a in A_GRID:
            oracle = zeta_bruteforce(s, a, terms=10**7)
            got = hurwitz_zeta(s, a)
            worst_rel = max(worst_rel, abs(got - oracle) / oracle)
            tel = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1)
            worst_tel = max(worst_tel, abs(tel - float(a) ** -s) / float(a) ** -s)
    print(f"criterion 1: worst zeta rel err {worst_rel:.3e}, "
          f"worst telescoping rel err {worst_tel:.3e}")
    assert worst_rel <= 1e-10
    assert worst_tel <= 1e-12


def _fit_one_dataset(rep):
    sample = sample_n(SamplerParams(1, 1.5), 10**4, RngStream(1751, rep))
    return fit_beta(sufficient_stat(sample), 1).beta_emp


def test_criterion_2_estimator_recovery():
    betas = np.array([_fit_one_dataset(rep) for rep in range(200)])
    mean, std = float(betas.mean()), float(betas.std(ddof=1))
    print(f"criterion 2: mean beta {mean:.4f} (target 1.5 +- 0.01), "
          f"sample std {std:.4f} (band 0.012..0.018)")
    assert abs(mean - 1.5) < 0.01
    assert 0.8 * 0.015 <= std <= 1.2 * 0.015


def test_criterion_3_sampler_exactness():
    params = SamplerParams(1, 1.0)
    model = PowerLawModel(1, 1.0)
    sample = sample_n(params, 10**6, RngStream(3310, 0))
    values = np.repeat(sample.unique_values, sample.unique_counts)
    edges = np.arange(1, 31)
    obs = np.array([np.count_nonzero(values == n) for n in edges]
                   + [np.count_nonzero(values >= 31)])
    expected = np.array([model.pmf(int(n)) for n in edges]
                        + [model.survival(31)]) * sample.size
    stat = float(((obs - expected) ** 2 / expected).sum())
    crit = float(chi2.ppf(0.99, 30))
    print(f"criterion 3: chi2 {stat:.1f} vs critical {crit:.1f} (df=30, level 0.01)")
    assert stat < crit

    # simplified accept condition vs the explicit ratio, high-precision oracle
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3311)
    worst = 0.0
    for _ in range(200):
        a = int(rng.integers(1, 500))
        beta = float(rng.uniform(0.1, 6.0))
        y = a + int(rng.integers(0, 10**4))
        p = SamplerParams(a, beta)
        with mpmath.workdps(50):
            A, B, Y = mpmath.mpf(a), mpmath.mpf(beta), mpmath.mpf(y)
            q = lambda t: (A / t) ** B - (A / (t + 1)) ** B
            exact = float((A / Y) ** (B + 1) * q(A) / q(Y))
        # threshold of the simplified condition v*y*(t_y-1)*t_a <= a*t_y*(t_a-1)
        tau_m1 = math.expm1(beta * math.log1p(1.0 / y))
        thr = a * (1.0 + tau_m1) * p.ta_minus_1 / (y * tau_m1 * (1.0 + p.ta_minus_1))
        worst = max(worst, abs(thr - exact) / exact,
                    abs(acceptance_ratio(p, y) - exact) / exact)
        v = float(rng.uniform(0, 1))
        if abs(v - exact) > 1e-9 * exact:
            assert accept_test(p, y, v) == (v <= exact)
    print(f"criterion 3: worst |simplified - ratio| rel err {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_4_ks_oracle_equivalence():
    rng = np.random.default_rng(4400)
    worst = 0.0
    for rep in range(1000):
        size = int(rng.integers(1, 201))
        kind = rep % 3
        if kind == 0:
            sim = sample_n(SamplerParams(1, float(rng.uniform(0.8, 3.0))),
                           size, RngStream(4401, rep))
            values = np.repeat(sim.unique_values, sim.unique_counts)
            values = np.minimum(values, 10**4)
        elif kind == 1:
            values = rng.integers(1, 60, size=size)
        else:
            values = rng.geometric(0.25, size=size)
        sample = IntegerSample(values)
        a = int(values.min())
        model = PowerLawModel(a, float(rng.uniform(0.3, 3.5)))
        d = ks_statistic(sample, model).d
        d_oracle, _ = ks_exhaustive(sample, model)
        worst = max(worst, abs(d - d_oracle))
    print(f"criterion 4: worst |ks - exhaustive oracle| {worst:.3e} over 1000 samples")
    assert worst <= 1e-14


def _self_consistency_rep(rep):
    data = sample_n(SamplerParams(1, 1.5), 10**4, RngStream(5150, rep))
    fit = fit_at_a(data, 1, 100, seed=5151 + rep)
    return fit.p.p


@pytest.mark.slow
def test_criterion_5_test_calibration():
    """Data simulated from the model, tested at the true cutoff: p must be
    close to uniform, so rejection at the 0.05 level happens ~5% of the
    time.  99% binomial band for 400 repetitions: [2.5%, 8.5%]."""
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        ps = np.array(list(pool.map(_self_consistency_rep, range(400), chunksize=8)))
    rejections = int((ps <= 0.05).sum())
    rate = rejections / 400.0
    print(f"criterion 5: rejection rate {rate:.3f} ({rejections}/400), "
          f"band [0.025, 0.085]")
    assert 0.025 <= rate <= 0.085


def _a1_selection_rate(n_sim, p_threshold):
    """P(a*=1) for data drawn from the model, from the selection rule alone.

    a*=1 exactly when p = n_exceed/n_sim at a=1 exceeds the threshold.  At
    the true cutoff the empirical distance and the n_sim replica distances
    are exchangeable, so n_exceed is uniform on {0, ..., n_sim}; the rate is
    the share of those values that the rule accepts.
    """
    accepted = sum(1 for k in range(n_sim + 1) if k / n_sim > p_threshold)
    return accepted / (n_sim + 1)


@pytest.mark.slow
def test_criterion_6_cutoff_scan_smoke():
    """Reduced (10-repetition) version of: scan on pure power-law data
    (a=1, beta=1.13, N=22035, n_sim=1000) returns a*=1 in >=95/100 runs.

    The >=95% wording cannot hold for a faithful implementation: a*=1
    exactly when the p-value at a=1 exceeds the selection threshold 0.20,
    and that p-value is uniform for data drawn from the model (that
    uniformity is criterion 5), so P(a*=1) = P(p > 0.20) = 800/1001 ~= 0.80.
    Measured over 300 independent runs at n_sim=1000: 0.787 +- 0.024,
    while P(p > 0.05) = 0.947 +- 0.013.  The >=95% figure matches a 0.05
    threshold, not the 0.20 selection rule; scripts/scan_repetitions.py
    measures the long-run rate at any threshold (see also the README).

    The pass bar is therefore derived from the 0.20 rule before any outcome
    is seen: the 1% lower quantile of Binomial(10, 800/1001), which is 5
    hits (a correct implementation fails with probability 0.65%).  Each run
    also checks that cutoff 1 was tested, that a*=1 coincides with the
    p-value at a=1 exceeding the threshold, and that beta* lies within
    4 sigma* of 1.13.  sigma* = beta/sqrt(N_a) understates the true standard
    deviation at a=1 by ~7% (the Fisher information d^2/ds^2 ln zeta(s, 1)
    at s=2.13 is 0.674, against 1/beta^2 = 0.783), so 4 sigma* is still
    ~3.7 true standard deviations.
    """
    reps, n_sim, beta = 10, 1000, 1.13
    p_threshold = ScanConfig().p_threshold
    rate = _a1_selection_rate(n_sim, p_threshold)
    min_hits = int(binom.ppf(0.01, reps, rate))

    hits = 0
    outcomes = []
    for rep in range(reps):
        data = sample_n(SamplerParams(1, beta), 22035, RngStream(6000 + rep, 0))
        result = scan(data, ScanConfig(n_sim=n_sim, seed=61000 + rep, workers=WORKERS))
        outcomes.append(result.a_star)
        hits += result.a_star == 1
        first = result.fits[0]
        assert first.a == 1, f"rep {rep}: cutoff 1 was not tested (first fit at a={first.a})"
        assert (result.a_star == 1) == (first.p.p > p_threshold), (
            f"rep {rep}: a*={result.a_star} but p(a=1)={first.p.p} "
            f"against threshold {p_threshold}"
        )
        if result.a_star is not None:
            assert abs(result.beta_star - beta) <= 4 * result.sigma_star, (
                f"rep {rep}: beta*={result.beta_star} is more than 4 sigma* "
                f"({result.sigma_star}) from {beta} at a*={result.a_star}"
            )
    print(f"criterion 6: a* values over {reps} repetitions: {outcomes} -> "
          f"{hits}/{reps} equal 1 (expected rate {rate:.3f}, bar {min_hits})")
    assert hits >= min_hits, (
        f"a*=1 in {hits}/{reps} repetitions, below the 1% lower quantile "
        f"{min_hits} of Binomial({reps}, {rate:.3f}); P(a*=1) = "
        f"P(p > {p_threshold}) for data drawn from the model (see docstring "
        "and scripts/scan_repetitions.py)"
    )


NOVEL_PATH = os.environ.get(
    "DPLFIT_NOVEL", str(Path(__file__).resolve().parent.parent / "data" / "seitseman_veljesta.txt")
)


@pytest.mark.slow
def test_criterion_7_word_frequency_reproduction():
    """Soft criterion, data permitting: token count within 10% of 8.1e4,
    a*=1 and beta* within 0.05 of 1.13 on the public-domain novel."""
    if not Path(NOVEL_PATH).exists():
        pytest.skip(
            f"corpus not available at {NOVEL_PATH}; fetch it with "
            "scripts/fetch_novel.py (needs network) or point DPLFIT_NOVEL at it"
        )
    spec = InputSpec(NOVEL_PATH, "corpus")
    sample = ingest(spec)
    from dplfit.cli import tokenize_text

    tokens = len(tokenize_text(Path(NOVEL_PATH).read_text(encoding="utf-8")))
    types = sample.size
    record = run_scan(spec, ScanConfig(n_sim=1000, seed=7700, workers=WORKERS))
    doc = record.document["scan"]
    print(f"criterion 7: {tokens} tokens, {types} types, a*={doc['a_star']}, "
          f"beta*={doc['beta_star']}")
    print("criterion 7: deviations from the published 8.1e4/22035/1.13 stem "
          "from edition and tokenizer differences")
    assert abs(tokens - 8.1e4) <= 0.10 * 8.1e4
    assert doc["a_star"] == 1
    assert abs(doc["beta_star"] - 1.13) <= 0.05


def test_criterion_8_determinism(tmp_path):
    sample = sample_n(SamplerParams(1, 1.4), 700, RngStream(88, 0))
    data_file = tmp_path / "data.txt"
    values = np.repeat(sample.unique_values, sample.unique_counts)
    data_file.write_text("\n".join(map(str, values.tolist())) + "\n",
                         encoding="utf-8")
    config = ScanConfig(a_values=(1, 2, 3), n_sim=100, seed=4242)
    spec = InputSpec(str(data_file))
    one = run_scan(spec, config).to_json().encode()
    two = run_scan(spec, config).to_json().encode()
    print(f"criterion 8: report of {len(one)} bytes, byte-identical: {one == two}")
    assert one == two
