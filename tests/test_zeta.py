import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dplfit.distribution import PowerLawModel
from dplfit.mle import MleConfig
from dplfit.zeta import (
    BERNOULLI_EVEN,
    CORRECTIONS,
    MAX_HEAD_TERMS,
    em_start,
    hurwitz_zeta,
    scaled_zeta,
)

from oracles import correction_term, scaled_zeta_mpmath, zeta_bruteforce

GAMMAS = [1.1, 1.5, 2.0, 2.13, 3.0, 6.0]
AS = [1, 2, 5, 10, 100]

# Frozen from zeta_bruteforce(2.13, 1, terms=10**7); cross-checked against
# mpmath.zeta(2.13, 1) at 40 digits during development (agreement 9e-16).
ZETA_2_13_1 = 1.537917928025752


def test_analytic_zeta2():
    assert hurwitz_zeta(2.0, 1) == pytest.approx(math.pi**2 / 6, rel=1e-13)


def test_telescoping_exact_pair():
    assert hurwitz_zeta(2.0, 1) - hurwitz_zeta(2.0, 2) == pytest.approx(1.0, rel=1e-12)


def test_frozen_oracle_value():
    assert hurwitz_zeta(2.13, 1) == pytest.approx(ZETA_2_13_1, rel=1e-10)


@pytest.mark.parametrize("s", GAMMAS)
@pytest.mark.parametrize("a", AS)
def test_against_bruteforce(s, a):
    oracle = zeta_bruteforce(s, a, terms=10**6)
    assert abs(hurwitz_zeta(s, a) - oracle) / oracle < 1e-10


@pytest.mark.parametrize("s", GAMMAS)
@pytest.mark.parametrize("a", AS)
def test_telescoping_grid(s, a):
    lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1)
    rhs = float(a) ** -s
    assert abs(lhs - rhs) < 1e-12 * rhs


@given(
    s=st.floats(min_value=1.05, max_value=6.0),
    a=st.integers(min_value=1, max_value=1000),
)
def test_telescoping_property(s, a):
    # The identity's conditioning grows like zeta/a^-s, so the achievable
    # float64 error has a floor of a few ulp of the operands; allow it.
    lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1)
    rhs = float(a) ** -s
    floor = 16 * np.finfo(float).eps * hurwitz_zeta(s, a)
    assert abs(lhs - rhs) < 1e-12 * rhs + floor


def test_monotonic_in_exponent_and_start():
    for a in AS:
        vals = [hurwitz_zeta(s, a) for s in GAMMAS]
        assert all(x > y for x, y in zip(vals, vals[1:]))
    for s in GAMMAS:
        vals = [hurwitz_zeta(s, a) for a in [1, 2, 5, 10, 100, 1000]]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_positive_on_grid():
    for s in GAMMAS:
        for a in AS:
            assert hurwitz_zeta(s, a) > 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 1)
    with pytest.raises(ValueError):
        hurwitz_zeta(0.5, 1)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0)


def test_head_count_cap_refuses_huge_exponents_at_once():
    # the head loop runs about 1.7 s times: PowerLawModel(1, 1e7) took 51 s
    # and 1e300 never returned; past the cap each call fails at once
    refused = [
        lambda: hurwitz_zeta(1e300),
        lambda: hurwitz_zeta(1e308),
        lambda: hurwitz_zeta(math.inf),
        lambda: hurwitz_zeta(1e7, np.arange(1, 5)),
        lambda: scaled_zeta(np.array([2.0, 1e7]), 1),
        lambda: PowerLawModel(1, 1e7),
        lambda: PowerLawModel(1, 1e300),
        lambda: PowerLawModel(2**62, math.inf),
        lambda: MleConfig(beta_bounds=(1e-4, 1e7)),
        lambda: MleConfig(beta_bounds=(1e-4, math.inf)),
        lambda: MleConfig(beta_bounds=(1e-4, 1e301)),
        lambda: MleConfig(beta_bounds=(1e-4, 1.9e4)),
    ]
    for call in refused:
        start = time.perf_counter()
        with pytest.raises(ValueError):
            call()
        assert time.perf_counter() - start < 0.25
    # the cap is on an element's head count, not on s: a cutoff above N0
    # takes none, and the largest bound MleConfig accepts is summed
    assert em_start(1.8e4) - 1 < MAX_HEAD_TERMS < em_start(1.9e4) - 1
    assert scaled_zeta(1e7, 10**8) == pytest.approx(float(scaled_zeta_mpmath(1e7, 10**8)[0]),
                                                    rel=1e-14)
    assert MleConfig(beta_bounds=(1e-4, 1.8e4 - 1)).beta_bounds[1] == 1.8e4 - 1
    assert hurwitz_zeta(1.8e4) == 1.0


def test_array_input_matches_scalar():
    a = np.arange(1, 400)
    arr = hurwitz_zeta(2.13, a)
    for i in [0, 1, 9, 99, 398]:
        scalar = hurwitz_zeta(2.13, int(a[i]))
        assert arr[i] == pytest.approx(scalar, rel=5e-15)


def test_batch_matches_one_at_a_time_across_budgets():
    # elements with head counts from 0 to ~100 evaluated together give
    # bit for bit what each gives alone
    s = np.array([1.0001, 2.13, 2.13, 5.0, 20.0, 51.0, 51.0, 2.13, 1.13])
    a = np.array([1.0, 1.0, 14.0, 3.0, 45.0, 1.0, 2.0**63, 1e12, 9.0])
    batch = scaled_zeta(s, a, derivatives=True)
    for i in range(s.size):
        alone = scaled_zeta(s[i], a[i], derivatives=True)
        for got, want in zip(batch, alone):
            assert got[i] == want


@pytest.mark.parametrize("derivatives", [False, True])
def test_rows_index_exponents_bit_for_bit(derivatives):
    # element i of scaled_zeta(s, a, rows=r) is the kernel at s[r[i]],
    # whatever other elements share its exponent, and a scalar exponent
    # is one exponent for every element
    rng = np.random.default_rng(5)
    s = np.array([1.0001, 1.13, 2.13, 5.0, 51.0])
    rows = rng.integers(0, s.size, 400)
    a = np.concatenate([np.arange(1.0, 201.0), np.floor(np.geomspace(201, 2.0**62, 200))])
    # with derivatives, the (Z, Z', Z'') triple as one (3, n) array
    got = np.asarray(scaled_zeta(s, a, derivatives, rows=rows))
    assert np.array_equal(got, np.asarray(scaled_zeta(s[rows], a, derivatives)))
    assert np.array_equal(scaled_zeta(s, 7.0, derivatives, rows=[[4, 0], [2, 2]]),
                          scaled_zeta(s[[[4, 0], [2, 2]]], 7.0, derivatives))
    for i in range(s.size):
        assert np.array_equal(scaled_zeta(s[i], a, derivatives),
                              scaled_zeta(np.full(a.size, s[i]), a, derivatives))


def test_correction_term_closed_form():
    # C_1 = s / (2 (a+M)^(s+1)) at s=2, a=1, M=14
    assert correction_term(1, 2.0, 1, 14) == pytest.approx(1.0 / 3375.0, rel=1e-14)


def test_correction_term_recursion():
    c1 = correction_term(1, 2.0, 1, 14)
    c2 = correction_term(2, 2.0, 1, 14, prev=c1)
    assert c2 == pytest.approx(c1 * 12.0 / 2700.0, rel=1e-14)
    with pytest.raises(ValueError):
        correction_term(2, 2.0, 1, 14)
    with pytest.raises(ValueError):
        correction_term(0, 2.0, 1, 14)


# ------------------------------------------------------------- the budget

ULP = 2.0**-52
BOX_S = [1.0001, 1.13, 2.13, 5.0, 20.0, 51.0]


def _start(s):
    return math.ceil(float(em_start(s)))


def _remainder_bound(s, a, n):
    """Johansson's bound on the scaled remainder after CORRECTIONS
    corrections from N = n, 4 (s)_{2J-1} / (2 pi)^(2J) N^(1-2J) (a/N)^s,
    with the exact rising factorial."""
    j = CORRECTIONS
    log = (math.log(4.0) + math.fsum(math.log(s + i) for i in range(2 * j - 1))
           - 2 * j * math.log(2 * math.pi) + (1 - 2 * j) * math.log(n)
           + s * math.log(a / n))
    return math.exp(log)


@pytest.mark.parametrize("s", BOX_S + [1.5, 3.0, 8.5, 35.0, 200.0])
def test_budget_remainder_below_half_ulp(s):
    # N = max(a, N0) keeps the remainder below 2^-53 Z for every cutoff,
    # the worst case being a = N0 with no head term
    n0 = _start(s)
    for a in [1, 2, n0 - 1, n0, n0 + 1, 10 * n0, 10**12]:
        if a < 1:
            continue
        z = float(scaled_zeta_mpmath(s, a)[0])
        assert _remainder_bound(s, a, max(a, n0)) <= 2.0**-53 * z


@pytest.mark.parametrize("s", BOX_S + [1.5, 3.0, 8.5, 35.0, 200.0])
def test_budget_start_is_near_the_least_sufficient(s):
    # the AM-GM bound on (s)_{2J-1} costs at most a quarter more head terms
    # than the exact bound would ask for at a = N
    least = 1
    while _remainder_bound(s, least, least) > 2.0**-53 * max(1.0, least / (s - 1.0)):
        least += 1
    assert least <= _start(s) <= 1.25 * least + 1


def test_no_head_terms_from_the_start():
    # at a >= N0 the sum is the tail alone: a/(s-1) + 1/2 + corrections
    for s in [1.13, 2.13, 20.0]:
        for a in [_start(s), _start(s) + 1, 10**6]:
            terms, c = [], None
            for k in range(1, CORRECTIONS + 1):
                c = correction_term(k, s, a, 0, prev=c)
                terms.append(BERNOULLI_EVEN[k - 1] * c * a**s)
            expected = math.fsum([a / (s - 1.0), 0.5] + terms)
            assert scaled_zeta(s, float(a)) == pytest.approx(expected, rel=4 * ULP)


@pytest.mark.parametrize("s", BOX_S)
def test_kernel_against_high_precision_over_the_box(s):
    # Z, dZ/ds and d2Z/ds2 within a few ulp of the 50-digit Euler-Maclaurin
    # sum.  A head term exp(-s log1p(k/a)) carries a few ulp of its
    # exponent s log1p(k/a), so the bound adds a few ulp of s times the
    # next derivative's head part, H_{d+1} = sum_{0<k<M} t_k log1p(k/a)^(d+1).
    n0 = _start(s)
    for a in [1, 2, n0 - 1, n0, n0 + 1, 10**3, 10**12, 2**63 - 1]:
        heads = max(0, math.ceil(float(em_start(s)) - a))
        k = np.arange(1, max(heads, 1), dtype=np.float64)
        ell = np.log1p(k / a)
        t = np.exp(-s * ell)
        got = scaled_zeta(s, float(a), derivatives=True)
        want = scaled_zeta_mpmath(s, a)
        for d in range(3):
            head = float(np.sum(t * ell ** (d + 1)))
            err = abs(float(want[d] - got[d]))
            assert err <= 4 * ULP * (abs(float(want[d])) + s * head), (s, a, d)


def test_bernoulli_table():
    assert BERNOULLI_EVEN[:4] == (1 / 6, -1 / 30, 1 / 42, -1 / 30)
    assert len(BERNOULLI_EVEN) == CORRECTIONS
    sympy = pytest.importorskip("sympy")
    for k, value in enumerate(BERNOULLI_EVEN, start=1):
        assert value == float(sympy.bernoulli(2 * k))
