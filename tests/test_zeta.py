import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dplfit.zeta import (
    BERNOULLI_EVEN,
    DEFAULT_HEAD_TERMS,
    DEFAULT_MAX_CORRECTIONS,
    hurwitz_zeta,
)

from oracles import correction_term, zeta_bruteforce

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
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1, head_terms=0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1, max_corrections=19)


def test_array_input_matches_scalar():
    a = np.arange(1, 400)
    arr = hurwitz_zeta(2.13, a)
    for i in [0, 1, 9, 99, 398]:
        scalar = hurwitz_zeta(2.13, int(a[i]))
        assert arr[i] == pytest.approx(scalar, rel=5e-15)


def test_array_input_matches_scalar_with_early_stop():
    # small head_terms makes the truncation rule bite; both paths must
    # truncate identically
    a = np.arange(1, 30)
    for s in [2.0, 3.0, 6.0]:
        arr = hurwitz_zeta(s, a, head_terms=1)
        for i in [0, 1, 5, 28]:
            scalar = hurwitz_zeta(s, int(a[i]), head_terms=1)
            assert arr[i] == pytest.approx(scalar, rel=5e-15)


def test_correction_term_closed_form():
    # C_1 = s / (2 (a+M)^(s+1)) at s=2, a=1, M=14
    assert correction_term(1, 2.0, 1) == pytest.approx(1.0 / 3375.0, rel=1e-14)


def test_correction_term_recursion():
    c1 = correction_term(1, 2.0, 1)
    c2 = correction_term(2, 2.0, 1, prev=c1)
    assert c2 == pytest.approx(c1 * 12.0 / 2700.0, rel=1e-14)
    with pytest.raises(ValueError):
        correction_term(2, 2.0, 1)
    with pytest.raises(ValueError):
        correction_term(0, 2.0, 1)


def _correction_chain(s, a, head_terms, count=DEFAULT_MAX_CORRECTIONS):
    terms, c = [], None
    for k in range(1, count + 1):
        c = correction_term(k, s, a, head_terms, prev=c)
        terms.append(BERNOULLI_EVEN[k - 1] * c)
    return terms


def test_no_turnover_at_default_head_terms():
    # With M = 14 the correction terms still shrink at k = 18 for every
    # exponent in range, so the full 18-term sum is what gets used.
    mags = [abs(t) for t in _correction_chain(3.0, 1, DEFAULT_HEAD_TERMS)]
    assert all(x > y for x, y in zip(mags, mags[1:]))
    assert int(np.argmin(mags)) == DEFAULT_MAX_CORRECTIONS - 1


def test_early_stop_at_small_head_terms():
    # With M = 1 the series turns back up within the 18 tabulated terms.
    terms = _correction_chain(3.0, 1, head_terms=1)
    mags = [abs(t) for t in terms]
    turn = int(np.argmin(mags))
    assert turn < DEFAULT_MAX_CORRECTIONS - 1

    head_int_half = (
        1.0  # the single head term at a=1: 1^-s
        + 2.0 ** (1.0 - 3.0) / 2.0
        + 0.5 * 2.0**-3.0
    )
    truncated = head_int_half + math.fsum(terms[: turn + 1])
    full = head_int_half + math.fsum(terms)
    oracle = zeta_bruteforce(3.0, 1, terms=10**6)
    assert abs(hurwitz_zeta(3.0, 1, head_terms=1) - oracle) <= abs(full - oracle)
    assert abs(truncated - oracle) <= abs(full - oracle)


def test_early_stop_tracks_minimum_term():
    # The implementation keeps exactly the strictly-decreasing prefix.
    for s in [2.0, 3.0, 6.0]:
        for m in [1, 2, 3]:
            terms = _correction_chain(s, 1, head_terms=m)
            mags = [abs(t) for t in terms]
            kept = [terms[0]]
            for prev, cur in zip(mags, mags[1:]):
                if cur >= prev:
                    break
                kept.append(terms[len(kept)])
            head = math.fsum(float(1 + k) ** -s for k in range(m))
            am = 1.0 + m
            expected = math.fsum(
                [head, am ** (1.0 - s) / (s - 1.0), 0.5 * am**-s] + kept
            )
            assert hurwitz_zeta(s, 1, head_terms=m) == pytest.approx(
                expected, rel=1e-15, abs=1e-300
            )


def test_bernoulli_table():
    assert BERNOULLI_EVEN[:4] == (1 / 6, -1 / 30, 1 / 42, -1 / 30)
    assert len(BERNOULLI_EVEN) == 18
    sympy = pytest.importorskip("sympy")
    for k, value in enumerate(BERNOULLI_EVEN, start=1):
        assert value == float(sympy.bernoulli(2 * k))
