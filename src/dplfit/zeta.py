"""Hurwitz zeta via Euler-Maclaurin summation with Bernoulli corrections.

The sum zeta(s, a) = sum_{k>=0} (a+k)^-s is evaluated as a short direct
sum of ``head_terms`` terms, the integral of the remainder, half the
boundary term, and a series of Bernoulli-number corrections

    B_2k * C_{2k-1},   C_1 = s / (2 (a+M)^(s+1)),
    C_{2k-1} = C_{2k-3} * (s+2k-2)(s+2k-3) / (2k (2k-1) (a+M)^2),

where M = ``head_terms``.  The correction series is asymptotic: it is
accumulated only while the term magnitudes keep strictly decreasing, and
truncated at the first term that turns back up.  With the default
M = 14 the terms still decrease at k = 18 for every exponent this
package can produce (s <= 51), so the turnover matters only for small M.

There is one kernel, ``scaled_zeta``.  It takes every term relative to
a^-s, so it returns Z(s, a) = a^s zeta(s, a), which is of order
a/(s-1) + 1 and neither overflows nor underflows for any cutoff;
``hurwitz_zeta`` is a^-s Z(s, a) for scalar and array a alike.
Differentiated term by term (Johansson, "Rigorous high-precision
computation of the Hurwitz zeta function and its derivatives",
arXiv:1309.2877) the same sum gives dZ/ds and d2Z/ds2, from which the
likelihood equation is solved.
"""

from fractions import Fraction

import numpy as np

# B_2, B_4, ..., B_36 as exact rationals, rendered once to float64.
BERNOULLI_EVEN = tuple(
    float(Fraction(p, q))
    for p, q in [
        (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
        (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
        (854513, 138), (-236364091, 2730), (8553103, 6),
        (-23749461029, 870), (8615841276005, 14322),
        (-7709321041217, 510), (2577687858367, 6),
        (-26315271553053477373, 1919190),
    ]
)

DEFAULT_HEAD_TERMS = 14
DEFAULT_MAX_CORRECTIONS = 18


def scaled_zeta(s, a, derivatives=False, head_terms=DEFAULT_HEAD_TERMS,
                max_corrections=DEFAULT_MAX_CORRECTIONS):
    """Z(s, a) = a^s zeta(s, a), elementwise over arrays s > 1 and a >= 1.

    Each term is taken relative to a^-s: the head terms are
    exp(-s log1p(k/a)) and the tail terms carry exp(-s log1p(M/a)).  The
    correction series is truncated per element at its turnover.  With
    ``derivatives`` the result is the triple (Z, dZ/ds, d2Z/ds2), each
    term differentiated in closed form.

    Every operation is elementwise and the terms are added in a fixed
    order, so an element's value does not depend on the other elements
    it is evaluated with.  The arguments are not validated.
    """
    s = np.asarray(s, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    shape = np.broadcast_shapes(s.shape, a.shape)
    z = np.ones(shape)  # the k = 0 head term
    if derivatives:
        z1 = np.zeros(shape)
        z2 = np.zeros(shape)
    for k in range(1, head_terms):
        ell = np.log1p(k / a)
        t = np.exp(-s * ell)
        z += t
        if derivatives:
            t *= ell
            z1 -= t
            z2 += t * ell

    am = a + head_terms
    ell = np.log1p(head_terms / a)
    e = np.exp(-s * ell)
    inv_sm1 = 1.0 / (s - 1.0)
    integral = am * e * inv_sm1
    half = 0.5 * e
    z += integral + half
    if derivatives:
        rate = ell + inv_sm1
        z1 -= integral * rate + half * ell
        z2 += integral * (rate * rate + inv_sm1 * inv_sm1) + half * (ell * ell)

    c = 0.5 * s * e / am
    term = BERNOULLI_EVEN[0] * c
    corr = term.copy()
    prev = np.abs(term)
    alive = np.ones(shape, dtype=bool)
    inv_am2 = 1.0 / (am * am)
    if derivatives:
        # d/ds ln C_{2j-1} = sum_{i<2j-1} 1/(s+i) - ell; d2/ds2 = -sum 1/(s+i)^2
        dlog = 1.0 / s - ell
        d2log = -1.0 / (s * s)
        corr1 = term * dlog
        corr2 = term * (dlog * dlog + d2log)
    for j in range(2, max_corrections + 1):
        c = c * ((s + 2 * j - 2.0) * (s + 2 * j - 3.0) / (2 * j * (2 * j - 1.0))) * inv_am2
        term = BERNOULLI_EVEN[j - 1] * c
        mag = np.abs(term)
        alive &= mag < prev
        prev = mag
        term = np.where(alive, term, 0.0)
        corr += term
        if derivatives:
            u = 1.0 / (s + 2 * j - 3.0)
            v = 1.0 / (s + 2 * j - 2.0)
            dlog = dlog + (u + v)
            d2log = d2log - (u * u + v * v)
            corr1 += term * dlog
            corr2 += term * (dlog * dlog + d2log)
    z += corr
    if not derivatives:
        return z
    z1 += corr1
    z2 += corr2
    return z, z1, z2


def hurwitz_zeta(s, a=1, head_terms=DEFAULT_HEAD_TERMS,
                 max_corrections=DEFAULT_MAX_CORRECTIONS):
    """Evaluate zeta(s, a) = sum_{k>=0} (a+k)^-s for s > 1, integer a >= 1.

    ``a`` may be a scalar, which returns a float, or an array, which
    returns an array evaluated elementwise; either way the value is
    a^-s Z(s, a) from ``scaled_zeta``.  Values below the floating-point
    range come out as 0 or subnormal.
    """
    s = float(s)
    if not s > 1.0:
        raise ValueError(f"zeta exponent must exceed 1, got {s}")
    if head_terms < 1 or max_corrections < 1:
        raise ValueError("head_terms and max_corrections must be >= 1")
    if max_corrections > len(BERNOULLI_EVEN):
        raise ValueError(
            f"at most {len(BERNOULLI_EVEN)} correction terms are tabulated"
        )
    a = np.asarray(a)
    if a.size and (a.min() < 1 or np.any(a % 1 != 0)):
        raise ValueError("lower limits must be positive integers")
    a = a.astype(np.float64)
    out = a ** -s * scaled_zeta(s, a, head_terms=head_terms,
                                max_corrections=max_corrections)
    return float(out) if out.ndim == 0 else out
