"""Hurwitz zeta via Euler-Maclaurin summation with Bernoulli corrections.

The sum zeta(s, a) = sum_{k>=0} (a+k)^-s is evaluated as a direct sum of
M head terms, the integral of the rest from N = a+M, half the boundary
term, and J = 8 Bernoulli corrections

    B_2j C_{2j-1},   C_1 = s / (2 N^(s+1)),
    C_{2j-1} = C_{2j-3} (s+2j-2)(s+2j-3) / (2j (2j-1) N^2).

For real s > 1 the remainder is at most 4 (s)_{2J-1} (2 pi)^-2J N^(1-s-2J),
(s)_k the rising factorial (Johansson, "Rigorous high-precision
computation of the Hurwitz zeta function and its derivatives",
arXiv:1309.2877, Theorem 1).  Each element takes M = max(0, ceil(N0 - a))
head terms, N0 = ``em_start(s)``, which keeps that below 2^-53 zeta(s, a);
a cutoff at or above N0 (about 14 at s = 2.13) needs no head term.

There is one kernel, ``scaled_zeta``.  It takes every term relative to
a^-s, so it returns Z(s, a) = a^s zeta(s, a), which is of order
a/(s-1) + 1 and neither overflows nor underflows for any cutoff;
``hurwitz_zeta`` is a^-s Z(s, a) for scalar and array a alike.
Differentiated term by term the same sum gives dZ/ds and d2Z/ds2, from
which the likelihood equation is solved.
"""

import math
from fractions import Fraction

import numpy as np

# B_2, B_4, ..., B_16 as exact rationals, rendered once to float64.
BERNOULLI_EVEN = tuple(
    float(Fraction(p, q))
    for p, q in [
        (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
        (7, 6), (-3617, 510),
    ]
)
CORRECTIONS = len(BERNOULLI_EVEN)


def em_start(s):
    """N0(s): from N = max(a, N0) the remainder is below 2^-53 Z(s, a).

    Relative to Z(s, a) >= a/(s-1), with a <= N and the AM-GM bound
    (s)_{2J-1} <= (s+J-1)^(2J-1), the remainder is at most
    4 (s-1) (s+J-1)^(2J-1) / (2 pi N)^(2J); N0 is where that is 2^-53.
    """
    s = np.asarray(s, dtype=np.float64)
    q = s + (CORRECTIONS - 1.0)
    root = 4.0 * (s - 1.0) / (q * 2.0 ** -53)
    for _ in range(4):  # the 2J = 16th root
        root = np.sqrt(root)
    return q * root / (2.0 * math.pi)


def scaled_zeta(s, a, derivatives=False):
    """Z(s, a) = a^s zeta(s, a), elementwise over arrays s > 1 and a >= 1.

    Each term is taken relative to a^-s: the head terms are
    exp(-s log1p(k/a)) and the tail terms carry exp(-s log1p(M/a)), which
    is 1 when M = 0.  With ``derivatives`` the result is the triple
    (Z, dZ/ds, d2Z/ds2), each term differentiated in closed form.

    An element's head count depends on its own (s, a) only, every
    operation is elementwise and the terms are added in a fixed order, so
    an element's value does not depend on the other elements it is
    evaluated with.  The arguments are not validated.
    """
    shape = np.broadcast_shapes(np.shape(s), np.shape(a))
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), shape).ravel()
    a = np.broadcast_to(np.asarray(a, dtype=np.float64), shape).ravel()
    m = np.maximum(np.ceil(em_start(s) - a), 0.0)
    z = (m > 0).astype(np.float64)  # the k = 0 head term
    if derivatives:
        z1 = np.zeros(s.size)
        z2 = np.zeros(s.size)
    live = np.flatnonzero(m > 1)
    for k in range(1, int(m.max(initial=0.0))):
        live = live[m[live] > k]
        ell = np.log1p(k / a[live])
        t = np.exp(-s[live] * ell)
        z[live] += t
        if derivatives:
            t *= ell
            z1[live] -= t
            z2[live] += t * ell

    n = a + m
    ell = np.zeros(s.size)
    e = np.ones(s.size)
    head = np.flatnonzero(m)
    ell[head] = np.log1p(m[head] / a[head])
    e[head] = np.exp(-s[head] * ell[head])
    inv_sm1 = 1.0 / (s - 1.0)
    integral = n * e * inv_sm1
    half = 0.5 * e
    z += integral + half
    if derivatives:
        rate = ell + inv_sm1
        z1 -= integral * rate + half * ell
        z2 += integral * (rate * rate + inv_sm1 * inv_sm1) + half * (ell * ell)

    c = 0.5 * s * e / n
    term = BERNOULLI_EVEN[0] * c
    corr = term.copy()
    inv_n2 = 1.0 / (n * n)
    if derivatives:
        # d/ds ln C_{2j-1} = sum_{i<2j-1} 1/(s+i) - ell; d2/ds2 = -sum 1/(s+i)^2
        dlog = 1.0 / s - ell
        d2log = -1.0 / (s * s)
        corr1 = term * dlog
        corr2 = term * (dlog * dlog + d2log)
    for j in range(2, CORRECTIONS + 1):
        c = c * ((s + 2 * j - 2.0) * (s + 2 * j - 3.0) / (2 * j * (2 * j - 1.0))) * inv_n2
        term = BERNOULLI_EVEN[j - 1] * c
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
        return z.reshape(shape)
    z1 += corr1
    z2 += corr2
    return z.reshape(shape), z1.reshape(shape), z2.reshape(shape)


def hurwitz_zeta(s, a=1):
    """Evaluate zeta(s, a) = sum_{k>=0} (a+k)^-s for s > 1, integer a >= 1.

    ``a`` may be a scalar, which returns a float, or an array, which
    returns an array evaluated elementwise; either way the value is
    a^-s Z(s, a) from ``scaled_zeta``.  Values below the floating-point
    range come out as 0 or subnormal.
    """
    s = float(s)
    if not s > 1.0:
        raise ValueError(f"zeta exponent must exceed 1, got {s}")
    a = np.asarray(a)
    if a.size and (a.min() < 1 or np.any(a % 1 != 0)):
        raise ValueError("lower limits must be positive integers")
    out = a.astype(np.float64) ** -s * scaled_zeta(s, a)
    return float(out) if out.ndim == 0 else out
