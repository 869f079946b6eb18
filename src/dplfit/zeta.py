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
a cutoff at or above N0 (about 14 at s = 2.13) needs no head term.  N0
grows as about 1.7 s, and an element that needs more than
``MAX_HEAD_TERMS`` head terms (s above about 1.9e4 at a = 1) is refused
with ``ValueError`` rather than summed.

There is one kernel, ``scaled_zeta``.  It takes every term relative to
a^-s, so it returns Z(s, a) = a^s zeta(s, a), which is of order
a/(s-1) + 1 and neither overflows nor underflows for any cutoff;
``hurwitz_zeta`` is a^-s Z(s, a) for scalar and array a alike.
Differentiated term by term the same sum gives dZ/ds and d2Z/ds2, from
which the likelihood equation is solved.

Relative to a^-s the corrections are (a/N)^s / N sum_j c_j(s) N^(2-2j),
c_j(s) = B_2j (s)_{2j-1} / (2j)!.  The coefficients c_j and N0 depend on
the exponent alone, so they are computed once per exponent, and the sum
is taken by Horner's rule in 1/N^2.  Many elements can share one
exponent (the ``rows`` argument): a KS pass evaluates the kernel at
many values of one replica, at that replica's fitted exponent.
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

# The most head terms the kernel takes for one element: a loop of this
# length takes about 0.3 s.
MAX_HEAD_TERMS = 1 << 15


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


def _coefficients(s, derivatives):
    """The corrections' coefficients B_2j (s)_{2j-1} / (2j)!, j = 1..J, of
    each exponent of the 1-d ``s``, as a (1, J, s.size) array; with
    ``derivatives`` (3, J, s.size), their first and second s-derivatives
    after them."""
    c = np.empty((3 if derivatives else 1, CORRECTIONS, s.size))
    r = 0.5 * s  # (s)_{2j-1} / (2j)!
    if derivatives:
        # d/ds ln (s)_{2j-1} = sum_{i<2j-1} 1/(s+i); d2/ds2 = -sum 1/(s+i)^2
        dlog = 1.0 / s
        d2log = dlog * dlog  # minus the second derivative
    for j in range(CORRECTIONS):
        if j:
            u = s + (2 * j - 1.0)
            v = s + 2.0 * j
            r = r * (u * v / ((2 * j + 1.0) * (2 * j + 2)))
            if derivatives:
                u = 1.0 / u
                v = 1.0 / v
                dlog = dlog + (u + v)
                d2log = d2log + (u * u + v * v)
        c[0, j] = BERNOULLI_EVEN[j] * r
        if derivatives:
            c[1, j] = c[0, j] * dlog
            c[2, j] = c[0, j] * (dlog * dlog - d2log)
    return c


def _horner(c, rows, w):
    """sum_j c[j][rows] w^j, by Horner's rule from the last coefficient.
    Each element's coefficients are gathered one row at a time, so no
    temporary is larger than ``w``."""
    p = c[-1][rows] * w
    for cj in c[-2:0:-1]:
        p += cj[rows]
        p *= w
    p += c[0][rows]
    return p


def scaled_zeta(s, a, derivatives=False, rows=None):
    """Z(s, a) = a^s zeta(s, a), elementwise over arrays s > 1 and a >= 1.

    Each term is taken relative to a^-s: the head terms are
    exp(-s log1p(k/a)) and the tail terms carry exp(-s log1p(M/a)), which
    is 1 when M = 0.  With ``derivatives`` the result is the triple
    (Z, dZ/ds, d2Z/ds2), each term differentiated in closed form.

    With ``rows``, ``s`` is a 1-d array of exponents and element i is
    Z(s[rows[i]], a[i]), over the broadcast of ``rows`` and ``a``; without
    it each element of the broadcast of ``s`` and ``a`` is its own
    exponent.  What depends on the exponent alone, N0(s) and the
    corrections' coefficients, is computed once per exponent, and the
    corrections are summed by Horner's rule in 1/N^2.

    An element's head count depends on its own (s, a) only, every
    operation is elementwise and the terms are added in a fixed order, so
    an element's value does not depend on the other elements it is
    evaluated with, nor on whether its exponent comes through ``rows``.
    The arguments are not validated, except that an element needing more
    than ``MAX_HEAD_TERMS`` head terms raises ``ValueError``.
    """
    if rows is None and np.ndim(s) == 0:
        s, rows = [s], 0  # one exponent for every element
    if rows is None:
        shape = np.broadcast_shapes(np.shape(s), np.shape(a))
        s = np.broadcast_to(np.asarray(s, dtype=np.float64), shape).ravel()
        rows = slice(None)
    else:
        shape = np.broadcast_shapes(np.shape(rows), np.shape(a))
        rows = np.broadcast_to(rows, shape).ravel()
        s = np.asarray(s, dtype=np.float64).ravel()
    a = np.broadcast_to(np.asarray(a, dtype=np.float64), shape).ravel()
    # em_start overflows from s ~ 1e307; from 1e300 up every cutoff below
    # 2^63 needs more head terms than the cap, so the clamp changes no count
    # that is used
    m = np.maximum(np.ceil(em_start(np.minimum(s, 1e300))[rows] - a), 0.0)
    heads = m.max(initial=0.0)
    x = s[rows]  # each element's exponent
    if heads > MAX_HEAD_TERMS:
        raise ValueError(f"zeta exponent too large: more than {MAX_HEAD_TERMS} "
                         f"head terms at s = {float(x[np.argmax(m)])!r}")
    z = (m > 0).astype(np.float64)  # the k = 0 head term
    if derivatives:
        z1 = np.zeros(a.size)
        z2 = np.zeros(a.size)
    live = np.flatnonzero(m > 1)
    for k in range(1, int(heads)):
        live = live[m[live] > k]
        ell = np.log1p(k / a[live])
        t = np.exp(-x[live] * ell)
        z[live] += t
        if derivatives:
            t *= ell
            z1[live] -= t
            z2[live] += t * ell

    n = a + m
    ell = np.zeros(a.size)
    e = np.ones(a.size)
    head = np.flatnonzero(m)
    ell[head] = np.log1p(m[head] / a[head])
    e[head] = np.exp(-x[head] * ell[head])
    inv_sm1 = (1.0 / (s - 1.0))[rows]
    integral = n * e * inv_sm1
    half = 0.5 * e
    z += integral + half
    if derivatives:
        rate = ell + inv_sm1
        z1 -= integral * rate + half * ell
        z2 += integral * (rate * rate + inv_sm1 * inv_sm1) + half * (ell * ell)

    # the corrections are e/N sum_j c_j(s) N^(2-2j), and s enters e = (a/N)^s
    # as well: d/ds (e c_j) = e (c_j' - ell c_j)
    c = _coefficients(s, derivatives)
    w = 1.0 / (n * n)
    q = e / n
    corr = _horner(c[0], rows, w)
    z += q * corr
    if not derivatives:
        return z.reshape(shape)
    corr1 = _horner(c[1], rows, w)
    z1 += q * (corr1 - ell * corr)
    z2 += q * (_horner(c[2], rows, w) - ell * (2.0 * corr1 - ell * corr))
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
