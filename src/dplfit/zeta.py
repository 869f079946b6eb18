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
c_j(s) = B_2j (s)_{2j-1} / (2j)!, summed by Horner's rule in 1/N^2.  Many
elements can share one exponent (the ``rows`` argument): a KS pass
evaluates the kernel at many values of one replica, at that replica's
fitted exponent, and a block's values of many replicas in one call.  So
a call does what depends on the exponent alone (N0, 1/(s-1) and the
c_j) once for all its exponents, runs the head sums once over all its
head elements, one pass a head term, and evaluates the Euler-Maclaurin
tail ``_CHUNK`` elements at a time, which bounds its temporaries for
every caller.
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

# Elements whose Euler-Maclaurin tail is evaluated at once, which bounds
# the kernel's temporaries (about 15 float64 arrays of this size) for
# every caller: the KS pass, the model's survival and the refit.
_CHUNK = 1 << 12


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

    Element i is Z(s[rows[i]], a[i]), over the broadcast of ``rows`` and
    ``a``, with ``s`` an array of exponents taken flat.  ``rows`` defaults
    to the index of each element of ``s`` in its own shape, so that each
    element of the broadcast of ``s`` and ``a`` is its own exponent and a
    scalar ``s`` is one exponent for every element.

    A call does its work at three rates.  Once per call, for every
    exponent at once: N0(s), 1/(s-1) and the corrections' coefficients.
    Once per head element (M > 0), over all of the call's head elements
    at once: the head sums, one pass a head term, and the factor
    exp(-s log1p(M/a)).  Once per chunk of ``_CHUNK`` elements: the
    integral, the half-term and the corrections, summed by Horner's rule
    in 1/N^2, so that the tail's temporaries stay the size of a chunk
    however many elements the call has.  Besides its output, a call holds
    a few arrays of one value an element: M, then N = a + M, and
    exp(-s log1p(M/a)) and, with ``derivatives``, log1p(M/a).

    An element's head count depends on its own (s, a) only, every
    operation is elementwise and the terms are added in a fixed order, so
    an element's value does not depend on the other elements it is
    evaluated with, nor on whether its exponent comes through ``rows``.
    The arguments are not validated, except that an element needing more
    than ``MAX_HEAD_TERMS`` head terms raises ``ValueError``.
    """
    s = np.asarray(s, dtype=np.float64)
    if rows is None:
        rows = np.arange(s.size).reshape(s.shape)
    shape = np.broadcast_shapes(np.shape(rows), np.shape(a))
    rows = np.broadcast_to(rows, shape).reshape(-1)
    s = s.ravel()
    a = np.broadcast_to(np.asarray(a, dtype=np.float64), shape).reshape(-1)
    # em_start overflows from s ~ 1e307; from 1e300 up every cutoff below
    # 2^63 needs more head terms than the cap, so the clamp changes no count
    # that is used
    m = em_start(np.minimum(s, 1e300))[rows]
    m -= a
    np.maximum(np.ceil(m, out=m), 0.0, out=m)
    heads = m.max(initial=0.0)
    if heads > MAX_HEAD_TERMS:
        raise ValueError(f"zeta exponent too large: more than {MAX_HEAD_TERMS} "
                         f"head terms at s = {float(s[rows[np.argmax(m)]])!r}")
    inv_sm1 = 1.0 / (s - 1.0)
    c = _coefficients(s, derivatives)

    # the head sums, over the head elements, from the k = 0 term
    head = np.flatnonzero(m)
    m_head, a_head, x = m[head], a[head], s[rows[head]]
    z, z1, z2 = np.ones(head.size), np.zeros(head.size), np.zeros(head.size)
    live = np.flatnonzero(m_head > 1)
    for k in range(1, int(heads)):
        live = live[m_head[live] > k]
        ell = np.log1p(k / a_head[live])
        t = np.exp(-x[live] * ell)
        z[live] += t
        if derivatives:
            t *= ell
            z1[live] -= t
            z2[live] += t * ell
    out = [np.zeros(a.size) for _ in range(3 if derivatives else 1)]
    for total, sums in zip(out, (z, z1, z2)):
        total[head] = sums

    # each element's ell = log1p(M/a) and e = exp(-s ell), 0 and 1 where
    # M = 0, and N = a + M
    ell_head = np.log1p(m_head / a_head)
    e = np.ones(a.size)
    e[head] = np.exp(-x * ell_head)
    if derivatives:
        ell = np.zeros(a.size)
        ell[head] = ell_head
    n = np.add(m, a, out=m)
    for lo in range(0, a.size, _CHUNK):
        at = slice(lo, lo + _CHUNK)
        _add_tail([total[at] for total in out], n[at], e[at], ell[at] if derivatives else None,
                  inv_sm1, c, rows[at])
    if not derivatives:
        return out[0].reshape(shape)
    return tuple(total.reshape(shape) for total in out)


def _add_tail(z, n, e, ell, inv_sm1, c, rows):
    """Add the integral, the half-term and the corrections from N = ``n``
    to Z, the first of the views ``z``, and with ``ell`` to dZ/ds and
    d2Z/ds2, the other two: each element's e = (a/N)^s, ell = log(N/a),
    and exponent s[rows[i]], whose 1/(s-1) ``inv_sm1`` and correction
    coefficients ``c`` hold."""
    inv = inv_sm1[rows]
    integral = n * e * inv
    half = 0.5 * e
    z[0] += integral + half
    # the corrections are e/N sum_j c_j(s) N^(2-2j), and s enters e = (a/N)^s
    # as well: d/ds (e c_j) = e (c_j' - ell c_j)
    w = 1.0 / (n * n)
    q = e / n
    corr = _horner(c[0], rows, w)
    z[0] += q * corr
    if ell is None:
        return
    rate = ell + inv
    z[1] -= integral * rate + half * ell
    z[2] += integral * (rate * rate + inv * inv) + half * (ell * ell)
    corr1 = _horner(c[1], rows, w)
    z[1] += q * (corr1 - ell * corr)
    z[2] += q * (_horner(c[2], rows, w) - ell * (2.0 * corr1 - ell * corr))


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
