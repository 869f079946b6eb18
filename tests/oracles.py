"""Independent reference implementations the tests check against.

Everything here deliberately avoids the code paths under test: the zeta
oracle is a massive direct sum, the KS oracle scans every integer, and
the MLE oracle is an exhaustive grid search.
"""

import numpy as np

from dplfit.distribution import log_likelihood


def zeta_bruteforce(s, a, terms=10**7):
    """Direct summation of ``terms`` terms plus the integral tail bracket.

    The remainder sum_{k>=terms} (a+k)^-s lies between the integrals from
    ``terms`` and ``terms``+1; taking the integral plus half the boundary
    term is the bracket center, leaving an error below s*(a+terms)^-(s+1).
    """
    total = 0.0
    chunk = 1 << 20
    k0 = 0
    while k0 < terms:
        k1 = min(k0 + chunk, terms)
        kk = np.arange(k0, k1, dtype=np.float64)
        total += float(np.sum((a + kk) ** -s))
        k0 = k1
    top = float(a + terms)
    return total + top ** (1.0 - s) / (s - 1.0) + 0.5 * top ** -s


def ks_exhaustive(sample, model, beyond=1):
    """KS distance by scanning every integer from a to max(sample)+beyond."""
    best_d, best_n = -1.0, None
    n_a = sample.size
    hi = int(sample.values[-1]) + beyond
    for lo in range(model.a, hi + 1, 1 << 16):
        ns = np.arange(lo, min(lo + (1 << 16), hi + 1))
        emp = sample.count_at_least(ns) / n_a
        dev = np.abs(emp - model.survival(ns))
        i = int(np.argmax(dev))
        if dev[i] > best_d:
            best_d, best_n = float(dev[i]), int(ns[i])
    return best_d, best_n


def grid_argmax_beta(stat, a, lo=0.05, hi=10.0, step=1e-6):
    """Exhaustive two-stage grid search for the likelihood maximum.

    A coarse pass at 1e-3 brackets the peak (the objective is concave),
    then a fine pass at ``step`` resolves it.
    """
    coarse = np.arange(lo, hi, 1e-3)
    vals = np.array([log_likelihood(stat, a, b) for b in coarse])
    center = coarse[int(np.argmax(vals))]
    fine = np.arange(center - 2e-3, center + 2e-3, step)
    vals = np.array([log_likelihood(stat, a, b) for b in fine])
    return float(fine[int(np.argmax(vals))])


def psi_mpmath(s, a, dps=50, head=60, corrections=20):
    """psi(s, a) = -d/ds ln zeta(s, a), the model mean of ln X, to ~dps digits.

    mpmath's own zeta(s, a) loses digits at large a and s (at s = 51,
    a = 10^4 it is off by 5e-13 even at 120 digits), so the Euler-Maclaurin
    series is summed here in mpmath, relative to a^-s, with a head of
    ``head`` terms and ``corrections`` Bernoulli terms (far more than the
    float kernel's 14 and 18), and differentiated numerically by mpmath.diff.
    """
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.mpf(a)
        n = a + head

        def log_scaled_zeta(x):
            r = (n / a) ** -x
            total = mpmath.fsum((1 + k / a) ** -x for k in range(head))
            total += n * r / (x - 1) + r / 2
            for j in range(1, corrections + 1):
                total += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                          * mpmath.rf(x, 2 * j - 1) * r * n ** (1 - 2 * j))
            return mpmath.log(total)

        return mpmath.log(a) - mpmath.diff(log_scaled_zeta, mpmath.mpf(s))
