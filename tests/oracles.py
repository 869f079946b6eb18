"""Independent reference implementations the tests check against.

Everything here deliberately avoids the code paths under test: the zeta
oracle is a massive direct sum, the KS oracle scans every integer of the
expanded sample, the MLE oracle is an exhaustive grid search, the
proposal mass, accept probability and Bernoulli correction terms are
their textbook formulas, and the replica oracles draw one replica at a
time from the uniforms of the substream its ``RngStream`` names
(``uniforms``, a PCG64 keyed by ``stream_starts`` and set by hand, not by
the sampler's ``_seek``) in fixed chunks of their own, with no group
draws and none of the sampler's batch sizes.  A replica that the
sampler draws as its table takes only its pvals from the sampler
(``composite``); the rule that picks its path (``draws_table``) is
stated here, and its rounds of multinomial and envelope proposals are
drawn here.
"""

import numpy as np

import dplfit.sampling
from dplfit.distribution import (
    IntegerSample,
    PowerLawModel,
    log_likelihood,
    sufficient_stat,
)
from dplfit.errors import ConvergenceError, DegenerateDataError
from dplfit.ks import ks_statistic
from dplfit.mle import fit_beta
from dplfit.sampling import (
    RngStream,
    SamplerParams,
    _proposals_from_uniforms,
    accept_test,
    composite,
    replica_stream,
    stream_starts,
)


def expanded(sample):
    """Every observation of a sample, sorted: each distinct value repeated
    by its count."""
    return np.repeat(sample.unique_values, sample.unique_counts)


def table(sample):
    """A sample's (distinct values, counts) table as lists, for comparing
    samples."""
    return sample.unique_values.tolist(), sample.unique_counts.tolist()


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
    values = expanded(sample)
    n_a = values.size
    hi = int(values[-1]) + beyond
    for lo in range(model.a, hi + 1, 1 << 16):
        ns = np.arange(lo, min(lo + (1 << 16), hi + 1))
        emp = (n_a - np.searchsorted(values, ns, side="left")) / n_a
        dev = np.abs(emp - model.survival(ns))
        i = int(np.argmax(dev))
        if dev[i] > best_d:
            best_d, best_n = float(dev[i]), int(ns[i])
    return best_d, best_n


def proposal_mass(params, y):
    """q(y) = (a/y)^beta - (a/(y+1))^beta, the sampler's proposal distribution."""
    y = np.asarray(y, dtype=np.float64)
    out = (params.a / y) ** params.beta - (params.a / (y + 1.0)) ** params.beta
    return float(out) if out.ndim == 0 else out


def acceptance_ratio(params, y):
    """f(y) q(a) / (f(a) q(y)), the exact accept probability of proposal y."""
    y = np.asarray(y, dtype=np.float64)
    tau_m1 = np.expm1(params.beta * np.log1p(1.0 / y))
    ta_m1 = params.ta_minus_1
    out = (params.a / y) * (ta_m1 / (1.0 + ta_m1)) * ((1.0 + tau_m1) / tau_m1)
    return float(out) if out.ndim == 0 else out


def correction_term(k, s, a, head_terms, prev=None):
    """C_{2k-1}(M) of the Euler-Maclaurin corrections, M = head_terms.

    For k = 1 the closed form C_1 = s / (2 (a+M)^(s+1)) is used and
    ``prev`` is ignored; for k >= 2 ``prev`` must be C_{2k-3}(M).
    """
    if k < 1:
        raise ValueError(f"correction index must be >= 1, got {k}")
    am = float(a + head_terms)
    if k == 1:
        return 0.5 * s * am ** -(s + 1.0)
    if prev is None:
        raise ValueError("recursion for k >= 2 needs the previous term")
    return prev * (s + 2 * k - 2.0) * (s + 2 * k - 3.0) / (2 * k * (2 * k - 1.0) * am * am)


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
    ``head`` terms and ``corrections`` Bernoulli terms (its remainder is below 1e-50 of
    the value for s <= 51), and differentiated numerically by mpmath.diff.
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


def scaled_zeta_mpmath(s, a, dps=50, head=60, corrections=20):
    """(Z, dZ/ds, d2Z/ds2) of Z(s, a) = a^s zeta(s, a), to ~dps digits.

    The Euler-Maclaurin series relative to a^-s, summed in mpmath with a
    head of ``head`` terms and ``corrections`` Bernoulli terms, and
    differentiated numerically by mpmath.diffs; not mpmath.zeta, which
    loses digits at large (s, a) (see ``psi_mpmath``).
    """
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.mpf(a)
        n = a + head

        def scaled(x):
            r = (n / a) ** -x
            total = mpmath.fsum((1 + k / a) ** -x for k in range(head))
            total += n * r / (x - 1) + r / 2
            for j in range(1, corrections + 1):
                total += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                          * mpmath.rf(x, 2 * j - 1) * r * n ** (1 - 2 * j))
            return total

        return tuple(mpmath.diffs(scaled, mpmath.mpf(s), 2))


def uniforms(rng):
    """A numpy Generator at the start of the substream an ``RngStream``
    names: the PCG64 whose (state, increment) ``stream_starts`` gives,
    with its state set directly."""
    (state, inc), = stream_starts(rng.seed, [rng.stream_id])
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                    "state": {"state": state, "inc": inc}}
    return np.random.Generator(bitgen)


def accepted_proposals(params, u):
    """The proposals that uniforms ``u`` make and accept, in order: proposal
    k from u[2k] (w = 1 - u) and tested with u[2k + 1]; a proposal past
    the sampler's int64 cap is rejected."""
    y = _proposals_from_uniforms(params, 1.0 - u[0::2])
    k = np.flatnonzero(y < dplfit.sampling._MAX_PROPOSAL)
    y = np.maximum(y[k].astype(np.int64), params.a)
    return y[accept_test(params, y, u[1::2][k])]


def accepted_in_order(params, count, rng, pairs=1000):
    """The first ``count`` accepted proposals of the substream an
    ``RngStream`` names, in proposal order.

    Proposal k is made from the stream's uniform 2k (w = 1 - u) and tested
    with its uniform 2k + 1; a proposal past the sampler's int64 cap is
    rejected.  ``pairs`` proposals are drawn at a time, which changes
    nothing but the speed."""
    gen = uniforms(rng)
    kept = []
    need = count
    while need:
        y = accepted_proposals(params, gen.random(2 * pairs))[:need]
        kept.append(y)
        need -= y.size
    return np.concatenate(kept)


def variates_one_at_a_time(params, count, rng):
    """``count`` sampler variates of the substream an ``RngStream`` names,
    sorted: the first ``count`` accepts among its proposals, proposal k on
    its uniforms 2k and 2k + 1 (``accepted_in_order``)."""
    return np.sort(accepted_in_order(params, count, rng))


def draws_table(params, count):
    """Whether the sampler draws a replica of ``count`` draws at ``params``
    as its table: when its cells, the composite's all but last pvals, are
    expected to take at least ``_TABLE_DRAWS`` of its draws."""
    return count * (1.0 - composite(params, count)[1][-1]) >= dplfit.sampling._TABLE_DRAWS


def table_one_at_a_time(params, count, rng):
    """The replica of ``count`` draws that the sampler draws as its table
    from the substream an ``RngStream`` names, sorted.

    Only the composite's envelope cutoff T and pvals come from the sampler
    (``composite``).  Each round draws one multinomial of the draws still
    needed over the cells a, ..., T - 1 and the envelope; the envelope's m
    trials are the proposals at cutoff T that the stream's next 2m
    uniforms make, all in one pass, and the ones they reject are still
    needed."""
    tail, pvals = composite(params, count)
    gen = uniforms(rng)
    drawn, need = [], count
    while need:
        tally = gen.multinomial(need, pvals)
        drawn.append(np.repeat(np.arange(params.a, tail.a), tally[:-1]))
        kept = accepted_proposals(tail, gen.random(2 * tally[-1]))
        drawn.append(kept)
        need = tally[-1] - kept.size
    return np.sort(np.concatenate(drawn))


def replica_one_at_a_time(beta_emp, a, n_a, seed, i):
    """Replica i of a fit: drawn from substream ``replica_stream(i,
    attempt)`` one attempt at a time, as a table where the sampler draws
    one (``table_one_at_a_time``) and otherwise as the first N_a accepts
    (``variates_one_at_a_time``), refit alone by ``fit_beta`` and measured
    alone by ``ks_statistic``.  Returns (attempt, distance)."""
    params = SamplerParams(a, beta_emp)
    draw = table_one_at_a_time if draws_table(params, n_a) else variates_one_at_a_time
    attempt = 0
    while True:
        rng = RngStream(seed, replica_stream(i, attempt))
        sim = IntegerSample(draw(params, n_a, rng))
        try:
            beta = fit_beta(sufficient_stat(sim), a).beta_emp
        except (DegenerateDataError, ConvergenceError):
            attempt += 1
            continue
        return attempt, ks_statistic(sim, PowerLawModel(a, beta)).d
