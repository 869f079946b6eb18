"""Maximum-likelihood estimation of the power-law exponent.

The per-datum log-likelihood l(beta) = -ln zeta(s, a) - s ln G_a, with
s = beta + 1, depends on the data only through ln G_a, the mean log of
the retained data.  Its maximum is the root of the likelihood equation

    psi(s, a) = -d/ds ln zeta(s, a) = ln G_a,

where psi(s, a) is the mean of ln X under the model and falls strictly
in s (its slope is minus the variance of ln X), so the root is unique.
A safeguarded Newton iteration finds it, for one sample or for a whole
batch of samples at one cutoff in one vectorised pass.  It starts from a
table of the root against ln G_a - ln a, built once per cutoff in each
process, which puts the start within about 1e-7 of the root, relative;
one evaluation of the zeta kernel then meets the tolerance, two near
beta = 50.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distribution import check_identifiable, sigma_beta
from .errors import ConvergenceError
from .zeta import scaled_zeta


class MleConfig:
    """The solver's one box: beta in ``beta_bounds`` = [1e-4, 50], found to
    within ``beta_tol`` = 1e-6.  Class constants, not settings; the
    iteration budget is the constant ``MAX_ITER``."""

    # a class under this name, exported by dplfit: bench/worker.py runs
    # ``from dplfit.mle import MleConfig`` and reads MleConfig().beta_tol
    beta_tol = 1e-6
    beta_bounds = (1e-4, 50.0)


@dataclass(frozen=True)
class MleResult:
    beta_emp: float
    sigma: float
    iterations: int


# Per-element outcome of solve_betas.
SOLVED, AT_BOUND, NOT_CONVERGED = 0, 1, 2

# Newton evaluations an element may take; the table start needs one or two.
MAX_ITER = 10_000

# Nodes of a start table, geometric in beta over the box.
_TABLE_NODES = 256


@lru_cache(maxsize=256)
def _start_table(a):
    """The Newton start's table at cutoff ``a``, from one kernel call: the
    rows x = ln t, ascending, of t(s) = psi(s, a) - ln a = -Z'/Z, y = ln beta
    and the exact slope dy/dx = t / (beta dt/ds), at nodes geometric in beta
    over ``MleConfig.beta_bounds``, the last one beta = 50 exactly.  In that
    box every node's t and slope are finite and positive at every cutoff.
    Read only; it depends on ``a`` alone."""
    lo, hi = MleConfig.beta_bounds
    s = np.geomspace(lo, hi, _TABLE_NODES) + 1.0
    beta = s - 1.0  # exact: the node's exponent as evaluated
    z, z1, z2 = scaled_zeta(s, a, derivatives=True)
    mean = z1 / z
    slope = mean * mean - z2 / z  # dt/ds
    table = np.stack([np.log(-mean), np.log(beta), -mean / (beta * slope)])[:, ::-1].copy()
    table.flags.writeable = False
    return table


def _start(targets, a):
    """Newton's start s = beta + 1 for each target ln G_a - ln a: cubic
    Hermite interpolation of ln beta in ln t on ``_start_table``, a target
    past the table's ends starting at the table's end node, clipped to the
    box."""
    x, y, dydx = _start_table(float(a))
    # fmin/fmax take a table end for NaN; t > 0, so t <= 0 lies past beta = 50
    t = np.log(np.fmax(np.fmin(targets, math.exp(x[-1])), math.exp(x[0])))
    k = np.clip(np.searchsorted(x, t) - 1, 0, x.size - 2)
    h = x[k + 1] - x[k]
    u = (t - x[k]) / h
    v = 1.0 - u
    log_beta = (v * v * ((1.0 + 2.0 * u) * y[k] + h * u * dydx[k])
                + u * u * ((1.0 + 2.0 * v) * y[k + 1] - h * v * dydx[k + 1]))
    lo, hi = MleConfig.beta_bounds
    return np.fmax(np.fmin(np.exp(log_beta), hi), lo) + 1.0


def solve_betas(log_geo_means, a):
    """Roots of the likelihood equation for many samples at one cutoff.

    Newton's method on g(s) = psi(s, a) - ln G_a from the table start
    (``_start``), inside the bracket [lo + 1, hi + 1] of
    ``MleConfig.beta_bounds``.  Each evaluation of g moves one end of the
    bracket to the current point; a Newton step that leaves the bracket is
    replaced by its midpoint.  An element stops once its step is at most a
    quarter of ``MleConfig.beta_tol``; psi is convex in s, so Newton's
    error is then far below the step.  The start depends only on the
    element's target and the cutoff.

    Every operation is elementwise, so a sample's result does not depend
    on the batch it is solved in.  The samples must be identifiable
    (``check_identifiable``).

    Returns
    -------
    beta : ndarray
        The roots minus one (meaningful where status is SOLVED).
    iterations : ndarray
        Evaluations of psi per element, at most ``MAX_ITER``.
    status : ndarray
        SOLVED, AT_BOUND (the root lies within 10 beta_tol of a bound or
        beyond it) or NOT_CONVERGED (``MAX_ITER`` ran out).
    """
    target = np.asarray(log_geo_means, dtype=np.float64) - math.log(a)
    n = target.size
    lo_beta, hi_beta = MleConfig.beta_bounds
    s = _start(target, a)
    lo = np.full(n, lo_beta + 1.0)
    hi = np.full(n, hi_beta + 1.0)
    iterations = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    xtol = 0.25 * MleConfig.beta_tol
    live = np.arange(n)
    for it in range(1, MAX_ITER + 1):
        if live.size == 0:
            break
        x = s[live]
        z, z1, z2 = scaled_zeta(x, a, derivatives=True)
        mean = z1 / z  # -(psi - ln a)
        g = -mean - target[live]
        slope = mean * mean - z2 / z  # d psi / ds, minus a variance
        left = np.where(g > 0, x, lo[live])
        right = np.where(g < 0, x, hi[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / slope
        # a step that rounds back to x sits on the bracket's end it moved:
        # the root is within rounding of x, so it is taken, not bisected
        inside = ((step > left) & (step < right)) | (step == x)
        step = np.where(inside, step, 0.5 * (left + right))
        step = np.where(g == 0, x, step)
        done = np.abs(step - x) <= xtol
        s[live] = step
        lo[live] = left
        hi[live] = right
        iterations[live] = it
        converged[live[done]] = True
        live = live[~done]

    beta = s - 1.0
    guard = 10.0 * MleConfig.beta_tol
    status = np.full(n, NOT_CONVERGED, dtype=np.int8)
    status[converged] = SOLVED
    status[converged & ((beta <= lo_beta + guard) | (beta >= hi_beta - guard))] = AT_BOUND
    return beta, iterations, status


def fit_beta(stat, a):
    """Maximize the log-likelihood over beta in ``MleConfig.beta_bounds``
    for a fixed cutoff.

    ``solve_betas`` for a batch of one.

    Parameters
    ----------
    stat : SufficientStat
        From the sample truncated at ``a``.
    a : int
        Lower cutoff.

    Returns
    -------
    MleResult

    Raises
    ------
    DegenerateDataError
        If the data cannot identify beta (tail too small, or all data
        equal to the cutoff so the likelihood is unbounded).
    ConvergenceError
        If the solver exhausts ``MAX_ITER`` or the maximum sits at a
        search bound (a bound hit is reported, never silently clamped).
    """
    check_identifiable(stat, a)
    beta, iterations, status = solve_betas([stat.log_geo_mean], a)
    beta = float(beta[0])
    if status[0] == NOT_CONVERGED:
        raise ConvergenceError(f"no convergence within {MAX_ITER} iterations")
    if status[0] == AT_BOUND:
        raise ConvergenceError(
            f"maximum at search bound (beta={beta:.6g}, bounds={MleConfig.beta_bounds})"
        )
    return MleResult(
        beta_emp=beta,
        sigma=sigma_beta(beta, stat.n_a),
        iterations=int(iterations[0]),
    )
