"""Maximum-likelihood estimation of the power-law exponent.

The per-datum log-likelihood l(beta) = -ln zeta(s, a) - s ln G_a, with
s = beta + 1, depends on the data only through ln G_a, the mean log of
the retained data.  Its maximum is the root of the likelihood equation

    psi(s, a) = -d/ds ln zeta(s, a) = ln G_a,

where psi(s, a) is the mean of ln X under the model and falls strictly
in s (its slope is minus the variance of ln X), so the root is unique.
A safeguarded Newton iteration finds it, for one sample or for a whole
batch of samples at one cutoff in one vectorised pass.  It starts from a
table of the root against ln G_a - ln a, built once per cutoff and
bounds in each process, which puts the start within about 1e-7 of the
root, relative; one evaluation of the zeta kernel then meets the
tolerance, two near beta = 50.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distribution import check_identifiable, sigma_beta
from .errors import ConvergenceError
from .zeta import MAX_HEAD_TERMS, em_start, scaled_zeta


@dataclass(frozen=True)
class MleConfig:
    """Solver settings: the tolerance ``beta_tol`` on beta, the search
    interval ``beta_bounds`` (which the Newton start's table spans) and
    the iteration budget ``max_iter``."""

    beta_tol: float = 1e-6
    beta_bounds: tuple = (1e-4, 50.0)
    max_iter: int = 10_000

    def __post_init__(self):
        lo, hi = self.beta_bounds
        if not (0 < lo < hi):
            raise ValueError(f"bounds must be ordered and positive, got {self.beta_bounds}")
        if not 1.0 + lo > 1.0:
            raise ValueError(f"lower bound {lo!r} is below the resolution of beta + 1 "
                             f"(zeta(s, a) needs s > 1)")
        if not self.beta_tol > 0:
            raise ValueError("beta_tol must be positive")
        # the head count at a = 1 exceeds s, so the first test only spares
        # em_start an infinite or overflowing bound
        if hi > MAX_HEAD_TERMS or em_start(hi + 1.0) - 1.0 > MAX_HEAD_TERMS:
            raise ValueError(f"upper bound {hi!r} is past the largest exponent the zeta "
                             f"kernel evaluates ({MAX_HEAD_TERMS} head terms at a = 1)")


DEFAULT_MLE_CONFIG = MleConfig()


@dataclass(frozen=True)
class MleResult:
    beta_emp: float
    sigma: float
    iterations: int


# Per-element outcome of solve_betas.
SOLVED, AT_BOUND, NOT_CONVERGED = 0, 1, 2

# Nodes of a start table, geometric in beta over the bounds.
_TABLE_NODES = 256


@lru_cache(maxsize=256)
def _start_table(a, lo, hi):
    """The Newton start's table at cutoff ``a`` over bounds [lo, hi], from
    one kernel call: the rows x = ln t, ascending, of t(s) = psi(s, a) - ln a
    = -Z'/Z, y = ln beta and the exact slope dy/dx = t / (beta dt/ds), at
    nodes geometric in beta.  Read only; it depends on its arguments
    alone."""
    s = np.geomspace(lo, hi, _TABLE_NODES) + 1.0
    # bounds near the resolution of beta + 1 round nodes together; not
    # np.unique, whose first call in a forked process copies its heap
    s = s[np.append(True, s[1:] > s[:-1])]
    beta = s - 1.0  # exact: the node's exponent as evaluated
    z, z1, z2 = scaled_zeta(s, a, derivatives=True)
    mean = z1 / z
    slope = mean * mean - z2 / z  # dt/ds
    table = np.stack([np.log(-mean), np.log(beta), -mean / (beta * slope)])[:, ::-1].copy()
    table.flags.writeable = False
    return table


def _start(targets, a, bounds):
    """Newton's start s = beta + 1 for each target ln G_a - ln a: cubic
    Hermite interpolation of ln beta in ln t on ``_start_table``, a target
    past the table's ends starting at the bound it lies beyond."""
    x, y, dydx = _start_table(float(a), *map(float, bounds))
    # fmin/fmax take the bound for NaN; t > 0, so t <= 0 lies past hi
    t = np.log(np.fmax(np.fmin(targets, math.exp(x[-1])), math.exp(x[0])))
    k = np.clip(np.searchsorted(x, t) - 1, 0, x.size - 2)
    h = x[k + 1] - x[k]
    u = (t - x[k]) / h
    v = 1.0 - u
    log_beta = (v * v * ((1.0 + 2.0 * u) * y[k] + h * u * dydx[k])
                + u * u * ((1.0 + 2.0 * v) * y[k + 1] - h * v * dydx[k + 1]))
    return np.fmax(np.fmin(np.exp(log_beta), bounds[1]), bounds[0]) + 1.0


def solve_betas(log_geo_means, a, config=DEFAULT_MLE_CONFIG):
    """Roots of the likelihood equation for many samples at one cutoff.

    Newton's method on g(s) = psi(s, a) - ln G_a from the table start
    (``_start``), inside the bracket [lo + 1, hi + 1] of
    ``config.beta_bounds``.  Each evaluation of g moves one end of the
    bracket to the current point; a Newton step that leaves the bracket is
    replaced by its midpoint.  An element stops once its step is at most a
    quarter of ``beta_tol``; psi is convex in s, so Newton's error is then
    far below the step.  The start depends only on the element's target,
    the cutoff and the bounds.

    Every operation is elementwise, so a sample's result does not depend
    on the batch it is solved in.  The samples must be identifiable
    (``check_identifiable``).

    Returns
    -------
    beta : ndarray
        The roots minus one (meaningful where status is SOLVED).
    iterations : ndarray
        Evaluations of psi per element, at most ``config.max_iter``.
    status : ndarray
        SOLVED, AT_BOUND (the root lies within 10 beta_tol of a bound or
        beyond it) or NOT_CONVERGED (``max_iter`` ran out).
    """
    target = np.asarray(log_geo_means, dtype=np.float64) - math.log(a)
    n = target.size
    lo_beta, hi_beta = config.beta_bounds
    s = _start(target, a, config.beta_bounds)
    lo = np.full(n, lo_beta + 1.0)
    hi = np.full(n, hi_beta + 1.0)
    iterations = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    xtol = 0.25 * config.beta_tol
    live = np.arange(n)
    for it in range(1, config.max_iter + 1):
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
    guard = 10.0 * config.beta_tol
    status = np.full(n, NOT_CONVERGED, dtype=np.int8)
    status[converged] = SOLVED
    status[converged & ((beta <= lo_beta + guard) | (beta >= hi_beta - guard))] = AT_BOUND
    return beta, iterations, status


def fit_beta(stat, a, config=DEFAULT_MLE_CONFIG):
    """Maximize the log-likelihood over beta for a fixed cutoff.

    ``solve_betas`` for a batch of one.

    Parameters
    ----------
    stat : SufficientStat
        From the sample truncated at ``a``.
    a : int
        Lower cutoff.
    config : MleConfig

    Returns
    -------
    MleResult

    Raises
    ------
    DegenerateDataError
        If the data cannot identify beta (tail too small, or all data
        equal to the cutoff so the likelihood is unbounded).
    ConvergenceError
        If the solver exhausts ``max_iter`` or the maximum sits at a
        search bound (a bound hit is reported, never silently clamped).
    """
    check_identifiable(stat, a)
    beta, iterations, status = solve_betas([stat.log_geo_mean], a, config)
    beta = float(beta[0])
    if status[0] == NOT_CONVERGED:
        raise ConvergenceError(f"no convergence within {config.max_iter} iterations")
    if status[0] == AT_BOUND:
        raise ConvergenceError(
            f"maximum at search bound (beta={beta:.6g}, bounds={config.beta_bounds})"
        )
    return MleResult(
        beta_emp=beta,
        sigma=sigma_beta(beta, stat.n_a),
        iterations=int(iterations[0]),
    )
