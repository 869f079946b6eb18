#!/usr/bin/env python3
"""Time the three layers a replica passes through, in this process: the
sampler (``sample_replicas``), the refit (``log_geo_means`` and
``solve_betas``) and the KS pass (``ks_distances``).

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/layer_costs.py --nsim 1000 --repeats 5

Each case is a cutoff a and a tail size N at exponent ``--beta``.  Its
``--nsim`` replicas are drawn from substreams 0, 1, ... of ``--seed`` and
split into blocks as ``pipeline._job`` splits them, as many replicas a
block as the distinct values of one replica (a stand-in for the empirical
tail's) divide into ``pipeline._BLOCK_VALUES``.  Each layer is called once
a block, on what the layer before it returned, and its time is summed over
the blocks; the best of ``--repeats`` runs is kept.  One line is printed
per case, each layer in milliseconds per 1000 replicas.

The default cases are a = 1 at N = 300000 (the ``large_tail_fit`` tail)
and at N = 22035, (2, 7684) and (5, 2200), the ``corpus_scan`` corpus's
first cutoffs: every one of their replicas is drawn as its count table.
"""

import argparse
import time

import numpy as np

from dplfit import RngStream, SamplerParams, sample_n
from dplfit.distribution import log_geo_means
from dplfit.ks import ks_distances
from dplfit.mle import solve_betas
from dplfit.pipeline import _BLOCK_VALUES
from dplfit.sampling import sample_replicas, stream_starts

CASES = ((1, 300000), (1, 22035), (2, 7684), (5, 2200))


def case(a, n, args):
    """Seconds of the sampler, the refit and the KS pass over ``args.nsim``
    replicas of N = ``n`` draws at cutoff ``a``, each summed over blocks."""
    params = SamplerParams(a, args.beta)
    distinct = sample_n(params, n, RngStream(args.seed, 0)).unique_values.size
    block = max(1, min(args.nsim, _BLOCK_VALUES // distinct))
    starts = list(stream_starts(args.seed, range(args.nsim)))
    seconds = np.zeros(3)
    for lo in range(0, args.nsim, block):
        t0 = time.perf_counter()
        values, counts, lengths = sample_replicas(params, n, starts[lo:lo + block])
        t1 = time.perf_counter()
        log_g = log_geo_means(values, counts, np.cumsum(lengths) - lengths, n)
        beta, _, _ = solve_betas(log_g, a)
        t2 = time.perf_counter()
        ks_distances(beta + 1.0, a, values, counts, lengths)
        seconds += (t1 - t0, t2 - t1, time.perf_counter() - t2)
    return seconds


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--cases", default=",".join(f"{a}:{n}" for a, n in CASES),
                        help="comma-separated a:N pairs")
    parser.add_argument("--beta", type=float, default=1.13)
    parser.add_argument("--nsim", type=int, default=1000, help="replicas a case")
    parser.add_argument("--repeats", type=int, default=5, help="runs a case, the best kept")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"{'a':>4} {'N':>7} {'sampler':>9} {'refit':>9} {'ks':>9}  (ms per 1000 replicas)")
    for pair in args.cases.split(","):
        a, n = map(int, pair.split(":"))
        best = np.min([case(a, n, args) for _ in range(args.repeats)], axis=0)
        sampler, refit, ks = 1e6 * best / args.nsim
        print(f"{a:>4} {n:>7} {sampler:>9.2f} {refit:>9.2f} {ks:>9.2f}")


if __name__ == "__main__":
    main()
