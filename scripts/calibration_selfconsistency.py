#!/usr/bin/env python3
"""Calibration of the Monte Carlo goodness-of-fit test: simulate data
from the model, test it at the true cutoff, and check that the p-value
is uniform -- equivalently, that rejection at the 0.05 level happens
about 5% of the time.
"""

import argparse
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from dplfit import RngStream, SamplerParams, fit_at_a, sample_n


def one_rep(args, rep):
    # the settings come as an argument: a pool process that is spawned, not
    # forked, does not run main() and sees no state that main() set
    data = sample_n(SamplerParams(1, args.beta), args.n,
                    RngStream(args.seed + rep, 0))
    return fit_at_a(data, 1, args.nsim, seed=args.seed + 70000 + rep).p.p


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=400)
    parser.add_argument("--n", type=int, default=10**4, help="sample size")
    parser.add_argument("--beta", type=float, default=1.5)
    parser.add_argument("--nsim", type=int, default=100)
    parser.add_argument("--level", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=5150)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    t0 = time.time()
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        ps = np.array(list(pool.map(partial(one_rep, args), range(args.reps), chunksize=8)))
    rate = float((ps <= args.level).mean())
    sd = 2.576 * np.sqrt(args.level * (1 - args.level) / args.reps)
    print(f"{args.reps} repetitions in {time.time()-t0:.0f}s")
    print(f"rejection rate at p <= {args.level}: {rate:.4f} "
          f"(99% band around {args.level}: [{args.level-sd:.4f}, {args.level+sd:.4f}])")
    print("p-value deciles:", np.round(np.quantile(ps, np.arange(0.1, 1.0, 0.1)), 3))


if __name__ == "__main__":
    main()
