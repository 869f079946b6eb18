#!/usr/bin/env python3
"""Time one job of n_sim replicas at each cutoff of a small grid, and see
how well a replica's price (``pipeline._prices``) and its variates, N_a,
predict what it costs.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/job_costs.py --nsim 1000 --repeats 3

Each job is ``pipeline._job`` over all of a cutoff's replicas, run in this
process, and its time is the best of ``--repeats`` runs.  The grid holds
tails shaped like the benchmark's three workloads, drawn with numpy's
``zipf(beta + 1)`` (the law at a = 1) or with dplfit's sampler at a larger
cutoff:

- ``corpus``: every default cutoff (at least 10 observations) of
  ``--corpus`` draws, as a paper-scale scan
- ``large``: ``--large`` draws at a = 1
- ``ingest``: a 1000-observation tail at a = 2117
- ``grid``: tails of 1000, 3000 and 30000 observations at a = 1 and at
  a = 50, on both sides of the sampler's ``_TABLE_DRAWS`` rule

One line is printed per cutoff: N_a, D_a (the tail's distinct values),
seconds, the price of a replica and the nanoseconds per price unit and per
variate, each over the n_sim replicas.  The last two lines give the spread,
max over min, of seconds per unit under each weight: the smaller, the
better the weight predicts the time of a job.
"""

import argparse
import time

import numpy as np

from dplfit import IntegerSample, RngStream, SamplerParams, sample_n
from dplfit.pipeline import _job, _prices, default_cutoffs


def grid(args):
    """(shape, sample, cutoff) of every job to time."""
    rng = np.random.default_rng(args.seed)
    corpus = IntegerSample(rng.zipf(args.beta + 1.0, args.corpus))
    jobs = [("corpus", corpus, a) for a in default_cutoffs(corpus, 10)]
    jobs.append(("large", IntegerSample(rng.zipf(args.beta + 1.0, args.large)), 1))
    drawn = [("ingest", 2117, 1000)] + [("grid", a, n) for a in (1, 50)
                                          for n in (1000, 3000, 30000)]
    for i, (shape, a, n) in enumerate(drawn):
        jobs.append((shape, sample_n(SamplerParams(a, args.beta), n, RngStream(args.seed, i)), a))
    return jobs


def best_time(task, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = _job(task)
        best = min(best, time.perf_counter() - start)
    if isinstance(result, Exception):
        raise result
    return best


def spread(per_unit):
    return max(per_unit) / min(per_unit)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--corpus", type=int, default=22035, help="draws of the corpus shape")
    parser.add_argument("--large", type=int, default=300000, help="draws of the large tail")
    parser.add_argument("--beta", type=float, default=1.13)
    parser.add_argument("--nsim", type=int, default=1000, help="replicas a job")
    parser.add_argument("--repeats", type=int, default=3, help="runs a job, the best kept")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    per_price, per_variate = [], []
    print(f"{'shape':>6} {'a':>6} {'N_a':>7} {'D_a':>5} {'seconds':>9} {'price':>6}"
          f" {'ns/unit':>8} {'ns/variate':>10}")
    for shape, sample, a in grid(args):
        start = sample.tail_start(a)
        n_a = int(sample.survival_counts[start])
        distinct = sample.unique_values.size - start
        (price,) = _prices(sample, [a])
        seconds = best_time((sample, a, args.nsim, args.seed, 0, args.nsim), args.repeats)
        per_price.append(seconds / (args.nsim * price))
        per_variate.append(seconds / (args.nsim * n_a))
        print(f"{shape:>6} {a:>6} {n_a:>7} {distinct:>5} {seconds:>9.4f} {price:>6}"
              f" {1e9 * per_price[-1]:>8.1f} {1e9 * per_variate[-1]:>10.2f}")
    print(f"spread of seconds per variate: {spread(per_variate):.1f}")
    print(f"spread of seconds per price unit: {spread(per_price):.1f}")


if __name__ == "__main__":
    main()
