"""Run one workload's operations through ``dplfit.cli.main`` in this process.

Usage: python3 bench/worker.py PLAN.json

The plan names the commands of one operation (argv lists in which
``{opseed}`` stands for the operation's own seed), the files they write,
and how long to run.  Operation k uses seed ``opseed_base + k``.  Without
tracing, operations run one after another until ``seconds`` have passed
(at least one).  With tracing, each of the first ``traced_ops``
operations runs untraced and then traced, so the two timings give the
tracing overhead and the two outputs must be byte-identical.

Writes a JSON result to ``plan["result"]``: per-operation wall times,
exit statuses and output digests, this process's peak RSS, and with
tracing the per-layer metrics.  Only this process runs dplfit, so its
peak RSS counts the operations and not the input generation.
"""

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import dplfit.cli
from dplfit.mle import MleConfig

from tracer import Tracer


def _digests(paths):
    return {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths if Path(p).is_file()}


def run_op(main, plan, k):
    """Run operation k; return its wall time, exit statuses and output digests."""
    opseed = str(plan["opseed_base"] + k)
    argvs = [[arg.replace("{opseed}", opseed) for arg in argv] for argv in plan["commands"]]
    statuses = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            try:
                statuses.append(main(argv))
            except Exception:  # reported as a failed operation, not a crash
                statuses.append(traceback.format_exc())
    seconds = time.perf_counter() - t0
    outputs = [p.replace("{opseed}", opseed) for p in plan["outputs"]]
    return {"k": k, "seconds": seconds, "statuses": statuses, "digests": _digests(outputs)}


def main():
    plan = json.loads(Path(sys.argv[1]).read_text())
    result = {"beta_tol": MleConfig().beta_tol}
    if plan["trace"]:
        tracer = Tracer()
        traced_main = tracer.span(0, dplfit.cli.main)
        plain, traced = [], []
        for k in range(plan["traced_ops"]):
            plain.append(run_op(dplfit.cli.main, plan, k))
            tracer.install()
            try:
                traced.append(run_op(traced_main, plan, k))
            finally:
                tracer.uninstall()
        layers = tracer.layer_metrics(plan["traced_ops"])
        layers["trace.overhead_s"] = (statistics.median(op["seconds"] for op in traced)
                                      - statistics.median(op["seconds"] for op in plain))
        tracer.save(plan["trace_file"])
        result.update(ops=plain, traced_ops=traced, layers=layers)
    else:
        ops = []
        t0 = time.perf_counter()
        while not ops or time.perf_counter() - t0 < plan["seconds"]:
            ops.append(run_op(dplfit.cli.main, plan, len(ops)))
        result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(plan["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
