#!/usr/bin/env python3
"""dplfit benchmark: three workloads through the command line, timed end to
end and, in a separate traced run, per module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus_scan --seed 1 --seconds 10 --trace 0

The inputs are generated here from ``--seed``; the operations run in a
fresh worker process (bench/worker.py) that imports dplfit from ``src``
and calls ``dplfit.cli.main`` in-process with stdout captured; the
outputs are then checked here against values computed without dplfit
(bench/checks.py).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 7
SETUP_CODE = ("import time; t = time.perf_counter(); import dplfit, dplfit.cli; "
              "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "op_s": "s",
    "setup_s": "s",
    "replicas_per_s": "1/s",
    "values_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "zeta.calls": "count",
    "zeta.points": "count",
    "zeta.self_s": "s",
    "mle.fits": "count",
    "mle.iterations_per_fit": "iterations/fit",
    "mle.failed": "count",
    "mle.self_s": "s",
    "distribution.loglik_calls": "count",
    "distribution.survival_points": "count",
    "distribution.self_s": "s",
    "sampling.variates": "count",
    "sampling.uniforms_per_variate": "uniforms/variate",
    "sampling.self_s": "s",
    "ks.calls": "count",
    "ks.points": "points/call",
    "ks.self_s": "s",
    "pipeline.cutoffs": "count",
    "pipeline.replicas": "count",
    "pipeline.regenerated": "count",
    "pipeline.self_s": "s",
    "cli.values_ingested": "count",
    "cli.ingest_s": "s",
    "cli.report_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Workload:
    """One operation's commands and outputs, and how to check an output file."""

    commands: list  # argv lists; "{opseed}" is replaced by the operation's seed
    outputs: list  # files the commands write, same placeholder
    check: object  # (output path, operation seed, beta_tol) -> list of problems
    opseed_base: int
    traced_ops: int
    values_per_op: int
    replicas_per_op: int
    describe: dict  # input make-up, printed at the start of a run


def corpus_scan(seed, work):
    path = work / "corpus.txt"
    freqs = inputs.corpus(inputs.derived_seed(seed, 1), path)
    table = inputs.Table.of(freqs)
    cutoffs = inputs.scan_cutoffs(table).tolist()
    out = str(work / "scan_{opseed}.json")

    def check(output, opseed, tol):
        return checks.check_scan_report(output, path, table, cutoffs, opseed,
                                        inputs.CORPUS_NSIM, tol)

    return Workload(
        commands=[["scan", str(path), "--format", "corpus",
                   "--nsim", str(inputs.CORPUS_NSIM), "--workers", "1",
                   "--seed", "{opseed}", "--out", out]],
        outputs=[out], check=check, opseed_base=inputs.derived_seed(seed, 2),
        traced_ops=1, values_per_op=table.size,
        replicas_per_op=len(cutoffs) * inputs.CORPUS_NSIM,
        describe={"types": table.size, "tokens": int(freqs.sum()),
                  "cutoffs": len(cutoffs), "bytes": path.stat().st_size},
    )


def large_tail_fit(seed, work):
    path = work / "tail.counts"
    table = inputs.large_tail(inputs.derived_seed(seed, 1), path)
    out = str(work / "fit_{opseed}.json")

    def check(output, opseed, tol):
        return checks.check_fit_report(output, path, table, 1, opseed,
                                       inputs.LARGE_TAIL_NSIM, tol)

    return Workload(
        commands=[["fit", str(path), "--format", "counts", "--a", "1",
                   "--nsim", str(inputs.LARGE_TAIL_NSIM), "--seed", "{opseed}",
                   "--out", out]],
        outputs=[out], check=check, opseed_base=inputs.derived_seed(seed, 2),
        traced_ops=3, values_per_op=table.size, replicas_per_op=inputs.LARGE_TAIL_NSIM,
        describe={"n": table.size, "lines": int(table.values.size),
                  "bytes": path.stat().st_size},
    )


def counts_ingest(seed, work):
    path = work / "table.counts"
    table = inputs.ingest_table(inputs.derived_seed(seed, 1), path)
    a = inputs.ingest_cutoff(table)
    fit_seed = inputs.derived_seed(seed, 2)
    curves_out, fit_out = str(work / "curves.tsv"), str(work / "fit.json")

    def check(output, opseed, tol):
        if output == curves_out:
            return checks.check_curves(output, table, tol)
        return checks.check_fit_report(output, path, table, a, fit_seed,
                                       inputs.INGEST_NSIM, tol)

    # Every operation repeats the same two commands, so every run also
    # checks that the same command gives byte-identical outputs.
    return Workload(
        commands=[["curves", str(path), "--format", "counts", "--a", "1",
                   "--out", curves_out],
                  ["fit", str(path), "--format", "counts", "--a", str(a),
                   "--nsim", str(inputs.INGEST_NSIM), "--seed", str(fit_seed),
                   "--out", fit_out]],
        outputs=[curves_out, fit_out], check=check, opseed_base=fit_seed,
        traced_ops=3, values_per_op=2 * table.size, replicas_per_op=inputs.INGEST_NSIM,
        describe={"n": table.size, "lines": int(table.values.size), "a": a,
                  "n_a": table.tail(a).size, "bytes": path.stat().st_size},
    )


WORKLOADS = {
    "corpus_scan": corpus_scan,
    "large_tail_fit": large_tail_fit,
    "counts_ingest": counts_ingest,
}


def program_env(root):
    src = root / "src"
    if not (src / "dplfit" / "cli.py").is_file():
        sys.exit(f"error: {src}/dplfit not found; run from the root of a dplfit checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def setup_seconds(env):
    """Median time for a fresh interpreter to import dplfit and dplfit.cli.

    One untimed import first, so that byte-code caching is not counted.
    """
    def once():
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        return float(done.stdout)

    once()
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def run_worker(plan, env, deadline):
    plan_path = Path(plan["result"]).with_name("plan.json")
    plan_path.write_text(json.dumps(plan))
    try:
        subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path)],
                       env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("error: the workload did not finish in time")
    except subprocess.CalledProcessError as err:
        sys.exit(f"error: the worker exited with status {err.returncode}")
    return json.loads(Path(plan["result"]).read_text())


def check_output(workload, output, opseed, tol):
    """(digest, problems) of one output file; a missing or malformed file is a problem."""
    try:
        return checks.file_digest(output), workload.check(output, opseed, tol)
    except FileNotFoundError:
        return None, [f"{output} was not written"]
    except (KeyError, ValueError, TypeError, IndexError) as err:
        return checks.file_digest(output), [f"{output} is malformed: {err!r}"]


def op_problems(op, workload, on_disk, tol):
    """Problems of one operation: exit statuses, outputs, output checks."""
    problems = [f"command {i} ended with {status!r}"
                for i, status in enumerate(op["statuses"]) if status != 0]
    opseed = workload.opseed_base + op["k"]
    for template in workload.outputs:
        output = template.replace("{opseed}", str(opseed))
        if output not in on_disk:
            on_disk[output] = check_output(workload, output, opseed, tol)
        digest, content_problems = on_disk[output]
        if op["digests"].get(output) != digest:
            problems.append(f"{output} differs from another run of the same command")
        problems += content_problems
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    env = program_env(root)
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = WORKLOADS[args.workload](args.seed, work.resolve())
    print(f"workload {args.workload} seed {args.seed}: {workload.describe}")
    setup_s = None if args.trace else setup_seconds(env)
    plan = {
        "commands": workload.commands,
        "outputs": workload.outputs,
        "opseed_base": workload.opseed_base,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "traced_ops": workload.traced_ops,
        "trace_file": str((work / "trace.npz").resolve()),
        "result": str((work / "result.json").resolve()),
    }
    result = run_worker(plan, env, deadline)

    tol = result["beta_tol"]
    on_disk = {}
    ops = result["ops"] + result.get("traced_ops", [])
    problems = [op_problems(op, workload, on_disk, tol) for op in ops]
    if args.trace:
        # an operation counts once: its untraced and traced runs fail together
        half = len(result["ops"])
        problems = [a + b for a, b in zip(problems[:half], problems[half:])]
    failed = sum(1 for p in problems if p)
    for k, p in enumerate(problems):
        for line in p[:5]:
            print(f"operation {k}: {line}", file=sys.stderr)

    if args.trace:
        values = result["layers"]
        units = PER_LAYER_UNITS
    else:
        op_s = statistics.median(op["seconds"] for op in result["ops"])
        values = {
            "op_s": op_s,
            "setup_s": setup_s,
            "replicas_per_s": workload.replicas_per_op / op_s,
            "values_per_s": workload.values_per_op / op_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"{len(problems)} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
