#!/usr/bin/env python3
"""Print the sha256 of every output of a benchmark workload's first
operation, seed by seed, to check that two versions of dplfit write
byte-identical reports.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/report_digests.py --workload corpus_scan --seeds 1-10 --work DIR

For each seed the workload's inputs and commands are built as
bench/run.py builds them (its ``WORKLOADS``), and the commands of its
first operation (seed ``opseed_base``) run in this process through
``dplfit.cli.main``.  One line is printed per output:
``workload seed file sha256``.  dplfit is imported from wherever the
environment finds it, so setting ``PYTHONPATH`` to another checkout's
``src`` digests that version with the same inputs.  Reports record the
path of their input as given, under ``--work``, so digests compare only
between runs with the same ``--work``; a relative one records the same
path from any working directory.
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import dplfit.cli  # noqa: E402
from run import WORKLOADS  # noqa: E402


def seed_range(text):
    """'3' or '1-10' as a range of seeds."""
    first, _, last = text.partition("-")
    try:
        return range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or N-M, got {text!r}") from None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args()
    print(f"dplfit from {Path(dplfit.__file__).parent}", file=sys.stderr)

    work = args.work / args.workload
    work.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        workload = WORKLOADS[args.workload](seed, work)
        opseed = str(workload.opseed_base)
        for argv in workload.commands:
            argv = [arg.replace("{opseed}", opseed) for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                status = dplfit.cli.main(argv)
            if status != 0:
                sys.exit(f"error: dplfit {' '.join(argv)} exited with status {status}")
        for template in workload.outputs:
            output = Path(template.replace("{opseed}", opseed))
            digest = hashlib.sha256(output.read_bytes()).hexdigest()
            print(f"{args.workload} {seed} {output.name} {digest}", flush=True)


if __name__ == "__main__":
    main()
