"""The scripts under scripts/ and the README's library example run against
the library as it is: each runs as a fresh process, the experiment
scripts on tiny arguments and scripts/report_digests.py on each benchmark
workload's first seed, with warnings as errors.  scripts/fetch_novel.py
needs network access and is left out."""

import hashlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env=env, timeout=120, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def run_script(script, *args, cwd=None):
    return run_python(str(ROOT / "scripts" / script), *args, cwd=cwd)


# A row of scripts/job_costs.py: shape, a, N_a, D_a, the job's total in ms,
# the price, ns per price unit and per variate, then the ms of each of the
# job's five layers
JOB_ROW = (r"^ *[a-z]+ +\d+ +\d+ +\d+ +(\d+\.\d{3}) +\d+ +\d+\.\d +\d+\.\d\d"
           + r" +(\d+\.\d{3})" * 5 + "$")


@pytest.mark.parametrize("script,args,summary", [
    ("calibration_selfconsistency.py", "--reps 4 --n 500 --nsim 100 --workers 2",
     r"rejection rate at p <= 0\.05: \d\.\d{4} \(99% band around 0\.05: "),
    ("scan_repetitions.py", "--reps 1 --n 300 --nsim 100 --workers 1",
     r"a\*=1 in [01]/1 repetitions \(rate "),
    ("job_costs.py", "--corpus 300 --large 3000 --nsim 100 --repeats 1",
     r"(?m)^ *shape +a +N_a +D_a +ms +price +ns/unit +ns/variate +fit +keying +draw +refit +ks\n"
     rf"({JOB_ROW}\n)+"
     r"share of the jobs' time: fit \d+\.\d% keying \d+\.\d% draw \d+\.\d%"
     r" refit \d+\.\d% ks \d+\.\d%\n"
     r"spread of seconds per variate: \d+\.\d\nspread of seconds per price unit: \d+\.\d\n$"),
])
def test_experiment_script_runs(script, args, summary):
    proc = run_script(script, *args.split())
    assert re.search(summary, proc.stdout), proc.stdout
    # a job's layers, as the job clocks them, sum to no more than its total,
    # each printed to the microsecond
    for total, *layers in re.findall(JOB_ROW, proc.stdout, re.M):
        assert sum(map(float, layers)) <= float(total) + 0.003, proc.stdout
    band = re.search(r"band around [\d.]+: \[(\S+), (\S+)\]", proc.stdout)
    if band:
        # the 0.5% and 99.5% binomial quantiles of 4 repetitions at 0.05:
        # 0 and 2 rejections
        low, high = map(float, band.groups())
        assert 0.0 <= low <= 0.05 <= high <= 1.0
        assert (low, high) == (0.0, 0.5)


def test_report_digests_prints_each_output_digest(tmp_path):
    proc = run_script("report_digests.py", "--workload", "large_tail_fit", "--seeds", "1",
                      "--work", str(tmp_path))
    (line,) = proc.stdout.splitlines()
    workload, seed, name, digest = line.split()
    assert (workload, seed) == ("large_tail_fit", "1")
    report = tmp_path / "large_tail_fit" / name
    assert digest == hashlib.sha256(report.read_bytes()).hexdigest()


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    # a module docstring, a function docstring of two lines, a comment, a
    # blank line and three code lines, in a subdirectory to be found too
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "tiny.py").write_text(textwrap.dedent('''\
        """A tiny module."""

        def half(x):  # the only function
            """Half of x,
            as a float."""
            return x / 2
        # the end
        HALF = half(1)
        '''), encoding="utf-8")
    proc = run_script("code_lines.py", str(tmp_path))
    assert proc.stdout.splitlines() == [f"3 {tmp_path / 'pkg' / 'tiny.py'}", "3 total"]


# The outputs of each benchmark workload's first operation at seed 1.  A
# change that moves a report's bytes on purpose records the new digests.
REPORT_DIGESTS = {
    "corpus_scan": {
        "scan_1596810411.json": "f293965a8c14bade67b9bcd6aaaafbbaf2905f737fd7d3a503514fea2c8087c9",
    },
    "large_tail_fit": {
        "fit_1596810411.json": "c82bccfe2b849345525d33dba0c888cd0c8d878d44c10f131b3ff1e423694efe",
    },
    "counts_ingest": {
        "curves.tsv": "6d57683cb9ab22359c0aa9e3402efdeff37f5108302df25c5803eafaf8e47011",
        "fit.json": "7420be02440aaf2011fea9bab5abc7945bb5c2d6b233ead052f8999be4df500b",
    },
}


@pytest.mark.parametrize("workload", [
    pytest.param("corpus_scan", marks=pytest.mark.slow), "large_tail_fit", "counts_ingest",
])
def test_reports_keep_their_digest(tmp_path, workload):
    # a relative --work records the same input paths from any working
    # directory, so the reports' bytes depend on dplfit alone
    proc = run_script("report_digests.py", "--workload", workload, "--seeds", "1",
                      "--work", "work", cwd=tmp_path)
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert {name: digest for _, _, name, digest in lines} == REPORT_DIGESTS[workload]


def test_readme_library_example_prints_its_scan():
    # the python block under "## Library use": a sample drawn by sample_n,
    # one fit and a two-process scan of it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run_python("-c", code)
    assert proc.stdout == "1 1.130404387554632 0.007615129743917035\n"
