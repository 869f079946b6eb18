"""The scripts under scripts/ and the README's library example run against
the library as it is: each runs once as a fresh process, the scripts on
tiny arguments, with warnings as errors.  scripts/fetch_novel.py needs
network access and is left out."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def run_script(script, *args):
    return run_python(str(ROOT / "scripts" / script), *args)


@pytest.mark.parametrize("script,args,summary", [
    ("calibration_selfconsistency.py", "--reps 4 --n 500 --nsim 100 --workers 2",
     r"rejection rate at p <= 0\.05: \d\.\d{4} \(99% band around 0\.05: "),
    ("scan_repetitions.py", "--reps 1 --n 300 --nsim 100 --workers 1",
     r"a\*=1 in [01]/1 repetitions \(rate "),
])
def test_experiment_script_runs(script, args, summary):
    proc = run_script(script, *args.split())
    assert re.search(summary, proc.stdout), proc.stdout
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


def test_readme_library_example_prints_its_scan():
    # the python block under "## Library use": a sample drawn by sample_n,
    # one fit and a two-process scan of it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run_python("-c", code)
    assert proc.stdout == "1 1.138263251335391 0.007668072096219572\n"
