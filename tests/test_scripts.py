"""The experiment scripts under scripts/ run against the library as it is:
each runs once as a fresh process, on tiny arguments, with warnings as
errors.  scripts/fetch_novel.py needs network access and is left out."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,summary", [
    ("calibration_selfconsistency.py", "--reps 4 --n 500 --nsim 100 --workers 2",
     r"rejection rate at p <= 0\.05: \d\.\d{4} \(99% band around 0\.05: "),
    ("scan_repetitions.py", "--reps 1 --n 300 --nsim 100 --workers 1",
     r"a\*=1 in [01]/1 repetitions \(rate "),
])
def test_experiment_script_runs(script, args, summary):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "scripts" / script),
                           *args.split()], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.search(summary, proc.stdout), proc.stdout
