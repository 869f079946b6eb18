"""The names the benchmark under bench/ reaches into dplfit still resolve,
so a change that drops one fails here rather than in a benchmark run.  The
files under bench/ are read, never run or edited."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_imports_from_dplfit_resolve():
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dplfit"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    imported.append(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("dplfit"):
                        importlib.import_module(alias.name)
    assert "dplfit.mle.MleConfig" in imported
    from dplfit.mle import MleConfig

    # bench/worker.py reports the solver's tolerance and bench/checks.py
    # compares fitted exponents within it
    assert MleConfig().beta_tol == 1e-6


def test_tracer_boundary_classes_resolve():
    # the tracer wraps methods of the classes its boundaries name as
    # "module:Class" (IntegerSample, PowerLawModel, RngStream, ReportRecord)
    # and looks each one up with getattr, which fails on a missing class
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    owners = {owner for boundary in tracer.BOUNDARIES for owner in boundary.owners
              if ":" in owner}
    assert owners
    for owner in owners:
        module, cls = owner.split(":")
        assert isinstance(getattr(importlib.import_module(module), cls, None), type), owner
