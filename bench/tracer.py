"""Spans around the calls into each dplfit module, recorded from outside.

The program looks its collaborators up by name at call time
(``dplfit.pipeline.fit_beta``, ``IntegerSample.truncated``, ...).  For
the length of a traced run the tracer replaces those names with wrappers
that record one span per call: the boundary's name, start and end in
nanoseconds, the span that was open when it began (its parent), and a
work count taken from the call's arguments or result.  Spans are kept in
flat arrays in memory and written out when the run ends.

A boundary whose name the program no longer has is skipped: it reports
zero calls, which is not an error.
"""

import importlib
import time
from array import array
from dataclasses import dataclass

import numpy as np

FAILED = -1  # the work count of a span whose call raised


def _zeta_points(args, kwargs, result):
    a = args[1] if len(args) > 1 else kwargs.get("a", 1)
    return int(np.size(a))


def _size_arg(args, kwargs, result):
    size = args[1] if len(args) > 1 else kwargs.get("size")
    return 1 if size is None else int(np.prod(size))


def _count_arg(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["count"])


def _points_arg(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["n"]))


def _iterations(args, kwargs, result):
    return int(result.iterations)


def _replicas_and_regenerated(args, kwargs, result):
    return int(result.p.n_sim), int(result.regenerated)


def _sample_size(args, kwargs, result):
    return int(result.size)


@dataclass(frozen=True)
class Boundary:
    layer: str
    name: str
    owners: tuple  # "module" or "module:Class" paths that hold the name
    count: object = None  # (args, kwargs, result) -> n, or (n, extra)


BOUNDARIES = (
    Boundary("zeta", "hurwitz_zeta", ("dplfit.distribution",), _zeta_points),
    Boundary("mle", "fit_beta", ("dplfit.pipeline", "dplfit.cli"), _iterations),
    Boundary("distribution", "log_likelihood", ("dplfit.mle",)),
    Boundary("distribution", "__init__", ("dplfit.distribution:IntegerSample",)),
    Boundary("distribution", "_uniq", ("dplfit.distribution:IntegerSample",)),
    Boundary("distribution", "count_at_least", ("dplfit.distribution:IntegerSample",)),
    Boundary("distribution", "truncated", ("dplfit.distribution:IntegerSample",)),
    Boundary("distribution", "sufficient_stat", ("dplfit.pipeline", "dplfit.cli")),
    Boundary("distribution", "__post_init__", ("dplfit.distribution:PowerLawModel",)),
    Boundary("distribution", "pmf", ("dplfit.distribution:PowerLawModel",), _points_arg),
    Boundary("distribution", "survival", ("dplfit.distribution:PowerLawModel",), _points_arg),
    Boundary("sampling", "sample_n", ("dplfit.pipeline",), _count_arg),
    Boundary("sampling", "uniform", ("dplfit.sampling:RngStream",), _size_arg),
    Boundary("sampling", "uniform_open_closed", ("dplfit.sampling:RngStream",), _size_arg),
    Boundary("ks", "ks_statistic", ("dplfit.pipeline",)),
    Boundary("ks", "p_value", ("dplfit.pipeline",)),
    Boundary("pipeline", "scan", ("dplfit.cli",)),
    Boundary("pipeline", "fit_at_a", ("dplfit.pipeline", "dplfit.cli"), _replicas_and_regenerated),
    Boundary("cli", "ingest", ("dplfit.cli",), _sample_size),
    Boundary("cli", "_base_document", ("dplfit.cli",)),
    Boundary("cli", "_fit_record", ("dplfit.cli",)),
    Boundary("cli", "write", ("dplfit.cli:ReportRecord",)),
    Boundary("cli", "emit_curves", ("dplfit.cli",)),
)

# The span the benchmark opens around each dplfit.cli.main call.
MAIN = Boundary("cli", "main", ())
# Report spans: the JSON report's build, hash and write, and the curve file
# that is the report of ``dplfit curves``.
REPORT_SPANS = ("_base_document", "_fit_record", "write", "emit_curves")


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder; install() wraps every boundary, uninstall() restores."""

    def __init__(self):
        self.boundaries = (MAIN,) + BOUNDARIES
        self.name = array("B")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.n = array("q")
        self.extra = [0] * len(self.boundaries)
        self._stack = [-1]
        self._saved = []

    def span(self, boundary_id, fn, count=None):
        """Wrap ``fn`` so that every call records a span of boundary ``boundary_id``."""
        name, parent, start, end, work = self.name, self.parent, self.start, self.end, self.n
        stack, extra, clock = self._stack, self.extra, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(boundary_id)
            parent.append(stack[-1])
            end.append(0)
            work.append(1)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                work[idx] = FAILED
                raise
            end[idx] = clock()
            stack.pop()
            if count is not None:
                n = count(args, kwargs, result)
                if type(n) is tuple:
                    n, more = n
                    extra[boundary_id] += more
                work[idx] = n
            return result

        return traced

    def install(self):
        for i, b in enumerate(self.boundaries):
            for owner in b.owners:
                obj = _resolve(owner)
                original = vars(obj).get(b.name)
                if not callable(original):
                    continue
                self._saved.append((obj, b.name, original))
                setattr(obj, b.name, self.span(i, original, b.count))

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.uint8),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "n": np.frombuffer(self.n, dtype=np.int64),
        }

    def save(self, path):
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array([f"{b.layer}.{b.name}" for b in self.boundaries]),
                     **self.arrays())

    def layer_metrics(self, n_ops):
        """Per-layer counts and self times, per traced operation."""
        spans = self.arrays()
        ids = {b.name: i for i, b in enumerate(self.boundaries)}
        name, parent, work = spans["name"], spans["parent"], spans["n"]
        dur = (spans["end"] - spans["start"]) / 1e9
        child = parent >= 0
        cover = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_by_name = np.bincount(name, weights=dur - cover, minlength=len(self.boundaries))

        def of(boundary):
            return name == ids[boundary]

        def calls(boundary):
            return int(np.count_nonzero(of(boundary)))

        def ok_work(boundary):
            sel = of(boundary) & (work != FAILED)
            return int(work[sel].sum()), int(np.count_nonzero(sel))

        def self_s(layer):
            return float(sum(t for b, t in zip(self.boundaries, self_by_name)
                             if b.layer == layer))

        def ratio(num, den):
            return num / den if den else 0.0

        iterations, fits_ok = ok_work("fit_beta")
        variates, _ = ok_work("sample_n")
        uniforms = ok_work("uniform")[0] + ok_work("uniform_open_closed")[0]
        in_ks = np.zeros(name.size, dtype=bool)
        in_ks[child] = name[parent[child]] == ids["ks_statistic"]
        ks_points = int(work[of("survival") & in_ks].sum())
        report = np.isin(name, [ids[r] for r in REPORT_SPANS])
        per_op = {
            "zeta.calls": calls("hurwitz_zeta"),
            "zeta.points": ok_work("hurwitz_zeta")[0],
            "zeta.self_s": self_s("zeta"),
            "mle.fits": calls("fit_beta"),
            "mle.failed": calls("fit_beta") - fits_ok,
            "mle.self_s": self_s("mle"),
            "distribution.loglik_calls": calls("log_likelihood"),
            "distribution.survival_points": ok_work("survival")[0],
            "distribution.self_s": self_s("distribution"),
            "sampling.variates": variates,
            "sampling.self_s": self_s("sampling"),
            "ks.calls": calls("ks_statistic"),
            "ks.self_s": self_s("ks"),
            "pipeline.cutoffs": calls("fit_at_a"),
            "pipeline.replicas": ok_work("fit_at_a")[0],
            "pipeline.regenerated": self.extra[ids["fit_at_a"]],
            "pipeline.self_s": self_s("pipeline"),
            "cli.values_ingested": ok_work("ingest")[0],
            "cli.ingest_s": float(dur[of("ingest")].sum()),
            "cli.report_s": float(dur[report].sum()),
            "cli.self_s": self_s("cli"),
        }
        out = {k: v / n_ops for k, v in per_op.items()}
        out["mle.iterations_per_fit"] = ratio(iterations, fits_ok)
        out["sampling.uniforms_per_variate"] = ratio(uniforms, variates)
        out["ks.points"] = ratio(ks_points, calls("ks_statistic"))
        return out
