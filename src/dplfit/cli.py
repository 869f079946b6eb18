"""Command-line front end: ingest data, run fits and scans, emit reports
and plot-ready curve files.

Input formats
-------------
integers : one positive integer per line, blank lines ignored
counts   : two whitespace-separated columns per line, "value count"
corpus   : free text; the data are the frequencies of each distinct
           token, where tokens are maximal runs of alphabetic characters
           after lowercasing
"""

import argparse
import functools
import hashlib
import io
import json
import os
import re
import stat
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .distribution import IntegerSample, PowerLawModel, sufficient_stat
from .errors import DplfitError, ParseError
from .mle import MleConfig, fit_beta
from .pipeline import ScanConfig, _seed_for_cutoff, fit_at_a, scan
from .sampling import RETRY_STREAM_BASE, RNG_ALGORITHM

REPORT_SCHEMA_VERSION = 1
REJECT_LEVEL = 0.05

# Unicode letters only: word characters minus digits and underscore.
_TOKEN_RE = re.compile(r"[^\W\d_]+")

FORMATS = ("integers", "counts", "corpus")


@dataclass(frozen=True)
class InputSpec:
    path: str
    format: str = "integers"
    encoding: str = "utf-8"

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")


def tokenize_text(text):
    """Lowercased alphabetic-run tokens of a text, in order of appearance."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFC", text).lower())


_INT_RE = re.compile(r"[+-]?[0-9]+")
_INT64_MAX = 2**63 - 1


def _parse_positive_int(token, path, lineno, what):
    # stricter than int(): no underscores, no non-ASCII digits
    if not _INT_RE.fullmatch(token):
        raise ParseError(path, lineno, f"not an integer {what}: {token!r}")
    value = int(token)
    if value == 0:
        raise ParseError(path, lineno, f"zero {what} not allowed (support starts at 1)")
    if value < 0:
        raise ParseError(path, lineno, f"negative {what} not allowed: {value}")
    if value > _INT64_MAX:
        raise ParseError(path, lineno, f"{what} {value} exceeds 2^63 - 1")
    return value


def ingest(spec, data=None):
    """Read an input file into an IntegerSample.  ``data`` is the file's
    bytes where the caller has read them already, since a pipe can be read
    only once; otherwise the file is read here.

    Every format is read into one tally of value -> count: corpus mode
    counts the token frequencies, an integers file counts each line once,
    and a counts file adds each line's count to its value (a value listed
    twice is summed).  No count is ever expanded into observations.
    Raises ParseError with a line number on malformed input, on a value
    or count above 2^63 - 1 and where the total count passes it, and
    DplfitError on empty input.
    """
    path = Path(spec.path)
    text = (path.read_bytes() if data is None else data).decode(spec.encoding)
    if spec.format == "corpus":
        tally = Counter(Counter(tokenize_text(text)).values())
        if not tally:
            raise DplfitError(f"{path}: no tokens found")
    else:
        tally = {}
        total = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if spec.format == "integers":
                value = _parse_positive_int(line, path, lineno, "value")
                count = 1
            else:
                fields = line.split()
                if len(fields) != 2:
                    raise ParseError(path, lineno, f"expected 'value count', got {line!r}")
                value = _parse_positive_int(fields[0], path, lineno, "value")
                count = _parse_positive_int(fields[1], path, lineno, "count")
            total += count
            if total > _INT64_MAX:
                raise ParseError(path, lineno, f"total count {total} exceeds 2^63 - 1")
            tally[value] = tally.get(value, 0) + count
        if not tally:
            raise DplfitError(f"{path}: no values found")
    values = sorted(tally)
    return IntegerSample(values, [tally[v] for v in values])


# --------------------------------------------------------------------------
# reports


def _write_output(path, text):
    """Replace the contents of ``path`` with ``text`` (UTF-8).

    An existing file is overwritten in place and then cut to length rather
    than truncated to zero first: on ext4, truncating a file to zero and
    writing it anew makes the next rewrite of that file wait until the
    previous contents are on disk, tens of milliseconds per file.  Pipes
    and devices (``--out /dev/stdout``) are written without the cut.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate(len(data))


def _read_input(spec):
    """Read ``spec``'s file once: its sample and the provenance of the bytes
    it was parsed from, so a pipe's digest is that of what it delivered."""
    data = Path(spec.path).read_bytes()
    provenance = {
        "path": str(spec.path),
        "format": spec.format,
        "encoding": spec.encoding,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    return ingest(spec, data), provenance


def _fit_record(fit):
    return {
        "a": fit.a,
        "n_a": fit.n_a,
        "beta_emp": fit.beta_emp,
        "sigma": fit.sigma,
        "d_emp": fit.d_emp,
        "p": fit.p.p,
        "sigma_p": fit.p.sigma_p,
        "n_sim": fit.p.n_sim,
        "n_exceed": fit.p.n_exceed,
        "regenerated": fit.regenerated,
        "reliable": fit.reliable,
        "verdict": "rejected" if fit.p.p <= REJECT_LEVEL else "not rejected",
    }


@dataclass(frozen=True)
class ReportRecord:
    """A result plus everything needed to reproduce it bit for bit."""

    document: dict

    def to_json(self):
        return json.dumps(self.document, sort_keys=True, indent=2) + "\n"

    def write(self, path):
        _write_output(path, self.to_json())


def _base_document(provenance, sample, seed, n_sim, analysis, result, notes=()):
    """The reproducible report of an ``analysis``: the tool, input, seed and
    n_sim that reproduce it, ``result`` under the analysis's name, and
    ``notes`` followed by the rejection level's."""
    return ReportRecord({
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": {
            "name": "dplfit",
            "version": __version__,
            "rng_algorithm": RNG_ALGORITHM,
        },
        "input": provenance | {"n_values": sample.size},
        "seed": seed,
        "n_sim": n_sim,
        "analysis": analysis,
        analysis: result,
        "notes": [*notes, f"fits with p <= {REJECT_LEVEL} are considered bad and rejected"],
    })


def run_fit(spec, a, n_sim, seed):
    """Fixed-cutoff analysis wrapped in a reproducible report.

    The replicas are seeded as ``scan`` seeds cutoff ``a``, so the fit
    reproduces the scan's row for ``a`` at the same seed and n_sim.
    """
    sample, provenance = _read_input(spec)
    fit = fit_at_a(sample, a, n_sim, _seed_for_cutoff(seed, a))
    return _base_document(provenance, sample, seed, n_sim, "fit", _fit_record(fit))


def run_scan(spec, config):
    """Cutoff scan wrapped in a reproducible report."""
    sample, provenance = _read_input(spec)
    result = scan(sample, config)
    return _base_document(provenance, sample, config.seed, config.n_sim, "scan", {
        "p_threshold": config.p_threshold,
        "min_tail": config.min_tail,
        "fits": [_fit_record(f) for f in result.fits],
        "skipped": [{"a": a, "reason": reason} for a, reason in result.skipped],
        "a_star": result.a_star,
        "beta_star": result.beta_star,
        "sigma_star": result.sigma_star,
    }, notes=["per-cutoff p-values are conditional on the scan; the p-value of "
              "the selected cutoff is not the overall p-value of the procedure"])


def emit_curves(sample, model, destination):
    """Write the empirical and fitted mass/survival curves as TSV.

    One row per distinct value of the (already truncated) sample, with
    columns n, emp_f, fit_f, emp_S, fit_S; floats are written with
    shortest round-trip precision, ready for log-log plotting.
    """
    v = sample.unique_values
    n_a = sample.size
    emp_f = sample.unique_counts / n_a
    emp_s = sample.survival_counts / n_a
    fit_f = model.pmf(v)
    fit_s = model.survival(v)
    rows = list(zip(v.tolist(), emp_f.tolist(), fit_f.tolist(),
                    emp_s.tolist(), fit_s.tolist()))
    lines = ["n\temp_f\tfit_f\temp_S\tfit_S"]
    lines += [f"{n}\t{ef!r}\t{ff!r}\t{es!r}\t{fs!r}" for n, ef, ff, es, fs in rows]
    _write_output(destination, "\n".join(lines) + "\n")
    return rows


# --------------------------------------------------------------------------
# command-line interface


def _human_fit_line(rec):
    flag = "" if rec["reliable"] else "  [unreliable]"
    return (
        f"a={rec['a']:<6d} N_a={rec['n_a']:<8d} beta={rec['beta_emp']:.4f} "
        f"+- {rec['sigma']:.4f}  d_emp={rec['d_emp']:.5f}  "
        f"p={rec['p']:.3f} +- {rec['sigma_p']:.3f}  ({rec['verdict']}){flag}"
    )


def _print_scan_report(doc):
    scan_doc = doc["scan"]
    for rec in scan_doc["fits"]:
        print(_human_fit_line(rec))
    for rec in scan_doc["skipped"]:
        print(f"a={rec['a']:<6d} skipped: {rec['reason']}")
    if scan_doc["a_star"] is None:
        print(f"no acceptable power-law tail (no cutoff with p > "
              f"{scan_doc['p_threshold']})")
    else:
        print(
            f"a* = {scan_doc['a_star']}  beta* = {scan_doc['beta_star']:.4f} "
            f"+- {scan_doc['sigma_star']:.4f}  (smallest cutoff with p > "
            f"{scan_doc['p_threshold']})"
        )
    print("note: " + doc["notes"][0])


def _add_input_args(sub):
    sub.add_argument("input", help="input data file")
    sub.add_argument("--format", choices=FORMATS, default="integers",
                     help="input format (default: integers)")
    sub.add_argument("--encoding", type=_text_encoding, default="utf-8",
                     help="text encoding for corpus mode (default: utf-8)")


def _cmd_fit(args):
    spec = InputSpec(args.input, args.format, args.encoding)
    record = run_fit(spec, args.a, args.nsim, args.seed)
    print(_human_fit_line(record.document["fit"]))
    if args.out:
        record.write(args.out)
    return 0


def _cmd_scan(args):
    spec = InputSpec(args.input, args.format, args.encoding)
    config = ScanConfig(
        min_tail=args.min_tail,
        n_sim=args.nsim,
        p_threshold=args.pthresh,
        seed=args.seed,
        workers=args.workers,
    )
    record = run_scan(spec, config)
    _print_scan_report(record.document)
    if args.out:
        record.write(args.out)
    return 0


def _cmd_curves(args):
    spec = InputSpec(args.input, args.format, args.encoding)
    sample = ingest(spec).truncated(args.a)
    if args.beta is not None:
        beta = args.beta
    else:
        beta = fit_beta(sufficient_stat(sample), args.a).beta_emp
    emit_curves(sample, PowerLawModel(args.a, beta), args.out)
    print(f"wrote curves for a={args.a}, beta={beta:.4f} to {args.out}")
    return 0


def _cmd_tokenize(args):
    text = Path(args.input).read_text(encoding=args.encoding)
    counts = Counter(tokenize_text(text))
    lines = [f"{tok}\t{cnt}" for tok, cnt in
             sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        _write_output(args.out, body)
    else:
        sys.stdout.write(body)
    return 0


def _int_at_least(low, most=None):
    """An argparse type: an integer of at least ``low`` and, given ``most``,
    at most ``most``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type if int() fails
    return parse


def _float_where(ok, requirement):
    """An argparse type: a float for which ``ok`` holds."""
    def parse(text):
        value = float(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = "float"
    return parse


def _text_encoding(name):
    """An argparse type: the name of a codec that a text file can be read
    with, so neither an unknown name nor a bytes-to-bytes codec such as
    rot13.  The check is the codec lookup that opening the file makes."""
    try:
        io.TextIOWrapper(io.BytesIO(), encoding=name)
    except LookupError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return name


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dplfit",
        description="Fit discrete power laws by maximum likelihood with a "
                    "Monte Carlo Kolmogorov-Smirnov goodness-of-fit test.",
    )
    parser.add_argument("--version", action="version", version=f"dplfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit at one fixed lower cutoff")
    _add_input_args(p_fit)
    p_fit.add_argument("--a", type=_int_at_least(1), required=True, help="lower cutoff")
    p_fit.add_argument("--nsim", type=_int_at_least(1, RETRY_STREAM_BASE), default=1000,
                       help="simulated replicas (at most 2^32)")
    p_fit.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed")
    p_fit.add_argument("--out", help="write the machine-readable JSON report here")
    p_fit.set_defaults(func=_cmd_fit)

    p_scan = sub.add_parser("scan", help="scan cutoffs and select a*")
    _add_input_args(p_scan)
    p_scan.add_argument("--nsim", type=_int_at_least(100, RETRY_STREAM_BASE), default=1000,
                        help="replicas per cutoff (at least 100, at most 2^32)")
    p_scan.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed")
    p_scan.add_argument("--pthresh", type=_float_where(lambda p: 0 < p < 1, "in (0, 1)"),
                        default=0.20,
                        help="selection threshold on the p-value (default 0.20)")
    p_scan.add_argument("--min-tail", type=_int_at_least(2), default=10,
                        help="stop scanning once fewer data remain (default 10)")
    p_scan.add_argument("--workers", type=_int_at_least(1), default=1,
                        help="forked processes the cutoffs are spread over; a "
                             "cutoff with more than a W-th of the work is split "
                             "(default 1: the scan chooses, one per usable CPU, "
                             "fewer for a small scan)")
    p_scan.add_argument("--out", help="write the machine-readable JSON report here")
    p_scan.set_defaults(func=_cmd_scan)

    p_curves = sub.add_parser("curves", help="emit empirical vs fitted curves (TSV)")
    _add_input_args(p_curves)
    p_curves.add_argument("--a", type=_int_at_least(1), required=True, help="lower cutoff")
    low, high = MleConfig.beta_bounds  # the exponents a fit can return
    p_curves.add_argument("--beta", type=_float_where(lambda b: low <= b <= high,
                                                   f"in [{low:g}, {high:g}]"),
                          help="exponent; fitted by maximum likelihood if omitted")
    p_curves.add_argument("--out", required=True, help="destination TSV file")
    p_curves.set_defaults(func=_cmd_curves)

    p_tok = sub.add_parser("tokenize", help="list token frequencies of a corpus")
    p_tok.add_argument("input", help="text file")
    p_tok.add_argument("--encoding", type=_text_encoding, default="utf-8")
    p_tok.add_argument("--out", help="destination file (default: stdout)")
    p_tok.set_defaults(func=_cmd_tokenize)

    return parser


# main's parser, built at main's first call, not at import, and reused by
# every later call in the process: each build takes about a millisecond
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DplfitError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
