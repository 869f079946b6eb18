import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dplfit.cli import (
    _write_output,
    InputSpec,
    build_parser,
    emit_curves,
    ingest,
    main,
    run_fit,
    run_scan,
    tokenize_text,
)
from dplfit.distribution import IntegerSample, PowerLawModel, sufficient_stat
from dplfit.errors import DplfitError, ParseError
from dplfit.mle import fit_beta
from dplfit.pipeline import LOST_MASS_LIMIT, ScanConfig, fit_at_a
from dplfit.sampling import RngStream, SamplerParams, sample_n

from oracles import expanded, table


def write_integers(sample, path):
    """Write a sample in integers format, one observation per line."""
    path.write_text("".join(f"{v}\n" for v in expanded(sample).tolist()),
                    encoding="utf-8")


# ----------------------------------------------------------------- ingest


def test_ingest_integers(tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("3\n\n1\n2\n\n", encoding="utf-8")
    sample = ingest(InputSpec(str(f), "integers"))
    assert table(sample) == ([1, 2, 3], [1, 1, 1])


def test_ingest_integers_rejects_zero(tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("1\n0\n2\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        ingest(InputSpec(str(f), "integers"))
    assert err.value.lineno == 2
    assert "zero" in str(err.value)


def test_ingest_integers_rejects_garbage(tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("1\ntwo\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        ingest(InputSpec(str(f), "integers"))
    assert err.value.lineno == 2


def test_ingest_integers_rejects_negative(tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("-4\n", encoding="utf-8")
    with pytest.raises(ParseError):
        ingest(InputSpec(str(f), "integers"))


def test_ingest_integers_exact_grammar(tmp_path):
    # int() would take these; the file grammar must not
    for token in ["1_0", "١٢", "0x10", "2.0"]:
        f = tmp_path / "data.txt"
        f.write_text(f"{token}\n", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest(InputSpec(str(f), "integers"))


def test_ingest_counts(tmp_path):
    f = tmp_path / "counts.txt"
    f.write_text("1 3\n2 1\n", encoding="utf-8")
    sample = ingest(InputSpec(str(f), "counts"))
    assert table(sample) == ([1, 2], [3, 1])
    assert sample.size == 4


def test_ingest_counts_sums_repeated_values(tmp_path):
    split = tmp_path / "split.txt"
    split.write_text("7 2\n1 3\n7 5\n", encoding="utf-8")
    merged = tmp_path / "merged.txt"
    merged.write_text("1 3\n7 7\n", encoding="utf-8")
    one = ingest(InputSpec(str(split), "counts"))
    two = ingest(InputSpec(str(merged), "counts"))
    assert table(one) == table(two) == ([1, 7], [3, 7])
    assert one.size == two.size == 10


def test_ingest_counts_bad_row(tmp_path):
    f = tmp_path / "counts.txt"
    f.write_text("1 3\n7\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        ingest(InputSpec(str(f), "counts"))
    assert err.value.lineno == 2


def test_ingest_empty_input(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("\n\n", encoding="utf-8")
    with pytest.raises(DplfitError):
        ingest(InputSpec(str(f), "integers"))
    # a corpus with no letters has no tokens, and `fit` on it fails cleanly
    f.write_text("42 -- 7\n", encoding="utf-8")
    with pytest.raises(DplfitError, match="no tokens found"):
        ingest(InputSpec(str(f), "corpus"))
    assert main(["fit", str(f), "--format", "corpus", "--a", "1", "--nsim", "100"]) == 1
    assert capsys.readouterr().err == f"error: {f}: no tokens found\n"


def test_ingest_corpus(tmp_path):
    f = tmp_path / "corpus.txt"
    f.write_text("the cat the", encoding="utf-8")
    sample = ingest(InputSpec(str(f), "corpus"))
    assert table(sample) == ([1, 2], [1, 1])


def test_ingest_corpus_diacritics(tmp_path):
    f = tmp_path / "corpus.txt"
    f.write_text("Seitsemän veljestä! SEITSEMÄN... veljestä, seitsemän?", encoding="utf-8")
    sample = ingest(InputSpec(str(f), "corpus"))
    assert table(sample) == ([2, 3], [1, 1])


def test_tokenize_text_rules():
    assert tokenize_text("Don't split-up\nwords2numbers") == [
        "don", "t", "split", "up", "words", "numbers"
    ]
    assert tokenize_text("") == []
    assert tokenize_text("123 456") == []


def test_input_spec_validation():
    with pytest.raises(ValueError):
        InputSpec("x", "parquet")


def test_round_trip_counts_to_integers(tmp_path):
    counts = tmp_path / "counts.txt"
    counts.write_text("1 5\n3 2\n9 1\n", encoding="utf-8")
    sample = ingest(InputSpec(str(counts), "counts"))
    out = tmp_path / "integers.txt"
    write_integers(sample, out)
    again = ingest(InputSpec(str(out), "integers"))
    assert table(again) == table(sample) == ([1, 3, 9], [5, 2, 1])


@given(counts=st.dictionaries(st.integers(min_value=1, max_value=500),
                              st.integers(min_value=1, max_value=20),
                              min_size=1, max_size=30))
def test_round_trip_property(tmp_path_factory, counts):
    tmp = tmp_path_factory.mktemp("roundtrip")
    f = tmp / "counts.txt"
    f.write_text("".join(f"{v} {c}\n" for v, c in counts.items()), encoding="utf-8")
    sample = ingest(InputSpec(str(f), "counts"))
    assert table(sample) == (sorted(counts), [counts[v] for v in sorted(counts)])
    out = tmp / "ints.txt"
    write_integers(sample, out)
    assert table(ingest(InputSpec(str(out), "integers"))) == table(sample)


# ----------------------------------------------------------------- curves


def test_curves_single_value(tmp_path):
    sample = IntegerSample([4])
    model = PowerLawModel(4, 1.0)
    dest = tmp_path / "curves.tsv"
    rows = emit_curves(sample, model, dest)
    assert len(rows) == 1
    n, emp_f, fit_f, emp_s, fit_s = rows[0]
    assert n == 4 and emp_f == 1.0 and emp_s == 1.0 and fit_s == 1.0
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n\temp_f\tfit_f\temp_S\tfit_S"
    assert len(lines) == 2


def test_curves_power_law_scaling(tmp_path):
    # fitted_f column must scale exactly like the model: f(2n)/f(n) = 2^-(beta+1)
    sample = IntegerSample([1, 2, 4, 8, 16, 32])
    model = PowerLawModel(1, 1.37)
    rows = emit_curves(sample, model, tmp_path / "c.tsv")
    fit_f = {n: ff for n, _, ff, _, _ in rows}
    for n in [1, 2, 4, 8, 16]:
        assert fit_f[2 * n] / fit_f[n] == pytest.approx(2.0 ** -(2.37), rel=1e-10)


def test_curves_empirical_survival_recount(tmp_path):
    values = [1, 1, 1, 2, 2, 5, 5, 5, 9]
    sample = IntegerSample(values)
    model = PowerLawModel(1, 1.0)
    rows = emit_curves(sample, model, tmp_path / "c.tsv")
    for n, _, _, emp_s, _ in rows:
        assert emp_s == sum(1 for v in values if v >= n) / len(values)


def test_curves_columns_finite_nonnegative(tmp_path):
    sample = sample_n(SamplerParams(1, 1.1), 2000, RngStream(3, 0))
    rows = emit_curves(sample, PowerLawModel(1, 1.1), tmp_path / "c.tsv")
    arr = np.array([r[1:] for r in rows], dtype=float)
    assert np.all(np.isfinite(arr))
    assert np.all(arr >= 0.0)
    # survival at the cutoff is exactly 1
    assert rows[0][0] == 1 and rows[0][4] == 1.0


# ---------------------------------------------------------------- reports


def make_power_law_file(tmp_path, n=1500, beta=1.3, seed=17):
    sample = sample_n(SamplerParams(1, beta), n, RngStream(seed, 0))
    f = tmp_path / "pl.txt"
    write_integers(sample, f)
    return f


def test_run_fit_report_contents(tmp_path):
    f = make_power_law_file(tmp_path)
    record = run_fit(InputSpec(str(f)), a=1, n_sim=100, seed=5)
    doc = record.document
    assert doc["schema_version"] == 1
    assert doc["analysis"] == "fit"
    assert doc["tool"]["name"] == "dplfit"
    assert doc["tool"]["rng_algorithm"]
    assert len(doc["input"]["sha256"]) == 64
    assert doc["seed"] == 5 and doc["n_sim"] == 100
    fit = doc["fit"]
    assert fit["verdict"] in ("rejected", "not rejected")
    assert fit["verdict"] == ("rejected" if fit["p"] <= 0.05 else "not rejected")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_report_digest_is_of_the_bytes_parsed_from_a_pipe(tmp_path):
    # a pipe can be read once: the digest is of the bytes the fit parsed,
    # not of a second, empty read, and a regular file's report is the same
    f = make_power_law_file(tmp_path, n=300)
    data = f.read_bytes()
    r, w = os.pipe()
    os.write(w, data)  # fits in the pipe's buffer
    os.close(w)
    try:
        piped = run_fit(InputSpec(f"/dev/fd/{r}"), a=1, n_sim=100, seed=0).document
    finally:
        os.close(r)
    regular = run_fit(InputSpec(str(f)), a=1, n_sim=100, seed=0).document
    assert piped["input"]["sha256"] == hashlib.sha256(data).hexdigest()
    assert piped["input"]["n_values"] == 300
    piped["input"]["path"] = str(f)
    assert piped == regular


@pytest.mark.parametrize("command", [["fit", "--a", "1"], ["scan", "--min-tail", "200"],
                                     ["curves", "--a", "1"]])
def test_every_command_reads_its_input_through_ingest(monkeypatch, tmp_path, command):
    # a wrapper of dplfit.cli.ingest, as a tracer puts in its place, sees
    # every command's one read of its input
    f = make_power_law_file(tmp_path, n=300)
    calls = []

    def counting(spec, *args):
        calls.append(spec.path)
        return ingest(spec, *args)

    monkeypatch.setattr("dplfit.cli.ingest", counting)
    name, *options = command
    args = [name, str(f), *options, "--out", str(tmp_path / "out")]
    if name != "curves":
        args += ["--nsim", "100"]
    assert main(args) == 0
    assert calls == [str(f)]


def test_run_fit_rejects_geometric(tmp_path):
    rng = np.random.default_rng(40)
    f = tmp_path / "geom.txt"
    write_integers(IntegerSample(rng.geometric(0.3, size=8000)), f)
    record = run_fit(InputSpec(str(f)), a=1, n_sim=100, seed=5)
    assert record.document["fit"]["verdict"] == "rejected"


def test_run_scan_report_and_determinism(tmp_path):
    f = make_power_law_file(tmp_path, n=600)
    config = ScanConfig(a_values=(1, 2), n_sim=100, seed=9)
    one = run_scan(InputSpec(str(f)), config)
    two = run_scan(InputSpec(str(f)), config)
    assert one.to_json() == two.to_json()
    doc = one.document
    assert doc["analysis"] == "scan"
    assert [rec["a"] for rec in doc["scan"]["fits"]] == [1, 2]
    assert "conditional on the scan" in doc["notes"][0]


def test_fit_reproduces_scan_row(tmp_path):
    f = make_power_law_file(tmp_path, n=3000, beta=1.13, seed=42)
    spec = InputSpec(str(f))
    scan_doc = run_scan(spec, ScanConfig(a_values=(1, 2), n_sim=100, seed=7)).document
    row = scan_doc["scan"]["fits"][1]
    fit = run_fit(spec, a=2, n_sim=100, seed=7).document["fit"]
    assert row["a"] == 2
    assert fit == row  # n_exceed, d_emp, beta_emp and every other field


def test_report_written_file_round_trips(tmp_path):
    f = make_power_law_file(tmp_path, n=400)
    record = run_fit(InputSpec(str(f)), a=1, n_sim=100, seed=2)
    out = tmp_path / "report.json"
    record.write(out)
    assert json.loads(out.read_text(encoding="utf-8")) == record.document


def test_write_output_replaces_contents(tmp_path):
    out = tmp_path / "out.txt"
    out.write_bytes(b"x" * 10000)
    _write_output(out, "short\n")
    assert out.read_bytes() == b"short\n"
    _write_output(out, "longer \u00e9\n" * 100)
    assert out.read_text(encoding="utf-8") == "longer \u00e9\n" * 100
    _write_output(tmp_path / "new.txt", "")
    assert (tmp_path / "new.txt").read_bytes() == b""


def test_write_output_to_a_device():
    _write_output(os.devnull, "report\n")  # not a regular file: no cut to length


def test_cli_rewrites_existing_output(tmp_path):
    big = make_power_law_file(tmp_path, n=2000, seed=5)
    small = tmp_path / "small.txt"
    small.write_text("1\n1\n2\n3\n", encoding="utf-8")
    out, fresh = tmp_path / "curves.tsv", tmp_path / "fresh.tsv"
    assert main(["curves", str(big), "--a", "1", "--out", str(out)]) == 0
    assert main(["curves", str(small), "--a", "1", "--out", str(out)]) == 0
    assert main(["curves", str(small), "--a", "1", "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


# -------------------------------------------------------------------- CLI


def test_cli_fit_exit_zero_even_when_rejected(tmp_path, capsys):
    rng = np.random.default_rng(41)
    f = tmp_path / "geom.txt"
    write_integers(IntegerSample(rng.geometric(0.3, size=5000)), f)
    code = main(["fit", str(f), "--a", "1", "--nsim", "100", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rejected" in out


def test_cli_fit_writes_report(tmp_path):
    f = make_power_law_file(tmp_path, n=500)
    out = tmp_path / "report.json"
    code = main(["fit", str(f), "--a", "1", "--nsim", "100", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["analysis"] == "fit"


def test_cli_scan_smoke(tmp_path, capsys):
    f = make_power_law_file(tmp_path, n=500)
    out = tmp_path / "scan.json"
    code = main(["scan", str(f), "--nsim", "100", "--seed", "4",
                 "--min-tail", "50", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "a=1" in printed
    assert out.exists()


def test_cli_scan_reports_no_tail(tmp_path, capsys):
    rng = np.random.default_rng(42)
    f = tmp_path / "geom.txt"
    # shifted geometric: no power-law tail anywhere the scan can test
    write_integers(IntegerSample(rng.geometric(0.45, size=4000) + 500), f)
    code = main(["scan", str(f), "--nsim", "100", "--seed", "4",
                 "--min-tail", "3999"])
    assert code == 0
    printed = capsys.readouterr().out
    assert ("no acceptable power-law tail" in printed) or ("a* =" in printed)


def test_cli_curves(tmp_path, capsys):
    f = make_power_law_file(tmp_path, n=900)
    out = tmp_path / "curves.tsv"
    code = main(["curves", str(f), "--a", "1", "--out", str(out)])
    assert code == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "n\temp_f\tfit_f\temp_S\tfit_S"


def test_cli_curves_fixed_beta(tmp_path):
    f = make_power_law_file(tmp_path, n=300)
    out = tmp_path / "curves.tsv"
    assert main(["curves", str(f), "--a", "2", "--beta", "1.5",
                 "--out", str(out)]) == 0
    assert out.exists()


def test_cli_curves_on_huge_counts(tmp_path, capsys):
    # 2.3e12 observations from five lines: the counts are never expanded
    counts = {1: 10**12, 2: 7 * 10**11, 3: 3 * 10**11, 10: 2 * 10**11, 1000: 12345}
    f = tmp_path / "huge.counts"
    f.write_text("".join(f"{v} {c}\n" for v, c in counts.items()), encoding="utf-8")
    out = tmp_path / "curves.tsv"
    code = main(["curves", str(f), "--format", "counts", "--a", "1", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    total = sum(counts.values())
    above = total
    assert [int(r[0]) for r in rows] == list(counts)
    for (v, c), (_, emp_f, _, emp_s, _) in zip(counts.items(), rows):
        assert float(emp_f) == c / total
        assert float(emp_s) == above / total
        above -= c


def test_cli_tail_too_large_to_simulate(tmp_path):
    # 2.2e17 observations ingest and fit, but one replica of them is drawn
    # as its table with 2.3e12 envelope values past its 2^16 cells (1.8e9
    # at a = 2), which take 18 TB (14 GB): a typed error (exit 1, a skipped
    # cutoff in a scan), not a numpy MemoryError traceback.  The child
    # process limits its own address space to 3 GB, so nothing that large
    # is ever allocated.
    counts = {1: 10**17, 2: 7 * 10**16, 3: 3 * 10**16, 10: 2 * 10**16, 1000: 12345 * 10**5}
    f = tmp_path / "huge.counts"
    f.write_text("".join(f"{v} {c}\n" for v, c in counts.items()), encoding="utf-8")
    child = textwrap.dedent(f"""
        import json, resource
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
        from dplfit.cli import InputSpec, ingest, main
        from dplfit.pipeline import ScanConfig, scan
        code = main(["fit", {str(f)!r}, "--format", "counts", "--a", "1", "--nsim", "100"])
        sample = ingest(InputSpec({str(f)!r}, "counts"))
        result = scan(sample, ScanConfig(a_values=(1, 2), n_sim=100))
        print(json.dumps({{"code": code, "fits": len(result.fits),
                          "skipped": result.skipped}}))
    """)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: a replica of {sum(counts.values())} observations" in proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 1
    assert out["fits"] == 0
    assert [a for a, _ in out["skipped"]] == [1, 2]
    assert all(reason.startswith("TailTooLargeError: ") for _, reason in out["skipped"])


def test_cli_replicas_too_many_for_memory(tmp_path):
    # a billion replicas' distances take 4-8 GB in one job: fit and scan
    # stop with a typed error (exit 1), not a numpy MemoryError traceback,
    # and the scan stops rather than skip every cutoff.  The child process
    # limits its own address space to 3 GB, so nothing that large is ever
    # allocated
    rng = np.random.default_rng(3)
    f = tmp_path / "data.txt"
    f.write_text("".join(f"{v}\n" for v in rng.zipf(2.13, 500).tolist()), encoding="utf-8")
    child = textwrap.dedent(f"""
        import json, resource
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
        from dplfit.cli import main
        codes = [main([command, {str(f)!r}, "--nsim", "1000000000", *options])
                 for command, options in (("fit", ["--a", "1"]), ("scan", []))]
        print(json.dumps(codes))
    """)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [1, 1]
    errors = proc.stderr.splitlines()
    assert len(errors) == 2
    assert all(re.fullmatch(r"error: replicas 0 to \d+ at a=1 do not fit in memory", line)
               for line in errors)


@pytest.mark.parametrize("body,lineno,what", [
    ("1\n9223372036854775808\n", 2, "value"),
    ("3 1\n9223372036854775808 1\n", 2, "value"),
    ("3 1\n5 9223372036854775808\n", 2, "count"),
    ("3 1\n5 9223372036854775807\n7 1\n", 2, "total count"),
    ("3 4611686018427387904\n3 4611686018427387904\n", 2, "total count"),
])
def test_cli_ingest_int64_bounds(tmp_path, capsys, body, lineno, what):
    fmt = "counts" if " " in body else "integers"
    f = tmp_path / "big.txt"
    f.write_text(body, encoding="utf-8")
    code = main(["fit", str(f), "--format", fmt, "--a", "1", "--nsim", "100"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}:{lineno}: {what}")
    assert "2^63 - 1" in err


def test_cli_tokenize(tmp_path, capsys):
    f = tmp_path / "corpus.txt"
    f.write_text("b a b a b", encoding="utf-8")
    code = main(["tokenize", str(f)])
    assert code == 0
    assert capsys.readouterr().out == "b\t3\na\t2\n"


def test_cli_corpus_scan_end_to_end(tmp_path, capsys):
    # synthetic corpus whose word frequencies are the data: frequency of
    # token k is drawn from a power law, then dumped as repeated tokens
    rng = np.random.default_rng(55)
    freqs = expanded(sample_n(SamplerParams(1, 1.2), 400, RngStream(55, 0)))
    words = []
    for k, f in enumerate(freqs):
        token = "w" + "".join(chr(97 + int(c)) for c in str(k))
        words.extend([token] * int(f))
    rng.shuffle(words)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(" ".join(words), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["scan", str(corpus), "--format", "corpus", "--nsim", "100",
                 "--seed", "6", "--min-tail", "40", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["input"]["format"] == "corpus"
    assert doc["input"]["n_values"] == 400
    assert doc["scan"]["fits"][0]["n_a"] == 400


def test_cli_missing_file_is_operational_error(tmp_path, capsys):
    code = main(["fit", str(tmp_path / "nope.txt"), "--a", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_zero_value_is_operational_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("0\n", encoding="utf-8")
    code = main(["fit", str(f), "--a", "1", "--nsim", "100"])
    assert code == 1
    assert "zero" in capsys.readouterr().err


def test_cli_undecodable_file_is_operational_error(tmp_path, capsys):
    f = tmp_path / "binary.bin"
    f.write_bytes(b"\xff\xfe\x00\x01binary")
    code = main(["fit", str(f), "--a", "1", "--nsim", "100"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_cutoff_above_maximum(tmp_path, capsys):
    f = tmp_path / "small.txt"
    f.write_text("1\n2\n3\n", encoding="utf-8")
    code = main(["fit", str(f), "--a", "9", "--nsim", "100"])
    assert code == 1
    assert "no values" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["fit"], ["curves"], ["curves", "--beta", "1"]])
def test_cli_cutoff_past_int64(tmp_path, capsys, command):
    # no value a file may hold reaches 2^63, so the tail is empty, not the
    # largest values rounded up to the cutoff
    f = tmp_path / "top.counts"
    f.write_text(f"{2**63 - 500} 1\n{2**63 - 2} 1\n{2**63 - 1} 1\n", encoding="utf-8")
    name, *options = command
    code = main([name, str(f), "--format", "counts", "--a", str(2**63),
                 "--out", str(tmp_path / "out"), *options])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: no values >= 9223372036854775808")


@pytest.mark.parametrize("args", [
    ["fit", "--a", "1", "--nsim", "0"],
    ["fit", "--a", "1", "--nsim", "-5"],
    ["fit", "--a", "1", "--nsim", "4294967297"],
    ["fit", "--a", "0"],
    ["fit", "--a", "1", "--seed", "-3"],
    ["curves", "--a", "0"],
    ["curves", "--a", "1", "--beta", "-1"],
    ["curves", "--a", "1", "--beta", "nan"],
    ["curves", "--a", "1", "--beta", "1e-17"],
    ["curves", "--a", "1", "--beta", "1e-5"],
    ["curves", "--a", "1", "--beta", "60"],
    ["curves", "--a", "1", "--beta", "1e7"],
    ["curves", "--a", "1", "--beta", "1e300"],
    ["scan", "--nsim", "50"],
    ["scan", "--nsim", "4294967297"],
    ["scan", "--seed", "-3"],
    ["scan", "--pthresh", "1.5"],
    ["scan", "--min-tail", "1"],
    ["scan", "--workers", "0"],
    ["scan", "--workers", "-1"],
    ["fit", "--a", "1", "--encoding", "nope"],
    ["scan", "--encoding", "nope"],
    ["curves", "--a", "1", "--encoding", "nope"],
    ["tokenize", "--encoding", "nope"],
    ["tokenize", "--encoding", "rot13"],
], ids=" ".join)
def test_cli_rejects_option_values_out_of_range(tmp_path, capsys, args):
    # each is a usage error before any work: a one-line message, no traceback
    f = make_power_law_file(tmp_path, n=50)
    command, *options = args
    if command == "curves":
        options += ["--out", str(tmp_path / "curves.tsv")]
    with pytest.raises(SystemExit) as exit_:
        main([command, str(f), *options])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"dplfit {command}: error: argument {args[-2]}: ")
    assert not (tmp_path / "curves.tsv").exists()


def test_parser_has_documented_surface():
    parser = build_parser()
    text = parser.format_help()
    for sub in ["fit", "scan", "curves", "tokenize"]:
        assert sub in text


def test_main_builds_one_parser_a_process(tmp_path):
    # a fresh process that calls main twice counts the top-level parsers
    # built (a subcommand's parser has a prog of its own): one, at the first
    # call, and none at import
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat and the dog\n", encoding="utf-8")
    child = textwrap.dedent(f"""
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        from dplfit.cli import main
        counts = [built.count("dplfit")]
        for _ in range(2):
            main(["tokenize", {str(corpus)!r}, "--out", {str(tmp_path / "tokens.tsv")!r}])
            counts.append(built.count("dplfit"))
        print(counts)
    """)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 1, 1]\n"


def test_cli_fit_at_huge_cutoff(tmp_path, capsys):
    a = 10**12
    values = [a, a + 1, a + 3, a + 5, a + 100, 2 * a]
    f = tmp_path / "huge.counts"
    f.write_text("".join(f"{v} 1\n" for v in values), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["fit", str(f), "--format", "counts", "--a", str(a),
                 "--nsim", "100", "--out", str(out)])
    assert code == 0
    beta = json.loads(out.read_text(encoding="utf-8"))["fit"]["beta_emp"]
    assert beta == fit_beta(sufficient_stat(IntegerSample(values)), a).beta_emp
    capsys.readouterr()

    # a fitted exponent of ~29.6 at this cutoff puts zeta(beta+1, a) below
    # double range; the model works with a^s zeta(s, a), so the fit runs
    f.write_text(f"{a} 1\n{107 * 10**10} 1\n", encoding="utf-8")
    code = main(["fit", str(f), "--format", "counts", "--a", str(a), "--nsim", "100"])
    assert code == 0
    assert "beta=29.5602" in capsys.readouterr().out


def test_cli_fit_with_the_largest_int64_value(tmp_path):
    # the tail reaches 2^63 - 1, the largest value a file may hold; the
    # fit runs, and its exponent is so small at this cutoff that the
    # sampler's 2^63 cap marks it unreliable, with no replica regenerated
    a = 2**62
    values = [a + k * (a // 40) for k in range(40)] + [2**63 - 1]
    f = tmp_path / "edge.txt"
    f.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["fit", str(f), "--a", str(a), "--nsim", "100", "--out", str(out)])
    assert code == 0
    fit = json.loads(out.read_text(encoding="utf-8"))["fit"]
    assert fit["n_a"] == 41 and fit["regenerated"] == 0
    assert fit["reliable"] is False
    assert SamplerParams(a, fit["beta_emp"]).lost_mass > LOST_MASS_LIMIT


@settings(max_examples=60)
@given(a=st.integers(1, 2**62), log_beta=st.floats(math.log(1e-4), math.log(50.0)),
       n=st.integers(2, 200), seed=st.integers(0, 2**32))
def test_fits_over_the_accepted_box_are_finite_or_typed_errors(
        tmp_path_factory, a, log_beta, n, seed):
    # every (a, beta) the command line accepts and the solver's box holds,
    # drawn from the sampler and fitted both in-process and through `dplfit
    # fit` on a counts file of the same data, warnings as errors: a finite
    # result or a typed error, never a traceback
    f = tmp_path_factory.getbasetemp() / "box.counts"
    out = f.with_suffix(".json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = sample_n(SamplerParams(a, math.exp(log_beta)), n, RngStream(seed))
        try:
            fit = fit_at_a(data, a, 100, seed)
        except DplfitError:
            pass
        else:
            assert all(map(math.isfinite, (fit.beta_emp, fit.sigma, fit.d_emp, fit.p.p)))
            # unreliable exactly when over 1% of the replicas were redrawn or
            # the sampler's 2^63 cap drops too much of the proposal mass
            lost = SamplerParams(a, fit.beta_emp).lost_mass
            assert fit.reliable == (fit.regenerated <= 0.01 * 100 and lost <= LOST_MASS_LIMIT)
            # the data lie below the cap, so the fitted exponent keeps over
            # half the proposal mass, far from the sampler's floor of 2^-20
            assert lost < 0.5
        f.write_text("".join(f"{v} {c}\n" for v, c in zip(*table(data))), encoding="utf-8")
        out.unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["fit", str(f), "--format", "counts", "--a", str(a),
                         "--nsim", "100", "--seed", str(seed), "--out", str(out)])
    if code == 0:
        record = json.loads(out.read_text(encoding="utf-8"))["fit"]
        assert all(math.isfinite(record[field])
                   for field in ("beta_emp", "sigma", "d_emp", "p", "sigma_p"))
    else:
        assert code == 1
        assert stderr.getvalue().startswith("error: ")
        assert stderr.getvalue().count("\n") == 1


def test_cli_import_needs_no_scipy(tmp_path):
    code = "import dplfit.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    # the runtime needs only numpy: every command runs in a process where
    # the test-only packages cannot be imported
    # 5000 draws: the replicas at cutoff 1 are drawn as count tables, so
    # the sampler's Generator.multinomial runs here too
    rng = np.random.default_rng(3)
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{v}\n" for v in rng.zipf(2.13, 5000).tolist()), encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat and the dog and the bird\n" * 20, encoding="utf-8")
    commands = [
        ["fit", str(data), "--a", "1", "--nsim", "100", "--out", str(tmp_path / "fit.json")],
        ["scan", str(data), "--nsim", "100", "--workers", "2",
         "--out", str(tmp_path / "scan.json")],
        ["curves", str(data), "--a", "1", "--out", str(tmp_path / "curves.tsv")],
        ["tokenize", str(corpus), "--out", str(tmp_path / "tokens.tsv")],
    ]
    child = textwrap.dedent("""
        import contextlib, io, json, sys
        for name in ("scipy", "mpmath", "sympy", "hypothesis", "pytest"):
            sys.modules[name] = None  # an import of it raises ImportError
        import dplfit.cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [dplfit.cli.main(argv) for argv in json.loads(sys.argv[1])]
        print(json.dumps(codes))
    """)
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 0, 0]
    for name in ("fit.json", "scan.json", "curves.tsv", "tokens.tsv"):
        assert (tmp_path / name).stat().st_size > 0
