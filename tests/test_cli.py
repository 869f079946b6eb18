import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dplfit.cli import (
    InputSpec,
    build_parser,
    emit_curves,
    export_integers,
    ingest,
    main,
    run_fit,
    run_scan,
    tokenize_text,
)
from dplfit.distribution import IntegerSample, PowerLawModel, sufficient_stat
from dplfit.errors import DplfitError, ParseError
from dplfit.mle import fit_beta
from dplfit.pipeline import ScanConfig
from dplfit.sampling import RngStream, SamplerParams, sample_n


# ----------------------------------------------------------------- ingest


def test_ingest_integers(tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("3\n\n1\n2\n\n", encoding="utf-8")
    sample = ingest(InputSpec(str(f), "integers"))
    assert sample.values.tolist() == [1, 2, 3]


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
    assert sample.values.tolist() == [1, 1, 1, 2]


def test_ingest_counts_bad_row(tmp_path):
    f = tmp_path / "counts.txt"
    f.write_text("1 3\n7\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        ingest(InputSpec(str(f), "counts"))
    assert err.value.lineno == 2


def test_ingest_empty_input(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("\n\n", encoding="utf-8")
    with pytest.raises(DplfitError):
        ingest(InputSpec(str(f), "integers"))


def test_ingest_corpus(tmp_path):
    f = tmp_path / "corpus.txt"
    f.write_text("the cat the", encoding="utf-8")
    sample = ingest(InputSpec(str(f), "corpus"))
    assert sample.values.tolist() == [1, 2]


def test_ingest_corpus_diacritics(tmp_path):
    f = tmp_path / "corpus.txt"
    f.write_text("Seitsemän veljestä! SEITSEMÄN... veljestä, seitsemän?", encoding="utf-8")
    sample = ingest(InputSpec(str(f), "corpus"))
    assert sorted(sample.values.tolist()) == [2, 3]


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
    export_integers(sample, out)
    again = ingest(InputSpec(str(out), "integers"))
    assert again == sample


@given(counts=st.dictionaries(st.integers(min_value=1, max_value=500),
                              st.integers(min_value=1, max_value=20),
                              min_size=1, max_size=30))
def test_round_trip_property(tmp_path_factory, counts):
    tmp = tmp_path_factory.mktemp("roundtrip")
    f = tmp / "counts.txt"
    f.write_text("".join(f"{v} {c}\n" for v, c in counts.items()), encoding="utf-8")
    sample = ingest(InputSpec(str(f), "counts"))
    out = tmp / "ints.txt"
    export_integers(sample, out)
    assert ingest(InputSpec(str(out), "integers")) == sample


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
    export_integers(sample, f)
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


def test_run_fit_rejects_geometric(tmp_path):
    rng = np.random.default_rng(40)
    f = tmp_path / "geom.txt"
    export_integers(IntegerSample(rng.geometric(0.3, size=8000)), f)
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


# -------------------------------------------------------------------- CLI


def test_cli_fit_exit_zero_even_when_rejected(tmp_path, capsys):
    rng = np.random.default_rng(41)
    f = tmp_path / "geom.txt"
    export_integers(IntegerSample(rng.geometric(0.3, size=5000)), f)
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
    export_integers(IntegerSample(rng.geometric(0.45, size=4000) + 500), f)
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
    freqs = sample_n(SamplerParams(1, 1.2), 400, RngStream(55, 0)).values
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


def test_parser_has_documented_surface():
    parser = build_parser()
    text = parser.format_help()
    for sub in ["fit", "scan", "curves", "tokenize"]:
        assert sub in text


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
    # double range: an operational error, not a traceback
    f.write_text(f"{a} 1\n{107 * 10**10} 1\n", encoding="utf-8")
    code = main(["fit", str(f), "--format", "counts", "--a", str(a), "--nsim", "100"])
    assert code == 1
    assert "double-precision range" in capsys.readouterr().err


def test_cli_import_needs_no_scipy():
    code = "import dplfit.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
