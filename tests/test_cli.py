"""CLI contract tests: exit codes, round-trips, determinism, manifests."""

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_dataset, write_csv
from pbrdr import ConfigError, Dataset, estimate_one
from pbrdr import cli, solvers
from pbrdr.cli import CsvSchema, load_csv_dataset, main


MANIFEST_KEYS = {
    "command", "argv", "config", "seed", "version", "wall_time_s", "stage_s", "statuses",
    "output_files",
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "pbrdr", *args], capture_output=True, text=True)


@pytest.fixture
def csv_path(tmp_path):
    data = random_dataset(7, n=120, p=4)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    return path, data


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_roundtrip_exact(csv_path, tmp_path):
    path, data = csv_path
    report = tmp_path / "report.json"
    proc = run_cli(
        "estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
        "--estimator", "P-BR", "--target", "mu1", "--report", str(report),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(report.read_text())
    reference = estimate_one(data, "P-BR")
    assert payload["estimate"] == reference.mu_hat  # bit-exact through the CSV
    assert payload["se"] == reference.se
    assert payload["ci_lower"] == reference.ci[0]
    assert payload["propensity_active_set_size"] == len(reference.fit.gamma.active_set)
    assert "estimate" in proc.stdout and "active sets" in proc.stdout


def test_estimate_bad_treatment_value(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["y,a,x1"] + [f"{i*0.1},{i % 2},{i*0.3}" for i in range(12)]
    rows[5] = "0.4,2,1.2"  # treatment value 2 on line 6
    path.write_text("\n".join(rows) + "\n")
    proc = run_cli("estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a")
    assert proc.returncode == 2
    assert "a" in proc.stderr and ":6:" in proc.stderr


def test_estimate_ate_antisymmetry(csv_path, tmp_path):
    path, data = csv_path
    swapped = tmp_path / "swapped.csv"
    write_csv(data.swap_treatment(), swapped)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for csv_file, rep in ((path, r1), (swapped, r2)):
        proc = run_cli(
            "estimate", "--csv", str(csv_file), "--outcome", "y", "--treatment", "a",
            "--target", "ate", "--report", str(rep),
        )
        assert proc.returncode == 0, proc.stderr
    ate1 = json.loads(r1.read_text())["estimate"]
    ate2 = json.loads(r2.read_text())["estimate"]
    assert ate1 == pytest.approx(-ate2, abs=1e-12)


def test_estimate_estimator_failure_exit_code(tmp_path):
    # 12 rows with 14 covariates: the logistic MLE raises RankDeficient
    # (n <= p+1), which surfaces as a solver error through the single-estimator path
    rng = np.random.default_rng(0)
    from pbrdr import Dataset

    x = rng.standard_normal((12, 14))
    a = np.array([0, 1] * 6, dtype=float)
    data = Dataset(rng.standard_normal(12), a, x)
    path = tmp_path / "wide.csv"
    write_csv(data, path)
    proc = run_cli("estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                   "--estimator", "MLE")
    assert proc.returncode == 3
    assert "RankDeficient" in proc.stderr


def test_estimate_estimator_outside_the_roster(csv_path):
    path, _ = csv_path
    proc = run_cli("estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                   "--estimator", "IPTW-MLE")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr and "IPTW-MLE" in proc.stderr


def test_estimate_unwritable_report_is_an_input_error(csv_path, tmp_path, capsys, monkeypatch):
    path, _ = csv_path
    report = tmp_path / "nodir" / "r.json"
    monkeypatch.setattr(cli, "load_csv_dataset", None)  # the report is checked first
    code = main(["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                 "--report", str(report)])
    assert code == 2
    assert f"cannot write {report}" in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()
    monkeypatch.undo()
    code = main(["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                 "--estimator", "OR-OLS", "--report", str(tmp_path)])  # a directory
    assert code == 2
    assert f"cannot write {tmp_path}" in capsys.readouterr().err


def test_estimate_missing_column(csv_path):
    path, _ = csv_path
    proc = run_cli("estimate", "--csv", str(path), "--outcome", "nope", "--treatment", "a")
    assert proc.returncode == 2
    assert "nope" in proc.stderr


@pytest.mark.parametrize(
    "csv, extra, code, fragment",
    [
        (None, ["--treatment", "y"], 2, "outcome and treatment columns must be distinct"),
        (None, ["--covariates", "x1,a"], 2, "covariate column 'a' clashes with outcome/treatment"),
        ("empty", [], 2, "empty.csv: empty file"),
        ("one-arm", ["--target", "ate"], 3, "DegenerateData: both treatment arms must be nonempty"),
    ],
)
def test_estimate_input_checks(csv_path, tmp_path, capsys, csv, extra, code, fragment):
    path, data = csv_path
    if csv == "empty":
        path = tmp_path / "empty.csv"
        path.write_text("")
    elif csv == "one-arm":
        path = tmp_path / "one_arm.csv"
        write_csv(Dataset(data.y, np.ones(data.n), data.x), path)
    assert main(["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a", *extra]) == code
    assert fragment in capsys.readouterr().err


def test_csv_schema_rejects_an_unknown_na_policy():
    with pytest.raises(ConfigError, match="na_policy must be 'drop_rows' or 'error'"):
        CsvSchema("y", "a", na_policy="skip")


def test_estimate_too_few_rows(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("y,a,x1\n" + "\n".join(f"{i},{i % 2},0.5" for i in range(5)) + "\n")
    proc = run_cli("estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a")
    assert proc.returncode == 2


def test_na_policy(tmp_path):
    rows = ["y,a,x1"] + [f"{i * 0.1},{i % 2},{i * 0.3}" for i in range(14)]
    rows[3] = "0.2,1,NA"
    path = tmp_path / "na.csv"
    path.write_text("\n".join(rows) + "\n")
    data, cols = load_csv_dataset(path, CsvSchema("y", "a"))
    assert data.n == 13  # the NA row dropped
    with pytest.raises(ConfigError) as err:
        load_csv_dataset(path, CsvSchema("y", "a", na_policy="error"))
    assert ":4:" in str(err.value)  # offending line number (header is line 1)


def test_covariate_autodetect_skips_text_columns(tmp_path):
    rows = ["y,a,label,x1"] + [f"{i*0.1},{i%2},name{i},{i*0.2}" for i in range(15)]
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(rows) + "\n")
    data, cols = load_csv_dataset(path, CsvSchema("y", "a"))
    assert cols == ["x1"]
    assert data.p == 1


@pytest.mark.parametrize("covariates", [None, "x1,x2"], ids=["auto", "explicit"])
@pytest.mark.parametrize("bad_treatment, line", [(True, ":6:"), (False, ":9:")])
def test_csv_errors_reported_in_file_order(tmp_path, capsys, covariates, bad_treatment, line):
    rows = ["y,a,x1,x2"] + [f"{i * 0.1},{i % 2},{i * 0.3},{i * 0.7}" for i in range(14)]
    if bad_treatment:
        rows[5] = "0.4,2,1.2,2.8"  # line 6
    rows[8] = "0.7,1,2.1"  # short row on line 9
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    argv = ["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
            "--report", str(tmp_path / "rep.json")]
    assert main(argv + (["--covariates", covariates] if covariates else [])) == 2
    err = capsys.readouterr().err
    assert line in err
    assert ("must be 0 or 1" if bad_treatment else "expected 4 fields, got 3") in err


@pytest.mark.parametrize("covariates", [None, "x1"], ids=["auto", "explicit"])
def test_csv_repeated_header_name(tmp_path, capsys, covariates):
    # with distinct data in the two x1 columns, reading the first one twice
    # made OR-OLS fail with RankDeficient (exit 3)
    rows = ["y,a,x1,x1,label"] + [
        f"{i * 0.1},{i % 2},{i * 0.3},{(i * 7) % 5},name{i}" for i in range(14)
    ]
    path = tmp_path / "dup.csv"
    path.write_text("\n".join(rows) + "\n")
    argv = ["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
            "--estimator", "OR-OLS", "--report", str(tmp_path / "rep.json")]
    assert main(argv + (["--covariates", covariates] if covariates else [])) == 2
    assert "column name 'x1' repeats" in capsys.readouterr().err


@pytest.mark.parametrize(
    "covariates, estimator", [("x1,x1", "OR-OLS"), ("x1,x2,x1", "P-BR")], ids=["twice", "apart"]
)
def test_covariates_repeating_a_name(tmp_path, capsys, covariates, estimator):
    # the fit used to take the column twice: OR-OLS exited 3 with
    # RankDeficient and P-BR exited 0 reporting covariates ["x1", "x2", "x1"]
    rows = ["y,a,x1,x2"] + [f"{i * 0.1},{i % 2},{i * 0.3},{(i * 7) % 5}" for i in range(14)]
    path = tmp_path / "cov.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                 "--covariates", covariates, "--estimator", estimator,
                 "--report", str(tmp_path / "rep.json")])
    assert code == 2
    assert "covariate column 'x1' repeats" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_autodetected_missing_tokens_drop_rows(tmp_path, capsys):
    rows = ["y,a,x1"] + [f"{i * 0.1},{i % 2},{i * 0.3}" for i in range(14)]
    rows[2], rows[3], rows[4] = "0.1,1,nan", "0.2,0,NA", "0.3,1,"
    path = tmp_path / "na.csv"
    path.write_text("\n".join(rows) + "\n")
    data, cols = load_csv_dataset(path, CsvSchema("y", "a"))
    assert cols == ["x1"] and data.n == 11
    rows[5] = "0.4,0,+nan"  # parses as a float, so it is not a missing token
    path.write_text("\n".join(rows) + "\n")
    code = main(["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                 "--report", str(tmp_path / "rep.json")])
    assert code == 2
    assert "y and x must contain only finite values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "token, outcome",
    [
        ("NA", "missing"),
        (" nan ", "missing"),
        ("NULL", "missing"),
        ("", "missing"),
        ("-nan", "non-finite"),  # NaN to float(), but not an NA token
        ("inf", "non-finite"),
        ("abc", "text"),
        (" 2.5 ", "number"),
    ],
)
def test_csv_covariate_token_table(tmp_path, capsys, token, outcome):
    rows = ["y,a,x1,x2"] + [f"{i * 0.1},{i % 2},{i * 0.3},{(i * 7) % 5}" for i in range(14)]
    rows[3] = f"0.2,1,0.6,{token}"  # line 4
    path = tmp_path / "tokens.csv"
    path.write_text("\n".join(rows) + "\n")
    argv = ["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
            "--estimator", "OR-OLS", "--report", str(tmp_path / "rep.json")]
    if outcome == "non-finite":
        assert main(argv) == 2
        assert "y and x must contain only finite values" in capsys.readouterr().err
        return
    data, cols = load_csv_dataset(path, CsvSchema("y", "a"))
    if outcome == "missing":
        assert cols == ["x1", "x2"] and data.n == 13
        assert 0.2 not in data.y  # the row with the missing token is the one dropped
        assert main(argv + ["--na-policy", "error"]) == 2
        assert ":4: missing value" in capsys.readouterr().err
    elif outcome == "text":
        assert cols == ["x1"] and data.n == 14  # the text column is excluded
        assert main(argv + ["--covariates", "x1,x2"]) == 2  # a named column must parse
        assert ":4:" in capsys.readouterr().err
    else:
        assert cols == ["x1", "x2"] and data.n == 14 and data.x[2, 1] == 2.5


def test_csv_roundtrip_is_byte_identical(tmp_path):
    data = random_dataset(11, n=60, p=5)
    path = tmp_path / "rt.csv"
    write_csv(data, path)
    back, cols = load_csv_dataset(path, CsvSchema("y", "a"))
    assert cols == [f"x{j}" for j in range(1, 6)]
    for got, want in ((back.y, data.y), (back.a, data.a), (back.x, data.x)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# Inputs for the two CSV readers: numpy's C reader (the fast path) and the
# validating reader it falls back to. Each is a file's bytes, made by editing
# the 14 clean rows of ``_ROWS`` (header first).
_rng = np.random.default_rng(5)
_ROWS = ["y,a,x1,x2"] + [
    f"{_rng.normal():.17g},{i % 2},{_rng.normal():.17g},{_rng.normal():.17g}" for i in range(14)
]


def _text(rows, end="\n", tail="\n"):
    return (end.join(rows) + tail).encode()


def _with_field(row, col, token):
    rows = list(_ROWS)
    fields = rows[row].split(",")
    fields[col] = token
    rows[row] = ",".join(fields)
    return _text(rows)


_FIELD_LIMIT = csv.field_size_limit()


def _line_of_length(length, row=4, tail="\n"):
    """The clean rows with row ``row``'s last field zero-padded so that the
    line, less its end, is ``length`` bytes long."""
    rows = list(_ROWS)
    rows[row] = rows[row].rsplit(",", 1)[0] + ","
    rows[row] += "1.5".zfill(length - len(rows[row]))
    return _text(rows, tail=tail)


AGREEMENT_INPUTS = {
    "clean": _text(_ROWS),
    "underscore-number": _with_field(4, 3, "1_000"),
    "quoted-number": _with_field(4, 3, '"1.5"'),
    "hash-in-field": _with_field(4, 3, "1#2"),
    "hash-leading-field": _with_field(4, 2, "#2"),
    "space-padded": _with_field(4, 3, "  1.5 "),
    "tab-padded": _with_field(4, 0, "\t1.5\t"),
    "crlf": _text(_ROWS, end="\r\n", tail="\r\n"),
    "bare-cr": _with_field(4, 2, "1.5\r"),
    "mixed-line-endings": _with_field(4, 3, "1.5\r"),
    "cr-before-crlf": _with_field(4, 3, "1.5\r\r"),
    "blank-line": _text(_ROWS[:5] + [""] + _ROWS[5:]),
    "no-final-newline": _text(_ROWS, tail=""),
    "trailing-blank-line": _text(_ROWS, tail="\n\n"),
    "treatment-1.0": _with_field(4, 1, "1.0"),
    "treatment-padded": _with_field(4, 1, " 1 "),
    "treatment-1e0": _with_field(4, 1, "1e0"),
    "treatment-quoted": _with_field(4, 1, '"0"'),
    "nan": _with_field(4, 3, "nan"),
    "-nan": _with_field(4, 3, "-nan"),
    "inf": _with_field(4, 2, "inf"),
    "NA-covariate": _with_field(4, 3, "NA"),
    "NA-outcome": _with_field(4, 0, "NA"),
    "empty-field": _with_field(4, 2, ""),
    "extra-field": _with_field(4, 3, "0.5,0.5"),
    "missing-field": _text(_ROWS[:4] + [_ROWS[4].rsplit(",", 1)[0]] + _ROWS[5:]),
    "extra-field-every-row": _text(_ROWS[:1] + [r + ",0.5" for r in _ROWS[1:]]),
    "bom": b"\xef\xbb\xbf" + _text(_ROWS),
    "bom-before-covariate": b"\xef\xbb\xbf" + _text(
        [",".join(f[2:3] + f[:2] + f[3:]) for f in (r.split(",") for r in _ROWS)]
    ),
    "non-utf8": _with_field(4, 3, "1.5").replace(b"1.5", b"1.5\xff"),
    "quoted-newline": _with_field(4, 3, '"1.5\n"'),
    "nul": _with_field(4, 3, "1.5\x00"),
    "nul-in-header": _with_field(0, 3, "x2\x00"),
    "quoted-header": _with_field(0, 3, '"x2"'),
    "quoted-comma-in-header": _with_field(0, 2, '"x1,x2"'),
    "over-field-limit": _with_field(4, 3, "0" * 200_000 + "1"),
    "empty": b"",
    "header-only": _text(_ROWS[:1]),
    "nine-rows": _text(_ROWS[:10]),
    "ten-rows": _text(_ROWS[:11]),
    "line-at-field-limit": _line_of_length(_FIELD_LIMIT),
    "line-past-field-limit": _line_of_length(_FIELD_LIMIT + 1),
    "last-line-at-field-limit": _line_of_length(_FIELD_LIMIT, row=-1, tail=""),
    "last-line-past-field-limit": _line_of_length(_FIELD_LIMIT + 1, row=-1, tail=""),
}

# the inputs numpy's C reader takes; every other one falls back
C_READER_INPUTS = {
    "clean", "quoted-number", "space-padded", "tab-padded", "crlf", "no-final-newline",
    "treatment-padded", "treatment-quoted", "bom", "bom-before-covariate", "mixed-line-endings",
    "ten-rows", "line-at-field-limit", "last-line-at-field-limit",
}


def _load_outcome(load, path, schema):
    try:
        data, cols = load(path, schema)
    except ConfigError as exc:
        return "error", str(exc)
    assert not any("\ufeff" in c for c in cols)  # a byte-order mark names no column
    arrays = (data.y, data.a, data.x)
    return cols, [(v.shape, v.strides, v.tobytes()) for v in arrays]


@pytest.mark.parametrize("case", sorted(AGREEMENT_INPUTS))
def test_c_reader_agrees_with_the_validating_reader(tmp_path, case, capsys, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_bytes(AGREEMENT_INPUTS[case])
    for covariates in (None, ["x2", "x1"]):
        for na_policy in ("drop_rows", "error"):
            schema = CsvSchema("y", "a", covariates, na_policy)
            fast = cli._load_clean_csv(path, schema)
            if covariates is None and na_policy == "drop_rows":
                assert (fast is not None) == (case in C_READER_INPUTS)
            want = _load_outcome(cli._load_csv_rows, path, schema)
            assert _load_outcome(load_csv_dataset, path, schema) == want
    # and through the command: the same exit code, messages and report
    argv = ["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
            "--estimator", "OR-OLS"]
    runs = []
    for reader in (cli._load_clean_csv, lambda path, schema: None):
        monkeypatch.setattr(cli, "_load_clean_csv", reader)
        report = tmp_path / f"rep{len(runs)}.json"
        code = main(argv + ["--report", str(report)])
        out = capsys.readouterr()
        runs.append((code, out.err, report.read_text() if report.exists() else None))
    assert runs[0] == runs[1]


@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10_000), st.sampled_from(["insert", "delete", "replace"]),
                  st.sampled_from(list('01,."\n\r e-+#\t_\xa0') + ["\r\n", '""', " ", "nan"])),
        min_size=1, max_size=3,
    )
)
def test_c_reader_agrees_on_edited_files(tmp_path_factory, edits):
    text = "\n".join(_ROWS[:12]) + "\n"
    for pos, op, token in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + ("" if op == "delete" else token) + text[i + (op != "insert"):]
    path = tmp_path_factory.mktemp("edited") / "in.csv"
    path.write_bytes(text.encode())
    schema = CsvSchema("y", "a")
    assert _load_outcome(load_csv_dataset, path, schema) == _load_outcome(
        cli._load_csv_rows, path, schema
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


SIM_CONFIG = """scenario = S1
n = 150
p = 15
correlated = false
or_correct = true
ps_correct = true
reps = 6
seed = 31
"""


def test_simulate_ten_row_roster_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SIM_CONFIG)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    out3 = tmp_path / "run3"
    for out in (out1, out2):
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    proc = run_cli("simulate", "--config", str(cfg), "--out", str(out3), "--threads", "2")
    assert proc.returncode == 0, proc.stderr
    name = "S1_uncorr_ORcorrect_PScorrect_n150_p15.csv"
    text1 = (out1 / name).read_bytes()
    assert text1 == (out2 / name).read_bytes()  # identical across runs
    assert text1 == (out3 / name).read_bytes()  # identical serial vs parallel
    lines = text1.decode().strip().split("\n")
    assert len(lines) == 11  # header + the ten-estimator roster (n > p, MLE present)
    # manifest lists every file in the output directory
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    listed = {Path(p).name for p in manifest["output_files"]}
    present = {p.name for p in out1.iterdir()}
    assert present <= listed | {"manifest.json"}
    assert "manifest.json" in {Path(p).name for p in manifest["output_files"]}


def test_simulate_manifest_splits_failures_by_class(tmp_path, monkeypatch):
    # one Newton iteration cannot fit the lasso outcome models
    monkeypatch.setattr(solvers, "DEFAULT_NEWTON_ITER", 1)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SIM_CONFIG.replace("reps = 6", "reps = 3") + "estimators = LASSO,OR-OLS\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["statuses"] == {
        "S1_uncorr_ORcorrect_PScorrect_n150_p15": {
            "LASSO": {"n_failed": 3, "failed_by_class": {"NonConvergence": 3}},
            "OR-OLS": {"n_failed": 0, "failed_by_class": {}},
        }
    }
    rows = (tmp_path / "o" / "S1_uncorr_ORcorrect_PScorrect_n150_p15.csv").read_text().split("\n")
    assert rows[1] == "LASSO,nan,nan,nan,nan,nan,nan,3"


def test_simulate_threads_are_bounded_by_the_replications(tmp_path, recorded_pools):
    # the stand-in pool starts no process; os.cpu_count reports 64
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SIM_CONFIG.replace("reps = 6", "reps = 4") + "estimators = OR-OLS\n")
    args = ["simulate", "--config", str(cfg), "--out"]
    assert main([*args, str(tmp_path / "many"), "--threads", "1000000"]) == 0
    assert recorded_pools == [4]
    assert main([*args, str(tmp_path / "one")]) == 0
    assert recorded_pools == [4]  # one thread runs serially
    name = "S1_uncorr_ORcorrect_PScorrect_n150_p15.csv"
    assert (tmp_path / "many" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_simulate_config_may_start_with_a_bom(tmp_path):
    text = SIM_CONFIG.replace("reps = 6", "reps = 2") + "estimators = OR-OLS,P-BR\n"
    (tmp_path / "plain.cfg").write_bytes(text.encode())
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text.encode())
    for stem in ("plain", "bom"):
        args = ["simulate", "--config", str(tmp_path / f"{stem}.cfg"), "--out", str(tmp_path / stem)]
        assert main(args) == 0
    name = "S1_uncorr_ORcorrect_PScorrect_n150_p15.csv"
    assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    config = [json.loads((tmp_path / s / "manifest.json").read_text())["config"] for s in ("plain", "bom")]
    assert config[1]["text"] == config[0]["text"] == text


@pytest.mark.parametrize(
    "line, bad, fragment",
    [("reps = 6", "reps = 0", "reps must be at least 1"), ("n = 150", "n = 1", "n must be at least 2")],
)
def test_simulate_cell_checks_are_input_errors(tmp_path, capsys, line, bad, fragment):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SIM_CONFIG.replace(line, bad))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_unknown_estimator(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SIM_CONFIG + "estimators = P-BR,NOPE\n")
    proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "valid tags" in proc.stderr


def test_simulate_bad_config(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario = S1\n")
    proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


def test_simulate_repeated_value_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SIM_CONFIG.replace("n = 150", "n = 150, 150"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "repeated value 150 for key 'n'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, p", [("S1", 10), ("S2", 3)])
def test_simulate_too_few_covariates_is_an_input_error(tmp_path, capsys, scenario, p):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SIM_CONFIG.replace("S1", scenario).replace("p = 15", f"p = {p}"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"scenario {scenario} requires p >=" in capsys.readouterr().err
    assert not out.exists()


def test_undecodable_inputs_are_input_errors(tmp_path, capsys):
    csv_file = tmp_path / "latin1.csv"
    csv_file.write_bytes(b"y,a,x\xe9\n" + b"0.5,1,2\n0.5,0,3\n" * 6)
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(SIM_CONFIG.encode() + b"# r\xe9sum\xe9\n")
    assert main(["estimate", "--csv", str(csv_file), "--outcome", "y", "--treatment", "a"]) == 2
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("codec can't decode") == 2
    assert not (tmp_path / "o").exists()


def test_simulate_unwritable_out_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SIM_CONFIG)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err
    out = tmp_path / "o"
    (out / "S1_uncorr_ORcorrect_PScorrect_n150_p15.csv").mkdir(parents=True)  # the cell file
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bias-surface
# ---------------------------------------------------------------------------


def test_bias_surface_deterministic(tmp_path):
    args = ["bias-surface", "--variant", "fig1", "--gamma-range", "0:1:0.5",
            "--beta-range", "-2:0:1", "--n-large", "5000", "--seed", "3"]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    for name in ("fig1_surface.csv", "fig1_surface_references.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "fig1_manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    listed = {Path(p).name for p in manifest["output_files"]}
    assert {p.name for p in out1.iterdir()} <= listed


def test_bias_surface_runs_sharing_a_directory_keep_their_manifests(tmp_path):
    for variant in ("fig1", "fig2"):
        proc = run_cli("bias-surface", "--variant", variant, "--gamma-range", "0:1:0.5",
                       "--beta-range", "-2:0:1", "--n-large", "2000", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
    for variant in ("fig1", "fig2"):
        manifest = json.loads((tmp_path / f"{variant}_manifest.json").read_text())
        assert {Path(p).name for p in manifest["output_files"]} == {
            f"{variant}_surface.csv",
            f"{variant}_surface_references.csv",
            f"{variant}_manifest.json",
        }
    assert not (tmp_path / "manifest.json").exists()


def test_bias_surface_zero_step(tmp_path):
    proc = run_cli("bias-surface", "--variant", "fig1", "--gamma-range", "0:1:0",
                   "--beta-range", "0:1:0.5", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "step" in proc.stderr


def test_bias_surface_negative_seed(tmp_path, capsys):
    code = main(["bias-surface", "--variant", "fig1", "--gamma-range", "0:1:0.5",
                 "--beta-range", "0:1:0.5", "--seed", "-3", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "seed must be a nonnegative integer, got -3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "option, value, fragment",
    [
        ("--gamma-range", "a:1:0.5", "--gamma-range must contain numbers, got 'a:1:0.5'"),
        ("--beta-range", "1:0:0.5", "--beta-range: upper bound 0.0 below lower bound 1.0"),
        ("--n-large", "1", "n_large must be at least 2"),
    ],
)
def test_bias_surface_input_checks(tmp_path, capsys, option, value, fragment):
    options = {"--gamma-range": "0:1:0.5", "--beta-range": "0:1:0.5", "--n-large": "100", option: value}
    argv = ["bias-surface", "--variant", "fig1", *(f"{k}={v}" for k, v in options.items())]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bias_surface_bad_range(tmp_path):
    proc = run_cli("bias-surface", "--variant", "fig2", "--gamma-range", "0:1",
                   "--beta-range", "0:1:0.5", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


def test_bias_surface_unwritable_out_is_an_input_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "o"):
        code = main(["bias-surface", "--variant", "fig1", "--gamma-range", "0:1:0.5",
                     "--beta-range", "0:1:0.5", "--n-large", "2000", "--out", str(out)])
        assert code == 2
        assert f"cannot write {out}" in capsys.readouterr().err
    (tmp_path / "o" / "fig1_surface.csv").mkdir(parents=True)  # the surface file
    code = main(["bias-surface", "--variant", "fig1", "--gamma-range", "0:1:0.5",
                 "--beta-range", "0:1:0.5", "--n-large", "2000", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_bias_surface_without_treated_units_exits_3(tmp_path, capsys):
    code = main(["bias-surface", "--variant", "fig1", "--gamma-range=0:1:1", "--beta-range=0:0:1",
                 "--n-large", "2", "--seed", "11", "--out", str(tmp_path)])
    assert code == 3
    assert "DegenerateData" in capsys.readouterr().err
    assert not (tmp_path / "fig1_surface.csv").exists()


def test_failed_bias_surface_manifest_names_the_error(tmp_path):
    proc = run_cli("bias-surface", "--variant", "fig1", "--gamma-range=0:1:1",
                   "--beta-range=0:0:1", "--n-large", "2", "--seed", "11", "--out", str(tmp_path))
    assert proc.returncode == 3
    manifest = json.loads((tmp_path / "fig1_manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    error = manifest["statuses"]["error"]
    assert error["class"] == "DegenerateData"
    assert "treated arm is empty" in error["message"]
    assert set(manifest["stage_s"]) == {"evaluate"}
    assert {Path(p).name for p in manifest["output_files"]} == {"fig1_manifest.json"}


@pytest.mark.parametrize("seed", [3, 5])
def test_bias_surface_without_control_units_exits_3(tmp_path, capsys, seed):
    code = main(["bias-surface", "--variant", "fig1", "--gamma-range=0:1:1", "--beta-range=0:0:1",
                 "--n-large", "2", "--seed", str(seed), "--out", str(tmp_path)])
    assert code == 3
    assert "control arm is empty" in capsys.readouterr().err
    assert not (tmp_path / "fig1_surface_references.csv").exists()


@pytest.mark.parametrize("gamma_range", ["nan:1:0.5", "0:1:nan", "0:inf:1", "0:1:inf"])
def test_bias_surface_non_finite_range(tmp_path, capsys, gamma_range):
    code = main(["bias-surface", "--variant", "fig1", f"--gamma-range={gamma_range}",
                 "--beta-range", "0:1:0.5", "--n-large", "2000", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_cli_import_leaves_the_process_pool_unloaded():
    # run_monte_carlo imports the pool only for n_jobs > 1
    code = ("import sys, pbrdr.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_main_callable_directly(tmp_path, csv_path, monkeypatch):
    path, _ = csv_path
    load = load_csv_dataset

    def slow_load(*args):
        time.sleep(0.25)
        return load(*args)

    monkeypatch.setattr("pbrdr.cli.load_csv_dataset", slow_load)
    code = main(["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                 "--report", str(tmp_path / "rep.json")])
    assert code == 0
    manifest = json.loads((tmp_path / "rep.manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert {Path(p).name for p in manifest["output_files"]} == {"rep.json", "rep.manifest.json"}
    assert manifest["wall_time_s"] >= 0.25  # timed from the start, CSV load included


def test_manifests_record_the_parsed_argv_and_stage_times(tmp_path, csv_path, monkeypatch):
    # the host process's own arguments must not leak into the manifest
    monkeypatch.setattr(sys, "argv", ["host", "--host-flag"])
    path, _ = csv_path
    argv = ["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
            "--target", "ate", "--report", str(tmp_path / "rep.json")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "rep.manifest.json").read_text())
    assert manifest["argv"] == argv
    assert set(manifest["stage_s"]) == {"load", "fit", "write"}
    assert sum(manifest["stage_s"].values()) <= manifest["wall_time_s"]

    argv = ["bias-surface", "--variant", "fig1", "--gamma-range", "0:1:0.5",
            "--beta-range", "-2:0:1", "--n-large", "2000", "--out", str(tmp_path)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "fig1_manifest.json").read_text())
    assert manifest["argv"] == argv
    assert set(manifest["stage_s"]) == {"evaluate", "export"}

    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SIM_CONFIG.replace("reps = 6", "reps = 2") + "estimators = P-BR\n")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest["argv"] == argv
    assert set(manifest["stage_s"]) == {"S1_uncorr_ORcorrect_PScorrect_n150_p15"}
    assert all(t >= 0 for t in manifest["stage_s"].values())


def test_main_without_argv_records_sys_argv(tmp_path, csv_path, monkeypatch):
    path, _ = csv_path
    argv = ["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
            "--report", str(tmp_path / "rep.json")]
    monkeypatch.setattr(sys, "argv", ["pbrdr", *argv])
    assert main() == 0
    assert json.loads((tmp_path / "rep.manifest.json").read_text())["argv"] == argv


def test_estimate_self_consistency_coverage(tmp_path):
    # Seeded synthetic inputs through the full CLI path: the reported 95% CI
    # covers the generating target mean at roughly its nominal-minus-shrinkage
    # rate (the underlying estimator's coverage in this regime is ~0.9, so a
    # 0.7 floor over 30 runs leaves ~3 binomial SDs of slack).
    import math

    from pbrdr import ScenarioSpec
    from pbrdr.simulation import build_model, draw_dataset

    spec = ScenarioSpec("S1", 500, 40, False, False, True, reps=1, seed=0)
    model = build_model(spec)
    hits = 0
    runs = 30
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=321, spawn_key=(r,)))
        data = draw_dataset(model, 500, 40, False, rng)
        path = tmp_path / f"cov{r}.csv"
        report = tmp_path / f"cov{r}.json"
        write_csv(data, path)
        code = main(["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                     "--target", "mu1", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert math.isfinite(payload["se"]) and payload["se"] > 0
        hits += payload["ci_lower"] <= 1.0 <= payload["ci_upper"]
    assert hits / runs >= 0.7


def test_version_runs():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "pbrdr" in proc.stdout
