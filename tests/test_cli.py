"""CLI contract tests: exit codes, round-trips, determinism, manifests."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_dataset
from pbrdr import estimate_one
from pbrdr.cli import CsvSchema, load_csv_dataset, main, write_dataset_csv


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "pbrdr", *args], capture_output=True, text=True)


@pytest.fixture
def csv_path(tmp_path):
    data = random_dataset(7, n=120, p=4)
    path = tmp_path / "data.csv"
    write_dataset_csv(data, path)
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
    write_dataset_csv(data.swap_treatment(), swapped)
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
    write_dataset_csv(data, path)
    proc = run_cli("estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                   "--estimator", "MLE")
    assert proc.returncode == 3
    assert "RankDeficient" in proc.stderr


def test_estimate_missing_column(csv_path):
    path, _ = csv_path
    proc = run_cli("estimate", "--csv", str(path), "--outcome", "nope", "--treatment", "a")
    assert proc.returncode == 2
    assert "nope" in proc.stderr


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
    with pytest.raises(Exception) as err:
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
    listed = {Path(p).name for p in manifest["output_files"]}
    present = {p.name for p in out1.iterdir()}
    assert present <= listed | {"manifest.json"}
    assert "manifest.json" in {Path(p).name for p in manifest["output_files"]}


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


def test_bias_surface_bad_range(tmp_path):
    proc = run_cli("bias-surface", "--variant", "fig2", "--gamma-range", "0:1",
                   "--beta-range", "0:1:0.5", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


@pytest.mark.parametrize("gamma_range", ["nan:1:0.5", "0:1:nan", "0:inf:1", "0:1:inf"])
def test_bias_surface_non_finite_range(tmp_path, capsys, gamma_range):
    code = main(["bias-surface", "--variant", "fig1", f"--gamma-range={gamma_range}",
                 "--beta-range", "0:1:0.5", "--n-large", "2000", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_main_callable_directly(tmp_path, csv_path):
    path, _ = csv_path
    code = main(["estimate", "--csv", str(path), "--outcome", "y", "--treatment", "a",
                 "--report", str(tmp_path / "rep.json")])
    assert code == 0


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
        write_dataset_csv(data, path)
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
