"""Tiny-size runs of every workload through the benchmark command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The names each workload must print with their units, untraced.
PRINTED = {
    "mc": ("setup_s", "reps_per_s", "failed_share", "peak_rss_mb"),
    "cli": ("setup_s", "estimate_s", "surface_s", "failed_share", "peak_rss_mb"),
}


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_benchmarked_workloads_are_defined():
    # mc-n2000-pool is defined and runnable but not benchmarked (see README).
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS) - {"mc-n2000-pool"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(name, trace):
    rc, out, err = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert rc == 0, out + err
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) and v["value"] == v["value"] for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    assert '"start_method"' in text and '"OPENBLAS_NUM_THREADS"' in text
    if trace == "0":
        for metric in PRINTED["cli" if name.startswith("cli") else "mc"]:
            assert f"\n{metric} " in "\n" + text, metric
        assert result["metrics"]["setup_s"]["value"] > 0
    else:
        assert "trace.overhead_ops_per_s" in result["metrics"]
        assert set(result["metrics"]) == {n for n, _, _ in tracing.PER_LAYER}


def test_check_failure_counts_and_exits_nonzero(tmp_path, monkeypatch, capsys):
    reference = json.loads(run.REFERENCE.read_text())
    row = reference["mc-n2000-pool"]["tables"][0]["rows"]["P-BR"]
    row[0] += 1.0  # bias far outside the tolerance
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", bad)
    rc = run.main(["--workload", "mc-n2000-pool", "--seed", "1", "--seconds", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, out, err = bench("--workload", "mc-grid-p40", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert rc != 0
    assert out.strip() == ""
    assert "no program" in err
