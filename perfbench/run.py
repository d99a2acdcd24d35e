#!/usr/bin/env python3
"""The pbrdr benchmark: one workload per command, run from outside through
the public API and the CLI.

    python3 perfbench/run.py --workload mc-grid-p40 --seed 1 --seconds 30 --trace 0

The program is used straight from ``src/`` of the checkout; nothing is
built. Untraced runs (``--trace 0``) print the end-to-end metrics, traced
runs (``--trace 1``) the per-layer metrics; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 1 when a correctness check fails and 2 when the checkout has no
program. The workloads, metrics and checks are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A run must end within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0
# Fresh-process set-ups per untraced run; set-up time is their median.
SETUP_SAMPLES = 5
# Share of the fastest and of the slowest rounds that ``op_ms`` leaves out at
# each end. On a shared virtual machine the speed of one fresh process or one
# round flips between a fast and a slow state, so a median of a few rounds
# jumps between the two while a mean follows the share of time spent in each;
# the trim keeps P-BR's failing p=1000 replications (5-30 times a clean one,
# 10-15% of them) out of the mean.
TRIM = 0.2
# The CLI's documented exit code for a numerical or solver failure.
SOLVER_FAILURE_EXIT = 3


class BenchError(Exception):
    """The benchmark cannot run here (no program, a child crashed, time ran out)."""


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    solver_failures: int = 0
    check_outputs: dict = field(default_factory=dict)

    def count(self, n_ops: int, problems: List[str], what: str) -> None:
        """Record ``n_ops`` operations, all failed if ``problems`` is non-empty."""
        self.attempted += n_ops
        if problems:
            self.failed += n_ops
            self.problems.append(f"{what}: {checks.brief(problems)}")


class Runner:
    """Spawns children with the checkout's ``src`` on the path, each in its own
    process group, and kills the group if the run's time limit passes."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["TMPDIR"] = str(work)

    def run(self, cmd: List[str]) -> Tuple[int, str]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"time limit reached before {cmd[1:3]}")
        proc = subprocess.Popen(
            cmd,
            cwd=self.work,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cmd[1:3]} exceeded the run time limit") from None
        return proc.returncode, out

    def worker(self, mode: str, *args: str) -> dict:
        """Run one ``worker.py`` mode and return the JSON it wrote."""
        out_path = self.work / f"{mode}-{time.monotonic_ns()}.json"
        rc, out = self.run([sys.executable, str(WORKER), mode, str(out_path), *args])
        if rc != 0:
            raise BenchError(f"worker {mode} exited with {rc}:\n{out[-3000:]}")
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)


def tail(samples: List[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    xs = sorted(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - q / 100) >= 10:
            return q, xs[max(0, math.ceil(q / 100 * n) - 1)]
    return None


def trimmed_mean(samples: List[float]) -> float:
    """Mean of ``samples`` without the ``TRIM`` share of lowest and of highest values."""
    xs = sorted(samples)
    k = int(len(xs) * TRIM)
    return statistics.fmean(xs[k : len(xs) - k])


def timing_note(name: str, samples: List[float], unit: str = "s") -> str:
    t = tail(samples)
    spread = f", p{t[0]:g} {t[1]:.4g} {unit}" if t else ", no percentile has 10 samples beyond it"
    return f"{name:<14} median {statistics.median(samples):.4g} {unit}{spread} (n={len(samples)})"


def environment() -> dict:
    import multiprocessing

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "start_method": multiprocessing.get_start_method(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every child waited for (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def merge_spans(groups: List[List[dict]]) -> List[tracing.Span]:
    """Concatenate span lists from several processes, re-basing parent indices."""
    merged: List[tracing.Span] = []
    for group in groups:
        base = len(merged)
        for span in tracing.spans_from_json(group):
            if span.parent is not None:
                span.parent += base
            merged.append(span)
    return merged


def per_layer(m: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of ``m`` in report order, with their units."""
    return {name: (float(m[name]), unit) for name, unit, _ in tracing.PER_LAYER}


def import_s(runner: Runner) -> float:
    return statistics.median(runner.worker("import")["import_s"] for _ in range(SETUP_SAMPLES))


def ops_per_s(rounds: List[dict]) -> float:
    return sum(r["ops"] for r in rounds) / sum(r["wall"] for r in rounds)


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


def run_mc(w: workloads.McWorkload, seed: int, seconds: float, trace: bool, runner: Runner, ref) -> Outcome:
    from pbrdr import DEFAULT_ROSTER

    o = Outcome()
    tags = w.estimators or DEFAULT_ROSTER
    inp = runner.work / "input.json"
    inp.write_text(
        json.dumps(
            {
                "workload": asdict(w),
                "rounds": workloads.mc_rounds(w, seed),
                "check_specs": workloads.mc_check_specs(w.name),
            }
        )
    )
    res = runner.worker("mc", str(inp), repr(float(seconds)), "1" if trace else "0")

    pairs = failed_pairs = 0
    for k, rnd in enumerate(res["rounds"]):
        problems = [p for tab in rnd["tables"] for p in checks.table_problems(tab, tags, w.reps)]
        o.count(rnd["ops"], problems, f"round {k}")
        for tab in rnd["tables"]:
            pairs += w.reps * len(tags)
            failed_pairs += w.reps * len(tags) if problems else sum(row[-1] for row in tab["rows"].values())
    failed_share = failed_pairs / pairs
    if trace:
        # Tracing and the serial pass must not change any output.
        passes = [("traced", res["traced_rounds"])]
        if w.n_jobs > 1:
            passes.append(("serial", res["serial_rounds"]))
        for label, other in passes:
            for k, (rnd, base) in enumerate(zip(other, res["rounds"])):
                problems = [
                    p
                    for tab, base_tab in zip(rnd["tables"], base["tables"])
                    for p in checks.table_problems(tab, tags, w.reps) + checks.compare_table(tab, base_tab)
                ]
                o.count(rnd["ops"], problems, f"{label} round {k}")

    chk = res["check"]
    o.check_outputs = chk
    for k, tab in enumerate(chk["tables"]):
        problems = checks.table_problems(tab, tags, w.check_reps)
        if ref is not None:
            problems += checks.compare_table(tab, ref["tables"][k])
        o.count(w.check_reps, problems, f"check cell {k}")
    problems = checks.suite_problems(chk["suite"])
    if ref is not None:
        problems += checks.compare_suite(chk["suite"], ref["suite"])
    o.count(1, problems, "check suite")

    rounds = res["rounds"]
    reps = sum(r["ops"] for r in rounds)
    per_rep = [r["wall"] / r["ops"] for r in rounds]
    if not trace:
        setups = [res["setup_s"]]
        setups += [runner.worker("setup", str(inp))["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        o.metrics["setup_s"] = (statistics.median(setups), "s")
        o.metrics["op_ms"] = (1000.0 * trimmed_mean(per_rep), "ms")
        o.notes += [
            f"{'setup samples':<14} " + ", ".join(f"{s:.4g}" for s in setups) + " s",
            f"{'reps_per_s':<14} {ops_per_s(rounds):.4g} replications/s "
            f"({reps} replications in {len(rounds)} rounds of {len(w.cells)} cell(s), n_jobs={w.n_jobs})",
            timing_note("round_ms/rep", [1000 * x for x in per_rep], "ms"),
        ]
    else:
        traced = res["traced_rounds"]
        untraced = res["serial_rounds"]
        m = tracing.layer_metrics(
            tracing.spans_from_json(res["spans"]),
            sum(r["ops"] for r in traced),
            tracing.spans_from_json(res["setup_spans"]),
        )
        serial_wall = sum(r["wall"] for r in res["serial_rounds"])
        parallel_wall = sum(r["wall"] for r in rounds)
        m["simulation.run_monte_carlo.parallel_efficiency"] = serial_wall / (w.n_jobs * parallel_wall)
        m["simulation.run_monte_carlo.cpu_per_wall"] = res["cpu_per_wall"]
        m["cli.import_s"] = import_s(runner)
        m["failed_share"] = failed_share
        m["trace.overhead_ops_per_s"] = ops_per_s(untraced) - ops_per_s(traced)
        o.metrics = per_layer(m)
        o.notes.append(
            f"traced {sum(r['ops'] for r in traced)} replications serially; "
            f"untraced {ops_per_s(untraced):.4g} reps/s, traced {ops_per_s(traced):.4g} reps/s"
        )
    o.notes.append(
        f"{'failed_share':<14} {failed_share:.4g} ratio ({failed_pairs} of {pairs} (replication, estimator) pairs)"
    )
    return o


# ---------------------------------------------------------------------------
# one-shot CLI workload
# ---------------------------------------------------------------------------


def grid_size(text: str) -> int:
    lo, hi, step = (float(v) for v in text.split(":"))
    return math.floor((hi - lo) / step + 1e-9) + 1


def run_cli(w: workloads.CliWorkload, seed: int, seconds: float, trace: bool, runner: Runner, ref) -> Outcome:
    o = Outcome()
    work = runner.work
    data_csv, check_csv = work / "data.csv", work / "check.csv"
    workloads.write_csv(data_csv, workloads.cli_csv_cell(w), workloads.derive_seed(seed, 0))
    workloads.write_csv(check_csv, workloads.CHECK_CSV_CELL, workloads.CHECK_SEED)
    surface_seed = workloads.derive_seed(seed, 1)

    def estimate(csv: Path, traced: str = ""):
        report = work / "report.json"
        args = ["estimate", f"--csv={csv}", "--outcome=y", "--treatment=a", "--target=ate",
                "--estimator=P-BR", f"--report={report}"]

        def read():
            summary = checks.estimate_summary(json.loads(report.read_text()))
            return summary, checks.estimate_problems(summary)

        return command(args, traced, read)

    def surface(variant, gamma_range, beta_range, n_large, s, traced: str = ""):
        out_dir = work / "surface"
        args = ["bias-surface", f"--variant={variant}", f"--gamma-range={gamma_range}",
                f"--beta-range={beta_range}", f"--n-large={n_large}", f"--seed={s}", f"--out={out_dir}"]

        def read():
            parsed = checks.read_surface_files(
                (out_dir / f"{variant}_surface.csv").read_text(),
                (out_dir / f"{variant}_surface_references.csv").read_text(),
            )
            return parsed, checks.surface_problems(parsed, grid_size(gamma_range), grid_size(beta_range))

        return command(args, traced, read)

    def command(args: List[str], traced: str, read) -> dict:
        """Run one command; a solver failure (exit 3) is the program's own
        report and counts in ``failed_share``, any other nonzero exit or a bad
        output is a failed check."""
        spans_path = work / f"spans-{traced}.json"
        if traced:
            cmd = [sys.executable, str(WORKER), "cli-traced", str(spans_path), "--", *args]
        else:
            cmd = [sys.executable, "-m", "pbrdr", *args]
        t = time.perf_counter()
        rc, out = runner.run(cmd)
        res = {"wall": time.perf_counter() - t, "rc": rc, "output": {}, "problems": [], "spans": []}
        if traced and spans_path.exists():
            res["spans"] = json.loads(spans_path.read_text())["spans"]
        if rc == 0:
            try:
                res["output"], res["problems"] = read()
            except (OSError, ValueError, KeyError) as exc:
                res["problems"] = [f"unreadable output: {exc!r}"]
        elif rc == SOLVER_FAILURE_EXIT:
            o.solver_failures += 1
        else:
            res["problems"] = [f"exit {rc}: {out[-500:]}"]
        return res

    def pair(k: int, traced: bool) -> dict:
        label = "traced " if traced else ""
        e = estimate(data_csv, f"e{k}" if traced else "")
        o.count(1, e["problems"], f"{label}estimate {k}")
        s = surface("fig2", w.gamma_range, w.beta_range, w.n_large, surface_seed, f"s{k}" if traced else "")
        o.count(1, s["problems"], f"{label}bias-surface {k}")
        return {"estimate": e["wall"], "surface": s["wall"], "spans": [e["spans"], s["spans"]]}

    # Rounds of one estimate and one bias-surface command until the time is
    # up; a traced run follows each untraced pair with a traced one.
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    for k in range(workloads.MAX_ROUNDS):
        untraced.append(pair(k, False))
        if trace:
            traced.append(pair(k, True))
        if time.perf_counter() >= deadline:
            break

    est = estimate(check_csv)
    if ref is not None and est["rc"] == 0 and not est["problems"]:
        est["problems"] = checks.compare_estimate(est["output"], ref["estimate"])
    o.count(1, est["problems"] or checks.same_exit(est["rc"], 0), "check estimate")
    cs = workloads.CHECK_SURFACE
    surf = surface(cs["variant"], cs["gamma_range"], cs["beta_range"], cs["n_large"], workloads.CHECK_SEED)
    if ref is not None and surf["rc"] == 0 and not surf["problems"]:
        surf["problems"] = checks.compare_surface(surf["output"], ref["surface"])
    o.count(1, surf["problems"] or checks.same_exit(surf["rc"], 0), "check bias-surface")
    # The input on which the BR reference fit stops with NonConvergence; a fix
    # that makes it succeed is not a mismatch, any other outcome is.
    pinned = surface(
        cs["variant"], cs["gamma_range"], cs["beta_range"], cs["n_large"], workloads.PINNED_FAILURE_SEED
    )
    expected_rc = ref["pinned_failure_exit"] if ref is not None else pinned["rc"]
    o.count(1, pinned["problems"] or checks.same_exit(pinned["rc"], expected_rc), "pinned bias-surface failure")
    o.check_outputs = {"estimate": est["output"], "surface": surf["output"], "pinned_failure_exit": pinned["rc"]}

    def pairs_per_s(rs):
        return len(rs) / sum(r["estimate"] + r["surface"] for r in rs)

    failed_share = (o.failed + o.solver_failures) / o.attempted
    if not trace:
        setups = [runner.worker("import")["import_s"] for _ in range(SETUP_SAMPLES)]
        o.metrics["setup_s"] = (statistics.median(setups), "s")
        o.metrics["op_ms"] = (1000.0 * trimmed_mean([r["estimate"] + r["surface"] for r in untraced]), "ms")
        o.notes += [
            f"{'setup samples':<14} " + ", ".join(f"{s:.4g}" for s in setups) + " s (fresh `import pbrdr`)",
            timing_note("estimate_s", [r["estimate"] for r in untraced]),
            timing_note("surface_s", [r["surface"] for r in untraced]),
        ]
    else:
        m = tracing.layer_metrics(merge_spans([g for r in traced for g in r["spans"]]), len(traced))
        m["simulation.run_monte_carlo.parallel_efficiency"] = 0.0
        m["simulation.run_monte_carlo.cpu_per_wall"] = 0.0
        m["cli.import_s"] = import_s(runner)
        m["failed_share"] = failed_share
        m["trace.overhead_ops_per_s"] = pairs_per_s(untraced) - pairs_per_s(traced)
        o.metrics = per_layer(m)
        o.notes.append(f"traced {len(traced)} estimate + bias-surface pairs")
    o.notes.append(
        f"{'failed_share':<14} {failed_share:.4g} ratio ({o.failed} failed checks and "
        f"{o.solver_failures} solver failures (exit {SOLVER_FAILURE_EXIT}) in {o.attempted} commands)"
    )
    return o


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, reference=None) -> Outcome:
    """Run one workload in a scratch directory inside the checkout."""
    w = workloads.get(name, tiny)
    work = ROOT / ".bench_build" / "perfbench" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    try:
        if isinstance(w, workloads.McWorkload):
            return run_mc(w, seed, seconds, trace, runner, reference)
        return run_cli(w, seed, seconds, trace, runner, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_program() -> None:
    """Make ``import pbrdr`` resolve to this checkout's ``src``, or fail."""
    if not (SRC / "pbrdr" / "__init__.py").is_file():
        raise BenchError(f"no program: {SRC / 'pbrdr'} is missing")
    sys.path.insert(0, str(SRC))
    try:
        import pbrdr
    except ImportError as exc:
        raise BenchError(f"cannot import pbrdr from {SRC}: {exc}") from exc
    if Path(pbrdr.__file__).resolve().parent != (SRC / "pbrdr").resolve():
        raise BenchError(f"pbrdr resolves to {pbrdr.__file__}, not to {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (the benchmark's own tests)")
    args = ap.parse_args(argv)
    try:
        load_program()
        reference = json.loads(REFERENCE.read_text())[args.workload]
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, reference)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<14} {value:.6g} {unit}")
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"CHECK FAILED {problem}")
    correct = outcome.failed == 0 and not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
