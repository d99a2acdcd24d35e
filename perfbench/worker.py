"""Child process of the benchmark: times ``pbrdr`` from a fresh interpreter.

Every mode writes its result as JSON to OUT; none imports NumPy before its
timer starts.

* ``import OUT``: time ``import pbrdr``.
* ``setup OUT IN``: time the Monte Carlo set-up of a workload: import,
  ``build_model`` for every cell, one warm-up replication.
* ``mc OUT IN SECONDS TRACE``: set up, run timed rounds of
  ``run_monte_carlo`` calls until SECONDS pass, then the fixed-seed check
  inputs; with TRACE=1 also the serial and traced passes.
* ``cli-traced OUT -- ARGS``: run ``pbrdr.cli.main(ARGS)`` with every layer
  boundary traced and write the spans.
"""

from __future__ import annotations

import json
import os
import sys
import time

import tracing


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _setup(check_specs, estimators):
    """Import, build every cell's model (including the S2 oracle) and run one
    warm-up replication; returns the seconds taken. The cells are the fixed
    check cells: whether a warm-up replication fails (up to 30 times the
    cost of one that succeeds) then does not vary with the workload seed."""
    t0 = time.perf_counter()
    from dataclasses import replace

    from pbrdr import ScenarioSpec, simulation

    specs = [ScenarioSpec(**d) for d in check_specs]
    for spec in specs:
        simulation.build_model(spec)
    simulation.run_monte_carlo(replace(specs[0], reps=1), estimators, n_jobs=1)
    return time.perf_counter() - t0


def _table(table) -> dict:
    return {
        "mu0": table.mu0,
        "rows": {
            tag: [r.bias, r.rmse, r.mae, r.mcsd, r.asse, r.cov, r.n_failed]
            for tag, r in table.rows.items()
        },
    }


def _rounds(rounds, estimators, n_jobs, budget):
    """Run rounds until ``budget`` seconds pass (at least one round)."""
    from pbrdr import ScenarioSpec, simulation

    out = []
    deadline = time.perf_counter() + budget
    for round_specs in rounds:
        specs = [ScenarioSpec(**d) for d in round_specs]
        t = time.perf_counter()
        tables = [simulation.run_monte_carlo(s, estimators, n_jobs=n_jobs) for s in specs]
        wall = time.perf_counter() - t
        out.append({"wall": wall, "ops": sum(s.reps for s in specs), "tables": [_table(x) for x in tables]})
        if time.perf_counter() >= deadline:
            break
    return out


def _check(check_specs, estimators, n_jobs):
    """Outputs of the fixed-seed check inputs: one table per check cell, and
    the full suite on one dataset of the first cell."""
    import numpy as np
    from pbrdr import ScenarioSpec, draw_dataset, estimate_suite, simulation

    specs = [ScenarioSpec(**d) for d in check_specs]
    tables = [_table(simulation.run_monte_carlo(s, estimators, n_jobs=n_jobs)) for s in specs]
    s = specs[0]
    data = draw_dataset(simulation.build_model(s), s.n, s.p, s.correlated, np.random.default_rng(s.seed))
    suite = {}
    for tag, entry in estimate_suite(data, estimators).items():
        if entry.ok:
            r = entry.result
            suite[tag] = ["ok", r.mu_hat, r.se, r.ci[0], r.ci[1]]
        else:
            suite[tag] = ["error", entry.error]
    return {"tables": tables, "suite": suite}


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _trace_rounds(rounds, estimators, n_jobs, budget, tracer) -> dict:
    """Per round, until ``budget`` seconds pass: the untraced pass as the
    workload runs it (its CPU time recorded), an untraced serial pass when
    the workload uses a pool, and a traced serial pass. Interleaving the
    passes exposes them to the same machine load."""
    out = {"rounds": [], "serial_rounds": [], "traced_rounds": []}
    cpu = wall = 0.0
    deadline = time.perf_counter() + budget
    for round_specs in rounds:
        cpu0 = _cpu()
        out["rounds"] += _rounds([round_specs], estimators, n_jobs, 0)
        cpu += _cpu() - cpu0
        wall += out["rounds"][-1]["wall"]
        if n_jobs > 1:
            out["serial_rounds"] += _rounds([round_specs], estimators, 1, 0)
        restore = tracer.install()
        try:
            out["traced_rounds"] += _rounds([round_specs], estimators, 1, 0)
        finally:
            restore()
        if time.perf_counter() >= deadline:
            break
    if n_jobs == 1:
        out["serial_rounds"] = out["rounds"]
    out["cpu_per_wall"] = cpu / wall
    return out


def run_mc(inp: dict, seconds: float, trace: bool) -> dict:
    w = inp["workload"]
    estimators = tuple(w["estimators"]) if w["estimators"] else None
    n_jobs = w["n_jobs"]
    rounds = inp["rounds"]
    tracer = tracing.Tracer() if trace else None
    restore = tracer.install() if trace else None
    setup_s = _setup(inp["check_specs"], estimators)
    out = {"setup_s": setup_s}
    if trace:
        restore()
        out["setup_spans"] = tracing.spans_to_json(tracer.spans)
        tracer.spans.clear()
        out.update(_trace_rounds(rounds, estimators, n_jobs, seconds, tracer))
        out["spans"] = tracing.spans_to_json(tracer.spans)
    else:
        out["rounds"] = _rounds(rounds, estimators, n_jobs, seconds)
    out["check"] = _check(inp["check_specs"], estimators, n_jobs)
    return out


def run_cli_traced(spans_path: str, argv) -> int:
    import pbrdr.cli

    tracer = tracing.Tracer()
    restore = tracer.install()
    sys.argv = ["pbrdr", *argv]
    try:
        return pbrdr.cli.main(argv)
    finally:
        restore()
        _write(spans_path, {"spans": tracing.spans_to_json(tracer.spans)})


def main(argv) -> int:
    mode, out_path, *rest = argv
    if mode == "import":
        t0 = time.perf_counter()
        import pbrdr  # noqa: F401

        _write(out_path, {"import_s": time.perf_counter() - t0})
        return 0
    if mode == "cli-traced":
        if rest[:1] != ["--"]:
            raise SystemExit("usage: worker.py cli-traced SPANS -- ARGS")
        return run_cli_traced(out_path, rest[1:])
    with open(rest[0], encoding="utf-8") as fh:
        inp = json.load(fh)
    if mode == "setup":
        w = inp["workload"]
        setup_s = _setup(inp["check_specs"], tuple(w["estimators"]) if w["estimators"] else None)
        _write(out_path, {"setup_s": setup_s})
        return 0
    if mode == "mc":
        _write(out_path, run_mc(inp, float(rest[1]), rest[2] == "1"))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
