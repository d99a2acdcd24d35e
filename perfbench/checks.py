"""Correctness checks on the program's outputs.

Each function returns a list of problems (empty when the output is good).
Two kinds of check run on every benchmark run:

* invariants on every output of the timed work: finite estimates, intervals
  that bracket their estimates, consistent Monte Carlo summaries;
* a comparison of fixed-seed check outputs with ``reference.json``, recorded
  from the program when the benchmark was defined. Values must agree within
  ``TOL`` relative to ``max(1, |reference|)``: the solvers stop at a KKT
  residual of 1e-8, and the BLAS thread count changes the last bits. A
  replication that now succeeds where the reference failed is not a
  mismatch; one that now fails where the reference succeeded is.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

TOL = 1e-6

METRIC_FIELDS = ("bias", "rmse", "mae", "mcsd", "asse", "cov")


def close(now: float, ref: float, tol: float = TOL) -> bool:
    if math.isnan(ref) or math.isnan(now):
        return math.isnan(ref) and math.isnan(now)
    return abs(now - ref) <= tol * max(1.0, abs(ref))


def table_problems(table: dict, tags: Sequence[str], reps: int) -> List[str]:
    """Invariants of one ``MetricsTable`` (as produced by the worker)."""
    problems = []
    rows: Dict[str, list] = table["rows"]
    if sorted(rows) != sorted(tags):
        problems.append(f"estimators {sorted(rows)} != requested {sorted(tags)}")
    if not math.isfinite(table["mu0"]):
        problems.append(f"target mean {table['mu0']} is not finite")
    for tag, row in rows.items():
        *vals, n_failed = row
        bias, rmse, mae, mcsd, asse, cov = vals
        if not 0 <= n_failed <= reps:
            problems.append(f"{tag}: n_failed {n_failed} outside 0..{reps}")
        elif n_failed == reps:
            if not all(math.isnan(v) for v in vals):
                problems.append(f"{tag}: all replications failed but metrics are {vals}")
        elif not all(math.isfinite(v) for v in vals):
            problems.append(f"{tag}: non-finite metrics {vals}")
        elif not (
            rmse >= abs(bias) * (1 - 1e-12) and mae >= 0 and mcsd >= 0 and asse > 0 and 0 <= cov <= 1
        ):
            problems.append(f"{tag}: inconsistent metrics {dict(zip(METRIC_FIELDS, vals))}")
    return problems


def compare_table(now: dict, ref: dict) -> List[str]:
    problems = []
    if not close(now["mu0"], ref["mu0"]):
        problems.append(f"target mean {now['mu0']!r} != reference {ref['mu0']!r}")
    for tag, ref_row in ref["rows"].items():
        row = now["rows"].get(tag)
        if row is None:
            problems.append(f"{tag}: missing")
            continue
        if row[-1] > ref_row[-1]:
            problems.append(f"{tag}: {row[-1]} failed replications, reference {ref_row[-1]}")
        elif row[-1] == ref_row[-1]:
            for field, v, r in zip(METRIC_FIELDS, row, ref_row):
                if not close(v, r):
                    problems.append(f"{tag}.{field}: {v!r} != reference {r!r}")
    return problems


def result_problems(label: str, est: float, se: float, lo: float, hi: float) -> List[str]:
    if not all(math.isfinite(v) for v in (est, se, lo, hi)):
        return [f"{label}: non-finite result {(est, se, lo, hi)}"]
    if not (se >= 0 and lo <= est <= hi):
        return [f"{label}: interval [{lo!r}, {hi!r}] does not bracket {est!r} (se {se!r})"]
    return []


def suite_problems(suite: Dict[str, list]) -> List[str]:
    """``suite`` maps tag -> ["ok", mu, se, lo, hi] or ["error", class name]."""
    problems = []
    for tag, rec in suite.items():
        if rec[0] == "ok":
            problems += result_problems(tag, *rec[1:])
    return problems


def compare_suite(now: Dict[str, list], ref: Dict[str, list]) -> List[str]:
    problems = []
    for tag, ref_rec in ref.items():
        rec = now.get(tag)
        if rec is None:
            problems.append(f"{tag}: missing")
        elif rec[0] != "ok":
            if ref_rec[0] == "ok":
                problems.append(f"{tag}: now fails with {rec[1]}, reference succeeded")
        elif ref_rec[0] == "ok":
            for field, v, r in zip(("estimate", "se", "ci_lower", "ci_upper"), rec[1:], ref_rec[1:]):
                if not close(v, r):
                    problems.append(f"{tag}.{field}: {v!r} != reference {r!r}")
    return problems


def estimate_summary(report: dict) -> dict:
    """The numbers of an ``estimate --target ate`` report that are checked."""
    out = {k: report[k] for k in ("estimate", "se", "ci_lower", "ci_upper")}
    for arm in ("arm1", "arm0"):
        out[arm] = {k: report[arm][k] for k in ("estimate", "se", "ci_lower", "ci_upper")}
    return out


def estimate_problems(summary: dict) -> List[str]:
    problems = result_problems("ate", *(summary[k] for k in ("estimate", "se", "ci_lower", "ci_upper")))
    for arm in ("arm1", "arm0"):
        problems += result_problems(arm, *(summary[arm][k] for k in ("estimate", "se", "ci_lower", "ci_upper")))
    if not problems and not close(summary["estimate"], summary["arm1"]["estimate"] - summary["arm0"]["estimate"], 1e-12):
        problems.append("ate is not the difference of the arm estimates")
    return problems


def compare_estimate(now: dict, ref: dict) -> List[str]:
    problems = []
    for key, r in ref.items():
        if isinstance(r, dict):
            problems += [f"{key}.{p}" for p in compare_estimate(now[key], r)]
        elif not close(now[key], r):
            problems.append(f"{key}: {now[key]!r} != reference {r!r}")
    return problems


def read_surface_files(main_text: str, sidecar_text: str) -> dict:
    """Parse the surface CSV and its reference sidecar without the program's reader."""
    lines = main_text.splitlines()
    if lines[0] != "gamma_slope,beta_slope,rescaled_bias":
        raise ValueError(f"unexpected surface header {lines[0]!r}")
    cells = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    side = dict(line.split(",", 1) for line in sidecar_text.splitlines()[1:])
    return {
        "cells": cells,
        "references": {k: float(v) for k, v in side.items() if not k.startswith("br_point")},
        "br_point": [float(side["br_point_gamma"]), float(side["br_point_beta"])],
    }


def surface_problems(surface: dict, n_gamma: int, n_beta: int) -> List[str]:
    problems = []
    cells = surface["cells"]
    if len(cells) != n_gamma * n_beta:
        problems.append(f"{len(cells)} surface cells, expected {n_gamma * n_beta}")
    # A grid row is NaN exactly where the positivity guard drops it; a row is
    # either wholly finite or wholly NaN.
    for i in range(0, len(cells), max(n_beta, 1)):
        row = [c[2] for c in cells[i : i + n_beta]]
        if not (all(math.isfinite(v) for v in row) or all(math.isnan(v) for v in row)):
            problems.append(f"surface row at gamma {cells[i][0]} mixes finite and NaN cells")
    for tag, v in surface["references"].items():
        if not math.isfinite(v):
            problems.append(f"reference {tag} = {v}")
    if not all(math.isfinite(v) for v in surface["br_point"]):
        problems.append(f"br_point {surface['br_point']} is not finite")
    return problems


def compare_surface(now: dict, ref: dict) -> List[str]:
    problems = []
    if len(now["cells"]) != len(ref["cells"]):
        return [f"{len(now['cells'])} surface cells, reference {len(ref['cells'])}"]
    for c, r in zip(now["cells"], ref["cells"]):
        if not all(close(v, w) for v, w in zip(c, r)):
            problems.append(f"surface cell {c} != reference {r}")
    for tag, r in ref["references"].items():
        if not close(now["references"].get(tag, math.nan), r):
            problems.append(f"reference {tag}: {now['references'].get(tag)!r} != {r!r}")
    for v, r in zip(now["br_point"], ref["br_point"]):
        if not close(v, r):
            problems.append(f"br_point {now['br_point']} != reference {ref['br_point']}")
    return problems


def same_exit(rc: int, expected: int) -> List[str]:
    """A command must end as recorded, except that success is never a mismatch."""
    return [] if rc in (0, expected) else [f"exit {rc}, reference {expected}"]


def brief(problems: List[str], limit: int = 5) -> Optional[str]:
    if not problems:
        return None
    more = f" (+{len(problems) - limit} more)" if len(problems) > limit else ""
    return "; ".join(problems[:limit]) + more
