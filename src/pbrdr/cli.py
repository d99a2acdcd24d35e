"""Command-line interface: estimate from a CSV, run simulation sweeps, export bias surfaces.

Exit codes are stable across subcommands: 0 on success, 2 on input errors
(CSV schema, config file, grid specification), 3 on numerical/solver
failures. Every run that writes files also writes a manifest listing them
(even on partial failure): ``simulate`` writes ``<out>/manifest.json``,
``bias-surface`` writes ``<out>/<variant>_manifest.json`` beside its surface
files, and ``estimate`` writes ``<report stem>.manifest.json`` beside the
report, so runs sharing an output directory keep separate manifests.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bias_surface import SurfaceDgp, evaluate_surface, export_surface
from .dataset import Dataset
from .errors import ConfigError, PbrdrError
from .estimators import ALL_TAGS, ate_estimate, estimate_one
from .simulation import parse_config, run_monte_carlo

_NA_TOKENS = {"", "na", "nan", "null"}


@dataclass
class CsvSchema:
    """Column mapping for :func:`load_csv_dataset`.

    ``covariate_cols`` of ``None`` selects every remaining numeric column in
    header order. ``na_policy`` is ``drop_rows`` (default, rows with missing
    values are removed) or ``error``.
    """

    outcome_col: str
    treatment_col: str
    covariate_cols: Optional[List[str]] = None
    na_policy: str = "drop_rows"

    def __post_init__(self) -> None:
        if self.outcome_col == self.treatment_col:
            raise ConfigError("outcome and treatment columns must be distinct")
        if self.na_policy not in ("drop_rows", "error"):
            raise ConfigError("na_policy must be 'drop_rows' or 'error'")


@dataclass
class RunManifest:
    """Record of one CLI run: inputs, outputs, statuses, timing."""

    command: str
    argv: List[str]
    config: Dict
    seed: Optional[int] = None
    version: str = __version__
    wall_time_s: float = 0.0
    statuses: Dict = field(default_factory=dict)
    output_files: List[str] = field(default_factory=list)

    def write(self, path: Path) -> None:
        payload = {
            "command": self.command,
            "argv": self.argv,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
            "statuses": self.statuses,
            "output_files": sorted(set(self.output_files)),
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


class _InputError(Exception):
    """CSV/schema/grid problems reported with exit code 2."""


def _is_missing(token: str) -> bool:
    return token.strip().lower() in _NA_TOKENS


def load_csv_dataset(path, schema: CsvSchema) -> Tuple[Dataset, List[str]]:
    """Read a UTF-8 CSV with a header row into a :class:`Dataset`.

    Numbers are parsed as 64-bit floats; the treatment column accepts only
    the tokens ``0`` and ``1`` (a value like ``2`` is reported with its line
    number). Returns the dataset and the covariate column names used.
    """
    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise _InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = [h for h, k in Counter(header).items() if k > 1]
        if repeated:
            raise _InputError(f"{path}: column name {repeated[0]!r} repeats in header {header}")
        for col in (schema.outcome_col, schema.treatment_col):
            if col not in header:
                raise _InputError(f"{path}: column {col!r} not found in header {header}")
        if schema.covariate_cols is not None:
            for col in schema.covariate_cols:
                if col not in header:
                    raise _InputError(f"{path}: covariate column {col!r} not found")
                if col in (schema.outcome_col, schema.treatment_col):
                    raise _InputError(
                        f"{path}: covariate column {col!r} clashes with outcome/treatment"
                    )
        rows = list(reader)

    idx = {name: j for j, name in enumerate(header)}
    candidates = (
        schema.covariate_cols
        if schema.covariate_cols is not None
        else [h for h in header if h not in (schema.outcome_col, schema.treatment_col)]
    )
    # Parse each candidate covariate token once, in place: a number becomes a
    # float and a missing value None; a token that is not a number stays text,
    # which excludes its column when the covariates are auto-detected. Fields
    # past the end of a short row are absent, not missing.
    width = len(header)
    positions = sorted({idx[c] for c in candidates})
    text_positions = set()
    for row in rows:
        for j in positions if len(row) >= width else [j for j in positions if j < len(row)]:
            if _is_missing(row[j]):
                row[j] = None
                continue
            try:
                row[j] = float(row[j])
            except ValueError:
                text_positions.add(j)
    if schema.covariate_cols is None:
        cov_cols = [c for c in candidates if idx[c] not in text_positions]
    else:
        cov_cols = list(schema.covariate_cols)

    cov_idx = [idx[c] for c in cov_cols]
    iy, ia = idx[schema.outcome_col], idx[schema.treatment_col]
    y, a, x = [], [], []
    for lineno, row in enumerate(rows, start=2):  # header is line 1
        if len(row) != width:
            raise _InputError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        cells = [row[j] for j in cov_idx]
        if None in cells or _is_missing(row[iy]) or _is_missing(row[ia]):
            if schema.na_policy == "drop_rows":
                continue
            raise _InputError(f"{path}:{lineno}: missing value with na_policy=error")
        a_token = row[ia].strip()
        if a_token not in ("0", "1"):
            raise _InputError(
                f"{path}:{lineno}: treatment column {schema.treatment_col!r} must be 0 or 1, "
                f"got {a_token!r}"
            )
        try:
            y.append(float(row[iy]))
            # floats pass through unchanged; a covariate left as text raises
            x.append([float(c) for c in cells])
        except ValueError as exc:
            raise _InputError(f"{path}:{lineno}: {exc}") from exc
        a.append(float(a_token))
    if len(y) < 10:
        raise _InputError(f"{path}: only {len(y)} usable rows after parsing; need at least 10")
    x_arr = np.array(x, dtype=float) if cov_cols else np.zeros((len(y), 0))
    x_arr.flags.writeable = False  # handed over: the dataset need not copy it
    try:
        data = Dataset(np.array(y), np.array(a), x_arr)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    return data, cov_cols


def write_dataset_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV (columns ``y,a,x1..xp``) with round-trip-exact floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ["y", "a"] + [f"x{j}" for j in range(1, data.p + 1)]
        fh.write(",".join(cols) + "\n")
        for i in range(data.n):
            vals = [format(data.y[i], ".17g"), format(int(data.a[i]), "d")]
            vals += [format(v, ".17g") for v in data.x[i]]
            fh.write(",".join(vals) + "\n")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _result_payload(res) -> Dict:
    out = {
        "estimator": res.estimator,
        "estimate": res.mu_hat,
        "se": res.se,
        "ci_lower": res.ci[0],
        "ci_upper": res.ci[1],
        "se_is_naive": res.se_is_naive,
    }
    if res.fit is not None:
        out["propensity_active_set_size"] = len(res.fit.gamma.active_set)
        out["outcome_active_set_size"] = len(res.fit.beta.active_set)
    return out


def cmd_estimate(args) -> int:
    schema = CsvSchema(
        outcome_col=args.outcome,
        treatment_col=args.treatment,
        covariate_cols=args.covariates.split(",") if args.covariates else None,
        na_policy=args.na_policy,
    )
    data, cov_cols = load_csv_dataset(args.csv, schema)
    t0 = time.perf_counter()
    if args.target == "ate":
        res = ate_estimate(data, args.estimator)
        payload = {
            "target": "ate",
            "estimator": args.estimator,
            "estimate": res.ate,
            "se": res.se,
            "ci_lower": res.ci[0],
            "ci_upper": res.ci[1],
            "arm1": _result_payload(res.arm1),
            "arm0": _result_payload(res.arm0),
        }
        print(f"target      : ate  (estimator {args.estimator})")
        print(f"estimate    : {res.ate:.6g}")
        print(f"se          : {res.se:.6g}")
        print(f"95% ci      : [{res.ci[0]:.6g}, {res.ci[1]:.6g}]")
    else:
        work = data if args.target == "mu1" else data.swap_treatment()
        res = estimate_one(work, args.estimator)
        payload = dict(_result_payload(res), target=args.target)
        print(f"target      : {args.target}  (estimator {args.estimator})")
        print(f"estimate    : {res.mu_hat:.6g}")
        print(f"se          : {res.se:.6g}{'  (naive)' if res.se_is_naive else ''}")
        print(f"95% ci      : [{res.ci[0]:.6g}, {res.ci[1]:.6g}]")
        if res.fit is not None:
            print(
                f"active sets : propensity {len(res.fit.gamma.active_set)}, "
                f"outcome {len(res.fit.beta.active_set)}"
            )
    payload["n"] = data.n
    payload["n_treated"] = data.n_treated
    payload["covariates"] = cov_cols
    report = Path(args.report) if args.report else Path(args.csv).with_suffix(".estimate.json")
    manifest = RunManifest(
        command="estimate",
        argv=sys.argv[1:],
        config={
            "csv": str(args.csv),
            "outcome": args.outcome,
            "treatment": args.treatment,
            "covariates": cov_cols,
            "estimator": args.estimator,
            "target": args.target,
            "na_policy": args.na_policy,
        },
    )
    manifest.statuses = {args.estimator: "ok"}
    manifest.wall_time_s = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.output_files.append(str(report))
    manifest.write(report.with_name(report.stem + ".manifest.json"))
    print(f"report      : {report}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _finish_manifest(manifest: RunManifest, path: Path, t0: float) -> None:
    """Record the wall time since ``t0``, list the manifest itself and write it."""
    manifest.wall_time_s = time.perf_counter() - t0
    manifest.output_files.append(str(path))
    manifest.write(path)
    print(f"wrote {path}")


def cmd_simulate(args) -> int:
    try:
        cells = parse_config(args.config)
    except OSError as exc:
        raise _InputError(f"cannot read config {args.config}: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_jobs = max(1, args.threads)
    with open(args.config, "r", encoding="utf-8") as fh:
        config_echo = fh.read()
    manifest = RunManifest(
        command="simulate",
        argv=sys.argv[1:],
        config={"path": str(args.config), "text": config_echo, "threads": n_jobs},
        seed=cells[0][0].seed if cells else None,
    )
    t0 = time.perf_counter()
    try:
        for spec, tags in cells:
            name = spec.cell_name()
            try:
                table = run_monte_carlo(spec, tags, n_jobs=n_jobs)
            except PbrdrError as exc:
                manifest.statuses[name] = {"error": type(exc).__name__, "message": str(exc)}
                continue
            out_path = out_dir / f"{name}.csv"
            table.write_csv(out_path)
            manifest.output_files.append(str(out_path))
            manifest.statuses[name] = {
                tag: {"n_failed": row.n_failed} for tag, row in sorted(table.rows.items())
            }
            print(f"wrote {out_path}")
    finally:
        _finish_manifest(manifest, out_dir / "manifest.json", t0)
    return 0


# ---------------------------------------------------------------------------
# bias-surface
# ---------------------------------------------------------------------------


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise _InputError(f"{name} must be A:B:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise _InputError(f"{name} must contain numbers, got {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise _InputError(f"{name} must contain finite numbers, got {text!r}")
    if step <= 0:
        raise _InputError(f"{name}: step must be positive, got {step}")
    if hi < lo:
        raise _InputError(f"{name}: upper bound {hi} below lower bound {lo}")
    count = math.floor((hi - lo) / step + 1e-9) + 1
    return lo + step * np.arange(count)


def cmd_bias_surface(args) -> int:
    gamma_grid = _parse_range(args.gamma_range, "--gamma-range")
    beta_grid = _parse_range(args.beta_range, "--beta-range")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dgp = SurfaceDgp(args.variant, args.n_large, args.seed)
    manifest = RunManifest(
        command="bias-surface",
        argv=sys.argv[1:],
        config={
            "variant": args.variant,
            "gamma_range": args.gamma_range,
            "beta_range": args.beta_range,
            "n_large": args.n_large,
        },
        seed=args.seed,
    )
    t0 = time.perf_counter()
    try:
        grid = evaluate_surface(dgp, gamma_grid, beta_grid)
        main_path, sidecar = export_surface(grid, out_dir / f"{args.variant}_surface.csv")
        manifest.output_files += [str(main_path), str(sidecar)]
        manifest.statuses = {
            "references": grid.reference_biases,
            "br_point": list(grid.br_point),
            "cells": int(gamma_grid.size * beta_grid.size),
        }
        print(f"wrote {main_path}")
        print(f"wrote {sidecar}")
        for tag, val in grid.reference_biases.items():
            print(f"reference {tag:7s}: {val:.4g}")
    finally:
        _finish_manifest(manifest, out_dir / f"{args.variant}_manifest.json", t0)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbrdr",
        description=(
            "Penalised bias-reduced double-robust estimation of counterfactual "
            "means and average treatment effects."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pbrdr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate mu1, mu0 or the ATE from a CSV file")
    est.add_argument("--csv", required=True, help="input CSV with a header row")
    est.add_argument("--outcome", required=True, help="outcome column name")
    est.add_argument("--treatment", required=True, help="treatment column name (0/1)")
    est.add_argument(
        "--covariates",
        default=None,
        help="comma-separated covariate columns (default: all remaining numeric columns)",
    )
    est.add_argument("--estimator", default="P-BR", choices=list(ALL_TAGS))
    est.add_argument("--target", default="mu1", choices=["mu1", "mu0", "ate"])
    est.add_argument("--na-policy", default="drop_rows", choices=["drop_rows", "error"])
    est.add_argument("--report", default=None, help="report JSON path (default: <csv>.estimate.json)")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run Monte Carlo cells from a config file")
    sim.add_argument("--config", required=True, help="key-value config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    sim.set_defaults(func=cmd_simulate)

    surf = sub.add_parser("bias-surface", help="export misspecification bias-surface data")
    # ranges like -3:-1:0.5 start with a dash; teach argparse they are values
    surf._negative_number_matcher = re.compile(r"^-\d+(:|$)|^-\d*\.\d+(:|$)")
    surf.add_argument("--variant", required=True, choices=["fig1", "fig2"])
    surf.add_argument("--gamma-range", required=True, help="propensity slope grid A:B:STEP")
    surf.add_argument("--beta-range", required=True, help="outcome slope grid A:B:STEP")
    surf.add_argument("--n-large", type=int, default=100_000)
    surf.add_argument("--seed", type=int, default=0)
    surf.add_argument("--out", required=True, help="output directory")
    surf.set_defaults(func=cmd_bias_surface)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PbrdrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
