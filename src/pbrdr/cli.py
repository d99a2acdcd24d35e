"""Command-line interface: estimate from a CSV, run simulation sweeps, export bias surfaces.

Exit codes are stable across subcommands: 0 on success, 2 on input errors
(CSV schema, config file, grid specification, unwritable output; each a
:class:`~pbrdr.errors.ConfigError`), 3 on numerical/solver failures (any
other :class:`~pbrdr.errors.PbrdrError`). Every run that writes files also
writes a manifest listing them and itself (even on partial failure), with
the same keys for every command: ``simulate`` writes ``<out>/manifest.json``,
``bias-surface`` writes ``<out>/<variant>_manifest.json`` beside its surface
files, and ``estimate`` writes ``<report stem>.manifest.json`` beside the
report, so runs sharing an output directory keep separate manifests. A
manifest records the arguments the command parsed and, in ``stage_s``, the
wall time of each stage: ``load``, ``fit`` and ``write`` for ``estimate``,
``evaluate`` and ``export`` for ``bias-surface``, one per cell for ``simulate``.
The ``simulate`` statuses give each cell's failures per estimator, as
``{"n_failed": k, "failed_by_class": {class name: count}}``. A ``simulate`` or
``bias-surface`` run that fails with a :class:`~pbrdr.errors.PbrdrError`
records it as ``statuses["error"] = {"class": ..., "message": ...}``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bias_surface import SurfaceDgp, evaluate_surface, export_surface
from .dataset import Dataset
from .errors import ConfigError, PbrdrError
from .estimators import DEFAULT_ROSTER, ate_estimate, estimate_one
from .simulation import parse_config_text, run_monte_carlo

_NA_TOKENS = {"", "na", "nan", "null"}
_TREATMENT_CODES = {"0": 0.0, "1": 1.0}


@dataclass
class CsvSchema:
    """Column mapping for :func:`load_csv_dataset`.

    ``covariate_cols`` of ``None`` selects every remaining numeric column in
    header order; a list names each column once. ``na_policy`` is
    ``drop_rows`` (default, rows with missing values are removed) or ``error``.
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
        repeated = [c for c, k in Counter(self.covariate_cols or ()).items() if k > 1]
        if repeated:
            raise ConfigError(f"covariate column {repeated[0]!r} repeats in {self.covariate_cols}")


def _is_missing(token: str) -> bool:
    return token.strip().lower() in _NA_TOKENS


def _check_header(
    path: Path, header: List[str], schema: CsvSchema
) -> Tuple[Dict[str, int], List[str]]:
    """Check the stripped header against ``schema``; return each name's
    position and the candidate covariate columns."""
    repeated = [h for h, k in Counter(header).items() if k > 1]
    if repeated:
        raise ConfigError(f"{path}: column name {repeated[0]!r} repeats in header {header}")
    for col in (schema.outcome_col, schema.treatment_col):
        if col not in header:
            raise ConfigError(f"{path}: column {col!r} not found in header {header}")
    if schema.covariate_cols is not None:
        for col in schema.covariate_cols:
            if col not in header:
                raise ConfigError(f"{path}: covariate column {col!r} not found")
            if col in (schema.outcome_col, schema.treatment_col):
                raise ConfigError(
                    f"{path}: covariate column {col!r} clashes with outcome/treatment"
                )
    candidates = (
        list(schema.covariate_cols)
        if schema.covariate_cols is not None
        else [h for h in header if h not in (schema.outcome_col, schema.treatment_col)]
    )
    return {name: j for j, name in enumerate(header)}, candidates


def load_csv_dataset(path, schema: CsvSchema) -> Tuple[Dataset, List[str]]:
    """Read a UTF-8 CSV (BOM or not) with a header row into a :class:`Dataset`.

    Numbers are parsed as 64-bit floats; the treatment column accepts only
    the tokens ``0`` and ``1`` (a value like ``2`` is reported with its line
    number). Returns the dataset and the covariate column names used. Every
    input it rejects raises :class:`ConfigError`.

    A clean all-numeric file is parsed by numpy's C reader; every other file
    goes through the validating reader, which alone builds the error
    messages. Both give the same dataset for a file the C reader takes.
    """
    path = Path(path)
    loaded = _load_clean_csv(path, schema)
    return loaded if loaded is not None else _load_csv_rows(path, schema)


def _treatment_token(token: str) -> float:
    value = _TREATMENT_CODES.get(token.strip())
    if value is None:
        raise ValueError(f"treatment token {token!r} is not 0 or 1")
    return value


def _load_clean_csv(path: Path, schema: CsvSchema) -> Optional[Tuple[Dataset, List[str]]]:
    """The dataset of a clean file by numpy's C reader, or ``None`` for any
    file it cannot take exactly as :func:`_load_csv_rows` would.

    Clean means: UTF-8; a header line with no quote that passes the header
    checks; one record per line, with as many fields as the header names;
    every value a finite number; treatment tokens ``0``/``1``; at least 10
    rows. Where the two readers part, the file is not clean: ``loadtxt``
    skips blank lines, joins a quoted newline and reads a bare carriage
    return as a line end (so its row count must equal the line count, and
    every ``\\r`` must end a CRLF), and it accepts a NUL and any field length,
    which ``csv`` rejects on Python 3.10 and past its field limit.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    # Counts and searches on the bytes themselves, and one line at a time for
    # the longest line, so the check holds no copy of the file beside ``raw``.
    n_lines = raw.count(b"\n") + (not raw.endswith(b"\n")) - 1  # after the header
    head = raw[: raw.find(b"\n")] if b"\n" in raw else raw
    last = len(raw) - raw.rfind(b"\n") - 1  # the line after the last "\n"
    if (
        n_lines < 10
        or b'"' in head
        or b"\0" in raw
        or (b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"))
        or max(max(map(len, io.BytesIO(raw)), default=0) - 1, last) > csv.field_size_limit()
    ):
        return None
    del raw  # ``loadtxt`` reads the file again: its bytes need not stay in memory
    try:
        header = [h.strip() for h in head.decode("utf-8-sig").removesuffix("\r").split(",")]
        idx, cov_cols = _check_header(path, header, schema)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path,
                delimiter=",",
                skiprows=1,
                comments=None,
                quotechar='"',
                ndmin=2,
                encoding="utf-8-sig",
                converters={idx[schema.treatment_col]: _treatment_token},
            )
    except (ConfigError, ValueError, Warning):  # UnicodeError is a ValueError
        return None
    if table.shape != (n_lines, len(header)) or not np.isfinite(table).all():
        return None
    x = table.take([idx[c] for c in cov_cols], axis=1)
    x.flags.writeable = False  # handed over: the dataset need not copy it
    data = Dataset(table[:, idx[schema.outcome_col]], table[:, idx[schema.treatment_col]], x)
    return data, cov_cols


def _load_csv_rows(path: Path, schema: CsvSchema) -> Tuple[Dataset, List[str]]:
    """The validating reader behind :func:`load_csv_dataset`: ``csv`` rows,
    NA handling, text columns and every error message."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty file")
    header = [h.strip() for h in rows.pop(0)]
    idx, candidates = _check_header(path, header, schema)
    # Parse each candidate covariate token once, in place: a number becomes a
    # float and a missing value None; a token that is not a number stays text,
    # which excludes its column when the covariates are auto-detected. Fields
    # past the end of a short row are absent, not missing. ``float`` runs
    # first: every NA token is one it rejects or reads as NaN, so only those
    # need the NA check (``-nan`` reads as NaN but is not an NA token).
    width = len(header)
    positions = sorted({idx[c] for c in candidates})
    text_positions = set()
    for row in rows:
        for j in positions if len(row) >= width else [j for j in positions if j < len(row)]:
            token = row[j]
            try:
                value = float(token)
            except ValueError:
                if _is_missing(token):
                    row[j] = None
                else:
                    text_positions.add(j)
                continue
            row[j] = None if value != value and _is_missing(token) else value
    if schema.covariate_cols is None:
        cov_cols = [c for c in candidates if idx[c] not in text_positions]
    else:
        cov_cols = list(schema.covariate_cols)

    cov_idx = [idx[c] for c in cov_cols]
    # only a named column where pass 1 met text can hold a token left unparsed
    text_idx = [j for j in cov_idx if j in text_positions]
    iy, ia = idx[schema.outcome_col], idx[schema.treatment_col]
    y, a, x = [], [], []
    for lineno, row in enumerate(rows, start=2):  # header is line 1
        if len(row) != width:
            raise ConfigError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        cells = [row[j] for j in cov_idx]
        if None in cells or _is_missing(row[iy]) or _is_missing(row[ia]):
            if schema.na_policy == "drop_rows":
                continue
            raise ConfigError(f"{path}:{lineno}: missing value with na_policy=error")
        a_token = row[ia].strip()
        if a_token not in ("0", "1"):
            raise ConfigError(
                f"{path}:{lineno}: treatment column {schema.treatment_col!r} must be 0 or 1, "
                f"got {a_token!r}"
            )
        try:
            y.append(float(row[iy]))
            for j in text_idx:
                float(row[j])  # a float from pass 1 passes; text raises
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        x.append(cells)
        a.append(float(a_token))
    if len(y) < 10:
        raise ConfigError(f"{path}: only {len(y)} usable rows after parsing; need at least 10")
    x_arr = np.array(x, dtype=float) if cov_cols else np.zeros((len(y), 0))
    x_arr.flags.writeable = False  # handed over: the dataset need not copy it
    try:
        data = Dataset(np.array(y), np.array(a), x_arr)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return data, cov_cols


# ---------------------------------------------------------------------------
# reports and manifests
# ---------------------------------------------------------------------------


@contextmanager
def _writing(path):
    """Raise an ``OSError`` of the ``with`` body as a ``ConfigError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: Dict) -> None:
    with _writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class _Run:
    """The record of one command run, written out as its manifest: the
    parsed arguments, inputs, seed, start time, the wall time of each stage,
    statuses and the files the run wrote."""

    args: argparse.Namespace
    config: Dict
    seed: Optional[int] = None
    t0: float = field(default_factory=time.perf_counter)
    stage_s: Dict[str, float] = field(default_factory=dict)
    statuses: Dict = field(default_factory=dict)
    outputs: List[str] = field(default_factory=list)

    @contextmanager
    def stage(self, name: str):
        """Record the wall time of the ``with`` body in ``stage_s[name]``,
        also when the body raises."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[name] = time.perf_counter() - t

    @contextmanager
    def recording(self, path: Path):
        """Write the manifest to ``path`` after the ``with`` body, also when
        it raises; a :class:`PbrdrError` is first recorded as
        ``statuses["error"]``, by class and message."""
        try:
            yield
        except PbrdrError as exc:
            self.statuses["error"] = {"class": type(exc).__name__, "message": str(exc)}
            raise
        finally:
            self.write_manifest(path)
            print(f"wrote {path}")

    def write_manifest(self, path: Path) -> None:
        """Write the manifest, which lists itself among the output files."""
        _write_json(
            path,
            {
                "command": self.args.command,
                "argv": self.args.argv,
                "config": self.config,
                "seed": self.seed,
                "version": __version__,
                "wall_time_s": time.perf_counter() - self.t0,
                "stage_s": self.stage_s,
                "statuses": self.statuses,
                "output_files": sorted({*self.outputs, str(path)}),
            },
        )


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _result_payload(res, estimator: str) -> Dict:
    out = {
        "estimator": estimator,
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
    keys = ("csv", "outcome", "treatment", "estimator", "target", "na_policy")
    run = _Run(args, {k: getattr(args, k) for k in keys})
    schema = CsvSchema(
        outcome_col=args.outcome,
        treatment_col=args.treatment,
        covariate_cols=args.covariates.split(",") if args.covariates else None,
        na_policy=args.na_policy,
    )
    report = Path(args.report) if args.report else Path(args.csv).with_suffix(".estimate.json")
    if args.report and not report.parent.is_dir():  # the default sits beside the CSV
        raise ConfigError(f"cannot write {report}: no directory {report.parent}")
    with run.stage("load"):
        data, cov_cols = load_csv_dataset(args.csv, schema)
    run.config["covariates"] = cov_cols
    with run.stage("fit"):
        if args.target == "ate":
            res = ate_estimate(data, args.estimator)
            payload = {
                "target": "ate",
                "estimator": args.estimator,
                "estimate": res.ate,
                "se": res.se,
                "ci_lower": res.ci[0],
                "ci_upper": res.ci[1],
                "arm1": _result_payload(res.arm1, args.estimator),
                "arm0": _result_payload(res.arm0, args.estimator),
            }
        else:
            work = data if args.target == "mu1" else data.swap_treatment()
            res = estimate_one(work, args.estimator)
            payload = dict(_result_payload(res, args.estimator), target=args.target)
    print(f"target      : {args.target}  (estimator {args.estimator})")
    print(f"estimate    : {payload['estimate']:.6g}")
    print(f"se          : {payload['se']:.6g}{'  (naive)' if payload.get('se_is_naive') else ''}")
    print(f"95% ci      : [{payload['ci_lower']:.6g}, {payload['ci_upper']:.6g}]")
    if "propensity_active_set_size" in payload:
        print(
            f"active sets : propensity {payload['propensity_active_set_size']}, "
            f"outcome {payload['outcome_active_set_size']}"
        )
    payload["n"] = data.n
    payload["n_treated"] = data.n_treated
    payload["covariates"] = cov_cols
    with run.stage("write"):
        _write_json(report, payload)
    run.outputs.append(str(report))
    run.statuses[args.estimator] = "ok"
    run.write_manifest(report.with_name(report.stem + ".manifest.json"))
    print(f"report      : {report}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    cells = parse_config_text(text)
    out_dir = Path(args.out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    n_jobs = max(1, args.threads)
    # every cell of a config shares its seed
    run = _Run(args, {"path": str(args.config), "text": text, "threads": n_jobs}, cells[0][0].seed)
    with run.recording(out_dir / "manifest.json"):
        for spec, tags in cells:
            name = spec.cell_name()
            with run.stage(name):
                table = run_monte_carlo(spec, tags, n_jobs=n_jobs)
            out_path = out_dir / f"{name}.csv"
            with _writing(out_path):
                table.write_csv(out_path)
            run.outputs.append(str(out_path))
            run.statuses[name] = {
                tag: {"n_failed": row.n_failed, "failed_by_class": row.failed_by_class}
                for tag, row in sorted(table.rows.items())
            }
            print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# bias-surface
# ---------------------------------------------------------------------------


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must be A:B:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{name} must contain numbers, got {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"{name} must contain finite numbers, got {text!r}")
    if step <= 0:
        raise ConfigError(f"{name}: step must be positive, got {step}")
    if hi < lo:
        raise ConfigError(f"{name}: upper bound {hi} below lower bound {lo}")
    count = math.floor((hi - lo) / step + 1e-9) + 1
    return lo + step * np.arange(count)


def cmd_bias_surface(args) -> int:
    gamma_grid = _parse_range(args.gamma_range, "--gamma-range")
    beta_grid = _parse_range(args.beta_range, "--beta-range")
    dgp = SurfaceDgp(args.variant, args.n_large, args.seed)
    out_dir = Path(args.out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    keys = ("variant", "gamma_range", "beta_range", "n_large")
    run = _Run(args, {k: getattr(args, k) for k in keys}, args.seed)
    with run.recording(out_dir / f"{args.variant}_manifest.json"):
        with run.stage("evaluate"):
            grid = evaluate_surface(dgp, gamma_grid, beta_grid)
        with run.stage("export"), _writing(out_dir):
            main_path, sidecar = export_surface(grid, out_dir / f"{args.variant}_surface.csv")
        run.outputs += [str(main_path), str(sidecar)]
        run.statuses = {
            "references": grid.reference_biases,
            "br_point": list(grid.br_point),
            "cells": int(gamma_grid.size * beta_grid.size),
        }
        print(f"wrote {main_path}")
        print(f"wrote {sidecar}")
        for tag, val in grid.reference_biases.items():
            print(f"reference {tag:7s}: {val:.4g}")
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
    est.add_argument("--estimator", default="P-BR", choices=list(DEFAULT_ROSTER))
    est.add_argument("--target", default="mu1", choices=["mu1", "mu0", "ate"])
    est.add_argument("--na-policy", default="drop_rows", choices=["drop_rows", "error"])
    est.add_argument("--report", default=None, help="report JSON path (default: <csv>.estimate.json)")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run Monte Carlo cells from a config file")
    sim.add_argument("--config", required=True, help="key-value config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument(
        "--threads", type=int, default=1, help="worker processes, at most one per rep and CPU (default 1)"
    )
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the manifests record the arguments this call parsed
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PbrdrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
