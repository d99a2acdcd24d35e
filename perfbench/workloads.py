"""Workload definitions and input generation.

Every input the program receives is generated here from the workload seed:
the Monte Carlo cell specs (``ScenarioSpec``) and, for the one-shot CLI
workload, a CSV drawn with ``draw_dataset`` plus the surface sample seed.
Generation runs before any timer starts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

# Fixed seed of the check inputs, whose outputs are compared with
# ``reference.json``; the timed inputs vary with the workload seed.
CHECK_SEED = 20261017

# Rounds generated per run; more than any run can use in its time budget.
MAX_ROUNDS = 400

# (scenario, n, p, correlated, or_correct, ps_correct)
Cell = Tuple[str, int, int, bool, bool, bool]


@dataclass(frozen=True)
class McWorkload:
    """Monte Carlo traffic: each round calls ``run_monte_carlo`` once per cell."""

    name: str
    cells: Tuple[Cell, ...]
    estimators: Optional[Tuple[str, ...]]
    reps: int
    n_jobs: int
    check_reps: int


@dataclass(frozen=True)
class CliWorkload:
    """One-shot CLI traffic: each round is one ``estimate --target ate`` on a
    CSV and one ``bias-surface`` call, each in a fresh process."""

    name: str
    rows: int
    cols: int
    gamma_range: str
    beta_range: str
    n_large: int


_GRID_CELLS: Tuple[Cell, ...] = (
    ("S1", 200, 40, False, True, True),
    ("S1", 200, 40, True, False, False),
    ("S2", 200, 40, False, True, True),
    ("S2", 200, 40, True, False, False),
)

WORKLOADS = {
    "mc-grid-p40": McWorkload("mc-grid-p40", _GRID_CELLS, None, 32, 2, 2),
    "mc-p1000-serial": McWorkload(
        "mc-p1000-serial", (("S1", 500, 1000, False, True, True),), None, 1, 1, 1
    ),
    "mc-n2000-pool": McWorkload(
        "mc-n2000-pool", (("S1", 2000, 40, False, True, True),), ("P-BR", "LASSO"), 32, 2, 4
    ),
    "cli-oneshot": CliWorkload("cli-oneshot", 5000, 100, "-1:3:0.02", "-30:30:0.5", 100_000),
}

# Sizes for the benchmark's own smoke tests: same code paths, seconds of work.
_TINY = {
    "mc-grid-p40": dict(reps=2),
    "mc-p1000-serial": dict(cells=(("S1", 100, 200, False, True, True),)),
    "mc-n2000-pool": dict(cells=(("S1", 400, 40, False, True, True),), reps=4),
    "cli-oneshot": dict(rows=300, cols=20, gamma_range="-1:3:1", n_large=20_000),
}

# The fixed check inputs of the CLI workload (small, so the check is cheap).
CHECK_CSV_CELL: Cell = ("S1", 400, 20, False, True, True)
CHECK_SURFACE = dict(variant="fig2", gamma_range="-1:3:0.5", beta_range="-30:30:5", n_large=100_000)
# A surface sample seed on which the scalar calibration fit of the BR
# reference stops with NonConvergence (its gradient tolerance is absolute, so
# it fails more often at larger --n-large: 1 in 30 seeds at 1e5, 3 in 12 at
# 1e6). Every run repeats it, so the defect shows until it is fixed.
PINNED_FAILURE_SEED = 1934987794


def get(name: str, tiny: bool = False):
    w = WORKLOADS[name]
    return replace(w, **_TINY[name]) if tiny else w


def derive_seed(*parts: int) -> int:
    """A 32-bit seed determined by ``parts`` alone."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _spec(cell: Cell, reps: int, seed: int):
    from pbrdr import ScenarioSpec

    scenario, n, p, correlated, or_correct, ps_correct = cell
    return ScenarioSpec(scenario, n, p, correlated, or_correct, ps_correct, reps=reps, seed=seed)


def mc_rounds(w: McWorkload, seed: int, rounds: int = MAX_ROUNDS) -> List[List[dict]]:
    """Cell specs of each round, as ``ScenarioSpec`` field dicts."""
    return [
        [asdict(_spec(cell, w.reps, derive_seed(seed, k, c))) for c, cell in enumerate(w.cells)]
        for k in range(rounds)
    ]


def mc_check_specs(name: str) -> List[dict]:
    """Fixed-seed check cells: the full-size cells of the workload, so that
    smoke-test sizes are checked against the same reference."""
    w = WORKLOADS[name]
    return [asdict(_spec(cell, w.check_reps, derive_seed(CHECK_SEED, c))) for c, cell in enumerate(w.cells)]


def write_csv(path: Path, cell: Cell, seed: int) -> None:
    """Draw one dataset of ``cell`` and write it as ``y,a,x1..xp`` with
    round-trip-exact floats."""
    from pbrdr import draw_dataset
    from pbrdr.simulation import build_model

    spec = _spec(cell, 1, seed)
    data = draw_dataset(build_model(spec), spec.n, spec.p, spec.correlated, np.random.default_rng(seed))
    header = ",".join(["y", "a"] + [f"x{j}" for j in range(1, data.p + 1)])
    table = np.column_stack([data.y, data.a, data.x])
    np.savetxt(path, table, delimiter=",", fmt="%.17g", header=header, comments="")


def cli_csv_cell(w: CliWorkload) -> Cell:
    return ("S1", w.rows, w.cols, False, True, True)
