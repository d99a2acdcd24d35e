"""Correctness checks: invariants and the reference comparison rules."""

import math

import checks

NAN = math.nan


def table(rows, mu0=1.0):
    return {"mu0": mu0, "rows": rows}


REF = table({"P-BR": [0.01, 0.1, 0.05, 0.09, 0.1, 0.95, 1], "LASSO": [0.02, 0.1, 0.05, 0.09, 0.1, 0.9, 0]})


def test_matching_table_within_tolerance():
    now = table({"P-BR": [0.01 + 1e-9, 0.1, 0.05, 0.09, 0.1, 0.95, 1], "LASSO": REF["rows"]["LASSO"]})
    assert checks.compare_table(now, REF) == []
    assert checks.table_problems(now, ["P-BR", "LASSO"], reps=4) == []


def test_replication_that_now_succeeds_is_not_a_mismatch():
    now = table({"P-BR": [0.5, 0.6, 0.5, 0.1, 0.1, 0.5, 0], "LASSO": REF["rows"]["LASSO"]})
    assert checks.compare_table(now, REF) == []


def test_more_failures_or_drift_is_a_mismatch():
    now = table({"P-BR": REF["rows"]["P-BR"], "LASSO": [0.02, 0.1, 0.05, 0.09, 0.1, 0.9, 1]})
    assert checks.compare_table(now, REF)
    now = table({"P-BR": REF["rows"]["P-BR"], "LASSO": [0.0201, 0.1, 0.05, 0.09, 0.1, 0.9, 0]})
    assert checks.compare_table(now, REF)


def test_table_invariants():
    assert checks.table_problems(table({"P-BR": [NAN] * 6 + [3]}), ["P-BR"], reps=3) == []
    assert checks.table_problems(table({"P-BR": [NAN] * 6 + [2]}), ["P-BR"], reps=3)
    assert checks.table_problems(table({"P-BR": [0.5, 0.1, 0.1, 0.1, 0.1, 0.5, 0]}), ["P-BR"], reps=3)
    assert checks.table_problems(table({"P-BR": [0.0, 0.1, 0.1, 0.1, 0.1, 1.5, 0]}), ["P-BR"], reps=3)
    assert checks.table_problems(table({"LASSO": REF["rows"]["LASSO"]}), ["P-BR"], reps=3)


def test_intervals_must_bracket_finite_estimates():
    assert checks.suite_problems({"P-BR": ["ok", 1.0, 0.1, 0.8, 1.2], "MLE": ["error", "RankDeficient"]}) == []
    assert checks.suite_problems({"P-BR": ["ok", 1.0, 0.1, 1.1, 1.2]})
    assert checks.suite_problems({"P-BR": ["ok", NAN, 0.1, 0.8, 1.2]})
    assert checks.compare_suite({"P-BR": ["error", "UnboundedObjective"]}, {"P-BR": ["ok", 1.0, 0.1, 0.8, 1.2]})
    assert checks.compare_suite({"P-BR": ["ok", 1.0, 0.1, 0.8, 1.2]}, {"P-BR": ["error", "UnboundedObjective"]}) == []


def test_surface_rows_and_references():
    cells = [(0.0, b, 0.1 * b) for b in (1.0, 2.0)] + [(1.0, b, NAN) for b in (1.0, 2.0)]
    surface = {"cells": cells, "references": {"BR": -1.0}, "br_point": [0.1, 0.2]}
    assert checks.surface_problems(surface, 2, 2) == []
    assert checks.compare_surface(surface, surface) == []
    broken = dict(surface, cells=cells[:3] + [(1.0, 2.0, 0.3)])
    assert checks.surface_problems(broken, 2, 2)
    assert checks.compare_surface(broken, surface)


def test_recorded_exit_or_success():
    assert checks.same_exit(3, 3) == []
    assert checks.same_exit(0, 3) == []  # a fixed defect is not a mismatch
    assert checks.same_exit(2, 3)
    assert checks.same_exit(3, 0)
