"""Output checks for one benchmark sample.

Every row of the CSV a sample writes is compared with the same row written
by the seed commit (``reference/<workload>.csv``, seed 0):

* the identifying columns match;
* every error column is finite and at most ``ERR_RTOL`` above the
  reference (plus ``ERR_ATOL`` for errors at round-off level);
* the worst per-step M-norm growth is at most 1 + 1e-9.

On top of that, the cells that ``tests/test_acceptance.py`` gates are gated
here with the same tolerances, where the workload reproduces them.  Each
check is one attempt; a sample that exits non-zero fails every check the
reference implies.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import WORKLOADS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ERR_RTOL = 0.01
ERR_ATOL = 1e-12
GROWTH_TOL = 1e-9

TABLE_KEYS = ("dimension", "scheme", "case", "alpha", "m", "L", "N", "steps", "solves")
REFINE_KEYS = ("N", "nx", "L")

# tests/test_acceptance.py: criteria 2, 3 (1D), 4 (2D) and 7 (refinement)
UM_CELLS_1D = [(1, "c", 0.1, 0.85), (1, "d", 0.5, 0.77), (1, "b", 0.5, 1.71), (2, "c", 0.5, 1.25)]
PAPER_NS = {4: {1: 92, 2: 23}, 8: {1: 232, 2: 29}, 16: {1: 560, 2: 70}}
PAPER_NX = {4: 72, 8: 176, 16: 416}


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def reference_rows(workload: str) -> list[dict]:
    return read_csv(REFERENCE_DIR / f"{workload}.csv")


def error_columns(workload: str, row: dict) -> list[str]:
    if WORKLOADS[workload].kind == "table":
        return ["rel_error"]
    return [k for k in row if k.startswith(("E_GRM_m", "E_UM_m"))]


def checks_per_row(workload: str, ref_row: dict) -> int:
    return 2 + len(error_columns(workload, ref_row))


def _order(rows, scheme, case, alpha, m, N):
    for r in rows:
        if (r["scheme"] == scheme and r["case"] == case and int(r["m"]) == m
                and abs(float(r["alpha"]) - alpha) < 1e-12 and int(r["N"]) == N):
            return float(r["order_vs_prev"])
    return None


def _gates(workload: str, rows: list[dict]) -> list[bool]:
    """Acceptance-test cells this workload reproduces, one bool per cell."""
    if workload == "table1d":
        out = []
        for case in "abcd":
            for alpha in (0.1, 0.5, 0.9):
                o1 = _order(rows, "GRM", case, alpha, 1, 16)
                o2 = _order(rows, "GRM", case, alpha, 2, 16)
                out.append(o1 is not None and abs(o1 - 2.0) <= 0.15)
                out.append(o2 is not None and o2 >= 3.5)
        for m, case, alpha, target in UM_CELLS_1D:
            o = _order(rows, "UM", case, alpha, m, 16)
            out.append(o is not None and abs(o - target) <= 0.15)
        o = _order(rows, "UM", "a", 0.1, 2, 16)
        out.append(o is not None and 2.0 < o < 3.5)
        return out
    if workload in ("table2d", "table2d_cg"):
        out = []
        for case, alpha in sorted({(r["case"], float(r["alpha"])) for r in rows}):
            o = _order(rows, "GRM", case, alpha, 2, 4)
            out.append(o is not None and abs(o - 3.87) <= 0.2)
        for case, target in (("e", 1.72), ("f", 0.97)):
            o = _order(rows, "UM", case, 0.5, 2, 4)
            out.append(o is not None and abs(o - target) <= 0.15)
        err_15 = [float(r["rel_error"]) for r in rows
                  if r["scheme"] == "GRM" and r["case"] == "e"
                  and abs(float(r["alpha"]) - 0.5) < 1e-12 and int(r["N"]) == 1]
        out.append(len(err_15) == 1 and 7.29e-6 / 3 <= err_15[0] <= 7.29e-6 * 3)
        return out
    out = []
    for r in rows:
        N = int(r["N"])
        out.append(abs(int(r["nx"]) - PAPER_NX[N]) <= 2)
        for m in (1, 2):
            out.append(int(r[f"NS_m{m}"]) <= 2 * PAPER_NS[N][m])
        out.append(int(r["NS_m2"]) < int(r["NS_m1"]))
    return out


def gate_count(workload: str) -> int:
    return len(_gates(workload, reference_rows(workload)))


def check(workload: str, rows: list[dict] | None) -> tuple[int, int, float]:
    """(attempted, failed, worst error ratio) of one sample; rows None = run failed."""
    ref = reference_rows(workload)
    attempted = sum(checks_per_row(workload, r) for r in ref) + gate_count(workload)
    if rows is None:
        return attempted, attempted, math.inf
    try:
        passed, worst = _passed(workload, ref, rows)
    except (KeyError, ValueError, TypeError, ZeroDivisionError):  # malformed CSV
        return attempted, attempted, math.inf
    passed = min(passed, attempted if len(rows) == len(ref) else attempted - 1)
    return attempted, attempted - passed, worst


def _passed(workload: str, ref: list[dict], rows: list[dict]) -> tuple[int, float]:
    keys = TABLE_KEYS if WORKLOADS[workload].kind == "table" else REFINE_KEYS
    passed = 0
    worst = 0.0
    for ref_row, row in zip(ref, rows):
        passed += all(row.get(k) == ref_row[k] for k in keys)
        passed += float(row["max_step_growth"]) <= 1.0 + GROWTH_TOL
        for col in error_columns(workload, ref_row):
            err, base = float(row[col]), float(ref_row[col])
            ratio = err / base
            worst = max(worst, ratio if math.isfinite(ratio) else math.inf)
            passed += math.isfinite(err) and err <= base * (1.0 + ERR_RTOL) + ERR_ATOL
    passed += sum(_gates(workload, rows))
    return passed, worst
