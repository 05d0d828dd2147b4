"""The four benchmark workloads and what each one is expected to show.

Each workload is one fixed ``fracstep`` command line; why each exists is
recorded in ``BENCHMARK.json`` and ``README.md``.  The benchmark adds
``--seed <n>`` (the ARPACK start vector behind the shift ``delta``) and
``--out <csv>``; nothing else about the inputs changes between runs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    argv: tuple
    kind: str  # "table" (table-1d / table-2d CSV) or "refine" (spatial-refine CSV)


UM_STEPS_REFINE = 5000

WORKLOADS = {
    "table1d": Workload(("table-1d",), "table"),
    "refine1d": Workload(
        ("spatial-refine", "--Ns", "4,8,16", "--um-steps", str(UM_STEPS_REFINE)), "refine"),
    "table2d": Workload(("table-2d", "--n-per-side", "100", "--Ns", "1,2,4"), "table"),
    "table2d_cg": Workload(
        ("table-2d", "--n-per-side", "50", "--cases", "e,f", "--alphas", "0.5",
         "--Ns", "1,2,4", "--solver", "cg"), "table"),
}


def argv_for(name: str, seed: int, out: str) -> list[str]:
    return [*WORKLOADS[name].argv, "--seed", str(seed), "--out", out]


def delivered_steps(name: str, rows: list[dict]) -> int:
    """Time steps of the solutions the command delivers, read from its CSV.

    Tables: the ``steps`` column.  Spatial refinement: the winning GRM run
    per order (``NS_m*``) plus one uniform run of ``--um-steps`` per order.
    Counting from the output keeps the figure fixed when a change batches or
    dedupes the runs that produce it.
    """
    if WORKLOADS[name].kind == "table":
        return sum(int(r["steps"]) for r in rows)
    total = 0
    for r in rows:
        ns = [int(v) for k, v in r.items() if k.startswith("NS_m")]
        total += sum(ns) + UM_STEPS_REFINE * len(ns)
    return total


# Which per-layer metric should move which end-to-end metric, on which
# workload, and where it should stay put.  Later changes cite these names.
PREDICTIONS = [
    {"layer": ["experiments.runs", "experiments.steps"],
     "moves": ["wall_s"], "on": ["table1d", "refine1d"],
     "unchanged_on": ["table2d"],
     "mechanism": "block right-hand sides (table1d), bisection dedupe (refine1d)"},
    {"layer": ["stepping.run_s", "stepping.self_s", "stepping.step_us"],
     "moves": ["steps_per_s"], "on": ["table2d", "refine1d"],
     "unchanged_on": [],
     "mechanism": "sparse applies inside stepping (table2d), per-step overhead (refine1d)"},
    {"layer": ["stepping.bounds_s", "stepping.bounds.calls"],
     "moves": ["setup_s"], "on": ["table1d", "refine1d"],
     "unchanged_on": [],
     "mechanism": "spectral bracket without ARPACK"},
    {"layer": ["solvers.shifted_solve.calls", "solvers.shifted_solve_s",
               "solvers.shifted_solve_us.p50", "solvers.shifted_solve_us.p99"],
     "moves": ["wall_s", "steps_per_s"],
     "on": ["table1d", "refine1d", "table2d", "table2d_cg"], "unchanged_on": [],
     "mechanism": "whichever shifted-solve backend the workload uses"},
    {"layer": ["kernels.tridiag_solve.calls", "kernels.tridiag_solve_s",
               "kernels.tridiag_solve_us.p50", "kernels.tridiag_solve_us.p99",
               "kernels.tridiag_matvec.calls", "kernels.tridiag_matvec_s"],
     "moves": ["wall_s", "steps_per_s"], "on": ["refine1d", "table1d"],
     "unchanged_on": ["table2d", "table2d_cg"],
     "mechanism": "direct LAPACK 1D kernels"},
    {"layer": ["solvers.tensor_solve.calls", "solvers.tensor_solve_s",
               "solvers.tensor_solve_us.p50", "solvers.tensor_solve_us.p99",
               "solvers.tensor_solve.gflops_computed"],
     "moves": ["wall_s"], "on": ["table2d"],
     "unchanged_on": ["table1d", "refine1d"],
     "mechanism": "tensor fast-diagonalization solver"},
    {"layer": ["solvers.cg_solve.calls", "solvers.cg_solve_s", "solvers.cg_iters",
               "solvers.cg_iters_per_solve.p50", "solvers.cg_iters_per_solve.max",
               "solvers.cg_failures"],
     "moves": ["wall_s"], "on": ["table2d_cg"],
     "unchanged_on": ["table1d", "refine1d", "table2d"],
     "mechanism": "warm-start scoping and preconditioning"},
    {"layer": ["spectral.eig_s", "spectral.reference_s"],
     "moves": ["setup_s"], "on": ["table1d"],
     "unchanged_on": ["refine1d"],
     "mechanism": "dense reference eigensolve; near zero elsewhere"},
    {"layer": ["pade.coeffs.calls", "pade.coeffs_s", "fem.assemble_s", "fem.project_s",
               "fem.m_norm.calls"],
     "moves": ["setup_s"], "on": ["table1d", "refine1d", "table2d", "table2d_cg"],
     "unchanged_on": [],
     "mechanism": "one-off construction inside a run"},
]
