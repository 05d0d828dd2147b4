"""Experiment harness: convergence tables, the spatial-refinement study,
the Pade data and scalar-sweep diagnostics, all emitted as CSV rows.  The
defaults of every study and the checks on its settings live here.

Conventions baked in here (they reproduce the published tables):

* Convergence order between step-count levels n and 2n is
  log(E_n / E_2n) / log(2), evaluated at n = 8 for the 1D tables and at
  n = 2 refinement units for the 2D tables.
* Each table column "N" means N substeps per dyadic interval for the
  geometric scheme, i.e. (L+1)*N steps in total.  Uniform runs in the same
  table use the same total step budget (L+1)*N, which is how the two
  schemes are compared solve-for-solve.
* The spatial-refinement study reports, per graded mesh, the smallest
  geometric step count whose error drops below a semi-discrete error proxy:
  the mismatch between this mesh's reference solution and a much finer
  graded mesh's solution (flagged as proxy in the output).
"""

from __future__ import annotations

import csv
import logging
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .fem import DATA_CASE_DIM, GridFunction, assemble_1d, assemble_2d_tensor, l2_project, m_norm
from .meshes import (
    build_geometric_mesh,
    build_graded_spatial_mesh,
    build_uniform_mesh,
    experiment_refinement_level,
    refinement_level_for,
)
from .pade import MAX_ORDER, pade_coefficients
from .scalar import fit_loglog_slope, sup_error
from .solvers import CG_RTOL, SOLVERS
from .spectral import (DENSE_EIG_CAP, SpectralBounds, eig_1d, eig_2d_tensor,
                       estimate_spectral_bounds, reference_power)
# run_grm and run_um are both stepping.run: perfbench/tracing.py times
# the runs by wrapping these two names, so it does not see the uniform runs
# of the spatial study, which step as one batch through run_batch
from .stepping import StepperConfig, run_batch, run_grm, run_um

DEFAULT_DELTA_FRACTION = 0.5
log = logging.getLogger("fracstep")
log.addHandler(logging.NullHandler())  # silent unless the caller configures logging


def _require_nonempty(**lists) -> None:
    """Refuse an empty list of cases, exponents, orders or step counts."""
    for name, values in lists.items():
        if not len(values):
            raise ValueError(f"{name} is empty")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment request; field names mirror the CLI flags, and the
    defaults are the published 1D table.

    ``dimension`` (1 or 2) picks the table's operator: the 1D mesh of
    ``round(1 / h)`` cells or the tensor grid of ``n_per_side``, with at most
    ``DENSE_EIG_CAP`` dofs per axis in 2D, where the eigenbasis holds dense
    half blocks and CG the n x n modes of the 1D factor.
    Each data case must be one of ``fem.DATA_CASE_DIM`` of that dimension.  ``solver``
    is "direct" or "cg"; "cg" serves the tensor grid only, since 1D studies
    always solve directly.
    """

    dimension: int = 1
    data_cases: tuple = ("a", "b", "c", "d")
    alphas: tuple = (0.1, 0.5, 0.9)
    ms: tuple = (1, 2)
    scheme: str = "both"  # grm | um | both
    Ns: tuple = (8, 16)
    h: float = 1e-3
    n_per_side: int = 100
    L_policy: str = "experiment"  # theorem | experiment | fixed
    L_fixed: int | None = None
    delta: float | None = None
    delta_fraction: float = DEFAULT_DELTA_FRACTION
    solver: str = "direct"
    # recorded in the CSV rows; no result depends on it
    seed: int = 0
    um_steps: int = 100_000

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.solver == "cg" and self.dimension == 1:
            raise ValueError("the cg solver needs a 2D (tensor) operator; "
                             "1D solves are always direct")
        # NaN fails every comparison; round(1 / h) >= 2 cells needs 1 / h >= 1.5,
        # and a subnormal h overflows 1 / h
        if self.dimension == 1 and not (0 < self.h and 1.5 <= 1 / self.h < math.inf):
            raise ValueError(f"h = {self.h} must give a finite count of at least 2 cells "
                             "(0 < h <= 2/3)")
        # the cap and the data cases are refused before anything is assembled
        if self.dimension == 2 and self.cells - 1 > DENSE_EIG_CAP:
            raise ValueError(f"{self.cells - 1} dofs per axis, over the cap {DENSE_EIG_CAP}")
        for tag in self.data_cases:
            if tag not in DATA_CASE_DIM:
                raise ValueError(f"unknown data case {tag!r}")
            if DATA_CASE_DIM[tag] != self.dimension:
                raise ValueError(f"data case {tag!r} is {DATA_CASE_DIM[tag]}D, "
                                 f"the table is {self.dimension}D")
        _require_nonempty(data_cases=self.data_cases, alphas=self.alphas, ms=self.ms,
                          Ns=self.Ns)
        if self.scheme not in ("grm", "um", "both"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if list(self.Ns) != sorted(set(self.Ns)):
            raise ValueError("Ns must be strictly increasing")
        # refused with the messages of meshes, pade and stepping, before assembly
        if self.Ns[0] < 1:
            raise ValueError(f"N must be >= 1, got {self.Ns[0]}")
        for m in self.ms:
            if not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_ORDER:
                raise ValueError(f"order m must be an integer in [1, {MAX_ORDER}], got {m!r}")
        if self.delta is not None and not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.um_steps < 1:
            raise ValueError(f"um_steps: N must be >= 1, got {self.um_steps}")
        for a in self.alphas:
            if not 0 < a < 1:
                raise ValueError(f"alpha {a} outside (0, 1)")
        if self.L_policy not in ("theorem", "experiment", "fixed"):
            raise ValueError(f"unknown L policy {self.L_policy!r}")
        if self.L_fixed is not None and not self.L_fixed >= 1:
            raise ValueError(f"L = {self.L_fixed} must be >= 1")
        if self.L_policy == "fixed" and self.L_fixed is None:
            raise ValueError("L_policy 'fixed' needs L_fixed")
        # delta = fraction * lambda_min_est must stay below the spectrum
        if not 0 < self.delta_fraction < 1:
            raise ValueError(f"delta_fraction {self.delta_fraction} outside (0, 1)")

    @property
    def cells(self) -> int:
        """Cells per side of the table's mesh."""
        return int(round(1.0 / self.h)) if self.dimension == 1 else self.n_per_side


# The other published studies, where they differ from ExperimentSpec's
# defaults: the 2D table of cases e and f at m = 2 with L fixed at 14, and
# the spatial study on the graded meshes N = 4, 8, 16.
TABLE_2D = {"dimension": 2, "data_cases": ("e", "f"), "alphas": (0.1, 0.3, 0.5, 0.7, 0.9),
            "ms": (2,), "Ns": (1, 2, 4, 8, 16, 32), "L_policy": "fixed", "L_fixed": 14}
SPATIAL_REFINE = {"Ns": (4, 8, 16)}
_REFERENCE_FACTOR = 4  # the spatial study's fine mesh: this many times its largest N
_REFERENCE_NT = 32  # steps per interval of its GRM references
_NT_CAP = 4096  # the largest step count per interval its threshold search tries


def convergence_order(e_n: float, e_2n: float) -> float:
    """log2 of the error drop when the step count doubles."""
    if e_n <= 0 or e_2n <= 0:
        raise ValueError("convergence_order needs positive errors")
    return math.log(e_n / e_2n) / math.log(2.0)


def _resolve_L(spec: ExperimentSpec, bounds: SpectralBounds, h_min: float) -> int:
    if spec.L_policy == "fixed":
        return int(spec.L_fixed)
    if spec.L_policy == "experiment":
        return experiment_refinement_level(h_min)
    return refinement_level_for(bounds.lambda_max_est)


def _resolve_delta(spec: ExperimentSpec, bounds: SpectralBounds) -> float:
    """``spec.delta`` if given, else ``delta_fraction * lambda_min_est``.

    A given shift must lie below ``lambda_min_est``: at or above the
    spectrum the steps stop being contractive.
    """
    if spec.delta is None:
        return spec.delta_fraction * bounds.lambda_min_est
    delta = float(spec.delta)
    if not delta < bounds.lambda_min_est:
        raise ValueError(f"delta {delta} not below lambda_min_est "
                         f"{bounds.lambda_min_est:.6g} of the operator")
    return delta


def _provenance(spec: ExperimentSpec, delta: float) -> dict:
    return {
        "delta": delta,
        "solver": spec.solver,
        "solver_rtol": CG_RTOL,
        "seed": spec.seed,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def write_csv(rows: list[dict], path_or_file) -> None:
    """Write rows with a header naming every column; floats at 12 digits."""
    if not rows:
        return
    if isinstance(path_or_file, (str, bytes, os.PathLike)):
        with open(path_or_file, "w", newline="") as fh:
            return write_csv(rows, fh)
    fields = list(rows[0].keys())
    writer = csv.writer(path_or_file, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([_fmt(row[f]) for f in fields] for row in rows)


# ---------------------------------------------------------------------------
# 1D / 2D convergence tables
# ---------------------------------------------------------------------------

def run_table(spec: ExperimentSpec) -> list[dict]:
    """Relative-error/order table on the uniform 1D mesh of ``spec.cells``
    cells, or in 2D on the tensor grid of that many cells per side.

    One block run per (alpha, m, scheme, N) steps all data cases, since they
    share every shifted system; a stable sort by case then gives the rows
    case by case.  The spectral bounds behind L and delta are estimated
    once per table, and the mesh size behind L is 1 / ``spec.cells``; both
    are resolved (and a bad delta refused) before the eigenbasis is built,
    and ``log`` gets one DEBUG record of the setup seconds.
    """
    marks = [time.perf_counter()]
    if spec.dimension == 1:
        op = assemble_1d(np.linspace(0.0, 1.0, spec.cells + 1))
    else:
        op = assemble_2d_tensor(spec.cells)
    fs = [l2_project(op, tag) for tag in spec.data_cases]
    marks.append(time.perf_counter())
    bounds = estimate_spectral_bounds(op)
    L = _resolve_L(spec, bounds, 1.0 / spec.cells)
    delta = _resolve_delta(spec, bounds)
    marks.append(time.perf_counter())
    decomp = eig_2d_tensor(op) if op.dim == 2 else eig_1d(op)
    marks.append(time.perf_counter())
    # one analysis per data case gives its references at every alpha
    per_case = [reference_power(decomp, f, spec.alphas) for f in fs]
    references = {alpha: [refs[k] for refs in per_case] for k, alpha in enumerate(spec.alphas)}
    seconds = np.diff([*marks, time.perf_counter()]).tolist()
    info = {"n_dofs": op.n_dofs,
            "setup_s": dict(zip(("assembly", "bounds", "eigenbasis", "references"), seconds))}
    log.debug("run_table setup on %(n_dofs)d dofs, in seconds: %(setup_s)s", info, extra=info)
    prov = _provenance(spec, delta)
    schemes = ("grm", "um") if spec.scheme == "both" else (spec.scheme,)
    rows = []  # (position of the case in spec.data_cases, row)
    for alpha in spec.alphas:
        refs = references[alpha]
        ref_norms = [m_norm(op, ref) for ref in refs]
        for m in spec.ms:
            for scheme in schemes:
                errors = {}  # (case position, N) -> relative error
                for N in spec.Ns:
                    if scheme == "grm":
                        mesh = build_geometric_mesh(None, N, L_override=L)
                        runner = run_grm
                    else:
                        mesh = build_uniform_mesh((L + 1) * N)
                        runner = run_um
                    cfg = StepperConfig(alpha=alpha, m=m, delta=delta,
                                        mesh=mesh, solver=spec.solver)
                    outs, stats = runner(fs, op, cfg, return_stats=True)
                    for i, (out, ref, ref_norm, st) in enumerate(zip(outs, refs, ref_norms, stats)):
                        diff = GridFunction(out.coeffs - ref.coeffs, op)
                        err = errors[i, N] = m_norm(op, diff) / ref_norm
                        prev = errors.get((i, N // 2))
                        rows.append((i, {
                            "dimension": spec.dimension,
                            "scheme": scheme.upper(),
                            "case": spec.data_cases[i],
                            "alpha": alpha,
                            "m": m,
                            "L": L,
                            "N": N,
                            "steps": st.steps,
                            # one shifted solve per pole per step
                            "solves": st.solves,
                            "rel_error": err,
                            "order_vs_prev": (float("nan") if prev is None
                                              else convergence_order(prev, err)),
                            "max_step_growth": st.max_growth,
                            **prov,
                        }))
    rows.sort(key=lambda pair: pair[0])
    return [row for _, row in rows]


# the 1D and 2D names of ``run_table``; the spec's dimension picks the operator
run_table_1d = run_table_2d = run_table


# ---------------------------------------------------------------------------
# spatial refinement study
# ---------------------------------------------------------------------------

def _graded_setup(spec: ExperimentSpec, N: int):
    """Operator, L, delta and data case d on the graded mesh of parameter N;
    L and delta are resolved from ``spec`` as in the tables."""
    nodes = build_graded_spatial_mesh(N)
    op = assemble_1d(nodes)
    bounds = estimate_spectral_bounds(op)
    L = _resolve_L(spec, bounds, nodes[1] - nodes[0])
    return op, L, _resolve_delta(spec, bounds), l2_project(op, "d")


def _grm_at(op, f, alpha, m, delta, L, Nt, return_stats=False):
    mesh = build_geometric_mesh(None, Nt, L_override=L)
    cfg = StepperConfig(alpha=alpha, m=m, delta=delta, mesh=mesh)
    return run_grm(f, op, cfg, return_stats=return_stats)


def _smallest_passing_Nt(op, f, alpha, m, delta, L, u_ref, threshold):
    """Smallest per-interval count whose geometric run beats the threshold.

    Returns (Nt, error, stats) of that run; each count is run at most once.
    """
    runs = {}

    def error_at(Nt):
        if Nt not in runs:
            out, stats = _grm_at(op, f, alpha, m, delta, L, Nt, return_stats=True)
            runs[Nt] = (m_norm(op, GridFunction(out.coeffs - u_ref.coeffs, op)), stats)
        return runs[Nt][0]

    lo, hi = 0, 1
    while error_at(hi) > threshold:
        lo, hi = hi, hi * 2
        if hi > _NT_CAP:
            raise RuntimeError(f"no Nt <= {_NT_CAP} reaches threshold {threshold:.3e}")
    # invariant: error(hi) <= threshold < error(lo) (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if error_at(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return (hi, *runs[hi])


def run_spatial_refinement(spec: ExperimentSpec, alpha: float = 0.5) -> list[dict]:
    """Graded-mesh study: per N, the step count needed to reach the
    semi-discrete error proxy, plus the uniform scheme's error at a large
    fixed step count (default 1e5).  Each mesh takes L and delta from the
    spec as the tables do.  The uniform runs of every (N, m) step last, as
    one batch (``run_batch``).  A graded N < 2 or a bad ``alpha`` is refused first."""
    Ns = spec.Ns
    if Ns[0] < 2:
        raise ValueError(f"N must be >= 2, got {Ns[0]}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    # fine-mesh solution used as the stand-in for the continuum limit
    N_fine = max(Ns) * _REFERENCE_FACTOR
    fop, fL, fdelta, ff = _graded_setup(spec, N_fine)
    u_fine = _grm_at(fop, ff, alpha, 2, fdelta, fL, _REFERENCE_NT)
    xp = np.concatenate([[0.0], fop.dof_coords, [1.0]])
    fp = np.concatenate([[0.0], u_fine.coeffs, [0.0]])

    rows, um_runs, um_rows = [], [], []  # um_rows: the row, reference and m of each uniform run
    um_mesh = build_uniform_mesh(spec.um_steps)
    for N in Ns:
        op, L, delta, f = _graded_setup(spec, N)
        nx = len(op.nodes) - 1
        u_ref = _grm_at(op, f, alpha, 2, delta, L, _REFERENCE_NT)
        fine_here = GridFunction(np.interp(op.dof_coords, xp, fp), op)
        threshold = m_norm(op, GridFunction(fine_here.coeffs - u_ref.coeffs, op))
        row = {
            "N": N, "nx": nx, "L": L,
            "e_semi_proxy": threshold,
            "threshold_kind": "proxy_fine_mesh",
        }
        growth = 0.0
        for m in spec.ms:
            Nt, err, stats = _smallest_passing_Nt(op, f, alpha, m, delta, L, u_ref, threshold)
            growth = max(growth, stats.max_growth)
            row[f"NS_m{m}"] = (L + 1) * Nt
            row[f"E_GRM_m{m}"] = err
            row[f"E_UM_m{m}"] = None  # from the batch below
            um_runs.append((f, op, StepperConfig(alpha=alpha, m=m, delta=delta, mesh=um_mesh)))
            um_rows.append((row, u_ref, m))
        row["max_step_growth"] = growth
        row.update(_provenance(spec, delta))
        rows.append(row)
    for (row, u_ref, m), (u_um, stats) in zip(um_rows, run_batch(um_runs, return_stats=True)):
        row["max_step_growth"] = max(row["max_step_growth"], stats.max_growth)
        row[f"E_UM_m{m}"] = m_norm(u_ref.op, GridFunction(u_um.coeffs - u_ref.coeffs, u_ref.op))
    return rows


# ---------------------------------------------------------------------------
# Pade data and scalar diagnostics
# ---------------------------------------------------------------------------

def run_pade_info(ms=(1, 2), alphas=(0.1, 0.3, 0.5, 0.7, 0.9)) -> list[dict]:
    """Coefficients, poles and residues of each approximant, order by order."""
    _require_nonempty(ms=ms, alphas=alphas)
    rows = []
    for m in ms:
        for alpha in alphas:
            r = pade_coefficients(m, alpha)
            rows.append({
                "m": m, "alpha": alpha,
                "limit_at_infinity": r.limit_at_infinity, "rho_m": r.rho_m,
                **{key: ";".join(f"{x:.12e}" for x in getattr(r, key))
                   for key in ("poles", "residues", "p_coeffs", "q_coeffs")},
            })
    return rows


def run_scalar_diagnostics(alphas=(0.1, 0.5, 0.9), ms=(1, 2), Ns=(8, 16, 32, 64),
                           lambda_lo=1.0, lambda_hi=1e6, delta=0.5, points=1000) -> list[dict]:
    """Sup-error sweeps over a lambda grid with fitted convergence slopes.

    The grid is ``points >= 2`` log-spaced values from ``lambda_lo`` up to
    ``lambda_hi``, which is also the spectral top the GRM meshes take their
    depth L from.
    """
    _require_nonempty(alphas=alphas, ms=ms, Ns=Ns)
    # NaN fails every comparison, so it is refused too
    if not 0 < lambda_lo < lambda_hi < math.inf:
        raise ValueError(f"lambda_lo = {lambda_lo} and lambda_hi = {lambda_hi} must satisfy "
                         "0 < lambda_lo < lambda_hi < inf, and every lambda must be >= delta")
    if not points >= 2:
        raise ValueError(f"points must be >= 2, got {points}")
    lams = np.logspace(math.log10(lambda_lo), math.log10(lambda_hi), points)
    lam_max = float(lambda_hi)
    rows = []
    for m in ms:
        for alpha in alphas:
            for scheme in ("grm", "um"):
                sups = []
                for N in Ns:
                    if scheme == "grm":
                        cfg = StepperConfig.grm(alpha, delta, m, lam_max, N)
                    else:
                        cfg = StepperConfig.um(alpha, delta, m, N)
                    sups.append(sup_error(lams, cfg))
                slope = fit_loglog_slope(Ns, sups)
                for N, sup in zip(Ns, sups):
                    rows.append({
                        "scheme": scheme.upper(), "m": m, "alpha": alpha,
                        "N": N, "sup_error": sup, "fitted_slope": slope,
                        "delta": delta, "lambda_lo": lambda_lo,
                        "lambda_hi": lambda_hi, "points": points,
                    })
    return rows
