"""Experiment harness: convergence tables, the spatial-refinement study,
the Pade data and scalar-sweep diagnostics, all emitted as CSV rows.  The
defaults of every study and its allowed schemes and L policies live here;
every other rule on a setting is one function of the module that owns it.

Conventions baked in here (they reproduce the published tables):

* Convergence order between step-count levels n and 2n is
  log(E_n / E_2n) / log(2), evaluated at n = 8 for the 1D tables and at
  n = 2 refinement units for the 2D tables.  A row whose table has no
  level N / 2 (an odd N, or a half not asked for) has order NaN.
* Each table column "N" means N substeps per dyadic interval for the
  geometric scheme, i.e. (L+1)*N steps in total.  Uniform runs in the same
  table use the same total step budget (L+1)*N, which is how the two
  schemes are compared solve-for-solve.
* The spatial-refinement study reports, per graded mesh, the smallest
  geometric step count whose error drops below a semi-discrete error proxy:
  the mismatch between this mesh's reference solution and a much finer
  graded mesh's solution (flagged as proxy in the output).
* Two studies step part of their runs in a forked child (``_forked``),
  once every setup is done.  A table splits its runs into two halves of
  near-equal cost, and the child steps and scores one half while this
  process does the other.  The spatial study's uniform runs step as one
  batch (``run_batch``) in the child, which sends back each run's grid
  function and ``RunStats``, while this process does the references and
  the geometric searches.  With one usable CPU, or without ``os.fork``, the
  child's share runs inline after the rest; either way the rows have the
  same bits.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import logging
import math
import os
import pickle
import signal
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .fem import (GridFunction, assemble_1d, assemble_2d_tensor, l2_project, m_norm,
                  require_data_case)
from .meshes import (build_graded_spatial_mesh, build_uniform_mesh, experiment_refinement_level,
                     is_integer, refinement_level_for, require_depth, require_steps)
from .pade import pade_coefficients, require_order_and_exponent
from .scalar import fit_loglog_slope, sup_error
from .solvers import CG_RTOL, require_solver
from .spectral import (DENSE_EIG_CAP, eig_1d, eig_2d_tensor,
                       estimate_spectral_bounds, reference_power)
# run_grm and run_um are both stepping.run: perfbench/tracing.py times
# the runs by wrapping these two names.  No hook of this process records a
# call made in a forked child: neither the half of a table's runs that
# steps there (through these same names) nor the uniform runs of the
# spatial study, which step there as one batch through run_batch
from .stepping import StepperConfig, require_shift, run_batch, run_grm, run_um

DEFAULT_DELTA_FRACTION = 0.5
SCHEMES = ("grm", "um", "both")
L_POLICIES = ("theorem", "experiment", "fixed")
log = logging.getLogger("fracstep")
log.addHandler(logging.NullHandler())  # silent unless the caller configures logging


def _require_lists(**lists) -> None:
    """Refuse a list of cases, exponents, orders or step counts that is
    empty or repeats an entry, and step counts ``Ns`` that do not increase."""
    for name, values in lists.items():
        if not len(values):
            raise ValueError(f"{name} is empty")
        if name == "Ns" and list(values) != sorted(set(values)):
            raise ValueError("Ns must be strictly increasing")
        if len(set(values)) < len(values):
            raise ValueError(f"{name} has a repeated entry: {tuple(values)}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment request; field names mirror the CLI flags, and the
    defaults are the published 1D table.

    ``dimension`` (1 or 2) picks the table's operator: the 1D mesh of
    ``round(1 / h)`` cells or the tensor grid of ``n_per_side``, with at most
    ``DENSE_EIG_CAP`` dofs per axis in 2D, where the eigenbasis holds dense
    half blocks and CG the n x n modes of the 1D factor.  The settings
    another module owns are refused here, before anything is assembled, by
    its rule: ``fem.require_data_case`` (``data_cases``),
    ``meshes.require_steps`` (``Ns``, ``um_steps``, ``n_per_side``) and
    ``require_depth`` (``L_fixed``),
    ``pade.require_order_and_exponent`` (``ms``, ``alphas``),
    ``stepping.require_shift`` (``delta``) and ``solvers.require_solver``
    (``solver``); ``SCHEMES`` and ``L_POLICIES`` are this module's.
    """

    dimension: int = 1
    data_cases: tuple = ("a", "b", "c", "d")
    alphas: tuple = (0.1, 0.5, 0.9)
    ms: tuple = (1, 2)
    scheme: str = "both"
    Ns: tuple = (8, 16)
    h: float = 1e-3
    n_per_side: int = 100
    L_policy: str = "experiment"
    L_fixed: int | None = None
    delta: float | None = None
    delta_fraction: float = DEFAULT_DELTA_FRACTION
    solver: str = "direct"
    # recorded in the CSV rows; no result depends on it
    seed: int = 0
    um_steps: int = 100_000

    def __post_init__(self):
        if not is_integer(self.dimension) or self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        require_solver(self.solver, self.dimension)
        # NaN fails every comparison; round(1 / h) >= 2 cells needs 1 / h >= 1.5,
        # and a subnormal h overflows 1 / h
        if self.dimension == 1 and not (0 < self.h and 1.5 <= 1 / self.h < math.inf):
            raise ValueError(f"h = {self.h} must give a finite count of at least 2 cells "
                             "(0 < h <= 2/3)")
        if self.dimension == 2:
            require_steps(self.n_per_side, 3, "n_per_side")
            if self.cells - 1 > DENSE_EIG_CAP:
                raise ValueError(f"{self.cells - 1} dofs per axis, over the cap {DENSE_EIG_CAP}")
        for tag in self.data_cases:
            require_data_case(tag, self.dimension, "table")
        _require_lists(data_cases=self.data_cases, alphas=self.alphas, ms=self.ms,
                       Ns=self.Ns)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for N in self.Ns:
            require_steps(N)
        for m, a in itertools.product(self.ms, self.alphas):
            require_order_and_exponent(m, a)
        if self.delta is not None:
            require_shift(self.delta)
        require_steps(self.um_steps, name="um_steps: N")
        if self.L_policy not in L_POLICIES:
            raise ValueError(f"unknown L policy {self.L_policy!r}")
        if self.L_fixed is not None:
            require_depth(self.L_fixed)
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


def _depth_and_shift(spec: ExperimentSpec, op, h_min: float) -> tuple[int, float]:
    """Depth L (by ``spec.L_policy``; ``h_min`` is the smallest cell) and shift
    delta of the runs on ``op``, from one estimate of its spectral bracket.
    delta is ``spec.delta`` if given, else ``delta_fraction * lambda_min_est``;
    a given one must lie below ``lambda_min_est``, or the steps stop contracting."""
    bounds = estimate_spectral_bounds(op)
    if spec.L_policy == "fixed":
        L = spec.L_fixed
    elif spec.L_policy == "experiment":
        L = experiment_refinement_level(h_min)
    else:
        L = refinement_level_for(bounds.lambda_max_est)
    if spec.delta is None:
        return L, spec.delta_fraction * bounds.lambda_min_est
    delta = float(spec.delta)
    if not delta < bounds.lambda_min_est:
        raise ValueError(f"delta {delta} not below lambda_min_est "
                         f"{bounds.lambda_min_est:.6g} of the operator")
    return L, delta


def _m_distance(u: GridFunction, v: GridFunction) -> float:
    """The M-norm of u - v on ``u.op``; v lives on it or on a copy of it."""
    return m_norm(u.op, GridFunction(u.coeffs - v.coeffs, u.op))


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


def _portable(fn, result) -> bytes:
    """The pickle of a child's ``(ok, value)`` if the parent can load it;
    else that of a ``RuntimeError`` naming the type and message of the
    exception that would not cross the pipe: the one ``fn`` raised, or the
    one pickling its result raised."""
    try:
        data = pickle.dumps(result)
        pickle.loads(data)  # an exception may pickle, yet fail to rebuild
        return data
    except Exception as err:
        ok, value = result
        what, exc = ("could not send its result:", err) if ok else ("raised", value)
        return pickle.dumps((False, RuntimeError(
            f"the forked {fn.__name__} {what} {type(exc).__qualname__}: {exc}")))


@contextlib.contextmanager
def _forked(fn, *args):
    """Call ``fn(*args)`` in a forked child while the ``with`` block runs;
    the block gets a callable that waits for the child and returns its
    result or raises its exception.

    The child pickles its result or exception to a pipe (``_portable``)
    and always ends with ``os._exit``, so it runs no ``atexit`` handler and
    flushes no inherited stdio buffer.  A child that ends without a result
    is a ``RuntimeError`` naming its exit status or signal.  A block that
    leaves without waiting (its own error wins) kills and reaps the child.
    Without ``os.fork`` or with one usable CPU, the callable runs
    ``fn(*args)`` inline.  ``fn`` may call threaded BLAS after this process
    has: OpenBLAS stops its thread pool before a fork (see below).
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        yield lambda: fn(*args)
        return
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on any fork of a process with threads, and
            # OpenBLAS's pool makes every numpy process one.  The fork is safe:
            # both bundled OpenBLAS builds (numpy's and scipy's) register an
            # atfork handler (__register_atfork, blas_thread_shutdown_) that
            # stops the pool before the fork, and the pool restarts on the
            # next call, in the child and here, so a child's level-3 BLAS
            # (the 2D tensor step) waits on no thread it did not start
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                    r"use of fork\(\) may lead to deadlocks", DeprecationWarning)
            pid = os.fork()
    except BaseException:  # no child was made, and no one else closes the pipe
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child never returns from here
        status = 1
        try:
            os.close(r)
            try:
                result = (True, fn(*args))
            except BaseException as exc:
                result = (False, exc)
            with os.fdopen(w, "wb") as pipe:
                pipe.write(_portable(fn, result))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    pipe, reaped = os.fdopen(r, "rb"), False

    def wait():
        nonlocal reaped
        data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code:
            how = (f"exited with status {code}" if code > 0
                   else f"was killed by signal {-code} ({signal.strsignal(-code)})")
            raise RuntimeError(f"the forked {fn.__name__} {how} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield wait
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# 1D / 2D convergence tables
# ---------------------------------------------------------------------------

def _score_runs(runs, fs, op, solver, references, ref_norms) -> list:
    """Per ``(alpha, m, scheme, N, cfg)`` of ``runs``: the relative error of
    each row and its ``RunStats``.  Each run steps the block ``fs`` on ``op``
    by ``solver`` through ``run_grm`` or ``run_um`` and is scored against
    ``references[alpha]`` at once, so no run's outputs outlive it."""
    results = []
    for alpha, _, scheme, _, cfg in runs:
        step = run_grm if scheme == "grm" else run_um
        outs, stats = step(fs, op, cfg, return_stats=True, solver=solver)
        errors = [_m_distance(out, ref) / norm
                  for out, ref, norm in zip(outs, references[alpha], ref_norms[alpha])]
        results.append((errors, stats))
    return results


def _split_by_cost(costs) -> tuple[list, list]:
    """Two halves of the positions of ``costs`` with near-equal totals: the
    costliest first, each to the lighter half (the first on a tie), so the
    first half is empty only if ``costs`` is."""
    halves, totals = ([], []), [0, 0]
    for j in sorted(range(len(costs)), key=lambda j: -costs[j]):
        h = totals.index(min(totals))
        halves[h].append(j)
        totals[h] += costs[j]
    return halves


def run_table(spec: ExperimentSpec) -> list[dict]:
    """Relative-error/order table on the uniform 1D mesh of ``spec.cells``
    cells, or in 2D on the tensor grid of that many cells per side.

    One block run per (alpha, m, scheme, N) steps all data cases, since they
    share every shifted system; the rows come case by case, each case's in
    the runs' order.  The spectral bounds behind L and delta are estimated
    once per table, and the mesh size behind L is 1 / ``spec.cells``; both
    are resolved (and a bad delta refused) before the eigenbasis is built,
    and ``log`` gets one DEBUG record of the setup seconds.

    The runs split into two halves of near-equal cost (steps x poles,
    ``_split_by_cost``), and the second half steps in a forked child
    (``_forked``) while this process steps the first; a table whose second
    half is empty steps inline.  Each half scores its own runs
    (``_score_runs``), and each row reads the errors and ``RunStats`` of
    its run.
    """
    marks = [time.perf_counter()]
    if spec.dimension == 1:
        op = assemble_1d(np.linspace(0.0, 1.0, spec.cells + 1))
    else:
        op = assemble_2d_tensor(spec.cells)
    fs = [l2_project(op, tag) for tag in spec.data_cases]
    marks.append(time.perf_counter())
    L, delta = _depth_and_shift(spec, op, 1.0 / spec.cells)
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
    ref_norms = {alpha: [m_norm(op, ref) for ref in refs] for alpha, refs in references.items()}
    schemes = ("grm", "um") if spec.scheme == "both" else (spec.scheme,)
    runs = []  # (alpha, m, scheme, N, cfg) in the table's order
    for alpha in spec.alphas:
        for m in spec.ms:
            for scheme in schemes:
                for N in spec.Ns:
                    if scheme == "grm":
                        cfg = StepperConfig.grm(alpha, delta, m, None, N, L)
                    else:
                        cfg = StepperConfig.um(alpha, delta, m, (L + 1) * N)
                    runs.append((alpha, m, scheme, N, cfg))
    mine, theirs = _split_by_cost([cfg.mesh.num_steps * cfg.m for *_, cfg in runs])
    scoring = fs, op, spec.solver, references, ref_norms
    with (_forked(_score_runs, [runs[j] for j in theirs], *scoring) if theirs
          else contextlib.nullcontext(list)) as child:
        results = dict(zip(mine, _score_runs([runs[j] for j in mine], *scoring)))
        results.update(zip(theirs, child()))
    prov = _provenance(spec, delta)
    rows = []
    for i, case in enumerate(spec.data_cases):
        errors = {}  # (alpha, m, scheme, N) -> relative error of this case
        for j, (alpha, m, scheme, N, _) in enumerate(runs):
            errs, stats = results[j]
            err, st = errs[i], stats[i]
            errors[alpha, m, scheme, N] = err
            prev = errors.get((alpha, m, scheme, N / 2))  # none for an odd N
            rows.append({
                "dimension": spec.dimension,
                "scheme": scheme.upper(),
                "case": case,
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
            })
    return rows


# the 1D and 2D names of ``run_table``; the spec's dimension picks the operator
run_table_1d = run_table_2d = run_table


# ---------------------------------------------------------------------------
# spatial refinement study
# ---------------------------------------------------------------------------

def _graded_setup(spec: ExperimentSpec, nodes):
    """Operator, L, delta and data case d on the graded mesh ``nodes``;
    L and delta are resolved from ``spec`` as in the tables."""
    op = assemble_1d(nodes)
    return op, *_depth_and_shift(spec, op, nodes[1] - nodes[0]), l2_project(op, "d")


def _smallest_passing_Nt(op, f, alpha, m, delta, L, u_ref, threshold):
    """Smallest per-interval count whose geometric run beats the threshold.

    Returns (Nt, error, stats) of that run; each count is run at most once.
    """
    runs = {}

    def error_at(Nt):
        if Nt not in runs:
            cfg = StepperConfig.grm(alpha, delta, m, None, Nt, L)
            out, stats = run_grm(f, op, cfg, return_stats=True)
            runs[Nt] = (_m_distance(out, u_ref), stats)
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
    spec as the tables do.  Every mesh is set up first; then the uniform
    runs of every (N, m) step as one batch (``run_batch``) in a forked child
    (``_forked``) while this process steps the references and the searches.
    A 2D spec, a bad ``alpha`` or a graded N < 2 is refused before any assembly."""
    if spec.dimension != 1:
        raise ValueError("the spatial study runs on graded 1D meshes, not a 2D grid")
    for m in spec.ms:
        require_order_and_exponent(m, alpha)
    # the fine mesh's solution is the stand-in for the continuum limit; every
    # setup comes before the fork, which would slow it
    grids = [build_graded_spatial_mesh(N) for N in (max(spec.Ns) * _REFERENCE_FACTOR, *spec.Ns)]
    (fop, fL, fdelta, ff), *setups = [_graded_setup(spec, nodes) for nodes in grids]
    um_mesh = build_uniform_mesh(spec.um_steps)
    um_runs = [(f, op, StepperConfig(alpha=alpha, m=m, delta=delta, mesh=um_mesh))
               for op, _, delta, f in setups for m in spec.ms]
    rows, um_rows = [], []  # um_rows: the row, reference and m of each uniform run
    with _forked(run_batch, um_runs, True) as uniform:  # True: return_stats
        u_fine = run_grm(ff, fop, StepperConfig.grm(alpha, fdelta, 2, None, _REFERENCE_NT, fL))
        xp = np.concatenate([[0.0], fop.dof_coords, [1.0]])
        fp = np.concatenate([[0.0], u_fine.coeffs, [0.0]])
        for N, (op, L, delta, f) in zip(spec.Ns, setups):
            nx = len(op.nodes) - 1
            u_ref = run_grm(f, op, StepperConfig.grm(alpha, delta, 2, None, _REFERENCE_NT, L))
            threshold = _m_distance(GridFunction(np.interp(op.dof_coords, xp, fp), op), u_ref)
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
                um_rows.append((row, u_ref, m))
            row["max_step_growth"] = growth
            row.update(_provenance(spec, delta))
            rows.append(row)
        um_outs = uniform()
    for (row, u_ref, m), (u, stats) in zip(um_rows, um_outs):
        row["max_step_growth"] = max(row["max_step_growth"], stats.max_growth)
        row[f"E_UM_m{m}"] = _m_distance(u, u_ref)
    return rows


# ---------------------------------------------------------------------------
# Pade data and scalar diagnostics
# ---------------------------------------------------------------------------

def run_pade_info(ms=(1, 2), alphas=(0.1, 0.3, 0.5, 0.7, 0.9)) -> list[dict]:
    """Coefficients, poles and residues of each approximant, order by order."""
    _require_lists(ms=ms, alphas=alphas)
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

    The grid is ``points`` (an integer >= 2) log-spaced values from
    ``lambda_lo`` up to ``lambda_hi``, which is also the spectral top the
    GRM meshes take their depth L from.
    """
    _require_lists(alphas=alphas, ms=ms, Ns=Ns)
    # NaN fails every comparison, so it is refused too
    if not 0 < lambda_lo < lambda_hi < math.inf:
        raise ValueError(f"lambda_lo = {lambda_lo} and lambda_hi = {lambda_hi} must satisfy "
                         "0 < lambda_lo < lambda_hi < inf, and every lambda must be >= delta")
    require_steps(points, 2, "points")
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
