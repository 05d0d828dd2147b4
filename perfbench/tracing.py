"""Spans around calls into the fracstep layers, installed from outside.

Every wrapper replaces a name where its caller looks it up (a module
global or a class attribute), so no file of the program changes.  A span
is (name, start, end, parent) with ``time.perf_counter_ns`` stamps; spans
stay in memory until the run ends.

Untraced runs wrap only the one-off setup calls (a few hundred per run),
which is what ``setup_s`` is made of.  Traced runs also wrap the per-step
kernels and solvers, which is where the tracing overhead comes from.
"""

from __future__ import annotations

import functools
import time

import numpy as np

SETUP = ("fem.assemble", "fem.project", "stepping.bounds", "spectral.eig",
         "spectral.reference", "pade.coeffs")
SHIFTED_SOLVES = ("kernels.tridiag_solve", "solvers.tensor_solve", "solvers.cg_solve")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.totals: dict[str, float] = {}
        self.cg_iters: list[int] = []
        self.cg_failures = 0

    def wrap(self, name, fn, tally=None):
        """Wrap ``fn`` in a span; ``tally(args, kwargs)`` adds to ``totals[name]``."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self.totals[name] = 0.0
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack)
        totals, clock = self.totals, time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if tally is not None:
                totals[name] += tally(args, kwargs)
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return spanned

    def arrays(self):
        return (np.array(self.name_ids, dtype=np.int32),
                np.array(self.starts, dtype=np.int64),
                np.array(self.ends, dtype=np.int64),
                np.array(self.parents, dtype=np.int64))

    def save(self, path):
        name_ids, starts, ends, parents = self.arrays()
        np.savez(path, names=np.array(self.names), name=name_ids, start=starts,
                 end=ends, parent=parents)


class _CountingSpla:
    """Stands in for ``scipy.sparse.linalg`` inside ``fracstep.solvers``.

    ``cg`` gets a callback that counts iterations; everything else is the
    real module.
    """

    def __init__(self, spla, rec: Recorder):
        self._spla = spla
        self._rec = rec

    def __getattr__(self, attr):
        return getattr(self._spla, attr)

    def cg(self, *args, callback=None, **kwargs):
        iters = 0

        def count(xk):
            nonlocal iters
            iters += 1
            if callback is not None:
                callback(xk)

        x, info = self._spla.cg(*args, callback=count, **kwargs)
        self._rec.cg_iters.append(iters)
        self._rec.cg_failures += info != 0
        return x, info


def _cfg_steps(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return cfg.mesh.num_steps


def _tensor_flops(args, kwargs):
    return 8.0 * args[0].n ** 3  # four dense n x n products per solve


def install(rec: Recorder, traced: bool) -> None:
    import fracstep._kernels as kernels
    import fracstep.experiments as experiments
    import fracstep.solvers as solvers
    import fracstep.stepping as stepping

    def patch(owner, attr, name, tally=None):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), tally))

    patch(experiments, "assemble_1d", "fem.assemble")
    patch(experiments, "assemble_2d_tensor", "fem.assemble")
    patch(experiments, "l2_project", "fem.project")
    patch(experiments, "estimate_spectral_bounds", "stepping.bounds")
    patch(experiments, "eig_1d", "spectral.eig")
    patch(experiments, "eig_2d_tensor", "spectral.eig")
    patch(experiments, "reference_power", "spectral.reference")
    patch(stepping, "pade_coefficients", "pade.coeffs")
    if not traced:
        return
    patch(experiments, "run_grm", "stepping.run", _cfg_steps)
    patch(experiments, "run_um", "stepping.run", _cfg_steps)
    patch(experiments, "m_norm", "fem.m_norm")
    patch(kernels, "tridiag_solve", "kernels.tridiag_solve")
    patch(kernels, "tridiag_matvec", "kernels.tridiag_matvec")
    patch(solvers.TensorDiagSolver, "solve", "solvers.tensor_solve", _tensor_flops)
    patch(solvers.WarmStartCG, "solve", "solvers.cg_solve")
    solvers.spla = _CountingSpla(solvers.spla, rec)


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def setup_seconds(rec: Recorder) -> float:
    """Time in setup spans that are not nested in another setup span."""
    name_ids, starts, ends, parents = rec.arrays()
    setup_ids = [i for i, n in enumerate(rec.names) if n in SETUP]
    is_setup = np.isin(name_ids, setup_ids)
    nested = np.zeros_like(is_setup)
    has_parent = parents >= 0
    nested[has_parent] = is_setup[parents[has_parent]]
    return float(np.sum(ends[is_setup & ~nested] - starts[is_setup & ~nested])) * 1e-9


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer counts and times of one traced run."""
    name_ids, starts, ends, parents = rec.arrays()
    dur = (ends - starts) * 1e-9
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_time = dur - child
    ids = {n: i for i, n in enumerate(rec.names)}

    def sel(name):
        return name_ids == ids.get(name, -1)

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def total(name):
        return float(np.sum(dur[sel(name)]))

    def us(mask, q):
        return _pct(dur[mask] * 1e6, q)

    run = sel("stepping.run")
    in_run = np.zeros_like(run)
    in_run[has_parent] = run[parents[has_parent]]
    shifted = in_run & np.isin(name_ids, [ids.get(n, -1) for n in SHIFTED_SOLVES])
    steps = rec.totals.get("stepping.run", 0.0)
    run_s = total("stepping.run")
    tensor_s = total("solvers.tensor_solve")
    iters = rec.cg_iters
    return {
        "experiments.runs": calls("stepping.run"),
        "experiments.steps": int(steps),
        "stepping.run_s": run_s,
        "stepping.self_s": float(np.sum(self_time[run])),
        "stepping.step_us": run_s / steps * 1e6 if steps else 0.0,
        "stepping.bounds_s": total("stepping.bounds"),
        "stepping.bounds.calls": calls("stepping.bounds"),
        "solvers.shifted_solve.calls": int(np.count_nonzero(shifted)),
        "solvers.shifted_solve_s": float(np.sum(dur[shifted])),
        "solvers.shifted_solve_us.p50": us(shifted, 50),
        "solvers.shifted_solve_us.p99": us(shifted, 99),
        "kernels.tridiag_solve.calls": calls("kernels.tridiag_solve"),
        "kernels.tridiag_solve_s": total("kernels.tridiag_solve"),
        "kernels.tridiag_solve_us.p50": us(sel("kernels.tridiag_solve"), 50),
        "kernels.tridiag_solve_us.p99": us(sel("kernels.tridiag_solve"), 99),
        "kernels.tridiag_matvec.calls": calls("kernels.tridiag_matvec"),
        "kernels.tridiag_matvec_s": total("kernels.tridiag_matvec"),
        "solvers.tensor_solve.calls": calls("solvers.tensor_solve"),
        "solvers.tensor_solve_s": tensor_s,
        "solvers.tensor_solve_us.p50": us(sel("solvers.tensor_solve"), 50),
        "solvers.tensor_solve_us.p99": us(sel("solvers.tensor_solve"), 99),
        "solvers.tensor_solve.gflops_computed": (
            rec.totals.get("solvers.tensor_solve", 0.0) / tensor_s * 1e-9 if tensor_s else 0.0),
        "solvers.cg_solve.calls": calls("solvers.cg_solve"),
        "solvers.cg_solve_s": total("solvers.cg_solve"),
        "solvers.cg_iters": int(sum(iters)),
        "solvers.cg_iters_per_solve.p50": _pct(iters, 50),
        "solvers.cg_iters_per_solve.max": int(max(iters, default=0)),
        "solvers.cg_failures": int(rec.cg_failures),
        "spectral.eig_s": total("spectral.eig"),
        "spectral.reference_s": total("spectral.reference"),
        "pade.coeffs.calls": calls("pade.coeffs"),
        "pade.coeffs_s": total("pade.coeffs"),
        "fem.assemble_s": total("fem.assemble"),
        "fem.project_s": total("fem.project"),
        "fem.m_norm.calls": calls("fem.m_norm"),
    }
