"""Operator-level time stepping for the discrete fractional power.

One step multiplies the iterate by r(k B (delta I + t B)^{-1}) where
B = A_h - delta I and A_h = M^{-1} K in coefficient space.  A run config
(``StepperConfig``) is the time scheme: exponent, order, shift and time
mesh.  ``run`` steps U_0 = delta**-alpha v over the config's mesh, which
alone picks the scheme: geometric for GRM, uniform for UM.  A single step
from t is a run over the one-step mesh ``TimeMesh([t, t + k])``.  The
solver lies below the scheme, so ``run`` takes it.  Through the
partial-fraction form of r (poles x_i, residues w_i, c_i = w_i / x_i) and
r(0) = 1, the step is

    u_next = u + k M^{-1} (K - delta M) sum_i c_i z_i,   G_i z_i = M u,
    G_i = a_i (K - delta M) - x_i delta M,   a_i = k - x_i t.

Every G_i is SPD because -x_i > 1 forces both a_i > 0 and
delta (x_i (t - 1) - k) > 0 while 0 <= t < t + k <= 1, which ``TimeMesh``
guarantees for each of its steps.  Neither K nor M^{-1} is
needed: G_i z_i = M u reads a_i (K - delta M) z_i = M u + x_i delta M z_i,
so M^{-1} (K - delta M) z_i = (u + x_i delta z_i) / a_i exactly, and

    u_next = u (1 + k sum_i c_i / a_i) + sum_i (k delta w_i / a_i) z_i.

A step thus costs the m shifted solves and one ``load`` of the new
iterate, which gives both the next step's right-hand side and the squared
M-norm that the growth guard reads (each backend's in ``solvers``).  The
step is one ``step`` call on that right-hand side, on the backend that
``solvers.pencil`` picks by the operator and ``solver`` and builds once per
run, so CG iteration counts never outlive a run.  The iterate lives in
the backend's coordinates: ``fold`` once before the first ``load`` and
``unfold`` once after the last step; the update above is linear, so it
holds in either.  The shifts and weights are computed ``_CHUNK`` steps at
a time.

None of that depends on the data, so one run steps a block of c data
vectors at once: U has shape (c, n), one row per grid function, and every
backend call acts on all rows (see ``solvers``).  A single grid function is
the block with c = 1.  ``run_batch`` steps 1D runs of the same step and
row counts in lockstep, their dofs end to end in U (one stacked ``?ptsv``
per pole, ``solvers.BandedPencil``); ``run`` is a batch of one.  Each row
of each run ends with the bits of its own one-row run and gets its own
``RunStats``.  The steps contract in the M-norm when delta lies below the
spectrum, so a step that grows the M-norm of a row by more than 1 + 1e-9
raises ``SolveError``, and so does a non-finite one.

The shift delta and the depth L of a geometric mesh come from the bracket
of the spectrum in ``spectral``; this module takes them as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fem import DiscreteOperator, GridFunction
from .meshes import TimeMesh, build_geometric_mesh, build_uniform_mesh
from .pade import PadeRational, pade_coefficients
from .solvers import SolveError, pencil

_GROWTH_TOL = 1.0 + 1e-9


def require_shift(delta) -> None:
    """Refuse a shift delta that is not positive and finite; NaN included."""
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")


@dataclass(frozen=True, eq=False)
class StepperConfig:
    """The time scheme of a run: exponent, Pade order, shift (refused by
    ``require_shift``) and time mesh, and the approximant ``rational`` of
    the first two.  The scalar recurrences take it too
    (``scalar.ScalarRunConfig`` is this class); ``run`` takes the solver."""

    alpha: float
    m: int
    delta: float
    mesh: TimeMesh
    rational: PadeRational = field(init=False, repr=False)

    def __post_init__(self):
        require_shift(self.delta)
        object.__setattr__(self, "rational", pade_coefficients(self.m, self.alpha))

    @classmethod
    def grm(cls, alpha, delta, m, lambda_max, N, L_override=None):
        return cls(alpha, m, delta, build_geometric_mesh(lambda_max, N, L_override))

    @classmethod
    def um(cls, alpha, delta, m, N):
        return cls(alpha, m, delta, build_uniform_mesh(N))


@dataclass
class RunStats:
    """Per-run record of one data vector (one row of a block run): worst
    per-step M-norm growth ratio and solve counts.

    ``cg_iters`` is the total of CG iterations of this row over the run and
    ``cg_iters_max`` the most any single solve of it took; both stay 0 when
    the solves are direct.
    """

    steps: int = 0
    max_growth: float = 0.0
    solves: int = 0
    cg_iters: int = 0
    cg_iters_max: int = 0


def _step_terms(cfgs, lo: int, hi: int) -> np.ndarray:
    """Steps lo to hi of the runs ``cfgs`` (the first has the most poles, m):
    per step and run, (a_i, b_i, k delta w_i / a_i) of each G_i = a_i K + b_i M
    and then 1 + k sum_i c_i / a_i, shape (hi - lo, 3 m + 1, runs); a run
    with fewer poles has ones in place of the rest, never read."""
    terms = np.ones((hi - lo, 3 * cfgs[0].m + 1, len(cfgs)))
    for j, cfg in enumerate(cfgs):
        x, w, delta, poles = cfg.rational.poles, cfg.rational.residues, cfg.delta, 3 * cfg.m
        t, k = cfg.mesh.t_left[lo:hi, None], cfg.mesh.k[lo:hi, None]
        a = terms[:, 0:poles:3, j] = k - x * t
        terms[:, 1:poles:3, j] = delta * (x * (t - 1.0) - k)
        terms[:, 2:poles:3, j] = k * delta * w / a
        terms[:, -1, j] = 1.0 + np.sum(k * (w / x) / a, axis=1)
    return terms


# steps whose terms are computed at once (a table of 1 024 added 0.5 MB to refine1d's peak)
_CHUNK = 256


def run_batch(runs, return_stats: bool = False, *, solver: str = "direct") -> list:
    """Each ``(v, op, cfg)`` of ``runs`` stepped in lockstep: per run, what
    ``run(v, op, cfg, return_stats, solver=solver)`` gives, with its bits.
    The runs need the same step and row counts; their operators, exponents,
    orders, shifts and meshes may differ.  Only 1D runs step as a batch of
    more than one (``solvers.pencil`` picks the backend and refuses more)."""
    runs = list(runs)
    if not runs:
        raise ValueError("no run to step")
    blocks = [[v] if isinstance(v, GridFunction) else list(v) for v, _, _ in runs]
    c, steps, R = len(blocks[0]), runs[0][2].mesh.num_steps, len(runs)
    for vs, (_, op, cfg) in zip(blocks, runs):
        if not vs:
            raise ValueError("no grid function to step")
        if any(w.op is not op for w in vs):
            raise ValueError("grid function lives on a different operator")
        if len(vs) != c or cfg.mesh.num_steps != steps:
            raise ValueError("the runs of a batch need the same number of rows and of steps")
    # by decreasing m, so the runs that have pole i come first
    order = sorted(range(R), key=lambda j: -runs[j][2].m)
    ops, cfgs = [runs[j][1] for j in order], [runs[j][2] for j in order]
    backend = pencil(ops, solver, c, [cfg.m for cfg in cfgs])
    U = backend.fold(np.concatenate([cfg.delta ** (-cfg.alpha) * np.stack(
        [w.coeffs for w in blocks[j]]) for j, cfg in zip(order, cfgs)], axis=1))
    rhs, sq_norms = backend.load(U)
    # per row and run, in Python floats: the M-norm and the worst growth so far
    norms = [math.sqrt(max(sq, 0.0)) for sq in sq_norms]
    growth = [0.0] * len(norms)

    def where(x):  # the row and run of norm x, as the caller numbers them
        return f"column {x // R}" + (f" of run {order[x % R]}" if R > 1 else "")

    for lo in range(0, steps, _CHUNK):
        chunk = _step_terms(cfgs, lo, min(lo + _CHUNK, steps))  # a lone run's as floats
        for i, terms in enumerate(chunk if R > 1 else chunk[:, :, 0].tolist(), lo):
            U = backend.step(terms, U, rhs)
            # one load feeds both the growth norms and the next step's right-hand side
            rhs, sq_norms = backend.load(U)
            for x, sq in enumerate(sq_norms):
                cur = math.sqrt(max(sq, 0.0))
                if not math.isfinite(cur):
                    # a non-finite run reaches the others of a batch in the
                    # solves (0 * nan): name the run whose norm was not finite
                    # before the step (its data), if one was (none before x)
                    x = next((y for y in range(x, len(norms)) if not math.isfinite(norms[y])), x)
                    raise SolveError(f"iterate not finite after step {i + 1} of {steps} "
                                     f"in {where(x)} (M-norm {math.sqrt(max(sq_norms[x], 0.0))})")
                if norms[x] > 0:
                    ratio = cur / norms[x]
                    if ratio > _GROWTH_TOL:
                        raise SolveError(f"step {i + 1} of {steps} grew the M-norm of {where(x)} "
                                         f"by {ratio:.12f} (delta above the spectrum?)")
                    growth[x] = max(growth[x], ratio)
                norms[x] = cur
    rows, ends = backend.unfold(U), np.cumsum([op.n_dofs for op in ops])
    results = [None] * R
    for r, (j, op, cfg) in enumerate(zip(order, ops, cfgs)):
        outs = [GridFunction(u[ends[r] - op.n_dofs:ends[r]], op) for u in rows]
        stats = [RunStats(steps, growth[k * R + r], steps * cfg.m, *backend.iterations(k))
                 for k in range(c)]
        if isinstance(runs[j][0], GridFunction):
            outs, stats = outs[0], stats[0]
        results[j] = (outs, stats) if return_stats else outs
    return results


def run(v, op: DiscreteOperator, cfg: StepperConfig, return_stats: bool = False, *,
        solver: str = "direct"):
    """U_0 = delta**-alpha v stepped over every step of ``cfg.mesh``.

    The mesh picks the scheme: a geometric mesh gives GRM ((L+1)*N steps),
    a uniform one UM (N steps of size 1/N).  ``v`` is one ``GridFunction``
    or a sequence of them on ``op``, stepped as one block; a sequence gives
    a list of outputs and of ``RunStats``.  ``solver``, one of
    ``solvers.SOLVERS``, names the backend.  It is a ``run_batch`` of one.
    """
    return run_batch([(v, op, cfg)], return_stats, solver=solver)[0]


# the GRM and UM names of ``run``; the mesh in the config picks the scheme
run_grm = run_um = run
