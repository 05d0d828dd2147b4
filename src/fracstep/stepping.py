"""Operator-level time stepping for the discrete fractional power.

One step multiplies the iterate by r(k B (delta I + t B)^{-1}) where
B = A_h - delta I and A_h = M^{-1} K in coefficient space.  ``run``
steps U_0 = delta**-alpha v over the time mesh of the config, which alone
picks the scheme: geometric for GRM, uniform for UM.  A single step from t
is a run over the one-step mesh ``TimeMesh([t, t + k])``.  Through the
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
M-norm that the growth guard reads: M u and u . M u on the banded and CG
backends, the mode coefficients of u and their squared norm (Parseval) on
the direct tensor backend.  The weighted sum of solves is one ``combine``
call on that right-hand side, on a shifted-pencil backend from
``solvers``, picked by ``_pencil`` and built once per run, so CG
iteration counts never outlive a run.  ``combine`` gives a fresh array,
and the step adds u times its factor into it in place.  The iterate lives in the backend's
coordinates: ``fold`` once before the first ``load`` and ``unfold`` once
after the last step (parity-folded grids on the direct tensor backend,
the coefficients as they are elsewhere); the update above is linear, so
it holds in either.  The shifts and weights of every step are computed
once per run.

None of that depends on the data, so one run steps a block of c data
vectors at once: U has shape (c, n), one row per grid function, and every
backend call acts on all rows (see ``solvers``).  A single grid function is
the block with c = 1.  Each row ends with the bits of its own one-row run
and gets its own ``RunStats``.  The steps contract in the M-norm when
delta lies below the spectrum, so a step that grows the M-norm of a row by
more than 1 + 1e-9 raises ``SolveError``.

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
from .solvers import SOLVERS, BandedPencil, PreconditionedCG, SolveError, TensorDiagSolver

_GROWTH_TOL = 1.0 + 1e-9


@dataclass(frozen=True, eq=False)
class StepperConfig:
    """Everything one run needs: exponent, order, shift, mesh and solver.

    ``solver`` names how the shifted systems are solved, "direct" or "cg"
    (see ``_pencil``).  The scalar recurrences take the same config
    (``scalar.ScalarRunConfig`` is this class) and ignore ``solver``.
    """

    alpha: float
    m: int
    delta: float
    mesh: TimeMesh
    solver: str = "direct"
    rational: PadeRational = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        object.__setattr__(self, "rational", pade_coefficients(self.m, self.alpha))

    @classmethod
    def grm(cls, alpha, delta, m, lambda_max, N, L_override=None):
        mesh = build_geometric_mesh(lambda_max, N, L_override)
        return cls(alpha=alpha, m=m, delta=delta, mesh=mesh)

    @classmethod
    def um(cls, alpha, delta, m, N):
        return cls(alpha=alpha, m=m, delta=delta, mesh=build_uniform_mesh(N))


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


def _pencil(op: DiscreteOperator, solver: str, columns: int = 1):
    """The shifted-pencil backend for one run of ``columns`` rows on ``op``
    (see ``solvers``).  CG serves tensor operators only: a 1D operator is
    always solved directly, so ``solver="cg"`` there is refused."""
    if solver == "cg":
        if op.dim != 2:
            raise ValueError("the cg solver needs a tensor (2D) operator")
        return PreconditionedCG(op, columns)
    return TensorDiagSolver(op) if op.dim == 2 else BandedPencil(op, columns)


def _step_terms(r: PadeRational, delta: float, t: np.ndarray, k: np.ndarray):
    """Per step: the (a_i, b_i) of every G_i = a_i K + b_i M, shape (steps, m, 2),
    the ``combine`` weights k delta w_i / a_i, shape (steps, m), and the
    factor 1 + k sum_i c_i / a_i on u, shape (steps,)."""
    t, k = t[:, None], k[:, None]
    a = k - r.poles * t
    b = delta * (r.poles * (t - 1.0) - k)
    coeffs = k * delta * r.residues / a
    scale = 1.0 + np.sum(k * (r.residues / r.poles) / a, axis=1)
    return np.stack([a, b], axis=-1), coeffs, scale


def run(v, op: DiscreteOperator, cfg: StepperConfig, return_stats: bool = False):
    """U_0 = delta**-alpha v stepped over every step of ``cfg.mesh``.

    The mesh picks the scheme: a geometric mesh gives GRM ((L+1)*N steps),
    a uniform one UM (N steps of size 1/N).  ``v`` is one ``GridFunction``
    or a sequence of them on ``op``, stepped as one block; a sequence gives
    a list of outputs and of ``RunStats``.
    """
    single = isinstance(v, GridFunction)
    vs = [v] if single else list(v)
    if not vs:
        raise ValueError("no grid function to step")
    if any(w.op is not op for w in vs):
        raise ValueError("grid function lives on a different operator")
    c = len(vs)
    pencil = _pencil(op, cfg.solver, c)
    delta, steps = cfg.delta, cfg.mesh.num_steps
    shifts, coeffs, scales = _step_terms(cfg.rational, delta, cfg.mesh.t_left, cfg.mesh.k)
    U = pencil.fold(delta ** (-cfg.alpha) * np.stack([w.coeffs for w in vs]))
    rhs, sq_norms = pencil.load(U)
    # per row, in Python floats: the M-norm and the worst growth so far
    norms = [math.sqrt(max(sq, 0.0)) for sq in sq_norms]
    growth = [0.0] * c
    for i, scale in enumerate(scales.tolist()):
        step = pencil.combine(shifts[i].tolist(), coeffs[i].tolist(), rhs)
        step += scale * U
        U = step
        # one load feeds both the growth norms and the next step's right-hand side
        rhs, sq_norms = pencil.load(U)
        for j, sq in enumerate(sq_norms):
            cur = math.sqrt(max(sq, 0.0))
            if not math.isfinite(cur):
                raise SolveError(f"iterate not finite after step {i + 1} of {steps} "
                                 f"in column {j} (M-norm {cur})")
            if norms[j] > 0:
                ratio = cur / norms[j]
                if ratio > _GROWTH_TOL:
                    raise SolveError(f"step {i + 1} of {steps} grew the M-norm of column "
                                     f"{j} by {ratio:.12f} (delta above the spectrum?)")
                growth[j] = max(growth[j], ratio)
            norms[j] = cur
    outs = [GridFunction(u, op) for u in pencil.unfold(U)]
    stats = [RunStats(steps, growth[j], steps * cfg.m, *pencil.iterations(j))
             for j in range(c)]
    if single:
        outs, stats = outs[0], stats[0]
    return (outs, stats) if return_stats else outs


# the GRM and UM names of ``run``; the mesh in the config picks the scheme
run_grm = run_um = run
