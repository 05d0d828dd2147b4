"""Operator-level time stepping for the discrete fractional power.

One step multiplies the iterate by r(k B (delta I + t B)^{-1}) where
B = A_h - delta I and A_h = M^{-1} K in coefficient space.  Through the
partial-fraction form of r (poles x_i, residues w_i, c_i = w_i / x_i) and
r(0) = 1, the step is

    u_next = u + k M^{-1} (K - delta M) sum_i c_i z_i,   G_i z_i = M u,
    G_i = a_i (K - delta M) - x_i delta M,   a_i = k - x_i t.

Every G_i is SPD because -x_i > 1 forces both a_i > 0 and
delta (x_i (t - 1) - k) > 0 while t + k <= 1.  Neither K nor M^{-1} is
needed: G_i z_i = M u reads a_i (K - delta M) z_i = M u + x_i delta M z_i,
so M^{-1} (K - delta M) z_i = (u + x_i delta z_i) / a_i exactly, and

    u_next = u (1 + k sum_i c_i / a_i) + sum_i (k delta w_i / a_i) z_i.

A step thus costs the m shifted solves and one M apply: the M u of the
growth norm after each step is the next step's right-hand side.  The
weighted sum of solves is one ``combine`` call on a shifted-pencil backend
from ``solvers``, picked by ``_pencil`` and built once per run, so CG warm
starts never outlive a run.  The shifts and weights of every step are
computed once per run.

None of that depends on the data, so one run steps a block of c data
vectors at once: U has shape (c, n), one row per grid function, and every
backend call acts on all rows (see ``solvers``).  A single grid function is
the block with c = 1.  Each row ends with the bits of its own one-row run
and gets its own ``RunStats``.  The steps contract in the M-norm when
delta lies below the spectrum, so a step that grows the M-norm of a row by
more than 1 + 1e-9 raises ``SolveError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .fem import DiscreteOperator, GridFunction
from .meshes import TimeMesh, build_geometric_mesh, build_uniform_mesh
from .pade import PadeRational, pade_coefficients
from .solvers import BandedPencil, SolveError, SolverPolicy, TensorDiagSolver, WarmStartCG

_BOUNDS_TOL = 1e-8
_BOUNDS_MAXITER = 10_000
_GROWTH_TOL = 1.0 + 1e-9


@dataclass(frozen=True)
class SpectralBounds:
    """Safeguarded estimate of the extremes of the generalized spectrum of (K, M)."""

    lambda_min_est: float
    lambda_max_est: float

    def __post_init__(self):
        if not 0 < self.lambda_min_est <= self.lambda_max_est:
            raise ValueError("need 0 < lambda_min_est <= lambda_max_est")


@dataclass(frozen=True, eq=False)
class StepperConfig:
    """Everything one run needs: exponent, order, shift, mesh and solver.

    The scalar recurrences take the same config (``scalar.ScalarRunConfig``
    is this class) and ignore ``solver``.
    """

    alpha: float
    m: int
    delta: float
    mesh: TimeMesh
    solver: SolverPolicy = SolverPolicy()
    rational: PadeRational = field(init=False, repr=False)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
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
    ``cg_iters_max`` the most any single solve of it took; both stay 0 under
    the direct policy.
    """

    steps: int = 0
    max_growth: float = 0.0
    solves: int = 0
    cg_iters: int = 0
    cg_iters_max: int = 0


def spectral_upper_bound(op: DiscreteOperator) -> float:
    """A proven upper bound on the spectrum of M^{-1} K, read off the bands.

    rho(M^{-1} K) <= ||M^{-1}||_inf ||K||_inf, and a strictly diagonally
    dominant M has ||M^{-1}||_inf <= 1 / min_i (M_ii - sum_{j != i} |M_ij|)
    (Varah 1975).  Every P1 mass matrix is, with a margin of at least
    (h_l + h_r) / 6 in each row.  On a uniform mesh the bound is Fried's
    12 / h**2.  Tensor operators double the bound of their 1D factor.
    """
    if op.is_tensor:
        return 2.0 * spectral_upper_bound(op.factor)

    def row_sums(diag, off):
        s = np.abs(diag)
        s[:-1] += np.abs(off)
        s[1:] += np.abs(off)
        return s

    Md, Ml = op.mass_bands
    margin = 2.0 * np.abs(Md) - row_sums(Md, Ml)
    if not np.all(margin > 0):
        raise ValueError("mass matrix is not strictly diagonally dominant")
    return float(np.max(row_sums(*op.stiffness_bands)) / np.min(margin))


def estimate_spectral_bounds(op: DiscreteOperator, seed: int = 0) -> SpectralBounds:
    """Bracket the spectrum of M^{-1} K with safeguarded Krylov estimates.

    Both extremes come from ARPACK's M-generalized Lanczos in shift-invert
    mode, to relative tolerance 1e-8 with a 10^4 iteration budget: the
    bottom eigenvalue is the one nearest 0, the top the one nearest
    ``spectral_upper_bound(op)``, which no eigenvalue exceeds.  The top
    estimate is then inflated by 1% and the bottom deflated by 1% so the
    returned interval brackets the true extremes.  ``seed`` only picks the
    Lanczos start vector.  Up to two dofs are solved densely.  Tensor
    operators reuse their 1D factor: both extremes double.
    """
    if op.is_tensor:
        base = estimate_spectral_bounds(op.factor, seed=seed)
        return SpectralBounds(2.0 * base.lambda_min_est, 2.0 * base.lambda_max_est)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(op.n_dofs)
    K = op.stiffness.tocsc()
    M = op.mass.tocsc()
    try:
        if op.n_dofs <= 2:
            import scipy.linalg as sla

            lam = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
            top, bottom = lam[-1], lam[0]
        else:
            lanczos = dict(k=1, M=M, which="LM", tol=_BOUNDS_TOL, maxiter=_BOUNDS_MAXITER,
                           v0=v0, return_eigenvectors=False)
            top = spla.eigsh(K, sigma=spectral_upper_bound(op), **lanczos)[0]
            bottom = spla.eigsh(K, sigma=0.0, **lanczos)[0]
    except spla.ArpackNoConvergence as exc:
        raise SolveError(f"spectral bound estimation did not converge: {exc}") from exc
    return SpectralBounds(lambda_min_est=0.99 * bottom, lambda_max_est=1.01 * top)


def default_delta(op: DiscreteOperator, fraction: float = 0.5, seed: int = 0) -> float:
    """The documented default shift: fraction * lambda_min_est."""
    return fraction * estimate_spectral_bounds(op, seed=seed).lambda_min_est


def _pencil(op: DiscreteOperator, policy: SolverPolicy, columns: int = 1):
    """The shifted-pencil backend for one run of ``columns`` rows on ``op``
    (see ``solvers``)."""
    if not op.is_tensor:
        return BandedPencil(op)
    if policy.method == "direct":
        return TensorDiagSolver(op)
    return WarmStartCG(op, policy, columns)


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


def apply_pade_step(u: GridFunction, t: float, k: float, r: PadeRational,
                    op: DiscreteOperator, cfg: StepperConfig) -> GridFunction:
    """Apply one rational step r(k B (delta I + t B)^{-1}) to u."""
    if not (0.0 <= t < 1.0 or k == 0.0):
        raise ValueError(f"step start t = {t} outside [0, 1)")
    if k < 0.0 or t + k > 1.0 + 1e-12:
        raise ValueError(f"step (t, k) = ({t}, {k}) leaves the unit interval")
    if u.op is not op:
        raise ValueError("grid function lives on a different operator")
    if k == 0.0:
        return u.copy()
    pencil = _pencil(op, cfg.solver)
    shifts, coeffs, scale = _step_terms(r, cfg.delta, np.array([t]), np.array([k]))
    z = pencil.combine(shifts[0], coeffs[0], pencil.apply_M(u.coeffs[None]))
    return GridFunction(z[0] + scale[0] * u.coeffs, op)


def _run(v, op: DiscreteOperator, cfg: StepperConfig, kind: str, return_stats: bool):
    if cfg.mesh.kind != kind:
        raise ValueError(f"configuration holds a {cfg.mesh.kind} mesh, expected {kind}")
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
    U = delta ** (-cfg.alpha) * np.stack([w.coeffs for w in vs])
    Mu = pencil.apply_M(U)
    # per row, in Python floats: the M-norm and the worst growth so far
    norms = [math.sqrt(max(float(U[j].dot(Mu[j])), 0.0)) for j in range(c)]
    growth = [0.0] * c
    for i, scale in enumerate(scales.tolist()):
        U = pencil.combine(shifts[i].tolist(), coeffs[i].tolist(), Mu) + scale * U
        # M U feeds both the growth norms and the next step's right-hand side
        Mu = pencil.apply_M(U)
        for j in range(c):
            # ndarray.dot gives the bits of u @ Mu at half the call cost
            cur = math.sqrt(max(float(U[j].dot(Mu[j])), 0.0))
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
    outs = [GridFunction(u, op) for u in U]
    stats = [RunStats(steps, growth[j], steps * cfg.m, *pencil.iterations(j))
             for j in range(c)]
    if single:
        outs, stats = outs[0], stats[0]
    return (outs, stats) if return_stats else outs


def run_grm(v, op: DiscreteOperator, cfg: StepperConfig, return_stats: bool = False):
    """Geometric-mesh run: U_0 = delta**-alpha v stepped over all (L+1)*N steps.

    ``v`` is one ``GridFunction`` or a sequence of them on ``op``, stepped
    as one block; a sequence gives a list of outputs and of ``RunStats``.
    """
    return _run(v, op, cfg, "geometric", return_stats)


def run_um(v, op: DiscreteOperator, cfg: StepperConfig, return_stats: bool = False):
    """Uniform-mesh run with N steps of size 1/N; ``v`` as for ``run_grm``."""
    return _run(v, op, cfg, "uniform", return_stats)
