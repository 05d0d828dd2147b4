"""Operator-level time stepping for the discrete fractional power.

One step multiplies the iterate by r(k B (delta I + t B)^{-1}) where
B = A_h - delta I and A_h = M^{-1} K in coefficient space.  Through the
partial-fraction form this costs one shifted SPD solve per pole,

    G_i z_i = M u,   G_i = (k - x_i t)(K - delta M) - x_i delta M,

plus a single mass solve: since r(0) = 1, the update collapses to

    u_next = u + k M^{-1} (K - delta M) sum_i (w_i / x_i) z_i.

Every G_i is SPD because -x_i > 1 forces both (k - x_i t) > 0 and
delta (x_i (t - 1) - k) > 0 while t + k <= 1.  The pole solves and the
applies of K and M go through one shifted-pencil backend from ``solvers``,
picked by ``_pencil`` and built once per run, so CG warm starts never
outlive a run.  The mass solve is exact under every backend: one LAPACK
factor of the 1D mass matrix (``fem.mass_solver``), built next to the
pencil.  The shifts of every G_i are computed once per run, and the M u of
the growth norm after each step is the next step's right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .fem import DiscreteOperator, GridFunction, mass_solver
from .meshes import TimeMesh, build_geometric_mesh, build_uniform_mesh
from .pade import PadeRational, pade_coefficients
from .solvers import BandedPencil, SolveError, SolverPolicy, TensorDiagSolver, WarmStartCG

_BOUNDS_TOL = 1e-8
_BOUNDS_MAXITER = 10_000


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
    """Per-run record: worst per-step M-norm growth ratio and solve counts.

    ``cg_iters`` is the total of CG iterations over the run and
    ``cg_iters_max`` the most any single solve took; both stay 0 under the
    direct policy.
    """

    steps: int = 0
    max_growth: float = 0.0
    solves: int = 0
    cg_iters: int = 0
    cg_iters_max: int = 0


def estimate_spectral_bounds(op: DiscreteOperator, seed: int = 0) -> SpectralBounds:
    """Bracket the spectrum of M^{-1} K with safeguarded Krylov estimates.

    Lanczos iterations (M-generalized) are run to relative tolerance 1e-8
    with a 10^4 iteration budget, then the top estimate is inflated by 1%
    and the bottom deflated by 1% so the returned interval brackets the
    true extremes.  Tensor operators reuse their 1D factor: both extremes
    double.
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
            top = spla.eigsh(
                K, k=1, M=M, which="LA", tol=_BOUNDS_TOL,
                maxiter=_BOUNDS_MAXITER, v0=v0, return_eigenvectors=False,
            )[0]
            bottom = spla.eigsh(
                K, k=1, M=M, sigma=0.0, which="LM", tol=_BOUNDS_TOL,
                maxiter=_BOUNDS_MAXITER, v0=v0, return_eigenvectors=False,
            )[0]
    except spla.ArpackNoConvergence as exc:
        raise SolveError(f"spectral bound estimation did not converge: {exc}") from exc
    return SpectralBounds(lambda_min_est=0.99 * bottom, lambda_max_est=1.01 * top)


def default_delta(op: DiscreteOperator, fraction: float = 0.5, seed: int = 0) -> float:
    """The documented default shift: fraction * lambda_min_est."""
    return fraction * estimate_spectral_bounds(op, seed=seed).lambda_min_est


def _pencil(op: DiscreteOperator, policy: SolverPolicy):
    """The shifted-pencil backend for one run on ``op`` (see ``solvers``)."""
    if not op.is_tensor:
        return BandedPencil(op)
    if policy.method == "direct":
        return TensorDiagSolver(op)
    return WarmStartCG(op, policy)


def _pole_shifts(r: PadeRational, delta: float, t: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(a, b) of G_i = a K + b M for every step and pole, shape (steps, m, 2)."""
    t, k = t[:, None], k[:, None]
    a = k - r.poles * t
    b = delta * (r.poles * (t - 1.0) - k)
    return np.stack([a, b], axis=-1)


def _apply_step(pencil, mass_solve, u: np.ndarray, Mu: np.ndarray, k: float,
                shifts: np.ndarray, weights: list, delta: float) -> np.ndarray:
    """One step of size k from u, given Mu = M u and the step's pole shifts."""
    if k == 0.0:
        return u.copy()
    zs = pencil.solves(shifts, Mu)
    acc = weights[0] * zs[0]
    for c, z in zip(weights[1:], zs[1:]):
        acc += c * z
    # B acc = K acc - delta M acc; folding delta into one K - delta M band
    # cancels digits and moves the published errors by about 1%
    rhs = pencil.apply_K(acc) - delta * pencil.apply_M(acc)
    return u + k * mass_solve(rhs)


def _weights(r: PadeRational) -> list:
    return [float(w / pole) for pole, w in zip(r.poles, r.residues)]


def apply_pade_step(u: GridFunction, t: float, k: float, r: PadeRational,
                    op: DiscreteOperator, cfg: StepperConfig) -> GridFunction:
    """Apply one rational step r(k B (delta I + t B)^{-1}) to u."""
    if not (0.0 <= t < 1.0 or k == 0.0):
        raise ValueError(f"step start t = {t} outside [0, 1)")
    if k < 0.0 or t + k > 1.0 + 1e-12:
        raise ValueError(f"step (t, k) = ({t}, {k}) leaves the unit interval")
    if u.op is not op:
        raise ValueError("grid function lives on a different operator")
    pencil, mass_solve = _pencil(op, cfg.solver), mass_solver(op)
    shifts = _pole_shifts(r, cfg.delta, np.array([t]), np.array([k]))[0]
    Mu = pencil.apply_M(u.coeffs)
    return GridFunction(
        _apply_step(pencil, mass_solve, u.coeffs, Mu, k, shifts, _weights(r), cfg.delta), op)


def _run(v: GridFunction, op: DiscreteOperator, cfg: StepperConfig, kind: str,
         return_stats: bool):
    if cfg.mesh.kind != kind:
        raise ValueError(f"configuration holds a {cfg.mesh.kind} mesh, expected {kind}")
    if v.op is not op:
        raise ValueError("grid function lives on a different operator")
    pencil, mass_solve = _pencil(op, cfg.solver), mass_solver(op)
    r, delta = cfg.rational, cfg.delta
    shifts = _pole_shifts(r, delta, cfg.mesh.t_left, cfg.mesh.k)
    weights = _weights(r)
    u = delta ** (-cfg.alpha) * v.coeffs
    stats = RunStats()
    Mu = pencil.apply_M(u)
    prev_norm = float(np.sqrt(max(u @ Mu, 0.0)))
    for k, step_shifts in zip(cfg.mesh.k.tolist(), shifts):
        u = _apply_step(pencil, mass_solve, u, Mu, k, step_shifts, weights, delta)
        stats.steps += 1
        stats.solves += r.m
        # M u feeds both the growth norm and the next step's right-hand side
        Mu = pencil.apply_M(u)
        cur = float(np.sqrt(max(u @ Mu, 0.0)))
        if not math.isfinite(cur):
            raise SolveError(f"iterate not finite after step {stats.steps} of "
                             f"{cfg.mesh.num_steps} (M-norm {cur})")
        if prev_norm > 0:
            stats.max_growth = max(stats.max_growth, cur / prev_norm)
        prev_norm = cur
    stats.cg_iters, stats.cg_iters_max = pencil.iters, pencil.iters_max
    out = GridFunction(u, op)
    return (out, stats) if return_stats else out


def run_grm(v: GridFunction, op: DiscreteOperator, cfg: StepperConfig,
            return_stats: bool = False):
    """Geometric-mesh run: U_0 = delta**-alpha v stepped over all (L+1)*N steps."""
    return _run(v, op, cfg, "geometric", return_stats)


def run_um(v: GridFunction, op: DiscreteOperator, cfg: StepperConfig,
           return_stats: bool = False):
    """Uniform-mesh run with N steps of size 1/N."""
    return _run(v, op, cfg, "uniform", return_stats)
