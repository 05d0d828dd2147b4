"""Operator-level time stepping for the discrete fractional power.

One step multiplies the iterate by r(k B (delta I + t B)^{-1}) where
B = A_h - delta I and A_h = M^{-1} K in coefficient space.  Through the
partial-fraction form this costs one shifted SPD solve per pole,

    G_i z_i = M u,   G_i = (k - x_i t)(K - delta M) - x_i delta M,

plus a single mass solve: since r(0) = 1, the update collapses to

    u_next = u + k M^{-1} (K - delta M) sum_i (w_i / x_i) z_i.

Every G_i is SPD because -x_i > 1 forces both (k - x_i t) > 0 and
delta (x_i (t - 1) - k) > 0 while t + k <= 1.  In 1D each G_i is a
tridiagonal solved by one LAPACK ?ptsv call, and M is factored once per
operator.  The shifts of every G_i are computed once per run, and the M u
of the growth norm after each step is the next step's right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import _kernels
from .fem import DiscreteOperator, GridFunction
from .meshes import TimeMesh
from .pade import PadeRational, pade_coefficients
from .solvers import SolveError, SolverPolicy, TensorDiagSolver, WarmStartCG

_BOUNDS_TOL = 1e-8
_BOUNDS_MAXITER = 10_000


@dataclass(frozen=True)
class SpectralBounds:
    """Certified bracket of the generalized spectrum of (K, M)."""

    lambda_min_est: float
    lambda_max_est: float
    certified: bool = True

    def __post_init__(self):
        if not 0 < self.lambda_min_est <= self.lambda_max_est:
            raise ValueError("need 0 < lambda_min_est <= lambda_max_est")


@dataclass(frozen=True, eq=False)
class StepperConfig:
    """Everything one run needs: exponent, order, shift, mesh and solver."""

    alpha: float
    m: int
    delta: float
    mesh: TimeMesh
    solver: SolverPolicy = SolverPolicy()
    rational: PadeRational = field(repr=False, default=None)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.rational is None:
            object.__setattr__(self, "rational", pade_coefficients(self.m, self.alpha))


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


class _StepWorkspace:
    """Per-(operator, policy) solve machinery reused across steps."""

    @classmethod
    def get(cls, op: DiscreteOperator, policy: SolverPolicy) -> "_StepWorkspace":
        # cached on the operator; the tensor eigensolve is worth reusing
        cache = getattr(op, "_workspaces", None)
        if cache is None:
            cache = {}
            object.__setattr__(op, "_workspaces", cache)
        key = (policy.method, policy.rtol, policy.maxiter)
        if key not in cache:
            cache[key] = cls(op, policy)
        return cache[key]

    def __init__(self, op: DiscreteOperator, policy: SolverPolicy):
        self.op = op
        self.policy = policy
        self.tensor_solver = None
        self.cg = None
        if op.dim == 1:
            self.Kd, self.Ke = op.stiffness_bands
            self.Md, self.Me = op.mass_bands
            # [diag | off-diag] of K and of M, so a * K_band + b * M_band is aK + bM
            self.K_band = np.concatenate(op.stiffness_bands)
            self.M_band = np.concatenate(op.mass_bands)
            self.mass_factor = _kernels.TridiagFactor(self.Md, self.Me)
        else:
            if policy.method == "direct":
                self.tensor_solver = TensorDiagSolver(op)
            else:
                self.cg = WarmStartCG(op, policy)
            self.K = op.stiffness.tocsr()
            self.M = op.mass.tocsr()

    def reset(self) -> None:
        """Start a new run: a CG warm start from an earlier one would change the bits."""
        if self.cg is not None:
            self.cg.reset()

    def mass_apply(self, u):
        if self.op.dim == 1:
            return _kernels.tridiag_matvec(self.Md, self.Me, u)
        return self.M @ u

    def stiff_apply(self, u):
        if self.op.dim == 1:
            return _kernels.tridiag_matvec(self.Kd, self.Ke, u)
        return self.K @ u

    def shifted_solve(self, a, b, rhs):
        """Solve (a K + b M) z = rhs on a 2D operator."""
        if self.tensor_solver is not None:
            return self.tensor_solver.solve(a, b, rhs)
        return self.cg.solve(a, b, rhs)

    def shifted_solves(self, shifts, rhs):
        """Solve (a_i K + b_i M) z_i = rhs for every row (a_i, b_i) of shifts."""
        if self.op.dim == 1:
            n = len(rhs)
            bands = shifts[:, :1] * self.K_band
            bands += shifts[:, 1:] * self.M_band
            # one fresh band per row; the LAPACK solve factors it in place
            return [_kernels.tridiag_solve(band[:n], band[n:], rhs) for band in bands]
        return [self.shifted_solve(a, b, rhs) for a, b in shifts.tolist()]

    def mass_solve(self, rhs):
        if self.op.dim == 1:
            return self.mass_factor.solve(rhs)
        return self.shifted_solve(0.0, 1.0, rhs)


def _pole_shifts(r: PadeRational, delta: float, t: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(a, b) of G_i = a K + b M for every step and pole, shape (steps, m, 2)."""
    t, k = t[:, None], k[:, None]
    a = k - r.poles * t
    b = delta * (r.poles * (t - 1.0) - k)
    return np.stack([a, b], axis=-1)


def _apply_step(ws: _StepWorkspace, u: np.ndarray, Mu: np.ndarray, k: float,
                shifts: np.ndarray, weights: list, delta: float) -> np.ndarray:
    """One step of size k from u, given Mu = M u and the step's pole shifts."""
    if k == 0.0:
        return u.copy()
    zs = ws.shifted_solves(shifts, Mu)
    acc = weights[0] * zs[0]
    for c, z in zip(weights[1:], zs[1:]):
        acc += c * z
    # B acc = K acc - delta M acc; folding delta into one K - delta M band
    # cancels digits and moves the published errors by about 1%
    rhs = ws.stiff_apply(acc) - delta * ws.mass_apply(acc)
    return u + k * ws.mass_solve(rhs)


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
    ws = _StepWorkspace.get(op, cfg.solver)
    ws.reset()
    shifts = _pole_shifts(r, cfg.delta, np.array([t]), np.array([k]))[0]
    Mu = ws.mass_apply(u.coeffs)
    return GridFunction(
        _apply_step(ws, u.coeffs, Mu, k, shifts, _weights(r), cfg.delta), op)


def _run(v: GridFunction, op: DiscreteOperator, cfg: StepperConfig, kind: str,
         return_stats: bool):
    if cfg.mesh.kind != kind:
        raise ValueError(f"configuration holds a {cfg.mesh.kind} mesh, expected {kind}")
    if v.op is not op:
        raise ValueError("grid function lives on a different operator")
    ws = _StepWorkspace.get(op, cfg.solver)
    ws.reset()
    r, delta = cfg.rational, cfg.delta
    shifts = _pole_shifts(r, delta, cfg.mesh.t_left, cfg.mesh.k)
    weights = _weights(r)
    u = delta ** (-cfg.alpha) * v.coeffs
    stats = RunStats()
    Mu = ws.mass_apply(u)
    prev_norm = float(np.sqrt(max(u @ Mu, 0.0)))
    for k, step_shifts in zip(cfg.mesh.k.tolist(), shifts):
        u = _apply_step(ws, u, Mu, k, step_shifts, weights, delta)
        stats.steps += 1
        stats.solves += r.m
        # M u feeds both the growth norm and the next step's right-hand side
        Mu = ws.mass_apply(u)
        cur = float(np.sqrt(max(u @ Mu, 0.0)))
        if prev_norm > 0:
            stats.max_growth = max(stats.max_growth, cur / prev_norm)
        prev_norm = cur
    if ws.cg is not None:
        stats.cg_iters, stats.cg_iters_max = ws.cg.iters, ws.cg.iters_max
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
