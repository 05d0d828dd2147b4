"""SPD solve backends used by the steppers.

One rational step needs shifted solves (a K + b M) z = rhs and the applies
of K and M.  Every backend offers them through one protocol: ``apply_K(u)``,
``apply_M(u)``, ``solves(shifts, rhs)`` (one solve per row (a_i, b_i) of
``shifts``), and the CG iteration counts ``iters`` and ``iters_max`` (0 for
direct backends).  The step's mass solve is not part of it: M is always M1
or kron(M1, M1), solved exactly by ``fem.mass_solver``.

* ``BandedPencil``: 1D SPD tridiagonals, solved directly by LAPACK in
  ``_kernels`` (``?ptsv`` per shift).
* ``TensorDiagSolver``: tensor 2D systems by fast diagonalization in the 1D
  eigenbasis of ``spectral.eig_2d_tensor``, which caches it per operator.
* ``WarmStartCG``: tensor 2D systems by conjugate gradients, each solve
  warm-started from the previous one.  There is one CG: ``_pcg``, a
  Jacobi-preconditioned loop on a preassembled CSR matrix that repeats the
  recurrences and the stopping rule of ``scipy.sparse.linalg.cg``
  (atol = 0), so it returns the same bits without scipy's operator wrappers.

A backend is built for one run and holds that run's state (the CG warm
start and counts).  A generic entry point, ``solve_spd``, covers dense and
sparse SPD matrices for utility use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels
from .fem import DiscreteOperator
from .spectral import eig_2d_tensor


class SolveError(RuntimeError):
    """An SPD solve failed (breakdown or iteration budget exhausted)."""


@dataclass(frozen=True)
class SolverPolicy:
    """How shifted systems are solved: "direct" or "cg" (with tolerance)."""

    method: str = "direct"
    rtol: float = 1e-12
    maxiter: int = 20000

    def __post_init__(self):
        if self.method not in ("direct", "cg"):
            raise ValueError(f"unknown solver method {self.method!r}")


class BandedPencil:
    """The shifted pencil of a 1D operator: SPD tridiagonals solved by LAPACK."""

    iters = 0
    iters_max = 0

    def __init__(self, op: DiscreteOperator):
        self.Kd, self.Ke = op.stiffness_bands
        self.Md, self.Me = op.mass_bands
        # [diag | off-diag] of K and of M, so a * K_band + b * M_band is aK + bM
        self.K_band = np.concatenate(op.stiffness_bands)
        self.M_band = np.concatenate(op.mass_bands)

    def apply_K(self, u):
        return _kernels.tridiag_matvec(self.Kd, self.Ke, u)

    def apply_M(self, u):
        return _kernels.tridiag_matvec(self.Md, self.Me, u)

    def solves(self, shifts, rhs):
        n = len(rhs)
        bands = shifts[:, :1] * self.K_band
        bands += shifts[:, 1:] * self.M_band
        # one fresh band per row; the LAPACK solve factors it in place
        return [_kernels.tridiag_solve(band[:n], band[n:], rhs) for band in bands]


class _TensorPencil:
    """The protocol on a 2D operator around a per-shift ``solve(a, b, rhs)``."""

    iters = 0
    iters_max = 0

    def __init__(self, op: DiscreteOperator):
        self.K = op.stiffness.tocsr()
        self.M = op.mass.tocsr()

    def apply_K(self, u):
        return self.K @ u

    def apply_M(self, u):
        return self.M @ u

    def solves(self, shifts, rhs):
        return [self.solve(a, b, rhs) for a, b in shifts.tolist()]


class TensorDiagSolver(_TensorPencil):
    """Fast diagonalization for a*K2 + b*M2 on tensor operators.

    Built from the generalized eigenpairs of the 1D factor (K V = M V
    diag(lam), V^T M V = I), which ``eig_2d_tensor`` computes once per
    operator and shares with the reference solution and later runs; each
    solve costs four dense n x n multiplies.
    """

    def __init__(self, op: DiscreteOperator):
        if not op.is_tensor:
            raise ValueError("TensorDiagSolver requires a tensor operator")
        super().__init__(op)
        decomp = eig_2d_tensor(op)
        lam, V = decomp.lambdas_1d, decomp.modes
        self.V = V
        self.Vt = np.ascontiguousarray(V.T)
        self.lam_sum = lam[:, None] + lam[None, :]
        self.n = len(lam)

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        R = rhs.reshape(self.n, self.n)
        C = self.Vt @ R @ self.V
        C /= a * self.lam_sum + b
        return (self.V @ C @ self.Vt).ravel()


def _pcg(A, dinv: np.ndarray, b: np.ndarray, x0: np.ndarray | None, rtol: float,
         maxiter: int) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned CG on the SPD matrix A; returns (x, iterations).

    ``dinv`` is the inverse diagonal of A.  The start, the recurrences for
    p, x and r, and the test ``norm(r) < rtol * norm(b)`` before each
    iteration are those of ``scipy.sparse.linalg.cg`` with ``atol=0``, in
    the same order, so both return the same bits.  ``x0`` is not modified.
    Raises :class:`SolveError` at once when ``b`` is not finite, and when
    ``maxiter`` iterations do not converge.
    """
    bnrm = np.linalg.norm(b)
    if bnrm == 0:
        return b, 0
    if not math.isfinite(bnrm):
        raise SolveError(f"right-hand side not finite (norm {bnrm})")
    tol = rtol * bnrm
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - A @ x if x.any() else b.copy()
    z = np.empty_like(b)
    p = np.empty_like(b)
    step = np.empty_like(b)
    rho_prev = 1.0
    for it in range(maxiter):
        # sqrt(r . r) is how np.linalg.norm evaluates a real vector
        if math.sqrt(r.dot(r)) < tol:
            return x, it
        np.multiply(dinv, r, out=z)
        rho = r.dot(z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p[:] = z
        q = A @ p
        alpha = rho / p.dot(q)
        np.multiply(alpha, p, out=step)
        x += step
        np.multiply(alpha, q, out=step)
        r -= step
        rho_prev = rho
    res = np.linalg.norm(b - A @ x) / bnrm
    raise SolveError(
        f"cg did not converge in {maxiter} iterations: relative residual "
        f"{res:.3e}, target {rtol:.1e}"
    )


class WarmStartCG(_TensorPencil):
    """Jacobi-preconditioned CG (``_pcg``) on a*K2 + b*M2 with warm starts.

    K2 and M2 must share one CSR sparsity pattern, as the tensor assembly
    gives them.  The shifted matrix is built once on that pattern and each
    solve only rewrites its values as a*K2 + b*M2.  Each call reuses the
    previous solution as the initial guess; the shifted systems change
    slowly along a stepping run, so this typically saves a sizable fraction
    of the iterations.  ``iters`` and ``iters_max`` count the iterations
    (total and worst single solve) of this solver's lifetime, one run.
    """

    def __init__(self, op: DiscreteOperator, policy: SolverPolicy):
        super().__init__(op)
        K, M = self.K, self.M
        if not (np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)):
            raise ValueError("WarmStartCG needs stiffness and mass on one sparsity pattern")
        self.A = K.copy()
        self.Kdiag = K.diagonal()
        self.Mdiag = M.diagonal()
        self.policy = policy
        self._x0 = None

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        np.multiply(self.K.data, a, out=self.A.data)
        self.A.data += b * self.M.data
        dinv = 1.0 / (a * self.Kdiag + b * self.Mdiag)
        x, iters = _pcg(self.A, dinv, rhs, self._x0, self.policy.rtol, self.policy.maxiter)
        self.iters += iters
        self.iters_max = max(self.iters_max, iters)
        self._x0 = x
        return x


def solve_spd(matrix, rhs, policy: SolverPolicy | None = None) -> np.ndarray:
    """Solve A x = rhs for a symmetric positive definite A.

    ``matrix`` may be a dense array, a scipy sparse matrix, or the
    (diagonal, off-diagonal) pair of a symmetric tridiagonal.  Direct
    policies verify the residual to 1e-13 relative (1e-12 for CG) and raise
    :class:`SolveError` otherwise.
    """
    policy = policy or SolverPolicy()
    rhs = np.asarray(rhs, dtype=np.float64)
    if isinstance(matrix, tuple) and len(matrix) == 2:
        d, e = (np.asarray(band, dtype=np.float64) for band in matrix)
        try:
            x = _kernels.tridiag_solve(d.copy(), e.copy(), rhs)
        except np.linalg.LinAlgError as exc:
            raise SolveError(str(exc)) from exc
        resid = np.linalg.norm(_kernels.tridiag_matvec(d, e, x) - rhs)
        tol = 1e-13
    elif sp.issparse(matrix):
        if policy.method == "cg":
            A = matrix.tocsr()
            x, _ = _pcg(A, 1.0 / A.diagonal(), rhs, None, policy.rtol, policy.maxiter)
        else:
            x = spla.spsolve(sp.csc_matrix(matrix), rhs)
        resid = np.linalg.norm(matrix @ x - rhs)
        tol = max(policy.rtol, 1e-13) if policy.method == "cg" else 1e-13
    else:
        A = np.asarray(matrix, dtype=np.float64)
        c, low = sla.cho_factor(A, check_finite=False)
        x = sla.cho_solve((c, low), rhs, check_finite=False)
        resid = np.linalg.norm(A @ x - rhs)
        tol = 1e-12
    scale = np.linalg.norm(rhs)
    # written so that a NaN residual fails too
    if not resid <= tol * scale * max(1.0, np.sqrt(len(rhs))):
        raise SolveError(f"solve residual {resid / scale:.3e} above tolerance {tol:.1e}")
    return x
