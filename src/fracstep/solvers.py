"""SPD solve backends used by the steppers.

1D systems are SPD tridiagonals, solved directly by LAPACK in ``_kernels``.
Tensor 2D systems a*K2 + b*M2 are solved either by fast diagonalization in
the 1D eigenbasis (direct, default) or by Jacobi-preconditioned conjugate
gradients with warm starts (policy "cg").  A generic entry point covers
dense and sparse SPD matrices for utility use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels
from .fem import DiscreteOperator


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


class TensorDiagSolver:
    """Fast diagonalization for a*K2 + b*M2 on tensor operators.

    Built once per operator from the generalized eigenpairs of the 1D
    factor (K V = M V diag(lam), V^T M V = I); each solve costs four dense
    n x n multiplies.
    """

    def __init__(self, op: DiscreteOperator):
        if not op.is_tensor:
            raise ValueError("TensorDiagSolver requires a tensor operator")
        lam, V = sla.eigh(op.factor.stiffness.toarray(), op.factor.mass.toarray())
        self.lam = lam
        self.V = V
        self.Vt = np.ascontiguousarray(V.T)
        self.lam_sum = lam[:, None] + lam[None, :]
        self.n = len(lam)

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        R = rhs.reshape(self.n, self.n)
        C = self.Vt @ R @ self.V
        C /= a * self.lam_sum + b
        return (self.V @ C @ self.Vt).ravel()


class WarmStartCG:
    """Conjugate gradients on a*K2 + b*M2 with Jacobi scaling.

    Each call reuses the previous solution as the initial guess; the shifted
    systems change slowly along a stepping run, so this typically saves a
    sizable fraction of the iterations.
    """

    def __init__(self, op: DiscreteOperator, policy: SolverPolicy):
        self.K = op.stiffness.tocsr()
        self.M = op.mass.tocsr()
        self.Kdiag = self.K.diagonal()
        self.Mdiag = self.M.diagonal()
        self.policy = policy
        self._x0 = None

    def reset(self) -> None:
        """Forget the warm start; the next solve starts from zero."""
        self._x0 = None

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        A = (a * self.K + b * self.M).tocsr()
        dinv = 1.0 / (a * self.Kdiag + b * self.Mdiag)
        precond = spla.LinearOperator(A.shape, matvec=lambda x: dinv * x)
        x, info = spla.cg(
            A,
            rhs,
            x0=self._x0,
            rtol=self.policy.rtol,
            atol=0.0,
            maxiter=self.policy.maxiter,
            M=precond,
        )
        if info != 0:
            res = np.linalg.norm(A @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
            raise SolveError(
                f"cg failed (info={info}) at relative residual {res:.3e}, "
                f"target {self.policy.rtol:.1e}"
            )
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
            dinv = 1.0 / A.diagonal()
            precond = spla.LinearOperator(A.shape, matvec=lambda v: dinv * v)
            x, info = spla.cg(A, rhs, rtol=policy.rtol, atol=0.0,
                              maxiter=policy.maxiter, M=precond)
            if info != 0:
                raise SolveError(f"cg failed with info={info}")
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
    if scale > 0 and resid > tol * scale * max(1.0, np.sqrt(len(rhs))):
        raise SolveError(f"solve residual {resid / scale:.3e} above tolerance {tol:.1e}")
    return x
