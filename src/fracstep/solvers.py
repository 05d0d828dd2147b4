"""SPD solve backends used by the steppers.

One rational step needs ``M u`` and a weighted sum of shifted solves,
sum_i c_i (a_i K + b_i M)^{-1} rhs.  Every backend offers exactly that
through one protocol: ``apply_M(u)``, ``combine(shifts, coeffs, rhs)``
(one term per pair (a_i, b_i) of ``shifts`` and weight c_i of ``coeffs``),
and the CG iteration counts ``iters`` and ``iters_max`` (0 for direct
backends).  The step needs neither K nor a mass solve (see ``stepping``).

* ``BandedPencil``: 1D SPD tridiagonals, solved directly by LAPACK in
  ``_kernels`` (``?ptsv`` per shift), the terms added up.
* ``TensorDiagSolver``: tensor 2D systems by fast diagonalization in the 1D
  eigenbasis of ``spectral.eig_2d_tensor``, which caches it per operator.
  The weighted sum is diagonal in that basis, so ``combine`` costs one
  transform and one back-transform (``solve``) for any number of shifts.
* ``WarmStartCG``: tensor 2D systems by conjugate gradients, each solve
  warm-started from the previous one, the terms added up.  There is one
  CG: ``_pcg``, a Jacobi-preconditioned loop on a preassembled CSR matrix
  that repeats the recurrences and the stopping rule of
  ``scipy.sparse.linalg.cg`` (atol = 0), so it returns the same bits
  without scipy's operator wrappers.

A backend is built for one run and holds that run's state (the CG warm
start and counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401  a module global that perfbench/tracing.py swaps

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


class _Pencil:
    """``apply_M`` by a CSR ``M``, and ``combine`` as a sum of per-shift
    ``solve(a, b, rhs)`` calls (``TensorDiagSolver`` sums in modal space)."""

    iters = 0
    iters_max = 0

    def apply_M(self, u):
        return self.M @ u

    def combine(self, shifts, coeffs, rhs):
        """sum_i coeffs[i] (a_i K + b_i M)^{-1} rhs over the pairs (a_i, b_i) of shifts."""
        acc = np.zeros_like(rhs)
        for (a, b), c in zip(shifts, coeffs):
            acc += c * self.solve(a, b, rhs)
        return acc


class BandedPencil(_Pencil):
    """The shifted pencil of a 1D operator: SPD tridiagonals solved by LAPACK."""

    def __init__(self, op: DiscreteOperator):
        self.Md, self.Me = op.mass_bands
        # [diag | off-diag] of K and of M, so a * K_band + b * M_band is aK + bM
        self.K_band = np.concatenate(op.stiffness_bands)
        self.M_band = np.concatenate(op.mass_bands)
        self.n = len(self.Md)

    def apply_M(self, u):
        return _kernels.tridiag_matvec(self.Md, self.Me, u)

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        # a fresh band per call; the LAPACK solve factors it in place
        band = a * self.K_band
        band += b * self.M_band
        return _kernels.tridiag_solve(band[:self.n], band[self.n:], rhs)


class TensorDiagSolver(_Pencil):
    """Fast diagonalization for sums of (a_i K2 + b_i M2)^{-1} on tensor operators.

    Built from the generalized eigenpairs of the 1D factor (K V = M V
    diag(lam), V^T M V = I), which ``eig_2d_tensor`` computes once per
    operator and shares with the reference solution and later runs.  In
    that basis (a K2 + b M2)^{-1} is the diagonal 1 / (a lam_sum + b), so a
    whole weighted sum of solves is one modal multiplier and costs four
    dense n x n multiplies, however many shifts it has.
    """

    def __init__(self, op: DiscreteOperator):
        if not op.is_tensor:
            raise ValueError("TensorDiagSolver requires a tensor operator")
        self.M = op.mass.tocsr()
        decomp = eig_2d_tensor(op)
        lam, V = decomp.lambdas_1d, decomp.modes
        self.V = V
        self.Vt = np.ascontiguousarray(V.T)
        self.lam_sum = lam[:, None] + lam[None, :]
        self.n = len(lam)

    def combine(self, shifts, coeffs, rhs):
        modal = sum(c / (a * self.lam_sum + b) for (a, b), c in zip(shifts, coeffs))
        return self.solve(modal, rhs)

    def solve(self, modal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """V (modal * (V^T R V)) V^T, R the n x n reshape of rhs.

        With ``modal = 1 / (a lam_sum + b)`` this solves (a K2 + b M2) x = rhs.
        """
        C = self.Vt @ rhs.reshape(self.n, self.n) @ self.V
        C *= modal
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


class WarmStartCG(_Pencil):
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
        self.K = K = op.stiffness.tocsr()
        self.M = M = op.mass.tocsr()
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
