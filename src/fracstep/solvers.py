"""SPD solve backends used by the steppers.

One rational step needs ``M u`` and a weighted sum of shifted solves,
sum_i c_i (a_i K + b_i M)^{-1} rhs, for every data case of a run.  The
cases of a run share every shift, so they travel together as one block of
shape (c, n), one row per case.  Every backend offers one protocol on that
block: ``apply_M(U)``, ``combine(shifts, coeffs, rhs)`` (one term per pair
(a_i, b_i) of ``shifts`` and weight c_i of ``coeffs``, applied to every
row), and ``iterations(j)``, the CG counts of row j (0 for direct
backends).  Each row of a result has the bits that a one-row block would
give it.  The step needs neither K nor a mass solve (see ``stepping``).

* ``BandedPencil``: 1D SPD tridiagonals, solved directly by LAPACK in
  ``_kernels`` (one ``?ptsv`` per shift for the whole block, handed over
  as the Fortran-ordered (n, c) view ``rhs.T``), the terms added up.
* ``TensorDiagSolver``: tensor 2D systems by fast diagonalization in the 1D
  eigenbasis of ``spectral.eig_2d_tensor``, which caches it per operator.
  The weighted sum is diagonal in that basis, so ``combine`` costs one
  modal multiplier, shared by the rows, and one transform and
  back-transform of the (c, n, n) stack (``solve``) for any number of
  shifts.
* ``WarmStartCG``: tensor 2D systems by conjugate gradients, the terms
  added up.  Each row keeps its own warm-start chain and iteration counts.
  There is one CG: ``_pcg``, a Jacobi-preconditioned loop on a preassembled
  CSR matrix that repeats the recurrences and the stopping rule of
  ``scipy.sparse.linalg.cg`` (atol = 0), so it returns the same bits
  without scipy's operator wrappers.

The tensor backends apply the CSR ``M`` one row at a time: a sparse product
with the whole block is slower than c vector products.  A backend is built
for one run and holds that run's state (the CG warm starts and counts).
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
    """``apply_M`` by a CSR ``M`` row by row, and ``combine`` as a sum of
    per-shift block ``solve(a, b, rhs)`` calls (``TensorDiagSolver`` sums in
    modal space)."""

    def apply_M(self, U):
        return np.stack([self.M @ u for u in U])

    def combine(self, shifts, coeffs, rhs):
        """sum_i coeffs[i] (a_i K + b_i M)^{-1} rhs over the pairs (a_i, b_i) of
        shifts, for every row of the (c, n) block rhs."""
        # summed from 0 like np.zeros, in fewer array operations
        return sum(c * self.solve(a, b, rhs) for (a, b), c in zip(shifts, coeffs))

    def iterations(self, column: int) -> tuple[int, int]:
        """(total, worst single solve) CG iterations of one row; 0 when direct."""
        return 0, 0


class BandedPencil(_Pencil):
    """The shifted pencil of a 1D operator: SPD tridiagonals solved by LAPACK."""

    def __init__(self, op: DiscreteOperator):
        # (1, n) rows: the block matvec then broadcasts without a rank change,
        # which keeps a one-row block as cheap as a vector
        self.Md, self.Me = (band[None] for band in op.mass_bands)
        # [diag | off-diag] of K and of M, so a * K_band + b * M_band is aK + bM
        self.K_band = np.concatenate(op.stiffness_bands)
        self.M_band = np.concatenate(op.mass_bands)
        self.n = len(op.mass_bands[0])

    def apply_M(self, U):
        return _kernels.tridiag_matvec(self.Md, self.Me, U)

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        # a fresh band per call; the LAPACK solve factors it in place and
        # reads the (n, c) Fortran view rhs.T without a copy
        band = a * self.K_band
        band += b * self.M_band
        return _kernels.tridiag_solve(band[:self.n], band[self.n:], rhs.T).T


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
        self.V = decomp.modes
        self.Vt = np.ascontiguousarray(self.V.T)
        self.n = len(self.V)
        self.lam_sum = decomp.lambda_grid.reshape(self.n, self.n)

    def combine(self, shifts, coeffs, rhs):
        modal = sum(c / (a * self.lam_sum + b) for (a, b), c in zip(shifts, coeffs))
        return self.solve(modal, rhs)

    def solve(self, modal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """V (modal * (V^T R V)) V^T for each n x n reshape R of a row of rhs.

        With ``modal = 1 / (a lam_sum + b)`` this solves (a K2 + b M2) x = rhs
        row by row; ``rhs`` is a (c, n^2) block or one vector.
        """
        C = self.Vt @ rhs.reshape(-1, self.n, self.n) @ self.V
        C *= modal
        return (self.V @ C @ self.Vt).reshape(rhs.shape)


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
    of the iterations.  Every row of the block has its own warm start, and
    ``iters`` and ``iters_max`` count the iterations of each row (total and
    worst single solve) over this solver's lifetime, one run of ``columns``
    rows.
    """

    def __init__(self, op: DiscreteOperator, policy: SolverPolicy, columns: int = 1):
        self.K = K = op.stiffness.tocsr()
        self.M = M = op.mass.tocsr()
        if not (np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)):
            raise ValueError("WarmStartCG needs stiffness and mass on one sparsity pattern")
        self.A = K.copy()
        self.Kdiag = K.diagonal()
        self.Mdiag = M.diagonal()
        self.policy = policy
        self._x0 = [None] * columns
        self.iters = [0] * columns
        self.iters_max = [0] * columns

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        """(a K2 + b M2)^{-1} applied to each row of the (c, n) block rhs."""
        np.multiply(self.K.data, a, out=self.A.data)
        self.A.data += b * self.M.data
        dinv = 1.0 / (a * self.Kdiag + b * self.Mdiag)
        out = np.empty_like(rhs)
        for j, row in enumerate(rhs):
            x, iters = _pcg(self.A, dinv, row, self._x0[j], self.policy.rtol,
                            self.policy.maxiter)
            self.iters[j] += iters
            self.iters_max[j] = max(self.iters_max[j], iters)
            self._x0[j] = out[j] = x
        return out

    def iterations(self, column: int) -> tuple[int, int]:
        return self.iters[column], self.iters_max[column]
