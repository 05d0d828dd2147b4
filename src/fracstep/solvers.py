"""SPD solve backends used by the steppers.

One rational step needs a weighted sum of shifted solves,
sum_i c_i (a_i K + b_i M)^{-1} M u, and the M-norm of u, for every data
case of a run.  The cases of a run share every shift, so they travel
together as one block of shape (c, n), one row per case.  Every backend
offers one protocol on that block: ``fold(U)`` and ``unfold(U)``, which
move it to and from the coordinates the backend steps in (U itself, but
for ``TensorDiagSolver``), ``load(U)`` on the moved block, which gives a
right-hand side block and the squared M-norm of each row, ``combine(shifts,
coeffs, rhs)`` on that right-hand side (one term per pair (a_i, b_i) of
``shifts`` and weight c_i of ``coeffs``, applied to every row), which gives
a block in the same coordinates as U, and ``iterations(j)``, the CG counts
of row j (0 for direct backends).  Each row of a result has the bits that a
one-row block would give it.  The step needs neither K nor a mass solve
(see ``stepping``).

* ``BandedPencil``: 1D SPD tridiagonals, solved directly by LAPACK in
  ``_kernels`` (one ``?ptsv`` per shift for the whole block, handed over
  as the Fortran-ordered (n, c) view ``rhs.T``), each term scaled and
  added in place.  The pencil is built for its block height c: it builds
  each aK + bM in a band buffer of its own, which LAPACK factors in place,
  and holds the mass bands tiled over the flat (c n,) block, so ``load``
  is one contiguous banded ``M U`` (no product across a row boundary, so
  rows stay apart, a non-finite one included) and u . M u per row.
* ``TensorDiagSolver``: tensor 2D systems by fast diagonalization in the 1D
  eigenbasis of the decomposition that ``spectral.eig_2d_tensor`` caches
  per operator (no transform of its own).  Its iterate is parity-folded
  along both grid axes (``fold``, see ``spectral``) for the whole run, so
  every transform is two half-size GEMMs per side.  ``load`` gives the
  mode coefficients of each row, P^T U P along both axes in the folded
  mode order, and their squared Euclidean norm, which is the squared
  M-norm (Parseval), so no step makes a sparse product.  The weighted sum
  is diagonal in the modes, so ``combine`` costs one modal multiplier on
  ``lambda_grid``, shared by the rows, and one synthesis back to the folded
  grid (``solve``) for any number of shifts.
* ``PreconditionedCG``: tensor 2D systems by conjugate gradients, the
  terms added up, each row solved from zero to the relative residual
  ``CG_RTOL`` within ``CG_MAXITER`` iterations, with its own iteration counts.
  Each solve is preconditioned by the modal inverse of its own shifted
  pencil, the decomposition's ``apply`` with one shift's multiplier, which
  is exact on these constant-coefficient operators.  ``apply`` multiplies
  the unfolded grid by the dense modes: a fold per preconditioner call
  would cost more than its half-size products save.
  There is one CG: ``_pcg``, a loop on a preassembled CSR matrix that
  repeats the recurrences and the stopping rule of
  ``scipy.sparse.linalg.cg`` (atol = 0), so it returns the same bits
  without scipy's operator wrappers.  It is the only reader of a tensor
  operator's CSR pair (K2, M2), which the operator builds from the bands
  of its 1D factor on the first read and keeps (see
  ``fem.DiscreteOperator``), so once per operator, not per run.  ``load``
  is ``M U`` by the CSR ``M`` one row at a time (a sparse product with the
  whole block is slower than c vector products) and u . M u per row.

A backend is built for one run and holds that run's state (the CG
iteration counts).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401  a module global that perfbench/tracing.py swaps

from . import _kernels
from .fem import DiscreteOperator
from .spectral import eig_2d_tensor


class SolveError(RuntimeError):
    """An SPD solve failed (breakdown or iteration budget exhausted)."""


SOLVERS = ("direct", "cg")  # the solver names a run can pick (see stepping._pencil)
CG_RTOL = 1e-12  # the relative residual every CG solve stops at
CG_MAXITER = 20_000  # the iteration budget of every CG solve


class _Pencil:
    """``load`` by the subclass's ``apply_M``, and ``combine`` as a sum of
    per-shift block ``solve(a, b, rhs)`` calls, each a fresh array
    (``TensorDiagSolver`` loads and sums in modal space)."""

    def fold(self, U):
        """The block in the coordinates the backend steps in: U itself here."""
        return U

    def unfold(self, U):
        """Inverse of :meth:`fold`."""
        return U

    def load(self, U):
        """(M U, [u . M u for each row u]) for the (c, n) block U."""
        MU = self.apply_M(U)
        # ndarray.dot gives the bits of u @ Mu at half the call cost
        return MU, [float(u.dot(Mu)) for u, Mu in zip(U, MU)]

    def combine(self, shifts, coeffs, rhs):
        """sum_i coeffs[i] (a_i K + b_i M)^{-1} rhs over the pairs (a_i, b_i) of
        shifts, for every row of the (c, n) block rhs = ``load(U)[0]``."""
        # in place, with no temporary per term and no sum from 0
        out = self.solve(*shifts[0], rhs)
        out *= coeffs[0]
        for (a, b), c in zip(shifts[1:], coeffs[1:]):
            term = self.solve(a, b, rhs)
            term *= c
            out += term
        return out

    def iterations(self, column: int) -> tuple[int, int]:
        """(total, worst single solve) CG iterations of one row; 0 when direct."""
        return 0, 0


class BandedPencil(_Pencil):
    """The shifted pencil of a 1D operator on blocks of ``columns`` rows: SPD
    tridiagonals solved by LAPACK, the mass apply on the flat block."""

    def __init__(self, op: DiscreteOperator, columns: int = 1):
        md, me = op.mass_bands
        self.n = len(md)
        # the mass bands tiled over the flat (columns * n,) block; the
        # coupling across each row boundary is never used
        self.Md = np.tile(md, columns)
        self.Me = np.tile(np.append(me, 0.0), columns)[:-1]
        # [diag | off-diag] of K and of M, so a * K_band + b * M_band is aK + bM
        self.K_band = np.concatenate(op.stiffness_bands)
        self.M_band = np.concatenate(op.mass_bands)
        self.band = np.empty_like(self.K_band)
        self.scratch = np.empty_like(self.M_band)

    def apply_M(self, U):
        flat = _kernels.tridiag_matvec(self.Md, self.Me, U.reshape(-1), self.n)
        return flat.reshape(U.shape)

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        # aK + bM in the pencil's band buffer, which the LAPACK solve factors
        # in place; it reads the (n, c) Fortran view rhs.T without a copy
        band = np.multiply(self.K_band, a, out=self.band)
        band += np.multiply(self.M_band, b, out=self.scratch)
        return _kernels.tridiag_solve(band[:self.n], band[self.n:], rhs.T).T


class _TensorPencil(_Pencil):
    """What the two tensor backends share: the decomposition
    ``eig_2d_tensor(op)``, computed once per operator and shared with the
    reference; its ``apply`` with 1 / (a lambda_grid + b) is (a K2 + b M2)^{-1}."""

    def __init__(self, op: DiscreteOperator):
        if op.dim != 2:
            raise ValueError(f"{type(self).__name__} requires a tensor operator")
        self.decomp = eig_2d_tensor(op)
        self.n = len(self.decomp.lambdas_1d)


class TensorDiagSolver(_TensorPencil):
    """Fast diagonalization for sums of (a_i K2 + b_i M2)^{-1} M2 on tensor
    operators, on parity-folded blocks (``fold``) in the folded mode order:
    per step and row, two pairs of half-size products analyse U (``load``)
    and two synthesize the result (``solve``), however many shifts."""

    def fold(self, U):
        return self.decomp.fold(U)

    def unfold(self, U):
        return self.decomp.unfold(U)

    def load(self, U):
        """(C, [c . c for each row c]) with C the mode coefficients of the
        folded block U."""
        C = self.decomp.folded_coefficients(U)
        return C, [float(c.dot(c)) for c in C]

    def combine(self, shifts, coeffs, rhs):
        lam = self.decomp.lambda_grid
        return self.solve(sum(c / (a * lam + b) for (a, b), c in zip(shifts, coeffs)), rhs)

    def solve(self, modal: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """modes (modal * coeffs) along both axes, row by row, folded:
        (a K2 + b M2)^{-1} M2 u for ``modal = 1 / (a lambda_grid + b)`` and
        ``coeffs`` the mode coefficients of u; any other modal multiplier is
        applied the same way."""
        return self.decomp.folded_synthesize(modal * coeffs)


def _pcg(A, precond, b: np.ndarray, rtol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Preconditioned CG on the SPD matrix A from zero; returns (x, iterations).

    ``precond(r)`` applies an SPD approximation of A^{-1} to a vector.  The
    recurrences for p, x and r, and the test ``norm(r) < rtol * norm(b)``
    before each iteration, are those of ``scipy.sparse.linalg.cg`` with
    ``atol=0`` and ``M`` a ``LinearOperator`` of ``precond``, in the same
    order, so both return the same bits; unlike scipy, the test runs once
    more after the last iteration.
    Raises :class:`SolveError` at once when ``b`` is not finite, and when
    ``maxiter`` iterations do not converge.
    """
    bnrm = np.linalg.norm(b)
    if bnrm == 0:
        return b, 0
    if not math.isfinite(bnrm):
        raise SolveError(f"right-hand side not finite (norm {bnrm})")
    tol = rtol * bnrm
    x, r = np.zeros_like(b), b.copy()
    p = np.empty_like(b)
    step = np.empty_like(b)
    rho_prev = 1.0
    for it in range(maxiter):
        # sqrt(r . r) is how np.linalg.norm evaluates a real vector
        if math.sqrt(r.dot(r)) < tol:
            return x, it
        z = precond(r)
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
    if math.sqrt(r.dot(r)) < tol:
        return x, maxiter
    res = np.linalg.norm(b - A @ x) / bnrm
    raise SolveError(
        f"cg did not converge in {maxiter} iterations: relative residual "
        f"{res:.3e}, target {rtol:.1e}"
    )


class PreconditionedCG(_TensorPencil):
    """CG (``_pcg``) on a*K2 + b*M2, preconditioned by fast diagonalization.

    Each solve is preconditioned by the modal inverse of the pencil at its
    own shift, ``decomp.apply`` with ``1 / (a lambda_grid + b)`` (Concus & Golub
    1973).  On the constant-coefficient operators of ``assemble_2d_tensor``
    it is the exact inverse, so a solve takes one or two iterations.
    K2 and M2 are the operator's CSR pair, built from its 1D factor's bands
    by the first reader and then shared by every run on it.  They must
    share one sparsity pattern, as the tensor assembly gives them: the
    shifted matrix is built once per solver on that pattern and each solve
    only rewrites its values.  Every solve starts from zero, and ``iters``
    and ``iters_max`` count the iterations of each row (total and worst
    single solve) over this solver's lifetime, one run of ``columns`` rows.
    """

    def __init__(self, op: DiscreteOperator, columns: int = 1):
        super().__init__(op)
        self.K = K = op.stiffness.tocsr()
        self.M = M = op.mass.tocsr()
        if not (np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)):
            raise ValueError("PreconditionedCG needs stiffness and mass on one "
                             "sparsity pattern")
        self.A = K.copy()
        self.iters = [0] * columns
        self.iters_max = [0] * columns

    def apply_M(self, U):
        return np.stack([self.M @ u for u in U])

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        """(a K2 + b M2)^{-1} applied to each row of the (c, n) block rhs."""
        np.multiply(self.K.data, a, out=self.A.data)
        self.A.data += b * self.M.data
        # the decomposition, not TensorDiagSolver.solve: perfbench/tracing.py
        # counts the calls of that method as direct solves
        precond = functools.partial(self.decomp.apply, 1.0 / (a * self.decomp.lambda_grid + b))
        out = np.empty_like(rhs)
        for j, row in enumerate(rhs):
            out[j], iters = _pcg(self.A, precond, row, CG_RTOL, CG_MAXITER)
            self.iters[j] += iters
            self.iters_max[j] = max(self.iters_max[j], iters)
        return out

    def iterations(self, column: int) -> tuple[int, int]:
        return self.iters[column], self.iters_max[column]


# the name perfbench/tracing.py patches the CG solve under
WarmStartCG = PreconditionedCG
