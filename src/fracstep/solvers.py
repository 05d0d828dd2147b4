"""SPD solve backends used by the steppers.

One rational step is u_next = s u + sum_i w_i (a_i K + b_i M)^{-1} M u,
plus the M-norm of u_next, for every data case of a run.  The cases of a
run share every shift, so they travel together as one block of shape
(c, n), one row per case.  Every backend offers one protocol on that
block: ``fold(U)`` and ``unfold(U)``, which move it to and from the
coordinates the backend steps in (U itself, but for ``TensorDiagSolver``),
``load(U)`` on the moved block, which gives a right-hand side block and the
squared M-norm of each row, ``step(terms, U, rhs)`` on that right-hand
side, which gives u_next in the same coordinates, and ``iterations(j)``,
the CG counts of row j (0 for direct backends).  ``terms`` holds (a_i, b_i,
w_i) of each pole i, then s, one column per run (for one run, a list of
floats).  Each row of a result has the bits a one-row block would give it.

* ``BandedPencil``: 1D SPD tridiagonals, solved directly by LAPACK in
  ``_kernels``, for a batch of runs in lockstep (one run is a batch of
  one).  Their dofs sit end to end in one tridiagonal with a zero coupling
  between runs, which come by decreasing pole count, so pole i is one
  ``?ptsv`` over the runs that have it, for the whole block (the Fortran
  (n, c) view ``rhs.T``); each aK + bM is built in a band buffer that LAPACK
  factors in place.  A zero off-diagonal makes the ``?pttrf``/``?ptts2``
  recurrences exact identities for finite data, so each run keeps its bits.
  ``load`` is one banded ``M U`` on the flat (c n,) block that forms no
  product across a row or run boundary, and u . M u per row and run.
* ``TensorDiagSolver``: tensor 2D systems by fast diagonalization in the 1D
  eigenbasis of the decomposition that ``spectral.eig_2d_tensor`` builds
  once per operator (no transform of its own).  Its iterate is parity-folded
  along both grid axes (``fold``, see ``spectral``) for the whole run, so
  every transform is two half-size GEMMs per side.  ``load`` gives the
  mode coefficients of each row, P^T U P along both axes in the folded
  mode order, and their squared Euclidean norm, which is the squared
  M-norm (Parseval), so no step makes a sparse product.  The weighted sum
  is diagonal in the modes, so ``step`` costs one modal multiplier on
  ``lambda_grid``, shared by the rows, and one synthesis back to the folded
  grid (``solve``) for any number of shifts.
* ``PreconditionedCG``: tensor 2D systems by conjugate gradients, the
  terms added up, each row solved from zero to the relative residual
  ``CG_RTOL`` within ``CG_MAXITER`` iterations, with its own iteration counts.
  Each solve is preconditioned by the modal inverse of its own shifted
  pencil, which is exact on these constant-coefficient operators.  There
  is one CG: ``_pcg``, a loop that repeats the recurrences and the
  stopping rule of ``scipy.sparse.linalg.cg`` (atol = 0), so it returns
  the same bits without scipy's operator wrappers.  All that only CG reads
  is the last block of this module: ``_cg_state(op)`` builds K1 and M1
  from the operator's own 1D bands as dense n x n matrices and takes the
  dense sine modes of that 1D pair, once per operator and for as long as
  the operator lives.  Every product is on the n x n grid X of a vector,
  through the 1D matrices (a K2 + b M2 = T (x) M1 + M1 (x) T with
  T = a K1 + (b/2) M1): T X M1 + M1 X T in ``solve``, and M1 X M1 for
  every row of the block at once in ``load``.

Every ``step`` first sums the poles' terms w_i z_i, then adds s u.  The
tensor backends step one run.  A tensor operator holds the bands of its 1D
pair and ``dim = 2``, so every backend reads the operator's own bands, and
``op.dim`` picks the backend.  ``pencil`` picks and builds the backend of
one run or batch, which holds its CG counts.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import _kernels
from .fem import DiscreteOperator, per_operator
from .spectral import eig_1d, eig_2d_tensor

# perfbench/tracing.py wraps this name as scipy.sparse.linalg; nothing here calls it
spla = None


class SolveError(RuntimeError):
    """An SPD solve failed (breakdown or iteration budget exhausted)."""


SOLVERS = ("direct", "cg")  # the solver names a run can pick (see ``pencil``)
CG_RTOL = 1e-12  # the relative residual every CG solve stops at
CG_MAXITER = 20_000  # the iteration budget of every CG solve


def require_solver(name, dim: int) -> None:
    """Refuse a solver name not in ``SOLVERS``, and "cg" in dimension 1: it
    serves tensor operators only (1D solves are always direct)."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}")
    if name == "cg" and dim == 1:
        raise ValueError("the cg solver needs a 2D (tensor) operator; 1D solves are always direct")


def pencil(ops, solver: str = "direct", columns: int = 1, poles=(1,)):
    """The backend of one run, or of a batch of 1D runs, on ``ops`` with
    ``columns`` rows and ``poles[r]`` poles in run r (non-increasing):
    ``BandedPencil`` in 1D; in 2D, where a run steps alone,
    ``PreconditionedCG`` for ``solver="cg"``, else ``TensorDiagSolver``."""
    op = ops[0]
    require_solver(solver, op.dim)
    if len(ops) > 1 and any(o.dim != 1 for o in ops):
        raise ValueError("only 1D runs step as a batch; a 2D run steps alone")
    if solver == "cg":
        return PreconditionedCG(op, columns)
    return TensorDiagSolver(op) if op.dim == 2 else BandedPencil(ops, columns, poles)


class _Pencil:
    """The identity ``fold``/``unfold`` and no CG iterations, unless overridden."""

    def fold(self, U):
        """The block in the coordinates the backend steps in: U itself here."""
        return U

    def unfold(self, U):
        """Inverse of :meth:`fold`."""
        return U

    def iterations(self, column: int) -> tuple[int, int]:
        """(total, worst single solve) CG iterations of one row; 0 when direct."""
        return 0, 0


class BandedPencil(_Pencil):
    """The shifted pencils of a batch of 1D runs on ``ops`` with ``poles[r]``
    poles each (non-increasing), on blocks of ``columns`` rows: one stacked
    SPD tridiagonal per pole solved by LAPACK, the mass apply on the flat
    block."""

    def __init__(self, ops, columns: int = 1, poles=(1,)):
        self.sizes = [op.n_dofs for op in ops]
        ends = np.cumsum(self.sizes)
        self.runs = [slice(end - size, end) for size, end in zip(self.sizes, ends)]
        # [diagonal; off-diagonal] of K and of M, 0 after each run's last dof
        K, M = (np.stack([np.concatenate([b[0] for b in bands]),
                          np.concatenate([np.append(b[1], 0.0) for b in bands])])
                for bands in ([op.stiffness_bands for op in ops], [op.mass_bands for op in ops]))
        # the mass bands tiled over the flat (columns * N,) block, and the
        # couplings across its run and row boundaries, never formed
        self.Md, self.Me = np.tile(M[0], columns), np.tile(M[1], columns)[:-1]
        cuts = (ends - 1 + ends[-1] * np.arange(columns)[:, None]).ravel()[:-1]
        self.cuts = cuts if len(cuts) else None
        band, scratch = np.empty_like(K), np.empty_like(K)  # aK + bM is built in band
        # per pole, the bands over the runs that have it, a prefix of the stack
        widths = [int(ends[sum(m > p for m in poles) - 1]) for p in range(poles[0])]
        self.poles = [(K[:, :w], M[:, :w], band[:, :w], scratch[:, :w],
                       band[0, :w], band[1, :w - 1], w) for w in widths]
        # the width each row of the terms is cut to: three per pole, then s
        self.term_widths = [w for w in widths for _ in range(3)] + [int(ends[-1])]

    def load(self, U):
        """(M U, [u . M u for each row and run, row by row])."""
        MU = _kernels.tridiag_matvec(self.Md, self.Me, U.reshape(-1), self.cuts).reshape(U.shape)
        pairs = zip(U, MU) if len(self.runs) == 1 else (
            (u[run], Mu[run]) for u, Mu in zip(U, MU) for run in self.runs)
        # ndarray.dot gives the bits of u @ Mu at half the call cost
        return MU, [float(u.dot(Mu)) for u, Mu in pairs]

    def step(self, terms, U, rhs):
        """u_next of every run, ``terms`` a (3 m + 1, runs) array (floats for one)."""
        if len(self.sizes) > 1:
            # each run's column spread over its dofs, cut to the runs of each pole
            terms = [row[:w] for row, w in zip(np.repeat(terms, self.sizes, axis=1),
                                                self.term_widths)]
        out = None
        for (K, M, band, scratch, d, e, w), a, b, c in zip(self.poles, terms[0::3],
                                                           terms[1::3], terms[2::3]):
            # aK + bM in the band buffer, which the LAPACK solve factors in place
            np.multiply(K, a, out=band)
            band += np.multiply(M, b, out=scratch)
            z = _kernels.tridiag_solve(d, e, rhs[:, :w].T).T
            # in place, with no temporary per term and no sum from 0
            z *= c
            if out is None:
                out = z
            else:
                out[:, :w] += z
        out += terms[-1] * U
        return out


class TensorDiagSolver(_Pencil):
    """Fast diagonalization for sums of (a_i K2 + b_i M2)^{-1} M2 on tensor
    operators, on parity-folded blocks (``fold``) in the folded mode order:
    per step and row, two pairs of half-size products analyse U (``load``)
    and two synthesize the result (``solve``), however many shifts, in the
    basis ``eig_2d_tensor(op)`` that the reference shares."""

    def __init__(self, op: DiscreteOperator):
        self.decomp = eig_2d_tensor(op)
        self.n = len(self.decomp.lambdas_1d)  # read by perfbench/tracing.py's flop tally

    def fold(self, U):
        # the modal product and the transforms' work array of every step of the
        # run: fresh 2-row blocks each step are mapped and unmapped by malloc
        self._work = np.empty((2, *U.shape))
        return self.decomp.fold(U)

    def unfold(self, U):
        return self.decomp.unfold(U)

    def load(self, U):
        """(C, [c . c for each row c]) with C the mode coefficients of the
        folded block U."""
        C = self.decomp.folded_coefficients(U, self._work[1])
        return C, [float(c.dot(c)) for c in C]

    def step(self, terms, U, rhs):
        """u_next of the one run's ``terms`` (floats), rhs = ``load(U)[0]``:
        one ``solve`` with the weighted sum of the poles' modal inverses."""
        lam = self.decomp.lambda_grid
        poles = zip(terms[0::3], terms[1::3], terms[2::3])  # the m poles, not s
        out = self.solve(sum(c / (a * lam + b) for a, b, c in poles), rhs)
        out += np.multiply(terms[-1], U, out=self._work[0])
        return out

    # a method of its own: perfbench/tracing.py wraps it as solvers.tensor_solve
    def solve(self, modal: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """modes (modal * coeffs) along both axes, row by row, folded:
        (a K2 + b M2)^{-1} M2 u for ``modal = 1 / (a lambda_grid + b)`` and
        ``coeffs`` the mode coefficients of u; any other modal multiplier is
        applied the same way."""
        product, work = self._work
        return self.decomp.folded_synthesize(np.multiply(modal, coeffs, out=product), work)


# CG, and all that only CG reads


@per_operator
def _cg_state(op: DiscreteOperator):
    """(K1, M1, Q, Q^T, lambda_grid) of a tensor operator, built once per
    operator and kept while it lives (``fem.per_operator``): the stiffness
    and mass of its 1D bands as dense n x n matrices, the sine modes Q of
    that 1D pair (natural order) with a contiguous Q^T, and lambda_i +
    lambda_j in the same order."""
    basis = eig_1d(dataclasses.replace(op, dim=1))
    lam = basis.lambda_grid
    K1, M1 = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
              for d, e in (op.stiffness_bands, op.mass_bands))
    state = (K1, M1, basis.modes, np.ascontiguousarray(basis.modes.T),
             (lam[:, None] + lam).ravel())
    for arr in state:  # shared by every run: nothing may write it
        arr.setflags(write=False)
    return state


def _pcg(A, precond, b: np.ndarray, rtol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Preconditioned CG on the SPD matrix A from zero; returns (x, iterations).

    ``A`` is the product ``A(x)``, or a matrix with ``A @ x``;
    ``precond(r)`` applies an SPD approximation of A^{-1} to a vector.  The
    recurrences for p, x and r, and the test ``norm(r) < rtol * norm(b)``
    before each iteration, are those of ``scipy.sparse.linalg.cg`` with
    ``atol=0`` and ``M`` a ``LinearOperator`` of ``precond``, in the same
    order, so both return the same bits; unlike scipy, the test runs once
    more after the last iteration.
    Raises :class:`SolveError` at once when ``b`` is not finite, and when
    ``maxiter`` iterations do not converge.
    """
    matvec = A if callable(A) else A.__matmul__
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
        q = matvec(p)
        alpha = rho / p.dot(q)
        np.multiply(alpha, p, out=step)
        x += step
        np.multiply(alpha, q, out=step)
        r -= step
        rho_prev = rho
    if math.sqrt(r.dot(r)) < tol:
        return x, maxiter
    res = np.linalg.norm(b - matvec(x)) / bnrm
    raise SolveError(
        f"cg did not converge in {maxiter} iterations: relative residual "
        f"{res:.3e}, target {rtol:.1e}"
    )


class PreconditionedCG(_Pencil):
    """CG (``_pcg``) on a*K2 + b*M2, each solve preconditioned by the modal
    inverse of its own pencil, ``precondition`` with ``1 / (a lambda_grid +
    b)`` (Concus & Golub 1973): exact on ``assemble_2d_tensor``'s operators,
    so a solve takes one or two iterations.  Every solve starts from zero;
    ``iters`` and ``iters_max`` count the iterations of each row (total and
    worst single solve) over this solver's one run of ``columns`` rows."""

    def __init__(self, op: DiscreteOperator, columns: int = 1):
        self.K, self.M, self.Q, self.Qt, self.lambda_grid = _cg_state(op)
        self.iters = [0] * columns
        self.iters_max = [0] * columns

    def load(self, U):
        """(M2 U, [u . M2 u for each row u]): M1 X M1 on the n x n grid X of
        every row at once."""
        n = len(self.M)
        MU = (self.M @ U.reshape(-1, n, n) @ self.M).reshape(U.shape)
        return MU, [float(u.dot(Mu)) for u, Mu in zip(U, MU)]

    def step(self, terms, U, rhs):
        """u_next of the one run's ``terms`` (floats), rhs = ``load(U)[0]``:
        one ``solve`` per pole."""
        # in place, with no temporary per term and no sum from 0
        out = None
        for a, b, c in zip(terms[0::3], terms[1::3], terms[2::3]):  # the m poles, not s
            z = self.solve(a, b, rhs)
            z *= c
            out = z if out is None else np.add(out, z, out=out)
        out += terms[-1] * U
        return out

    def precondition(self, modal: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Q (modal * Q^T R Q) Q^T on the n x n grid R of r (one vector or
        each row of a block): (a K2 + b M2)^{-1} r for ``modal = 1 / (a
        lambda_grid + b)``, in dense n x n GEMMs."""
        n = len(self.Q)
        coeffs = modal * (self.Qt @ r.reshape(-1, n, n) @ self.Q).reshape(r.shape)
        return (self.Q @ coeffs.reshape(-1, n, n) @ self.Qt).reshape(r.shape)

    def solve(self, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
        """(a K2 + b M2)^{-1} applied to each row of the (c, n) block rhs."""
        # a K2 + b M2 = T (x) M1 + M1 (x) T: the product T X M1 + M1 X T on the
        # n x n grid X of a vector, in four dense n x n GEMMs
        M, n = self.M, len(self.M)
        T = a * self.K + (b / 2) * M

        def A(x):
            X = x.reshape(n, n)
            return (T @ X @ M + M @ X @ T).ravel()

        precond = functools.partial(self.precondition, 1.0 / (a * self.lambda_grid + b))
        out = np.empty_like(rhs)
        for j, row in enumerate(rhs):
            out[j], iters = _pcg(A, precond, row, CG_RTOL, CG_MAXITER)
            self.iters[j] += iters
            self.iters_max[j] = max(self.iters_max[j], iters)
        return out

    def iterations(self, column: int) -> tuple[int, int]:
        return self.iters[column], self.iters_max[column]


# the name perfbench/tracing.py patches the CG solve under
WarmStartCG = PreconditionedCG
