"""Ground-truth spectral oracle: generalized eigenpairs of (K, M).

Diagonalizing K psi = lambda M psi with M-orthonormal modes makes the exact
discrete fractional power available as a reference, and gives the discrete
Sobolev norms used to grade data smoothness.  1D problems are solved densely
(capped at 4000 dofs); tensor 2D problems reuse the 1D factor, with
eigenvalues lambda_i + lambda_j and modes psi_i (x) psi_j never materialized.
The tensor decomposition is cached per operator, because the fast-
diagonalization solver of ``solvers`` reuses its 1D modes; ``eig_1d`` is not
cached, so a dense 1D basis (up to 4000 modes) lives only as long as its
caller holds it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .fem import DiscreteOperator, GridFunction

DENSE_EIG_CAP = 4000


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and M-orthonormal modes of one operator.

    For tensor decompositions ``modes`` holds the 1D factor modes and
    ``lambdas_1d`` their eigenvalues; ``lambdas`` is always the full list.
    """

    op: DiscreteOperator
    lambdas: np.ndarray
    modes: np.ndarray
    tensor: bool = False
    lambdas_1d: np.ndarray | None = field(default=None, repr=False)
    _proj: np.ndarray = field(default=None, repr=False)  # modes^T M, cached

    def __post_init__(self):
        # tensor decompositions are cached and shared, so nothing may write them
        for arr in (self.lambdas, self.modes, self.lambdas_1d, self._proj):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return len(self.lambdas)

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """M-weighted mode coefficients of a coefficient vector."""
        if self.tensor:
            n = len(self.lambdas_1d)
            return (self._proj @ v.reshape(n, n) @ self._proj.T).ravel()
        return self._proj @ v

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`coefficients`."""
        if self.tensor:
            n = len(self.lambdas_1d)
            return (self.modes @ coeffs.reshape(n, n) @ self.modes.T).ravel()
        return self.modes @ coeffs

    def mode_vector(self, j: int) -> np.ndarray:
        """The j-th eigenvector as a flat coefficient vector."""
        if not self.tensor:
            return self.modes[:, j].copy()
        n = len(self.lambdas_1d)
        i, k = divmod(self._order[j], n)
        return np.outer(self.modes[:, i], self.modes[:, k]).ravel()

    @property
    def _order(self):
        # permutation sorting the kron-pair eigenvalues ascending
        if not self.tensor:
            raise AttributeError("only tensor decompositions are permuted")
        sums = (self.lambdas_1d[:, None] + self.lambdas_1d[None, :]).ravel()
        return np.argsort(sums, kind="stable")


def eig_1d(op: DiscreteOperator) -> SpectralDecomposition:
    """Dense symmetric generalized eigensolve of the 1D pair (K, M)."""
    if op.dim != 1:
        raise ValueError("eig_1d expects a 1D operator")
    if op.n_dofs > DENSE_EIG_CAP:
        raise ValueError(f"dense eigensolve capped at {DENSE_EIG_CAP} dofs, have {op.n_dofs}")
    lam, modes = sla.eigh(op.stiffness.toarray(), op.mass.toarray())
    return SpectralDecomposition(
        op=op, lambdas=lam, modes=modes, tensor=False, _proj=modes.T @ op.mass.toarray()
    )


@functools.lru_cache(maxsize=8)
def eig_2d_tensor(op: DiscreteOperator) -> SpectralDecomposition:
    """Implicit decomposition of a tensor operator from its 1D factor (cached)."""
    if not op.is_tensor:
        raise ValueError("eig_2d_tensor expects a tensor-assembled operator")
    base = eig_1d(op.factor)
    lam1 = base.lambdas
    sums = np.sort((lam1[:, None] + lam1[None, :]).ravel())
    return SpectralDecomposition(
        op=op,
        lambdas=sums,
        modes=base.modes,
        tensor=True,
        lambdas_1d=lam1,
        _proj=base._proj,
    )


def _power_weights(decomp: SpectralDecomposition, expo: float) -> np.ndarray:
    if decomp.tensor:
        lam1 = decomp.lambdas_1d
        return ((lam1[:, None] + lam1[None, :]) ** expo).ravel()
    return decomp.lambdas**expo


def reference_power(decomp: SpectralDecomposition, v: GridFunction, alpha: float) -> GridFunction:
    """Exact discrete negative power: sum_j lambda_j**(-alpha) (v, psi_j) psi_j."""
    if v.op is not decomp.op:
        raise ValueError("grid function lives on a different operator")
    coeffs = decomp.coefficients(v.coeffs)
    out = decomp.synthesize(_power_weights(decomp, -alpha) * coeffs)
    return GridFunction(out, decomp.op)


def discrete_sobolev_norm(decomp: SpectralDecomposition, v: GridFunction, s: float) -> float:
    """(sum_j lambda_j**s (v, psi_j)**2)**0.5, the ||.||_{s,h} norm."""
    if v.op is not decomp.op:
        raise ValueError("grid function lives on a different operator")
    coeffs = decomp.coefficients(v.coeffs)
    return float(np.sqrt(np.sum(_power_weights(decomp, s) * coeffs**2)))
