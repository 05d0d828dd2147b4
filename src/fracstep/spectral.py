"""Ground-truth spectral oracle: generalized eigenpairs of (K, M).

Diagonalizing K psi = lambda M psi with M-orthonormal modes makes the exact
discrete fractional power available as a reference, and gives the discrete
Sobolev norms used to grade data smoothness.  A decomposition stores the
eigenpairs of the 1D factor only, solved densely (capped at 4000 dofs): a
tensor 2D operator has eigenvalues lambda_i + lambda_j and modes
psi_i (x) psi_j, never materialized, and every transform applies the 1D
factor along each axis.  The tensor decomposition is cached per operator,
because the fast-diagonalization solver of ``solvers`` reuses its 1D modes;
``eig_1d`` is not cached, so a dense 1D basis (up to 4000 modes) lives only
as long as its caller holds it.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.linalg as sla

from .fem import DiscreteOperator, GridFunction

DENSE_EIG_CAP = 4000


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and M-orthonormal modes of the 1D factor of
    ``op`` (of ``op`` itself in 1D), with ``_proj = modes^T M``.

    Mode coefficients come in the order of ``lambda_grid``; ``lambdas``
    holds the same eigenvalues sorted.
    """

    op: DiscreteOperator
    lambdas_1d: np.ndarray
    modes: np.ndarray
    _proj: np.ndarray = dataclasses.field(repr=False)

    def __post_init__(self):
        # tensor decompositions are cached and shared, so nothing may write them
        for arr in (self.lambdas_1d, self.modes, self._proj):
            _read_only(arr)

    @functools.cached_property
    def lambda_grid(self) -> np.ndarray:
        """The eigenvalue of every mode coefficient, in coefficient order."""
        lam = self.lambdas_1d
        return _read_only((lam[:, None] + lam[None, :]).ravel()) if self.op.is_tensor else lam

    @functools.cached_property
    def lambdas(self) -> np.ndarray:
        return _read_only(np.sort(self.lambda_grid))

    @property
    def n_modes(self) -> int:
        return len(self.lambda_grid)

    def _along_axes(self, A: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The 1D matrix A applied along every axis of the flat vector v."""
        if not self.op.is_tensor:
            return A @ v
        n = len(self.lambdas_1d)
        return (A @ v.reshape(n, n) @ A.T).ravel()

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """M-weighted mode coefficients of a coefficient vector."""
        return self._along_axes(self._proj, v)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`coefficients`."""
        return self._along_axes(self.modes, coeffs)

    def mode_vector(self, j: int) -> np.ndarray:
        """The eigenvector of ``lambdas[j]`` as a flat coefficient vector."""
        unit = np.zeros(self.n_modes)
        unit[np.argsort(self.lambda_grid, kind="stable")[j]] = 1.0
        return self.synthesize(unit)


def eig_1d(op: DiscreteOperator) -> SpectralDecomposition:
    """Dense symmetric generalized eigensolve of the 1D pair (K, M)."""
    if op.is_tensor:
        raise ValueError("eig_1d expects a 1D operator")
    if op.n_dofs > DENSE_EIG_CAP:
        raise ValueError(f"dense eigensolve capped at {DENSE_EIG_CAP} dofs, have {op.n_dofs}")
    lam, modes = sla.eigh(op.stiffness.toarray(), op.mass.toarray())
    return SpectralDecomposition(op, lam, modes, modes.T @ op.mass.toarray())


@functools.lru_cache(maxsize=8)
def eig_2d_tensor(op: DiscreteOperator) -> SpectralDecomposition:
    """The decomposition of a tensor operator's 1D factor, bound to it (cached)."""
    if not op.is_tensor:
        raise ValueError("eig_2d_tensor expects a tensor-assembled operator")
    return dataclasses.replace(eig_1d(op.factor), op=op)


def reference_power(decomp: SpectralDecomposition, v: GridFunction, alpha: float) -> GridFunction:
    """Exact discrete negative power: sum_j lambda_j**(-alpha) (v, psi_j) psi_j."""
    if v.op is not decomp.op:
        raise ValueError("grid function lives on a different operator")
    coeffs = decomp.coefficients(v.coeffs)
    return GridFunction(decomp.synthesize(decomp.lambda_grid ** -alpha * coeffs), decomp.op)


def discrete_sobolev_norm(decomp: SpectralDecomposition, v: GridFunction, s: float) -> float:
    """(sum_j lambda_j**s (v, psi_j)**2)**0.5, the ||.||_{s,h} norm."""
    if v.op is not decomp.op:
        raise ValueError("grid function lives on a different operator")
    coeffs = decomp.coefficients(v.coeffs)
    return float(np.sqrt(np.sum(decomp.lambda_grid ** s * coeffs**2)))
