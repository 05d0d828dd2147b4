"""A dense eigensolve of a 1D pair (K, M): the oracle for meshes that have no
closed-form eigenpairs.

``fracstep.spectral`` serves uniform meshes only, where the modes are
sines.  The random and graded meshes of the property tests take their
eigenpairs from ``scipy.linalg.eigh`` on the pair of ``sparse_pair`` made
dense, with the attributes the tests read of a basis: ``lambdas``
(ascending), ``n_modes``, ``modes`` (M-orthonormal columns) and
``mode_vector``.
"""

import dataclasses

import numpy as np
import scipy.linalg as sla

from fracstep.fem import DiscreteOperator
from tests.sparse_pair import sparse_pair


@dataclasses.dataclass(frozen=True, eq=False)
class DenseEigenbasis:
    op: DiscreteOperator
    lambdas: np.ndarray
    modes: np.ndarray

    @classmethod
    def of(cls, op: DiscreteOperator) -> "DenseEigenbasis":
        K, M = sparse_pair(op)
        return cls(op, *sla.eigh(K.toarray(), M.toarray()))

    @property
    def n_modes(self) -> int:
        return len(self.lambdas)

    def mode_vector(self, j: int) -> np.ndarray:
        """The eigenvector of ``lambdas[j]`` as a flat coefficient vector."""
        return self.modes[:, j].copy()
