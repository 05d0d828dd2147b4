"""The assembled CSR pair (K, M) of an operator: the oracle that the tests
check band products, solves and eigenpairs against.

No ``fracstep.fem`` operator keeps a sparse matrix: every operator holds
the bands of one 1D pair of K and M, and ``dim``; a tensor operator holds
its 1D bands and ``dim = 2``.  Here the 1D pair is ``sp.diags`` of the
bands, and for ``op.dim == 2`` the tensor pair is the Kronecker formula
K2 = kron(K1, M1) + kron(M1, K1), M2 = kron(M1, M1) of that 1D pair.
Nothing in ``fracstep`` builds a sparse matrix; CG multiplies through the
dense 1D matrices (``fracstep.solvers._cg_state``).
"""

import scipy.sparse as sp

from fracstep.fem import DiscreteOperator


def sparse_pair(op: DiscreteOperator) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(K, M) of ``op`` as CSR matrices."""
    K1, M1 = (sp.diags([e, d, e], [-1, 0, 1], format="csr")
              for d, e in (op.stiffness_bands, op.mass_bands))
    if op.dim == 1:
        return K1, M1
    return (sp.kron(K1, M1) + sp.kron(M1, K1)).tocsr(), sp.kron(M1, M1).tocsr()
