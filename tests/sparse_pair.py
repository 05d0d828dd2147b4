"""The assembled CSR pair (K, M) of an operator: the oracle that the tests
check band products, solves and eigenpairs against.

No ``fracstep.fem`` operator keeps a sparse matrix: a 1D operator is the
bands of K and M, a tensor operator its 1D factor.  Here the 1D pair is
``sp.diags`` of the bands, and the tensor pair the Kronecker formula
K2 = kron(K1, M1) + kron(M1, K1), M2 = kron(M1, M1).  Nothing in
``fracstep`` builds a sparse matrix; CG multiplies through the dense 1D
factors (``fracstep.solvers._cg_state``).
"""

import scipy.sparse as sp

from fracstep.fem import DiscreteOperator


def sparse_pair(op: DiscreteOperator) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(K, M) of ``op`` as CSR matrices."""
    if op.factor is None:
        K, M = (sp.diags([e, d, e], [-1, 0, 1], format="csr")
                for d, e in (op.stiffness_bands, op.mass_bands))
        return K, M
    K1, M1 = sparse_pair(op.factor)
    return (sp.kron(K1, M1) + sp.kron(M1, K1)).tocsr(), sp.kron(M1, M1).tocsr()
