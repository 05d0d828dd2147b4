"""Hot numeric kernels: the symmetric tridiagonal ops.

Every 1D system the steppers meet is symmetric positive definite and
tridiagonal, given as its diagonal ``d`` and off-diagonal ``e``.  Every
solve is one direct LAPACK ``?ptsv`` call (factor and solve in one, for one
or many right-hand sides), which skips the argument checks and band-array
copies of ``scipy.linalg.solve_banded``; the SPD test reads ``?pttrf``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dptsv, dpttrf


def tridiag_matvec(d, e, x, row=0):
    """y = T x along the last axis of x, T symmetric tridiagonal with diagonal d
    and off-diagonal e; a (c, n) block gets T applied to each of its rows.

    With ``row`` = n > 0, x is a flat block of rows of length n, d and e are
    tiled over it, and every product that crosses a row boundary is set to
    zero rather than formed: a zero coupling would still carry 0 * nan into
    the neighbouring row.  Each row then gets the bits of its own product.
    """
    y = d * x
    upper = e * x[..., 1:]
    if row:
        # x + (-0.0) is x for every x, -0.0 included
        upper[row - 1::row] = -0.0
    y[..., :-1] += upper
    lower = e * x[..., :-1]
    if row:
        lower[row - 1::row] = -0.0
    y[..., 1:] += lower
    return y


def _offdiag(e):
    # the LAPACK wrappers want an off-diagonal of length 1 when n == 1
    return e if len(e) else np.zeros(1)


def is_spd(d, e):
    """Whether ``?pttrf`` factors a copy of the tridiagonal (d, e) as L D L^T, D > 0."""
    return dpttrf(d, _offdiag(e))[2] == 0


def tridiag_solve(d, e, b):
    """Solve T x = b for SPD tridiagonal T (diagonal d, off-diagonal e).

    ``d`` and ``e`` are overwritten by the factorization, so pass bands
    built for this call; ``b`` (a vector or an n x k block) is left intact.
    """
    _, _, x, info = dptsv(d, _offdiag(e), b, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dptsv failed (info={info}): matrix not SPD")
    return x

