"""Hot numeric kernels: the symmetric tridiagonal ops.

Every 1D system the steppers meet is symmetric positive definite and
tridiagonal, given as its diagonal ``d`` and off-diagonal ``e``.  Every
solve is one LAPACK ``?ptsv`` call (factor and solve in one, for one or many
right-hand sides; a division at n = 1), skipping the argument checks and band
copies of ``scipy.linalg.solve_banded``; the SPD test reads ``?pttrf``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dptsv, dpttrf


def tridiag_matvec(d, e, x, cuts=None):
    """y = T x along the last axis of x, T symmetric tridiagonal with diagonal d
    and off-diagonal e; a (c, n) block gets T applied to each of its rows.

    ``cuts`` indexes the couplings across the boundaries of a flat x of
    vectors end to end: their products are set to zero, not formed, as a
    zero coupling would still carry 0 * nan over, so each vector gets its
    own product's bits.
    """
    y = d * x
    upper = e * x[..., 1:]
    if cuts is not None:
        # x + (-0.0) is x for every x, -0.0 included
        upper[cuts] = -0.0
    y[..., :-1] += upper
    lower = e * x[..., :-1]
    if cuts is not None:
        lower[cuts] = -0.0
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
    At n = 1 ``?ptsv`` scales by 1 / d, so this divides, as ``?ptsv`` does
    at every n > 1: a system keeps its bits in a stack of uncoupled ones.
    """
    if len(d) == 1 and d[0] > 0:
        return b / d[0]
    _, _, x, info = dptsv(d, _offdiag(e), b, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dptsv failed (info={info}): matrix not SPD")
    return x

