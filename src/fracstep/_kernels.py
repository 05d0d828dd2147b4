"""Hot numeric kernels: the symmetric tridiagonal ops.

Every 1D system the steppers meet is symmetric positive definite and
tridiagonal, given as its diagonal ``d`` and off-diagonal ``e``.  The solves
call LAPACK directly (``?ptsv`` for one-shot solves, ``?pttrf``/``?pttrs``
for a matrix factored once and solved many times), which skips the argument
checks and band-array copies of ``scipy.linalg.solve_banded``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dptsv, dpttrf, dpttrs


def tridiag_matvec(d, e, x):
    """y = T x along the last axis of x, T symmetric tridiagonal with diagonal d
    and off-diagonal e; a (c, n) block gets T applied to each of its rows."""
    y = d * x
    y[..., :-1] += e * x[..., 1:]
    y[..., 1:] += e * x[..., :-1]
    return y


def _check(info, routine):
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed (info={info}): matrix not SPD")


def _offdiag(e):
    # the LAPACK wrappers want an off-diagonal of length 1 when n == 1
    return e if len(e) else np.zeros(1)


def tridiag_solve(d, e, b):
    """Solve T x = b for SPD tridiagonal T (diagonal d, off-diagonal e).

    ``d`` and ``e`` are overwritten by the factorization, so pass bands
    built for this call; ``b`` (a vector or an n x k block) is left intact.
    """
    _, _, x, info = dptsv(d, _offdiag(e), b, overwrite_d=1, overwrite_e=1)
    _check(info, "dptsv")
    return x


class TridiagFactor:
    """L D L^T factorization of an SPD tridiagonal, solved many times."""

    def __init__(self, d, e):
        self.d, self.e, info = dpttrf(d, _offdiag(e))
        _check(info, "dpttrf")

    def solve(self, b):
        x, info = dpttrs(self.d, self.e, b)
        _check(info, "dpttrs")
        return x
