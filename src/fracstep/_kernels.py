"""Hot numeric kernels: the symmetric tridiagonal ops.

Every 1D system the steppers meet is symmetric positive definite and
tridiagonal, given as its diagonal ``d`` and off-diagonal ``e``.  Every
solve is one LAPACK ``?ptsv`` call (factor and solve in one, for one or many
right-hand sides; a division at n = 1), skipping the argument checks and band
copies of ``scipy.linalg.solve_banded``; the SPD test reads ``?pttrf``.
Both come from scipy's compiled LAPACK module, read from its file
(``_scipy_extension``), so no scipy package is imported.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np


def _scipy_extension(package: str, name: str):
    """scipy's compiled module ``<package>.<name>`` read from its file, so no
    scipy package runs its ``__init__``; None where that fails (the name is
    private to scipy), and ``scipy.linalg.lapack`` stands in."""
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        paths = [os.path.join(root, package, name + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        spec = importlib.util.spec_from_file_location(f"scipy.{package}.{name}",
                                                      next(filter(os.path.isfile, paths)))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception:  # no file (StopIteration) or one that does not load
        return None


_flapack = _scipy_extension("linalg", "_flapack") or importlib.import_module("scipy.linalg.lapack")
dptsv, dpttrf = _flapack.dptsv, _flapack.dpttrf


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

