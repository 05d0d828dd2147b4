"""Scalar recurrences for a single eigenvalue.

Expanded in the generalized eigenbasis, the vector schemes act mode by mode:
the coefficient of the mode with eigenvalue ``lam`` is multiplied per step by
r(theta) with theta = k*(lam-delta)/(delta + t*(lam-delta)).  Running that
product directly (``scalar_run_grid``, for one lambda or a whole grid) gives
an exact, cheap oracle for the operator stepping code and for
convergence-rate studies.  As in ``stepping``, the time mesh of the config
picks the scheme.
"""

from __future__ import annotations

import numpy as np

from .stepping import StepperConfig

# one run config serves the operator and the scalar recurrences
ScalarRunConfig = StepperConfig


def exact_power(lam: float, alpha: float) -> float:
    """lam**(-alpha), the value every scheme approximates at t = 1."""
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam ** (-alpha)


def scalar_run_grid(lams, cfg: ScalarRunConfig):
    """mu(lam) = delta**-alpha prod_n r(theta_n) over every step of ``cfg.mesh``.

    ``lams`` is one lambda, which gives a float, or an array of them, all
    stepped at once.  Each factor r(theta) = P(theta)/Q(theta) is evaluated
    by Horner's rule.
    """
    lams = np.asarray(lams, dtype=np.float64)
    # NaN fails the comparison, so it is refused too
    if not np.all(lams >= cfg.delta):
        raise ValueError(f"every lambda must be >= delta = {cfg.delta}")
    p, q = cfg.rational.p_coeffs, cfg.rational.q_coeffs
    mu = np.full(lams.shape, cfg.delta ** (-cfg.alpha))
    d = lams - cfg.delta
    for t, k in zip(cfg.mesh.t_left, cfg.mesh.k):
        theta = k * d / (cfg.delta + t * d)
        num, den = p[-1], q[-1]
        for j in range(len(p) - 2, -1, -1):
            num = num * theta + p[j]
            den = den * theta + q[j]
        mu *= num / den
    return mu if lams.ndim else float(mu)


# the GRM and UM names of ``scalar_run_grid``; the mesh in the config picks the scheme
scalar_grm = scalar_um = scalar_run_grid


def scalar_error_sweep(lambda_grid, cfg: ScalarRunConfig) -> np.ndarray:
    """|lam**-alpha - mu(lam)| for every lambda in the grid."""
    lams = np.asarray(lambda_grid, dtype=np.float64)
    mu = scalar_run_grid(lams, cfg)
    return np.abs(lams ** (-cfg.alpha) - mu)


def fit_loglog_slope(ns, errors) -> float:
    """Least-squares slope of log2(error) against log2(n); needs >= 3 points."""
    ns = np.asarray(ns, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if len(ns) < 3:
        raise ValueError("slope fit needs at least 3 points")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    coeffs = np.polyfit(np.log2(ns), np.log2(errors), 1)
    return float(-coeffs[0])


def sup_error(lambda_grid, cfg: ScalarRunConfig) -> float:
    """Sup over the grid of |lam**-alpha - mu(lam)| for the config's mesh."""
    return float(np.max(scalar_error_sweep(lambda_grid, cfg)))
