"""Scalar recurrences for a single eigenvalue.

Expanded in the generalized eigenbasis, the vector schemes act mode by mode:
the coefficient of the mode with eigenvalue ``lam`` is multiplied per step by
r(theta) with theta = k*(lam-delta)/(delta + t*(lam-delta)).  Running that
product directly gives an exact, cheap oracle for the operator stepping code
and for convergence-rate studies.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .pade import eval_rational
from .stepping import StepperConfig

# one run config serves the operator and the scalar recurrences
ScalarRunConfig = StepperConfig


def exact_power(lam: float, alpha: float) -> float:
    """lam**(-alpha), the value every scheme approximates at t = 1."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam ** (-alpha)


def _run_single(lam: float, cfg: ScalarRunConfig) -> float:
    if lam < cfg.delta:
        raise ValueError(f"lambda = {lam} below delta = {cfg.delta}; invalid configuration")
    mu = cfg.delta ** (-cfg.alpha)
    d = lam - cfg.delta
    for t, k in zip(cfg.mesh.t_left, cfg.mesh.k):
        theta = k * d / (cfg.delta + t * d)
        mu *= eval_rational(cfg.rational, theta)
    return mu


def scalar_grm(lam: float, cfg: ScalarRunConfig) -> float:
    """Run the geometric-mesh recurrence; returns mu(lam) after (L+1)*N steps."""
    if cfg.mesh.kind != "geometric":
        raise ValueError("scalar_grm requires a geometric mesh")
    return _run_single(lam, cfg)


def scalar_um(lam: float, cfg: ScalarRunConfig) -> float:
    """Run the uniform-mesh recurrence; returns delta**-alpha * prod r(theta_n)."""
    if cfg.mesh.kind != "uniform":
        raise ValueError("scalar_um requires a uniform mesh")
    return _run_single(lam, cfg)


def scalar_run_grid(lams, cfg: ScalarRunConfig) -> np.ndarray:
    """Vectorized recurrence over a lambda grid (hot path, kernel-backed)."""
    lams = np.asarray(lams, dtype=np.float64)
    if np.any(lams < cfg.delta):
        raise ValueError("every lambda must be >= delta")
    return _kernels.scalar_sweep(
        np.ascontiguousarray(lams),
        np.ascontiguousarray(cfg.mesh.t_left),
        np.ascontiguousarray(cfg.mesh.k),
        cfg.rational.p_coeffs,
        cfg.rational.q_coeffs,
        cfg.alpha,
        cfg.delta,
    )


def scalar_error_sweep(lambda_grid, cfg: ScalarRunConfig, scheme: str | None = None) -> np.ndarray:
    """|lam**-alpha - mu(lam)| for every lambda in the grid.

    ``scheme`` ("grm" or "um") is checked against the mesh kind when given.
    """
    if scheme is not None:
        expected = {"grm": "geometric", "um": "uniform"}[scheme.lower()]
        if cfg.mesh.kind != expected:
            raise ValueError(f"scheme {scheme} needs a {expected} mesh, have {cfg.mesh.kind}")
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
