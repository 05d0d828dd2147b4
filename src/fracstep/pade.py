"""Diagonal rational approximants r_m(x) = P_m(x)/Q_m(x) to (1+x)**(-alpha).

Both polynomials have degree m and unit constant term; the approximant
matches the Maclaurin series of (1+x)**(-alpha) through order 2m.  On
[0, inf) the approximant takes values in (0, 1], all poles are real and lie
left of -1, and the partial-fraction form

    r(x) = limit_at_infinity + sum_i residues[i] / (x - poles[i])

lets r of a rational matrix argument be applied with m independent shifted
SPD solves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

MAX_ORDER = 8

_MP_DPS = 50
_NEWTON_STEPS = 8


class PadeConstructionError(ValueError):
    """Raised when the approximant cannot be built to contract accuracy."""


@dataclass(frozen=True, eq=False)
class PadeRational:
    """Immutable rational approximant of (1+x)**(-alpha), degree (m, m).

    Attributes:
        m: polynomial degree of numerator and denominator.
        alpha: exponent, in (0, 1).
        p_coeffs: numerator coefficients, ascending powers, p_coeffs[0] == 1.
        q_coeffs: denominator coefficients, ascending powers, q_coeffs[0] == 1.
        poles: the m real roots of the denominator, all < -1, ascending.
        residues: residues matching ``poles`` in the partial-fraction form.
        limit_at_infinity: lim_{x->inf} r(x), equal to the ratio of leading
            coefficients; positive.
        rho_m: minimum of r over [0, inf); 0 < rho_m <= 1.
    """

    m: int
    alpha: float
    p_coeffs: np.ndarray
    q_coeffs: np.ndarray
    poles: np.ndarray
    residues: np.ndarray
    limit_at_infinity: float
    rho_m: float = field(repr=False, default=0.0)

    def __post_init__(self):
        for arr in (self.p_coeffs, self.q_coeffs, self.poles, self.residues):
            arr.setflags(write=False)


def _series_coefficients(m: int, alpha: float):
    """Ascending coefficients of P_m and Q_m.

    Q_m(x) = 1 + sum_j a_j b_j(alpha) x^j with
      b_j(alpha) = (m+alpha)(m-1+alpha)...(m+1-j+alpha)
      a_j = [m(m-1)...(m+1-j)] / [j! 2m(2m-1)...(2m+1-j)]
    and P_m uses b_j(-alpha).
    """
    p = np.zeros(m + 1)
    q = np.zeros(m + 1)
    p[0] = q[0] = 1.0
    a_j = 1.0
    b_pos = 1.0
    b_neg = 1.0
    for j in range(1, m + 1):
        a_j *= (m + 1 - j) / (j * (2 * m + 1 - j))
        b_pos *= (m + 1 - j) + alpha
        b_neg *= (m + 1 - j) - alpha
        q[j] = a_j * b_pos
        p[j] = a_j * b_neg
    return p, q


def _refine_poles_and_residues(p, q):
    """Polish companion-matrix roots with extended-precision Newton steps.

    In plain doubles the residues of the near--1 pole lose ~4 digits for
    m = 8, which breaks the 1e-12 reconstruction contract; a few Newton
    iterations at 50 significant digits restore full double accuracy at
    negligible cost (construction runs once per (m, alpha)).
    """
    import mpmath as mp

    m = len(q) - 1
    seeds = np.sort(npoly.polyroots(q).real)
    with mp.workdps(_MP_DPS):
        qmp = [mp.mpf(float(c)) for c in q]
        pmp = [mp.mpf(float(c)) for c in p]
        qdmp = [j * qmp[j] for j in range(1, m + 1)]

        def horner(coeffs, x):
            acc = mp.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        roots = [mp.mpf(float(r)) for r in seeds]
        for _ in range(_NEWTON_STEPS):
            roots = [r - horner(qmp, r) / horner(qdmp, r) for r in roots]
        residues = [horner(pmp, r) / horner(qdmp, r) for r in roots]
    return (np.array([float(r) for r in roots]),
            np.array([float(w) for w in residues]))


def _minimum_on_half_line(p, q, limit):
    """Exact minimum of r over [0, inf): checked at 0, at +inf and at the
    nonnegative real critical points of r."""
    num_deriv = npoly.polytrim(
        npoly.polysub(
            npoly.polymul(npoly.polyder(p), q), npoly.polymul(p, npoly.polyder(q))
        ),
        tol=0.0,
    )
    candidates = [1.0, limit]
    if len(num_deriv) > 1:
        for z in npoly.polyroots(num_deriv):
            if abs(z.imag) < 1e-9 and z.real > 0:
                x = z.real
                candidates.append(npoly.polyval(x, p) / npoly.polyval(x, q))
    return float(min(candidates))


@functools.lru_cache(maxsize=64, typed=True)
def pade_coefficients(m: int, alpha: float) -> PadeRational:
    """Construct the degree-(m, m) approximant of (1+x)**(-alpha).

    Equal arguments return the same (immutable) object: a bounded cache
    keeps the latest 64 approximants, keyed by value and type, so an
    invalid ``m = 2.0`` is never served the entry of ``m = 2``.

    Args:
        m: order, 1 <= m <= 8.
        alpha: exponent in the open interval (0, 1).

    Raises:
        ValueError: order or exponent outside the supported range.
        PadeConstructionError: root finding failed its residual contract or
            poles are too clustered to decompose reliably.
    """
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_ORDER:
        raise ValueError(f"order m must be an integer in [1, {MAX_ORDER}], got {m!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    alpha = float(alpha)

    p, q = _series_coefficients(m, alpha)
    poles, residues = _refine_poles_and_residues(p, q)

    # residual of each pole relative to the largest monomial term at that point
    for x in poles:
        scale = max(abs(q[j] * x**j) for j in range(m + 1))
        if abs(npoly.polyval(x, q)) >= 1e-12 * scale:
            raise PadeConstructionError(
                f"denominator root {x} failed residual check for m={m}, alpha={alpha}"
            )
    if np.any(poles >= -1.0):
        raise PadeConstructionError(
            f"expected all poles < -1, got {poles} for m={m}, alpha={alpha}"
        )
    if m > 1:
        gaps = np.diff(poles) / np.abs(poles[:-1])
        if np.min(gaps) < 1e-8:
            raise PadeConstructionError(
                f"pole cluster (relative gap {np.min(gaps):.2e}) is numerically degenerate"
            )

    limit = float(p[-1] / q[-1])
    rho = _minimum_on_half_line(p, q, limit)
    return PadeRational(
        m=m,
        alpha=alpha,
        p_coeffs=p,
        q_coeffs=q,
        poles=poles,
        residues=residues,
        limit_at_infinity=limit,
        rho_m=rho,
    )


def eval_rational(r: PadeRational, x) -> np.ndarray | float:
    """Evaluate r(x) = P(x)/Q(x) by Horner's rule for x >= -1."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < -1.0):
        raise ValueError("eval_rational requires x >= -1 (denominator roots lie left of -1)")
    value = npoly.polyval(arr, r.p_coeffs) / npoly.polyval(arr, r.q_coeffs)
    return value if arr.ndim else float(value)


def eval_partial_fractions(r: PadeRational, x) -> np.ndarray | float:
    """Evaluate r through its pole expansion (one term per pole)."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.full(arr.shape, r.limit_at_infinity)
    for pole, w in zip(r.poles, r.residues):
        out += w / (arr - pole)
    return out if np.ndim(x) else float(out[0])


def _remainder_series_coeffs(m: int, alpha: float, nterms: int) -> np.ndarray:
    """Coefficients d_n of the error expansion, n = 2m+1, ..., 2m+nterms.

    (1+x)**(-alpha) - r(x) = [Q(-1)/Q(x)] * sum_n d_n (-x)^n  with every
    d_n in (0, 1); consecutive terms obey an explicit ratio recurrence.
    """
    n0 = 2 * m + 1
    # d_{n0} = (alpha)_{n0} / n0! * (1)_m / (m+1+alpha)_m
    d = 1.0
    for i in range(n0):
        d *= (alpha + i) / (i + 1)
    for i in range(m):
        d *= (1 + i) / (m + 1 + alpha + i)
    out = np.empty(nterms)
    out[0] = d
    n = n0
    for idx in range(1, nterms):
        d *= (alpha + n) / (n + 1) * (n - m) / (n - 2 * m) * (n + alpha - m) / (n + alpha)
        out[idx] = d
        n += 1
    return out


def approximation_error(r: PadeRational, x) -> np.ndarray:
    """|(1+x)**(-alpha) - r(x)| evaluated without cancellation.

    Below x = 1/2 the direct difference sits under the double-precision
    noise floor of the two O(1) operands, so the error is summed from its
    series expansion instead (terms decay at least like 2**-n there);
    beyond 1/2 the direct difference is well scaled.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(x < 0):
        raise ValueError("approximation_error is defined for x >= 0")
    out = np.empty_like(x)
    small = x < 0.5
    if np.any(small):
        xs = x[small]
        d = _remainder_series_coeffs(r.m, r.alpha, 120)
        signs = -1.0 if (2 * r.m + 1) % 2 else 1.0
        tail = np.zeros_like(xs)
        # Horner on the alternating series in (-x)
        for coeff in d[::-1]:
            tail = coeff - xs * tail
        q_at_minus1 = float(npoly.polyval(-1.0, r.q_coeffs))
        qx = npoly.polyval(xs, r.q_coeffs)
        out[small] = np.abs(q_at_minus1 / qx * signs * xs ** (2 * r.m + 1) * tail)
    if np.any(~small):
        xl = x[~small]
        out[~small] = np.abs((1.0 + xl) ** (-r.alpha) - eval_rational(r, xl))
    return out


def error_bound_constant(r: PadeRational, s: float) -> float:
    """The explicit constant c_{m,s} = max{Q(-1) 2**(s-2m), 2**(1+s)}."""
    if not 0.0 <= s <= 2 * r.m + 1:
        raise ValueError(f"s must lie in [0, {2 * r.m + 1}], got {s}")
    q_at_minus1 = float(npoly.polyval(-1.0, r.q_coeffs))
    return max(q_at_minus1 * 2.0 ** (s - 2 * r.m), 2.0 ** (1 + s))


def pade_error_bound_check(r: PadeRational, s: float, x_grid) -> bool:
    """Check |(1+x)**(-alpha) - r(x)| <= c_{m,s} x**s on the given grid."""
    x = np.atleast_1d(np.asarray(x_grid, dtype=np.float64))
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("grid values must be finite and nonnegative")
    c = error_bound_constant(r, s)
    err = approximation_error(r, x)
    with np.errstate(invalid="ignore"):
        bound = c * x**s
    bound = np.where(x == 0.0, 0.0 if s > 0 else c, bound)
    return bool(np.all(err <= bound))
