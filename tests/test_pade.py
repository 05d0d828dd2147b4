import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from fracstep.pade import (
    MAX_ORDER,
    PadeConstructionError,
    _refine_poles_and_residues,
    _series_coefficients,
    approximation_error,
    error_bound_constant,
    eval_partial_fractions,
    eval_rational,
    pade_coefficients,
    pade_error_bound_check,
)

ALPHAS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)


def mp_pq(m, alpha):
    """Numerator/denominator coefficients built entirely in mp arithmetic."""
    a = mp.mpf(alpha)
    p = [mp.mpf(1)]
    q = [mp.mpf(1)]
    a_j = mp.mpf(1)
    b_pos = mp.mpf(1)
    b_neg = mp.mpf(1)
    for j in range(1, m + 1):
        a_j *= mp.mpf(m + 1 - j) / (j * (2 * m + 1 - j))
        b_pos *= (m + 1 - j) + a
        b_neg *= (m + 1 - j) - a
        q.append(a_j * b_pos)
        p.append(a_j * b_neg)
    return p, q


def mp_error(m, alpha, x, dps=120):
    """Independent high-precision oracle for |(1+x)^-alpha - r(x)|."""
    with mp.workdps(dps):
        p, q = mp_pq(m, alpha)
        xx = mp.mpf(x)
        num = mp.mpf(0)
        den = mp.mpf(0)
        for c in reversed(p):
            num = num * xx + c
        for c in reversed(q):
            den = den * xx + c
        exact = (1 + xx) ** (-mp.mpf(alpha))
        return abs(exact - num / den)


def mp_refine_poles_and_residues(p, q):
    """The same 8 Newton steps from the companion-matrix roots, in mpmath at
    50 digits: the polish that ``_refine_poles_and_residues`` must match."""
    m = len(q) - 1
    seeds = np.sort(npoly.polyroots(q).real)
    with mp.workdps(50):
        qmp = [mp.mpf(float(c)) for c in q]
        pmp = [mp.mpf(float(c)) for c in p]
        qdmp = [j * qmp[j] for j in range(1, m + 1)]

        def horner(coeffs, x):
            acc = mp.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        roots = [mp.mpf(float(r)) for r in seeds]
        for _ in range(8):
            roots = [r - horner(qmp, r) / horner(qdmp, r) for r in roots]
        residues = [horner(pmp, r) / horner(qdmp, r) for r in roots]
    return (np.array([float(r) for r in roots]),
            np.array([float(w) for w in residues]))


class TestPolish:
    @pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
    def test_bits_match_mpmath(self, m):
        for alpha in np.linspace(0.01, 0.99, 50):
            p, q = _series_coefficients(m, float(alpha))
            got = _refine_poles_and_residues(p, q)
            want = mp_refine_poles_and_residues(p, q)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


class TestCoefficients:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_m1_closed_form(self, alpha):
        r = pade_coefficients(1, alpha)
        np.testing.assert_allclose(r.p_coeffs, [1.0, (1 - alpha) / 2], rtol=1e-15)
        np.testing.assert_allclose(r.q_coeffs, [1.0, (1 + alpha) / 2], rtol=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_m2_closed_form(self, alpha):
        r = pade_coefficients(2, alpha)
        np.testing.assert_allclose(
            r.p_coeffs, [1.0, (2 - alpha) / 2, (2 - alpha) * (1 - alpha) / 12], rtol=1e-15
        )
        np.testing.assert_allclose(
            r.q_coeffs, [1.0, (2 + alpha) / 2, (2 + alpha) * (1 + alpha) / 12], rtol=1e-15
        )

    def test_unit_constant_terms(self):
        for m in range(1, MAX_ORDER + 1):
            r = pade_coefficients(m, 0.37)
            assert r.p_coeffs[0] == 1.0 and r.q_coeffs[0] == 1.0

    def test_m2_alpha_half_poles(self):
        # roots of 1 + 1.25 x + 0.3125 x^2 by the quadratic formula
        disc = math.sqrt(1.25**2 - 4 * 0.3125)
        expected = sorted([(-1.25 - disc) / 0.625, (-1.25 + disc) / 0.625])
        r = pade_coefficients(2, 0.5)
        np.testing.assert_allclose(r.poles, expected, rtol=1e-12)
        assert np.all(r.poles < -1)

    def test_pole_residual_contract(self):
        for m in (1, 4, 8):
            r = pade_coefficients(m, 0.5)
            for x in r.poles:
                scale = max(abs(c * x**j) for j, c in enumerate(r.q_coeffs))
                val = sum(c * x**j for j, c in enumerate(r.q_coeffs))
                assert abs(val) < 1e-12 * scale

    def test_limit_is_leading_ratio(self):
        r = pade_coefficients(1, 0.5)
        assert r.limit_at_infinity == pytest.approx(1.0 / 3.0, rel=1e-15)
        for m in (2, 5, 8):
            for alpha in (0.1, 0.9):
                r = pade_coefficients(m, alpha)
                assert r.limit_at_infinity == pytest.approx(
                    r.p_coeffs[-1] / r.q_coeffs[-1], rel=1e-15
                )
                assert r.limit_at_infinity > 0

    def test_rho_consistency(self):
        x = np.concatenate([[0.0], np.logspace(-8, 8, 4001)])
        for m in (1, 3, 8):
            for alpha in (0.05, 0.5, 0.95):
                r = pade_coefficients(m, alpha)
                vals = eval_rational(r, x)
                assert 0 < r.rho_m <= r.limit_at_infinity + 1e-15
                assert np.all(vals >= r.rho_m - 1e-13)

    def test_positive_residues_make_r_fall_to_its_limit(self):
        x = np.logspace(-3, 3, 200)
        for m in range(1, MAX_ORDER + 1):
            for alpha in np.linspace(0.01, 0.99, 50):
                r = pade_coefficients(m, float(alpha))
                assert np.all(r.residues > 0)
                assert r.rho_m == r.limit_at_infinity
                vals = eval_rational(r, x)
                assert np.all(np.diff(vals) < 0)
                assert vals[-1] > r.rho_m

    def test_nonpositive_residue_rejected(self, monkeypatch):
        import fracstep.pade as pade

        refine = pade._refine_poles_and_residues
        monkeypatch.setattr(pade, "_refine_poles_and_residues",
                            lambda p, q: (refine(p, q)[0], -refine(p, q)[1]))
        with pytest.raises(PadeConstructionError, match="residues > 0"):
            pade_coefficients.__wrapped__(2, 0.5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pade_coefficients(0, 0.5)
        with pytest.raises(ValueError):
            pade_coefficients(9, 0.5)
        with pytest.raises(ValueError):
            pade_coefficients(1, 0.0)
        with pytest.raises(ValueError):
            pade_coefficients(1, 1.0)
        with pytest.raises(ValueError):
            pade_coefficients(1, -0.3)

    def test_equal_calls_share_one_object(self):
        r = pade_coefficients(2, 0.5)
        assert pade_coefficients(2, 0.5) is r
        assert not r.poles.flags.writeable
        # a cached valid entry never answers for an invalid argument
        for m, alpha in ((2.0, 0.5), (2, 1.5), (0, 0.5), (9, 0.5)):
            with pytest.raises(ValueError):
                pade_coefficients(m, alpha)
            with pytest.raises(ValueError):
                pade_coefficients(m, alpha)


class TestEvaluation:
    def test_value_at_zero_is_one(self):
        for m in (1, 2, 8):
            for alpha in (0.05, 0.5, 0.95):
                assert eval_rational(pade_coefficients(m, alpha), 0.0) == 1.0

    def test_m1_alpha_half_at_one(self):
        r = pade_coefficients(1, 0.5)
        assert eval_rational(r, 1.0) == pytest.approx(5.0 / 7.0, rel=1e-15)

    def test_limit_at_large_argument(self):
        r = pade_coefficients(1, 0.5)
        assert eval_rational(r, 1e12) == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_domain_guard(self):
        r = pade_coefficients(1, 0.5)
        with pytest.raises(ValueError):
            eval_rational(r, -1.5)
        with pytest.raises(ValueError):
            approximation_error(r, [0.5, -1e-3])

    def test_range_on_half_line(self):
        x = np.concatenate([[0.0], np.logspace(-8, 8, 2000)])
        for m in (1, 4, 8):
            for alpha in (0.1, 0.9):
                r = pade_coefficients(m, alpha)
                vals = eval_rational(r, x)
                assert np.all(vals <= 1.0)
                assert np.all(vals[1:] < 1.0)
                assert np.all(vals >= r.rho_m - 1e-13)

    @pytest.mark.parametrize("m", (1, 2, 4, 8))
    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
    def test_taylor_contact_order(self, m, alpha):
        # the approximation error must vanish like x**(2m+1) at the origin
        xs = (1e-3, 5e-4, 2.5e-4)
        scaled = [float(mp_error(m, alpha, x) / mp.mpf(x) ** (2 * m + 1)) for x in xs]
        for a, b in zip(scaled[:-1], scaled[1:]):
            assert 0.8 <= a / b <= 1.25


class TestPartialFractions:
    def test_m1_alpha_half_decomposition(self):
        r = pade_coefficients(1, 0.5)
        assert r.limit_at_infinity == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert r.poles[0] == pytest.approx(-4.0 / 3.0, rel=1e-14)
        assert r.residues[0] == pytest.approx(8.0 / 9.0, rel=1e-14)

    def test_sums_to_one_at_zero(self):
        for m in (1, 2, 5, 8):
            for alpha in ALPHAS:
                r = pade_coefficients(m, alpha)
                total = r.limit_at_infinity + np.sum(r.residues / (0.0 - r.poles))
                assert total == pytest.approx(1.0, abs=1e-13)

    def test_m2_reconstruction_spot_values(self):
        r = pade_coefficients(2, 0.5)
        for x in (0.1, 1.0, 10.0, 1000.0):
            direct = eval_rational(r, x)
            assert eval_partial_fractions(r, x) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
    def test_reconstruction_dense(self, m):
        x = np.concatenate([[0.0], np.logspace(-8, 6, 500)])
        for alpha in ALPHAS:
            r = pade_coefficients(m, alpha)
            direct = eval_rational(r, x)
            recon = eval_partial_fractions(r, x)
            assert np.max(np.abs(recon - direct) / np.abs(direct)) < 1e-12


class TestErrorBound:
    def test_error_series_matches_high_precision(self):
        for m in (1, 2, 5, 8):
            for alpha in (0.1, 0.5, 0.9):
                r = pade_coefficients(m, alpha)
                for x in (1e-4, 0.01, 0.3, 0.499, 0.7, 2.0):
                    got = float(approximation_error(r, x)[0])
                    want = float(mp_error(m, alpha, x))
                    if want > 1e-280:
                        assert got == pytest.approx(want, rel=1e-9), (m, alpha, x)

    def test_constant_formula(self):
        r = pade_coefficients(1, 0.5)
        q_at_minus1 = 1.0 - 0.75
        assert error_bound_constant(r, 3.0) == pytest.approx(
            max(q_at_minus1 * 2.0, 16.0), rel=1e-15
        )

    def test_bound_m1_s3(self):
        r = pade_coefficients(1, 0.5)
        assert pade_error_bound_check(r, 3.0, np.logspace(-4, 6, 200))

    def test_bound_m2_alpha09_s5(self):
        r = pade_coefficients(2, 0.9)
        assert pade_error_bound_check(r, 5.0, np.logspace(-4, 6, 200))

    def test_bound_at_zero(self):
        r = pade_coefficients(1, 0.5)
        assert pade_error_bound_check(r, 2.0, np.array([0.0]))

    def test_rejects_bad_grid(self):
        r = pade_coefficients(1, 0.5)
        with pytest.raises(ValueError):
            pade_error_bound_check(r, 1.0, np.array([-1.0]))
        with pytest.raises(ValueError):
            pade_error_bound_check(r, 1.0, np.array([np.inf]))
        with pytest.raises(ValueError):
            error_bound_constant(r, 4.0)  # above 2m+1
