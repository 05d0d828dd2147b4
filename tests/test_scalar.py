import math

import numpy as np
import pytest

from fracstep.pade import eval_rational, pade_coefficients
from fracstep.scalar import (
    ScalarRunConfig,
    exact_power,
    fit_loglog_slope,
    scalar_error_sweep,
    scalar_grm,
    scalar_run_grid,
    scalar_um,
    sup_error,
)

DELTA = 0.5
LAMS = np.logspace(0, 6, 400)


class TestExactPower:
    def test_values(self):
        assert exact_power(1.0, 0.3) == 1.0
        assert exact_power(4.0, 0.5) == 0.5
        assert exact_power(1000.0, 0.3) == pytest.approx(1000.0 ** -0.3, rel=1e-15)

    def test_rejects_nonpositive(self):
        for lam in (0.0, np.nan):
            with pytest.raises(ValueError):
                exact_power(lam, 0.5)


class TestGeometricRecurrence:
    def test_lambda_equals_delta_is_exact(self):
        cfg = ScalarRunConfig.grm(0.5, DELTA, 1, 1e4, 4)
        assert scalar_grm(DELTA, cfg) == DELTA ** -0.5

    def test_error_quarters_when_doubling(self):
        errs = []
        for N in (8, 16):
            cfg = ScalarRunConfig.grm(0.5, DELTA, 1, 1000.0, N)
            errs.append(abs(exact_power(1000.0, 0.5) - scalar_grm(1000.0, cfg)))
        assert 3.3 <= errs[0] / errs[1] <= 4.8

    def test_bounded_by_initial_value(self):
        cfg = ScalarRunConfig.grm(0.7, DELTA, 2, 1e6, 4)
        for lam in (DELTA, 1.0, 37.0, 1e6):
            mu = scalar_grm(lam, cfg)
            assert 0.0 < mu <= DELTA ** -0.7 + 1e-15

    def test_lambda_below_delta_rejected(self):
        cfg = ScalarRunConfig.grm(0.5, DELTA, 1, 10.0, 2)
        # NaN fails the comparison with delta like a lambda below it
        for lam in (0.1, np.nan, [1.0, np.nan]):
            with pytest.raises(ValueError, match="must be >= delta"):
                scalar_grm(lam, cfg)

    @pytest.mark.parametrize("m,lo,hi", [(1, 1.9, 2.1), (2, 3.8, 4.2)])
    def test_sup_error_slope(self, m, lo, hi):
        Ns = (4, 8, 16, 32)
        sups = [sup_error(LAMS, ScalarRunConfig.grm(0.5, DELTA, m, 1e6, N)) for N in Ns]
        slope = fit_loglog_slope(Ns, sups)
        assert lo <= slope <= hi

    def test_uniform_constant_over_N(self):
        # sup-error * N**(2m) wobbles by less than a factor 2 over the sweep
        for m in (1, 2):
            cs = []
            for N in (8, 16, 32, 64):
                sup = sup_error(LAMS, ScalarRunConfig.grm(0.5, DELTA, m, 1e6, N))
                cs.append(sup * N ** (2 * m))
            assert max(cs) / min(cs) < 2.0


class TestUniformRecurrence:
    def test_lambda_equals_delta_is_exact(self):
        cfg = ScalarRunConfig.um(0.9, DELTA, 2, 8)
        assert scalar_um(DELTA, cfg) == DELTA ** -0.9

    def test_single_step_closed_form(self):
        alpha, lam = 0.5, 42.0
        cfg = ScalarRunConfig.um(alpha, DELTA, 1, 1)
        r = pade_coefficients(1, alpha)
        expected = DELTA ** -alpha * eval_rational(r, (lam - DELTA) / DELTA)
        got = scalar_um(lam, cfg)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got > 0 and math.isfinite(got)

    def test_sup_error_halves_like_sqrt_k(self):
        sups = [sup_error(LAMS, ScalarRunConfig.um(0.5, DELTA, 1, N)) for N in (16, 32)]
        assert 1.25 <= sups[0] / sups[1] <= 1.6

    def test_sup_error_slope_is_alpha(self):
        for alpha in (0.3, 0.5):
            cfgs = [ScalarRunConfig.um(alpha, DELTA, 1, N) for N in (8, 16, 32, 64)]
            sups = [sup_error(LAMS, cfg) for cfg in cfgs]
            slope = fit_loglog_slope((8, 16, 32, 64), sups)
            assert abs(slope - alpha) < 0.12

    @pytest.mark.parametrize("m", (1, 2))
    def test_gamma_family_boundedness(self, m):
        # error * lam**-gamma * k**-(alpha+gamma) stays bounded over (lam, N)
        alpha = 0.5
        Ns = (8, 16, 32, 64)
        for gamma in (0.0, 1.0, 2 * m - alpha):
            sups = []
            for N in Ns:
                cfg = ScalarRunConfig.um(alpha, DELTA, m, N)
                err = scalar_error_sweep(LAMS, cfg)
                q = err * LAMS ** -gamma * N ** (alpha + gamma)
                sups.append(q.max())
            assert max(sups) <= 3.0 * sups[0]


class TestSweeps:
    def test_sweep_at_delta_vanishes(self):
        cfg = ScalarRunConfig.um(0.5, DELTA, 1, 8)
        np.testing.assert_array_equal(scalar_error_sweep(np.array([DELTA]), cfg), [0.0])

    def test_grid_matches_scalar_loop(self):
        # oracle: one lambda at a time, each factor through eval_rational
        cfg = ScalarRunConfig.grm(0.3, DELTA, 2, 1e4, 4)
        lams = np.array([0.5, 1.0, 11.0, 1e4])
        grid = scalar_run_grid(lams, cfg)
        loop = []
        for lam in lams:
            mu = DELTA ** -0.3
            for t, k in zip(cfg.mesh.t_left, cfg.mesh.k):
                mu *= eval_rational(cfg.rational, k * (lam - DELTA) / (DELTA + t * (lam - DELTA)))
            loop.append(mu)
        np.testing.assert_allclose(grid, loop, rtol=1e-13)

    @pytest.mark.parametrize("kind", ("grm", "um"))
    def test_scalar_lambda_gives_the_float_of_the_grid(self, kind):
        # the mesh in the config picks the scheme; the GRM/UM names are aliases
        assert scalar_grm is scalar_um is scalar_run_grid
        cfg = (ScalarRunConfig.grm(0.6, DELTA, 2, 1e4, 4) if kind == "grm"
               else ScalarRunConfig.um(0.6, DELTA, 2, 16))
        lams = np.array([DELTA, 3.0, 1e4])
        grid = scalar_run_grid(lams, cfg)
        for lam, want in zip(lams, grid):
            got = scalar_run_grid(lam, cfg)
            assert type(got) is float and got == want

    def test_factors_never_exceed_one(self):
        r = pade_coefficients(2, 0.4)
        thetas = np.logspace(-8, 8, 200)
        vals = eval_rational(r, thetas)
        assert np.all(vals <= 1.0) and np.all(vals > 0.0)

    def test_telescoping_product_identity(self):
        # delta**-a * prod (1+theta_n)**-a telescopes to lam**-a
        alpha = 0.37
        for lam in (1.0, 97.0, 1e5):
            for N in (1, 7, 64):
                t = np.arange(N) / N
                theta = (1.0 / N) * (lam - DELTA) / (DELTA + t * (lam - DELTA))
                value = DELTA ** -alpha * np.prod((1.0 + theta) ** -alpha)
                assert value == pytest.approx(lam ** -alpha, rel=1e-12)

    # so small a shift overflows theta = k (lam - delta) / delta at t = 0, and
    # both gave NaN behind numpy's RuntimeWarnings (an error under Tier-1's filter)
    TINY_SHIFT = ScalarRunConfig.grm(0.5, 1e-320, 1, 1e6, 8)

    def test_run_grid_refuses_an_overflowing_theta(self):
        with pytest.raises(ValueError, match=r"^theta = .* overflows at delta = 1e-320"):
            scalar_run_grid(10.0, self.TINY_SHIFT)

    def test_sup_error_refuses_an_overflowing_theta(self):
        with pytest.raises(ValueError, match=r"^theta = .* overflows at delta = 1e-320"):
            sup_error(np.logspace(0, 6, 10), self.TINY_SHIFT)

    def test_run_grid_refuses_an_overflowing_initial_scale(self):
        # delta**-alpha raised a bare OverflowError before any step
        with pytest.raises(ValueError, match=r"^delta\*\*-alpha overflows at delta = 5e-324"):
            scalar_run_grid(10.0, ScalarRunConfig.um(0.99, 5e-324, 1, 8))


class TestSlopeFit:
    def test_exact_power_law(self):
        ns = np.array([4, 8, 16, 32])
        errs = 3.7 * ns ** -2.0
        assert fit_loglog_slope(ns, errs) == pytest.approx(2.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([4, 8], [1.0, 0.5])

    @pytest.mark.parametrize("ns", ([8, 8, 8], [4, 8, 8, 4]))
    def test_needs_three_distinct_ns(self, ns):
        # three points at two n fit a line through two means, at one n nothing
        with pytest.raises(ValueError, match="at least 3 distinct n"):
            fit_loglog_slope(ns, [1.0, 0.5, 0.25, 0.125][:len(ns)])

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([4, 8, 16], [1.0, 0.0, 0.1])

    @pytest.mark.parametrize("ns", ([8, np.nan, np.nan], [8, 16, np.inf], [0, 8, 16]))
    def test_rejects_ns_not_positive_and_finite(self, ns):
        # they reached the least-squares fit, which raised LinAlgError
        with pytest.raises(ValueError, match="^ns must be positive and finite"):
            fit_loglog_slope(ns, [1e-1, 1e-2, 1e-3])

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_rejects_non_finite_errors(self, bad):
        # NaN passed the positivity test and the fit returned a NaN slope
        with pytest.raises(ValueError, match="^errors must be positive and finite"):
            fit_loglog_slope([8, 16, 32], [1e-3, bad, 1e-5])
