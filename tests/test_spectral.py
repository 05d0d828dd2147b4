import numpy as np
import pytest

from fracstep import _kernels
from fracstep.fem import GridFunction, assemble_1d, l2_project, m_norm
from fracstep.meshes import build_geometric_mesh
from fracstep.spectral import (
    DENSE_EIG_CAP,
    SpectralDecomposition,
    discrete_sobolev_norm,
    eig_1d,
    eig_2d_tensor,
    reference_power,
)
from fracstep.stepping import StepperConfig, run
from tests.test_fem import fem_eigenvalue


class TestEig1D:
    def test_residuals_and_orthonormality(self, op_1d_small, decomp_1d_small):
        op, dec = op_1d_small, decomp_1d_small
        K = op.stiffness.toarray()
        M = op.mass.toarray()
        R = K @ dec.modes - M @ dec.modes * dec.lambdas
        for j in range(dec.n_modes):
            denom = np.linalg.norm(K @ dec.modes[:, j])
            assert np.linalg.norm(R[:, j]) / denom < 1e-9
        G = dec.modes.T @ M @ dec.modes
        assert np.max(np.abs(G - np.eye(dec.n_modes))) < 1e-10

    def test_uniform_eigenvalue_formula(self, op_1d_small, decomp_1d_small):
        h = 1.0 / 200
        j = np.arange(1, decomp_1d_small.n_modes + 1)
        expected = fem_eigenvalue(h, j)
        np.testing.assert_allclose(decomp_1d_small.lambdas, expected, rtol=1e-8)

    def test_smallest_tends_to_continuum(self, decomp_1d_small):
        assert decomp_1d_small.lambdas[0] == pytest.approx(np.pi**2, rel=1e-3)

    def test_mass_equals_stiffness_gives_unit_spectrum(self, op_1d_small):
        from dataclasses import replace

        op = replace(op_1d_small, stiffness=op_1d_small.mass,
                     stiffness_bands=op_1d_small.mass_bands)
        dec = eig_1d(op)
        np.testing.assert_allclose(dec.lambdas, 1.0, rtol=1e-12)

    def test_dense_cap(self):
        op = assemble_1d(np.linspace(0, 1, 4003))
        with pytest.raises(ValueError):
            eig_1d(op)


class TestEig2D:
    def test_tensor_pairs_satisfy_problem(self, op_2d_small, decomp_2d_small):
        op, dec = op_2d_small, decomp_2d_small
        for j in (0, 3, 17, dec.n_modes - 1):
            psi = dec.mode_vector(j)
            lhs = op.stiffness @ psi
            rhs = dec.lambdas[j] * (op.mass @ psi)
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10

    def test_smallest_near_2pi2(self, decomp_2d_small):
        assert decomp_2d_small.lambdas[0] == pytest.approx(2 * np.pi**2, rel=2e-2)

    def test_mode_count_squares(self, op_2d_small, decomp_2d_small):
        assert decomp_2d_small.n_modes == op_2d_small.factor.n_dofs ** 2

    def test_requires_tensor(self, op_1d_small):
        with pytest.raises(ValueError):
            eig_2d_tensor(op_1d_small)


class TestReferencePower:
    def test_alpha_zero_identity(self, op_1d_small, decomp_1d_small):
        rng = np.random.default_rng(0)
        v = GridFunction(rng.standard_normal(op_1d_small.n_dofs), op_1d_small)
        out = reference_power(decomp_1d_small, v, 0.0)
        np.testing.assert_allclose(out.coeffs, v.coeffs, rtol=1e-11, atol=1e-13)

    def test_single_mode(self, op_1d_small, decomp_1d_small):
        j = 12
        psi = GridFunction(decomp_1d_small.modes[:, j].copy(), op_1d_small)
        out = reference_power(decomp_1d_small, psi, 0.5)
        expected = decomp_1d_small.lambdas[j] ** -0.5 * psi.coeffs
        np.testing.assert_allclose(out.coeffs, expected, rtol=1e-10, atol=1e-14)

    def test_alpha_one_matches_direct_solve(self, op_1d_small, decomp_1d_small):
        op = op_1d_small
        rng = np.random.default_rng(5)
        v = GridFunction(rng.standard_normal(op.n_dofs), op)
        spectral = reference_power(decomp_1d_small, v, 1.0)
        bands = (band.copy() for band in op.stiffness_bands)
        direct = _kernels.tridiag_solve(*bands, op.mass @ v.coeffs)
        diff = GridFunction(spectral.coeffs - direct, op)
        assert m_norm(op, diff) / m_norm(op, spectral) < 1e-9

    def test_semigroup(self, op_1d_small, decomp_1d_small):
        rng = np.random.default_rng(9)
        v = GridFunction(rng.standard_normal(op_1d_small.n_dofs), op_1d_small)
        ab = reference_power(decomp_1d_small,
                             reference_power(decomp_1d_small, v, 0.3), 0.4)
        direct = reference_power(decomp_1d_small, v, 0.7)
        num = m_norm(op_1d_small, GridFunction(ab.coeffs - direct.coeffs, op_1d_small))
        assert num / m_norm(op_1d_small, direct) < 1e-9

    def test_parseval(self, op_1d_small, decomp_1d_small):
        rng = np.random.default_rng(2)
        v = GridFunction(rng.standard_normal(op_1d_small.n_dofs), op_1d_small)
        coeffs = decomp_1d_small.coefficients(v.coeffs)
        assert np.sum(coeffs**2) == pytest.approx(m_norm(op_1d_small, v) ** 2, rel=1e-10)

    def test_2d_reference(self, op_2d_small, decomp_2d_small):
        j = 5
        psi = GridFunction(decomp_2d_small.mode_vector(j), op_2d_small)
        out = reference_power(decomp_2d_small, psi, 0.3)
        expected = decomp_2d_small.lambdas[j] ** -0.3 * psi.coeffs
        np.testing.assert_allclose(out.coeffs, expected, rtol=1e-9, atol=1e-13)


class TestSobolevNorm:
    def test_s_zero_is_m_norm(self, op_1d_small, decomp_1d_small):
        rng = np.random.default_rng(4)
        v = GridFunction(rng.standard_normal(op_1d_small.n_dofs), op_1d_small)
        assert discrete_sobolev_norm(decomp_1d_small, v, 0.0) == pytest.approx(
            m_norm(op_1d_small, v), rel=1e-12)

    def test_single_mode_weighting(self, op_1d_small, decomp_1d_small):
        j = 30
        psi = GridFunction(decomp_1d_small.modes[:, j].copy(), op_1d_small)
        got = discrete_sobolev_norm(decomp_1d_small, psi, 2.0)
        assert got == pytest.approx(decomp_1d_small.lambdas[j], rel=1e-9)

    @pytest.mark.parametrize("s,min_ratio", [(0.5, 1.04), (0.75, 1.1), (1.0, 1.1)])
    def test_rough_data_norm_grows_under_refinement(self, s, min_ratio):
        # constant data misses H^{1/2}: its projected norm keeps growing as
        # h shrinks for every s >= 1/2 (logarithmically at the boundary s = 1/2,
        # so the per-doubling ratio there sits near 1.05)
        norms = []
        for n in (200, 400):
            op = assemble_1d(np.linspace(0, 1, n + 1))
            dec = eig_1d(op)
            f = l2_project(op, "d")
            norms.append(discrete_sobolev_norm(dec, f, s))
        assert norms[1] / norms[0] > min_ratio


class TestAgreementChain:
    def test_grm_converges_to_reference(self, op_1d_small, decomp_1d_small):
        op = op_1d_small
        f = l2_project(op, "c")
        ref = reference_power(decomp_1d_small, f, 0.5)
        lam1 = decomp_1d_small.lambdas[0]
        lamM = decomp_1d_small.lambdas[-1]
        errs = []
        for N in (1, 2, 4, 8, 16):
            cfg = StepperConfig(alpha=0.5, m=2, delta=0.5 * lam1,
                                mesh=build_geometric_mesh(lamM, N))
            out = run(f, op, cfg)
            errs.append(m_norm(op, GridFunction(out.coeffs - ref.coeffs, op)))
        for a, b in zip(errs[:-1], errs[1:]):
            assert b <= a * 1.05 + 1e-11
