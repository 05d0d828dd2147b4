import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from fracstep import _kernels, spectral
from fracstep.fem import (DiscreteOperator, GridFunction, assemble_1d, assemble_2d_tensor,
                          l2_project, m_norm)
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
        # the cap holds on the dense eigensolve, not on the uniform sine basis
        nodes = np.linspace(0, 1, 4003)
        nodes[5] += 1e-9
        with pytest.raises(ValueError, match="dense eigensolve capped at 4000 dofs"):
            eig_1d(assemble_1d(nodes))


def uniform_op(n):
    return assemble_1d(np.linspace(0.0, 1.0, n + 2))


class TestUniformClosedForm:
    @pytest.fixture
    def no_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on a uniform mesh")

        monkeypatch.setattr(spectral.sla, "eigh", refuse)

    @pytest.mark.parametrize("n", (1, 2, 10, 199, 999))
    def test_no_dense_eigensolve(self, n, no_eigh):
        # linspace bands are about (n+1) eps / 2 off the uniform ones
        assert eig_1d(uniform_op(n)).n_modes == n

    def test_tensor_factor_takes_closed_form(self, no_eigh):
        assert eig_2d_tensor(assemble_2d_tensor(100)).n_modes == 99**2

    def test_perturbed_mesh_takes_dense_eigensolve(self, monkeypatch):
        nodes = np.linspace(0.0, 1.0, 12)
        nodes[5] += 1e-9
        calls = []
        eigh = sla.eigh
        monkeypatch.setattr(spectral.sla, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
        eig_1d(assemble_1d(nodes))
        assert calls == [1]

    @pytest.mark.parametrize("n", (10, 199, 999))
    def test_eigenvalues_match_dense_eigh(self, n):
        # dense eigh is itself off by up to 7e-12 relative at 999 dofs
        op = uniform_op(n)
        dense = sla.eigh(op.stiffness.toarray(), op.mass.toarray(), eigvals_only=True)
        np.testing.assert_allclose(eig_1d(op).lambdas, dense, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n", (10, 199, 999))
    def test_orthonormality_and_residuals(self, n):
        op = uniform_op(n)
        dec = eig_1d(op)
        K, M, V = op.stiffness.toarray(), op.mass.toarray(), dec.modes
        assert np.max(np.abs(V.T @ M @ V - np.eye(n))) < 1e-13
        # normwise backward error of each eigenpair, in infinity norms
        R = K @ V - M @ V * dec.lambdas
        scale = (np.abs(K).sum(1).max() + dec.lambdas * np.abs(M).sum(1).max())
        scale *= np.abs(V).max(axis=0)
        assert np.max(np.abs(R).max(axis=0) / scale) < 1e-13

    def test_modes_are_the_one_n_by_n_array(self):
        # built on first use, in place: no second n x n array along the way
        n = 999
        dec = eig_1d(uniform_op(n))
        tracemalloc.start()
        try:
            dec.modes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n**2

    def test_reference_memory_is_linear(self):
        # the sine basis is two length-n vectors and each transform one row
        # of 2 (n+1) samples: no n x n array (3.2 GB here) along the way
        n = 20_000
        op = uniform_op(n)
        f = l2_project(op, "a")
        tracemalloc.start()
        try:
            reference_power(eig_1d(op), f, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 8 * n

    def test_modes_over_the_cap_refused_without_allocating(self):
        n = DENSE_EIG_CAP + 1
        dec = eig_1d(uniform_op(n))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense modes capped at 4000 dofs"):
                dec.modes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n
        assert "modes" not in vars(dec)

    @pytest.mark.parametrize("n", (1, 2, 3, 10, 64))
    def test_sine_transform_is_the_sine_matrix(self, n):
        j = np.arange(1, n + 1)
        S = np.sin(np.outer(j, j) * (np.pi / (n + 1)))
        x = np.random.default_rng(n).standard_normal((3, n))
        got = spectral.sine_transform(x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, x @ S, rtol=0, atol=1e-14 * np.abs(x).sum())
        np.testing.assert_allclose(spectral.sine_transform(x[0]), got[0], rtol=0, atol=0)

    def test_reference_power_against_long_double_sine_series(self):
        n = 999
        op = uniform_op(n)
        dec = eig_1d(op)
        ld = np.longdouble
        pi = 4 * np.arctan(ld(1))
        h = ld(1) / (n + 1)
        j = np.arange(1, n + 1)
        theta = j * pi / (n + 1)
        lam = 12 / h**2 * np.sin(theta / 2) ** 2 / (2 + np.cos(theta))
        mu = h / 3 * (2 + np.cos(theta))
        # mode j is scale_j sin(i theta_j), and M acts on it as mu_j
        sines = np.sin(np.outer(j, j).astype(ld) * (pi / (n + 1)))
        scale = np.sqrt(2 / ((n + 1) * mu))
        for tag in "abcd":
            f = l2_project(op, tag)
            weights = mu * scale**2 * (sines @ f.coeffs.astype(ld))
            for alpha in (0.1, 0.5, 0.9):
                exact = sines @ (lam ** -ld(alpha) * weights)
                got = reference_power(dec, f, alpha)
                diff = GridFunction((got.coeffs - exact).astype(np.float64), op)
                exact_norm = m_norm(op, GridFunction(exact.astype(np.float64), op))
                assert m_norm(op, diff) / exact_norm < 1e-13, (tag, alpha)


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

    def test_requires_tensor(self, op_1d_small, op_2d_small):
        with pytest.raises(ValueError):
            eig_2d_tensor(op_1d_small)
        # and the 1D decomposition refuses a tensor operator
        with pytest.raises(ValueError):
            eig_1d(op_2d_small)


class TestParityFold:
    """The folded grid and the half-size transforms on it, at both parities
    of n (n_per_side 3 and 9 give an even n, 4 and 10 an odd one with a
    middle node)."""

    SIDES = (3, 4, 9, 10)

    @staticmethod
    def _setup(n_per_side):
        op = assemble_2d_tensor(n_per_side)
        v = np.random.default_rng(n_per_side).standard_normal((3, op.n_dofs))
        return op, eig_2d_tensor(op), v

    @pytest.mark.parametrize("n_per_side", SIDES)
    def test_fold_is_the_sum_and_difference_of_mirrored_nodes(self, n_per_side):
        op, dec, v = self._setup(n_per_side)
        n, h = n_per_side - 1, (n_per_side - 1) // 2
        F = np.zeros((n, n))
        for i in range(h):
            F[i, i] = F[i, n - 1 - i] = F[n - h + i, i] = 1.0
            F[n - h + i, n - 1 - i] = -1.0
        if n % 2:
            F[h, h] = 1.0
        for got, row in zip(dec.fold(v), v):
            assert np.array_equal(got, (F @ row.reshape(n, n) @ F.T).ravel())
        back = dec.unfold(dec.fold(v))
        assert np.abs(back - v).max() <= 4 * np.finfo(float).eps * np.abs(v).max()

    @pytest.mark.parametrize("n_per_side", SIDES)
    def test_folded_coefficients_are_the_dense_ones_in_parity_order(self, n_per_side):
        # modes^T M1 V M1 modes with the natural sine modes of the factor,
        # rows and columns taken odd j first, then even j
        op, dec, v = self._setup(n_per_side)
        n = n_per_side - 1
        Q = eig_1d(op.factor).modes
        M1 = op.factor.mass.toarray()
        order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)])
        for got, row in zip(dec.folded_coefficients(dec.fold(v)), v):
            want = (Q.T @ M1 @ row.reshape(n, n) @ M1 @ Q)[np.ix_(order, order)].ravel()
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        lam = eig_1d(op.factor).lambdas[order]
        np.testing.assert_array_equal(dec.lambda_grid, (lam[:, None] + lam[None, :]).ravel())
        # the synthesis of those coefficients is the folded grid again
        np.testing.assert_allclose(dec.folded_synthesize(dec.coefficients(v)), dec.fold(v),
                                   rtol=0, atol=1e-13 * np.abs(v).max())

    @pytest.mark.parametrize("n_per_side", SIDES)
    def test_parseval(self, n_per_side):
        op, dec, v = self._setup(n_per_side)
        for coeffs, row in zip(dec.coefficients(v), v):
            u = GridFunction(row, op)
            assert np.sum(coeffs**2) == pytest.approx(m_norm(op, u) ** 2, rel=1e-13)

    @pytest.mark.parametrize("n_per_side", SIDES)
    def test_block_rows_have_their_one_row_bits(self, n_per_side):
        _, dec, v = self._setup(n_per_side)
        for transform in (dec.fold, dec.unfold, dec.folded_coefficients,
                          dec.folded_synthesize):
            block = transform(v)
            for j, row in enumerate(v):
                assert np.array_equal(block[j], transform(row))

    def test_non_uniform_factor_refused(self):
        # the fold needs the parity of the sine modes, which a graded factor lacks
        graded = assemble_1d(np.linspace(0.0, 1.0, 10) ** 1.5)
        op = DiscreteOperator(nodes=graded.nodes, factor=graded)
        with pytest.raises(ValueError, match="uniform 1D factor"):
            eig_2d_tensor(op)


class TestModalApply:
    """``apply``, the one transform the tensor solvers and the reference share."""

    @pytest.mark.parametrize("dim", (1, 2))
    def test_solves_the_shifted_pencil_row_by_row(self, dim, request):
        op = request.getfixturevalue(f"op_{dim}d_small")
        dec = request.getfixturevalue(f"decomp_{dim}d_small")
        rhs = np.random.default_rng(dim).standard_normal((3, op.n_dofs))
        a, b = 0.3, 5.0
        got = dec.apply(1.0 / (a * dec.lambda_grid + b), rhs)
        assert got.shape == rhs.shape
        A = (a * op.stiffness + b * op.mass).tocsc()
        for row, r in zip(got, rhs):
            want = spla.spsolve(A, r)
            assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)

    def test_tensor_rows_have_their_one_vector_bits(self, op_2d_small, decomp_2d_small):
        dec = decomp_2d_small
        rhs = np.random.default_rng(7).standard_normal((3, op_2d_small.n_dofs))
        modal = 1.0 / (dec.lambda_grid + 2.0)
        for block, one in ((dec.apply(modal, rhs), lambda r: dec.apply(modal, r)),
                           (dec.coefficients(rhs), dec.coefficients),
                           (dec.synthesize(rhs), dec.synthesize)):
            for j, r in enumerate(rhs):
                assert np.array_equal(block[j], one(r))

    def test_sine_rows_have_their_one_vector_bits(self):
        dec = eig_1d(uniform_op(999))
        rhs = np.random.default_rng(8).standard_normal((4, 999))
        modal = 1.0 / (dec.lambda_grid + 2.0)
        for block, one in ((dec.apply(modal, rhs), lambda r: dec.apply(modal, r)),
                           (dec.coefficients(rhs), dec.coefficients),
                           (dec.synthesize(rhs), dec.synthesize)):
            for j, r in enumerate(rhs):
                assert np.array_equal(block[j], one(r))

    def test_contiguous_transposes_only_for_tensor_operators(self, op_1d_small,
                                                               decomp_2d_small):
        # a uniform 1D basis transforms by sines and builds no n x n array
        dec = eig_1d(op_1d_small)
        dec.synthesize(dec.coefficients(np.ones(op_1d_small.n_dofs)))
        dec.apply(np.ones(dec.n_modes), np.ones(op_1d_small.n_dofs))
        assert {"modes", "_modes_t", "_blocks"}.isdisjoint(vars(dec))
        # a dense 1D basis (up to 4000 x 4000) gets no copy of its modes
        nodes = np.linspace(0.0, 1.0, 12)
        nodes[5] += 1e-9
        dense = eig_1d(assemble_1d(nodes))
        dense.synthesize(dense.coefficients(np.ones(10)))
        assert np.shares_memory(dense._modes_t, dense.modes)
        assert "_blocks" not in vars(dense)
        modes_t = decomp_2d_small._modes_t
        assert modes_t.flags.c_contiguous
        assert not np.shares_memory(modes_t, decomp_2d_small.modes)
        blocks = [A for part in decomp_2d_small._blocks for pair in part for A in pair]
        assert len(blocks) == 8 and all(A.flags.c_contiguous for A in blocks)

    def test_tensor_basis_returned_with_its_dense_factors(self):
        # the half-size factors of the folded transforms are built by
        # eig_2d_tensor, so they count as eigenbasis setup, not as the first
        # transform's; the n x n modes only serve apply (CG), on first use
        dec = eig_2d_tensor(assemble_2d_tensor(12))
        assert "_blocks" in vars(dec)
        assert {"modes", "_modes_t"}.isdisjoint(vars(dec))

    @pytest.mark.parametrize("n", range(4, 31))
    def test_tensor_coefficients_match_the_assembled_mass(self, n):
        # P^T V P with P = M1 modes is modes^T (M2 v) modes along both axes
        op = assemble_2d_tensor(n)
        dec = eig_2d_tensor(op)
        v = np.random.default_rng(n).standard_normal((2, op.n_dofs))
        side = len(dec.lambdas_1d)
        for got, row in zip(dec.coefficients(v), v):
            want = dec.modes.T @ (op.mass @ row).reshape(side, side) @ dec.modes
            assert np.linalg.norm(got - want.ravel()) <= 1e-13 * np.linalg.norm(want)


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

    def test_operator_mismatch(self, decomp_1d_small):
        other = assemble_1d(np.linspace(0.0, 1.0, 201))
        v = GridFunction(np.ones(other.n_dofs), other)
        with pytest.raises(ValueError, match="different operator"):
            reference_power(decomp_1d_small, v, 0.5)
        with pytest.raises(ValueError, match="different operator"):
            discrete_sobolev_norm(decomp_1d_small, v, 1.0)

    @pytest.mark.parametrize("kind", ("uniform", "graded", "tensor"))
    def test_sequence_of_exponents_from_one_analysis(self, monkeypatch, kind):
        # a sequence of exponents gives, bit for bit, the per-exponent
        # references, and analyses v once
        if kind == "tensor":
            op = assemble_2d_tensor(8)
            dec = eig_2d_tensor(op)
        else:
            op = assemble_1d(np.linspace(0.0, 1.0, 41) ** (1 if kind == "uniform" else 2))
            dec = eig_1d(op)
        v = GridFunction(np.random.default_rng(6).standard_normal(op.n_dofs), op)
        alphas = (0.1, 0.5, 0.9)
        singles = [reference_power(dec, v, alpha) for alpha in alphas]
        calls = []
        analyse = type(dec).coefficients
        monkeypatch.setattr(type(dec), "coefficients",
                            lambda self, x: calls.append(1) or analyse(self, x))
        refs = reference_power(dec, v, alphas)
        assert len(calls) == 1 and isinstance(refs, list)
        assert [ref.coeffs.tobytes() for ref in refs] == [
            one.coeffs.tobytes() for one in singles]
        assert all(ref.op is op for ref in refs)

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
