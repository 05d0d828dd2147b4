import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstep import _kernels
from fracstep.fem import assemble_1d, assemble_2d_tensor
from fracstep.solvers import (
    SolveError,
    SolverPolicy,
    TensorDiagSolver,
    WarmStartCG,
    _pcg,
)
from fracstep.stepping import _pencil


def _cg(A, rhs, rtol=1e-12, maxiter=20000):
    A = A.tocsr()
    return _pcg(A, 1.0 / A.diagonal(), rhs, None, rtol, maxiter)[0]


class TestSolveSpd:
    """The SPD solves under the pencils: the Jacobi-CG loop ``_pcg`` and the
    LAPACK tridiagonal solve."""

    def test_identity(self):
        rhs = np.arange(5, dtype=float)
        out = _cg(sp.identity(5), rhs)
        np.testing.assert_allclose(out, rhs, rtol=1e-14)

    def test_poisson_solution_second_order(self):
        errs = []
        for n in (100, 200):
            op = assemble_1d(np.linspace(0, 1, n + 1))
            rhs = op.mass @ np.ones(op.n_dofs)
            sol = _kernels.tridiag_solve(*(band.copy() for band in op.stiffness_bands), rhs)
            x = op.dof_coords
            errs.append(np.max(np.abs(sol - x * (1 - x) / 2)))
            assert errs[-1] <= (1.0 / n) ** 2
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_sparse_direct_and_cg_agree(self):
        op = assemble_2d_tensor(10)
        A = (op.stiffness + 3.0 * op.mass).tocsr()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(op.n_dofs)
        x_direct = spla.spsolve(A.tocsc(), b)
        x_cg = _cg(A, b)
        np.testing.assert_allclose(x_cg, x_direct, atol=1e-9)

    def test_cg_iteration_budget_raises(self):
        op = assemble_2d_tensor(12)
        A = (op.stiffness + op.mass).tocsr()
        b = np.ones(op.n_dofs)
        with pytest.raises(SolveError, match="did not converge in 1 iterations"):
            _cg(A, b, rtol=1e-14, maxiter=1)
        cg = WarmStartCG(op, SolverPolicy(method="cg", rtol=1e-14, maxiter=1))
        with pytest.raises(SolveError):
            cg.solve(1.0, 1.0, b)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            SolverPolicy(method="lu")

    def test_cg_rejects_non_finite_rhs_at_once(self):
        op = assemble_2d_tensor(10)
        rhs = np.ones(op.n_dofs)
        rhs[7] = np.nan
        # the budget would let a NaN right-hand side spin for 20 000 iterations
        with pytest.raises(SolveError, match="right-hand side not finite"):
            _cg(op.stiffness + op.mass, rhs)
        with pytest.raises(SolveError, match="right-hand side not finite"):
            WarmStartCG(op, SolverPolicy("cg")).solve(1.0, 1.0, rhs)


class TestTensorDiagSolver:
    def test_matches_sparse_solve(self):
        op = assemble_2d_tensor(9)
        solver = TensorDiagSolver(op)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal(op.n_dofs)
        for a, b in ((1.0, 1.0), (0.25, 3.5), (0.0, 1.0)):
            A = (a * op.stiffness + b * op.mass).tocsc()
            want = spla.spsolve(A, rhs)
            np.testing.assert_allclose(solver.combine([(a, b)], [1.0], rhs), want,
                                       rtol=1e-9, atol=1e-12)
            modal = 1.0 / (a * solver.lam_sum + b)
            np.testing.assert_allclose(solver.solve(modal, rhs), want, rtol=1e-9, atol=1e-12)

    def test_requires_tensor_operator(self):
        op = assemble_1d(np.linspace(0, 1, 9))
        with pytest.raises(ValueError):
            TensorDiagSolver(op)

    def test_eigenbasis_shared_across_solvers(self):
        op = assemble_2d_tensor(7)
        assert TensorDiagSolver(op).V is TensorDiagSolver(op).V


class TestWarmStartCG:
    def test_matches_direct(self):
        op = assemble_2d_tensor(9)
        cg = WarmStartCG(op, SolverPolicy(method="cg", rtol=1e-13))
        direct = TensorDiagSolver(op)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal(op.n_dofs)
        # repeated solves with slowly drifting shifts exercise the warm start
        for a, b in ((1.0, 2.0), (1.05, 2.0), (1.1, 2.1)):
            got = cg.solve(a, b, rhs)
            want = direct.combine([(a, b)], [1.0], rhs)
            scale = np.linalg.norm(want)
            assert np.linalg.norm(got - want) <= 1e-8 * scale


class TestPcg:
    @pytest.fixture(scope="class")
    def system(self):
        op = assemble_2d_tensor(12)
        A = (0.3 * op.stiffness + 5.0 * op.mass).tocsr()
        rhs = np.random.default_rng(5).standard_normal(op.n_dofs)
        return A, 1.0 / A.diagonal(), rhs

    def test_bit_identical_to_scipy_cg(self, system):
        A, dinv, rhs = system
        jacobi = spla.LinearOperator(A.shape, matvec=lambda v: dinv * v)
        warm = np.linspace(-1.0, 1.0, len(rhs))
        for x0 in (None, warm):
            want, info = spla.cg(A, rhs, x0=x0, rtol=1e-12, atol=0.0, maxiter=500, M=jacobi)
            got, iters = _pcg(A, dinv, rhs, x0, 1e-12, 500)
            assert info == 0 and iters > 0
            assert np.array_equal(got, want)
        assert np.array_equal(warm, np.linspace(-1.0, 1.0, len(rhs)))  # x0 untouched

    def test_zero_rhs_returns_zeros_without_iterating(self, system):
        A, dinv, rhs = system
        x, iters = _pcg(A, dinv, np.zeros_like(rhs), rhs, 1e-12, 500)
        assert iters == 0
        assert not x.any()


class TestWarmStartCGPattern:
    def test_mismatched_patterns_rejected(self):
        op = assemble_2d_tensor(6)
        lumped = dataclasses.replace(op, mass=sp.diags(op.mass.sum(axis=1).A1).tocsr())
        with pytest.raises(ValueError):
            WarmStartCG(lumped, SolverPolicy(method="cg"))

    def test_iterations_counted_per_solver(self):
        op = assemble_2d_tensor(9)
        policy = SolverPolicy(method="cg")
        cg = WarmStartCG(op, policy)
        rhs = np.ones(op.n_dofs)
        A = (2.0 * op.stiffness + 3.0 * op.mass).tocsr()
        _, cold = _pcg(A, 1.0 / A.diagonal(), rhs, None, policy.rtol, policy.maxiter)
        cg.solve(2.0, 3.0, rhs)
        assert cg.iters == cg.iters_max == cold
        cg.solve(2.1, 3.0, rhs)
        assert cg.iters > cg.iters_max >= cold


def _random_operator(data, kind):
    if kind == "banded":
        # strictly increasing nodes with a mesh ratio of at most 10
        gaps = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=40)))
        nodes = np.concatenate([[0.0], np.cumsum(gaps)])
        return assemble_1d(nodes / nodes[-1])
    return assemble_2d_tensor(data.draw(st.integers(3, 10)))


class TestShiftedPencils:
    """Every backend of the stepping protocol against the assembled matrices."""

    @pytest.mark.parametrize("kind,method", [("banded", "direct"), ("tensor", "direct"),
                                             ("tensor", "cg")])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_applies_and_solves(self, kind, method, data):
        op = _random_operator(data, kind)
        shifts = np.array(data.draw(st.lists(
            st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)), min_size=1, max_size=4)))
        coeffs = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(shifts),
                                    max_size=len(shifts)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = rng.standard_normal(op.n_dofs)
        pencil = _pencil(op, SolverPolicy(method, rtol=1e-14))
        want = op.mass @ u
        assert np.linalg.norm(pencil.apply_M(u) - want) <= 1e-13 * np.linalg.norm(want)
        terms = [c * spla.spsolve((a * op.stiffness + b * op.mass).tocsc(), u)
                 for (a, b), c in zip(shifts, coeffs)]
        got = pencil.combine(shifts, coeffs, u)
        # relative to the terms, so that coefficients which cancel do not count
        scale = sum(np.linalg.norm(term) for term in terms)
        assert np.linalg.norm(got - sum(terms)) <= 1e-10 * scale
