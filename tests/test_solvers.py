import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstep.fem import assemble_1d, assemble_2d_tensor
from fracstep.solvers import (
    SolveError,
    SolverPolicy,
    TensorDiagSolver,
    WarmStartCG,
    _pcg,
    solve_spd,
)
from fracstep.stepping import _pencil


class TestSolveSpd:
    def test_identity(self):
        rhs = np.arange(5, dtype=float)
        out = solve_spd(np.eye(5), rhs)
        np.testing.assert_allclose(out, rhs, rtol=1e-14)

    def test_poisson_solution_second_order(self):
        errs = []
        for n in (100, 200):
            op = assemble_1d(np.linspace(0, 1, n + 1))
            rhs = op.mass @ np.ones(op.n_dofs)
            sol = solve_spd(op.stiffness_bands, rhs)
            x = op.dof_coords
            errs.append(np.max(np.abs(sol - x * (1 - x) / 2)))
            assert errs[-1] <= (1.0 / n) ** 2
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_random_dense_spd(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((50, 50))
        A = A @ A.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        x = solve_spd(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_sparse_direct_and_cg_agree(self):
        op = assemble_2d_tensor(10)
        A = (op.stiffness + 3.0 * op.mass).tocsr()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(op.n_dofs)
        x_direct = solve_spd(A, b)
        x_cg = solve_spd(A, b, SolverPolicy(method="cg", rtol=1e-12))
        np.testing.assert_allclose(x_cg, x_direct, atol=1e-9)

    def test_cg_iteration_budget_raises(self):
        op = assemble_2d_tensor(12)
        A = (op.stiffness + op.mass).tocsr()
        b = np.ones(op.n_dofs)
        with pytest.raises(SolveError):
            solve_spd(A, b, SolverPolicy(method="cg", rtol=1e-14, maxiter=1))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            SolverPolicy(method="lu")

    @pytest.mark.parametrize("kind", ("tridiagonal", "sparse", "dense"))
    def test_nan_rhs_fails_the_residual_check(self, kind):
        op = assemble_1d(np.linspace(0, 1, 12))
        matrix = {"tridiagonal": op.stiffness_bands, "sparse": op.stiffness,
                  "dense": op.stiffness.toarray()}[kind]
        rhs = np.ones(op.n_dofs)
        rhs[3] = np.nan
        with pytest.raises(SolveError):
            solve_spd(matrix, rhs)


class TestTensorDiagSolver:
    def test_matches_sparse_solve(self):
        op = assemble_2d_tensor(9)
        solver = TensorDiagSolver(op)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal(op.n_dofs)
        for a, b in ((1.0, 1.0), (0.25, 3.5), (0.0, 1.0)):
            A = (a * op.stiffness + b * op.mass).tocsc()
            want = sp.linalg.spsolve(A, rhs)
            got = solver.solve(a, b, rhs)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

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
            want = direct.solve(a, b, rhs)
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
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = rng.standard_normal(op.n_dofs)
        pencil = _pencil(op, SolverPolicy(method))
        for got, want in ((pencil.apply_K(u), op.stiffness @ u),
                          (pencil.apply_M(u), op.mass @ u)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        zs = pencil.solves(shifts, u)
        assert len(zs) == len(shifts)
        for (a, b), z in zip([*shifts, (0.0, 1.0)], [*zs, pencil.solve_M(u)]):
            resid = (a * op.stiffness + b * op.mass) @ z - u
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(u)
