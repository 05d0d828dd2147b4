import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstep import _kernels, solvers
from fracstep.fem import GridFunction, assemble_1d, assemble_2d_tensor
from fracstep.solvers import (
    BandedPencil,
    PreconditionedCG,
    SolveError,
    TensorDiagSolver,
    _pcg,
    pencil,
)
from fracstep.experiments import ExperimentSpec
from fracstep.meshes import TimeMesh
from fracstep.stepping import StepperConfig, run
from tests.sparse_pair import sparse_pair


def _jacobi(A):
    """The Jacobi preconditioner of A as a callable."""
    dinv = 1.0 / A.diagonal()
    return lambda r: dinv * r


def _modal(op, a, b):
    """The fast-diagonalization inverse of a K2 + b M2 as a callable: CG's
    preconditioner."""
    cg = PreconditionedCG(op)
    return functools.partial(cg.precondition, 1.0 / (a * cg.lambda_grid + b))


def _cg(A, rhs, rtol=1e-12, maxiter=20000):
    A = A.tocsr()
    return _pcg(A, _jacobi(A), rhs, rtol, maxiter)[0]


class TestSolveSpd:
    """The SPD solves under the pencils: the CG loop ``_pcg`` (here with
    Jacobi) and the LAPACK tridiagonal solve."""

    def test_identity(self):
        rhs = np.arange(5, dtype=float)
        out = _cg(sp.identity(5), rhs)
        np.testing.assert_allclose(out, rhs, rtol=1e-14)

    def test_poisson_solution_second_order(self):
        errs = []
        for n in (100, 200):
            op = assemble_1d(np.linspace(0, 1, n + 1))
            rhs = sparse_pair(op)[1] @ np.ones(op.n_dofs)
            sol = _kernels.tridiag_solve(*(band.copy() for band in op.stiffness_bands), rhs)
            x = op.dof_coords
            errs.append(np.max(np.abs(sol - x * (1 - x) / 2)))
            assert errs[-1] <= (1.0 / n) ** 2
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_sparse_direct_and_cg_agree(self):
        K, M = sparse_pair(assemble_2d_tensor(10))
        A = (K + 3.0 * M).tocsr()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.shape[0])
        x_direct = spla.spsolve(A.tocsc(), b)
        x_cg = _cg(A, b)
        np.testing.assert_allclose(x_cg, x_direct, atol=1e-9)

    def test_cg_iteration_budget_raises(self, monkeypatch):
        op = assemble_2d_tensor(12)
        K, M = sparse_pair(op)
        A = (K + M).tocsr()
        b = np.ones(op.n_dofs)
        with pytest.raises(SolveError, match="did not converge in 1 iterations"):
            _cg(A, b, rtol=1e-14, maxiter=1)
        # the exact preconditioner converges in the one iteration the budget allows
        monkeypatch.setattr(solvers, "CG_MAXITER", 1)
        monkeypatch.setattr(solvers, "CG_RTOL", 1e-14)
        cg = PreconditionedCG(op)
        x = cg.solve(1.0, 1.0, b[None])[0]
        assert cg.iterations(0) == (1, 1)
        assert np.linalg.norm(b - A @ x) < 1e-13 * np.linalg.norm(b)

    def test_unknown_method_rejected(self):
        # a solver is one of solvers.SOLVERS, refused otherwise when a run
        # picks its backend or a study is configured
        cfg = StepperConfig(alpha=0.5, m=1, delta=1.0, mesh=TimeMesh([0.0, 1.0]))
        for op in (assemble_1d(np.linspace(0.0, 1.0, 9)), assemble_2d_tensor(6)):
            with pytest.raises(ValueError, match="unknown solver 'lu'"):
                run(GridFunction(np.ones(op.n_dofs), op), op, cfg, solver="lu")
        with pytest.raises(ValueError, match="unknown solver 'lu'"):
            ExperimentSpec(dimension=2, solver="lu")

    def test_cg_rejects_non_finite_rhs_at_once(self):
        op = assemble_2d_tensor(10)
        rhs = np.ones(op.n_dofs)
        rhs[7] = np.nan
        # the budget would let a NaN right-hand side spin for 20 000 iterations
        with pytest.raises(SolveError, match="right-hand side not finite"):
            _cg(sum(sparse_pair(op)), rhs)
        with pytest.raises(SolveError, match="right-hand side not finite"):
            PreconditionedCG(op).solve(1.0, 1.0, rhs[None])


class TestTensorDiagSolver:
    def test_matches_sparse_solve(self):
        # solve and step take the mode coefficients of u, loaded from the
        # folded u, and give (a K2 + b M2)^{-1} M2 u folded (step adds s u)
        op = assemble_2d_tensor(9)
        solver = TensorDiagSolver(op)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(op.n_dofs)
        folded = solver.fold(u[None])
        coeffs = solver.load(folded)[0]
        K, M = sparse_pair(op)
        for a, b in ((1.0, 1.0), (0.25, 3.5), (0.0, 1.0)):
            A = (a * K + b * M).tocsc()
            want = spla.spsolve(A, M @ u)
            got = solver.unfold(solver.step([a, b, 1.0, 0.5], folded, coeffs))
            np.testing.assert_allclose(got[0], want + 0.5 * u, rtol=1e-9, atol=1e-12)
            modal = 1.0 / (a * solver.decomp.lambda_grid + b)
            np.testing.assert_allclose(solver.unfold(solver.solve(modal, coeffs))[0], want,
                                       rtol=1e-9, atol=1e-12)

    def test_matches_sparse_solve_with_a_middle_node(self):
        # an odd n per side (9 here) folds a middle row and column of its own
        op = assemble_2d_tensor(10)
        solver = TensorDiagSolver(op)
        U = np.random.default_rng(10).standard_normal((2, op.n_dofs))
        folded = solver.fold(U)
        rhs, sq_norms = solver.load(folded)
        a, b = 0.25, 3.5
        got = solver.unfold(solver.step([a, b, 1.0, 1.0, 2.0, -0.5, 0.0], folded, rhs))
        K, M = sparse_pair(op)
        for u, sq, row in zip(U, sq_norms, got):
            Mu = M @ u
            assert sq == pytest.approx(u.dot(Mu), rel=1e-13)
            want = (spla.spsolve((a * K + b * M).tocsc(), Mu)
                    - 0.5 * spla.spsolve((K + 2.0 * M).tocsc(), Mu))
            np.testing.assert_allclose(row, want, rtol=1e-9, atol=1e-12)

    def test_requires_tensor_operator(self):
        op = assemble_1d(np.linspace(0, 1, 9))
        with pytest.raises(ValueError):
            TensorDiagSolver(op)

    def test_eigenbasis_shared_across_solvers(self):
        # every solver on an operator reads the arrays of one basis, built once
        op = assemble_2d_tensor(7)
        first, second = TensorDiagSolver(op).decomp, TensorDiagSolver(op).decomp
        assert first.op is second.op is op
        for name in ("lambdas_1d", "lambda_grid", "_blocks"):
            assert getattr(first, name) is getattr(second, name)


class TestWarmStartCG:
    """``PreconditionedCG``, still reachable as ``WarmStartCG``, the name
    perfbench/tracing.py patches."""

    def test_matches_direct(self, monkeypatch):
        monkeypatch.setattr(solvers, "CG_RTOL", 1e-13)
        op = assemble_2d_tensor(9)
        cg = PreconditionedCG(op)
        direct = TensorDiagSolver(op)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(op.n_dofs)
        for a, b in ((1.0, 2.0), (1.05, 2.0), (1.1, 2.1)):
            # both give (a K2 + b M2)^{-1} M2 u from what their own load gives
            got = cg.solve(a, b, cg.load(u[None])[0])[0]
            folded = direct.fold(u[None])
            rhs = direct.load(folded)[0]
            want = direct.unfold(direct.step([a, b, 1.0, 0.0], folded, rhs))[0]
            scale = np.linalg.norm(want)
            assert np.linalg.norm(got - want) <= 1e-8 * scale


class TestPcg:
    @pytest.fixture(scope="class")
    def system(self):
        op = assemble_2d_tensor(12)
        K, M = sparse_pair(op)
        A = (0.3 * K + 5.0 * M).tocsr()
        rhs = np.random.default_rng(5).standard_normal(op.n_dofs)
        return op, A, rhs

    def test_bit_identical_to_scipy_cg(self, system):
        op, A, rhs = system
        counts = []
        for precond in (_jacobi(A), _modal(op, 0.3, 5.0)):
            M = spla.LinearOperator(A.shape, matvec=precond)
            want, info = spla.cg(A, rhs, rtol=1e-12, atol=0.0, maxiter=500, M=M)
            got, iters = _pcg(A, precond, rhs, 1e-12, 500)
            assert info == 0
            assert np.array_equal(got, want)
            counts.append(iters)
        # the modal inverse of the same pencil is exact
        assert counts[0] > 10 and 1 <= counts[1] <= 2

    def test_zero_rhs_returns_zeros_without_iterating(self, system):
        _, A, rhs = system
        x, iters = _pcg(A, _jacobi(A), np.zeros_like(rhs), 1e-12, 500)
        assert iters == 0
        assert not x.any()


class TestWarmStartCGPattern:
    def test_one_dimensional_operator_rejected(self, monkeypatch):
        # a 1D run by CG is refused by the solver-name rule when the run
        # picks its backend, before CG's state is ever built
        def never(op):
            raise AssertionError("CG's state built for a 1D operator")

        monkeypatch.setattr(solvers, "_cg_state", never)
        op = assemble_1d(np.linspace(0.0, 1.0, 9))
        cfg = StepperConfig(alpha=0.5, m=1, delta=1.0, mesh=TimeMesh([0.0, 1.0]))
        with pytest.raises(ValueError, match=r"^the cg solver needs a 2D \(tensor\) operator; "):
            run(GridFunction(np.ones(op.n_dofs), op), op, cfg, solver="cg")

    def test_iterations_counted_per_solver(self, monkeypatch):
        monkeypatch.setattr(solvers, "CG_RTOL", 1e-14)
        op = assemble_2d_tensor(9)
        cg = PreconditionedCG(op)
        rhs = np.linspace(1.0, 2.0, op.n_dofs)
        counts = []
        K, M = sparse_pair(op)
        for a, b in ((2.0, 3.0), (0.01, 500.0)):
            A = (a * K + b * M).tocsr()
            counts.append(_pcg(A, _modal(op, a, b), rhs, solvers.CG_RTOL, solvers.CG_MAXITER)[1])
            cg.solve(a, b, rhs[None])
            assert cg.iterations(0) == (sum(counts), max(counts))
        assert 1 <= min(counts) and max(counts) <= 2

    def test_rows_keep_their_own_counts(self):
        op = assemble_2d_tensor(9)
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal((2, op.n_dofs))
        block = PreconditionedCG(op, columns=2)
        singles = [PreconditionedCG(op) for _ in range(2)]
        for a, b in ((1.0, 2.0), (1.05, 2.0)):
            got = block.solve(a, b, rhs)
            for j, single in enumerate(singles):
                assert np.array_equal(got[j], single.solve(a, b, rhs[j:j + 1])[0])
        for j, single in enumerate(singles):
            assert block.iterations(j) == single.iterations(0)


class TestPencil:
    """``pencil`` picks the one backend of a run or batch by the operators'
    kind and the solver name, and refuses what fits neither."""

    def test_backend_by_operator_and_name(self):
        line, grid = assemble_1d(np.linspace(0.0, 1.0, 9)), assemble_2d_tensor(6)
        assert type(pencil([line])) is BandedPencil
        assert type(pencil([line, line], "direct", 2, (2, 1))) is BandedPencil
        assert type(pencil([grid])) is TensorDiagSolver
        assert type(pencil([grid], "cg", 2)) is PreconditionedCG

    def test_refusals(self):
        line, grid = assemble_1d(np.linspace(0.0, 1.0, 9)), assemble_2d_tensor(6)
        for ops in ([line], [grid], [line, line]):
            with pytest.raises(ValueError, match="^unknown solver 'lu'$"):
                pencil(ops, "lu")
        for ops in ([line], [line, line]):
            with pytest.raises(ValueError, match="^the cg solver needs a 2D"):
                pencil(ops, "cg")
        for ops in ([line, grid], [grid, line], [grid, grid]):
            with pytest.raises(ValueError, match="^only 1D runs step as a batch"):
                pencil(ops)


class TestBandedPencil:
    @pytest.mark.parametrize("n", (1, 2, 37))
    @pytest.mark.parametrize("c", (1, 2, 4))
    def test_flat_load_is_the_row_by_row_product(self, c, n):
        # the mass apply on the flat block gives every row the bits of its
        # own product: no coupling across a row boundary, even from a nan,
        # and the sign of a zero kept
        rng = np.random.default_rng(10 * c + n)
        op = assemble_1d(np.concatenate([[0.0], np.sort(rng.random(n)), [1.0]]))
        U = rng.standard_normal((c, n))
        U[0] = -0.0
        U[-1, 0] = np.nan
        MU, sq_norms = pencil([op], "direct", c).load(U)
        for u, Mu, sq in zip(U, MU, sq_norms):
            want = _kernels.tridiag_matvec(*op.mass_bands, u)
            assert Mu.tobytes() == want.tobytes()
            assert np.array_equal(sq, u.dot(want), equal_nan=True)


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
        # a block of data vectors, one per row
        U = rng.standard_normal((data.draw(st.integers(1, 3)), op.n_dofs))
        _check_pencil(op, method, shifts, coeffs, U)


def _check_pencil(op, method, shifts, coeffs, U):
    """``load`` and ``step`` of the backend, between its ``fold`` and
    ``unfold``, against the assembled matrices: the squared M-norm of each
    row, and sum_i c_i (a_i K + b_i M)^{-1} M u."""
    backend = pencil([op], method, len(U), [len(shifts)])
    rhs, sq_norms = backend.load(backend.fold(U))
    # the step's terms: (a_i, b_i, c_i) of each pair, then 0 as the factor on u
    terms = [*np.column_stack([shifts, coeffs]).ravel().tolist(), 0.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "CG_RTOL", 1e-14)
        got = backend.unfold(backend.step(terms, backend.fold(np.zeros_like(U)), rhs))
    assert got.shape == U.shape and len(sq_norms) == len(U)
    K, M = sparse_pair(op)
    for u, sq, row in zip(U, sq_norms, got):
        Mu = M @ u
        want = u.dot(Mu)
        assert abs(sq - want) <= 1e-13 * want
        terms = [c * spla.spsolve((a * K + b * M).tocsc(), Mu)
                 for (a, b), c in zip(shifts, coeffs)]
        # relative to the terms, so that coefficients which cancel do not count
        scale = sum(np.linalg.norm(term) for term in terms)
        assert np.linalg.norm(row - sum(terms)) <= 1e-10 * scale
