import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse.linalg as spla

from fracstep import fem, solvers
from fracstep.fem import (
    DiscreteOperator,
    GridFunction,
    assemble_1d,
    assemble_2d_tensor,
    data_case,
    l2_project,
    load_vector,
    m_inner,
    m_norm,
    mass_apply,
    mass_solver,
)
from fracstep.fem import _GAUSS_W, _GAUSS_X, _element_load_1d, _indicator_load_1d
from fracstep.meshes import build_graded_spatial_mesh
from tests.sparse_pair import sparse_pair


def fem_eigenvalue(h, j):
    """Analytic generalized eigenvalue of the uniform P1 pair."""
    return (6.0 / h**2) * (1 - np.cos(j * np.pi * h)) / (2 + np.cos(j * np.pi * h))


def q1_assembly_reference(n):
    """Direct bilinear-element assembly via 2x2 Gauss on each cell.

    Written independently of any tensor identity: shape gradients are
    evaluated pointwise and summed with quadrature weights.
    """
    nodes = np.linspace(0.0, 1.0, n + 1)
    h = 1.0 / n
    nn = n + 1
    K = np.zeros((nn * nn, nn * nn))
    M = np.zeros((nn * nn, nn * nn))
    g = 1.0 / np.sqrt(3.0)
    gauss = [(-g, -g), (g, -g), (g, g), (-g, g)]

    def shapes(xi, eta):
        vals = np.array([
            (1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
            (1 + xi) * (1 + eta), (1 - xi) * (1 + eta),
        ]) / 4.0
        dxi = np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)]) / 4.0
        deta = np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)]) / 4.0
        return vals, dxi, deta

    for ex in range(n):
        for ey in range(n):
            loc = [ex * nn + ey, (ex + 1) * nn + ey,
                   (ex + 1) * nn + ey + 1, ex * nn + ey + 1]
            for xi, eta in gauss:
                vals, dxi, deta = shapes(xi, eta)
                dx = dxi * (2.0 / h)
                dy = deta * (2.0 / h)
                w = (h / 2.0) ** 2
                for a in range(4):
                    for b in range(4):
                        K[loc[a], loc[b]] += w * (dx[a] * dx[b] + dy[a] * dy[b])
                        M[loc[a], loc[b]] += w * vals[a] * vals[b]
    interior = [i * nn + j for i in range(1, n) for j in range(1, n)]
    return K[np.ix_(interior, interior)], M[np.ix_(interior, interior)]


def element_load_loop(nodes, func, split_points=()):
    """The element-by-element loop that ``fem._element_load_1d`` replaces."""
    b = np.zeros(len(nodes))
    for e in range(len(nodes) - 1):
        x0, x1 = nodes[e], nodes[e + 1]
        cuts = [x0] + [s for s in split_points if x0 < s < x1] + [x1]
        for a, c in zip(cuts[:-1], cuts[1:]):
            half = (c - a) / 2.0
            xs = (a + c) / 2.0 + half * _GAUSS_X
            fv = func(xs)
            b[e] += half * np.sum(_GAUSS_W * fv * (x1 - xs)) / (x1 - x0)
            b[e + 1] += half * np.sum(_GAUSS_W * fv * (xs - x0)) / (x1 - x0)
    return b[1:-1]


def indicator_load_loop(nodes, lo, hi):
    """The element-by-element loop that ``fem._indicator_load_1d`` replaces."""
    b = np.zeros(len(nodes))
    for e in range(len(nodes) - 1):
        x0, x1 = nodes[e], nodes[e + 1]
        c, d = max(x0, lo), min(x1, hi)
        if d <= c:
            continue
        h = x1 - x0
        b[e] += ((x1 - c) ** 2 - (x1 - d) ** 2) / (2.0 * h)
        b[e + 1] += ((d - x0) ** 2 - (c - x0) ** 2) / (2.0 * h)
    return b[1:-1]


def load_2d_loop(nodes, func):
    """The element-pair loop that the 2D callable branch of ``fem.load_vector``
    replaces: 5 x 5 Gauss points per cell, four hat-function pairings each."""
    b = np.zeros((len(nodes), len(nodes)))
    for ex in range(len(nodes) - 1):
        x0, x1 = nodes[ex], nodes[ex + 1]
        hx = (x1 - x0) / 2.0
        xs = (x0 + x1) / 2.0 + hx * _GAUSS_X
        for ey in range(len(nodes) - 1):
            y0, y1 = nodes[ey], nodes[ey + 1]
            hy = (y1 - y0) / 2.0
            ys = (y0 + y1) / 2.0 + hy * _GAUSS_X
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            F = np.asarray(func((X, Y)), dtype=np.float64) * hx * hy
            wx = (_GAUSS_W * (x1 - xs) / (x1 - x0), _GAUSS_W * (xs - x0) / (x1 - x0))
            wy = (_GAUSS_W * (y1 - ys) / (y1 - y0), _GAUSS_W * (ys - y0) / (y1 - y0))
            for i in range(2):
                for j in range(2):
                    b[ex + i, ey + j] += wx[i] @ F @ wy[j]
    return b[1:-1, 1:-1].ravel()


class TestAssembly1D:
    def test_uniform_stencils(self):
        n = 10
        op = assemble_1d(np.linspace(0, 1, n + 1))
        h = 1.0 / n
        K, M = (A.toarray() for A in sparse_pair(op))
        assert K[3, 2] == pytest.approx(-1 / h) and K[3, 3] == pytest.approx(2 / h)
        assert M[3, 2] == pytest.approx(h / 6) and M[3, 3] == pytest.approx(2 * h / 3)

    def test_symmetry_and_definiteness(self):
        rng = np.random.default_rng(7)
        nodes = np.sort(np.concatenate([[0, 1], rng.uniform(0.01, 0.99, 30)]))
        op = assemble_1d(nodes)
        K, M = (A.toarray() for A in sparse_pair(op))
        assert np.max(np.abs(K - K.T)) <= 1e-14 * np.max(np.abs(K))
        assert np.max(np.abs(M - M.T)) <= 1e-14 * np.max(np.abs(M))
        for _ in range(5):
            x = rng.standard_normal(op.n_dofs)
            assert x @ (K @ x) > 0 and x @ (M @ x) > 0

    def test_smallest_eigenvalue_near_continuum(self):
        import scipy.linalg as sla

        K, M = sparse_pair(assemble_1d(np.linspace(0, 1, 201)))
        lam = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
        assert abs(lam[0] - np.pi**2) / np.pi**2 < 1e-3

    def test_sine_vectors_are_eigenvectors(self):
        n = 1000
        op = assemble_1d(np.linspace(0, 1, n + 1))
        h = 1.0 / n
        x = op.dof_coords
        K, M = sparse_pair(op)
        for j in (1, 5, 500, 999):
            psi = np.sin(j * np.pi * x)
            lam = fem_eigenvalue(h, j)
            resid = K @ psi - lam * (M @ psi)
            assert np.linalg.norm(resid) / np.linalg.norm(K @ psi) < 1e-9

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            assemble_1d([0.0, 1.0])
        with pytest.raises(ValueError):
            assemble_1d([0.0, 0.5, 0.4, 1.0])
        # two cells per side leave a tensor grid one interior node per axis short
        with pytest.raises(ValueError):
            assemble_2d_tensor(2)

    def test_tensor_grid_refusal_counts_interior_nodes(self):
        # two cells give one interior node per axis; the smallest grid has two
        with pytest.raises(ValueError, match="^n_per_side must be >= 3, got 2$"):
            assemble_2d_tensor(2)


class TestAssembly2D:
    @pytest.mark.parametrize("n", (3, 4))
    def test_matches_direct_q1_assembly(self, n):
        K, M = sparse_pair(assemble_2d_tensor(n))
        K_ref, M_ref = q1_assembly_reference(n)
        assert np.max(np.abs(K.toarray() - K_ref)) < 1e-13
        assert np.max(np.abs(M.toarray() - M_ref)) < 1e-13

    def test_eigenvalues_are_pair_sums(self):
        import scipy.linalg as sla

        op = assemble_2d_tensor(8)
        lam1, lam2 = (sla.eigh(*(A.toarray() for A in sparse_pair(x)), eigvals_only=True)
                      for x in (op.factor, op))
        expected = np.sort((lam1[:, None] + lam1[None, :]).ravel())
        np.testing.assert_allclose(lam2, expected, rtol=1e-9)

    def test_exact_symmetry(self):
        K, _ = sparse_pair(assemble_2d_tensor(5))
        diff = (K - K.T).toarray()
        assert np.max(np.abs(diff)) == 0.0


def built_fields(op):
    """What an operator keeps beyond its four fields: nothing."""
    return set(vars(op)) - {"nodes", "factor", "mass_bands", "stiffness_bands"}


class TestTensorOperator:
    """A tensor operator holds its 1D factor and never an n^2 x n^2 pair;
    CG applies one through dense copies of the factor's matrices."""

    def test_operator_holds_no_sparse_pair(self):
        # neither a 1D operator (its bands) nor a tensor one (its factor)
        # has a CSR pair to read
        for op in (assemble_1d(np.linspace(0.0, 1.0, 6)), assemble_2d_tensor(5)):
            assert not hasattr(op, "mass") and not hasattr(op, "stiffness")
            assert built_fields(op) == set()

    @pytest.mark.parametrize("n", (3, 8, 100))
    def test_mass_apply_is_the_kron_product(self, n):
        op = assemble_2d_tensor(n)
        M2 = sparse_pair(op)[1]
        rng = np.random.default_rng(n)
        v, block = rng.standard_normal(op.n_dofs), rng.standard_normal((3, op.n_dofs))
        assert np.linalg.norm(mass_apply(op, v) - M2 @ v) <= 1e-15 * np.linalg.norm(M2 @ v)
        want = (M2 @ block.T).T
        got = mass_apply(op, block)
        assert got.shape == block.shape
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
        u, w = (GridFunction(x, op) for x in block[:2])
        assert built_fields(op) == set()
        assert m_inner(op, u, w) == pytest.approx(u.coeffs @ (M2 @ w.coeffs), rel=1e-13)
        assert m_norm(op, u) == pytest.approx(np.sqrt(u.coeffs @ (M2 @ u.coeffs)), rel=1e-14)
        assert built_fields(op) == set()

    def test_scalar_valued_callable_is_broadcast(self):
        # a constant given as a scalar projects, as in 1D, to the bits of the
        # same constant given on the grid
        op = assemble_2d_tensor(8)
        got = l2_project(op, lambda xy: 1.0).coeffs
        assert got.tobytes() == l2_project(op, lambda xy: np.ones_like(xy[0])).coeffs.tobytes()

    def test_nan_valued_function_rejected(self):
        op = assemble_2d_tensor(6)
        with pytest.raises(ArithmeticError):
            l2_project(op, lambda xy: np.full_like(xy[0], np.nan))

    def test_assembly_allocates_only_the_factor(self):
        tracemalloc.start()
        try:
            op = assemble_2d_tensor(400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.n_dofs == 399**2 and op.dim == 2
        assert peak <= 0.5e6
        assert built_fields(op) == set()

    # n = 6 has 5 dofs per side, where scipy's kron takes its dense-block path
    @pytest.mark.parametrize("n", (3, 6, 8))
    def test_cg_products_are_the_kron_formula(self, monkeypatch, n):
        # CG applies a K2 + b M2 and M2 through the factor's dense K1 and M1,
        # built on its first read: to rounding, the products of the
        # Kronecker formula; the operator keeps nothing of it
        op = assemble_2d_tensor(n)
        state = solvers._cg_state(op)
        assert solvers._cg_state(op) is state  # kept, not rebuilt
        # shared by every CG run on the operator, so nothing may write it
        assert not any(x.flags.writeable for x in state)
        K, M = sparse_pair(op)
        rng = np.random.default_rng(n)
        X = rng.standard_normal((4, op.n_dofs))
        cg = solvers.PreconditionedCG(op, len(X))
        MX, sq_norms = cg.load(X)
        want = (M @ X.T).T
        assert np.linalg.norm(MX - want) <= 1e-14 * np.linalg.norm(want)
        np.testing.assert_allclose(sq_norms, np.sum(X * want, axis=1), rtol=1e-14)
        # the product each solve hands to _pcg
        products = []
        monkeypatch.setattr(solvers, "_pcg", lambda A, precond, rhs, rtol, maxiter:
                            (products.append(A), (rhs, 0))[1])
        for a, b in rng.uniform(1e-2, 1e2, (3, 2)):
            cg.solve(a, b, X[:1])
            want = ((a * K + b * M) @ X.T).T
            got = np.stack([products[-1](x) for x in X])
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (a, b)
        x = op.factor.dof_coords
        assert np.array_equal(op.dof_coords.reshape(n - 1, n - 1, 2),
                              np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1))
        assert built_fields(op) == set()


class TestDataCases:
    def test_pointwise_values(self):
        assert data_case("b", 0.5) == 0.25
        assert data_case("c", 0.3) == pytest.approx(0.3)
        assert data_case("c", 0.7) == pytest.approx(0.3)
        assert data_case("a", 0.5) == pytest.approx(1.0, rel=1e-15)
        assert data_case("d", 0.123) == 1.0
        assert data_case("e", (0.5, 0.5)) == pytest.approx(0.0625)
        assert data_case("f", (0.5, 0.5)) == 1.0
        assert data_case("f", (0.1, 0.5)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            data_case("e", 0.5)
        with pytest.raises(ValueError):
            data_case("unknown", 0.5)
        with pytest.raises(ValueError, match="1D operator"):
            load_vector(assemble_1d(np.linspace(0, 1, 11)), "e")
        with pytest.raises(ValueError, match="2D operator"):
            load_vector(assemble_2d_tensor(4), "a")


    def test_unknown_tag_refused_by_load_vector(self):
        # it was refused as a case of the other dimension
        for op in (assemble_1d(np.linspace(0, 1, 11)), assemble_2d_tensor(4)):
            with pytest.raises(ValueError, match="^unknown data case 'z'$"):
                load_vector(op, "z")


class TestProjection:
    def test_projection_of_basis_function(self, op_1d_small):
        op = op_1d_small
        k = 17
        nodes = op.nodes
        vals = np.zeros(len(nodes))
        vals[k + 1] = 1.0  # interior dof k

        def hat(x):
            return np.interp(x, nodes, vals)

        proj = l2_project(op, hat)
        e_k = np.zeros(op.n_dofs)
        e_k[k] = 1.0
        assert np.max(np.abs(proj.coeffs - e_k)) < 1e-12

    def test_projection_of_one(self):
        n = 50
        op = assemble_1d(np.linspace(0, 1, n + 1))
        b = load_vector(op, "d")
        np.testing.assert_allclose(b, 1.0 / n, rtol=1e-14)
        c = l2_project(op, "d").coeffs
        interior = c[10:-10]
        np.testing.assert_allclose(interior, 1.0, atol=1e-6)

    def test_projection_idempotent_on_fem_function(self, op_1d_small):
        op = op_1d_small
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(op.n_dofs)
        padded = np.concatenate([[0.0], coeffs, [0.0]])

        def fem_func(x):
            return np.interp(x, op.nodes, padded)

        proj = l2_project(op, fem_func)
        assert np.max(np.abs(proj.coeffs - coeffs)) < 1e-12 * np.max(np.abs(coeffs))

    def test_kink_case_load_accuracy(self):
        op = assemble_1d(np.linspace(0, 1, 11))
        b = load_vector(op, "c")
        nodes = op.nodes
        for i in range(1, 10):
            def hat(x):
                return np.interp(x, nodes, np.eye(11)[i])
            want, _ = scipy.integrate.quad(
                lambda x: min(x, 1 - x) * hat(x), 0, 1, points=[0.5],
                limit=400, epsabs=1e-14, epsrel=1e-14)
            assert b[i - 1] == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("nodes", [
        np.linspace(0, 1, 12),
        np.concatenate([[0.0], np.cumsum(np.random.default_rng(7).uniform(0.1, 1.0, 17))]),
    ], ids=["uniform", "random"])
    def test_kink_case_load_accuracy_split_element(self, nodes):
        # 0.5 falls inside an element, which is integrated on each side of it
        nodes = nodes / nodes[-1]
        assert not np.any(nodes == 0.5)
        op = assemble_1d(nodes)
        b = load_vector(op, "c")
        for i in range(1, len(nodes) - 1):
            def hat(x):
                return np.interp(x, nodes, np.eye(len(nodes))[i])
            want, _ = scipy.integrate.quad(
                lambda x: min(x, 1 - x) * hat(x), 0, 1, points=[0.5, *nodes[1:-1]],
                limit=400, epsabs=1e-14, epsrel=1e-14)
            assert b[i - 1] == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("nodes", [
        np.linspace(0, 1, 12),
        np.linspace(0, 1, 1001),
        build_graded_spatial_mesh(8),
        np.concatenate([[0.0], np.cumsum(np.random.default_rng(7).uniform(0.1, 1.0, 17))]),
    ], ids=["uniform12", "uniform1000", "graded", "random"])
    def test_loads_repeat_the_element_loop_bits(self, nodes):
        nodes = nodes / nodes[-1]
        for tag, splits in (("a", ()), ("b", ()), ("c", (0.5,)), ("d", ())):
            func = functools.partial(data_case, tag)
            np.testing.assert_array_equal(_element_load_1d(nodes, func, splits),
                                          element_load_loop(nodes, func, splits))
        # two splits in one element, and a split at a node
        func = np.sin
        for splits in ((0.3, 0.31), (nodes[3],)):
            np.testing.assert_array_equal(_element_load_1d(nodes, func, splits),
                                          element_load_loop(nodes, func, splits))
        for lo, hi in ((0.25, 0.75), (0.1, 0.33), (nodes[2], nodes[5])):
            np.testing.assert_array_equal(_indicator_load_1d(nodes, lo, hi),
                                          indicator_load_loop(nodes, lo, hi))

    def test_indicator_load_exact(self):
        # h = 1/50 puts the jumps at 0.25 and 0.75 inside elements
        op2 = assemble_2d_tensor(50)
        b = load_vector(op2, "f")
        f1 = op2.factor
        b1 = np.empty(f1.n_dofs)
        for i in range(f1.n_dofs):
            def hat(x):
                return np.interp(x, f1.nodes, np.eye(51)[i + 1])
            b1[i], _ = scipy.integrate.quad(
                lambda x: hat(x) * (0.25 <= x <= 0.75), 0, 1,
                points=[0.25, 0.75], limit=200)
        np.testing.assert_allclose(b, np.kron(b1, b1), atol=1e-15)

    def test_separable_2d_case(self):
        op2 = assemble_2d_tensor(12)
        proj = l2_project(op2, "e")
        direct = l2_project(op2, lambda xy: xy[0] * (1 - xy[0]) * xy[1] * (1 - xy[1]))
        np.testing.assert_allclose(proj.coeffs, direct.coeffs, atol=1e-13)

    @pytest.mark.parametrize("n", (3, 8, 17))
    def test_callable_2d_load_matches_the_element_loop(self, n):
        op2 = assemble_2d_tensor(n)

        def func(xy):
            return np.sin(3 * xy[0]) * np.exp(xy[1]) + xy[0] * xy[1] ** 2

        want = load_2d_loop(op2.factor.nodes, func)
        got = load_vector(op2, func)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # the callable route agrees with the separable route of tag "e"
        sep = load_vector(op2, "e")
        got = load_vector(op2, lambda xy: xy[0] * (1 - xy[0]) * xy[1] * (1 - xy[1]))
        assert np.max(np.abs(got - sep)) <= 1e-14 * np.max(np.abs(sep))

    def test_callable_2d_load_bits_do_not_depend_on_the_blas_thread_count(self):
        # one child process per OpenBLAS thread count, each hashing the load
        # of one callable on three grids; a BLAS product W F W^T in place of
        # the per-axis element rule gave other bits at 2 threads on all three
        script = ("import hashlib, numpy as np\n"
                  "from fracstep.fem import assemble_2d_tensor, load_vector\n"
                  "for n in (50, 100, 200):\n"
                  "    b = load_vector(assemble_2d_tensor(n),\n"
                  "                    lambda xy: np.sin(3 * xy[0]) * xy[1] ** 2)\n"
                  "    print(n, hashlib.sha256(b.tobytes()).hexdigest())\n")
        src = Path(fem.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        runs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                 text=True, env={**env, "OPENBLAS_NUM_THREADS": str(threads)})
                for threads in (1, 2)]
        outs = [run.communicate(timeout=120)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert len(outs[0].splitlines()) == 3 and outs[0] == outs[1]

    def test_nan_valued_function_rejected(self):
        op = assemble_1d(np.linspace(0, 1, 11))
        with pytest.raises(ArithmeticError):
            l2_project(op, lambda x: np.full_like(x, np.nan))

    @pytest.mark.parametrize("dim", (1, 2))
    def test_mass_solver_matches_sparse_solve(self, dim):
        rng = np.random.default_rng(dim)
        nodes = np.sort(np.r_[0.0, 1.0, rng.random(15)])
        op = assemble_1d(nodes) if dim == 1 else assemble_2d_tensor(7)
        rhs = rng.standard_normal(op.n_dofs)
        want = spla.spsolve(sparse_pair(op)[1].tocsc(), rhs)
        got = mass_solver(op)(rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestInnerProduct:
    def test_zero_norm(self, op_1d_small):
        z = GridFunction(np.zeros(op_1d_small.n_dofs), op_1d_small)
        assert m_norm(op_1d_small, z) == 0.0

    def test_constant_one_norm(self):
        op = assemble_1d(np.linspace(0, 1, 101))
        one = GridFunction(np.ones(op.n_dofs), op)
        val = m_inner(op, one, one)
        assert val == pytest.approx(1.0, abs=2.0 / 100)

    def test_symmetry(self, op_1d_small):
        rng = np.random.default_rng(11)
        u = GridFunction(rng.standard_normal(op_1d_small.n_dofs), op_1d_small)
        v = GridFunction(rng.standard_normal(op_1d_small.n_dofs), op_1d_small)
        assert m_inner(op_1d_small, u, v) == pytest.approx(
            m_inner(op_1d_small, v, u), rel=1e-15)

    def test_operator_mismatch(self, op_1d_small):
        other = assemble_1d(np.linspace(0, 1, 201))
        u = GridFunction(np.ones(op_1d_small.n_dofs), op_1d_small)
        v = GridFunction(np.ones(other.n_dofs), other)
        with pytest.raises(ValueError):
            m_inner(op_1d_small, u, v)
        with pytest.raises(ValueError, match="does not match"):
            GridFunction(np.ones(op_1d_small.n_dofs + 1), op_1d_small)
