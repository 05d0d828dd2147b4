import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from fracstep import _kernels
from fracstep.fem import GridFunction, assemble_1d, assemble_2d_tensor
from fracstep.meshes import build_uniform_mesh
from fracstep.pade import pade_coefficients
from fracstep.scalar import scalar_run_grid
from fracstep.solvers import SolverPolicy
from fracstep.stepping import StepperConfig, apply_pade_step


def _spd_bands(n=40, seed=0):
    """Diagonally dominant, hence SPD, tridiagonal (d, e) plus a right-hand side."""
    rng = np.random.default_rng(seed)
    d = 2.0 + rng.random(n)
    e = -rng.random(n - 1) * 0.9
    b = rng.standard_normal(n)
    return d, e, b


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestNumpyBackend:
    def test_solve_then_matvec_roundtrip(self):
        d, e, b = _spd_bands(seed=5)
        x = _kernels.tridiag_solve(d.copy(), e.copy(), b)
        back = _kernels.tridiag_matvec(d, e, x)
        np.testing.assert_allclose(back, b, rtol=1e-12, atol=1e-13)

    def test_matrix_rhs_dispatch(self):
        d, e, _ = _spd_bands(seed=6)
        B = np.random.default_rng(6).standard_normal((len(d), 3))
        X = _kernels.tridiag_solve(d.copy(), e.copy(), B)
        for col in range(3):
            np.testing.assert_allclose(
                _kernels.tridiag_matvec(d, e, X[:, col]), B[:, col],
                rtol=1e-12, atol=1e-13)

    def test_sweep_matches_direct_product(self):
        # the scalar recurrence's Horner loop against numpy's polyval
        lams = np.logspace(0, 5, 64)
        cfg = StepperConfig(alpha=0.4, m=2, delta=0.5, mesh=build_uniform_mesh(10))
        got = scalar_run_grid(lams, cfg)

        r = pade_coefficients(2, 0.4)
        want = np.full_like(lams, 0.5 ** -0.4)
        for t, k in zip(cfg.mesh.t_left, cfg.mesh.k):
            theta = k * (lams - 0.5) / (0.5 + t * (lams - 0.5))
            want *= npoly.polyval(theta, r.p_coeffs) / npoly.polyval(theta, r.q_coeffs)
        np.testing.assert_allclose(got, want, rtol=1e-13)


class TestTridiagLapack:
    @pytest.mark.parametrize("seed", range(5))
    def test_solve_matches_dense(self, seed):
        d, e, b = _spd_bands(n=30 + seed, seed=seed)
        T = _dense(d, e)
        B = np.random.default_rng(seed + 100).standard_normal((len(d), 4))
        for rhs in (b, B):
            want = np.linalg.solve(T, rhs)
            got = _kernels.tridiag_solve(d.copy(), e.copy(), rhs)
            assert got.shape == rhs.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_rhs_left_intact(self):
        d, e, b = _spd_bands(seed=7)
        kept = b.copy()
        _kernels.tridiag_solve(d.copy(), e.copy(), b)
        assert np.array_equal(b, kept)

    def test_matvec_matches_dense(self):
        d, e, b = _spd_bands(seed=8)
        np.testing.assert_allclose(_kernels.tridiag_matvec(d, e, b), _dense(d, e) @ b,
                                   rtol=1e-14, atol=1e-14)

    def test_not_spd_raises(self):
        d = np.array([1.0, 1.0, 1.0])
        e = np.array([2.0, 0.5])
        with pytest.raises(np.linalg.LinAlgError):
            _kernels.tridiag_solve(d.copy(), e.copy(), np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            _kernels.TridiagFactor(d, e)

    def test_single_unknown(self):
        d, e = np.array([4.0]), np.array([])
        assert _kernels.tridiag_solve(d.copy(), e.copy(), np.array([2.0]))[0] == 0.5
        assert _kernels.TridiagFactor(d, e).solve(np.array([2.0]))[0] == 0.5
        with pytest.raises(np.linalg.LinAlgError):
            _kernels.tridiag_solve(-d, e.copy(), np.array([2.0]))

    def test_factor_solve_matches_one_shot(self):
        d, e, b = _spd_bands(seed=9)
        factor = _kernels.TridiagFactor(d, e)
        B = np.random.default_rng(9).standard_normal((len(d), 3))
        for rhs in (b, B):
            np.testing.assert_allclose(
                factor.solve(rhs), _kernels.tridiag_solve(d.copy(), e.copy(), rhs),
                rtol=1e-14, atol=1e-15)
        # the factor keeps its own copy of the bands
        np.testing.assert_array_equal(d, _spd_bands(seed=9)[0])


def _dense_step(op, u, t, k, delta, r):
    """Q(X)^{-1} P(X) u with X = k B (delta I + t B)^{-1}, all matrices dense."""
    n = op.n_dofs
    A = np.linalg.solve(op.mass.toarray(), op.stiffness.toarray())
    B = A - delta * np.eye(n)
    X = k * B @ np.linalg.inv(delta * np.eye(n) + t * B)

    def poly(coeffs):
        out = coeffs[-1] * np.eye(n)
        for c in coeffs[-2::-1]:
            out = out @ X + c * np.eye(n)
        return out

    return np.linalg.solve(poly(r.q_coeffs), poly(r.p_coeffs) @ u)


class TestStepAgainstDense:
    """One operator step against r(X) u with X = k B (delta I + t B)^{-1}."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("t,k", [(0.0, 1e-3), (0.25, 0.125), (0.5, 0.5)])
    def test_matches_dense_rational(self, m, t, k):
        rng = np.random.default_rng(m)
        # a jittered uniform mesh keeps the dense reference well conditioned
        nodes = np.linspace(0.0, 1.0, 52)
        nodes[1:-1] += rng.uniform(-0.3, 0.3, 50) / 51
        op = assemble_1d(nodes)
        u = GridFunction(rng.standard_normal(op.n_dofs), op)
        delta, alpha = 4.0, 0.3
        cfg = StepperConfig(alpha=alpha, m=m, delta=delta, mesh=build_uniform_mesh(1))
        got = apply_pade_step(u, t, k, op, cfg).coeffs
        want = _dense_step(op, u.coeffs, t, k, delta, cfg.rational)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("method", ["direct", "cg"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("t,k", [(0.0, 1e-3), (0.25, 0.125), (0.5, 0.5)])
    def test_2d_matches_dense_rational(self, method, m, t, k):
        op = assemble_2d_tensor(6)
        u = GridFunction(np.random.default_rng(m).standard_normal(op.n_dofs), op)
        delta, alpha = 10.0, 0.3
        cfg = StepperConfig(alpha=alpha, m=m, delta=delta, mesh=build_uniform_mesh(1),
                            solver=SolverPolicy(method, rtol=1e-14))
        got = apply_pade_step(u, t, k, op, cfg).coeffs
        want = _dense_step(op, u.coeffs, t, k, delta, cfg.rational)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
