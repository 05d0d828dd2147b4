import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.linalg.lapack import dpttrf, dpttrs

from fracstep import _kernels, solvers
from fracstep.fem import GridFunction, assemble_1d, assemble_2d_tensor
from fracstep.meshes import TimeMesh, build_uniform_mesh
from fracstep.pade import pade_coefficients
from fracstep.scalar import scalar_run_grid
from fracstep.stepping import StepperConfig, run


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
            _kernels.tridiag_solve(d.copy(), e.copy(), np.ones((3, 2)))

    def test_single_unknown(self):
        d, e = np.array([4.0]), np.array([])
        assert _kernels.tridiag_solve(d.copy(), e.copy(), np.array([2.0]))[0] == 0.5
        assert np.array_equal(_kernels.tridiag_solve(d.copy(), e.copy(), np.array([[2.0, 4.0]])),
                              [[0.5, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _kernels.tridiag_solve(-d, e.copy(), np.array([2.0]))

    def test_is_spd_reads_the_factorization(self):
        d, e, _ = _spd_bands(seed=10)
        lam = np.linalg.eigvalsh(_dense(d, e))[0]
        assert _kernels.is_spd(d, e)
        assert _kernels.is_spd(d - 0.99 * lam, e)
        assert not _kernels.is_spd(d - 1.01 * lam, e)
        # the test factors copies: the bands are left intact
        np.testing.assert_array_equal(d, _spd_bands(seed=10)[0])
        assert _kernels.is_spd(np.array([4.0]), np.array([]))
        assert not _kernels.is_spd(np.array([-4.0]), np.array([]))

    def test_factor_solve_matches_one_shot(self):
        # the one-shot ?ptsv has the bits of ?pttrf followed by ?pttrs
        d, e, b = _spd_bands(seed=9)
        df, ef, info = dpttrf(d, e)
        assert info == 0
        B = np.random.default_rng(9).standard_normal((len(d), 3))
        for rhs in (b, B):
            want, info = dpttrs(df, ef, rhs)
            assert info == 0
            assert np.array_equal(_kernels.tridiag_solve(d.copy(), e.copy(), rhs), want)


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


def _one_step(u, t, k, op, alpha, m, delta, solver="direct"):
    """(run over the one-step mesh [t, t + k], its dense reference)."""
    cfg = StepperConfig(alpha=alpha, m=m, delta=delta, mesh=TimeMesh([t, t + k]),
                        solver=solver)
    # the run starts from delta**-alpha u and takes the mesh's own t and k
    want = delta ** -alpha * _dense_step(op, u.coeffs, cfg.mesh.t_left[0], cfg.mesh.k[0],
                                          delta, cfg.rational)
    return run(u, op, cfg).coeffs, want


class TestStepAgainstDense:
    """One operator step, a run over the one-step mesh [t, t + k], against
    delta**-alpha r(X) u with X = k B (delta I + t B)^{-1}."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("t,k", [(0.0, 1e-3), (0.25, 0.125), (0.5, 0.5)])
    def test_matches_dense_rational(self, m, t, k):
        rng = np.random.default_rng(m)
        # a jittered uniform mesh keeps the dense reference well conditioned
        nodes = np.linspace(0.0, 1.0, 52)
        nodes[1:-1] += rng.uniform(-0.3, 0.3, 50) / 51
        op = assemble_1d(nodes)
        u = GridFunction(rng.standard_normal(op.n_dofs), op)
        got, want = _one_step(u, t, k, op, alpha=0.3, m=m, delta=4.0)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("method", ["direct", "cg"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("t,k", [(0.0, 1e-3), (0.25, 0.125), (0.5, 0.5)])
    def test_2d_matches_dense_rational(self, method, m, t, k, monkeypatch):
        monkeypatch.setattr(solvers, "CG_RTOL", 1e-14)
        op = assemble_2d_tensor(6)
        u = GridFunction(np.random.default_rng(m).standard_normal(op.n_dofs), op)
        got, want = _one_step(u, t, k, op, alpha=0.3, m=m, delta=10.0,
                              solver=method)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
