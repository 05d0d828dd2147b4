import numpy as np
import pytest

from fracstep.fem import GridFunction, assemble_1d, assemble_2d_tensor, l2_project, m_norm
from fracstep.meshes import build_geometric_mesh, build_uniform_mesh
from fracstep.pade import eval_rational, pade_coefficients
from fracstep.scalar import ScalarRunConfig, scalar_run_grid
from fracstep.solvers import SolveError, SolverPolicy, WarmStartCG
from fracstep.spectral import discrete_sobolev_norm, eig_1d, reference_power
from fracstep.stepping import (
    SpectralBounds,
    StepperConfig,
    apply_pade_step,
    default_delta,
    estimate_spectral_bounds,
    run,
    run_grm,
    run_um,
    spectral_upper_bound,
)
from tests.test_fem import fem_eigenvalue


@pytest.fixture(scope="module")
def setup_1d():
    op = assemble_1d(np.linspace(0, 1, 201))
    dec = eig_1d(op)
    delta = 0.5 * dec.lambdas[0]
    return op, dec, delta


class TestSpectralBounds:
    def test_uniform_mesh_brackets(self, setup_1d):
        op, dec, _ = setup_1d
        bounds = estimate_spectral_bounds(op)
        lam1, lamM = dec.lambdas[0], dec.lambdas[-1]
        assert bounds.lambda_min_est <= lam1 <= bounds.lambda_max_est
        assert bounds.lambda_max_est >= lamM
        assert bounds.lambda_min_est == pytest.approx(np.pi**2, rel=0.02)
        assert bounds.lambda_max_est == pytest.approx(fem_eigenvalue(1 / 200, 200), rel=0.02)

    def test_proportional_pair(self, setup_1d):
        from dataclasses import replace

        op, _, _ = setup_1d
        c = 5.0
        scaled = replace(op, stiffness=(c * op.mass).tocsr(),
                         stiffness_bands=tuple(c * b for b in op.mass_bands))
        bounds = estimate_spectral_bounds(scaled)
        assert bounds.lambda_min_est == pytest.approx(c, rel=0.02)
        assert bounds.lambda_max_est == pytest.approx(c, rel=0.02)

    def test_tensor_doubles_factor_bounds(self):
        op2 = assemble_2d_tensor(10)
        b1 = estimate_spectral_bounds(op2.factor)
        b2 = estimate_spectral_bounds(op2)
        assert b2.lambda_min_est == pytest.approx(2 * b1.lambda_min_est, rel=1e-12)
        assert b2.lambda_max_est == pytest.approx(2 * b1.lambda_max_est, rel=1e-12)

    def test_determinism(self, setup_1d):
        op, _, _ = setup_1d
        a = estimate_spectral_bounds(op, seed=1)
        b = estimate_spectral_bounds(op, seed=1)
        assert a == b

    def test_upper_bound_is_fried_on_uniform_meshes(self, setup_1d):
        op, _, _ = setup_1d
        assert spectral_upper_bound(op) == pytest.approx(12 * 200**2, rel=1e-12)
        op2 = assemble_2d_tensor(10)
        assert spectral_upper_bound(op2) == pytest.approx(24 * 10**2, rel=1e-12)

    def test_upper_bound_needs_a_dominant_mass(self, setup_1d):
        from dataclasses import replace

        op, _, _ = setup_1d
        Md, Ml = op.mass_bands
        with pytest.raises(ValueError, match="diagonally dominant"):
            spectral_upper_bound(replace(op, mass_bands=(Md, 3.0 * Ml)))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralBounds(lambda_min_est=-1.0, lambda_max_est=2.0)
        with pytest.raises(ValueError):
            SpectralBounds(lambda_min_est=3.0, lambda_max_est=2.0)


class TestApplyStep:
    def test_zero_step_is_identity(self, setup_1d):
        op, dec, delta = setup_1d
        cfg = StepperConfig(alpha=0.5, m=1, delta=delta, mesh=build_uniform_mesh(4))
        rng = np.random.default_rng(0)
        u = GridFunction(rng.standard_normal(op.n_dofs), op)
        out = apply_pade_step(u, 0.3, 0.0, op, cfg)
        np.testing.assert_array_equal(out.coeffs, u.coeffs)

    @pytest.mark.parametrize("j", (0, 10, 100, 198))
    def test_eigenvector_scaling(self, setup_1d, j):
        op, dec, delta = setup_1d
        r = pade_coefficients(2, 0.3)
        cfg = StepperConfig(alpha=0.3, m=2, delta=delta, mesh=build_uniform_mesh(4))
        t, k = 0.25, 0.125
        psi = GridFunction(dec.modes[:, j].copy(), op)
        out = apply_pade_step(psi, t, k, op, cfg)
        lam = dec.lambdas[j]
        theta = k * (lam - delta) / (delta + t * (lam - delta))
        expected = eval_rational(r, theta)
        diff = GridFunction(out.coeffs - expected * psi.coeffs, op)
        assert m_norm(op, diff) / abs(expected) < 1e-10

    def test_single_step_matches_spectral_application(self, setup_1d):
        op, dec, _ = setup_1d
        delta = 0.5
        alpha, m = 0.5, 1
        r = pade_coefficients(m, alpha)
        cfg = StepperConfig(alpha=alpha, m=m, delta=delta, mesh=build_uniform_mesh(1))
        f = l2_project(op, "b")
        out = apply_pade_step(f, 0.0, 1.0, op, cfg)
        theta = (dec.lambdas - delta) / delta
        coeffs = dec.coefficients(f.coeffs)
        expected = dec.synthesize(eval_rational(r, theta) * coeffs)
        diff = GridFunction(out.coeffs - expected, op)
        assert m_norm(op, diff) / m_norm(op, f) < 1e-10

    def test_step_preconditions(self, setup_1d):
        op, _, delta = setup_1d
        cfg = StepperConfig(alpha=0.5, m=1, delta=delta, mesh=build_uniform_mesh(4))
        u = GridFunction(np.ones(op.n_dofs), op)
        with pytest.raises(ValueError):
            apply_pade_step(u, 0.9, 0.2, op, cfg)
        with pytest.raises(ValueError):
            apply_pade_step(u, 1.2, 0.1, op, cfg)


class TestRunSchemes:
    @pytest.mark.parametrize("scheme", ("grm", "um"))
    def test_diagonal_equivalence_on_eigenvectors(self, setup_1d, scheme):
        op, dec, delta = setup_1d
        alpha, m = 0.5, 1
        lamM = dec.lambdas[-1]
        mesh = build_geometric_mesh(lamM, 4) if scheme == "grm" else build_uniform_mesh(16)
        cfg = StepperConfig(alpha=alpha, m=m, delta=delta, mesh=mesh)
        scfg = ScalarRunConfig(alpha=alpha, delta=delta, m=m, mesh=mesh)
        rng = np.random.default_rng(42)
        for j in rng.choice(dec.n_modes, size=10, replace=False):
            psi = GridFunction(dec.modes[:, j].copy(), op)
            out = run(psi, op, cfg)
            mu = scalar_run_grid(dec.lambdas[j], scfg)
            diff = GridFunction(out.coeffs - mu * psi.coeffs, op)
            assert m_norm(op, diff) / abs(mu) < 1e-10

    def test_zero_data_maps_to_zero(self, setup_1d):
        op, dec, delta = setup_1d
        cfg = StepperConfig(alpha=0.5, m=1, delta=delta,
                            mesh=build_geometric_mesh(dec.lambdas[-1], 2))
        out = run(GridFunction(np.zeros(op.n_dofs), op), op, cfg)
        assert m_norm(op, out) == 0.0

    def test_linearity(self, setup_1d):
        op, dec, delta = setup_1d
        cfg = StepperConfig(alpha=0.7, m=2, delta=delta,
                            mesh=build_geometric_mesh(dec.lambdas[-1], 2))
        rng = np.random.default_rng(8)
        u = GridFunction(rng.standard_normal(op.n_dofs), op)
        v = GridFunction(rng.standard_normal(op.n_dofs), op)
        w = GridFunction(2.5 * u.coeffs - 0.75 * v.coeffs, op)
        out_w = run(w, op, cfg)
        combo = 2.5 * run(u, op, cfg).coeffs - 0.75 * run(v, op, cfg).coeffs
        diff = GridFunction(out_w.coeffs - combo, op)
        assert m_norm(op, diff) / m_norm(op, out_w) < 1e-11

    def test_dense_vector_matches_scalar_reconstruction(self, setup_1d):
        op, dec, delta = setup_1d
        alpha, m = 0.3, 2
        mesh = build_geometric_mesh(dec.lambdas[-1], 2)
        cfg = StepperConfig(alpha=alpha, m=m, delta=delta, mesh=mesh)
        scfg = ScalarRunConfig(alpha=alpha, delta=delta, m=m, mesh=mesh)
        rng = np.random.default_rng(1)
        v = GridFunction(rng.standard_normal(op.n_dofs), op)
        out = run(v, op, cfg)
        mus = scalar_run_grid(dec.lambdas, scfg)
        expected = dec.synthesize(mus * dec.coefficients(v.coeffs))
        diff = GridFunction(out.coeffs - expected, op)
        assert m_norm(op, diff) / m_norm(op, out) < 1e-9

    def test_stability_no_norm_growth(self, setup_1d):
        op, dec, delta = setup_1d
        f = l2_project(op, "d")
        for mesh in (build_geometric_mesh(dec.lambdas[-1], 4), build_uniform_mesh(32)):
            cfg = StepperConfig(alpha=0.5, m=2, delta=delta, mesh=mesh)
            _, stats = run(f, op, cfg, return_stats=True)
            assert stats.max_growth <= 1.0 + 1e-9
            assert stats.steps == mesh.num_steps

    @pytest.mark.parametrize("s", (-1.0, 0.0, 1.0))
    def test_error_decays_like_N2m_in_shifted_norms(self, setup_1d, s):
        op, dec, delta = setup_1d
        alpha, m = 0.5, 1
        f = l2_project(op, "c")
        ref = reference_power(dec, f, alpha)
        errs, Ns = [], (4, 8, 16, 32)
        for N in Ns:
            cfg = StepperConfig(alpha=alpha, m=m, delta=delta,
                                mesh=build_geometric_mesh(dec.lambdas[-1], N))
            out = run(f, op, cfg)
            diff = GridFunction(out.coeffs - ref.coeffs, op)
            errs.append(discrete_sobolev_norm(dec, diff, s))
        from fracstep.scalar import fit_loglog_slope

        slope = fit_loglog_slope(Ns, errs)
        assert abs(slope - 2 * m) < 0.3

    def test_one_entry_point_for_both_meshes(self):
        # the mesh in the config picks the scheme; the GRM/UM names are aliases
        assert run_grm is run_um is run

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_iterate_raises(self, bad):
        op = assemble_1d(np.linspace(0, 1, 51))
        v = np.ones(op.n_dofs)
        v[7] = bad
        cfg = StepperConfig(alpha=0.5, m=1, delta=1.0, mesh=build_uniform_mesh(4))
        with pytest.raises(SolveError, match="after step 1 of 4"):
            run(GridFunction(v, op), op, cfg)

    def test_operator_mismatch(self, setup_1d):
        op, dec, delta = setup_1d
        other = assemble_1d(np.linspace(0, 1, 51))
        cfg = StepperConfig(alpha=0.5, m=1, delta=delta,
                            mesh=build_geometric_mesh(dec.lambdas[-1], 2))
        v = GridFunction(np.ones(other.n_dofs), other)
        with pytest.raises(ValueError):
            run(v, op, cfg)


class Test2DSolvers:
    def test_cg_policy_matches_direct(self):
        op = assemble_2d_tensor(12)
        delta = default_delta(op)
        bounds = estimate_spectral_bounds(op)
        f = l2_project(op, "e")
        mesh = build_geometric_mesh(bounds.lambda_max_est, 2)
        out_direct = run(f, op, StepperConfig(alpha=0.5, m=2, delta=delta, mesh=mesh))
        out_cg = run(f, op, StepperConfig(
            alpha=0.5, m=2, delta=delta, mesh=mesh,
            solver=SolverPolicy(method="cg", rtol=1e-12)))
        diff = GridFunction(out_direct.coeffs - out_cg.coeffs, op)
        assert m_norm(op, diff) / m_norm(op, out_direct) < 1e-8

    def test_cg_runs_are_bit_identical(self):
        # the CG warm start must not carry over from one run to the next
        op = assemble_2d_tensor(12)
        delta = default_delta(op)
        f = l2_project(op, "f")
        cfg = StepperConfig(alpha=0.5, m=2, delta=delta,
                            mesh=build_geometric_mesh(None, 2, L_override=6),
                            solver=SolverPolicy("cg"))
        first = run(f, op, cfg)
        second = run(f, op, cfg)
        assert np.array_equal(first.coeffs, second.coeffs)

    def test_cg_steps_are_bit_identical(self):
        # a single step also starts CG cold, not from the previous call's solve
        op = assemble_2d_tensor(10)
        f = l2_project(op, "e")
        cfg = StepperConfig(alpha=0.5, m=2, delta=default_delta(op),
                            mesh=build_uniform_mesh(4), solver=SolverPolicy("cg"))
        first = apply_pade_step(f, 0.25, 0.25, op, cfg)
        second = apply_pade_step(f, 0.25, 0.25, op, cfg)
        assert np.array_equal(first.coeffs, second.coeffs)

    def test_cg_iterations_on_run_stats(self):
        op = assemble_2d_tensor(10)
        f = l2_project(op, "f")
        mesh = build_geometric_mesh(None, 2, L_override=4)
        kwargs = dict(alpha=0.5, m=2, delta=default_delta(op), mesh=mesh)
        _, direct = run(f, op, StepperConfig(**kwargs), return_stats=True)
        assert direct.cg_iters == direct.cg_iters_max == 0
        cfg = StepperConfig(**kwargs, solver=SolverPolicy("cg"))
        _, first = run(f, op, cfg, return_stats=True)
        _, second = run(f, op, cfg, return_stats=True)
        assert 0 < first.cg_iters_max < first.cg_iters
        # counts are per run: every run builds its own CG, warm start and tallies
        assert (second.cg_iters, second.cg_iters_max) == (first.cg_iters, first.cg_iters_max)

    def test_cg_solves_only_the_poles(self, monkeypatch):
        # a step has no mass solve: every CG solve is a pole solve
        calls = []
        solve = WarmStartCG.solve

        def counted(self, a, b, rhs):
            calls.append((a, b))
            return solve(self, a, b, rhs)

        monkeypatch.setattr(WarmStartCG, "solve", counted)
        op = assemble_2d_tensor(8)
        mesh = build_geometric_mesh(None, 2, L_override=3)
        cfg = StepperConfig(alpha=0.5, m=3, delta=default_delta(op), mesh=mesh,
                            solver=SolverPolicy("cg"))
        run(l2_project(op, "e"), op, cfg)
        assert len(calls) == mesh.num_steps * 3

    def test_2d_eigen_equivalence(self):
        from fracstep.spectral import eig_2d_tensor

        op = assemble_2d_tensor(10)
        dec = eig_2d_tensor(op)
        delta = 0.5 * dec.lambdas[0]
        mesh = build_uniform_mesh(8)
        cfg = StepperConfig(alpha=0.7, m=2, delta=delta, mesh=mesh)
        scfg = ScalarRunConfig(alpha=0.7, delta=delta, m=2, mesh=mesh)
        for j in (0, 7, 33):
            psi = GridFunction(dec.mode_vector(j), op)
            out = run(psi, op, cfg)
            mu = scalar_run_grid(dec.lambdas[j], scfg)
            diff = GridFunction(out.coeffs - mu * psi.coeffs, op)
            assert m_norm(op, diff) / abs(mu) < 1e-10


def _block_problem(backend):
    """(op, cfg) of a short GRM run on one of the three pencil backends."""
    if backend == "banded":
        op = assemble_1d(np.linspace(0, 1, 101) ** 1.5)
        policy = SolverPolicy()
    else:
        op = assemble_2d_tensor(9)
        policy = SolverPolicy("cg" if backend == "cg" else "direct")
    cfg = StepperConfig(alpha=0.4, m=3, delta=default_delta(op),
                        mesh=build_geometric_mesh(None, 2, L_override=4), solver=policy)
    return op, cfg


class TestBlockRuns:
    """A run of c data vectors equals c one-vector runs, bit for bit."""

    @pytest.mark.parametrize("backend", ("banded", "tensor", "cg"))
    @pytest.mark.parametrize("c", (1, 3))
    def test_columns_match_single_runs(self, backend, c):
        op, cfg = _block_problem(backend)
        rng = np.random.default_rng(c)
        vs = [GridFunction(rng.standard_normal(op.n_dofs), op) for _ in range(c)]
        outs, stats = run(vs, op, cfg, return_stats=True)
        assert len(outs) == len(stats) == c
        for v, out, st in zip(vs, outs, stats):
            one, one_stats = run(v, op, cfg, return_stats=True)
            assert np.array_equal(out.coeffs, one.coeffs)
            assert (st.steps, st.solves) == (one_stats.steps, one_stats.solves)
            assert (st.max_growth, st.cg_iters, st.cg_iters_max) == (
                one_stats.max_growth, one_stats.cg_iters, one_stats.cg_iters_max)
            if backend == "cg":
                assert st.cg_iters > 0

    def test_block_needs_one_operator(self, setup_1d):
        op, _, delta = setup_1d
        other = assemble_1d(np.linspace(0, 1, 51))
        cfg = StepperConfig(alpha=0.5, m=1, delta=delta, mesh=build_uniform_mesh(4))
        v = GridFunction(np.ones(op.n_dofs), op)
        with pytest.raises(ValueError):
            run([v, GridFunction(np.ones(other.n_dofs), other)], op, cfg)
        with pytest.raises(ValueError):
            run([], op, cfg)


class TestGrowthContract:
    def test_shift_above_the_spectrum_raises(self):
        # delta = 5 lambda_min makes the low modes grow from the first step on
        op = assemble_1d(np.linspace(0, 1, 21))
        lam_min = eig_1d(op).lambdas[0]
        cfg = StepperConfig(alpha=0.5, m=2, delta=5.0 * lam_min, mesh=build_uniform_mesh(8))
        f = l2_project(op, "b")
        with pytest.raises(SolveError, match=r"step 1 of 8 grew the M-norm of column 1"):
            run([GridFunction(np.zeros(op.n_dofs), op), f], op, cfg)

    def test_shift_below_the_spectrum_passes(self):
        op = assemble_1d(np.linspace(0, 1, 21))
        lam_min = eig_1d(op).lambdas[0]
        cfg = StepperConfig(alpha=0.5, m=2, delta=0.99 * lam_min, mesh=build_uniform_mesh(8))
        _, stats = run(l2_project(op, "b"), op, cfg, return_stats=True)
        assert stats.max_growth <= 1.0
