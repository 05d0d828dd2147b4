import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstep.fem import GridFunction, assemble_1d, assemble_2d_tensor, l2_project, m_norm
from fracstep.meshes import (TimeMesh, build_geometric_mesh, build_graded_spatial_mesh,
                             build_uniform_mesh)
from fracstep.pade import eval_rational, pade_coefficients
from fracstep.scalar import ScalarRunConfig, scalar_run_grid
from fracstep import solvers
from fracstep.solvers import PreconditionedCG, SolveError
from fracstep.spectral import (
    SpectralBounds,
    discrete_sobolev_norm,
    eig_1d,
    eig_2d_tensor,
    estimate_spectral_bounds,
    reference_power,
    spectral_upper_bound,
)
from fracstep import stepping
from fracstep.stepping import StepperConfig, run, run_batch, run_grm, run_um
from tests.sparse_pair import sparse_pair
from tests.test_fem import built_fields, fem_eigenvalue


def _half_bottom(op):
    """The experiments' default shift: half the estimated bottom of the spectrum."""
    return 0.5 * estimate_spectral_bounds(op).lambda_min_est


BACKENDS = ("banded", "tensor", "cg")  # the backends of the stepping protocol


def _backend_op(backend):
    """A small operator that runs on ``backend``, the solver name that picks
    it there, and a smooth data case."""
    if backend == "banded":
        return assemble_1d(np.linspace(0, 1, 21)), "direct", "b"
    return assemble_2d_tensor(8), "cg" if backend == "cg" else "direct", "e"


@pytest.fixture(scope="module")
def setup_1d():
    op = assemble_1d(np.linspace(0, 1, 201))
    dec = eig_1d(op)
    delta = 0.5 * dec.lambdas[0]
    return op, dec, delta


class TestSpectralBounds:
    """The bracket behind a run's shift and depth, from ``spectral``."""

    def test_uniform_mesh_brackets(self, setup_1d):
        op, dec, _ = setup_1d
        bounds = estimate_spectral_bounds(op)
        assert bounds.lambda_min_est <= dec.lambdas[0]
        assert bounds.lambda_min_est == pytest.approx(np.pi**2, rel=0.02)
        # the top is the proven bound, Fried's 12 / h**2 here
        assert bounds.lambda_max_est == spectral_upper_bound(op) >= dec.lambdas[-1]
        assert bounds.lambda_max_est == pytest.approx(fem_eigenvalue(1 / 200, 200), rel=1e-12)

    def test_proportional_pair(self, setup_1d):
        from dataclasses import replace

        op, _, _ = setup_1d
        c = 5.0
        scaled = replace(op, stiffness_bands=tuple(c * b for b in op.mass_bands))
        bounds = estimate_spectral_bounds(scaled)
        assert bounds.lambda_min_est == pytest.approx(c, rel=0.02)
        assert bounds.lambda_max_est == spectral_upper_bound(scaled) >= c

    def test_tensor_doubles_factor_bounds(self):
        op2 = assemble_2d_tensor(10)
        b1 = estimate_spectral_bounds(op2.factor)
        b2 = estimate_spectral_bounds(op2)
        assert b2.lambda_min_est == pytest.approx(2 * b1.lambda_min_est, rel=1e-12)
        assert b2.lambda_max_est == 2 * b1.lambda_max_est == spectral_upper_bound(op2)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_bottom_matches_dense_eigh_on_few_dofs(self, n):
        import scipy.linalg as sla

        interior = np.sort(np.random.default_rng(n).random(n))
        for nodes in (np.linspace(0.0, 1.0, n + 2), np.concatenate([[0.0], interior, [1.0]])):
            op = assemble_1d(nodes)
            K, M = sparse_pair(op)
            lam = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)[0]
            bounds = estimate_spectral_bounds(op)
            assert bounds.lambda_min_est / 0.99 == pytest.approx(lam, rel=1e-14)

    def test_determinism(self, setup_1d):
        op, _, _ = setup_1d
        a = estimate_spectral_bounds(op)
        b = estimate_spectral_bounds(op)
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
    """A single step from t is a run over the one-step mesh [t, t + k]; the
    run starts from delta**-alpha u."""

    @pytest.mark.parametrize("j", (0, 10, 100, 198))
    def test_eigenvector_scaling(self, setup_1d, j):
        op, dec, delta = setup_1d
        r = pade_coefficients(2, 0.3)
        cfg = StepperConfig(alpha=0.3, m=2, delta=delta, mesh=TimeMesh([0.25, 0.375]))
        t, k = cfg.mesh.t_left[0], cfg.mesh.k[0]
        psi = GridFunction(dec.modes[:, j].copy(), op)
        out = run(psi, op, cfg)
        lam = dec.lambdas[j]
        theta = k * (lam - delta) / (delta + t * (lam - delta))
        expected = delta ** -0.3 * eval_rational(r, theta)
        diff = GridFunction(out.coeffs - expected * psi.coeffs, op)
        assert m_norm(op, diff) / abs(expected) < 1e-10

    def test_single_step_matches_spectral_application(self, setup_1d):
        op, dec, _ = setup_1d
        delta, alpha, m = 0.5, 0.5, 1
        r = pade_coefficients(m, alpha)
        cfg = StepperConfig(alpha=alpha, m=m, delta=delta, mesh=TimeMesh([0.0, 1.0]))
        f = l2_project(op, "b")
        out = run(f, op, cfg)
        theta = (dec.lambdas - delta) / delta
        coeffs = dec.coefficients(f.coeffs)
        expected = delta ** -alpha * dec.synthesize(eval_rational(r, theta) * coeffs)
        diff = GridFunction(out.coeffs - expected, op)
        assert m_norm(op, diff) / m_norm(op, GridFunction(expected, op)) < 1e-10


@pytest.mark.parametrize("delta", (0.0, -1.0, np.nan, np.inf))
def test_config_refuses_a_shift_that_is_not_positive_and_finite(delta):
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        StepperConfig(alpha=0.5, m=1, delta=delta, mesh=build_uniform_mesh(4))


@pytest.mark.parametrize("delta", (5e-324, np.float64(5e-324)))
def test_config_refuses_a_shift_whose_power_overflows(delta):
    # delta**-alpha scales the first iterate; run_batch raised a bare
    # OverflowError at alpha = 0.99, while alpha = 0.5 gives 4.5e161
    with pytest.raises(ValueError, match=r"^delta\*\*-alpha overflows at delta = 5e-324, "
                                         r"alpha = 0\.99$"):
        StepperConfig(alpha=0.99, m=1, delta=delta, mesh=build_uniform_mesh(4))
    assert StepperConfig(alpha=0.5, m=1, delta=delta, mesh=build_uniform_mesh(4)).delta == delta


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

    def test_config_is_the_time_scheme(self):
        # exponent, order, shift and mesh; the solver is the run's, not the config's
        assert [f.name for f in dataclasses.fields(StepperConfig)] == [
            "alpha", "m", "delta", "mesh", "rational"]
        for build in (StepperConfig.grm, StepperConfig.um):
            assert "solver" not in inspect.signature(build).parameters

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_finite_iterate_raises(self, backend, bad):
        op, solver, _ = _backend_op(backend)
        v = np.ones(op.n_dofs)
        v[7] = bad
        cfg = StepperConfig(alpha=0.5, m=1, delta=1.0, mesh=build_uniform_mesh(4))
        # CG refuses the non-finite right-hand side before it iterates
        match = ("right-hand side not finite" if solver == "cg"
                 else "iterate not finite after step 1 of 4")
        with pytest.raises(SolveError, match=match):
            run(GridFunction(v, op), op, cfg, solver=solver)
        if backend == "banded":
            # the flat block's mass apply forms no product across a row
            # boundary, so the bad first entry of row 1 cannot reach row 0
            v = np.ones(op.n_dofs)
            v[0] = bad
            rows = [GridFunction(np.ones(op.n_dofs), op), GridFunction(v, op)]
            with pytest.raises(SolveError, match="after step 1 of 4 in column 1 "):
                run(rows, op, cfg)

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
        delta = _half_bottom(op)
        bounds = estimate_spectral_bounds(op)
        f = l2_project(op, "e")
        mesh = build_geometric_mesh(bounds.lambda_max_est, 2)
        out_direct = run(f, op, StepperConfig(alpha=0.5, m=2, delta=delta, mesh=mesh))
        out_cg = run(f, op, StepperConfig(alpha=0.5, m=2, delta=delta, mesh=mesh),
                     solver="cg")
        diff = GridFunction(out_direct.coeffs - out_cg.coeffs, op)
        assert m_norm(op, diff) / m_norm(op, out_direct) < 1e-8

    @pytest.mark.parametrize("n", (25, 50, 100))
    def test_cg_takes_one_or_two_iterations(self, n):
        # the modal preconditioner is the exact inverse of each shifted pencil
        op = assemble_2d_tensor(n)
        delta = _half_bottom(op)
        fs = [l2_project(op, "e"), l2_project(op, "f")]
        mesh = build_geometric_mesh(None, 2, L_override=10)
        kwargs = dict(alpha=0.5, m=2, delta=delta, mesh=mesh)
        direct = run(fs, op, StepperConfig(**kwargs))
        cg, stats = run(fs, op, StepperConfig(**kwargs), return_stats=True, solver="cg")
        for want, got, st in zip(direct, cg, stats):
            assert 1 <= st.cg_iters_max <= 2
            diff = GridFunction(want.coeffs - got.coeffs, op)
            assert m_norm(op, diff) <= 1e-10 * m_norm(op, want)

    def test_cg_refused_on_a_1d_operator(self):
        # 1D pencils are always solved directly: cg there would be ignored
        with pytest.raises(ValueError, match="tensor"):
            solvers.pencil([assemble_1d(np.linspace(0, 1, 11))], "cg")

    def test_cg_runs_are_bit_identical(self):
        # the CG counts and matrix of one run must not carry over to the next
        op = assemble_2d_tensor(12)
        delta = _half_bottom(op)
        f = l2_project(op, "f")
        cfg = StepperConfig(alpha=0.5, m=2, delta=delta,
                            mesh=build_geometric_mesh(None, 2, L_override=6))
        first = run(f, op, cfg, solver="cg")
        second = run(f, op, cfg, solver="cg")
        assert np.array_equal(first.coeffs, second.coeffs)

    def test_cg_steps_are_bit_identical(self):
        # a single step too, and every solve starts from zero
        op = assemble_2d_tensor(10)
        f = l2_project(op, "e")
        cfg = StepperConfig(alpha=0.5, m=2, delta=_half_bottom(op), mesh=TimeMesh([0.25, 0.5]))
        first = run(f, op, cfg, solver="cg")
        second = run(f, op, cfg, solver="cg")
        assert np.array_equal(first.coeffs, second.coeffs)

    def test_cg_iterations_on_run_stats(self):
        op = assemble_2d_tensor(10)
        f = l2_project(op, "f")
        mesh = build_geometric_mesh(None, 2, L_override=4)
        kwargs = dict(alpha=0.5, m=2, delta=_half_bottom(op), mesh=mesh)
        cfg = StepperConfig(**kwargs)
        _, direct = run(f, op, cfg, return_stats=True)
        assert direct.cg_iters == direct.cg_iters_max == 0
        _, first = run(f, op, cfg, return_stats=True, solver="cg")
        _, second = run(f, op, cfg, return_stats=True, solver="cg")
        assert 0 < first.cg_iters_max < first.cg_iters
        # counts are per run: every run builds its own CG and tallies
        assert (second.cg_iters, second.cg_iters_max) == (first.cg_iters, first.cg_iters_max)

    def test_cg_solves_only_the_poles(self, monkeypatch):
        # a step has no mass solve: every CG solve is a pole solve
        calls = []
        solve = PreconditionedCG.solve

        def counted(self, a, b, rhs):
            calls.append((a, b))
            return solve(self, a, b, rhs)

        monkeypatch.setattr(PreconditionedCG, "solve", counted)
        op = assemble_2d_tensor(8)
        mesh = build_geometric_mesh(None, 2, L_override=3)
        cfg = StepperConfig(alpha=0.5, m=3, delta=_half_bottom(op), mesh=mesh)
        run(l2_project(op, "e"), op, cfg, solver="cg")
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
    """(op, cfg, solver) of a short GRM run on one of the three pencil
    backends; "one-dof" is the banded one on a mesh of one dof, where every
    coupling of the flat block is a row boundary."""
    if backend == "banded":
        op = assemble_1d(np.linspace(0, 1, 101) ** 1.5)
    elif backend == "one-dof":
        op = assemble_1d(np.array([0.0, 0.5, 1.0]))
    else:
        op = assemble_2d_tensor(9)
    cfg = StepperConfig(alpha=0.4, m=3, delta=_half_bottom(op),
                        mesh=build_geometric_mesh(None, 2, L_override=4))
    return op, cfg, "cg" if backend == "cg" else "direct"


class TestBlockRuns:
    """A run of c data vectors equals c one-vector runs, bit for bit."""

    # c = 4 is the block of table-1d's cases a-d
    @pytest.mark.parametrize("c,backend", [*((c, backend) for c in (1, 3)
                                             for backend in ("banded", "tensor", "cg")),
                                           (4, "banded"), (4, "one-dof")])
    def test_columns_match_single_runs(self, backend, c):
        op, cfg, solver = _block_problem(backend)
        rng = np.random.default_rng(c)
        vs = [GridFunction(rng.standard_normal(op.n_dofs), op) for _ in range(c)]
        outs, stats = run(vs, op, cfg, return_stats=True, solver=solver)
        assert len(outs) == len(stats) == c
        for v, out, st in zip(vs, outs, stats):
            one, one_stats = run(v, op, cfg, return_stats=True, solver=solver)
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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shift_above_the_spectrum_raises(self, backend):
        # delta = 5 lambda_min makes the low modes grow from the first step on;
        # the direct tensor backend measures the growth by Parseval
        op, solver, case = _backend_op(backend)
        lam_min = (eig_1d(op) if op.dim == 1 else eig_2d_tensor(op)).lambdas[0]
        cfg = StepperConfig(alpha=0.5, m=2, delta=5.0 * lam_min, mesh=build_uniform_mesh(8))
        f = l2_project(op, case)
        with pytest.raises(SolveError, match=r"step 1 of 8 grew the M-norm of column 1"):
            run([GridFunction(np.zeros(op.n_dofs), op), f], op, cfg, solver=solver)

    def test_direct_tensor_steps_apply_no_sparse_mass(self, monkeypatch):
        # the direct tensor step loads mode coefficients: a run, with the
        # projection before it and the norms after, never reads CG's state,
        # where the only CSR pair is, so it cannot apply it
        reads = []
        monkeypatch.setattr(solvers, "_cg_state", lambda op: reads.append(op))
        op = assemble_2d_tensor(8)
        f = l2_project(op, "e")
        cfg = StepperConfig(alpha=0.5, m=2, delta=_half_bottom(op),
                            mesh=build_geometric_mesh(None, 2, L_override=4))
        out, stats = run(f, op, cfg, return_stats=True)
        assert stats.steps == 10 and m_norm(op, out) > 0
        assert built_fields(op) == set()
        assert reads == []

    def test_shift_below_the_spectrum_passes(self):
        op = assemble_1d(np.linspace(0, 1, 21))
        lam_min = eig_1d(op).lambdas[0]
        cfg = StepperConfig(alpha=0.5, m=2, delta=0.99 * lam_min, mesh=build_uniform_mesh(8))
        _, stats = run(l2_project(op, "b"), op, cfg, return_stats=True)
        assert stats.max_growth <= 1.0


def _batch_run(data, c, steps_LN):
    """One random 1D run for a batch: a uniform, random or graded mesh
    (from one dof up), 1 to 4 poles, a geometric or uniform time mesh of
    (L + 1) N steps, and c random data rows."""
    kind = data.draw(st.sampled_from(("uniform", "random", "graded")))
    if kind == "graded":
        nodes = build_graded_spatial_mesh(data.draw(st.integers(2, 3)))
    else:
        n = data.draw(st.integers(1, 12))
        if kind == "uniform":
            nodes = np.linspace(0.0, 1.0, n + 2)
        else:
            gaps = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n + 1,
                                               max_size=n + 1)))
            nodes = np.concatenate([[0.0], np.cumsum(gaps)]) / np.sum(gaps)
    op = assemble_1d(nodes)
    L, N = steps_LN
    mesh = (build_geometric_mesh(None, N, L_override=L) if data.draw(st.booleans())
            else build_uniform_mesh((L + 1) * N))
    cfg = StepperConfig(alpha=data.draw(st.sampled_from((0.1, 0.5, 0.9))),
                        m=data.draw(st.integers(1, 4)),
                        delta=data.draw(st.sampled_from((0.3, 0.9))) * _half_bottom(op),
                        mesh=mesh)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vs = [GridFunction(rng.standard_normal(op.n_dofs), op) for _ in range(c)]
    return vs, op, cfg


class TestBatchRuns:
    """Runs stepped in lockstep (``run_batch``) equal their lone runs, bit
    for bit, whatever their operators, exponents, orders, shifts and meshes."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_runs_match_their_lone_runs(self, data):
        c = data.draw(st.sampled_from((1, 3)))
        steps_LN = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)))
        runs = [_batch_run(data, c, steps_LN) for _ in range(data.draw(st.integers(1, 5)))]
        # a lone grid function gives one output, as in ``run``
        if c == 1 and data.draw(st.booleans()):
            runs = [(vs[0], op, cfg) for vs, op, cfg in runs]
        got = run_batch(runs, return_stats=True)
        assert len(got) == len(runs)
        for (v, op, cfg), (outs, stats) in zip(runs, got):
            lone_outs, lone_stats = run(v, op, cfg, return_stats=True)
            if isinstance(v, GridFunction):
                outs, stats, lone_outs, lone_stats = [outs], [stats], [lone_outs], [lone_stats]
            assert len(outs) == len(lone_outs)
            for out, lone in zip(outs, lone_outs):
                assert out.op is op and np.array_equal(out.coeffs, lone.coeffs)
            assert stats == lone_stats

    def test_refusals(self):
        small, other = (assemble_1d(np.linspace(0, 1, n)) for n in (9, 14))
        f, g = l2_project(small, "b"), l2_project(other, "b")

        def cfg(op, steps):
            return StepperConfig(alpha=0.5, m=1, delta=_half_bottom(op),
                                 mesh=build_uniform_mesh(steps))

        with pytest.raises(ValueError, match="same number of rows and of steps"):
            run_batch([(f, small, cfg(small, 4)), (g, other, cfg(other, 5))])
        with pytest.raises(ValueError, match="same number of rows and of steps"):
            run_batch([(f, small, cfg(small, 4)), ([g, g], other, cfg(other, 4))])
        with pytest.raises(ValueError, match="no run to step"):
            run_batch([])
        tensor = assemble_2d_tensor(6)
        e = l2_project(tensor, "e")
        with pytest.raises(ValueError, match="only 1D runs step as a batch"):
            run_batch([(f, small, cfg(small, 4)), (e, tensor, cfg(tensor, 4))])
        # alone, a 2D run steps as it always did
        assert np.array_equal(run_batch([(e, tensor, cfg(tensor, 4))])[0].coeffs,
                              run(e, tensor, cfg(tensor, 4)).coeffs)

    def test_backend_refusals_come_from_the_pencil(self, monkeypatch):
        # the batch rule and the solver names are the pencil's: a batch that
        # mixes 1D and 2D runs, and an unknown name on either kind, are
        # refused where the backend is picked, once per run or batch
        picks = []

        def pencil(ops, solver="direct", *args):
            picks.append((len(ops), solver))
            return solvers.pencil(ops, solver, *args)

        monkeypatch.setattr(stepping, "pencil", pencil)
        small, tensor = assemble_1d(np.linspace(0, 1, 9)), assemble_2d_tensor(6)
        f, e = l2_project(small, "b"), l2_project(tensor, "e")
        cfg = StepperConfig(alpha=0.5, m=1, delta=1.0, mesh=build_uniform_mesh(4))
        with pytest.raises(ValueError, match="^only 1D runs step as a batch"):
            run_batch([(f, small, cfg), (e, tensor, cfg)])
        for v, op in ((f, small), (e, tensor)):
            with pytest.raises(ValueError, match="^unknown solver 'lu'$"):
                run(v, op, cfg, solver="lu")
        assert picks == [(2, "direct"), (1, "lu"), (1, "lu")]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    @pytest.mark.parametrize("culprit", (0, 1, 2))
    def test_non_finite_data_names_its_run(self, culprit, bad):
        # the bad entry reaches every run through 0 * nan in the stacked
        # solves, so every iterate goes non-finite; the error names the run
        # whose own data was not finite, before or after it in the stack
        ops = [assemble_1d(np.linspace(0, 1, n)) for n in (9, 14, 6)]
        runs = []
        for r, (op, m) in enumerate(zip(ops, (1, 3, 2))):
            rows = [np.ones(op.n_dofs), np.ones(op.n_dofs)]
            if r == culprit:
                rows[1][2] = bad
            cfg = StepperConfig(alpha=0.5, m=m, delta=1.0, mesh=build_uniform_mesh(4))
            runs.append(([GridFunction(u, op) for u in rows], op, cfg))
        with pytest.raises(SolveError, match=f"after step 1 of 4 in column 1 of run {culprit} "):
            run_batch(runs)
        # alone, the message is the one-run message
        with pytest.raises(SolveError, match=r"after step 1 of 4 in column 1 \(M-norm"):
            run(*runs[culprit])
