"""Operator runs against the scalar oracle on random meshes and parameters.

In the generalized eigenbasis of (K, M) every scheme acts mode by mode, so
a run on the eigenvector psi_j must return mu(lambda_j) psi_j with mu from
the scalar recurrence.  Inputs: strictly increasing 1D nodes with a mesh
ratio of at most 10, and tensor grids of 3..8 cells per side; exponents in
(0, 1), orders 1..8, shifts in (0, lambda_min), the geometric and the
uniform time mesh or any other valid one (1..8 steps between sorted
distinct points of [0, 1], so a single step from any t), and blocks of 1..4
data vectors stepped as one run.  The same meshes check the spectral
bracket: the dense eigenvalues lie in [dim pi^2, ub], the bisected bottom
matches the dense one and the top of the bracket is ub itself.  On uniform
meshes the closed-form eigenvalues check the same bracket, up to 5000
elements.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracstep.fem import GridFunction, assemble_1d, assemble_2d_tensor, m_norm
from fracstep.meshes import (
    TimeMesh,
    build_geometric_mesh,
    build_graded_spatial_mesh,
    build_uniform_mesh,
)
from fracstep.scalar import scalar_run_grid
from fracstep.spectral import (
    eig_1d,
    eig_2d_tensor,
    estimate_spectral_bounds,
    spectral_upper_bound,
)
from fracstep.stepping import StepperConfig, run
from tests.test_fem import fem_eigenvalue

SETTINGS = settings(max_examples=20, deadline=None)


def _operator(data, dim):
    """(op, decomp) drawn at random."""
    if dim == 1:
        gaps = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=30)))
        op = assemble_1d(np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum())
        return op, eig_1d(op)
    op = assemble_2d_tensor(data.draw(st.integers(3, 8)))
    return op, eig_2d_tensor(op)


def _problem(data, dim):
    """(op, decomp, cfg) drawn at random."""
    op, dec = _operator(data, dim)
    alpha = data.draw(st.floats(0.01, 0.99))
    m = data.draw(st.integers(1, 8))
    delta = data.draw(st.floats(0.01, 0.99)) * dec.lambdas[0]
    kind = data.draw(st.sampled_from(("grm", "um", "any")))
    if kind == "grm":
        mesh = build_geometric_mesh(dec.lambdas[-1], data.draw(st.integers(1, 4)))
    elif kind == "um":
        mesh = build_uniform_mesh(data.draw(st.integers(1, 32)))
    else:
        points = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=9,
                                           unique=True)))
        # TimeMesh refuses steps shorter than the smallest normal double
        assume(np.all(np.diff(points) >= np.finfo(np.float64).tiny))
        mesh = TimeMesh(points)
    return op, dec, StepperConfig(alpha=alpha, m=m, delta=delta, mesh=mesh)


@pytest.mark.parametrize("dim", (1, 2))
@SETTINGS
@given(data=st.data())
def test_eigenvector_scaled_by_scalar_oracle(dim, data):
    op, dec, cfg = _problem(data, dim)
    js = data.draw(st.lists(st.integers(0, dec.n_modes - 1), min_size=1, max_size=4))
    psis = [GridFunction(dec.mode_vector(j), op) for j in js]
    mus = scalar_run_grid(dec.lambdas[js], cfg)
    for psi, mu, out in zip(psis, mus, run(psis, op, cfg)):
        assert m_norm(op, GridFunction(out.coeffs - mu * psi.coeffs, op)) <= 1e-10 * abs(mu)


@pytest.mark.parametrize("dim", (1, 2))
@SETTINGS
@given(data=st.data())
def test_runs_are_linear(dim, data):
    op, _, cfg = _problem(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u, v = rng.standard_normal((2, op.n_dofs))
    a, b = data.draw(st.floats(-4.0, 4.0)), data.draw(st.floats(-4.0, 4.0))
    # one block run of u, v and a u + b v
    run_u, run_v, run_w = (out.coeffs for out in run(
        [GridFunction(x, op) for x in (u, v, a * u + b * v)], op, cfg))

    def norm(coeffs):
        return m_norm(op, GridFunction(coeffs, op))

    assert norm(run_w - a * run_u - b * run_v) <= 1e-12 * (abs(a) * norm(run_u)
                                                          + abs(b) * norm(run_v))


@pytest.mark.parametrize("dim", (1, 2))
@SETTINGS
@given(data=st.data())
def test_steps_never_grow_the_m_norm(dim, data):
    op, _, cfg = _problem(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vs = [GridFunction(u, op) for u in rng.standard_normal((data.draw(st.integers(1, 4)),
                                                            op.n_dofs))]
    # the run itself raises on growth above 1 + 1e-9; the stats must agree
    _, stats = run(vs, op, cfg, return_stats=True)
    assert len(stats) == len(vs)
    for stat in stats:
        assert stat.steps == cfg.mesh.num_steps
        assert stat.max_growth <= 1.0 + 1e-9


def _check_bracket(op, lam, dim):
    """``lam``: the ascending eigenvalues, or just the two extremes."""
    # conforming eigenvalues lie above the continuous dim pi^2 (min-max)
    assert dim * np.pi**2 <= lam[0]
    # the bound can be attained (two dofs on a symmetric mesh), and there a
    # dense eigenvalue may pass it by its own rounding of a few ulps
    assert lam[-1] <= spectral_upper_bound(op) * (1 + 1e-13)
    bounds = estimate_spectral_bounds(op)
    assert bounds.lambda_min_est <= lam[0]
    assert bounds.lambda_min_est / 0.99 == pytest.approx(lam[0], rel=1e-8)
    assert bounds.lambda_max_est == spectral_upper_bound(op)


@pytest.mark.parametrize("dim", (1, 2))
@SETTINGS
@given(data=st.data())
def test_spectral_bracket(dim, data):
    op, dec = _operator(data, dim)
    _check_bracket(op, dec.lambdas, dim)


def test_spectral_bracket_on_graded_mesh():
    op = assemble_1d(build_graded_spatial_mesh(16))
    _check_bracket(op, eig_1d(op).lambdas, 1)


@pytest.mark.parametrize("dim,n", [(1, 10), (1, 200), (1, 1000), (1, 5000), (2, 10), (2, 200)])
def test_spectral_bracket_on_uniform_meshes(dim, n):
    # the closed-form extremes j = 1 and j = n - 1 of (6/h^2)(1 - cos j pi h)/(2 + cos j pi h),
    # doubled on tensor grids; 5000 elements lie past the dense eigensolve's cap
    lam = dim * fem_eigenvalue(1.0 / n, np.array([1, n - 1]))
    op = assemble_1d(np.linspace(0.0, 1.0, n + 1)) if dim == 1 else assemble_2d_tensor(n)
    _check_bracket(op, lam, dim)
