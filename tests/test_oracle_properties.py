"""Operator runs against the scalar oracle on random meshes and parameters.

In the generalized eigenbasis of (K, M) every scheme acts mode by mode, so
a run on the eigenvector psi_j must return mu(lambda_j) psi_j with mu from
the scalar recurrence.  Inputs: strictly increasing 1D nodes with a mesh
ratio of at most 10, and tensor grids of 3..8 cells per side; exponents in
(0, 1), orders 1..4, shifts in (0, lambda_min), both time meshes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstep.fem import GridFunction, assemble_1d, assemble_2d_tensor, m_norm
from fracstep.meshes import build_geometric_mesh, build_uniform_mesh
from fracstep.scalar import scalar_run_grid
from fracstep.spectral import eig_1d, eig_2d_tensor
from fracstep.stepping import StepperConfig, run_grm, run_um

SETTINGS = settings(max_examples=20, deadline=None)


def _problem(data, dim):
    """(op, decomp, cfg, runner) drawn at random."""
    if dim == 1:
        gaps = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=30)))
        op = assemble_1d(np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum())
        dec = eig_1d(op)
    else:
        op = assemble_2d_tensor(data.draw(st.integers(3, 8)))
        dec = eig_2d_tensor(op)
    alpha = data.draw(st.floats(0.01, 0.99))
    m = data.draw(st.integers(1, 4))
    delta = data.draw(st.floats(0.01, 0.99)) * dec.lambdas[0]
    if data.draw(st.sampled_from(("grm", "um"))) == "grm":
        mesh = build_geometric_mesh(dec.lambdas[-1], data.draw(st.integers(1, 4)))
    else:
        mesh = build_uniform_mesh(data.draw(st.integers(1, 32)))
    runner = run_grm if mesh.kind == "geometric" else run_um
    return op, dec, StepperConfig(alpha=alpha, m=m, delta=delta, mesh=mesh), runner


@pytest.mark.parametrize("dim", (1, 2))
@SETTINGS
@given(data=st.data())
def test_eigenvector_scaled_by_scalar_oracle(dim, data):
    op, dec, cfg, runner = _problem(data, dim)
    j = data.draw(st.integers(0, dec.n_modes - 1))
    psi = GridFunction(dec.mode_vector(j), op)
    mu = scalar_run_grid(dec.lambdas[j:j + 1], cfg)[0]
    out = runner(psi, op, cfg)
    assert m_norm(op, GridFunction(out.coeffs - mu * psi.coeffs, op)) <= 1e-10 * abs(mu)


@pytest.mark.parametrize("dim", (1, 2))
@SETTINGS
@given(data=st.data())
def test_runs_are_linear(dim, data):
    op, _, cfg, runner = _problem(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u, v = rng.standard_normal((2, op.n_dofs))
    a, b = data.draw(st.floats(-4.0, 4.0)), data.draw(st.floats(-4.0, 4.0))
    run_u = runner(GridFunction(u, op), op, cfg).coeffs
    run_v = runner(GridFunction(v, op), op, cfg).coeffs
    run_w = runner(GridFunction(a * u + b * v, op), op, cfg).coeffs

    def norm(coeffs):
        return m_norm(op, GridFunction(coeffs, op))

    assert norm(run_w - a * run_u - b * run_v) <= 1e-12 * (abs(a) * norm(run_u)
                                                          + abs(b) * norm(run_v))


@pytest.mark.parametrize("dim", (1, 2))
@SETTINGS
@given(data=st.data())
def test_steps_never_grow_the_m_norm(dim, data):
    op, _, cfg, runner = _problem(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _, stats = runner(GridFunction(rng.standard_normal(op.n_dofs), op), op, cfg,
                      return_stats=True)
    assert stats.steps == cfg.mesh.num_steps
    assert stats.max_growth <= 1.0 + 1e-9
