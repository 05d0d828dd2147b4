import math

import numpy as np
import pytest

from fracstep.meshes import (
    build_geometric_mesh,
    build_graded_spatial_mesh,
    build_uniform_mesh,
    experiment_refinement_level,
    graded_refinement_level,
    refinement_level_for,
)


class TestGeometric:
    def test_level_from_lambda_max(self):
        mesh = build_geometric_mesh(1000.0, 4)
        assert mesh.num_steps == (10 + 1) * 4  # L = 10
        assert mesh.breakpoints[4] == math.ldexp(1.0, -10)  # t_1 = 2**-L

    def test_interval_count_and_endpoints(self):
        for lam, N in ((17.0, 1), (1000.0, 3), (1e6, 8)):
            mesh = build_geometric_mesh(lam, N)
            assert mesh.num_steps == (refinement_level_for(lam) + 1) * N
            assert mesh.breakpoints[0] == 0.0
            assert mesh.breakpoints[-1] == 1.0
            assert np.all(np.diff(mesh.breakpoints) > 0)

    def test_small_explicit_mesh(self):
        mesh = build_geometric_mesh(None, 1, L_override=2)
        np.testing.assert_array_equal(mesh.breakpoints, [0.0, 0.25, 0.5, 1.0])

    def test_first_step_bound(self):
        # k_0 * lambda_max <= 1/N whenever L comes from the ceiling formula
        for lam in (1.5, 10.0, 123.4, 1e5, 1e8):
            for N in (1, 2, 7):
                mesh = build_geometric_mesh(lam, N)
                k0 = mesh.breakpoints[1] - mesh.breakpoints[0]
                assert k0 * lam <= 1.0 / N + 1e-15

    @pytest.mark.parametrize("N", (1, 2, 3, 4, 5, 8))
    def test_interval_ends_exactly_dyadic(self, N):
        mesh = build_geometric_mesh(None, N, L_override=11)
        assert mesh.num_steps == 12 * N
        for n in range(12):
            assert mesh.breakpoints[(n + 1) * N] == math.ldexp(1.0, n - 11)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_geometric_mesh(None, 2, L_override=0)
        with pytest.raises(ValueError):
            build_geometric_mesh(0.5, 2)
        with pytest.raises(ValueError):
            build_geometric_mesh(100.0, 0)


class TestUniform:
    def test_explicit_small(self):
        np.testing.assert_array_equal(build_uniform_mesh(1).breakpoints, [0.0, 1.0])
        np.testing.assert_array_equal(
            build_uniform_mesh(4).breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0]
        )

    @pytest.mark.parametrize("N", (3, 7, 100, 1000))
    def test_steps_all_equal(self, N):
        mesh = build_uniform_mesh(N)
        # breakpoints live near 1, so steps agree to a few ulps of 1
        np.testing.assert_allclose(mesh.k, 1.0 / N, rtol=0, atol=5e-16)
        assert mesh.breakpoints[-1] == 1.0


class TestGradedSpatial:
    @pytest.mark.parametrize("N,expected_nx", [(4, 72), (8, 176), (16, 416)])
    def test_interval_counts(self, N, expected_nx):
        nodes = build_graded_spatial_mesh(N)
        assert len(nodes) - 1 == expected_nx

    def test_interior_mesh_width(self):
        nodes = build_graded_spatial_mesh(4)
        mid = nodes[(nodes >= 0.25 - 1e-12) & (nodes <= 0.75 + 1e-12)]
        np.testing.assert_allclose(np.diff(mid), 1.0 / 16, rtol=1e-14)

    @pytest.mark.parametrize("N", (2, 4, 8, 16))
    def test_reflection_symmetry(self, N):
        nodes = build_graded_spatial_mesh(N)
        np.testing.assert_array_equal(nodes, 1.0 - nodes[::-1])

    @pytest.mark.parametrize("N", (4, 8, 16))
    def test_boundary_element_below_h_squared(self, N):
        nodes = build_graded_spatial_mesh(N)
        h = 1.0 / (4 * N)
        assert nodes[1] - nodes[0] <= h * h

    def test_requires_two_points_per_interval(self):
        with pytest.raises(ValueError):
            build_graded_spatial_mesh(1)


def _geometric_loop(L, N):
    """The geometric breakpoints, one interval and one step at a time."""
    coarse = [0.0] + [math.ldexp(1.0, i - 1 - L) for i in range(1, L + 2)]
    pts = [0.0]
    for n in range(L + 1):
        k_n = (coarse[n + 1] - coarse[n]) / N
        pts += [coarse[n] + j * k_n for j in range(1, N)] + [coarse[n + 1]]
    return np.array(pts)


def _graded_loop(N):
    """The graded nodes, built on [0, 1/2] one element at a time and mirrored."""
    L = graded_refinement_level(N)
    coarse = [0.0] + [math.ldexp(1.0, n - 1 - L) for n in range(1, L + 1)]
    left = [0.0]
    for n in range(L):
        k_n = (coarse[n + 1] - coarse[n]) / N
        left += [coarse[n] + j * k_n for j in range(1, N)] + [coarse[n + 1]]
    left = np.array(left)
    return np.concatenate([left, 1.0 - left[:-1][::-1]])


class TestLoopReferences:
    """The vectorized dyadic layout keeps every bit of the loop builders."""

    @pytest.mark.parametrize("N", (1, 2, 3, 5, 8, 16))
    def test_geometric(self, N):
        for L in range(1, 31):
            got = build_geometric_mesh(None, N, L_override=L).breakpoints
            np.testing.assert_array_equal(got.view(np.int64), _geometric_loop(L, N).view(np.int64))

    def test_graded(self):
        for N in range(2, 65):
            got = build_graded_spatial_mesh(N)
            np.testing.assert_array_equal(got.view(np.int64), _graded_loop(N).view(np.int64))


class TestLevels:
    def test_theorem_level(self):
        assert refinement_level_for(1000.0) == 10
        assert refinement_level_for(2.0) == 1

    def test_experiment_level(self):
        assert experiment_refinement_level(1e-3) == 20
        assert experiment_refinement_level(0.01) == 14

    def test_graded_level_strict(self):
        # 2**-L must fall strictly below h**2
        for N in (4, 8, 16, 32):
            L = graded_refinement_level(N)
            h2 = (1.0 / (4 * N)) ** 2
            assert math.ldexp(1.0, -L) < h2 <= math.ldexp(1.0, -(L - 1))
