import io
from dataclasses import replace

import numpy as np
import pytest

from fracstep.experiments import (
    ExperimentSpec,
    convergence_order,
    run_scalar_diagnostics,
    run_spatial_refinement,
    run_table,
    run_table_1d,
    run_table_2d,
    write_csv,
)
from fracstep.fem import assemble_1d
from fracstep.meshes import refinement_level_for
from fracstep.solvers import SolverPolicy


class TestConvergenceOrder:
    def test_quartering_gives_two(self):
        assert convergence_order(4.0e-3, 1.0e-3) == pytest.approx(2.0, abs=1e-14)

    def test_equal_errors_give_zero(self):
        assert convergence_order(7.7e-5, 7.7e-5) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            convergence_order(0.0, 1e-3)
        with pytest.raises(ValueError):
            convergence_order(1e-3, -1e-4)


class TestSpecValidation:
    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            ExperimentSpec(scheme="euler")

    def test_unsorted_Ns(self):
        with pytest.raises(ValueError):
            ExperimentSpec(Ns=(16, 8))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ExperimentSpec(alphas=(0.5, 1.5))

    def test_fixed_policy_needs_L(self):
        with pytest.raises(ValueError):
            ExperimentSpec(L_policy="fixed")

    def test_dimension_one_or_two(self):
        with pytest.raises(ValueError, match="dimension"):
            ExperimentSpec(dimension=3)

    @pytest.mark.parametrize("name", ("data_cases", "alphas", "ms", "Ns"))
    def test_empty_list(self, name):
        with pytest.raises(ValueError, match=f"{name} is empty"):
            ExperimentSpec(**{name: ()})


class TestCsv:
    def test_header_and_determinism(self):
        rows = [{"a": 1, "b": 2.5, "c": "x"}, {"a": 2, "b": 1e-12, "c": "y"}]
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_csv(rows, buf1)
        write_csv(rows, buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1].startswith("1,2.5")


@pytest.fixture(scope="module")
def small_1d_rows():
    spec = ExperimentSpec(dimension=1, data_cases=("c",), alphas=(0.5,),
                          ms=(1,), Ns=(8, 16), h=0.01)
    return run_table(spec)


class TestTable1D:
    def test_rows_and_provenance(self, small_1d_rows):
        rows = small_1d_rows
        assert len(rows) == 4  # 2 schemes x 2 N values
        for row in rows:
            assert row["delta"] > 0
            assert row["solver"] == "direct"
            assert row["max_step_growth"] <= 1.0 + 1e-9
            assert row["rel_error"] > 0

    def test_grm_second_order(self, small_1d_rows):
        grm = [r for r in small_1d_rows if r["scheme"] == "GRM"]
        assert grm[-1]["order_vs_prev"] == pytest.approx(2.0, abs=0.1)

    def test_um_budget_convention(self, small_1d_rows):
        um = [r for r in small_1d_rows if r["scheme"] == "UM"]
        for row in um:
            assert row["steps"] == (row["L"] + 1) * row["N"]

    def test_block_of_cases_matches_one_case_tables(self):
        # the cases step as one block; every row must equal its one-case table's
        base = dict(dimension=1, alphas=(0.3, 0.5), ms=(1, 2), Ns=(4, 8), h=0.05)
        rows = run_table(ExperimentSpec(data_cases=("b", "c", "a"), **base))
        singles = [row for tag in "bca"
                   for row in run_table(ExperimentSpec(data_cases=(tag,), **base))]
        assert len(rows) == 3 * 2 * 2 * 2 * 2
        # exact equality, NaN orders included
        np.testing.assert_equal(rows, singles)

    def test_explicit_delta_below_the_spectrum_is_used(self):
        spec = ExperimentSpec(dimension=1, data_cases=("c",), alphas=(0.5,),
                              ms=(1,), Ns=(4,), h=0.05, delta=5.0)
        rows = run_table(spec)
        assert {row["delta"] for row in rows} == {5.0}
        with pytest.raises(ValueError, match="not below lambda_min_est"):
            run_table(replace(spec, delta=50.0))

    def test_theorem_policy_estimates_the_bounds_once(self, monkeypatch):
        import fracstep.experiments as experiments

        calls = []
        estimate = experiments.estimate_spectral_bounds

        def counted(op, seed=0):
            calls.append(seed)
            return estimate(op, seed=seed)

        monkeypatch.setattr(experiments, "estimate_spectral_bounds", counted)
        spec = ExperimentSpec(dimension=1, data_cases=("c",), alphas=(0.5,), ms=(1,),
                              Ns=(2,), h=0.05, L_policy="theorem", seed=3)
        rows = run_table(spec)
        assert calls == [3]
        bounds = estimate(assemble_1d(np.linspace(0.0, 1.0, 21)), seed=3)
        assert {row["L"] for row in rows} == {refinement_level_for(bounds.lambda_max_est)}
        assert {row["delta"] for row in rows} == {0.5 * bounds.lambda_min_est}

    def test_determinism(self, small_1d_rows, tmp_path):
        spec = ExperimentSpec(dimension=1, data_cases=("c",), alphas=(0.5,),
                              ms=(1,), Ns=(8, 16), h=0.01)
        write_csv(small_1d_rows, str(tmp_path / "t1.csv"))
        write_csv(run_table(spec), str(tmp_path / "t2.csv"))
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


class TestTable2D:
    def test_one_driver_for_both_dimensions(self):
        # the old entry points are names of run_table; the spec picks the operator
        assert run_table_1d is run_table_2d is run_table

    def test_small_grid_smoke(self):
        spec = ExperimentSpec(dimension=2, data_cases=("e",), alphas=(0.5,),
                              ms=(2,), Ns=(1, 2), n_per_side=20,
                              L_policy="experiment", scheme="grm")
        rows = run_table(spec)
        assert len(rows) == 2
        assert rows[0]["L"] == 9  # ceil(2 log2 20)
        assert rows[1]["rel_error"] < rows[0]["rel_error"]

    def test_cg_solver_consistent_with_direct(self):
        base = dict(dimension=2, data_cases=("e",), alphas=(0.3,), ms=(2,),
                    Ns=(2,), n_per_side=12, L_policy="experiment", scheme="grm")
        direct = run_table(ExperimentSpec(**base))
        cg = run_table(ExperimentSpec(**base, solver=SolverPolicy("cg", 1e-13)))
        assert cg[0]["rel_error"] == pytest.approx(direct[0]["rel_error"], rel=1e-6)


class TestSpatialRefinement:
    def test_single_level(self):
        spec = ExperimentSpec(dimension=1, data_cases=("d",), ms=(1, 2),
                              Ns=(4,), um_steps=2000)
        rows = run_spatial_refinement(spec, alpha=0.5, reference_factor=4)
        row = rows[0]
        assert row["nx"] == 72
        assert row["NS_m2"] <= row["NS_m1"]
        assert row["E_GRM_m1"] <= row["e_semi_proxy"]
        assert row["E_GRM_m2"] <= row["e_semi_proxy"]
        assert row["threshold_kind"] == "proxy_fine_mesh"


    def test_explicit_delta_and_L_are_used(self):
        spec = ExperimentSpec(dimension=1, ms=(2,), Ns=(4,), um_steps=200, delta=1.0,
                              L_policy="fixed", L_fixed=3)
        rows = run_spatial_refinement(spec, alpha=0.5, reference_factor=2)
        assert (rows[0]["delta"], rows[0]["L"]) == (1.0, 3)
        assert rows[0]["E_GRM_m2"] <= rows[0]["e_semi_proxy"]

    def test_delta_at_the_spectrum_rejected(self):
        spec = ExperimentSpec(dimension=1, ms=(2,), Ns=(4,), um_steps=200, delta=500.0)
        with pytest.raises(ValueError, match="not below lambda_min_est"):
            run_spatial_refinement(spec, alpha=0.5, reference_factor=2)


class TestScalarDiagnostics:
    def test_slopes_recorded(self):
        rows = run_scalar_diagnostics(alphas=(0.5,), ms=(1,), Ns=(8, 16, 32),
                                      lambda_range=(1.0, 1e4), points=200)
        grm = [r for r in rows if r["scheme"] == "GRM"]
        um = [r for r in rows if r["scheme"] == "UM"]
        assert grm[0]["fitted_slope"] == pytest.approx(2.0, abs=0.15)
        assert um[0]["fitted_slope"] == pytest.approx(0.5, abs=0.15)
        assert {r["N"] for r in grm} == {8, 16, 32}
