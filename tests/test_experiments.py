import io
import logging
from dataclasses import replace

import numpy as np
import pytest

from fracstep import solvers
from fracstep.experiments import (
    ExperimentSpec,
    convergence_order,
    run_pade_info,
    run_scalar_diagnostics,
    run_spatial_refinement,
    run_table,
    run_table_1d,
    run_table_2d,
    write_csv,
)
from fracstep.fem import assemble_1d
from fracstep.meshes import experiment_refinement_level, refinement_level_for
from tests.test_fem import built_fields


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

    def test_unknown_L_policy(self):
        with pytest.raises(ValueError, match="L policy"):
            ExperimentSpec(L_policy="bogus")

    def test_fixed_policy_needs_L(self):
        with pytest.raises(ValueError):
            ExperimentSpec(L_policy="fixed")

    def test_dimension_one_or_two(self):
        with pytest.raises(ValueError, match="dimension"):
            ExperimentSpec(dimension=3)

    def test_cg_needs_dimension_two(self):
        # 1D solves are always direct: cg would be ignored yet reported
        with pytest.raises(ValueError, match="cg"):
            ExperimentSpec(solver="cg")
        assert ExperimentSpec(dimension=2, data_cases=("e",), solver="cg").solver == "cg"

    @pytest.mark.parametrize("h", (0.0, -0.1, float("nan"), float("inf"), 0.9, 1e-320))
    def test_h_without_two_cells_refused(self, h):
        # zero, negative or non-finite h, h = 0.9 (1 cell, no interior dof) and
        # a subnormal h, whose 1 / h overflows
        with pytest.raises(ValueError, match=r"^h = "):
            ExperimentSpec(h=h)

    # only 2D grids are capped: the 1D reference is a sine transform of any
    # size (tests/test_cli.py runs a 4999-dof table)
    @pytest.mark.parametrize("dimension,key,cells", ((2, "n_per_side", lambda n: n),))
    def test_grid_over_the_dense_cap_refused_at_construction(self, dimension, key, cells):
        # 4001 dofs per axis: refused before run_table assembles anything
        with pytest.raises(ValueError, match="4001 dofs per axis"):
            ExperimentSpec(dimension=dimension, **{key: cells(4002)})
        cases = ("a",) if dimension == 1 else ("e",)
        spec = ExperimentSpec(dimension=dimension, data_cases=cases, **{key: cells(4001)})
        assert spec.cells == 4001

    @pytest.mark.parametrize("dimension,cases,message", (
        (1, ("a", "z"), "unknown data case 'z'"),
        (2, ("e", "a"), "data case 'a' is 1D, the table is 2D"),
        (1, ("f",), "data case 'f' is 2D, the table is 1D")))
    def test_bad_data_case_refused_at_construction(self, dimension, cases, message):
        # before run_table assembles the operator, its eigenbasis and bracket
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(dimension=dimension, data_cases=cases)

    @pytest.mark.parametrize("L", (0, -3))
    def test_depth_below_one_refused(self, L):
        with pytest.raises(ValueError, match=rf"^L = {L} must be >= 1"):
            ExperimentSpec(L_policy="fixed", L_fixed=L)

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

    @pytest.mark.parametrize("dimension,grid", ((1, {"h": 0.05, "data_cases": ("c",)}),
                                                (2, {"n_per_side": 12, "data_cases": ("e",)})))
    def test_refused_shift_builds_no_eigenbasis(self, monkeypatch, dimension, grid):
        import fracstep.experiments as experiments

        def refuse(op):
            raise AssertionError("eigenbasis built before the shift was checked")

        monkeypatch.setattr(experiments, "eig_1d", refuse)
        monkeypatch.setattr(experiments, "eig_2d_tensor", refuse)
        spec = ExperimentSpec(dimension=dimension, alphas=(0.5,), ms=(1,), Ns=(2,),
                              delta=50.0, **grid)
        with pytest.raises(ValueError, match="not below lambda_min_est"):
            run_table(spec)

    def test_theorem_policy_estimates_the_bounds_once(self, monkeypatch):
        import fracstep.experiments as experiments

        calls = []
        estimate = experiments.estimate_spectral_bounds

        def counted(op):
            calls.append(op.n_dofs)
            return estimate(op)

        monkeypatch.setattr(experiments, "estimate_spectral_bounds", counted)
        spec = ExperimentSpec(dimension=1, data_cases=("c",), alphas=(0.5,), ms=(1,),
                              Ns=(2,), h=0.05, L_policy="theorem")
        rows = run_table(spec)
        assert calls == [19]
        bounds = estimate(assemble_1d(np.linspace(0.0, 1.0, 21)))
        assert {row["L"] for row in rows} == {refinement_level_for(bounds.lambda_max_est)}
        assert {row["delta"] for row in rows} == {0.5 * bounds.lambda_min_est}

    @pytest.mark.parametrize("dimension,grid", ((1, {"h": 0.05, "data_cases": ("a", "c")}),
                                                (2, {"n_per_side": 8, "data_cases": ("e", "f")})),
                             ids=("1d", "2d"))
    def test_one_reference_analysis_per_data_case(self, monkeypatch, dimension, grid):
        # every alpha's reference of a case comes from one reference_power call
        import fracstep.experiments as experiments

        calls = []
        reference = experiments.reference_power

        def counted(decomp, f, alpha):
            calls.append(alpha)
            return reference(decomp, f, alpha)

        monkeypatch.setattr(experiments, "reference_power", counted)
        spec = ExperimentSpec(dimension=dimension, alphas=(0.3, 0.5, 0.7), ms=(1,), Ns=(2,),
                              **grid)
        rows = run_table(spec)
        assert calls == [spec.alphas, spec.alphas]
        monkeypatch.setattr(experiments, "reference_power", reference)
        np.testing.assert_equal(rows, run_table(spec))

    def test_depth_from_the_mesh_it_assembles(self):
        # h = 0.385 assembles round(1/h) = 3 cells, so the mesh size is 1/3
        spec = ExperimentSpec(dimension=1, data_cases=("a",), alphas=(0.5,), ms=(1,),
                              Ns=(2,), scheme="grm", h=0.385)
        assert {row["L"] for row in run_table(spec)} == {experiment_refinement_level(1 / 3)}
        assert experiment_refinement_level(1 / 3) == 4

    def test_setup_split_logged_at_debug(self, caplog):
        spec = ExperimentSpec(dimension=1, data_cases=("c", "d"), alphas=(0.1, 0.5),
                              ms=(1,), Ns=(2,), h=0.05)
        with caplog.at_level(logging.DEBUG, logger="fracstep"):
            run_table(spec)
        [record] = [r for r in caplog.records if r.name == "fracstep"]
        assert record.levelno == logging.DEBUG
        assert record.n_dofs == 19
        assert list(record.setup_s) == ["assembly", "bounds", "eigenbasis", "references"]
        assert all(0 <= t < 60 for t in record.setup_s.values())
        assert "19 dofs" in record.getMessage()

    def test_logger_silent_by_default(self):
        # without a handler of the caller's, records go to the NullHandler
        handlers = logging.getLogger("fracstep").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

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

    @pytest.mark.parametrize("solver", solvers.SOLVERS)
    def test_sparse_pair_built_only_for_cg_and_once(self, monkeypatch, solver):
        # a tensor operator builds its CSR pair on the first read: the direct
        # path never reads it, CG reads it in every run and builds it once
        import fracstep.experiments as experiments
        from fracstep import fem

        ops, krons = [], []
        assemble, kron = experiments.assemble_2d_tensor, fem.sp.kron

        def assemble_kept(n):
            ops.append(assemble(n))
            return ops[-1]

        def kron_counted(*args, **kwargs):
            krons.append(args)
            return kron(*args, **kwargs)

        monkeypatch.setattr(experiments, "assemble_2d_tensor", assemble_kept)
        monkeypatch.setattr(fem.sp, "kron", kron_counted)
        spec = ExperimentSpec(dimension=2, data_cases=("e", "f"), alphas=(0.3, 0.7),
                              ms=(1,), Ns=(1, 2), n_per_side=10, L_policy="fixed",
                              L_fixed=4, solver=solver)
        assert len(run_table(spec)) == 16
        [op] = ops
        if solver == "direct":
            assert built_fields(op) == set() and krons == []
        else:
            # one kron for M2, two for K2
            assert built_fields(op) == {"mass", "stiffness"} and len(krons) == 3

    def test_setup_books_the_dense_factors_under_eigenbasis(self, caplog):
        # eig_2d_tensor builds them (see test_spectral), so the eigenbasis
        # time is theirs
        spec = ExperimentSpec(dimension=2, data_cases=("e",), alphas=(0.5,), ms=(1,),
                              Ns=(1,), n_per_side=30, L_policy="fixed", L_fixed=4)
        with caplog.at_level(logging.DEBUG, logger="fracstep"):
            run_table(spec)
        [record] = [r for r in caplog.records if r.name == "fracstep"]
        assert record.n_dofs == 29**2
        assert record.setup_s["eigenbasis"] > 0

    def test_cg_solver_consistent_with_direct(self, monkeypatch):
        monkeypatch.setattr(solvers, "CG_RTOL", 1e-13)
        base = dict(dimension=2, data_cases=("e",), alphas=(0.3,), ms=(2,),
                    Ns=(2,), n_per_side=12, L_policy="experiment", scheme="grm")
        direct = run_table(ExperimentSpec(**base))
        cg = run_table(ExperimentSpec(**base, solver="cg"))
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

    def test_unreachable_threshold_raises(self):
        from fracstep.experiments import _graded_setup, _smallest_passing_Nt

        op, L, delta, f = _graded_setup(ExperimentSpec(), 4)
        with pytest.raises(RuntimeError, match="no Nt <= 1"):
            _smallest_passing_Nt(op, f, 0.5, 1, delta, L, f, 0.0, "direct", Nt_cap=1)

    def test_delta_at_the_spectrum_rejected(self):
        spec = ExperimentSpec(dimension=1, ms=(2,), Ns=(4,), um_steps=200, delta=500.0)
        with pytest.raises(ValueError, match="not below lambda_min_est"):
            run_spatial_refinement(spec, alpha=0.5, reference_factor=2)


def _rows_without_seed(rows):
    # repr keeps every bit of a float and makes NaN equal to NaN
    return [{key: repr(value) for key, value in row.items() if key != "seed"} for row in rows]


class TestSeed:
    """The seed is recorded in every row and changes nothing else."""

    STUDIES = {
        "table_1d": lambda seed: run_table(ExperimentSpec(
            dimension=1, data_cases=("b",), alphas=(0.5,), ms=(2,), Ns=(2, 4), h=0.01,
            seed=seed)),
        "table_2d": lambda seed: run_table(ExperimentSpec(
            dimension=2, data_cases=("e",), alphas=(0.5,), ms=(2,), Ns=(1, 2), n_per_side=12,
            seed=seed)),
        "spatial": lambda seed: run_spatial_refinement(ExperimentSpec(
            ms=(2,), Ns=(4,), um_steps=200, seed=seed), alpha=0.5, reference_factor=2),
    }

    @pytest.mark.parametrize("study", STUDIES)
    def test_rows_do_not_depend_on_the_seed(self, study):
        rows_0, rows_1 = (self.STUDIES[study](seed) for seed in (0, 1))
        assert [row["seed"] for row in rows_0 + rows_1] == [0] * len(rows_0) + [1] * len(rows_1)
        assert _rows_without_seed(rows_0) == _rows_without_seed(rows_1)


class TestScalarDiagnostics:
    def test_slopes_recorded(self):
        rows = run_scalar_diagnostics(alphas=(0.5,), ms=(1,), Ns=(8, 16, 32),
                                      lambda_lo=1.0, lambda_hi=1e4, points=200)
        grm = [r for r in rows if r["scheme"] == "GRM"]
        um = [r for r in rows if r["scheme"] == "UM"]
        assert grm[0]["fitted_slope"] == pytest.approx(2.0, abs=0.15)
        assert um[0]["fitted_slope"] == pytest.approx(0.5, abs=0.15)
        assert {r["N"] for r in grm} == {8, 16, 32}
        assert (rows[0]["lambda_lo"], rows[0]["lambda_hi"]) == (1.0, 1e4)

    @pytest.mark.parametrize("empty", ("alphas", "ms", "Ns"))
    def test_empty_list_rejected(self, empty):
        with pytest.raises(ValueError, match=f"{empty} is empty"):
            run_scalar_diagnostics(**{empty: ()})


class TestPadeInfo:
    def test_one_row_per_order_and_exponent(self):
        rows = run_pade_info(ms=(1, 3), alphas=(0.5,))
        assert [(r["m"], r["alpha"]) for r in rows] == [(1, 0.5), (3, 0.5)]
        assert len(rows[1]["poles"].split(";")) == 3

    @pytest.mark.parametrize("empty", ("alphas", "ms"))
    def test_empty_list_rejected(self, empty):
        with pytest.raises(ValueError, match=f"{empty} is empty"):
            run_pade_info(**{empty: ()})
