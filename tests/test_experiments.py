import errno
import gc
import io
import logging
import math
import os
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fracstep import cli, experiments, solvers, spectral, stepping
from fracstep.experiments import (
    TABLE_2D,
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
from fracstep.fem import assemble_1d, assemble_2d_tensor, per_operator
from fracstep.meshes import (build_geometric_mesh, build_graded_spatial_mesh,
                             experiment_refinement_level, refinement_level_for)
from fracstep.spectral import eig_2d_tensor
from tests.test_fem import built_fields


def _recorded(calls, fn):
    """fn, with the result of every call appended to ``calls``."""
    def recorded(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]
    return recorded


def _record_cg_state(monkeypatch, builds, reads):
    """Record each build of CG's state in ``builds`` and each read in ``reads``."""
    build = _recorded(builds, solvers._cg_state.__wrapped__)
    monkeypatch.setattr(solvers, "_cg_state", _recorded(reads, per_operator(build)))


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
        # True == 1 and 2.0 == 2, so both passed and were written to the CSV
        for dimension in (3, True, 2.0):
            with pytest.raises(ValueError, match=f"^dimension must be 1 or 2, got {dimension}$"):
                ExperimentSpec(dimension=dimension)

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

    @pytest.mark.parametrize("name,values", (("data_cases", ("b", "a", "b")),
                                             ("alphas", (0.5, 0.5)), ("ms", (1, 2, 1))))
    def test_repeated_entry_refused(self, name, values):
        # a repeated case, exponent or order wrote every one of its rows twice
        with pytest.raises(ValueError, match=rf"^{name} has a repeated entry: "):
            ExperimentSpec(**{name: values})

    @staticmethod
    def _refuse_assembly(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an operator was assembled before the settings were checked")

        for name in ("assemble_1d", "assemble_2d_tensor"):
            monkeypatch.setattr(experiments, name, refuse)

    @pytest.mark.parametrize("study", (run_table, run_spatial_refinement))
    @pytest.mark.parametrize("setting,message", (
        ({"delta": float("nan")}, "^delta must be positive and finite, got nan$"),
        ({"delta": 0.0}, "^delta must be positive and finite, got 0.0$"),
        ({"delta": -1.0}, "^delta must be positive and finite, got -1.0$"),
        ({"Ns": (0, 8)}, "^N must be >= 1, got 0$"),
        ({"ms": (0, 2)}, r"^order m must be an integer in \[1, 8\], got 0$"),
        ({"ms": (2, 9)}, r"^order m must be an integer in \[1, 8\], got 9$"),
        ({"um_steps": 0}, "^um_steps: N must be >= 1, got 0$"),
        ({"alphas": (0.5, 1.5)}, r"^alpha must lie in \(0, 1\), got 1.5$"),
        # a non-integer step count or depth ran: N = 1.5 stepped a GRM row
        # 16 times, and L = 2.5 was truncated to 2
        ({"Ns": (1.5, 3)}, "^N must be an integer, got 1.5$"),
        ({"um_steps": 2.5}, "^um_steps: N must be an integer, got 2.5$"),
        ({"L_policy": "fixed", "L_fixed": 2.5}, "^L = 2.5 must be an integer$"),
        # a bool is an int: m = True and N = True ran and wrote True in the CSV
        ({"ms": (True,)}, r"^order m must be an integer in \[1, 8\], got True$"),
        ({"Ns": (True, 2)}, "^N must be an integer, got True$"),
        ({"um_steps": True}, "^um_steps: N must be an integer, got True$"),
        ({"L_policy": "fixed", "L_fixed": True}, "^L = True must be an integer$")),
        ids=("delta-nan", "delta-0", "delta-negative", "N-0", "m-0", "m-9", "um_steps-0",
             "alpha-1.5", "N-1.5", "um_steps-2.5", "L-2.5", "m-True", "N-True",
             "um_steps-True", "L-True"))
    def test_stepping_setting_refused_before_assembly(self, monkeypatch, study, setting,
                                                     message):
        # these were refused only once a run was set up, after the operator
        # (and for the spatial study the fine-mesh reference run); a NaN
        # delta was reported as not below the spectrum
        self._refuse_assembly(monkeypatch)
        with pytest.raises(ValueError, match=message):
            study(ExperimentSpec(**setting))

    @pytest.mark.parametrize("Ns,alpha,message", (
        ((1, 4), 0.5, "^N must be >= 2, got 1$"),
        ((4,), 1.5, r"^alpha must lie in \(0, 1\), got 1.5$")), ids=("N-1", "alpha-1.5"))
    def test_spatial_setting_refused_before_assembly(self, monkeypatch, Ns, alpha, message):
        self._refuse_assembly(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_spatial_refinement(ExperimentSpec(Ns=Ns), alpha=alpha)

    def test_spatial_study_refuses_a_2d_spec(self, monkeypatch):
        # it ran the 1D graded study with direct solves and reported "cg"
        self._refuse_assembly(monkeypatch)
        spec = ExperimentSpec(**{**TABLE_2D, "Ns": (2,), "ms": (1,), "um_steps": 10},
                              solver="cg")
        with pytest.raises(ValueError, match="^the spatial study runs on graded 1D meshes"):
            run_spatial_refinement(spec)

    @pytest.mark.parametrize("n_per_side", (2, 1, 0))
    def test_tensor_grid_under_three_cells_refused_before_assembly(self, monkeypatch,
                                                                   n_per_side):
        self._refuse_assembly(monkeypatch)
        with pytest.raises(ValueError, match=rf"^n_per_side must be >= 3, got {n_per_side}$"):
            run_table(ExperimentSpec(dimension=2, data_cases=("e",), n_per_side=n_per_side))
        assert ExperimentSpec(dimension=2, data_cases=("e",), n_per_side=3).cells == 3

    @pytest.mark.parametrize("build,message", (
        (lambda: ExperimentSpec(dimension=2, data_cases=("e",), n_per_side=3.5),
         "^n_per_side must be an integer, got 3.5$"),
        (lambda: ExperimentSpec(dimension=2, data_cases=("e",), n_per_side=4.0),
         "^n_per_side must be an integer, got 4.0$"),
        (lambda: assemble_2d_tensor(3.5), "^n_per_side must be an integer, got 3.5$"),
        (lambda: run_scalar_diagnostics(points=2.5), "^points must be an integer, got 2.5$"),
        (lambda: assemble_1d([0.0, np.nan, 1.0]),
         "^nodes must be finite and strictly increasing$"),
        (lambda: assemble_1d([0.0, 1.0, np.inf]),
         "^nodes must be finite and strictly increasing$"),
        (lambda: assemble_1d([0.0, np.inf, np.inf]),
         "^nodes must be finite and strictly increasing$"),
        (lambda: assemble_1d([-np.inf, -np.inf, 0.0, 1.0]),
         "^nodes must be finite and strictly increasing$"),
        (lambda: assemble_1d([0.0, 1e308, -1e308]),
         "^nodes must be finite and strictly increasing$"),
        (lambda: build_geometric_mesh(np.nan, 4),
         r"^lambda_max must be in \(1, inf\) without L_override, got nan$"),
        (lambda: build_geometric_mesh(np.inf, 4),
         r"^lambda_max must be in \(1, inf\) without L_override, got inf$")),
        ids=("spec-n_per_side-3.5", "spec-n_per_side-4.0", "grid-3.5", "sweep-points-2.5",
             "nodes-nan", "nodes-inf", "nodes-inf-inf", "nodes-minus-inf-pair",
             "nodes-step-overflow", "lambda_max-nan", "lambda_max-inf"))
    def test_non_integer_count_or_non_finite_value_refused(self, build, message):
        # a spec with a non-integer grid size was accepted, and that size (or
        # a non-integer sweep size) failed in np.linspace or np.logspace as a
        # TypeError; a NaN node gave NaN bands and an infinite one an infinite
        # mass band; two infinite nodes, or a step that overflows, raised
        # numpy's RuntimeWarning ahead of the ValueError; a NaN or infinite
        # lambda_max failed in math.ceil
        with pytest.raises(ValueError, match=message):
            build()


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

    def test_order_compares_a_level_with_half_its_steps(self):
        # an odd N, or an N whose half the table lacks, has no order; the
        # others compare N with exactly N / 2
        spec = ExperimentSpec(data_cases=("b",), alphas=(0.5,), ms=(1,), scheme="grm",
                              Ns=(1, 2, 3, 4, 6, 9, 16), h=0.1)
        rows = {row["N"]: row for row in run_table(spec)}
        with_order = [N for N, row in rows.items() if not math.isnan(row["order_vs_prev"])]
        assert with_order == [2, 4, 6]
        for N in with_order:
            assert rows[N]["order_vs_prev"] == convergence_order(
                rows[N // 2]["rel_error"], rows[N]["rel_error"])

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

    def test_path_objects_accepted(self, small_1d_rows, tmp_path):
        # a pathlib.Path names a file as a str does
        write_csv(small_1d_rows, tmp_path / "t1.csv")
        write_csv(small_1d_rows, str(tmp_path / "t2.csv"))
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

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
        # CG's state, the factor's dense matrices and modes, is built by the
        # first CG run on an operator and read by every later one; the direct
        # path neither builds nor reads it, and no operator keeps it; on one
        # CPU no run steps in a forked child, out of the recorders' sight
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        ops, builds, reads = [], [], []
        monkeypatch.setattr(experiments, "assemble_2d_tensor",
                            _recorded(ops, experiments.assemble_2d_tensor))
        _record_cg_state(monkeypatch, builds, reads)
        spec = ExperimentSpec(dimension=2, data_cases=("e", "f"), alphas=(0.3, 0.7),
                              ms=(1,), Ns=(1, 2), n_per_side=10, L_policy="fixed",
                              L_fixed=4, solver=solver)
        assert len(run_table(spec)) == 16
        [op] = ops
        assert built_fields(op) == built_fields(op.factor) == set()
        if solver == "direct":
            assert reads == [] and builds == []
        else:
            # 8 runs read one state, built once
            assert len(reads) == 8 and all(state is reads[0] for state in reads)
            assert len(builds) == 1 and builds[0] is reads[0]

    @pytest.mark.parametrize("solver", solvers.SOLVERS)
    def test_table_builds_its_basis_once(self, monkeypatch, solver):
        # the table's reference and every run share the arrays of one tensor
        # basis, built on the first call for the table's operator
        builds = []
        monkeypatch.setattr(spectral, "_folded_blocks",
                            _recorded(builds, spectral._folded_blocks))
        spec = ExperimentSpec(dimension=2, data_cases=("e",), alphas=(0.3, 0.7), ms=(1,),
                              Ns=(1, 2), n_per_side=10, L_policy="fixed", L_fixed=4,
                              solver=solver)
        assert len(run_table(spec)) == 8
        assert len(builds) == 1

    def test_dropped_operator_and_its_caches_are_collected(self):
        # the tensor basis and CG's state live as long as their operator:
        # kept while it is, gone with it (no reference cycle through a cache)
        op = assemble_2d_tensor(10)
        basis, state = eig_2d_tensor(op), solvers._cg_state(op)
        assert eig_2d_tensor(op)._blocks is basis._blocks
        assert solvers._cg_state(op) is state
        refs = [weakref.ref(x) for x in (op, op.factor, basis, state[0], state[2], state[4])]
        del op, basis, state
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    @pytest.mark.parametrize("study", ("table", "spatial", "table2d"))
    def test_direct_1d_paths_build_no_csr_matrix(self, monkeypatch, study):
        # an operator is its bands, a tensor operator its factor's: assembly
        # keeps nothing more, and neither a 1D table, the graded-mesh study
        # nor a direct 2D table builds or reads CG's state; on one CPU no
        # run steps in a forked child, out of the recorders' sight
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        ops, built, reads = [], [], []
        for name in ("assemble_1d", "assemble_2d_tensor"):
            monkeypatch.setattr(experiments, name, _recorded(ops, getattr(experiments, name)))
        _record_cg_state(monkeypatch, built, reads)
        if study == "table":
            spec = ExperimentSpec(dimension=1, data_cases=("a", "d"), alphas=(0.5,),
                                  ms=(1, 2), Ns=(1, 2), h=0.05)
            assert len(run_table(spec)) == 16
        elif study == "spatial":
            monkeypatch.setattr(experiments, "_REFERENCE_FACTOR", 2)
            spec = ExperimentSpec(dimension=1, ms=(1,), Ns=(2,), um_steps=10)
            assert len(run_spatial_refinement(spec, alpha=0.5)) == 1
        else:
            spec = ExperimentSpec(dimension=2, data_cases=("e", "f"), alphas=(0.5,), ms=(1,),
                                  Ns=(1, 2), n_per_side=10, L_policy="fixed", L_fixed=4)
            assert len(run_table(spec)) == 8
        assert ops and all(built_fields(op) == set() for op in ops)
        assert built == [] and reads == []

    def test_cg_table_leaves_the_tensor_basis_without_dense_modes(self, monkeypatch):
        # CG keeps the dense modes of the factor in its own state: the
        # tensor basis of the reference, read by the same table, holds no
        # n x n array
        ops = []
        monkeypatch.setattr(experiments, "assemble_2d_tensor",
                            _recorded(ops, experiments.assemble_2d_tensor))
        spec = ExperimentSpec(dimension=2, data_cases=("e",), alphas=(0.5,), ms=(1,),
                              Ns=(1,), n_per_side=10, L_policy="fixed", L_fixed=4,
                              solver="cg")
        assert len(run_table(spec)) == 2
        [op] = ops
        dec, n = eig_2d_tensor(op), op.factor.n_dofs  # cached: the table's basis
        assert "_blocks" in vars(dec) and {"modes", "_modes_t"}.isdisjoint(vars(dec))
        assert not any(isinstance(v, np.ndarray) and v.shape == (n, n)
                       for v in vars(dec).values())

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
        rows = run_spatial_refinement(spec, alpha=0.5)
        row = rows[0]
        assert row["nx"] == 72
        assert row["NS_m2"] <= row["NS_m1"]
        assert row["E_GRM_m1"] <= row["e_semi_proxy"]
        assert row["E_GRM_m2"] <= row["e_semi_proxy"]
        assert row["threshold_kind"] == "proxy_fine_mesh"


    def test_explicit_delta_and_L_are_used(self, monkeypatch):
        monkeypatch.setattr(experiments, "_REFERENCE_FACTOR", 2)
        spec = ExperimentSpec(dimension=1, ms=(2,), Ns=(4,), um_steps=200, delta=1.0,
                              L_policy="fixed", L_fixed=3)
        rows = run_spatial_refinement(spec, alpha=0.5)
        assert (rows[0]["delta"], rows[0]["L"]) == (1.0, 3)
        assert rows[0]["E_GRM_m2"] <= rows[0]["e_semi_proxy"]

    def test_unreachable_threshold_raises(self, monkeypatch):
        from fracstep.experiments import _graded_setup, _smallest_passing_Nt

        monkeypatch.setattr(experiments, "_NT_CAP", 1)
        op, L, delta, f = _graded_setup(ExperimentSpec(), build_graded_spatial_mesh(4))
        with pytest.raises(RuntimeError, match="no Nt <= 1"):
            _smallest_passing_Nt(op, f, 0.5, 1, delta, L, f, 0.0)

    def test_delta_at_the_spectrum_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "_REFERENCE_FACTOR", 2)
        spec = ExperimentSpec(dimension=1, ms=(2,), Ns=(4,), um_steps=200, delta=500.0)
        with pytest.raises(ValueError, match="not below lambda_min_est"):
            run_spatial_refinement(spec, alpha=0.5)

    def test_uniform_runs_step_as_one_batch(self, monkeypatch):
        # every (N, m) uniform run goes into one run_batch call, and the rows
        # have the bits of rows built from lone runs; on one CPU the batch
        # runs inline, where ``batches`` can record it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        spec = ExperimentSpec(dimension=1, Ns=(2, 3), um_steps=20)
        batches = []

        def batched(runs, return_stats=False):
            batches.append(list(runs))
            return stepping.run_batch(batches[-1], return_stats)

        def lone(runs, return_stats=False):
            return [stepping.run(v, op, cfg, return_stats) for v, op, cfg in runs]

        monkeypatch.setattr(experiments, "run_batch", batched)
        rows = run_spatial_refinement(spec)
        assert [len(runs) for runs in batches] == [len(spec.Ns) * len(spec.ms)]
        assert {cfg.m for _, _, cfg in batches[0]} == set(spec.ms)
        assert len({op.n_dofs for _, op, _ in batches[0]}) == len(spec.Ns)
        monkeypatch.setattr(experiments, "run_batch", lone)
        assert _bits(run_spatial_refinement(spec)) == _bits(rows)


def _bits(rows):
    return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the batch forks only where os.fork exists")
class TestForkedBatch:
    """With two usable CPUs the spatial study steps its uniform batch in a
    forked child; every test here takes that path, and no child or zombie
    is left after any of them."""

    SPEC = ExperimentSpec(Ns=(2, 3), ms=(1, 2), um_steps=20)
    ARGV = ["spatial-refine", "--Ns", "2,3", "--ms", "1,2", "--um-steps", "20"]

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _batch_in_child(self, monkeypatch, body):
        """Replace the batch by ``body``, which must run in a child."""
        parent = os.getpid()

        def batch(runs, return_stats=False):
            assert os.getpid() != parent, "the batch ran in the calling process"
            return body()

        monkeypatch.setattr(experiments, "run_batch", batch)

    def test_forked_rows_have_the_inline_bits(self, monkeypatch):
        forks = []
        monkeypatch.setattr(os, "fork", _recorded(forks, os.fork))
        forked = run_spatial_refinement(self.SPEC)
        assert len(forks) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _bits(run_spatial_refinement(self.SPEC)) == _bits(forked)
        assert len(forks) == 1

    def test_child_error_reaches_the_caller(self, monkeypatch, capsys):
        def fail():
            raise solvers.SolveError(f"batch failed in process {os.getpid()}")

        self._batch_in_child(monkeypatch, fail)
        with pytest.raises(solvers.SolveError, match="^batch failed in process ") as info:
            run_spatial_refinement(self.SPEC)
        assert type(info.value) is solvers.SolveError
        assert str(info.value) != f"batch failed in process {os.getpid()}"
        assert cli.main(self.ARGV) == 2
        assert "batch failed in process" in capsys.readouterr().err

    def test_killed_child_is_a_runtime_error(self, monkeypatch, capsys):
        self._batch_in_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="forked batch was killed by signal 9") as info:
            run_spatial_refinement(self.SPEC)
        assert type(info.value) is RuntimeError
        assert cli.main(self.ARGV) == 2
        assert "killed by signal 9" in capsys.readouterr().err

    def test_parent_error_wins_without_waiting_for_the_batch(self, monkeypatch):
        self._batch_in_child(monkeypatch, lambda: time.sleep(60))
        monkeypatch.setattr(experiments, "_NT_CAP", 1)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="no Nt <= 1"):
            run_spatial_refinement(self.SPEC)
        assert time.monotonic() - start < 30

    def test_child_runs_no_exit_handler_and_flushes_no_buffer(self):
        # the parent's unflushed "before " and its atexit handler appear once
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        script = ("import atexit, os, sys; from fracstep import experiments as e\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "atexit.register(print, 'exit handler')\n"
                  "sys.stdout.write('before ')\n"
                  "e.run_spatial_refinement(e.ExperimentSpec(Ns=(2,), ms=(1,), um_steps=10))\n")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout == "before exit handler\n"


class Unrebuildable(Exception):
    """Pickles, but its pickle cannot rebuild it: ``args`` holds one value."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the table forks only where os.fork exists")
class TestForkedTable:
    """With two usable CPUs a table steps half of its runs, by cost, in a
    forked child; no child or zombie is left after any test here."""

    SPEC = ExperimentSpec(data_cases=("a", "d"), alphas=(0.5,), ms=(1, 2), Ns=(1, 2, 4),
                          h=0.05)
    ARGV = ["table-1d", "--h", "0.05", "--cases", "a,d", "--alphas", "0.5", "--ms", "1,2",
            "--Ns", "1,2,4"]

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _steps(self, monkeypatch, in_child, in_parent=None):
        """Make every run return ``in_child()`` in a child; in this process,
        call ``in_parent(cfg)`` if given, then step for real."""
        parent, real = os.getpid(), experiments.run_grm

        def step(fs, op, cfg, return_stats=False, *, solver="direct"):
            if os.getpid() != parent:
                return in_child()
            if in_parent is not None:
                in_parent(cfg)
            return real(fs, op, cfg, return_stats, solver=solver)

        for name in ("run_grm", "run_um"):
            monkeypatch.setattr(experiments, name, step)

    @pytest.mark.parametrize("scheme", ("both", "grm", "um"))
    def test_forked_rows_have_the_inline_and_serial_bits(self, monkeypatch, scheme):
        spec = replace(self.SPEC, scheme=scheme)
        forks = []
        monkeypatch.setattr(os, "fork", _recorded(forks, os.fork))
        forked = _bits(run_table(spec))
        assert len(forks) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _bits(run_table(spec)) == forked
        # every run in one half, in the table's order: the serial loop
        monkeypatch.setattr(experiments, "_split_by_cost",
                            lambda costs: (list(range(len(costs))), []))
        assert _bits(run_table(spec)) == forked
        assert len(forks) == 1

    def test_1d_table_forks_once_and_steps_half_the_cost_here(self, monkeypatch):
        forks, costs, real = [], [], experiments.run_grm

        def step(fs, op, cfg, return_stats=False, *, solver="direct"):
            costs.append(cfg.mesh.num_steps * cfg.m)  # a child's appends stay in the child
            return real(fs, op, cfg, return_stats, solver=solver)

        monkeypatch.setattr(os, "fork", _recorded(forks, os.fork))
        for name in ("run_grm", "run_um"):
            monkeypatch.setattr(experiments, name, step)
        rows = run_table(self.SPEC)
        assert len(forks) == 1
        # GRM and UM twins cost the same, so the halves are exactly equal
        total = sum(row["solves"] for row in rows if row["case"] == "a")
        assert 0 < len(costs) < 12 and 2 * sum(costs) == total

    @pytest.mark.parametrize("solver", solvers.SOLVERS)
    def test_2d_table_forks_once_with_the_inline_and_serial_bits(self, monkeypatch, solver):
        # the child steps its half through the tensor backend's level-3 BLAS
        # (CG's state built anew there), as this process does its own
        spec = ExperimentSpec(dimension=2, data_cases=("e", "f"), alphas=(0.3, 0.7),
                              ms=(1, 2), Ns=(1, 2), n_per_side=10, L_policy="fixed",
                              L_fixed=3, solver=solver)
        forks = []
        monkeypatch.setattr(os, "fork", _recorded(forks, os.fork))
        forked = _bits(run_table(spec))
        assert len(forks) == 1 and len(forked) == 32
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _bits(run_table(spec)) == forked
        monkeypatch.setattr(experiments, "_split_by_cost",
                            lambda costs: (list(range(len(costs))), []))
        assert _bits(run_table(spec)) == forked
        assert len(forks) == 1

    def test_fork_after_threaded_blas_neither_hangs_nor_changes_bits(self):
        # OpenBLAS stops its pool before a fork and restarts it on the next
        # call: a 2D table forked after a threaded GEMM ends (within the
        # timeout) with the bits of the one-CPU table, and leaves no child
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        script = (
            "import os, numpy as np; from fracstep import experiments as e\n"
            "a = np.random.default_rng(0).standard_normal((400, 400))\n"
            "a @ a\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(fork()) or forks[-1]\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "spec = e.ExperimentSpec(dimension=2, data_cases=('e', 'f'), alphas=(0.3, 0.7),\n"
            "                        ms=(2,), Ns=(1, 2), n_per_side=100, scheme='grm')\n"
            "forked = repr(e.run_table(spec))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    left = True\n"
            "except ChildProcessError:\n"
            "    left = False\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "print(len(forks), left, forked == repr(e.run_table(spec)))\n")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout == "1 False True\n"

    def test_child_error_reaches_the_caller(self, monkeypatch, capsys):
        def fail():
            raise solvers.SolveError(f"run failed in process {os.getpid()}")

        self._steps(monkeypatch, fail)
        with pytest.raises(solvers.SolveError, match="^run failed in process ") as info:
            run_table(self.SPEC)
        assert type(info.value) is solvers.SolveError
        assert str(info.value) != f"run failed in process {os.getpid()}"
        assert cli.main(self.ARGV) == 2
        assert "run failed in process" in capsys.readouterr().err

    def test_killed_child_is_a_runtime_error(self, monkeypatch, capsys):
        self._steps(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="_score_runs was killed by signal 9") as info:
            run_table(self.SPEC)
        assert type(info.value) is RuntimeError
        assert cli.main(self.ARGV) == 2
        assert "killed by signal 9" in capsys.readouterr().err

    def test_parent_error_wins_without_waiting_for_the_child(self, monkeypatch):
        def fail(cfg):
            raise solvers.SolveError("the parent's run failed")

        self._steps(monkeypatch, lambda: time.sleep(60), fail)
        start = time.monotonic()
        with pytest.raises(solvers.SolveError, match="the parent's run failed"):
            run_table(self.SPEC)
        assert time.monotonic() - start < 30

    def test_exception_that_cannot_be_rebuilt_is_a_runtime_error(self, monkeypatch, capsys):
        def fail():
            raise Unrebuildable("left", "right")

        self._steps(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="_score_runs raised Unrebuildable: left and "):
            run_table(self.SPEC)
        assert cli.main(self.ARGV) == 2
        assert "Unrebuildable: left and right" in capsys.readouterr().err

    def test_exception_that_cannot_be_pickled_keeps_its_message(self, monkeypatch, capsys):
        def fail():
            raise ValueError(lambda: 0)

        self._steps(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="_score_runs raised ValueError: <function "):
            run_table(self.SPEC)
        assert cli.main(self.ARGV) == 2
        assert "ValueError: <function " in capsys.readouterr().err

    @staticmethod
    def _no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_failed_fork_leaves_no_descriptor_open(self, monkeypatch):
        monkeypatch.setattr(os, "fork", self._no_fork)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            with pytest.raises(BlockingIOError):
                run_table(self.SPEC)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_failed_fork_is_an_error_of_the_command(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "fork", self._no_fork)
        assert cli.main(self.ARGV) == 2
        assert os.strerror(errno.EAGAIN) in capsys.readouterr().err

    def test_result_that_cannot_be_pickled_is_a_runtime_error(self):
        def unpicklable():
            return lambda: 0

        with experiments._forked(unpicklable) as wait:
            with pytest.raises(RuntimeError, match="unpicklable could not send its result: "):
                wait()


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
            ms=(2,), Ns=(4,), um_steps=200, seed=seed), alpha=0.5),
    }

    @pytest.mark.parametrize("study", STUDIES)
    def test_rows_do_not_depend_on_the_seed(self, monkeypatch, study):
        monkeypatch.setattr(experiments, "_REFERENCE_FACTOR", 2)  # a smaller spatial study
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

    @pytest.mark.parametrize("Ns", ((8, 8, 8), (8, 16, 16, 32), (16, 8, 32)))
    def test_Ns_must_increase(self, Ns):
        # as in the tables; repeated Ns gave a slope from a rank-deficient fit
        with pytest.raises(ValueError, match="^Ns must be strictly increasing$"):
            run_scalar_diagnostics(Ns=Ns, points=10)

    @pytest.mark.parametrize("name,values", (("alphas", (0.5, 0.5)), ("ms", (2, 2))))
    def test_repeated_entry_rejected(self, name, values):
        with pytest.raises(ValueError, match=f"^{name} has a repeated entry"):
            run_scalar_diagnostics(**{name: values}, points=10)


class TestPadeInfo:
    def test_one_row_per_order_and_exponent(self):
        rows = run_pade_info(ms=(1, 3), alphas=(0.5,))
        assert [(r["m"], r["alpha"]) for r in rows] == [(1, 0.5), (3, 0.5)]
        assert len(rows[1]["poles"].split(";")) == 3

    @pytest.mark.parametrize("empty", ("alphas", "ms"))
    def test_empty_list_rejected(self, empty):
        with pytest.raises(ValueError, match=f"{empty} is empty"):
            run_pade_info(**{empty: ()})

    @pytest.mark.parametrize("name,values", (("alphas", (0.5, 0.5)), ("ms", (1, 1))))
    def test_repeated_entry_rejected(self, name, values):
        with pytest.raises(ValueError, match=f"^{name} has a repeated entry"):
            run_pade_info(**{name: values})
