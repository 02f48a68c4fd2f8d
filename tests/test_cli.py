import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

try:
    from numpy._core.multiarray import MAXDIMS
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import MAXDIMS

from schurweyl.cli import _emit_json, main
from schurweyl.orthogonal_form import permutation_matrix
from schurweyl.spectral import MaximizeConfig, max_lambda1_over_subspace
from schurweyl.tensor_space import (
    OperatorExpr,
    TensorState,
    WeightBlocks,
    block_basis,
    orthogonal_projector,
)
from schurweyl.verification import CheckResult, run_verification
from schurweyl.young import (
    YoungDiagram,
    bound_for_box,
    column_ordered_tableau,
    dim_symmetric_group_irrep,
    dim_unitary_group_irrep,
    entropy_lower_bound,
    enumerate_standard_tableaux,
    max_schmidt_bound,
    partitions_of,
    removable_boxes,
    row_ordered_tableau,
)

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
# the benchmark's verify ops: partition and d, each run at seed 0 with 2 samples
BENCHMARK_VERIFY_OPS = {
    "verify-321-d3": ("3,2,1", "3"),
    "verify-322-d3": ("3,2,2", "3"),
    "verify-2211-d4": ("2,2,1,1", "4"),
    "verify-221-d5": ("2,2,1", "5"),
}
# the benchmark's maximize ops, each run at seed 0
BENCHMARK_MAXIMIZE_OPS = {
    "maximize-322-d3": ("--partition", "3,2,2", "--d", "3"),
    "maximize-2211-d4": ("--partition", "2,2,1,1", "--d", "4"),
    "maximize-211-d6-cut2": ("--partition", "2,1,1", "--d", "6", "--cut", "2"),
}


@pytest.fixture
def runner():
    return CliRunner()


def verify_checks(runner, partition, d):
    result = runner.invoke(
        main,
        ["verify", "--partition", partition, "--d", str(d), "--samples", "2",
         "--format", "json"],
    )
    assert result.exit_code in (0, 1), result.output
    return {c["name"]: c for c in json.loads(result.output)["checks"]}


def verify_check(runner, partition, d, name):
    return verify_checks(runner, partition, d)[name]


class Phased(OperatorExpr):
    """The operator followed by a fixed, non-uniform diagonal phase."""

    def _apply_raw(self, arr):
        phase = np.exp(1j * np.arange(len(arr)))
        return phase.reshape((-1,) + (1,) * (arr.ndim - 1)) * super()._apply_raw(arr)


class Plus(OperatorExpr):
    """The operator plus another one."""

    def __init__(self, op, other):
        super().__init__(op.local_dim, op.n_factors, op.stages)
        self.other = other

    def _apply_raw(self, arr):
        return super()._apply_raw(arr) + self.other._apply_raw(arr)


class TestBound:
    def test_staircase_text(self, runner):
        result = runner.invoke(main, ["bound", "--partition", "3,2,1"])
        assert result.exit_code == 0
        assert "box (3,1): 8/15" in result.output
        assert "box (2,2): 2/3" in result.output
        assert "box (1,3): 1" in result.output
        assert "max bound 1 at box (1,3)" in result.output

    def test_json(self, runner):
        result = runner.invoke(main, ["bound", "--partition", "3,3,1", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["schema"] == "1"
        assert payload["max_bound"] == "3/5"
        assert payload["witness_box"] == {"row": 3, "col": 1}
        bounds = {(b["row"], b["col"]): b["bound"] for b in payload["boxes"]}
        assert bounds == {(3, 1): "3/5", (2, 3): "1/2"}

    def test_malformed_partition_is_usage_error(self, runner):
        result = runner.invoke(main, ["bound", "--partition", "3,x"])
        assert result.exit_code == 2

    def test_single_box_is_usage_error(self, runner):
        result = runner.invoke(main, ["bound", "--partition", "1"])
        assert result.exit_code == 2
        assert "at least 2" in result.output


class TestTableaux:
    def test_listing(self, runner):
        result = runner.invoke(main, ["tableaux", "--partition", "2,1"])
        assert result.exit_code == 0
        assert "2 standard tableaux" in result.output
        assert "[[1,2],[3]]" in result.output
        assert "[[1,3],[2]]" in result.output
        assert "row-ordered" in result.output
        assert "column-ordered" in result.output

    def test_single_row(self, runner):
        result = runner.invoke(main, ["tableaux", "--partition", "4"])
        assert "1 standard tableaux" in result.output

    def test_dimensions_at_given_d(self, runner):
        result = runner.invoke(
            main, ["tableaux", "--partition", "2,2", "--d", "2", "--format", "json"]
        )
        payload = json.loads(result.output)
        assert payload["dim_symmetric_group_irrep"] == 2
        assert payload["dim_unitary_group_irrep"] == 1

    @pytest.mark.parametrize("partition, d", [
        ("1", None), ("2,2", None), ("3,2,1", None), ("3,2,1", 2),
    ])
    def test_json_is_json_dumps_of_the_full_payload(self, runner, partition, d):
        # the listing is streamed; its bytes are those of the whole payload
        diagram = YoungDiagram.from_string(partition)
        args = ["tableaux", "--partition", partition, "--format", "json"]
        if d is not None:
            args += ["--d", str(d)]
        d = diagram.n_rows if d is None else d
        listing = []
        for t in enumerate_standard_tableaux(diagram):
            flags = [
                flag for flag, ordered in (
                    ("row-ordered", t == row_ordered_tableau(diagram)),
                    ("column-ordered", t == column_ordered_tableau(diagram)),
                ) if ordered
            ]
            listing.append({"tableau": str(t), "flags": flags})
        payload = {
            "schema": "1",
            "command": "tableaux",
            "partition": partition,
            "d": d,
            "dim_symmetric_group_irrep": dim_symmetric_group_irrep(diagram),
            "dim_unitary_group_irrep": dim_unitary_group_irrep(diagram, d),
            "tableaux": listing,
        }
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.output == json.dumps(payload, indent=2) + "\n"


class TestVerify:
    def test_small_block_passes(self, runner):
        result = runner.invoke(main, ["verify", "--partition", "2,1", "--d", "2"])
        assert result.exit_code == 0
        assert "checks passed" in result.output
        assert "FAIL" not in result.output

    def test_singlet_sector(self, runner):
        result = runner.invoke(main, ["verify", "--partition", "1,1", "--d", "2"])
        assert result.exit_code == 0

    def test_json_output(self, runner):
        result = runner.invoke(
            main, ["verify", "--partition", "2,1", "--d", "2", "--format", "json"]
        )
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])
        assert payload["seed"] == 0

    def test_failure_exits_one(self, runner, monkeypatch):
        def fake(*args, **kwargs):
            return [CheckResult("forced failure", 1.0, 1e-10)]

        monkeypatch.setattr("schurweyl.cli.run_verification", fake)
        result = runner.invoke(main, ["verify", "--partition", "2,1", "--d", "2"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_check_result_decides_its_verdict(self):
        # a check passes exactly when residual <= tolerance: a NaN residual
        # fails, one at the tolerance passes, and the JSON keys keep their order
        assert CheckResult("nan", float("nan"), 1e-8).passed is False
        edge = CheckResult("edge", np.float64(1e-8), 1e-8, "at the tolerance")
        assert edge.passed is True
        assert type(edge.residual) is float
        assert list(asdict(edge)) == ["name", "residual", "tolerance", "passed", "detail"]

    @pytest.mark.parametrize("op", list(BENCHMARK_VERIFY_OPS))
    def test_check_names_match_benchmark_record(self, runner, op):
        # every verify op of the benchmark, run as the benchmark runs it,
        # passes and reports the check names recorded for it
        record = json.loads(EXPECTED.read_text())[op]["checks"]
        partition, d = BENCHMARK_VERIFY_OPS[op]
        result = runner.invoke(
            main,
            ["verify", "--partition", partition, "--d", d, "--samples", "2",
             "--seed", "0", "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        assert [c["name"] for c in json.loads(result.output)["checks"]] == record

    @pytest.mark.parametrize("fault, name, intact", [
        (lambda op, neighbour: neighbour, "pairwise orthogonality", ()),
        (lambda op, neighbour: OperatorExpr(
            op.local_dim, op.n_factors, op.stages + ((2, 1, ()),)),
         "projector idempotence", ()),
        (lambda op, neighbour: Phased(op.local_dim, op.n_factors, op.stages),
         "local-unitary covariance", ()),
        (lambda op, neighbour: Plus(op, neighbour), "pairwise orthogonality",
         ("projector idempotence", "projector hermiticity")),
        (lambda op, neighbour: orthogonal_projector(
            enumerate_standard_tableaux(YoungDiagram((3, 1, 1)))[0], op.local_dim),
         "block resolution on sectors",
         ("projector idempotence", "projector hermiticity", "pairwise orthogonality",
          "local-unitary covariance")),
    ], ids=["neighbour", "twice", "phased", "overlapping", "foreign"])
    def test_sample_check_sees_faulty_projector(
        self, runner, monkeypatch, fault, name, intact
    ):
        # the second tableau of (2,2,1) gets a faulty projector: the first
        # tableau's, twice its own, its own followed by a diagonal phase, its
        # own plus the first's, or a (3,1,1) tableau's.  That sum is still a
        # hermitian idempotent, but its range overlaps the first sector's;
        # the foreign projector is orthogonal to every sector, but the sum of
        # the projections is then not the projection onto the block
        import schurweyl.verification as verification

        first, second = enumerate_standard_tableaux(YoungDiagram((2, 2, 1)))[:2]
        project = verification.orthogonal_projector
        monkeypatch.setattr(
            verification, "orthogonal_projector",
            lambda t, d: fault(project(t, d), project(first, d)) if t == second
            else project(t, d),
        )
        assert verify_check(runner, "2,2,1", 3, name)["passed"] is False
        for other in intact:
            assert verify_check(runner, "2,2,1", 3, other)["passed"] is True

    def test_projector_calls_within_budget(self, monkeypatch):
        # two dense calls per tableau for the sample checks, two per corner
        # for the saturating states, and three more: the two closed forms
        # and the coherent state.  The seed, the block resolution and the
        # Schmidt confinement act on weight blocks
        calls = []
        apply_raw = OperatorExpr._apply_raw

        def counted(self, arr):
            calls.append(arr.shape)
            return apply_raw(self, arr)

        monkeypatch.setattr(OperatorExpr, "_apply_raw", counted)
        diagram = YoungDiagram((3, 2, 2))
        run_verification(diagram, 3, samples=2)
        f = len(enumerate_standard_tableaux(diagram))
        assert len(calls) <= 2 * f + 2 * len(removable_boxes(diagram)) + 3

    def test_row_maps_built_once(self, monkeypatch):
        # (3,2,2) at d = 3: 21 maps for the seed's projector, 6 adjacent
        # swaps, 8 cross-check permutations and, once for the whole Schmidt
        # loop, the 15 transpositions of the first 6 factors
        calls = []
        row_map = WeightBlocks.row_map

        def counted(self, sigma):
            calls.append(sigma)
            return row_map(self, sigma)

        monkeypatch.setattr(WeightBlocks, "row_map", counted)
        run_verification(YoungDiagram((3, 2, 2)), 3, samples=2)
        assert len(calls) <= 50

    def test_sample_calls_stay_narrow(self, monkeypatch):
        # columns of the dense calls, linear in f: per tableau the 2
        # samples, then 3 * 2 for [P_t x | U x | V] with V the running sum
        # of the visited sectors; one state in each of the two calls per
        # corner; the 2 samples in each of the two closed forms, and the
        # coherent state
        columns = []
        apply_raw = OperatorExpr._apply_raw

        def counted(self, arr):
            columns.append(arr.size // len(arr))
            return apply_raw(self, arr)

        monkeypatch.setattr(OperatorExpr, "_apply_raw", counted)
        diagram = YoungDiagram((3, 2, 2))
        run_verification(diagram, 3, samples=2)
        f = len(enumerate_standard_tableaux(diagram))
        corners = len(removable_boxes(diagram))
        assert sum(columns) <= (2 + 3 * 2) * f + 2 * corners + 2 * 2 + 1

    def test_rejects_samples_below_one(self):
        with pytest.raises(ValueError, match="samples"):
            run_verification(YoungDiagram((2, 1)), 2, samples=0)

    def test_cross_check_sees_inverse_action(self, runner, monkeypatch):
        # seed 0 draws a sigma whose inverse acts alike on (3,2,1)/d3, and
        # the transpositions are involutions: only the N-cycle tells.  The
        # row maps of the weight blocks, and so the cross-check, read the
        # action through tensor_space.permute_matrix_columns
        import schurweyl.tensor_space as tensor_space

        permute = tensor_space.permute_matrix_columns
        monkeypatch.setattr(
            tensor_space, "permute_matrix_columns",
            lambda sigma, mat, d, n: permute(sigma.inverse(), mat, d, n),
        )
        assert verify_check(runner, "3,2,1", 3, "orthogonal-form cross-check")["passed"] is False

    @pytest.mark.parametrize("partition, d", [("2,2,1", 5), ("3,2,1", 4)])
    def test_cross_check_sees_flipped_sign(self, runner, monkeypatch, partition, d):
        import schurweyl.verification as verification

        def flipped(diagram, sigma):
            entries = permutation_matrix(diagram, sigma)
            off = np.abs(entries) * (1 - np.eye(len(entries)))
            entries[np.unravel_index(np.argmax(off), entries.shape)] *= -1
            return entries

        monkeypatch.setattr(verification, "permutation_matrix", flipped)
        check = verify_check(runner, partition, d, "orthogonal-form cross-check")
        assert check["passed"] is False

    def test_confinement_sees_wrong_sector(self, runner, monkeypatch):
        # each t is checked against the neighbour of remove_largest(t) among
        # the tableaux of its shape, whose sector is orthogonal to the right
        import schurweyl.verification as verification

        remove = verification.remove_largest

        def neighbour(t):
            shape = enumerate_standard_tableaux(remove(t).diagram)
            return shape[(shape.index(remove(t)) + 1) % len(shape)]

        monkeypatch.setattr(verification, "remove_largest", neighbour)
        check = verify_check(runner, "2,2,1", 3, "Schmidt confinement")
        assert check["passed"] is False
        assert check["residual"] == pytest.approx(1.0)

    def test_spectra_see_swapped_columns(self, runner, monkeypatch):
        # two columns of the last sector swap places in one weight block:
        # those two vectors of the last sector trade Schmidt spectra
        import schurweyl.verification as verification

        def swapped(diagram, d):
            project = block_basis(diagram, d)
            last = len(enumerate_standard_tableaux(diagram)) - 1
            dim = len(project) // (last + 1)
            for _, blocks, cols in project.stacks:
                j = np.flatnonzero(cols[0] // dim == last)
                if j.size >= 2:
                    blocks[0][:, j[:2]] = blocks[0][:, j[1::-1]]
                    return project
            raise AssertionError("no weight block with two columns of the last sector")

        monkeypatch.setattr(verification, "block_basis", swapped)
        check = verify_check(runner, "3,2,1", 3, "shared-corner Schmidt spectra")
        assert check["passed"] is False

    def test_saturation_sees_another_corners_state(self, runner, monkeypatch):
        # each box gets the optimizer of the next removable box: a fixed
        # point still, but of another sector and another bound
        import schurweyl.verification as verification

        optimizer = verification.optimizer_state

        def next_corner(diagram, box, d):
            boxes = removable_boxes(diagram)
            return optimizer(diagram, boxes[(boxes.index(box) + 1) % len(boxes)], d=d)

        monkeypatch.setattr(verification, "optimizer_state", next_corner)
        checks = verify_checks(runner, "3,2,1", 3)
        assert checks["saturation of the exact bound"]["passed"] is False
        assert checks["saturating-state membership"]["passed"] is False
        assert checks["saturating-state membership"]["residual"] == pytest.approx(1.0)
        assert checks["saturating-state fixed point"]["passed"] is True

    def test_saturating_checks_see_state_off_the_block(self, runner, monkeypatch):
        # e_0 on every factor lies off the block: the three saturating-state
        # rows report FAIL, and the run exits 1 with every row printed
        import schurweyl.verification as verification

        monkeypatch.setattr(
            verification, "optimizer_state",
            lambda diagram, box, d: TensorState.unit(d, diagram.n_boxes, 0),
        )
        result = runner.invoke(
            main, ["verify", "--partition", "3,2,1", "--d", "3", "--format", "json"]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        failed = [c["name"] for c in json.loads(result.output)["checks"] if not c["passed"]]
        assert failed == [
            "saturation of the exact bound",
            "saturating-state membership",
            "saturating-state fixed point",
        ]

    def test_fixed_point_sees_mixed_corners(self, runner, monkeypatch):
        # the normalized sum of two corners' optimizers is no fixed point
        import schurweyl.verification as verification

        optimizer = verification.optimizer_state

        def mixed(diagram, box, d):
            boxes = removable_boxes(diagram)
            other = boxes[(boxes.index(box) + 1) % len(boxes)]
            return (optimizer(diagram, box, d=d) + optimizer(diagram, other, d=d)).normalized()

        monkeypatch.setattr(verification, "optimizer_state", mixed)
        check = verify_check(runner, "3,2,1", 3, "saturating-state fixed point")
        assert check["passed"] is False

    def test_coherent_membership_sees_product_state(self, runner, monkeypatch):
        # e_0 on every factor lies in no sector of a shape with more than one row
        import schurweyl.verification as verification

        monkeypatch.setattr(
            verification, "coherent_state",
            lambda t, d: TensorState.unit(d, t.diagram.n_boxes, 0),
        )
        check = verify_check(runner, "3,2,1", 3, "coherent-state membership")
        assert check["passed"] is False
        assert check["residual"] == pytest.approx(1.0)

    @pytest.mark.slow
    def test_large_case_within_cap(self, runner):
        # d**n = 4**7 = 16384 amplitudes per vector, about 35 MiB at the peak
        result = runner.invoke(
            main,
            ["verify", "--partition", "2,2,2,1", "--d", "4", "--samples", "2"],
        )
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output


class TestMaximize:
    def test_fermions(self, runner):
        result = runner.invoke(
            main, ["maximize", "--partition", "1,1,1", "--d", "3", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["exact_bound"] == "1/3"
        assert abs(payload["best_lambda1_sq"] - 1 / 3) < 1e-6
        assert payload["gap"] < 1e-6

    def test_mixed_block_reaches_one(self, runner):
        result = runner.invoke(
            main,
            ["maximize", "--partition", "2,1", "--d", "2", "--restarts", "8",
             "--format", "json"],
        )
        payload = json.loads(result.output)
        assert payload["exact_bound"] == "1"
        assert abs(payload["best_lambda1_sq"] - 1.0) < 1e-6

    def test_square_block(self, runner):
        result = runner.invoke(
            main,
            ["maximize", "--partition", "2,2", "--d", "2", "--restarts", "4",
             "--format", "json"],
        )
        payload = json.loads(result.output)
        assert payload["exact_bound"] == "1/2"
        assert abs(payload["best_lambda1_sq"] - 0.5) < 1e-6
        assert payload["fixed_point_residual"] < 1e-7
        assert result.exit_code == 0
        assert [c["name"] for c in payload["checks"]] == [
            "ascent converged", "gap to exact bound", "fixed-point residual",
        ]
        assert payload["passed"] is True

    def test_deterministic_output(self, runner):
        args = ["maximize", "--partition", "2,1", "--d", "2", "--seed", "7",
                "--restarts", "4", "--format", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_d_below_rows_is_usage_error(self, runner):
        result = runner.invoke(main, ["maximize", "--partition", "1,1,1", "--d", "2"])
        assert result.exit_code == 2
        assert "d=2 is below the number of rows 3" in result.output
        assert not any(line.startswith("warning:") for line in result.output.splitlines())

    def test_interior_cut(self, runner):
        result = runner.invoke(
            main,
            ["maximize", "--partition", "2,2", "--d", "2", "--cut", "2",
             "--restarts", "4", "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["cut"] == 2
        assert payload["seeded_restarts"] == 0
        assert [c["name"] for c in payload["checks"]] == ["ascent converged"]
        assert payload["passed"] is True

    def test_interior_cut_text_reports_no_gap(self, runner):
        # the exact bound is the maximum only at the cut N-1: off it the text
        # names that cut and prints no gap to it
        result = runner.invoke(
            main, ["maximize", "--partition", "2,2", "--d", "2", "--cut", "2", "--restarts", "4"]
        )
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert "bound at cut 3       1/2  at box (2,2)" in lines
        assert not any(line.startswith(("gap", "exact bound")) for line in lines)
        result = runner.invoke(main, ["maximize", "--partition", "2,2", "--d", "2", "--restarts", "4"])
        lines = result.output.splitlines()
        assert "exact bound          1/2  at box (2,2)" in lines
        assert any(line.startswith("gap ") for line in lines)

    def test_one_dimensional_factors_keep_every_box(self, runner):
        # at d = 1 every N has one row; the maximizer still has a factor per box
        result = runner.invoke(
            main, ["maximize", "--partition", "3", "--d", "1", "--cut", "1", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        maximizer = json.loads(result.output)["report"]["maximizer"]
        assert (maximizer["d"], maximizer["n"]) == (1, 3)

    @pytest.mark.parametrize("op", list(BENCHMARK_MAXIMIZE_OPS))
    def test_benchmark_op_matches_record(self, runner, op):
        # every maximize op of the benchmark, run as the benchmark runs it,
        # passes with the recorded bound and, at the mid cut, maximum
        record = json.loads(EXPECTED.read_text())[op]
        result = runner.invoke(
            main, ["maximize", *BENCHMARK_MAXIMIZE_OPS[op], "--seed", "0", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["exact_bound"] == record["exact_bound"]
        if "best_lambda1_sq" in record:
            assert payload["best_lambda1_sq"] == pytest.approx(
                record["best_lambda1_sq"], rel=0, abs=1e-8
            )

    def test_unconverged_ascent_exits_one(self, runner):
        result = runner.invoke(
            main, ["maximize", "--partition", "2,1", "--max-iterations", "1"]
        )
        assert result.exit_code == 1
        assert "[FAIL] ascent converged" in result.output

    def test_maximizer_json_is_the_best_state(self, runner):
        result = runner.invoke(
            main, ["maximize", "--partition", "2,2", "--d", "2", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        maximizer = payload["report"]["maximizer"]
        d, n = maximizer["d"], maximizer["n"]
        assert (d, n) == (2, 4)
        amplitudes = np.array([complex(re, im) for re, im in maximizer["amplitudes"]])
        assert amplitudes.shape == (d**n,)
        assert abs(np.linalg.norm(amplitudes) - 1) < 1e-12
        top = np.linalg.svd(amplitudes.reshape(d ** payload["cut"], -1), compute_uv=False)[0]
        assert abs(top**2 - payload["best_lambda1_sq"]) < 1e-10

    def test_trace_holds_each_restart_objective(self, runner):
        args = ["maximize", "--partition", "2,1", "--d", "2", "--format", "json"]
        result = runner.invoke(main, [*args, "--trace"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        traces = payload["report"]["objective_traces"]
        assert len(traces) == payload["restarts"]
        for trace in traces:
            assert all(later >= earlier - 1e-12 for earlier, later in zip(trace, trace[1:]))
        best = int(payload["checks"][0]["detail"].split()[2])  # "best restart <i> after ..."
        assert traces[best][-1] == payload["best_lambda1_sq"]
        plain = runner.invoke(main, args)
        assert "objective_traces" not in json.loads(plain.output)["report"]


class TestSweep:
    def test_three_boxes(self, runner):
        result = runner.invoke(main, ["sweep", "--max-n", "3", "--format", "json"])
        payload = json.loads(result.output)
        assert len(payload["partitions"]) == 3

    def test_four_boxes(self, runner):
        result = runner.invoke(main, ["sweep", "--max-n", "4", "--format", "json"])
        payload = json.loads(result.output)
        assert len(payload["partitions"]) == 5
        fermion = [p for p in payload["partitions"] if p["partition"] == "1,1,1,1"]
        assert fermion[0]["max_bound"] == "1/4"

    def test_text_table(self, runner):
        result = runner.invoke(main, ["sweep", "--max-n", "3", "--max-d", "3"])
        assert result.exit_code == 0
        assert "1,1,1" in result.output
        assert "dim V(d=3) = 1" in result.output

    def test_bad_max_n(self, runner):
        assert runner.invoke(main, ["sweep", "--max-n", "1"]).exit_code == 2

    @pytest.mark.parametrize("max_d", [None, 4])
    @pytest.mark.parametrize("max_n", range(2, 13))
    def test_json_is_json_dumps_of_the_full_payload(self, runner, max_n, max_d):
        # the table is streamed; its bytes are those of the whole payload
        entries = []
        for diagram in partitions_of(max_n):
            value, witness = max_schmidt_bound(diagram)
            entry = {
                "partition": str(diagram),
                "n_boxes": max_n,
                "boxes": [
                    {"row": box.row, "col": box.col, "bound": str(bound_for_box(diagram, box))}
                    for box in removable_boxes(diagram)
                ],
                "max_bound": str(value),
                "witness_box": {"row": witness.row, "col": witness.col},
                "entropy_lower_bound": entropy_lower_bound(diagram),
                "dim_symmetric_group_irrep": dim_symmetric_group_irrep(diagram),
            }
            if max_d is not None:
                entry["dim_unitary_group_irrep"] = dim_unitary_group_irrep(diagram, max_d)
            entries.append(entry)
        payload = {
            "schema": "1", "command": "sweep", "max_n": max_n, "max_d": max_d,
            "partitions": entries,
        }
        args = ["sweep", "--max-n", str(max_n), "--format", "json"]
        if max_d is not None:
            args += ["--max-d", str(max_d)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.output == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("count", [0, 1, 256, 257, 513])
def test_emit_json_streams_the_items_as_json_dumps(capsys, count):
    # around the boundaries of the groups of 256 items encoded at once; the
    # items nest lists and objects, empty and not, and hold escaped newlines
    payload = {"schema": "1", "nested": {"a": [1, 2], "b": {}}, "empty": []}
    items = [
        {"i": i, "text": f"line\n{i}", "list": [i, {"x": []}, "a\nb"], "none": {}}
        if i % 3 else [i, "\n", []]
        for i in range(count)
    ]
    _emit_json(payload, "items", iter(items))
    assert capsys.readouterr().out == json.dumps({**payload, "items": items}, indent=2) + "\n"


class Discard:
    """A standard output that keeps nothing it is given."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def listing_peak(args):
    """Traced peak of one in-process command, less the interpreter's free lists.

    The command keeps nothing once it returns, but the interpreter keeps up
    to 2000 freed tuples of each small length for reuse, and a long listing
    fills those lists; a full collection empties them, so the memory it
    gives back is taken off the peak.  What the command itself keeps (a
    cache, say) is not given back and stays counted."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            main(args, standalone_mode=False)
        current, peak = tracemalloc.get_traced_memory()
        gc.collect()
        return peak - (current - tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()


def src_env():
    """The environment with this checkout's package first on the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Runs its arguments as a child and prints the child's exit code and peak
# RSS.  On Linux a child's ru_maxrss counts the RSS of the process that
# spawned it, so the command is spawned from this small process rather than
# from the test process.
CHILD_MAX_RSS = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


def child_max_rss(args):
    """Peak RSS of one ``python -m schurweyl`` process, in the platform's
    ``ru_maxrss`` unit."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_MAX_RSS, sys.executable, "-m", "schurweyl", *args],
        env=src_env(), capture_output=True, text=True, timeout=300,
    )
    code, rss = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return rss


class TestListingMemory:
    # sweep prints each entry as it is made, so its memory does not grow
    # with the number of partitions: 627 at N = 20, 5604 at N = 30 and
    # 37338 at N = 40
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_sweep_memory_stays_flat(self, fmt):
        small = listing_peak(["sweep", "--max-n", "20", "--format", fmt])
        large = listing_peak(["sweep", "--max-n", "30", "--format", fmt])
        assert large <= 1.5 * small, (small, large)

    @pytest.mark.slow
    def test_sweep_peak_rss_stays_flat(self):
        small = child_max_rss(["sweep", "--max-n", "20", "--max-d", "4", "--format", "json"])
        large = child_max_rss(["sweep", "--max-n", "40", "--max-d", "4", "--format", "json"])
        assert large < 1.5 * small, (small, large)


@pytest.mark.parametrize("args", [
    ["verify", "--partition", "3,2,1", "--d", "3", "--samples", "2"],
    ["maximize", "--partition", "2,2,1", "--d", "3", "--restarts", "2"],
], ids=["verify", "maximize"])
def test_runs_never_build_the_dense_block(runner, monkeypatch, args):
    # both commands work on the weight blocks and never scatter them
    def refuse(*args):
        raise AssertionError("dense block built")

    monkeypatch.setattr(WeightBlocks, "scatter", refuse)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


class TestMemoryEstimate:
    # a vector is 16 * d**N bytes and a block cell 8; at (2,1), d = 2 one
    # has 8 amplitudes, a sector dim V = 2 vectors, and the weights {0,0,1}
    # and {0,1,1} carry one filling each: two weight blocks of 3 rows and
    # f = 2 columns
    @pytest.mark.parametrize("args, need", [
        # maximize: the blocks, and the ascent's batch of all 33 restarts
        # (32 random and a seeded one) beside one vector, each restart
        # 16 * 3 bytes for each of the 6 gathered rows, with their records,
        # each 128 bytes and 500 objective values of 40 bytes, which
        # outweigh the build's two row maps of 6 rows and the Gram check
        # of a block
        (["maximize", "--partition", "2,1", "--d", "2"],
         8 * 3 * 2 * 2 + 16 * 8 + 33 * 16 * 3 * 6 + 33 * (128 + 40 * 500)),
        # verify: its sample checks, 13 vectors for each of the 5 samples,
        # outweigh the blocks, one row map and 16 vectors,
        # 8 * 3 * 2 * 2 + 8 * 6 + 16 * 16 * 8
        (["verify", "--partition", "2,1", "--d", "2"], 16 * 8 * 13 * 5),
        # its dense block would be 14.1 GB; its weight blocks hold
        # f * 120960 cells, f = 168, beside the ascent's 10 vectors (a
        # batch of one restart, whose arrays are smaller than the fixed-point
        # check's) and its 33 restart records
        (["maximize", "--partition", "3,3,2,1", "--d", "4"],
         8 * 168 * 120960 + 10 * 16 * 4**9 + 33 * (128 + 40 * 500)),
    ], ids=["maximize", "verify", "maximize-3321-d4"])
    def test_run_over_physical_memory_is_usage_error(self, runner, monkeypatch, args, need):
        import schurweyl.cli as cli

        monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"about {need} bytes" in result.output
        assert f"{need - 1} bytes of physical memory" in result.output

    def test_run_within_physical_memory_goes_ahead(self, runner, monkeypatch):
        import schurweyl.cli as cli

        monkeypatch.setattr(cli, "_physical_memory", lambda: 16 * 8 * 13 * 5)
        result = runner.invoke(main, ["verify", "--partition", "2,1", "--d", "2"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command, partition, d, samples, restarts", [
        ("maximize", "3,2,1", 4, None, 1),
        ("verify", "3,2,1", 4, 2, None),
        ("verify", "3,2,1", 4, 5, None),
        ("verify", "2,2,2,1", 4, 2, None),
        ("verify", "2,2,1", 5, 2, None),
        ("maximize", "4,2,1", 4, None, 1),
        ("maximize", "4,3,2", 3, None, 1),
        ("maximize", "3,2,1", 4, None, 32),
    ], ids=["maximize", "verify", "verify-samples-5", "verify-2221-d4",
            "verify-221-d5", "maximize-421-d4", "maximize-432-d3",
            "maximize-restarts-32"])
    def test_estimate_tracks_traced_peak(
        self, runner, monkeypatch, command, partition, d, samples, restarts
    ):
        # the estimate against the memory the run takes, as tracemalloc
        # sees numpy's allocations.  maximize peaks with its weight blocks
        # and the ascent's fixed-point check, or, at the default 32
        # restarts, its batch of 5 restarts of (3,2,1), d = 4.  verify
        # peaks in its block checks at (3,2,1), d = 4, with 2 samples kept
        # into them, and in its sample checks, 13 vectors per sample, in
        # the other three cases
        import schurweyl.cli as cli

        diagram = YoungDiagram.from_string(partition)
        if command == "verify":
            need = cli._memory_need(diagram, d, samples)
        else:  # the random restarts traced below
            need = cli._memory_need(diagram, d, ascent=MaximizeConfig(restarts=restarts))
        monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
        args = [command, "--partition", partition, "--d", str(d)]
        if command == "verify":
            args += ["--samples", str(samples)]
        else:
            args += ["--restarts", str(restarts)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"about {need} bytes" in result.output
        # the first default_rng of a process imports numpy.random; done
        # here, its import is not counted as the run's arrays
        import numpy.random  # noqa: F401

        tracemalloc.start()
        try:
            if command == "maximize":
                # as the CLI runs it: the blocks go to the ascent, no dense block
                max_lambda1_over_subspace(
                    block_basis(diagram, d), diagram.n_boxes - 1,
                    MaximizeConfig(restarts=restarts, seed=0),
                )
            else:
                run_verification(diagram, d, samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.8 * need <= peak <= 1.25 * need, peak / need


# Ids kept from when each case also named a SCHURWEYL_CAP value, so every
# case keeps its test name.
BAD_OPTIONS = {
    "args0-None": ["maximize", "--partition", "2,1", "--max-iterations", "0"],
    "args1-None": ["maximize", "--partition", "2,1", "--max-iterations", "-3"],
    "args2-None": ["maximize", "--partition", "2,1", "--tolerance", "nan"],
    "args3-None": ["maximize", "--partition", "2,1", "--tolerance", "inf"],
    "args4-None": ["maximize", "--partition", "2,1", "--tolerance", "0"],
    "args5-None": ["maximize", "--partition", "2,1", "--restarts", "0"],
    "args6-None": ["maximize", "--partition", "2,1", "--seed", "-1"],
    "args7-None": ["maximize", "--partition", "2,1", "--d", "0"],
    "args10-None": ["verify", "--partition", "2,1", "--samples", "0"],
    "args11-None": ["verify", "--partition", "2,1", "--samples", "-1"],
    "args12-None": ["verify", "--partition", "2,1", "--seed", "-1"],
    "args13-None": ["verify", "--partition", "2,1", "--d", "0"],
    "args16-None": ["tableaux", "--partition", "2,1", "--d", "0"],
    "args17-None": ["sweep", "--max-n", "3", "--max-d", "0"],
}


@pytest.mark.parametrize("args", list(BAD_OPTIONS.values()), ids=list(BAD_OPTIONS))
def test_bad_option_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert type(result.exception) is SystemExit
    assert "Error" in result.output


# Runs one command as ``python -m schurweyl`` would (or, given no arguments,
# a bare ``import schurweyl``) and prints, as its last line of standard
# error, the modules loaded when the process exits.
LOADED_MODULES = """
import atexit, runpy, sys

atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))
if sys.argv[1:]:
    runpy.run_module("schurweyl", run_name="__main__", alter_sys=True)
else:
    import schurweyl
"""


def loaded_modules(args):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *args],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("args, code", [
    ([], 0),
    (["--help"], 0),
    (["bound", "--partition", "3,2,1"], 0),
    (["sweep", "--max-n", "6", "--max-d", "3"], 0),
    (["tableaux", "--partition", "3,2"], 0),
    # verify's usage errors, of an option and of memory, come before numpy
    (["verify", "--partition", "2,1", "--samples", "0"], 2),
    (["verify", "--partition", "8,8,8,8,8", "--d", "8"], 2),
    # and so do maximize's checks of the cut and of d
    (["maximize", "--partition", "2,1", "--cut", "5"], 2),
    (["maximize", "--partition", "2,1", "--d", "1"], 2),
], ids=["import", "help", "bound", "sweep", "tableaux", "verify-samples-0",
        "verify-over-memory", "maximize-cut-5", "maximize-d-1"])
def test_exact_commands_never_load_numpy(args, code):
    returncode, modules = loaded_modules(args)
    assert returncode == code
    assert "schurweyl" in modules
    assert not {"numpy", "schurweyl.tensor_space"} & modules


COLUMN_1200 = ",".join(["1"] * 1200)


@pytest.mark.parametrize("args, code", [
    (["tableaux", "--partition", "1200"], 0),
    (["tableaux", "--partition", COLUMN_1200], 0),
    (["bound", "--partition", COLUMN_1200], 0),
    # d defaults to the one row, so d**N = 1 fits in memory, but numpy caps
    # the axes of an array (64 in numpy 2): maximize views a vector as N
    # axes, and verify's sample checks add one
    (["verify", "--partition", str(MAXDIMS)], 2),
    (["maximize", "--partition", str(MAXDIMS + 1)], 2),
    (["verify", "--partition", str(MAXDIMS - 1)], 0),
    (["maximize", "--partition", str(MAXDIMS)], 0),
    # each restart keeps a record: too many are over memory, not a MemoryError
    (["maximize", "--partition", "2,1", "--restarts", "99999999999"], 2),
], ids=["tableaux-row-1200", "tableaux-column-1200", "bound-column-1200",
        "verify-over-rank", "maximize-over-rank", "verify-at-rank", "maximize-at-rank",
        "maximize-huge-restarts"])
def test_boundary_inputs_keep_the_exit_contract(args, code):
    # exit 0 success, 1 only with a FAIL line, 2 usage error; never a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "schurweyl", *args],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == code, proc.stderr


# sha256 of the JSON output, recorded before the exact layer was rewritten;
# any change in these bytes breaks the byte-identity promise of the CLI.
@pytest.mark.parametrize(
    "args, digest",
    [
        (["sweep", "--max-n", "12", "--max-d", "4"],
         "d1d0593826234097052344eae070c678ed25c11a8f277c75dd847cc3c8d5c036"),
        (["sweep", "--max-n", "12"],
         "41c3b9e7a8cf065789b8004341db6181ee4740d54faf06814d0300b4a5413ce4"),
        (["tableaux", "--partition", "3,2,2,1", "--d", "4"],
         "db18ec25394e24154d28955e1730b2ea37374bee71c9bab2e34dc312db481e5e"),
        (["bound", "--partition", "10,9,8,7,6,5,4,3,2,1"],
         "482604f69505c3cbaf4132dca2fb27e07095b2ccb26f47015ae1d3a43c1810e3"),
    ],
    ids=["sweep-n12-d4", "sweep-n12", "tableaux-3221-d4", "bound-staircase-10"],
)
def test_json_output_is_byte_identical(runner, args, digest):
    result = runner.invoke(main, [*args, "--format", "json"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


PARTITIONS = ["1", "2", "1,1", "3", "2,1", "1,1,1", "4", "3,1", "2,2", "2,1,1", "1,1,1,1"]


def _maximize_args(partition, d, cut, restarts, max_iterations, tolerance):
    return [
        "maximize", "--partition", partition, f"--d={d}", f"--cut={cut}",
        f"--restarts={restarts}", f"--max-iterations={max_iterations}",
        f"--tolerance={tolerance}",
    ]


ANY_OPTIONS = st.builds(
    _maximize_args,
    st.sampled_from(PARTITIONS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-1, max_value=5),
    st.integers(min_value=1, max_value=2),
    st.sampled_from([-1, 0, 1, 5, 50]),
    st.sampled_from(["nan", "inf", "-1", "0", "1e-3", "1e-10"]),
)


@st.composite
def valid_options(draw):
    # independent draws from ANY_OPTIONS rarely pass every check at once, so
    # half the examples keep each option in its valid range and reach the ascent
    partition = draw(st.sampled_from([p for p in PARTITIONS if p not in ("1", "1,1,1,1")]))
    rows = [int(r) for r in partition.split(",")]
    return _maximize_args(
        partition,
        draw(st.integers(min_value=len(rows), max_value=3)),
        draw(st.integers(min_value=1, max_value=sum(rows) - 1)),
        draw(st.integers(min_value=1, max_value=2)),
        draw(st.sampled_from([1, 5, 50])),
        draw(st.sampled_from(["1e-3", "1e-10"])),
    )


@settings(max_examples=40, deadline=None)
@given(args=st.one_of(valid_options(), ANY_OPTIONS))
def test_maximize_exit_contract(args):
    # exit 0 success, 1 only with a FAIL line, 2 usage error; never a traceback
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or type(result.exception) is SystemExit, result.exception
    if result.exit_code == 1:
        assert "[FAIL]" in result.output
