import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from schurweyl.cli import main
from schurweyl.orthogonal_form import IrrepMatrix, permutation_matrix
from schurweyl.spectral import MaximizeConfig, max_lambda1_over_subspace
from schurweyl.tensor_space import OperatorExpr, WeightBlocks, block_basis
from schurweyl.verification import CheckResult, run_verification
from schurweyl.young import YoungDiagram, enumerate_standard_tableaux, removable_boxes

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


def verify_check(runner, partition, d, name):
    result = runner.invoke(
        main,
        ["verify", "--partition", partition, "--d", str(d), "--samples", "2",
         "--format", "json"],
    )
    assert result.exit_code in (0, 1), result.output
    checks = json.loads(result.output)["checks"]
    return next(c for c in checks if c["name"] == name)


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
            return [CheckResult("forced failure", 1.0, 1e-10, False)]

        monkeypatch.setattr("schurweyl.cli.run_verification", fake)
        result = runner.invoke(main, ["verify", "--partition", "2,1", "--d", "2"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

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
    ], ids=["neighbour", "twice", "phased", "overlapping"])
    def test_sample_check_sees_faulty_projector(
        self, runner, monkeypatch, fault, name, intact
    ):
        # the second tableau of (2,2,1) gets a faulty projector: the first
        # tableau's, twice its own, its own followed by a diagonal phase, or
        # its own plus the first's.  That sum is still a hermitian
        # idempotent, but its range overlaps the first sector's
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
        # two dense calls per tableau for the sample checks, one per tableau
        # for the block resolution, two per corner for the saturating
        # states, and three more: the two closed forms and the coherent
        # state.  The seed and the Schmidt confinement act on weight blocks
        calls = []
        apply_raw = OperatorExpr._apply_raw

        def counted(self, arr):
            calls.append(arr.shape)
            return apply_raw(self, arr)

        monkeypatch.setattr(OperatorExpr, "_apply_raw", counted)
        diagram = YoungDiagram((3, 2, 2))
        run_verification(diagram, 3, samples=2)
        f = len(enumerate_standard_tableaux(diagram))
        assert len(calls) <= 3 * f + 2 * len(removable_boxes(diagram)) + 3

    def test_sample_calls_stay_narrow(self, monkeypatch):
        # columns of the dense calls, linear in f: per tableau the 2
        # samples, then 3 * 2 for [P_t x | U x | V] with V the running sum
        # of the visited sectors, and the block resolution's 3 combinations;
        # one state in each of the two calls per corner; the 2 samples in
        # each of the two closed forms, and the coherent state
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
        assert sum(columns) <= (2 + 3 * 2 + 3) * f + 2 * corners + 2 * 2 + 1

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
            out = permutation_matrix(diagram, sigma)
            entries = out.entries.copy()
            off = np.abs(entries) * (1 - np.eye(len(entries)))
            entries[np.unravel_index(np.argmax(off), entries.shape)] *= -1
            return IrrepMatrix(out.diagram, out.basis, entries)

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
    # a vector is 16 * d**N bytes; at (2,1), d = 2 one has 8 amplitudes,
    # a sector dim V = 2 vectors, and the weights {0,0,1} and {0,1,1} carry
    # one filling each: two weight blocks of 3 rows and f = 2 columns
    @pytest.mark.parametrize("args, need", [
        # maximize: the blocks and the ascent's 16 vectors, which outweigh
        # the build's two row maps of 6 rows and the Gram check of a block
        (["maximize", "--partition", "2,1", "--d", "2"], 16 * 3 * 2 * 2 + 16 * 16 * 8),
        # verify: its sample checks, 13 vectors for each of the 5 samples,
        # outweigh the blocks, 5 row maps and 16 vectors,
        # 16 * 3 * 2 * 2 + 8 * 6 * 5 + 16 * 16 * 8
        (["verify", "--partition", "2,1", "--d", "2"], 16 * 8 * 13 * 5),
        # its dense block would be 14.1 GB; its weight blocks hold
        # f * 120960 amplitudes, f = 168, beside the ascent's 16 vectors
        (["maximize", "--partition", "3,3,2,1", "--d", "4"],
         16 * 168 * 120960 + 16 * 16 * 4**9),
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

    @pytest.mark.parametrize("command, partition, d", [
        ("maximize", "3,2,1", 4),
        ("verify", "3,2,1", 4),
        ("verify", "2,2,2,1", 4),
        ("verify", "2,2,1", 5),
        ("maximize", "4,2,1", 4),
        ("maximize", "4,3,2", 3),
    ], ids=["maximize", "verify", "verify-2221-d4", "verify-221-d5",
            "maximize-421-d4", "maximize-432-d3"])
    def test_estimate_tracks_traced_peak(self, runner, monkeypatch, command, partition, d):
        # the estimate against the memory the run takes, as tracemalloc
        # sees numpy's allocations.  maximize peaks with its weight blocks
        # and the ascent's vectors, or at (4,3,2), d = 3 (f = 168, dim V =
        # 8) with the Gram check of the widest block.  verify peaks in its
        # block checks at (3,2,1), d = 4, and in its sample checks, 13
        # vectors per sample, in the other two cases
        import schurweyl.cli as cli

        diagram = YoungDiagram.from_string(partition)
        need = cli._memory_need(diagram, d, 2 if command == "verify" else None)
        monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
        args = [command, "--partition", partition, "--d", str(d)]
        if command == "verify":
            args += ["--samples", "2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"about {need} bytes" in result.output
        tracemalloc.start()
        try:
            if command == "maximize":
                # as the CLI runs it: the blocks go to the ascent, no dense block
                max_lambda1_over_subspace(
                    block_basis(diagram, d), diagram.n_boxes - 1,
                    MaximizeConfig(restarts=1, seed=0),
                )
            else:
                run_verification(diagram, d, samples=2)
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
