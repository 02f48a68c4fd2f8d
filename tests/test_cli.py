import json

import pytest
from click.testing import CliRunner

from schurweyl.cli import main
from schurweyl.verification import CheckResult


@pytest.fixture
def runner():
    return CliRunner()


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

    def test_cap_exceeded_is_usage_error(self, runner, monkeypatch):
        monkeypatch.setenv("SCHURWEYL_CAP", "4")
        result = runner.invoke(main, ["verify", "--partition", "2,1", "--d", "2"])
        assert result.exit_code == 2
        assert "cap" in result.output

    @pytest.mark.slow
    def test_large_case_within_cap(self, runner):
        # d**n = 4**7 = 16384 sits well under the default cap
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


@pytest.mark.parametrize(
    "args, cap",
    [
        (["maximize", "--partition", "2,1", "--max-iterations", "0"], None),
        (["maximize", "--partition", "2,1", "--max-iterations", "-3"], None),
        (["maximize", "--partition", "2,1", "--tolerance", "nan"], None),
        (["maximize", "--partition", "2,1", "--tolerance", "inf"], None),
        (["maximize", "--partition", "2,1", "--tolerance", "0"], None),
        (["maximize", "--partition", "2,1", "--restarts", "0"], None),
        (["maximize", "--partition", "2,1", "--seed", "-1"], None),
        (["maximize", "--partition", "2,1", "--d", "0"], None),
        (["maximize", "--partition", "2,1"], "abc"),
        (["maximize", "--partition", "2,1"], "0"),
        (["verify", "--partition", "2,1", "--samples", "0"], None),
        (["verify", "--partition", "2,1", "--samples", "-1"], None),
        (["verify", "--partition", "2,1", "--seed", "-1"], None),
        (["verify", "--partition", "2,1", "--d", "0"], None),
        (["verify", "--partition", "2,1"], "abc"),
        (["verify", "--partition", "2,1"], "0"),
        (["tableaux", "--partition", "2,1", "--d", "0"], None),
        (["sweep", "--max-n", "3", "--max-d", "0"], None),
    ],
)
def test_bad_option_is_usage_error(runner, monkeypatch, args, cap):
    if cap is not None:
        monkeypatch.setenv("SCHURWEYL_CAP", cap)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert type(result.exception) is SystemExit
    assert "Error" in result.output
