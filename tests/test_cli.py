import hashlib
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

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


class TestMemoryEstimate:
    # dense bytes: 16 * d**N per vector; the (2,1) block at d = 2 has
    # f * dim V = 2 * 2 columns of 8 amplitudes
    @pytest.mark.parametrize("args, need", [
        (["maximize", "--partition", "2,1", "--d", "2"], 16 * 8 * 4),
        # verify: the block three times plus 2 tableaux x 5 sample projections
        (["verify", "--partition", "2,1", "--d", "2"], 3 * 16 * 8 * 4 + 16 * 8 * 2 * 5),
        # below the cap (4**9 <= 2**20), but its block alone is 14.1 GB
        (["maximize", "--partition", "3,3,2,1", "--d", "4"], 16 * 4**9 * 3360),
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

        monkeypatch.setattr(cli, "_physical_memory", lambda: 3 * 16 * 8 * 4 + 16 * 8 * 2 * 5)
        result = runner.invoke(main, ["verify", "--partition", "2,1", "--d", "2"])
        assert result.exit_code == 0, result.output


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
