"""Tests of the benchmark's own logic: output checks, span arithmetic and the
tracer.  Run with ``python -m pytest perfbench``; the repository's test
suite does not collect them."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import checks
import run
import spans

EXPECTED = checks.load_expected()


def _verify_payload() -> dict:
    names = EXPECTED["verify-322-d3"]["checks"]
    return {
        "schema": "1",
        "command": "verify",
        "checks": [
            {"name": n, "residual": 0.0, "tolerance": 1e-10, "passed": True, "detail": ""}
            for n in names
        ],
        "passed": True,
    }


def _maximize_payload(name: str) -> dict:
    exp = EXPECTED[name]
    return {
        "schema": "1",
        "command": "maximize",
        "exact_bound": exp["exact_bound"],
        "best_lambda1_sq": exp.get("best_lambda1_sq", 0.5),
        "gap": 1e-12,
        "fixed_point_residual": 1e-12,
    }


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, indent=2).encode() + b"\n"


def _output(kind: str, name: str) -> bytes:
    if kind == "digest":
        return _encode({"schema": "1", "command": "sweep", "partitions": []})
    return _encode(_verify_payload() if kind == "verify" else _maximize_payload(name))


OUTPUT_KINDS = [
    ("digest", "sweep-n24-d4"),
    ("verify", "verify-322-d3"),
    ("maximize", "maximize-322-d3"),
    ("maximize-mid-cut", "maximize-211-d6-cut2"),
]


def test_every_op_has_a_recorded_expectation():
    for workload in run.WORKLOADS:
        for op in run.workload_ops(workload, 0):
            assert op.kind in checks.KINDS
            assert op.name in EXPECTED, op.name


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_randomized_ops_take_the_workload_seed():
    for workload in ("verify", "maximize"):
        for op in run.workload_ops(workload, 17):
            i = op.argv.index("--seed")
            assert op.argv[i + 1] == "17"


def test_correct_outputs_pass():
    assert checks.check_output("verify", 0, _encode(_verify_payload()),
                               EXPECTED["verify-322-d3"]) is None
    for name, kind in (("maximize-322-d3", "maximize"),
                       ("maximize-211-d6-cut2", "maximize-mid-cut")):
        assert checks.check_output(kind, 0, _encode(_maximize_payload(name)),
                                   EXPECTED[name]) is None


def test_altered_bound_string_fails():
    for name, kind in (("maximize-2211-d4", "maximize"),
                       ("maximize-211-d6-cut2", "maximize-mid-cut")):
        payload = _maximize_payload(name)
        payload["exact_bound"] = "2/3"
        assert checks.check_output(kind, 0, _encode(payload), EXPECTED[name])


def test_altered_digest_output_fails():
    out = _output("digest", "bound-staircase-60")
    assert checks.check_output("digest", 0, out, EXPECTED["bound-staircase-60"])


def test_failed_verify_check_fails():
    payload = _verify_payload()
    payload["checks"][3]["passed"] = False
    assert checks.check_output("verify", 0, _encode(payload), EXPECTED["verify-322-d3"])
    payload["checks"][3]["passed"] = True
    payload["passed"] = False
    assert checks.check_output("verify", 0, _encode(payload), EXPECTED["verify-322-d3"])


def test_changed_verify_check_list_fails():
    payload = _verify_payload()
    del payload["checks"][-1]
    assert checks.check_output("verify", 0, _encode(payload), EXPECTED["verify-322-d3"])


def test_maximize_tolerances():
    name = "maximize-322-d3"
    for key, bad in (("gap", 1e-6), ("fixed_point_residual", 1e-5), ("gap", float("nan"))):
        payload = _maximize_payload(name)
        payload[key] = bad
        assert checks.check_output("maximize", 0, _encode(payload), EXPECTED[name])


def test_mid_cut_value_checks():
    name = "maximize-211-d6-cut2"
    for bad in (1.5, -0.1, EXPECTED[name]["best_lambda1_sq"] + 1e-6):
        payload = _maximize_payload(name)
        payload["best_lambda1_sq"] = bad
        assert checks.check_output("maximize-mid-cut", 0, _encode(payload), EXPECTED[name])


@pytest.mark.parametrize("kind,name", OUTPUT_KINDS)
def test_exit_code_one_fails(kind, name):
    assert checks.check_output(kind, 1, _output(kind, name), EXPECTED[name]) == "exit code 1"


@pytest.mark.parametrize("kind,name", OUTPUT_KINDS)
def test_truncated_json_fails(kind, name):
    out = _output(kind, name)
    assert checks.check_output(kind, 0, out[: len(out) // 2], EXPECTED[name])


def test_payload_missing_a_field_fails():
    payload = _maximize_payload("maximize-322-d3")
    del payload["gap"]
    assert checks.check_output("maximize", 0, _encode(payload), EXPECTED["maximize-322-d3"])


def test_covered_merges_overlaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == pytest.approx(3.0)


# root A [0, 10] with children B [1, 4] and C [5, 9]; B has child D [2, 3];
# C has children E [5, 6] and F [7, 8]; G [11, 12] is a second root.
SYNTHETIC = [
    ("verification", 0.0, 10.0, None, None),
    ("tensor_space.block_basis", 1.0, 4.0, 0, {"vectors": 3}),
    ("tensor_space.projector_apply", 2.0, 3.0, 1, {"columns": 2}),
    ("tensor_space.block_basis", 5.0, 9.0, 0, {"vectors": 4}),
    ("tensor_space.projector_apply", 5.0, 6.0, 3, {"columns": 1}),
    ("young.bound", 7.0, 8.0, 3, None),
    ("young.bound", 11.0, 12.0, None, None),
]


def test_self_times_on_synthetic_tree():
    assert spans.self_times(SYNTHETIC) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.0, 1.0])


def test_op_layer_totals_on_synthetic_tree():
    totals = spans.op_layer_totals(SYNTHETIC, op_wall_s=15.0)
    assert totals["verification.s"] == pytest.approx(10.0)
    assert totals["verification.self_s"] == pytest.approx(3.0)
    assert totals["tensor_space.block_basis.s"] == pytest.approx(7.0)
    assert totals["tensor_space.block_basis.self_s"] == pytest.approx(4.0)
    assert totals["tensor_space.block_basis.calls"] == 2
    assert totals["tensor_space.block_basis.vectors"] == 7
    assert totals["tensor_space.projector_apply.s"] == pytest.approx(2.0)
    assert totals["tensor_space.projector_apply.columns"] == 3
    assert totals["young.bound.calls"] == 2
    assert totals["cli.self_s"] == pytest.approx(15.0 - 11.0)


def test_nested_spans_of_one_layer_count_once():
    nested = [
        ("young.bound", 0.0, 4.0, None, None),
        ("spectral.schmidt", 1.0, 3.0, 0, None),
        ("young.bound", 1.5, 2.5, 1, None),
    ]
    totals = spans.op_layer_totals(nested, op_wall_s=5.0)
    assert totals["young.bound.s"] == pytest.approx(4.0)
    assert totals["young.bound.calls"] == 1


def _cli(args, tmp_path, traced):
    env = run.child_env()
    out = tmp_path / "spans.json"
    base = [sys.executable, str(run.TRACER), str(out)] if traced else \
        [sys.executable, "-m", "schurweyl"]
    proc = subprocess.run([*base, *args], env=env, cwd=run.ROOT, capture_output=True,
                          timeout=120)
    return proc, (json.loads(out.read_text())["spans"] if traced else None)


needs_package = pytest.mark.skipif(
    not (run.SRC / "schurweyl").is_dir(), reason="needs the schurweyl sources")


@needs_package
def test_tracer_keeps_output_and_exit_code(tmp_path):
    args = ["bound", "--partition", "3,2,1", "--format", "json"]
    plain, _ = _cli(args, tmp_path, traced=False)
    traced, recorded = _cli(args, tmp_path, traced=True)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    layers = {s[0] for s in recorded}
    assert "young.bound" in layers
    bad, _ = _cli(["bound", "--partition", "x"], tmp_path, traced=True)
    assert bad.returncode == 2


@needs_package
def test_tracer_records_outermost_projector_applications(tmp_path):
    args = ["verify", "--partition", "2,1", "--d", "2", "--samples", "1", "--format", "json"]
    proc, recorded = _cli(args, tmp_path, traced=True)
    assert proc.returncode == 0
    applies = [s for s in recorded if s[0] == "tensor_space.projector_apply"]
    assert applies
    for layer, start, end, parent, counts in applies:
        assert counts["columns"] >= 1
        while parent is not None:
            assert recorded[parent][0] != "tensor_space.projector_apply"
            parent = recorded[parent][3]
    totals = spans.op_layer_totals(recorded, op_wall_s=10.0)
    assert totals["verification.calls"] == 1
    assert totals["tensor_space.aligned_bases.vectors"] > 0
    assert 0 < totals["verification.self_s"] < totals["verification.s"]


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "exact", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
