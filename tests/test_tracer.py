"""The benchmark's tracer (``perfbench/tracer.py``) runs a CLI command with
the same output and exit code, and records the block basis and fixed-point
layers it wraps."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def run_cli(args, spans_path=None):
    # as the benchmark runs an op: the package from src/, plain or traced
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    base = [sys.executable, "-m", "schurweyl"]
    if spans_path is not None:
        base = [sys.executable, str(TRACER), str(spans_path)]
    return subprocess.run([*base, *args], env=env, cwd=ROOT, capture_output=True, timeout=120)


@pytest.mark.parametrize("args, layers", [
    # verification, spectral.ascent, spectral.schmidt and special_states
    # come from the names cli binds on first use, which the tracer rebinds
    (["verify", "--partition", "2,1", "--d", "2", "--samples", "1"],
     {"tensor_space.block_basis", "spectral.fixed_point", "verification"}),
    (["maximize", "--partition", "2,1", "--d", "2", "--restarts", "1"],
     {"tensor_space.block_basis", "spectral.ascent", "spectral.schmidt",
      "special_states"}),
], ids=["verify", "maximize"])
def test_traced_run_matches_plain_run(tmp_path, args, layers):
    plain = run_cli(args)
    traced = run_cli(args, tmp_path / "spans.json")
    assert plain.returncode == traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert layers <= {layer for layer, *_ in spans}
    # f * dim V = 2 * 2 vectors of the (2,1) block at d = 2
    counts = [c for layer, _, _, _, c in spans if layer == "tensor_space.block_basis"]
    assert counts == [{"vectors": 4}]


def test_ascent_span_counts_match_the_report(tmp_path):
    # the tracer reads restarts, iterations and converged off the report
    args = ["maximize", "--partition", "2,1", "--d", "2", "--restarts", "3", "--format", "json"]
    traced = run_cli(args, tmp_path / "spans.json")
    assert traced.returncode == 0, traced.stderr.decode()
    payload = json.loads(traced.stdout)
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    counts = [c for layer, _, _, _, c in spans if layer == "spectral.ascent"]
    assert counts == [{
        "iterations": sum(payload["iterations"]),
        "converged": sum(payload["converged"]),
        "restarts": payload["restarts"],
    }]


def test_every_traced_name_resolves_in_its_home_module():
    # a traced name the package no longer has is skipped, and its layer
    # silently reads 0; aligned_sector_bases is the one known such name
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{home}.{name}"
        for home, names in tracer.BOUNDARIES.items()
        for name in names
        if name != "aligned_sector_bases"
        and not callable(getattr(importlib.import_module(f"schurweyl.{home}"), name, None))
    ]
    assert missing == []
