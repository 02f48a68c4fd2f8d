"""The benchmark's tracer (``perfbench/tracer.py``) runs a CLI command with
the same output and exit code, and records the block basis and fixed-point
layers it wraps."""

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
    (["verify", "--partition", "2,1", "--d", "2", "--samples", "1"],
     {"tensor_space.block_basis", "spectral.fixed_point"}),
    (["maximize", "--partition", "2,1", "--d", "2", "--restarts", "1"],
     {"tensor_space.block_basis"}),
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
