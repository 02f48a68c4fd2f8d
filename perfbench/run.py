"""Benchmark of the ``schurweyl`` command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload exact --seed 0 --seconds 40 --trace 0

Each op is one CLI command run in a fresh child process, ``python -m
schurweyl ... --format json`` with ``src`` on ``PYTHONPATH``, so every op
pays interpreter start and package import with cold caches, as a CLI user
does.  The load is a closed loop with one client: the ops of a workload run
one after another, round robin, each starting after the previous child has
exited.  Every op runs at least once; after that an op starts only if, by
its last time, it should end within ``--seconds``.  Every op's output is
checked (see ``checks.py``); an op that exits non-zero or prints a wrong
result counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: time of one pass over the ops, the sum of each op's median
  wall time from spawn to exit;
* ``peak_rss_mib``: largest peak RSS of any op's child (``os.wait4``);
* ``setup_s``: median start time of a bare ``python -m schurweyl --help``.

Failed ops are the result's ``failed`` count out of ``attempted``.

``--trace 1`` runs each op untraced and then again under ``tracer.py`` in its
own fresh child, and reports the per-layer metrics of the traced runs (see
``PER_LAYER``; each op's median, summed over the ops) plus
``trace.overhead_ratio``, traced over untraced pass time.
No end-to-end metric comes from a traced run.

The result is the last line of standard output, one JSON object; the lines
before it name every metric with its unit, the environment, and each failed
op with its reason.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
ENVPROBE = HERE / "envprobe.py"

# A run must end within this many seconds; an op still running then is killed.
RUN_DEADLINE_S = 170.0
SETUP_STARTS = 7

STAIRCASE_60 = ",".join(str(r) for r in range(60, 0, -1))


class Op(NamedTuple):
    name: str
    argv: tuple[str, ...]
    kind: str


def workload_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one workload; ``seed`` goes to every randomized command.

    Why each workload:

    * ``exact``: almost all of the work is in ``young`` (hooks, removable
      boxes, Fraction bounds, dimensions, tableau enumeration) plus the CLI's
      JSON emission; no dense vector is allocated, so tensor-space and
      spectral changes should leave it alone.
    * ``verify``: mostly batched projector application under the deep
      sandwich tree, plus ``aligned_sector_bases`` and the stacked linear
      algebra in ``verification``; ``young`` is negligible.
    * ``maximize``: applies the projector one vector at a time inside
      ``block_basis``'s Gram-Schmidt, where ``verify`` batches, and the
      mid-cut op makes the alternating ascent most of its time.
    """
    s = str(seed)
    if workload == "exact":
        ops = [
            Op("sweep-n24-d4", ("sweep", "--max-n", "24", "--max-d", "4"), "digest"),
            Op("sweep-n26-d4", ("sweep", "--max-n", "26", "--max-d", "4"), "digest"),
            Op("tableaux-4432-d4", ("tableaux", "--partition", "4,4,3,2", "--d", "4"), "digest"),
            Op("bound-staircase-60", ("bound", "--partition", STAIRCASE_60), "digest"),
        ]
    elif workload == "verify":
        ops = [
            Op(f"verify-{p.replace(',', '')}-d{d}",
               ("verify", "--partition", p, "--d", d, "--samples", "2", "--seed", s),
               "verify")
            for p, d in (("3,2,1", "3"), ("3,2,2", "3"), ("2,2,1,1", "4"), ("2,2,1", "5"))
        ]
    elif workload == "maximize":
        ops = [
            Op("maximize-322-d3", ("maximize", "--partition", "3,2,2", "--d", "3", "--seed", s),
               "maximize"),
            Op("maximize-2211-d4", ("maximize", "--partition", "2,2,1,1", "--d", "4", "--seed", s),
               "maximize"),
            Op("maximize-211-d6-cut2",
               ("maximize", "--partition", "2,1,1", "--d", "6", "--cut", "2", "--seed", s),
               "maximize-mid-cut"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [op._replace(argv=(*op.argv, "--format", "json")) for op in ops]


WORKLOADS = ("exact", "verify", "maximize")

END_TO_END = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

PER_LAYER = {
    "young.bound.s": "s",
    "young.bound.calls": "count",
    "young.dims.s": "s",
    "young.dims.calls": "count",
    "young.partitions.s": "s",
    "young.tableaux.s": "s",
    "young.tableaux.count": "count",
    "orthogonal_form.matrix.s": "s",
    "orthogonal_form.matrix.calls": "count",
    "tensor_space.projector_build.s": "s",
    "tensor_space.projector_build.calls": "count",
    "tensor_space.projector_apply.s": "s",
    "tensor_space.projector_apply.calls": "count",
    "tensor_space.projector_apply.columns": "count",
    "tensor_space.projector_apply.s_per_column": "s/column",
    "tensor_space.block_basis.s": "s",
    "tensor_space.block_basis.self_s": "s",
    "tensor_space.block_basis.vectors": "count",
    "tensor_space.aligned_bases.s": "s",
    "tensor_space.aligned_bases.vectors": "count",
    "spectral.ascent.s": "s",
    "spectral.ascent.iterations": "count",
    "spectral.ascent.s_per_iter": "s/iter",
    "spectral.ascent.converged_ratio": "ratio",
    "spectral.schmidt.s": "s",
    "spectral.schmidt.calls": "count",
    "spectral.fixed_point.s": "s",
    "special_states.s": "s",
    "special_states.calls": "count",
    "verification.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "process.cpu_s": "s",
}


class OpResult(NamedTuple):
    wall_s: float
    peak_rss_mib: float
    cpu_s: float
    failure: str | None
    spans: list


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict[str, str], tmp: str, timeout_s: float):
    """Run ``cmd`` to completion; return (wall_s, rusage, exit code, stdout).

    The child is killed if it is still running after ``timeout_s``.
    """
    lock = threading.Lock()
    exited = False
    with tempfile.TemporaryFile(dir=tmp) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=ROOT)

        def kill() -> None:
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                exited = True
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return wall, usage, proc.returncode, out.read()


def run_op(op: Op, env, tmp: str, expected: dict, traced: bool, timeout_s: float) -> OpResult:
    base = [sys.executable, "-m", "schurweyl"]
    spans_path = os.path.join(tmp, "spans.json")
    if traced:
        base = [sys.executable, str(TRACER), spans_path]
    wall, usage, code, stdout = run_child([*base, *op.argv], env, tmp, timeout_s)
    failure = checks.check_output(op.kind, code, stdout, expected.get(op.name, {}))
    op_spans = []
    if traced:
        try:
            with open(spans_path) as fh:
                op_spans = json.load(fh)["spans"]
            os.remove(spans_path)
        except (OSError, ValueError, KeyError) as exc:
            failure = failure or f"no spans from the traced child: {exc!r}"
    return OpResult(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                    failure, op_spans)


def measure_setup(env, tmp: str, deadline: float) -> tuple[float, int]:
    """Median wall time of bare ``--help`` starts, and how many failed."""
    cmd = [sys.executable, "-m", "schurweyl", "--help"]
    times, failed = [], 0
    for i in range(SETUP_STARTS + 1):
        wall, _, code, stdout = run_child(cmd, env, tmp, max(1.0, deadline - time.perf_counter()))
        if code != 0 or b"Usage:" not in stdout:
            failed += 1
        if i:  # the first start may compile bytecode, which users pay once
            times.append(wall)
    return statistics.median(times), failed


def median_totals(results: list[OpResult]) -> dict[str, float]:
    """Per-layer totals of one op, as medians over its traced samples."""
    samples = [spans.op_layer_totals(r.spans, r.wall_s) for r in results]
    keys = set().union(*samples)
    return {k: statistics.median(s.get(k, 0) for s in samples) for k in keys}


def layer_metrics(per_op: list[dict[str, float]], traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric from the ops' per-layer totals."""
    totals: dict[str, float] = {}
    for op_totals in per_op:
        for key, value in op_totals.items():
            totals[key] = totals.get(key, 0) + value

    def ratio(num: str, den: str) -> float:
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

    totals["tensor_space.projector_apply.s_per_column"] = ratio(
        "tensor_space.projector_apply.s", "tensor_space.projector_apply.columns")
    totals["spectral.ascent.s_per_iter"] = ratio("spectral.ascent.s", "spectral.ascent.iterations")
    totals["spectral.ascent.converged_ratio"] = ratio(
        "spectral.ascent.converged", "spectral.ascent.restarts")
    totals["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
    return {name: float(totals.get(name, 0)) for name in PER_LAYER}


def summarize(ops: list[Op], untraced: dict[str, list[OpResult]],
              traced: dict[str, list[OpResult]]) -> dict[str, float]:
    """End-to-end metrics, or per-layer metrics when there are traced samples.

    The time of one pass over the ops is the sum of each op's median.
    """
    def pass_median(samples: dict[str, list[OpResult]], field: str) -> float:
        return sum(statistics.median(getattr(r, field) for r in samples[op.name]) for op in ops)

    wall = pass_median(untraced, "wall_s")
    cpu = pass_median(untraced, "cpu_s")
    if not traced:
        peak = max(r.peak_rss_mib for results in untraced.values() for r in results)
        return {"wall_s": wall, "peak_rss_mib": peak, "process.cpu_s": cpu}
    per_op = []
    for op in ops:
        per_op.append(median_totals(traced[op.name]))
        print(f"trace {op.name} " + json.dumps({k: v for k, v in sorted(per_op[-1].items()) if v}))
    return {**layer_metrics(per_op, pass_median(traced, "wall_s"), wall), "process.cpu_s": cpu}


def environment(env) -> dict:
    probe = subprocess.run([sys.executable, str(ENVPROBE)], env=env, cwd=ROOT,
                           stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    info = json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.returncode}
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    info.update({
        "blas_thread_env": {k: env.get(k, "unset") for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    })
    return info


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "schurweyl" / "__main__.py").is_file():
        print(f"error: no schurweyl package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    begin = time.perf_counter()
    deadline = begin + RUN_DEADLINE_S
    expected = checks.load_expected()
    env = child_env()
    ops = workload_ops(args.workload, args.seed)
    load_start = os.getloadavg()[0]

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        info = environment(env)
        setup_s, setup_failed = measure_setup(env, tmp, deadline)
        attempted, failed = SETUP_STARTS + 1, setup_failed
        untraced: dict[str, list[OpResult]] = {op.name: [] for op in ops}
        traced: dict[str, list[OpResult]] = {op.name: [] for op in ops} if args.trace else {}
        measure_start = time.perf_counter()
        for op in itertools.cycle(ops):
            # Once every op has a sample, start an op only if it should end
            # within --seconds, judging by its last sample.
            if all(untraced.values()):
                last = untraced[op.name][-1].wall_s + (traced[op.name][-1].wall_s if traced else 0)
                now = time.perf_counter()
                if now - measure_start + last > args.seconds or now + last > deadline:
                    break
            for samples, is_traced in ((untraced, False), (traced, True))[: 1 + args.trace]:
                result = run_op(op, env, tmp, expected, is_traced,
                                max(1.0, deadline - time.perf_counter()))
                samples[op.name].append(result)
                attempted += 1
                if result.failure:
                    failed += 1
                    print(f"FAIL {op.name}{' (traced)' if is_traced else ''}: {result.failure}")
        metrics = summarize(ops, untraced, traced)

    for op in ops:
        print(f"samples {op.name} wall_s " + " ".join(f"{r.wall_s:.3f}" for r in untraced[op.name]))
    if args.trace:
        units = PER_LAYER
    else:
        metrics["setup_s"] = setup_s
        units = END_TO_END
    info["loadavg_1m"] = {"start": load_start, "end": os.getloadavg()[0]}
    print("env " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  "
          f"elapsed {time.perf_counter() - begin:.1f} s")
    if not args.trace:
        print(f"process.cpu_s {metrics['process.cpu_s']:.4f} s (diagnostic, not a gate)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"ops_failed {failed} count (of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
