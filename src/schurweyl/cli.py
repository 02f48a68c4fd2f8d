"""Command-line front end: bound tables, tableau listings, verification
sweeps and variational maximization runs.

Exit codes: 0 success, 1 a failed check (verify or maximize), 2 usage error.
All rationals print as p/q; JSON output carries a top-level schema tag and is
byte-identical for fixed flags and seed.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
from collections import Counter
from dataclasses import asdict
from typing import Iterable, Iterator

import click

from .young import (
    YoungDiagram,
    bound_for_box,
    dim_symmetric_group_irrep,
    dim_unitary_group_irrep,
    entropy_from_bound,
    enumerate_semistandard_tableaux,
    iter_partitions,
    iter_standard_tableaux,
    max_schmidt_bound,
    removable_boxes,
)

SCHEMA = "1"

# The numerical names verify and maximize use.  They load on first use from
# their home modules in the package's table, and numpy with them, so the
# exact commands never load numpy; the order is the package's own import
# order (tensor_space first).  They stay attributes of this module: a name
# rebound here from outside is the object the commands call.
_NUMERICAL = (
    "block_basis", "MaximizeConfig", "max_lambda1_over_subspace", "schmidt_decompose",
    "optimizer_state", "CheckResult", "run_verification",
)


def __getattr__(name: str):
    if name not in _NUMERICAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _HOME
    value = getattr(importlib.import_module(f".{_HOME[name]}", __package__), name)
    globals()[name] = value
    return value


def _load_numerical() -> None:
    """Bind every numerical name as a global of this module, keeping any
    that is already bound."""
    for name in _NUMERICAL:
        if name not in globals():
            __getattr__(name)


def _parse_partition(text: str) -> YoungDiagram:
    try:
        return YoungDiagram.from_string(text)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _require_boxes(diagram: YoungDiagram, minimum: int) -> None:
    if diagram.n_boxes < minimum:
        raise click.UsageError(
            f"partition must have at least {minimum} boxes, got {diagram.n_boxes}"
        )


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # not known on this platform
        return math.inf


def _memory_need(
    diagram: YoungDiagram, d: int, samples: int | None = None,
    ascent: MaximizeConfig | None = None,
) -> int:
    """Bytes the run holds at its peak, in exact integers.  A vector is
    ``16 * d**N`` bytes; a weight of K semistandard fillings is a real block
    of h rows (its multinomial coefficient) and w = f * K columns, 8 bytes a
    cell; a row map takes 8 bytes per block row.  Beside the blocks,
    maximize holds its N-1 row maps and a Gram check of two ``(w, w)``
    arrays, or its ascent: 10 vectors for the fixed-point check, or one
    vector beside the batch if that is more.  The batch holds as many
    restarts as ``spectral`` fits in its fixed budget, each at most
    ``16 * max(3 * rows, rows + d**N)`` bytes over the gathered rows: its
    two gathered factors and their product, or its projection and dense
    state.  verify holds its row maps of one call beside its cross-check (a
    permuted stack, four ``(w, w)`` arrays per block) or 16 vectors (its
    saturating states) or the samples x and V kept for its block
    resolution.  verify may peak in its sample checks: 13 vectors a sample,
    x, P_t x, U x, V and a call on the last three with two buffers.  Beside
    its arrays, the ascent of ``ascent`` keeps a record of each restart, the
    seeded one included: 128 bytes of counts and up to max_iterations
    objective values of 40 bytes (a float and its places in the report and
    the JSON)."""
    n = diagram.n_boxes
    f = dim_symmetric_group_irrep(diagram)
    vector = 16 * d**n
    kostka = Counter(  # weight -> fillings
        tuple(sorted(x for row in filling for x in row))
        for filling in enumerate_semistandard_tableaux(diagram, d)
    )
    shapes = Counter(  # (h, w) of a block -> blocks of that shape
        (math.factorial(n) // math.prod(map(math.factorial, Counter(weight).values())), f * k)
        for weight, k in kostka.items()
    )
    blocks = sum(8 * h * w * k for (h, w), k in shapes.items())
    rows = sum(h * k for (h, _), k in shapes.items())
    if samples is None:
        gram = max((16 * w * w for _, w in shapes), default=0)
        ascent_bytes = 10 * vector
        if ascent is not None:
            from .spectral import _batch_width

            starts = ascent.restarts + 1
            column = 16 * max(3 * rows, rows + d**n)
            ascent_bytes = max(ascent_bytes, vector + _batch_width(starts, d, n) * column)
            ascent_bytes += starts * (128 + 40 * ascent.max_iterations)
        return blocks + max(8 * rows * (n - 1) + gram, ascent_bytes)
    maps = 8 * rows * max(1, (n - 1) * (n - 2) // 2)
    cross = max((8 * k * w * (h + 4 * w) for (h, w), k in shapes.items()), default=0)
    vectors = max(16, 2 * samples) * vector
    return max(13 * samples * vector, blocks + maps + max(cross, vectors))


def _check_memory(
    diagram: YoungDiagram, d: int, samples: int | None = None,
    ascent: MaximizeConfig | None = None,
) -> None:
    """Usage error, before any array exists, unless the run fits in physical
    memory, then in numpy's array rank; fillings are listed only once one
    amplitude per column fits."""
    memory = _physical_memory()
    need = 16 * dim_symmetric_group_irrep(diagram) * dim_unitary_group_irrep(diagram, d)
    if need <= memory:
        need = _memory_need(diagram, d, samples, ascent)
    if need > memory:
        raise click.UsageError(
            f"this run needs about {need} bytes, more than the "
            f"{memory} bytes of physical memory"
        )
    import numpy as np

    # a vector is viewed as (d,)*N axes, and verify's sample checks add one
    axes = diagram.n_boxes + (samples is not None)
    try:
        np.empty((1,) * axes)
    except ValueError as exc:  # over the installed numpy's limit
        raise click.UsageError(f"this run views a vector as {axes} array axes: {exc}") from exc


def _emit_json(payload: dict, key: str | None = None, items: Iterable = ()) -> None:
    # The bytes equal json.dumps(payload, indent=2) or, when key is given,
    # json.dumps({**payload, key: list(items)}, indent=2), and neither the
    # whole text nor the item list is ever held.  A payload is printed in
    # batches of encoder chunks.  Items are encoded 256 at a time, each group
    # as one list (one encode call per item measured slower), cut to its
    # elements and shifted one level in; a JSON string never holds a raw
    # newline, so every newline in the text is indentation.
    encoder = json.JSONEncoder(indent=2)
    if key is None:
        chunks = encoder.iterencode(payload)
        while batch := "".join(itertools.islice(chunks, 4096)):
            click.echo(batch, nl=False)
        click.echo()
        return
    head = encoder.encode({**payload, key: []})  # ends in '[]\n}'
    items = iter(items)
    groups = iter(lambda: encoder.encode(list(itertools.islice(items, 256))), "[]")
    opened = False
    for text in groups:
        elements = text[1:-2].replace("\n", "\n  ")
        click.echo(("," if opened else head[:-4] + "[") + elements, nl=False)
        opened = True
    click.echo("\n  ]\n}" if opened else head)


def _report_checks(payload: dict, checks: list[CheckResult], fmt: str,
                   header: Iterable[str]) -> None:
    """Close a checking command: append the checks and their verdict to the
    payload, print it as JSON or else the header lines and the check table,
    and exit 1 when a check failed."""
    payload.update(checks=[asdict(r) for r in checks], passed=all(r.passed for r in checks))
    if fmt == "json":
        _emit_json(payload)
    else:
        click.echo("\n".join(header))
        for r in checks:
            mark = "pass" if r.passed else "FAIL"
            detail = f"  ({r.detail})" if r.detail else ""
            click.echo(
                f"  [{mark}] {r.name:34s} residual {r.residual:.3e}  "
                f"tol {r.tolerance:.0e}{detail}"
            )
        click.echo(f"{sum(r.passed for r in checks)}/{len(checks)} checks passed")
    if not payload["passed"]:
        click.get_current_context().exit(1)


def _bound_payload(diagram: YoungDiagram) -> dict:
    bounds = [(box, bound_for_box(diagram, box)) for box in removable_boxes(diagram)]
    # max keeps the first of equal values, so the witness is the corner with
    # the smallest column, as in max_schmidt_bound.
    witness, value = max(bounds, key=lambda entry: entry[1])
    return {
        "partition": str(diagram),
        "n_boxes": diagram.n_boxes,
        "boxes": [
            {"row": box.row, "col": box.col, "bound": str(bound)} for box, bound in bounds
        ],
        "max_bound": str(value),
        "witness_box": {"row": witness.row, "col": witness.col},
        "entropy_lower_bound": entropy_from_bound(value),
    }


def _tableau_entries(diagram: YoungDiagram) -> Iterator[dict]:
    for t in iter_standard_tableaux(diagram):
        flags = []
        if t.is_row_ordered():
            flags.append("row-ordered")
        if t.is_column_ordered():
            flags.append("column-ordered")
        yield {"tableau": str(t), "flags": flags}


def _sweep_entries(max_n: int, max_d: int | None) -> Iterator[dict]:
    for diagram in iter_partitions(max_n):
        entry = _bound_payload(diagram)
        entry["dim_symmetric_group_irrep"] = dim_symmetric_group_irrep(diagram)
        if max_d is not None:
            entry["dim_unitary_group_irrep"] = dim_unitary_group_irrep(diagram, max_d)
        yield entry


@click.group()
def main() -> None:
    """Exact entanglement bounds for Young-diagram subspaces, with numerical
    projector machinery to verify them."""


@main.command()
@click.option("--partition", required=True, help="Comma-separated row lengths, e.g. 3,2,1.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def bound(partition: str, fmt: str) -> None:
    """Exact hook-length bound for one partition."""
    diagram = _parse_partition(partition)
    _require_boxes(diagram, 2)
    payload = {"schema": SCHEMA, "command": "bound", **_bound_payload(diagram)}
    if fmt == "json":
        _emit_json(payload)
        return
    click.echo(f"partition {diagram}  (N = {diagram.n_boxes})")
    for entry in payload["boxes"]:
        click.echo(f"  box ({entry['row']},{entry['col']}): {entry['bound']}")
    w = payload["witness_box"]
    click.echo(f"max bound {payload['max_bound']} at box ({w['row']},{w['col']})")
    click.echo(f"entropy lower bound {payload['entropy_lower_bound']:.12g}")


@main.command()
@click.option("--partition", required=True, help="Comma-separated row lengths.")
@click.option("--d", "d", type=click.IntRange(min=1), default=None,
              help="Local dimension for the unitary-group dimension [default: number of rows].")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def tableaux(partition: str, d: int | None, fmt: str) -> None:
    """List the standard tableaux of a partition in canonical order."""
    diagram = _parse_partition(partition)
    _require_boxes(diagram, 1)
    d = diagram.n_rows if d is None else d
    payload = {
        "schema": SCHEMA,
        "command": "tableaux",
        "partition": str(diagram),
        "d": d,
        "dim_symmetric_group_irrep": dim_symmetric_group_irrep(diagram),
        "dim_unitary_group_irrep": dim_unitary_group_irrep(diagram, d),
    }
    listing = _tableau_entries(diagram)
    if fmt == "json":
        _emit_json(payload, "tableaux", listing)
        return
    click.echo(
        f"partition {diagram}: {payload['dim_symmetric_group_irrep']} standard tableaux, "
        f"dim S = {payload['dim_symmetric_group_irrep']}, "
        f"dim V(d={d}) = {payload['dim_unitary_group_irrep']}"
    )
    for i, entry in enumerate(listing, start=1):
        suffix = ("   " + ", ".join(entry["flags"])) if entry["flags"] else ""
        click.echo(f"  {i}: {entry['tableau']}{suffix}")


@main.command()
@click.option("--partition", required=True, help="Comma-separated row lengths.")
@click.option("--d", "d", type=click.IntRange(min=1), default=None,
              help="Local dimension [default: number of rows].")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=5, show_default=True,
              help="Random states per check.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def verify(partition: str, d: int | None, seed: int, samples: int, fmt: str) -> None:
    """Run the full cross-check suite for one partition; exit 1 on failure."""
    diagram = _parse_partition(partition)
    _require_boxes(diagram, 1)
    d = diagram.n_rows if d is None else d
    _check_memory(diagram, d, samples)
    _load_numerical()
    results = run_verification(diagram, d, seed=seed, samples=samples)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "partition": str(diagram),
        "d": d,
        "seed": seed,
    }
    _report_checks(payload, results, fmt, [f"verify {diagram}  d={d}  seed={seed}"])


@main.command()
@click.option("--partition", required=True, help="Comma-separated row lengths.")
@click.option("--d", "d", type=click.IntRange(min=1), default=None,
              help="Local dimension [default: number of rows].")
@click.option("--cut", type=int, default=None,
              help="Cut position k, splitting factors 1..k from the rest [default: N-1].")
@click.option("--restarts", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--max-iterations", type=int, default=500, show_default=True)
@click.option("--tolerance", type=float, default=1e-10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--trace/--no-trace", "trace", default=False,
              help="Include objective traces in JSON output.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def maximize(partition: str, d: int | None, cut: int | None, restarts: int,
             max_iterations: int, tolerance: float, seed: int, trace: bool,
             fmt: str) -> None:
    """Numerically maximize the leading squared Schmidt coefficient over a block;
    exit 1 when a check fails."""
    diagram = _parse_partition(partition)
    _require_boxes(diagram, 2)
    n = diagram.n_boxes
    d = diagram.n_rows if d is None else d
    cut = n - 1 if cut is None else cut
    if not 1 <= cut <= n - 1:
        raise click.UsageError(f"cut must lie in 1..{n - 1}")
    if d < diagram.n_rows:
        raise click.UsageError(
            f"d={d} is below the number of rows {diagram.n_rows}; the block is empty"
        )
    _load_numerical()  # MaximizeConfig checks the ascent options
    try:
        config = MaximizeConfig(
            restarts=restarts, max_iterations=max_iterations, tol=tolerance, seed=seed,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _check_memory(diagram, d, ascent=config)
    exact, witness = max_schmidt_bound(diagram)

    pairs = []
    if cut == n - 1:
        seed_state = optimizer_state(diagram, witness, d=d)
        sr = schmidt_decompose(seed_state, cut)
        pairs.append((sr.left[:, 0], sr.right[0]))
    report = max_lambda1_over_subspace(block_basis(diagram, d), cut, config, initial_pairs=pairs)
    residual = report.fixed_point_residual
    gap = abs(float(exact) - report.best_lambda1_sq)
    best = report.best_restart
    checks = [
        CheckResult(
            "ascent converged",
            0.0 if report.converged[best] else 1.0,
            0.5,
            f"best restart {best} after {report.iterations[best]} iterations",
        )
    ]
    if cut == n - 1:
        # The exact bound holds only at the cut that splits off one factor.
        # Off it the ascent stops on a flat objective with a fixed-point
        # residual far above verify's tolerance, so neither is gated there.
        checks.append(CheckResult("gap to exact bound", gap, 1e-8))
        checks.append(CheckResult("fixed-point residual", residual, 1e-7))
    amplitudes = [[float(a.real), float(a.imag)] for a in report.maximizer.amplitudes]
    report_json = {
        "best_lambda1_sq": report.best_lambda1_sq,
        "restarts": report.restarts,
        "iterations": list(report.iterations),
        "converged": list(report.converged),
        "cut": cut,
        "analytic_bound": str(exact),
        "seed": seed,
        "maximizer": {"d": d, "n": n, "amplitudes": amplitudes},
    }
    if trace:
        report_json["objective_traces"] = [list(tr) for tr in report.objective_traces]
    payload = {
        "schema": SCHEMA,
        "command": "maximize",
        "partition": str(diagram),
        "d": d,
        "cut": cut,
        "seed": seed,
        "restarts": report.restarts,
        "seeded_restarts": len(pairs),
        "exact_bound": str(exact),
        "witness_box": {"row": witness.row, "col": witness.col},
        "best_lambda1_sq": report.best_lambda1_sq,
        "gap": gap,
        "fixed_point_residual": residual,
        "iterations": list(report.iterations),
        "converged": list(report.converged),
        "report": report_json,
    }
    # The exact bound is the maximum only at the cut N-1; off it the text
    # names that cut and shows no gap.
    label = "exact bound" if cut == n - 1 else f"bound at cut {n - 1}"
    header = [
        f"partition {diagram}  d={d}  cut={cut}  seed={seed}",
        f"{label:20s} {exact}  at box ({witness.row},{witness.col})",
        f"numeric max          {report.best_lambda1_sq:.12f}",
        *([f"gap                  {gap:.3e}"] if cut == n - 1 else []),
        f"fixed-point residual {residual:.3e}",
        f"restarts {report.restarts} ({len(pairs)} seeded), "
        f"converged {sum(report.converged)}/{report.restarts}",
    ]
    _report_checks(payload, checks, fmt, header)


@main.command()
@click.option("--max-n", type=click.IntRange(min=2), required=True,
              help="Number of boxes; every partition of this size is tabulated.")
@click.option("--max-d", type=click.IntRange(min=1), default=None,
              help="Also tabulate the unitary-group dimension at this d.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def sweep(max_n: int, max_d: int | None, fmt: str) -> None:
    """Bound table over all partitions of max-n boxes."""
    payload = {
        "schema": SCHEMA,
        "command": "sweep",
        "max_n": max_n,
        "max_d": max_d,
    }
    rows = _sweep_entries(max_n, max_d)
    if fmt == "json":
        _emit_json(payload, "partitions", rows)
        return
    click.echo(f"partitions of {max_n}:")
    for entry in rows:
        w = entry["witness_box"]
        boxes = ", ".join(
            f"({b['row']},{b['col']})={b['bound']}" for b in entry["boxes"]
        )
        dims = f"dim S = {entry['dim_symmetric_group_irrep']}"
        if max_d is not None:
            dims += f", dim V(d={max_d}) = {entry['dim_unitary_group_irrep']}"
        click.echo(
            f"  {entry['partition']:12s} max {entry['max_bound']:>6s} at "
            f"({w['row']},{w['col']})  entropy >= {entry['entropy_lower_bound']:.6f}  "
            f"[{boxes}]  {dims}"
        )
