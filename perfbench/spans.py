"""Span arithmetic for the traced benchmark run.

A span is ``(layer, start, end, parent, counts)``: the layer name, start and
end times in seconds from one clock, the index of the enclosing span in the
same list (``None`` for a span opened outside any other) and a dict of counts
recorded when the call returned (``None`` when there are none).
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Layers whose self time is reported, beside the total time of every layer.
SELF_TIME_LAYERS = ("tensor_space.block_basis", "verification")


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - covered(
            (max(cs, start), min(ce, end)) for cs, ce in children[i] if ce > start and cs < end
        )
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def _outermost(spans: Sequence[tuple]) -> list[int]:
    """Indices of spans with no enclosing span of the same layer."""
    out = []
    for i, (layer, _, _, parent, _) in enumerate(spans):
        while parent is not None and spans[parent][0] != layer:
            parent = spans[parent][3]
        if parent is None:
            out.append(i)
    return out


def op_layer_totals(spans: Sequence[tuple], op_wall_s: float) -> dict[str, float]:
    """Per-layer sums for one traced op.

    Keys are ``<layer>.s`` (time in the layer's outermost spans),
    ``<layer>.calls`` (number of those spans), ``<layer>.<count>`` for every
    count the spans carry, ``<layer>.self_s`` for the layers in
    :data:`SELF_TIME_LAYERS`, and ``cli.self_s``: the op's wall time minus
    the time covered by spans opened outside any other span.
    """
    totals: dict[str, float] = {}
    selfs = self_times(spans)
    for i in _outermost(spans):
        layer, start, end, _, counts = spans[i]
        totals[f"{layer}.s"] = totals.get(f"{layer}.s", 0.0) + (end - start)
        totals[f"{layer}.calls"] = totals.get(f"{layer}.calls", 0) + 1
        for key, value in (counts or {}).items():
            totals[f"{layer}.{key}"] = totals.get(f"{layer}.{key}", 0) + value
        if layer in SELF_TIME_LAYERS:
            totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + selfs[i]
    roots = covered((s[1], s[2]) for s in spans if s[3] is None)
    totals["cli.self_s"] = op_wall_s - roots
    return totals
