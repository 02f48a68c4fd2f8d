"""Run one ``schurweyl`` CLI command with spans around its layer boundaries.

Usage: ``python tracer.py SPANS_JSON <schurweyl arguments>`` with the
package importable.  The command's output and exit code are those of
``python -m schurweyl <arguments>``; the spans are kept in memory and written
to SPANS_JSON as the process exits.

Spans are recorded from outside the package.  Each public function listed in
:data:`BOUNDARIES` is wrapped where another module of the package binds it;
calls inside its own module are left alone.  Projector application is wrapped
on the operator classes themselves, so it is credited to ``tensor_space``
wherever it is called from, and only the outermost call of a nested operator
product opens a span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "schurweyl"
MODULES = (
    "young", "orthogonal_form", "tensor_space", "spectral",
    "special_states", "verification", "cli",
)


def _tableau_count(result) -> dict:
    return {"count": len(result)}


def _vector_count(result) -> dict:
    return {"vectors": len(result)}


def _aligned_vector_count(result) -> dict:
    return {"vectors": sum(len(basis) for basis in result.values())}


def _ascent_counts(report) -> dict:
    return {
        "iterations": sum(report.iterations),
        "converged": sum(report.converged),
        "restarts": report.restarts,
    }


# defining module -> {public name: (layer, counts of the returned value)}
BOUNDARIES = {
    "young": {
        "bound_for_box": ("young.bound", None),
        "max_schmidt_bound": ("young.bound", None),
        "removable_boxes": ("young.bound", None),
        "entropy_lower_bound": ("young.bound", None),
        "dim_symmetric_group_irrep": ("young.dims", None),
        "dim_unitary_group_irrep": ("young.dims", None),
        "partitions_of": ("young.partitions", None),
        "enumerate_standard_tableaux": ("young.tableaux", _tableau_count),
    },
    "orthogonal_form": {
        "permutation_matrix": ("orthogonal_form.matrix", None),
    },
    "tensor_space": {
        "orthogonal_projector": ("tensor_space.projector_build", None),
        "closed_form_projector": ("tensor_space.projector_build", None),
        "block_basis": ("tensor_space.block_basis", _vector_count),
        "aligned_sector_bases": ("tensor_space.aligned_bases", _aligned_vector_count),
    },
    "spectral": {
        "max_lambda1_over_subspace": ("spectral.ascent", _ascent_counts),
        "schmidt_decompose": ("spectral.schmidt", None),
        "verify_fixed_point": ("spectral.fixed_point", None),
    },
    "special_states": {
        "optimizer_state": ("special_states", None),
        "coherent_state": ("special_states", None),
    },
    "verification": {
        "run_verification": ("verification", None),
    },
}
APPLY_LAYER = "tensor_space.projector_apply"


class Tracer:
    """In-memory span list in the format :mod:`spans` reads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._in_apply = False

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, counts: dict | None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = counts
        self._stack.pop()

    def wrap(self, fn, layer: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, count(result) if count and result is not None else None)

        return traced

    def wrap_apply(self, fn):
        @functools.wraps(fn)
        def traced(op, arg):
            if self._in_apply:
                return fn(op, arg)
            shape = getattr(arg, "shape", ())
            columns = shape[1] if len(shape) == 2 else 1
            self._in_apply = True
            index = self._open(APPLY_LAYER)
            try:
                return fn(op, arg)
            finally:
                self._close(index, {"columns": columns})
                self._in_apply = False

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every boundary in BOUNDARIES and the operator classes' apply methods.

    A name a later version of the package no longer has is skipped, so its
    layer reports zero.
    """
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    for home, names in BOUNDARIES.items():
        for name, (layer, count) in names.items():
            fn = getattr(modules[home], name, None)
            if fn is None:
                continue
            wrapped = tracer.wrap(fn, layer, count)
            for other, module in modules.items():
                if other != home and getattr(module, name, None) is fn:
                    setattr(module, name, wrapped)
    base = getattr(modules["tensor_space"], "OperatorExpr", None)
    classes = [base] if base is not None else []
    for cls in classes:
        classes.extend(c for c in cls.__subclasses__() if c not in classes)
        for attr in ("__call__", "_apply_raw"):
            if attr in vars(cls):
                setattr(cls, attr, tracer.wrap_apply(vars(cls)[attr]))


def main(argv: list[str]) -> None:
    if len(argv) < 2:
        sys.exit("usage: tracer.py SPANS_JSON <schurweyl arguments>")
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    try:
        cli.main(args=cli_args, prog_name=PACKAGE)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
