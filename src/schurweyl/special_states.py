"""Explicit states: Slater determinants, coherent states of column-ordered
tableaux and bound-saturating optimizers, all built on the basis vectors
e_0..e_{d-1}."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .orthogonal_form import permutation_sign
from .tensor_space import TensorState, orthogonal_projector
from .young import (
    Box,
    StandardTableau,
    YoungDiagram,
    removable_boxes,
    tableau_with_largest_in,
)


def slater(d: int, indices: Sequence[int]) -> TensorState:
    """Normalized fully antisymmetric product of the basis vectors e_i, i in indices."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise ValueError("repeated indices in a Slater determinant")
    if not indices:
        raise ValueError("need at least one vector")
    if any(not 0 <= i < d for i in indices):
        raise ValueError(f"indices must lie in 0..{d - 1}")
    k = len(indices)
    out = np.zeros(d**k, dtype=np.complex128)
    for perm in itertools.permutations(range(k)):
        flat = 0
        for p in perm:
            flat = flat * d + indices[p]
        out[flat] = permutation_sign(perm)
    return TensorState(d, k, out / math.sqrt(math.factorial(k)))


def _tensor_chain(parts: Sequence[TensorState]) -> TensorState:
    state = parts[0]
    for part in parts[1:]:
        state = state.tensor(part)
    return state


def coherent_state(t: StandardTableau, d: int) -> TensorState:
    """Product of nested column Slaters lying in the sector of a column-ordered tableau.

    Column j contributes the Slater determinant of the basis vectors
    e_0..e_{c_j-1}; a single column gives a plain Slater determinant and a
    single row a power of e_0.
    """
    if not t.is_column_ordered():
        raise ValueError("coherent states require a column-ordered tableau")
    cols = t.diagram.columns
    if d < cols[0]:
        raise ValueError("need d at least the first column length")
    return _tensor_chain([slater(d, range(c)) for c in cols])


def optimizer_state(diagram: YoungDiagram, box: Box, d: int) -> TensorState:
    """State saturating the hook-length bound of one removable box.

    Columns left of the box contribute full Slater determinants.  The
    remaining factors hold the normalized sector projection of the shortened
    box column, the columns to its right, and the lone vector that tops the
    shortened column back up, placed on the final factor.  The result lies in
    the sector of the tableau with the largest entry in ``box`` and
    column-ordered otherwise, and its leading squared Schmidt coefficient
    across the final cut equals the box's exact bound.
    """
    if box not in removable_boxes(diagram):
        raise ValueError(f"box {box} is not removable from ({diagram})")
    cols = diagram.columns
    if d < cols[0]:
        raise ValueError("need d at least the first column length")
    l = box.col
    c_l = cols[l - 1]

    left_parts = [slater(d, range(c)) for c in cols[: l - 1]]

    right_parts = []
    if c_l > 1:
        right_parts.append(slater(d, range(c_l - 1)))
    right_parts.extend(slater(d, range(c)) for c in cols[l:])
    right_parts.append(TensorState.unit(d, 1, c_l - 1))
    raw = _tensor_chain(right_parts)

    tail_diagram = YoungDiagram((c_l, *cols[l:])).conjugate()
    tail_tableau = tableau_with_largest_in(tail_diagram, Box(c_l, 1))
    projected = orthogonal_projector(tail_tableau, d)(raw).normalized()

    if not left_parts:
        return projected
    return _tensor_chain(left_parts).tensor(projected)
