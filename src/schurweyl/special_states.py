"""Explicit states: Slater determinants, coherent states of column-ordered
tableaux and bound-saturating optimizers."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class OrthonormalFrame:
    """Tuple of pairwise-orthonormal one-factor vectors in C^d."""

    vectors: tuple[TensorState, ...]

    def __post_init__(self) -> None:
        vectors = tuple(self.vectors)
        object.__setattr__(self, "vectors", vectors)
        if not vectors:
            raise ValueError("frame must contain at least one vector")
        d = vectors[0].local_dim
        for v in vectors:
            if v.n_factors != 1:
                raise ValueError("frame vectors must be one-factor states")
            if v.local_dim != d:
                raise ValueError("frame vectors must share the local dimension")
        mat = np.column_stack([v.amplitudes for v in vectors])
        gram = mat.conj().T @ mat
        if np.abs(gram - np.eye(len(vectors))).max() > 1e-12:
            raise ValueError("frame vectors are not orthonormal")

    @classmethod
    def standard(cls, d: int, count: int | None = None) -> OrthonormalFrame:
        """Computational basis vectors e_0, ..., e_{count-1}."""
        count = d if count is None else count
        if not 1 <= count <= d:
            raise ValueError(f"count must lie in 1..{d}")
        return cls(tuple(TensorState.unit(d, 1, i) for i in range(count)))

    @property
    def local_dim(self) -> int:
        return self.vectors[0].local_dim

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> TensorState:
        return self.vectors[i]


def slater(frame: OrthonormalFrame, indices: Sequence[int]) -> TensorState:
    """Normalized fully antisymmetric product of the selected frame vectors."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise ValueError("repeated indices in a Slater determinant")
    if not indices:
        raise ValueError("need at least one vector")
    k = len(indices)
    vecs = [frame[i].amplitudes for i in indices]
    d = frame.local_dim
    out = np.zeros(d**k, dtype=np.complex128)
    for perm in itertools.permutations(range(k)):
        term = vecs[perm[0]]
        for p in perm[1:]:
            term = np.kron(term, vecs[p])
        out += permutation_sign(perm) * term
    return TensorState(d, k, out / math.sqrt(math.factorial(k)))


def _tensor_chain(parts: Sequence[TensorState]) -> TensorState:
    state = parts[0]
    for part in parts[1:]:
        state = state.tensor(part)
    return state


def coherent_state(
    t: StandardTableau, frame: OrthonormalFrame | None = None, d: int | None = None
) -> TensorState:
    """Product of nested column Slaters lying in the sector of a column-ordered tableau.

    Column j contributes the Slater determinant of the first c_j frame
    vectors; a single column gives a plain Slater determinant and a single
    row a power of the first vector.
    """
    if not t.is_column_ordered():
        raise ValueError("coherent states require a column-ordered tableau")
    cols = t.diagram.columns
    d = cols[0] if d is None else d
    frame = OrthonormalFrame.standard(d, cols[0]) if frame is None else frame
    if d < cols[0] or len(frame) < cols[0]:
        raise ValueError("need d and frame size at least the first column length")
    return _tensor_chain([slater(frame, range(c)) for c in cols])


def optimizer_state(
    diagram: YoungDiagram,
    box: Box,
    frame: OrthonormalFrame | None = None,
    d: int | None = None,
) -> TensorState:
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
    c1 = cols[0]
    d = c1 if d is None else d
    if d < c1:
        raise ValueError("need d at least the first column length")
    frame = OrthonormalFrame.standard(d, c1) if frame is None else frame
    if len(frame) < c1:
        raise ValueError("frame too small for this diagram")
    l = box.col
    c_l = cols[l - 1]

    left_parts = [slater(frame, range(c)) for c in cols[: l - 1]]

    right_parts = []
    if c_l > 1:
        right_parts.append(slater(frame, range(c_l - 1)))
    right_parts.extend(slater(frame, range(c)) for c in cols[l:])
    right_parts.append(frame[c_l - 1])
    raw = _tensor_chain(right_parts)

    tail_diagram = YoungDiagram((c_l, *cols[l:])).conjugate()
    tail_tableau = tableau_with_largest_in(tail_diagram, Box(c_l, 1))
    projected = orthogonal_projector(tail_tableau, d)(raw).normalized()

    if not left_parts:
        return projected
    return _tensor_chain(left_parts).tensor(projected)

