"""Young's orthogonal form: explicit orthogonal matrices for the symmetric
group acting on the irreducible representation labelled by a Young diagram,
in the basis of standard tableaux."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .young import (
    YoungDiagram,
    axial_distance,
    dim_symmetric_group_irrep,
    enumerate_standard_tableaux,
)


def permutation_sign(seq) -> int:
    """Sign of the permutation sorting ``seq`` (distinct comparable items)."""
    seq = list(seq)
    inversions = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class Permutation:
    """Bijection of 1..n, stored as the one-line tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(v) for v in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> Permutation:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"points must lie in 1..{n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> Permutation:
        return cls(tuple(int(v) + 1 for v in rng.permutation(n)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition: (self * other)(k) = self(other(k))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[v - 1] for v in other.images))

    def inverse(self) -> Permutation:
        out = [0] * self.size
        for k, v in enumerate(self.images, start=1):
            out[v - 1] = k
        return Permutation(tuple(out))

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    def adjacent_factorization(self) -> tuple[int, ...]:
        """Indices k with self = s_{k_1} . s_{k_2} . ... for s_k = (k k+1).

        Composition applies the rightmost factor first; the list comes from
        bubble-sorting the one-line form, so its length is at most n(n-1)/2.
        """
        arr = list(self.images)
        swaps = []
        done = False
        while not done:
            done = True
            for i in range(len(arr) - 1):
                if arr[i] > arr[i + 1]:
                    arr[i], arr[i + 1] = arr[i + 1], arr[i]
                    swaps.append(i + 1)
                    done = False
        return tuple(reversed(swaps))


@lru_cache(maxsize=None)
def _adjacent_matrix(diagram: YoungDiagram, k: int) -> np.ndarray:
    # Young's orthogonal form of (k k+1): +1 (same row), -1 (same column) or
    # 1/r for axial distance r on the diagonal, and sqrt(1 - 1/r^2) coupling
    # to the swapped tableau.  Cached per (diagram, k), so read-only.
    basis = enumerate_standard_tableaux(diagram)
    index = {t: a for a, t in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)))
    for a, t in enumerate(basis):
        r = axial_distance(t, k)
        if r == 1:
            m[a, a] = 1.0
        elif r == -1:
            m[a, a] = -1.0
        else:
            m[a, a] = 1.0 / r
            b = index[t.with_swap(k)]
            m[b, a] = math.sqrt(1.0 - 1.0 / r**2)
    m.setflags(write=False)
    return m


def permutation_matrix(diagram: YoungDiagram, sigma: Permutation) -> np.ndarray:
    """Real orthogonal matrix of a permutation in Young's orthogonal form,
    rows and columns indexed by :func:`enumerate_standard_tableaux`'s order,
    composed from adjacent swaps.

    The result is independent of the factorization because the generator
    matrices satisfy the braid and involution relations.
    """
    if sigma.size != diagram.n_boxes:
        raise ValueError("permutation size must match the number of boxes")
    out = np.eye(dim_symmetric_group_irrep(diagram))
    for k in sigma.adjacent_factorization():
        out = out @ _adjacent_matrix(diagram, k)
    return out
