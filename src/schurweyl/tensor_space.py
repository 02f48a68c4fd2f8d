"""Dense states on (C^d)^(tensor n) and matrix-free permutation operators.

Row symmetrizers, column antisymmetrizers, Young projections, the recursive
hermitian tableau projectors and their closed forms all act by index
shuffling; the full d^n x d^n matrices are never materialized.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .orthogonal_form import Permutation, permutation_sign
from .young import (
    StandardTableau,
    YoungDiagram,
    axial_distance,
    dim_unitary_group_irrep,
    dominates,
    enumerate_standard_tableaux,
    hook_length,
    remove_largest,
)

DEFAULT_CAP = 2**20

# Residual threshold separating true rank deficiency from rounding during
# Gram-Schmidt extraction of projector images.
RANK_TOL = 1e-8


class DimensionCapError(ValueError):
    """Raised when d**n exceeds the configured dense-vector cap."""


def flat_dim_cap() -> int:
    """Dense-vector length cap; override with the SCHURWEYL_CAP env var."""
    raw = os.environ.get("SCHURWEYL_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"SCHURWEYL_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"SCHURWEYL_CAP must be positive, got {cap}")
    return cap


class TensorState:
    """Dense complex vector in (C^d)^(tensor n).

    Flat index convention: the basis tuple (i_1, ..., i_n) maps to
    sum_k i_k * d**(n-k), so the first factor is the most significant digit.
    Amplitude arrays are frozen after construction; operations return new
    states.
    """

    __slots__ = ("local_dim", "n_factors", "amplitudes")

    def __init__(self, local_dim: int, n_factors: int, amplitudes) -> None:
        if local_dim < 1:
            raise ValueError("local dimension must be at least 1")
        if n_factors < 1:
            raise ValueError("need at least one tensor factor")
        total = local_dim**n_factors
        cap = flat_dim_cap()
        if total > cap:
            raise DimensionCapError(
                f"d**n = {total} exceeds the cap {cap}; set SCHURWEYL_CAP to raise it"
            )
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (total,):
            raise ValueError(
                f"expected {total} amplitudes for d={local_dim}, n={n_factors}, "
                f"got {amps.shape[0]}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        self.local_dim = local_dim
        self.n_factors = n_factors
        self.amplitudes = amps

    @classmethod
    def product_basis(cls, d: int, indices: Sequence[int]) -> TensorState:
        """Computational basis state e_{i_1} x ... x e_{i_n}."""
        indices = list(indices)
        if any(not 0 <= i < d for i in indices):
            raise ValueError(f"indices must lie in 0..{d - 1}")
        flat = 0
        for i in indices:
            flat = flat * d + i
        return cls.unit(d, len(indices), flat)

    @classmethod
    def unit(cls, d: int, n: int, flat: int) -> TensorState:
        amps = np.zeros(d**n, dtype=np.complex128)
        amps[flat] = 1.0
        return cls(d, n, amps)

    @classmethod
    def single(cls, vector) -> TensorState:
        """One-factor state from a length-d vector."""
        vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
        return cls(vec.shape[0], 1, vec)

    def nd(self) -> np.ndarray:
        """Read-only view shaped (d,)*n, axis k holding factor k+1."""
        return self.amplitudes.reshape((self.local_dim,) * self.n_factors)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> TensorState:
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero state")
        return TensorState(self.local_dim, self.n_factors, self.amplitudes / nrm)

    def inner(self, other: TensorState) -> complex:
        """Hermitian inner product <self|other>."""
        self._check_same_space(other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def tensor(self, other: TensorState) -> TensorState:
        if self.local_dim != other.local_dim:
            raise ValueError("tensor factors must share the local dimension")
        return TensorState(
            self.local_dim,
            self.n_factors + other.n_factors,
            np.kron(self.amplitudes, other.amplitudes),
        )

    def _check_same_space(self, other: TensorState) -> None:
        if self.local_dim != other.local_dim or self.n_factors != other.n_factors:
            raise ValueError("states live on different spaces")

    def __add__(self, other: TensorState) -> TensorState:
        self._check_same_space(other)
        return TensorState(self.local_dim, self.n_factors, self.amplitudes + other.amplitudes)

    def __sub__(self, other: TensorState) -> TensorState:
        self._check_same_space(other)
        return TensorState(self.local_dim, self.n_factors, self.amplitudes - other.amplitudes)

    def __mul__(self, scalar) -> TensorState:
        return TensorState(self.local_dim, self.n_factors, self.amplitudes * scalar)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {
            "d": self.local_dim,
            "n": self.n_factors,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> TensorState:
        amps = np.array(
            [complex(re, im) for re, im in obj["amplitudes"]], dtype=np.complex128
        )
        return cls(int(obj["d"]), int(obj["n"]), amps)

    def __repr__(self) -> str:
        return f"TensorState(d={self.local_dim}, n={self.n_factors}, norm={self.norm():.6g})"


def random_state(d: int, n: int, rng: np.random.Generator) -> TensorState:
    """Normalized state with complex-Gaussian amplitudes."""
    amps = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return TensorState(d, n, amps / np.linalg.norm(amps))


def _axes_for(sigma: Permutation) -> tuple[int, ...]:
    # out[J] = psi[J o sigma]: axis m of the output reads axis sigma^{-1}(m+1)-1.
    inv = sigma.inverse().images
    return tuple(v - 1 for v in inv)


@lru_cache(maxsize=128)
def _gather_indices(axes: tuple[int, ...], d: int) -> np.ndarray:
    """Flat row gather realizing an axis transpose: X.transpose(axes).ravel()
    equals X.ravel()[indices] for any (d,)*n array X."""
    n = len(axes)
    # int32 suffices under the dense-vector cap and halves the cache footprint
    idx = np.arange(d**n, dtype=np.int32).reshape((d,) * n).transpose(axes).reshape(-1)
    idx.setflags(write=False)
    return idx


def apply_permutation(sigma: Permutation, psi: TensorState) -> TensorState:
    """Index-shuffle action: the content of factor k moves to factor sigma(k).

    Satisfies U_sigma U_tau = U_{sigma tau} and preserves the norm.
    """
    if sigma.size != psi.n_factors:
        raise ValueError("permutation size must match the number of factors")
    if sigma.is_identity():
        return psi
    nd = psi.nd().transpose(_axes_for(sigma))
    return TensorState(psi.local_dim, psi.n_factors, nd.reshape(-1))


def permute_matrix_columns(
    sigma: Permutation, mat: np.ndarray, d: int, n: int
) -> np.ndarray:
    """Permutation action applied to every column of a (d**n, batch) matrix."""
    if sigma.is_identity():
        return mat
    axes = _axes_for(sigma) + (n,)
    return mat.reshape((d,) * n + (mat.shape[1],)).transpose(axes).reshape(mat.shape)


def swap_factors(psi: TensorState, k: int, l: int) -> TensorState:
    """Exchange tensor factors k and l (1-based)."""
    n = psi.n_factors
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"factor indices must lie in 1..{n}")
    if k == l:
        return psi
    return apply_permutation(Permutation.transposition(n, k, l), psi)


def apply_local_unitary(psi: TensorState, u) -> TensorState:
    """Apply the same one-factor map u to every tensor factor."""
    mat = np.asarray(u, dtype=np.complex128)
    d = psi.local_dim
    if mat.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix")
    nd = psi.nd()
    for ax in range(psi.n_factors):
        nd = np.moveaxis(np.tensordot(mat, nd, axes=(1, ax)), 0, ax)
    return TensorState(d, psi.n_factors, nd.reshape(-1))


class OperatorExpr:
    """Linear map on tensor states, applied matrix-free.

    Subclasses implement ``_apply_raw`` on flat amplitude arrays; calling the
    operator on a :class:`TensorState` validates the space and wraps the
    result.  ``support`` records the factor positions the operator can move.
    Linearity holds by construction.
    """

    local_dim: int
    n_factors: int
    support: frozenset[int]

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, psi: TensorState) -> TensorState:
        if psi.local_dim != self.local_dim or psi.n_factors != self.n_factors:
            raise ValueError(
                f"operator on d={self.local_dim}, n={self.n_factors} applied to "
                f"state with d={psi.local_dim}, n={psi.n_factors}"
            )
        return TensorState(self.local_dim, self.n_factors, self._apply_raw(psi.amplitudes))

    def embedded(self, n_factors: int) -> OperatorExpr:
        """Same operator acting on the first factors of a larger space."""
        raise NotImplementedError


class PermutationSum(OperatorExpr):
    """Real linear combination of permutation actions."""

    def __init__(
        self,
        local_dim: int,
        n_factors: int,
        terms: Iterable[tuple[float, Permutation]],
    ) -> None:
        self.local_dim = local_dim
        self.n_factors = n_factors
        self.terms = tuple((float(c), sigma) for c, sigma in terms)
        for _, sigma in self.terms:
            if sigma.size != n_factors:
                raise ValueError("permutation size must match the operator space")
        self.support = frozenset(
            k for _, sigma in self.terms for k in range(1, n_factors + 1)
            if sigma(k) != k
        )
        self._plans = tuple(
            (c, None if sigma.is_identity() else _axes_for(sigma))
            for c, sigma in self.terms
        )

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        # arr may be a single flat vector or a (d**n, batch) matrix; each
        # permutation acts as one cached row gather on the flat index
        out = np.zeros_like(arr)
        for coeff, axes in self._plans:
            if axes is None:
                term = arr
            else:
                term = arr[_gather_indices(axes, self.local_dim)]
            if coeff == 1.0:
                out += term
            elif coeff == -1.0:
                out -= term
            else:
                out += coeff * term
        return out

    def embedded(self, n_factors: int) -> OperatorExpr:
        if n_factors == self.n_factors:
            return self
        if n_factors < self.n_factors:
            raise ValueError("cannot embed into fewer factors")
        pad = tuple(range(self.n_factors + 1, n_factors + 1))
        return PermutationSum(
            self.local_dim,
            n_factors,
            ((c, Permutation(sigma.images + pad)) for c, sigma in self.terms),
        )


class ProductOp(OperatorExpr):
    """Scaled product of operators, applied rightmost factor first."""

    def __init__(
        self,
        local_dim: int,
        n_factors: int,
        factors: Sequence[OperatorExpr],
        scale: Fraction | float = 1,
    ) -> None:
        self.local_dim = local_dim
        self.n_factors = n_factors
        self.factors = tuple(factors)
        for op in self.factors:
            if op.local_dim != local_dim or op.n_factors != n_factors:
                raise ValueError("product factors must share the operator space")
        self.support = frozenset().union(*(op.support for op in self.factors)) \
            if self.factors else frozenset()
        self.scale = scale
        self._scale_float = float(scale)

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        out = arr
        for op in reversed(self.factors):
            out = op._apply_raw(out)
        if self._scale_float != 1.0:
            out = self._scale_float * out
        return out

    def embedded(self, n_factors: int) -> OperatorExpr:
        if n_factors == self.n_factors:
            return self
        return ProductOp(
            self.local_dim,
            n_factors,
            tuple(op.embedded(n_factors) for op in self.factors),
            self.scale,
        )


def _subset_permutation_sum(
    d: int, n: int, members: Sequence[int], signed: bool
) -> OperatorExpr:
    """(1/k!) sum over permutations of ``members``, optionally signed.

    Applied as the exactly-equal staged product over j = 2..k of
    (1/j)(1 +- sum_i (members_i members_j)): every subgroup element factors
    uniquely as an element fixing the last point times one of these
    transpositions, so the product expands to the full signed average with
    j instead of j! terms per stage.
    """
    members = tuple(sorted(members))
    k = len(members)
    if k <= 2:
        coeff = 1.0 / math.factorial(k)
        terms = []
        for perm in itertools.permutations(members):
            images = list(range(1, n + 1))
            for src, dst in zip(members, perm):
                images[src - 1] = dst
            sign = permutation_sign(perm) if signed else 1
            terms.append((sign * coeff, Permutation(tuple(images))))
        return PermutationSum(d, n, terms)
    stages = []
    sign = -1.0 if signed else 1.0
    for j in range(2, k + 1):
        terms = [(1.0, Permutation.identity(n))]
        terms.extend(
            (sign, Permutation.transposition(n, members[i], members[j - 1]))
            for i in range(j - 1)
        )
        stages.append(PermutationSum(d, n, terms))
    return ProductOp(d, n, stages, scale=Fraction(1, math.factorial(k)))


def symmetrizer(d: int, n: int) -> OperatorExpr:
    """Orthogonal projector onto the fully symmetric subspace."""
    return _subset_permutation_sum(d, n, range(1, n + 1), signed=False)


def antisymmetrizer(d: int, n: int) -> OperatorExpr:
    """Orthogonal projector onto the fully antisymmetric subspace."""
    return _subset_permutation_sum(d, n, range(1, n + 1), signed=True)


def row_symmetrizer(t: StandardTableau, i: int, d: int) -> OperatorExpr:
    """Average of the permutations of the entries in row i of the tableau."""
    if not 1 <= i <= len(t.rows):
        raise ValueError(f"row index must be in 1..{len(t.rows)}")
    return _subset_permutation_sum(d, t.n, t.rows[i - 1], signed=False)


def column_antisymmetrizer(t: StandardTableau, j: int, d: int) -> OperatorExpr:
    """Signed average of the permutations of the entries in column j."""
    diagram = t.diagram
    if not 1 <= j <= diagram.n_cols:
        raise ValueError(f"column index must be in 1..{diagram.n_cols}")
    members = [row[j - 1] for row in t.rows if len(row) >= j]
    return _subset_permutation_sum(d, t.n, members, signed=True)


def _normalization(diagram: YoungDiagram) -> Fraction:
    num = 1
    for r in diagram.rows:
        num *= math.factorial(r)
    for c in diagram.columns:
        num *= math.factorial(c)
    den = 1
    for box in diagram.boxes():
        den *= hook_length(diagram, box)
    return Fraction(num, den)


def _row_parts(t: StandardTableau, d: int) -> list[OperatorExpr]:
    return [
        row_symmetrizer(t, i, d)
        for i, r in enumerate(t.diagram.rows, start=1)
        if r >= 2
    ]


def _column_parts(t: StandardTableau, d: int) -> list[OperatorExpr]:
    return [
        column_antisymmetrizer(t, j, d)
        for j, c in enumerate(t.diagram.columns, start=1)
        if c >= 2
    ]


def young_projection(t: StandardTableau, d: int) -> OperatorExpr:
    """Scaled row-symmetrizer column-antisymmetrizer product for a tableau.

    Idempotent but generally not hermitian.  The scale is the exact ratio of
    row and column factorials to the hook product.
    """
    if d < 1:
        raise ValueError("local dimension must be at least 1")
    factors = (*_row_parts(t, d), *_column_parts(t, d))
    return ProductOp(d, t.n, factors, scale=_normalization(t.diagram))


@lru_cache(maxsize=None)
def _orthogonal_projector(t: StandardTableau, d: int) -> OperatorExpr:
    n = t.n
    if n <= 2:
        return young_projection(t, d)
    sub = _orthogonal_projector(remove_largest(t), d).embedded(n)
    return ProductOp(d, n, (sub, young_projection(t, d), sub))


def orthogonal_projector(t: StandardTableau, d: int) -> OperatorExpr:
    """Hermitian projector onto the tableau's sector.

    Defined by sandwiching the Young projection between the projector of the
    tableau with the largest entry removed (acting on the leading factors),
    recursively down to two boxes.  Distinct tableaux of any shapes give
    mutually orthogonal projectors, and over all standard tableaux with n
    entries the projectors resolve the identity.  Sub-tableau operators are
    cached, so the expression trees share structure along the removal chain.
    """
    if d < 1:
        raise ValueError("local dimension must be at least 1")
    if t.n < 1:
        raise ValueError("tableau must be nonempty")
    return _orthogonal_projector(t, d)


def closed_form_projector(t: StandardTableau, d: int) -> OperatorExpr:
    """Non-recursive form of the sector projector for ordered fillings.

    Row-ordered tableaux use symmetrize-antisymmetrize-symmetrize; column
    ordered ones the reverse, both with the Young-projection scale.
    """
    if d < 1:
        raise ValueError("local dimension must be at least 1")
    s_parts = _row_parts(t, d)
    a_parts = _column_parts(t, d)
    if t.is_row_ordered():
        factors = (*s_parts, *a_parts, *s_parts)
    elif t.is_column_ordered():
        factors = (*a_parts, *s_parts, *a_parts)
    else:
        raise ValueError("closed form unavailable: tableau is neither row- nor column-ordered")
    return ProductOp(d, t.n, factors, scale=_normalization(t.diagram))


def _index_candidates(diagram: YoungDiagram, d: int, n: int):
    # Basis tuples in flat order, skipping those whose content multiplicities
    # cannot occur in this diagram's block (dominance-order filter).
    rows = diagram.rows
    for idx in itertools.product(range(d), repeat=n):
        mult = tuple(sorted(Counter(idx).values(), reverse=True))
        if dominates(rows, mult):
            yield idx


def subspace_basis(t: StandardTableau, d: int) -> list[TensorState]:
    """Orthonormal basis of the image of the tableau's sector projector.

    Computational basis states are projected in flat-index order and fed
    through Gram-Schmidt with the rank tolerance; the scan stops once the
    exact dimension from the content/hook formula is reached.  Empty when d
    is smaller than the number of rows.
    """
    diagram = t.diagram
    n = t.n
    if d < diagram.n_rows:
        return []
    expected = dim_unitary_group_irrep(diagram, d)
    proj = orthogonal_projector(t, d)
    kept: list[np.ndarray] = []
    for idx in _index_candidates(diagram, d, n):
        if len(kept) == expected:
            break
        vec = proj._apply_raw(TensorState.product_basis(d, idx).amplitudes)
        for _ in range(2):  # re-orthogonalize once for numerical headroom
            for b in kept:
                vec = vec - np.vdot(b, vec) * b
        nrm = np.linalg.norm(vec)
        if nrm < RANK_TOL:
            continue
        kept.append(vec / nrm)
    if len(kept) != expected:
        raise ArithmeticError(
            f"found {len(kept)} independent directions, expected {expected} "
            f"for tableau {t} at d={d}"
        )
    return [TensorState(d, n, vec) for vec in kept]


def aligned_sector_bases(
    diagram: YoungDiagram, d: int
) -> dict[StandardTableau, list[TensorState]]:
    """Sector bases sharing one basis of the unitary-group factor.

    Vector a of each sector corresponds to the same unitary-group basis
    vector: starting from the first tableau in canonical order, bases are
    transported across adjacent-entry swaps, whose mixing coefficient
    sqrt(1 - 1/r^2) is positive and fixes all relative phases.  With this
    alignment the permutation action is block-diagonal in the unitary index
    and reproduces the orthogonal-form matrices on the tableau labels.
    """
    tableaux = enumerate_standard_tableaux(diagram)
    n = diagram.n_boxes
    if d < diagram.n_rows:
        return {t: [] for t in tableaux}
    first = tableaux[0]
    bases: dict[StandardTableau, list[TensorState]] = {first: subspace_basis(first, d)}
    frontier = [first]
    while frontier:
        t = frontier.pop()
        for k in range(1, n):
            if abs(axial_distance(t, k)) < 2:
                continue
            s = t.with_swap(k)
            if s in bases:
                continue
            mat = np.column_stack([b.amplitudes for b in bases[t]])
            swapped = permute_matrix_columns(
                Permutation.transposition(n, k, k + 1), mat, d, n
            )
            projected = orthogonal_projector(s, d)._apply_raw(swapped)
            bases[s] = [TensorState(d, n, col).normalized() for col in projected.T]
            frontier.append(s)
    if len(bases) != len(tableaux):
        raise ArithmeticError("swap moves failed to reach every tableau")
    return {t: bases[t] for t in tableaux}


def block_basis(diagram: YoungDiagram, d: int) -> list[TensorState]:
    """Orthonormal basis of the diagram's whole block: all sectors combined.

    The aligned sector bases flattened tableau-major: every vector of the
    first tableau in canonical order, then the second, and so on.  Empty
    when d is smaller than the number of rows.
    """
    return [b for basis in aligned_sector_bases(diagram, d).values() for b in basis]
