"""Dense states on (C^d)^(tensor n) and matrix-free permutation operators.

Row symmetrizers, column antisymmetrizers, Young projections, the hermitian
sector projectors (products of Jucys-Murphy interpolation stages) and their
closed forms are all one operator type, a product of stages
scale * (shift + sum of signed permutations), and every permutation acts as
an axis transpose of the (d,)*n view; the full d^n x d^n matrices are never
materialized.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .orthogonal_form import Permutation
from .young import (
    StandardTableau,
    YoungDiagram,
    _hook_product,
    axial_distance,
    dim_unitary_group_irrep,
    enumerate_semistandard_tableaux,
    enumerate_standard_tableaux,
)

DEFAULT_CAP = 2**20


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


def _check_within_cap(total: int) -> None:
    cap = flat_dim_cap()
    if total > cap:
        raise DimensionCapError(
            f"d**n = {total} exceeds the cap {cap}; set SCHURWEYL_CAP to raise it"
        )


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
        _check_within_cap(total)
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


def _permuted(axes: tuple[int, ...], arr: np.ndarray, d: int, n: int) -> np.ndarray:
    """Permutation action on a flat vector or on every column of a
    (d**n, batch) matrix, as one axis transpose of the (d,)*n view."""
    batch = arr.shape[1:]
    trailing = tuple(range(n, n + len(batch)))
    return arr.reshape((d,) * n + batch).transpose(axes + trailing).reshape(arr.shape)


def apply_permutation(sigma: Permutation, psi: TensorState) -> TensorState:
    """Index-shuffle action: the content of factor k moves to factor sigma(k).

    Satisfies U_sigma U_tau = U_{sigma tau} and preserves the norm.
    """
    if sigma.size != psi.n_factors:
        raise ValueError("permutation size must match the number of factors")
    if sigma.is_identity():
        return psi
    amps = _permuted(_axes_for(sigma), psi.amplitudes, psi.local_dim, psi.n_factors)
    return TensorState(psi.local_dim, psi.n_factors, amps)


def permute_matrix_columns(
    sigma: Permutation, mat: np.ndarray, d: int, n: int
) -> np.ndarray:
    """Permutation action applied to every column of a (d**n, batch) matrix."""
    if sigma.is_identity():
        return mat
    return _permuted(_axes_for(sigma), mat, d, n)


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


Stage = tuple[Fraction, Fraction, tuple[tuple[int, Permutation], ...]]


class OperatorExpr:
    """Product of stages scale * (shift * 1 + sum_i sign_i sigma_i), applied
    matrix-free, rightmost stage first.

    Each stage is ``(scale, shift, ((sign, sigma), ...))`` with every sign
    +1 or -1.  Every operator this module builds has this form: symmetrizer
    stages (1 +- sum tau) / j and Jucys-Murphy stages (X_k - c') / (c_k - c'),
    with an exact normalization folded into one stage's scale.  Calling the
    operator on a :class:`TensorState` validates the space and wraps the
    result.  Linearity holds by construction.
    """

    def __init__(self, local_dim: int, n_factors: int, stages: Iterable[Stage]) -> None:
        self.local_dim = local_dim
        self.n_factors = n_factors
        self.stages = tuple(
            (Fraction(scale), Fraction(shift), tuple(terms))
            for scale, shift, terms in stages
        )
        for _, _, terms in self.stages:
            for sign, sigma in terms:
                if sign not in (1, -1):
                    raise ValueError("stage terms carry a sign of +1 or -1")
                if sigma.size != n_factors:
                    raise ValueError("permutation size must match the operator space")
        self._plans = tuple(
            (float(scale), float(shift), tuple((sign, _axes_for(sigma)) for sign, sigma in terms))
            for scale, shift, terms in reversed(self.stages)
        )

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        # arr may be a single flat vector or a (d**n, batch) matrix.  Each
        # term is read through a transposed view of the (d,)*n layout, so no
        # permuted copy is made.
        batch = arr.shape[1:]
        trailing = tuple(range(self.n_factors, self.n_factors + len(batch)))
        src = arr.reshape((self.local_dim,) * self.n_factors + batch)
        for scale, shift, terms in self._plans:
            acc = np.empty_like(src)
            if shift:
                np.multiply(src, shift, out=acc)
            else:
                acc.fill(0)
            for sign, axes in terms:
                if sign > 0:
                    acc += src.transpose(axes + trailing)
                else:
                    acc -= src.transpose(axes + trailing)
            if scale != 1.0:
                acc *= scale
            src = acc
        return src.reshape(arr.shape)

    def __call__(self, psi: TensorState) -> TensorState:
        if psi.local_dim != self.local_dim or psi.n_factors != self.n_factors:
            raise ValueError(
                f"operator on d={self.local_dim}, n={self.n_factors} applied to "
                f"state with d={psi.local_dim}, n={psi.n_factors}"
            )
        return TensorState(self.local_dim, self.n_factors, self._apply_raw(psi.amplitudes))


def _compose(d: int, n: int, factors: Sequence[OperatorExpr], scale: Fraction) -> OperatorExpr:
    """The product of the factors as written (the rightmost acts first),
    times an exact scale folded into the stage applied last."""
    stages = [stage for op in factors for stage in op.stages] or [(Fraction(1), Fraction(1), ())]
    last, shift, terms = stages[0]
    stages[0] = (last * scale, shift, terms)
    return OperatorExpr(d, n, stages)


def _subset_permutation_sum(
    d: int, n: int, members: Sequence[int], signed: bool
) -> OperatorExpr:
    """(1/k!) sum over permutations of ``members``, optionally signed.

    Applied as the exactly-equal staged product over j = 2..k of
    (1/j)(1 +- sum_i (members_i members_j)): every subgroup element factors
    uniquely as an element fixing the last point times one of these
    transpositions, so the product expands to the full signed average with
    j instead of j! terms per stage.  For k <= 1 there is no stage: the
    identity.
    """
    members = sorted(members)
    sign = -1 if signed else 1
    stages = []
    for j in range(2, len(members) + 1):
        swaps = tuple(
            (sign, Permutation.transposition(n, m, members[j - 1])) for m in members[: j - 1]
        )
        stages.append((Fraction(1, j), 1, swaps))
    return OperatorExpr(d, n, stages)


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
    num = math.prod(map(math.factorial, (*diagram.rows, *diagram.columns)))
    return Fraction(num, _hook_product(diagram))


def _row_parts(t: StandardTableau, d: int) -> list[OperatorExpr]:
    return [row_symmetrizer(t, i, d) for i in range(1, t.diagram.n_rows + 1)]


def _column_parts(t: StandardTableau, d: int) -> list[OperatorExpr]:
    return [column_antisymmetrizer(t, j, d) for j in range(1, t.diagram.n_cols + 1)]


def young_projection(t: StandardTableau, d: int) -> OperatorExpr:
    """Scaled row-symmetrizer column-antisymmetrizer product for a tableau.

    Idempotent but generally not hermitian.  The scale is the exact ratio of
    row and column factorials to the hook product.
    """
    if d < 1:
        raise ValueError("local dimension must be at least 1")
    factors = (*_row_parts(t, d), *_column_parts(t, d))
    return _compose(d, t.n, factors, _normalization(t.diagram))


def orthogonal_projector(t: StandardTableau, d: int) -> OperatorExpr:
    """Hermitian projector onto the tableau's sector.

    The sector is fixed by the chain S_1 < S_2 < ... < S_N: on it the
    Jucys-Murphy element X_k = sum_{i<k} (i k) acts as the content c_k of the
    box holding k, while every other sector differs from t first at some k
    where it takes another addable content c' of the shape holding 1..k-1.
    So the projector is the product over k = 2..N and over those c' != c_k
    of the stages (X_k - c') / (c_k - c') (Okounkov-Vershik), which commute:
    sum_k (k-1)(#addable - 1) transposition terms in all.  Distinct tableaux
    of any shapes give mutually orthogonal projectors, and over all standard
    tableaux with n entries the projectors resolve the identity.
    """
    if d < 1:
        raise ValueError("local dimension must be at least 1")
    n = t.n
    if n < 1:
        raise ValueError("tableau must be nonempty")
    rows: list[int] = []  # row lengths of the shape holding 1..k-1
    stages = []
    for k in range(1, n + 1):
        row, col = t.position(k)
        content = col - row
        addable = [r - i for i, r in enumerate(rows) if i == 0 or rows[i - 1] > r]
        addable.append(-len(rows))
        swaps = tuple((1, Permutation.transposition(n, i, k)) for i in range(1, k))
        stages.extend(
            (Fraction(1, content - other), -other, swaps)
            for other in addable
            if other != content
        )
        if row > len(rows):
            rows.append(1)
        else:
            rows[row - 1] += 1
    return OperatorExpr(d, n, stages)


def closed_form_projector(t: StandardTableau, d: int) -> OperatorExpr:
    """Closed form of the sector projector for ordered fillings.

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
    return _compose(d, t.n, factors, _normalization(t.diagram))


def subspace_basis(t: StandardTableau, d: int) -> np.ndarray:
    """Orthonormal basis of the tableau's sector, as a ``(d**N, dim V)`` matrix.

    The candidates are the dim V product states indexed by the semistandard
    fillings T of the shape with 0..d-1, with digit T(box) on factor t(box);
    all of them are projected in one batch and orthonormalized by one QR
    factorization.  Raises ``ArithmeticError`` when their images fall short
    of full rank.  No column when d is smaller than the number of rows.
    """
    n = t.n
    _check_within_cap(d**n)
    if d < t.diagram.n_rows:
        return np.zeros((d**n, 0), dtype=np.complex128)
    fillings = enumerate_semistandard_tableaux(t.diagram, d)
    weights = np.array([d ** (n - v) for row in t.rows for v in row])
    digits = np.array([[x for row in f for x in row] for f in fillings])
    candidates = np.zeros((d**n, len(fillings)), dtype=np.complex128)
    candidates[digits @ weights, np.arange(len(fillings))] = 1.0
    q, r = np.linalg.qr(orthogonal_projector(t, d)._apply_raw(candidates))
    # A dependent candidate leaves a diagonal entry of R at rounding level;
    # genuine entries stay far above this (>= 0.016 for N <= 7, d <= 4).
    diag = np.abs(np.diagonal(r))
    rank = int((diag > math.sqrt(np.finfo(float).eps) * diag.max()).sum())
    expected = dim_unitary_group_irrep(t.diagram, d)
    if rank != expected:
        raise ArithmeticError(
            f"found {rank} independent directions, expected {expected} "
            f"for tableau {t} at d={d}"
        )
    return q


def block_basis(diagram: YoungDiagram, d: int) -> np.ndarray:
    """Orthonormal basis of the diagram's whole block: one C-ordered
    ``(d**N, f * dim V)`` matrix, no column when d is smaller than the number
    of rows.

    Tableau-major: column ``i * dim V + a`` holds vector a of the sector of
    the i-th tableau in canonical order, and vector a of every sector
    corresponds to the same unitary-group basis vector.  The first tableau's
    columns are :func:`subspace_basis`; every other tableau s = (k k+1) t is
    reached across an adjacent-entry swap with axial distance |r| >= 2, where
    Young's orthogonal form reads sigma_k v_t = v_t / r + sqrt(1 - 1/r^2) v_s.
    So v_s = (sigma_k v_t - v_t / r) / sqrt(1 - 1/r^2): one permutation and
    one axpy per swap, written into the columns of s, no projector.  The
    positive mixing coefficient fixes all relative phases, so the permutation
    action is block-diagonal in the unitary index and reproduces the
    orthogonal-form matrices on the tableau labels.
    """
    n = diagram.n_boxes
    _check_within_cap(d**n)
    if d < diagram.n_rows:
        return np.zeros((d**n, 0), dtype=np.complex128)
    tableaux = enumerate_standard_tableaux(diagram)
    first = tableaux[0]
    seed = subspace_basis(first, d)  # its temporaries are freed before the block exists
    # sectors[..., i, :] is the (d,)*n view of the columns of tableau i.
    sectors = np.empty((d,) * n + (len(tableaux), seed.shape[1]), dtype=np.complex128)
    sectors[..., 0, :] = seed.reshape(sectors.shape[:n] + seed.shape[1:])
    index = {t: i for i, t in enumerate(tableaux)}
    reached = {first}
    frontier = [first]
    while frontier:
        t = frontier.pop()
        v_t = sectors[..., index[t], :]
        for k in range(1, n):
            r = axial_distance(t, k)
            if abs(r) < 2:
                continue
            s = t.with_swap(k)
            if s in reached:
                continue
            v_s = sectors[..., index[s], :]
            v_s[...] = v_t.transpose(_axes_for(Permutation.transposition(n, k, k + 1)) + (n,))
            v_s *= r
            v_s -= v_t
            v_s /= math.copysign(math.sqrt(r * r - 1), r)
            reached.add(s)
            frontier.append(s)
    if len(reached) != len(tableaux):
        raise ArithmeticError("swap moves failed to reach every tableau")
    return sectors.reshape(d**n, -1)
