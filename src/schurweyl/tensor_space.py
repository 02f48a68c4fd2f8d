"""Dense states on (C^d)^(tensor n), matrix-free permutation operators and
the sector and block bases, held as their weight blocks.

Row symmetrizers, column antisymmetrizers, Young projections, the hermitian
sector projectors (products of Jucys-Murphy interpolation stages) and their
closed forms are all one operator type, a product of stages
scale * (shift + sum of signed permutations), and every permutation acts as
an axis transpose of the (d,)*n view; the full d^n x d^n matrices are never
materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def _rotated(u: np.ndarray, arr: np.ndarray, d: int, n: int) -> np.ndarray:
    """The one-factor map u on every factor of a flat vector or of every
    column of a (d**n, batch) matrix, one tensordot per factor."""
    batch = arr.shape[1:]
    nd = arr.reshape((d,) * n + batch)
    for ax in range(n):
        nd = np.moveaxis(np.tensordot(u, nd, axes=(1, ax)), 0, ax)
    return nd.reshape(arr.shape)


def apply_local_unitary(psi: TensorState, u) -> TensorState:
    """Apply the same one-factor map u to every tensor factor."""
    mat = np.asarray(u, dtype=np.complex128)
    d = psi.local_dim
    if mat.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix")
    return TensorState(d, psi.n_factors, _rotated(mat, psi.amplitudes, d, psi.n_factors))


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
        self._axes = {sigma: _axes_for(sigma) for _, _, terms in self.stages for _, sigma in terms}

    def _run(self, src: np.ndarray, read) -> np.ndarray:
        # The stages, rightmost first; read(src, sigma) is the term sigma src.
        for scale, shift, terms in reversed(self.stages):
            acc = np.empty_like(src)
            if shift:
                np.multiply(src, float(shift), out=acc)
            else:
                acc.fill(0)
            for sign, sigma in terms:
                if sign > 0:
                    acc += read(src, sigma)
                else:
                    acc -= read(src, sigma)
            if scale != 1:
                acc *= float(scale)
            src = acc
        return src

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        # arr is a flat vector or a (d**n, batch) matrix; each term is read
        # through a transposed view of the (d,)*n layout, no permuted copy.
        batch = arr.shape[1:]
        trailing = tuple(range(self.n_factors, self.n_factors + len(batch)))
        src = arr.reshape((self.local_dim,) * self.n_factors + batch)
        out = self._run(src, lambda src, sigma: src.transpose(self._axes[sigma] + trailing))
        return out.reshape(arr.shape)

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


def _weight_keys(d: int, n: int) -> np.ndarray:
    """Weight of every flat index of (C^d)^(tensor n) as an integer: the
    least flat index with the same multiset of digits.

    A permutation of factors maps every index to one of the same weight, so
    each sector is spanned by vectors supported on one weight each.
    """
    digits = np.empty((d**n, n), dtype=np.min_scalar_type(d - 1))
    flat = np.arange(d**n)
    for k in range(n - 1, -1, -1):
        flat, digits[:, k] = np.divmod(flat, d)
    digits.sort(axis=1)
    keys = np.zeros(d**n, dtype=np.int64)
    for k in range(n):
        keys *= d
        keys += digits[:, k]
    return keys


def _stacked(d: int, n: int, flat: np.ndarray) -> tuple[np.ndarray, list]:
    """The ``gather`` and ``stacks`` of :class:`WeightBlocks` for the unit
    vectors on the flat indices ``flat``: in increasing weight order, the
    block of a weight holds its ascending rows and one unit column per index
    of ``flat`` on that weight."""
    keys = _weight_keys(d, n)
    by_shape: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}
    for w in sorted(set(keys[flat].tolist())):
        r, c = np.flatnonzero(keys == w), np.flatnonzero(keys[flat] == w)
        by_shape.setdefault((r.size, c.size), []).append((r, c))
    stacks, stop = [], 0
    for (height, width), cells in by_shape.items():
        blocks = np.empty((len(cells), height, width), dtype=np.complex128)
        for out, (r, c) in zip(blocks, cells):
            out[...] = r[:, None] == flat[c]
        start, stop = stop, stop + len(cells) * height
        stacks.append((slice(start, stop), blocks, np.stack([c for _, c in cells])))
    gather = np.concatenate([r for cells in by_shape.values() for r, _ in cells])
    return gather, stacks


# Tolerance for declaring a supplied basis orthonormal.
BASIS_TOL = 1e-8


@dataclass(frozen=True)
class WeightBlocks:
    """An orthonormal basis of weight vectors on (C^d)^(tensor n) as its
    nonzero weight blocks, stacked by shape: ``gather`` lists the rows weight
    by weight, and each stack is ``(part, blocks, cols)``: its slice of
    ``gather``, its ``(count, h, w)`` blocks and their ``(count, w)``
    ascending column indices, orthonormality checked on construction.
    ``len`` is the number of basis vectors.  Calling it projects a
    ``(d**n,)`` vector or ``(d**n, batch)`` matrix onto the span: one
    gather, two stacked products per shape, one scatter."""

    d: int
    n: int
    gather: np.ndarray
    stacks: list[tuple[slice, np.ndarray, np.ndarray]]
    _maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Gram matrices summed over 256-row chunks: no copy of a whole block.
        for block in (block for _, blocks, _ in self.stacks for block in blocks):
            gram = -np.eye(block.shape[1], dtype=np.complex128)
            for chunk in np.split(block, range(256, len(block), 256)):
                gram += chunk.conj().T @ chunk
            if np.abs(gram).max() > BASIS_TOL:
                raise ValueError("basis is not orthonormal")

    def __len__(self) -> int:
        return sum(cols.size for _, _, cols in self.stacks)

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        gathered = vec[self.gather]
        result = np.empty_like(gathered, dtype=np.complex128)
        for part, blocks, _ in self.stacks:
            shape = blocks.shape[:2] + (-1,)
            # blocks^H g as (g^H blocks)^H: no conjugate copy of the blocks
            coeffs = (gathered[part].reshape(shape).conj().transpose(0, 2, 1) @ blocks).conj()
            np.matmul(blocks, coeffs.transpose(0, 2, 1), out=result[part].reshape(shape))
        out = np.zeros(vec.shape, dtype=np.complex128)
        out[self.gather] = result
        return out

    def scatter(self) -> np.ndarray:
        """The basis as a dense C-ordered ``(d**n, len(self))`` matrix."""
        out = np.zeros((self.d**self.n, len(self)), dtype=np.complex128)
        for part, blocks, cols in self.stacks:
            rows = self.gather[part].reshape(blocks.shape[:2])
            out[rows[:, :, None], cols[:, None, :]] = blocks
        return out

    def row_map(self, sigma: Permutation) -> list[np.ndarray]:
        """Per stack, the row of its ``(count * h)`` stacked rows that each
        row of ``sigma v`` reads in ``v``: a permutation keeps weights.  A
        sigma of m < n points acts on the first m factors.  Cached."""
        if sigma not in self._maps:
            full = Permutation(sigma.images + tuple(range(sigma.size + 1, self.n + 1)))
            where = np.empty(self.d**self.n, dtype=np.int64)  # each row's position in gather
            where[self.gather] = np.arange(self.gather.size)
            local = permute_matrix_columns(full, where, self.d, self.n)[self.gather]
            self._maps[sigma] = [local[part] - part.start for part, _, _ in self.stacks]
        return self._maps[sigma]

    def apply(self, op: OperatorExpr, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """``op`` on m <= n factors, tensored with the identity on the rest, on
        one ``(count, h, k)`` array per stack, rows as in its blocks: per
        amplitude the dense stages' arithmetic, each term one row gather."""
        out = []
        for i, arr in enumerate(arrays):
            rows = op._run(arr.reshape(-1, arr.shape[2]), lambda src, s: src[self.row_map(s)[i]])
            out.append(rows.reshape(arr.shape))
        return out


def subspace_basis(t: StandardTableau, d: int) -> WeightBlocks:
    """Orthonormal basis of the tableau's sector as its weight blocks, with
    no vector when d is below the number of rows.  The candidates are the
    product states of the semistandard fillings T of the shape with
    0..d-1, digit T(box) on factor t(box), as unit weight blocks; vector j
    is filling j's.  A permutation of factors keeps each index's weight
    (digit multiset), so the projector acts block by block, and one QR per
    block orthonormalizes the images.  Raises ``ArithmeticError`` below
    full rank."""
    n = t.n
    if d < t.diagram.n_rows:
        return WeightBlocks(d, n, np.empty(0, dtype=np.int64), [])
    fillings = enumerate_semistandard_tableaux(t.diagram, d)
    place = np.array([d ** (n - v) for row in t.rows for v in row])
    flat = np.array([[x for row in f for x in row] for f in fillings]) @ place
    gather, stacks = _stacked(d, n, flat)
    candidates = WeightBlocks(d, n, gather, stacks)
    images = candidates.apply(orthogonal_projector(t, d), [blocks for _, blocks, _ in stacks])
    qr = [np.linalg.qr(x) for x in images]
    # A dependent candidate leaves a diagonal entry of R at rounding level;
    # genuine entries stay far above this (>= 0.016 for N <= 7, d <= 4).
    diag = np.abs(np.concatenate([np.diagonal(r, axis1=1, axis2=2).ravel() for _, r in qr]))
    rank = int((diag > math.sqrt(np.finfo(float).eps) * diag.max()).sum())
    expected = dim_unitary_group_irrep(t.diagram, d)
    if rank != expected:
        raise ArithmeticError(
            f"found {rank} independent directions, expected {expected} "
            f"for tableau {t} at d={d}"
        )
    return WeightBlocks(d, n, gather, [(p, q, c) for (p, _, c), (q, _) in zip(stacks, qr)])


def block_basis(diagram: YoungDiagram, d: int) -> WeightBlocks:
    """Orthonormal basis of the diagram's whole block as its weight blocks,
    with no vector when d is smaller than the number of rows.  Vector
    ``i * dim V + a`` is vector a of the i-th tableau's sector, the same
    unitary-group vector in every sector.  The first tableau's blocks are
    those of :func:`subspace_basis`; each other tableau s = (k k+1) t is
    reached across a swap with axial distance |r| >= 2, where Young's
    orthogonal form reads sigma_k v_t = v_t / r + sqrt(1 - 1/r^2) v_s: one
    row gather and one axpy per swap and stack, no projector.  The positive
    mixing coefficient fixes all relative phases."""
    n = diagram.n_boxes
    tableaux = enumerate_standard_tableaux(diagram)
    f = len(tableaux)
    seed = subspace_basis(tableaux[0], d)
    if not len(seed):
        return seed
    gather, dim_v = seed.gather, len(seed)
    swaps = {k: seed.row_map(Permutation.transposition(n, k, k + 1)) for k in range(1, n)}
    stacks = []
    for part, blocks, cols in seed.stacks:
        wide = np.empty(blocks.shape[:2] + (f, blocks.shape[2]), dtype=np.complex128)
        wide[:, :, 0] = blocks  # wide[c, :, i] is block c of tableau i's columns
        cols = np.arange(f)[:, None] * dim_v + cols[:, None]  # (count, f, w)
        stacks.append((part, wide, cols.reshape(len(cols), -1)))
    del seed, blocks
    index = {t: i for i, t in enumerate(tableaux)}
    reached, frontier = {tableaux[0]}, [tableaux[0]]
    while frontier:
        t = frontier.pop()
        for k in range(1, n):
            r = axial_distance(t, k)
            if abs(r) < 2:
                continue
            s = t.with_swap(k)
            if s in reached:
                continue
            for (_, wide, _), rows in zip(stacks, swaps[k]):
                flat = wide.reshape(-1, f, wide.shape[3])
                v_t, v_s = flat[:, index[t]], flat[:, index[s]]
                v_s[...] = v_t[rows]
                v_s *= r
                v_s -= v_t
                v_s /= math.copysign(math.sqrt(r * r - 1), r)
            reached.add(s)
            frontier.append(s)
    if len(reached) != f:
        raise ArithmeticError("swap moves failed to reach every tableau")
    return WeightBlocks(d, n, gather, [(p, w.reshape(*w.shape[:2], -1), c) for p, w, c in stacks])
