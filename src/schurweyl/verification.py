"""Cross-checks tying the exact combinatorics, the orthogonal-form matrices
and the tensor-space projectors together for one diagram and local dimension.

Each check reports its worst residual; the CLI turns the list into an exit
status and a table.  The five sample checks (idempotence, hermiticity,
pairwise orthogonality, closed-form agreement, local-unitary covariance)
share one loop over the tableaux with two batched projector calls per
tableau, none wider than three times the samples.  The block checks read
the block's weight blocks and, for the block resolution, the samples and the
loop's sum of their projections; the Schmidt checks read each vector's
last-digit slices, with no SVD.  Past the loop, dense projector calls act
only on the coherent and saturating states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .orthogonal_form import Permutation, permutation_matrix
from .special_states import coherent_state, optimizer_state
from .spectral import schmidt_decompose, verify_fixed_point
from .tensor_space import (
    _rotated,
    block_basis,
    closed_form_projector,
    orthogonal_projector,
    random_state,
)
from .young import (
    YoungDiagram,
    bound_for_box,
    column_ordered_tableau,
    dim_unitary_group_irrep,
    enumerate_standard_tableaux,
    removable_boxes,
    remove_largest,
    row_ordered_tableau,
    tableau_with_largest_in,
)

@dataclass
class CheckResult:
    """One check's worst residual against its tolerance.  It passes exactly
    when ``residual <= tolerance``, so a NaN residual fails."""

    name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    detail: str = ""

    def __post_init__(self) -> None:
        self.residual = float(self.residual)
        self.passed = self.residual <= self.tolerance


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _column_norms(mat: np.ndarray) -> np.ndarray:
    # Column norms of a matrix or a stack of them, read through the real and,
    # if complex, imaginary views: no temporary of mat's size.
    parts = (mat.real, mat.imag) if np.iscomplexobj(mat) else (mat,)
    return np.sqrt(sum(np.einsum("...ij,...ij->...j", x, x) for x in parts))


def _slice_norms(rows: np.ndarray, stack: np.ndarray, d: int) -> np.ndarray:
    # (count, d, k): the norm of each column's slice of rows with last digit j,
    # for a real stack such as the weight blocks.
    onehot = rows.reshape(stack.shape[:2])[:, None] % d == np.arange(d)[:, None]
    return np.sqrt(onehot @ np.square(stack))


def run_verification(
    diagram: YoungDiagram, d: int, seed: int = 0, samples: int = 5
) -> list[CheckResult]:
    """Run the per-diagram check suite on ``samples`` >= 1 random states x.  Its
    "pairwise orthogonality" is the largest ``|P_t V|``, V the sum of earlier ``P_s x``."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    n = diagram.n_boxes
    tableaux = enumerate_standard_tableaux(diagram)
    projectors = {t: orthogonal_projector(t, d) for t in tableaux}
    sample_mat = np.column_stack([random_state(d, n, rng).amplitudes for _ in range(samples)])
    unitary = _haar_unitary(d, rng)
    results: list[CheckResult] = []

    def record(name: str, residual: float, tol: float, detail: str = "") -> None:
        results.append(CheckResult(name, residual, tol, detail))

    # Two projector calls per tableau t: on the samples x for hermiticity
    # and, at two tableaux, closed-form agreement; on [P_t x | U x | V] for
    # idempotence, covariance and orthogonality.  If the P_s summed in V are
    # pairwise orthogonal hermitian idempotents, their sum Q is a projector,
    # so P_t V = P_t Q x vanishes exactly when each P_t P_s = P_t Q P_s does.
    closed_forms = {
        t: closed_form_projector(t, d)
        for t in (row_ordered_tableau(diagram), column_ordered_tableau(diagram))
    }
    rotated = _rotated(unitary, sample_mat, d, n)
    visited = np.zeros_like(sample_mat)
    worst_idem = worst_herm = worst_orth = worst_closed = worst_cov = 0.0
    for t in tableaux:
        proj = projectors[t]._apply_raw(sample_mat)
        lhs = sample_mat.conj().T @ proj
        worst_herm = max(worst_herm, np.abs(lhs - lhs.conj().T).max())
        if t in closed_forms:
            closed = _column_norms(closed_forms[t]._apply_raw(sample_mat) - proj)
            worst_closed = closed.max(initial=worst_closed)
        out = projectors[t]._apply_raw(np.concatenate([proj, rotated, visited], axis=1))
        out[:, : 2 * samples] -= np.concatenate([proj, _rotated(unitary, proj, d, n)], axis=1)
        worst_idem = _column_norms(out[:, :samples]).max(initial=worst_idem)
        worst_cov = _column_norms(out[:, samples : 2 * samples]).max(initial=worst_cov)
        worst_orth = _column_norms(out[:, 2 * samples :]).max(initial=worst_orth)
        visited += proj
        del out
    del rotated, proj
    record("projector idempotence", worst_idem, 1e-10)
    record("projector hermiticity", worst_herm, 1e-10)
    record("pairwise orthogonality", worst_orth, 1e-10, f"{len(tableaux)} tableaux")
    record("closed-form agreement", worst_closed, 1e-10)
    record("local-unitary covariance", worst_cov, 1e-10)

    if d < diagram.n_rows:
        record("sector dimensions", 0.0, 0.5,
               "block absent at this d; remaining checks vacuous")
        return results

    # The aligned sector bases as weight blocks, orthonormality checked:
    # column ti*dim + a holds vector a of sector ti.
    expected_dim = dim_unitary_group_irrep(diagram, d)
    project = block_basis(diagram, d)
    width = len(project)
    worst_dim = abs(width / len(tableaux) - expected_dim)
    record("sector dimensions", worst_dim, 0.5, f"dim {expected_dim} per sector")

    # The loop's V = Q x must be the projection of x onto the bases' span:
    # Q fixes every block vector and has no range outside the span.
    visited -= project(sample_mat)
    worst_block = _column_norms(visited).max()
    del sample_mat, visited
    record("block resolution on sectors", worst_block, 1e-9)

    # Permutation action on the aligned bases is the orthogonal-form matrix
    # tensored with the identity on the unitary index.  Permutations keep
    # weights, and the block is exactly zero off its weight blocks, so the
    # real kron(m, 1)^T is compared with (sigma B)^T B, real as B is, one
    # weight block at a time.  The N-cycle is no involution: an action by
    # sigma^-1 shows.
    sigmas = [Permutation.transposition(n, k, k + 1) for k in range(1, n)]
    if n >= 2:
        sigmas.append(Permutation.random(n, rng))
    if n >= 3:
        sigmas.append(Permutation(tuple(range(2, n + 1)) + (1,)))
    worst_cross = 0.0
    for sigma in sigmas:
        m = permutation_matrix(diagram, sigma)
        for (_, blocks, cols), rows in zip(project.stacks, project.row_map(sigma)):
            moved = blocks.reshape(-1, blocks.shape[2])[rows].reshape(blocks.shape)
            worst_cross = max(worst_cross, np.abs(_column_norms(moved) - 1.0).max())
            ti, a = np.divmod(cols, expected_dim)
            expected = m[ti[:, None, :], ti[:, :, None]] * (a[:, :, None] == a[:, None, :])
            overlaps = moved.transpose(0, 2, 1) @ blocks
            worst_cross = max(worst_cross, np.abs(overlaps - expected).max())
            del moved, overlaps, expected
    record("orthogonal-form cross-check", worst_cross, 1e-9, f"{len(sigmas)} permutations")

    # Schmidt data across the cut after factor N-1.  Words of one weight that
    # agree on their first N-1 digits agree on the last, so a weight vector's
    # Schmidt coefficients are the norms of its last-digit slices, its left
    # vectors u the slices over their norms, and ||P_t' u - u|| the slice
    # norm of (P_t' x 1) v - v over that of v.  Each block of a stack holds
    # the sectors' columns in the same places.  The P_t' share the (N-1)(N-2)/2
    # transpositions of the first N-1 factors: one row map each per run.
    worst_conf = 0.0
    worst_spec = 0.0
    if n >= 2:
        spectra = np.empty((width, d))
        for part, blocks, cols in project.stacks:
            spectra[cols] = _slice_norms(project.gather[part], blocks, d).transpose(0, 2, 1)
        spectra = np.sort(spectra, axis=1).reshape(len(tableaux), expected_dim, d)
        first: dict = {}
        maps: dict = {}
        for ti, t in enumerate(tableaux):
            ref = first.setdefault(t.position(n), ti)
            worst_spec = max(worst_spec, float(np.abs(spectra[ti] - spectra[ref]).max()))
            sector = [b[:, :, cols[0] // expected_dim == ti] for _, b, cols in project.stacks]
            moved = project.apply(orthogonal_projector(remove_largest(t), d), sector, maps)
            for (part, _, _), v, pv in zip(project.stacks, sector, moved):
                coeffs = _slice_norms(project.gather[part], v, d)
                kept = coeffs > 1e-8
                off = _slice_norms(project.gather[part], pv - v, d)[kept] / coeffs[kept]
                worst_conf = off.max(initial=worst_conf)
            del sector, moved
        del maps
    record("Schmidt confinement", worst_conf, 1e-8)
    record("shared-corner Schmidt spectra", worst_spec, 1e-8)

    t_col = column_ordered_tableau(diagram)
    psi = coherent_state(t_col, d=d)
    record(
        "coherent-state membership",
        (projectors[t_col](psi) - psi).norm(),
        1e-9,
    )

    worst_sat = 0.0
    worst_mem = 0.0
    worst_fix = 0.0
    if n >= 2:
        for box in removable_boxes(diagram):
            state = optimizer_state(diagram, box, d=d)
            lam1 = schmidt_decompose(state, n - 1).coefficients[0]
            worst_sat = max(worst_sat, abs(lam1**2 - float(bound_for_box(diagram, box))))
            t_box = tableau_with_largest_in(diagram, box)
            worst_mem = max(worst_mem, (projectors[t_box](state) - state).norm())
            worst_fix = max(worst_fix, verify_fixed_point(state, project, n - 1))
    record("saturation of the exact bound", worst_sat, 1e-8)
    record("saturating-state membership", worst_mem, 1e-8)
    record("saturating-state fixed point", worst_fix, 1e-7)

    return results
