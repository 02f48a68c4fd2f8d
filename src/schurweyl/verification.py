"""Cross-checks tying the exact combinatorics, the orthogonal-form matrices
and the tensor-space projectors together for one diagram and local dimension.

Each check reports its worst residual; the CLI turns the list into an exit
status and a table.  Projector applications are batched over sample states,
so the suite stays usable up to the dense-vector cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orthogonal_form import Permutation, permutation_matrix
from .special_states import coherent_state, optimizer_state
from .spectral import _check_orthonormal, _fixed_point_residual, schmidt_decompose
from .tensor_space import (
    apply_local_unitary,
    block_basis,
    closed_form_projector,
    orthogonal_projector,
    permute_matrix_columns,
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
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _column_norms(mat: np.ndarray) -> np.ndarray:
    return np.linalg.norm(mat, axis=0)


def run_verification(
    diagram: YoungDiagram, d: int, seed: int = 0, samples: int = 5
) -> list[CheckResult]:
    """Run the full per-diagram check suite and return one result per check."""
    rng = np.random.default_rng(seed)
    n = diagram.n_boxes
    tableaux = enumerate_standard_tableaux(diagram)
    projectors = {t: orthogonal_projector(t, d) for t in tableaux}
    states = [random_state(d, n, rng) for _ in range(samples)]
    sample_mat = np.column_stack([x.amplitudes for x in states])
    results: list[CheckResult] = []

    def record(name: str, residual: float, tol: float, detail: str = "") -> None:
        results.append(CheckResult(name, float(residual), tol, float(residual) <= tol, detail))

    # One batched projection of every sample per tableau, reused below.
    projected = {t: projectors[t]._apply_raw(sample_mat) for t in tableaux}

    worst_idem = 0.0
    for t in tableaux:
        again = projectors[t]._apply_raw(projected[t])
        worst_idem = max(worst_idem, _column_norms(again - projected[t]).max())
    record("projector idempotence", worst_idem, 1e-10)

    # <y, P x> vs <P y, x> over distinct sample pairs, from the cached projections.
    worst_herm = 0.0
    for t in tableaux:
        lhs = sample_mat.conj().T @ projected[t]
        worst_herm = max(worst_herm, np.abs(lhs - lhs.conj().T).max())
    record("projector hermiticity", worst_herm, 1e-10)

    worst_orth = 0.0
    pair_cols = min(2, samples)
    for a, t in enumerate(tableaux):
        for s in tableaux[a + 1 :]:
            cross = projectors[t]._apply_raw(projected[s][:, :pair_cols])
            worst_orth = max(worst_orth, _column_norms(cross).max())
    record("pairwise orthogonality", worst_orth, 1e-10, f"{len(tableaux)} tableaux")

    worst_closed = 0.0
    for t in (row_ordered_tableau(diagram), column_ordered_tableau(diagram)):
        closed = closed_form_projector(t, d)._apply_raw(sample_mat)
        worst_closed = max(worst_closed, _column_norms(closed - projected[t]).max())
    record("closed-form agreement", worst_closed, 1e-10)

    unitary = _haar_unitary(d, rng)
    worst_cov = 0.0
    for t in tableaux:
        for x in states[:2]:
            lhs = projectors[t](apply_local_unitary(x, unitary))
            rhs = apply_local_unitary(projectors[t](x), unitary)
            worst_cov = max(worst_cov, (lhs - rhs).norm())
    record("local-unitary covariance", worst_cov, 1e-10)

    if d < diagram.n_rows:
        record("sector dimensions", 0.0, 0.5,
               "block absent at this d; remaining checks vacuous")
        return results

    # The aligned sector bases, tableau-major: column ti*dim + a holds vector
    # a of sector ti.  Its orthonormality is validated here, once.
    expected_dim = dim_unitary_group_irrep(diagram, d)
    block_mat = block_basis(diagram, d)
    _check_orthonormal(block_mat)
    worst_dim = abs(block_mat.shape[1] / len(tableaux) - expected_dim)
    record("sector dimensions", worst_dim, 0.5, f"dim {expected_dim} per sector")

    # Random combinations of the sector bases must be fixed by the block sum.
    combo_count = min(block_mat.shape[1], max(3, samples))
    coeffs = rng.standard_normal((block_mat.shape[1], combo_count))
    coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
    coeffs /= np.linalg.norm(coeffs, axis=0)
    combos = block_mat @ coeffs
    resolved = np.zeros_like(combos)
    for t in tableaux:
        resolved += projectors[t]._apply_raw(combos)
    worst_block = _column_norms(resolved - combos).max()
    record("block resolution on sectors", worst_block, 1e-9)

    # Permutation action on the aligned bases is the orthogonal-form matrix
    # tensored with the identity on the unitary index.
    sigmas = [Permutation.transposition(n, k, k + 1) for k in range(1, n)]
    if n >= 2:
        sigmas.append(Permutation.random(n, rng))
    worst_cross = 0.0
    eye = np.eye(expected_dim)
    for sigma in sigmas:
        m = permutation_matrix(diagram, sigma).entries
        moved = permute_matrix_columns(sigma, block_mat, d, n)
        overlaps = block_mat.conj().T @ moved
        worst_cross = max(worst_cross, np.abs(overlaps - np.kron(m, eye)).max())
        worst_cross = max(worst_cross, np.abs(_column_norms(moved) - 1.0).max())
    record("orthogonal-form cross-check", worst_cross, 1e-9, f"{len(sigmas)} permutations")

    # Schmidt data across the cut after factor N-1, from one batched SVD per
    # sector; only the singular values are kept across sectors.
    worst_conf = 0.0
    worst_spec = 0.0
    if n >= 2:
        spectra = {}
        for ti, t in enumerate(tableaux):
            sector = block_mat[:, ti * expected_dim : (ti + 1) * expected_dim]
            u, coeffs, _ = np.linalg.svd(
                sector.T.reshape(expected_dim, d ** (n - 1), d), full_matrices=False
            )
            left_mat = np.concatenate(
                [u[a][:, coeffs[a] > 1e-8] for a in range(expected_dim)], axis=1
            )
            down = orthogonal_projector(remove_largest(t), d)
            worst_conf = max(
                worst_conf,
                _column_norms(down._apply_raw(left_mat) - left_mat).max(),
            )
            spectra[t] = np.sort(coeffs, axis=1)
        by_box: dict = {}
        for t in tableaux:
            by_box.setdefault(t.position(n), []).append(t)
        for group in by_box.values():
            for other in group[1:]:
                worst_spec = max(
                    worst_spec, float(np.abs(spectra[other] - spectra[group[0]]).max())
                )
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
            worst_fix = max(worst_fix, _fixed_point_residual(state, block_mat, n - 1))
    record("saturation of the exact bound", worst_sat, 1e-8)
    record("saturating-state membership", worst_mem, 1e-8)
    record("saturating-state fixed point", worst_fix, 1e-7)

    return results
