import json

import numpy as np
import pytest

from schurweyl.orthogonal_form import Permutation
from schurweyl.tensor_space import (
    DimensionCapError,
    PermutationSum,
    TensorState,
    aligned_sector_bases,
    antisymmetrizer,
    apply_local_unitary,
    apply_permutation,
    block_basis,
    closed_form_projector,
    column_antisymmetrizer,
    flat_dim_cap,
    orthogonal_projector,
    random_state,
    row_symmetrizer,
    subspace_basis,
    swap_factors,
    symmetrizer,
    young_projection,
)
from schurweyl.young import (
    StandardTableau,
    YoungDiagram,
    column_ordered_tableau,
    dim_unitary_group_irrep,
    enumerate_standard_tableaux,
    partitions_of,
    remove_largest,
    row_ordered_tableau,
)

RNG = np.random.default_rng(20240811)


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestTensorState:
    def test_flat_index_convention(self):
        # (i_1, i_2) -> i_1 * d + i_2: the first factor is most significant
        psi = TensorState.product_basis(3, [2, 1])
        assert np.argmax(np.abs(psi.amplitudes)) == 2 * 3 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TensorState(2, 2, np.zeros(3))
        with pytest.raises(ValueError):
            TensorState(2, 1, [np.inf, 0.0])

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("SCHURWEYL_CAP", "8")
        assert flat_dim_cap() == 8
        TensorState(2, 3, np.zeros(8))
        with pytest.raises(DimensionCapError):
            TensorState(2, 4, np.zeros(16))
        monkeypatch.setenv("SCHURWEYL_CAP", "junk")
        with pytest.raises(ValueError):
            flat_dim_cap()

    def test_amplitudes_frozen(self):
        psi = TensorState.unit(2, 2, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 3.0

    def test_tensor_and_inner(self):
        a = TensorState.single([1, 0])
        b = TensorState.single([0, 1])
        ab = a.tensor(b)
        assert ab.inner(TensorState.product_basis(2, [0, 1])) == pytest.approx(1)

    def test_json_round_trip(self):
        psi = random_state(2, 3, RNG)
        blob = json.dumps(psi.to_json_dict())
        back = TensorState.from_json_dict(json.loads(blob))
        assert back.local_dim == 2 and back.n_factors == 3
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes)


class TestPermutationAction:
    def test_identity(self):
        psi = random_state(2, 3, RNG)
        out = apply_permutation(Permutation.identity(3), psi)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_swap_basis_state(self):
        psi = TensorState.product_basis(2, [0, 1])
        out = apply_permutation(Permutation.transposition(2, 1, 2), psi)
        np.testing.assert_allclose(
            out.amplitudes, TensorState.product_basis(2, [1, 0]).amplitudes
        )

    def test_contents_move_to_image_slot(self):
        # sigma = (1 2 3): factor k moves to factor sigma(k)
        sigma = Permutation((2, 3, 1))
        psi = TensorState.product_basis(2, [1, 0, 0])
        out = apply_permutation(sigma, psi)
        np.testing.assert_allclose(
            out.amplitudes, TensorState.product_basis(2, [0, 1, 0]).amplitudes
        )

    def test_cycle_order(self):
        sigma = Permutation((2, 3, 1))
        psi = random_state(2, 3, RNG)
        out = psi
        for _ in range(3):
            out = apply_permutation(sigma, out)
        assert (out - psi).norm() < 1e-13

    def test_homomorphism(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sigma = Permutation.random(4, rng)
            tau = Permutation.random(4, rng)
            psi = random_state(2, 4, rng)
            lhs = apply_permutation(sigma * tau, psi)
            rhs = apply_permutation(sigma, apply_permutation(tau, psi))
            assert (lhs - rhs).norm() < 1e-13

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_permutation(Permutation.identity(2), random_state(2, 3, RNG))

    @pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
    def test_permutation_sum_matches_single_actions(self, d, n):
        rng = np.random.default_rng(d * 10 + n)
        terms = [(float(rng.standard_normal()), Permutation.random(n, rng)) for _ in range(4)]
        terms.append((0.5, Permutation.identity(n)))
        op = PermutationSum(d, n, terms)
        states = [random_state(d, n, rng) for _ in range(3)]
        batch = op._apply_raw(np.column_stack([x.amplitudes for x in states]))
        for col, x in enumerate(states):
            expected = sum(c * apply_permutation(sigma, x).amplitudes for c, sigma in terms)
            np.testing.assert_allclose(op._apply_raw(x.amplitudes), expected, atol=1e-13)
            np.testing.assert_allclose(batch[:, col], expected, atol=1e-13)

    def test_swap_factors(self):
        psi = random_state(2, 4, RNG)
        assert swap_factors(psi, 2, 2) is psi
        double = swap_factors(swap_factors(psi, 1, 3), 1, 3)
        assert (double - psi).norm() < 1e-14


class TestSymmetrizers:
    def test_single_entry_row_is_identity(self):
        t = StandardTableau(((1, 2), (3,)))
        op = row_symmetrizer(t, 2, 2)
        psi = random_state(2, 3, RNG)
        assert (op(psi) - psi).norm() < 1e-15

    def test_two_entry_row(self):
        t = StandardTableau(((1, 2),))
        out = row_symmetrizer(t, 1, 2)(TensorState.product_basis(2, [0, 1]))
        expected = 0.5 * (
            TensorState.product_basis(2, [0, 1]).amplitudes
            + TensorState.product_basis(2, [1, 0]).amplitudes
        )
        np.testing.assert_allclose(out.amplitudes, expected)

    def test_column_kills_repeated_indices(self):
        t = StandardTableau(((1, 3), (2,)))
        op = column_antisymmetrizer(t, 1, 2)
        psi = TensorState.product_basis(2, [0, 0, 1])
        assert op(psi).norm() < 1e-15

    def test_two_entry_column(self):
        t = StandardTableau(((1,), (2,)))
        out = column_antisymmetrizer(t, 1, 2)(TensorState.product_basis(2, [0, 1]))
        expected = 0.5 * (
            TensorState.product_basis(2, [0, 1]).amplitudes
            - TensorState.product_basis(2, [1, 0]).amplitudes
        )
        np.testing.assert_allclose(out.amplitudes, expected)

    def test_single_entry_column_is_identity(self):
        t = StandardTableau(((1, 2), (3,)))
        op = column_antisymmetrizer(t, 2, 2)
        psi = random_state(2, 3, RNG)
        assert (op(psi) - psi).norm() < 1e-15

    def test_long_row_idempotent_and_hermitian(self):
        t = StandardTableau(((1, 2, 3), (4, 5), (6,)))
        op = row_symmetrizer(t, 1, 2)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = random_state(2, 6, rng)
            y = random_state(2, 6, rng)
            px = op(x)
            assert (op(px) - px).norm() < 1e-12
            assert abs(y.inner(px) - op(y).inner(x)) < 1e-12

    def test_index_bounds(self):
        t = StandardTableau(((1, 2), (3,)))
        with pytest.raises(ValueError):
            row_symmetrizer(t, 3, 2)
        with pytest.raises(ValueError):
            column_antisymmetrizer(t, 3, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_projector_properties(self, n):
        rng = np.random.default_rng(n)
        for op in (symmetrizer(2, n), antisymmetrizer(2, n)):
            x = random_state(2, n, rng)
            y = random_state(2, n, rng)
            px = op(x)
            assert (op(px) - px).norm() < 1e-12
            assert abs(y.inner(px) - op(y).inner(x)) < 1e-12

    def test_linearity(self):
        t = StandardTableau(((1, 2, 3),))
        op = row_symmetrizer(t, 1, 2)
        x, y = random_state(2, 3, RNG), random_state(2, 3, RNG)
        lhs = op(2.0 * x + (0.5 - 1j) * y)
        rhs = 2.0 * op(x) + (0.5 - 1j) * op(y)
        assert (lhs - rhs).norm() < 1e-13


class TestYoungProjection:
    def test_row_diagram_is_symmetrizer(self):
        t = row_ordered_tableau(YoungDiagram((3,)))
        op = young_projection(t, 2)
        full = symmetrizer(2, 3)
        x = random_state(2, 3, RNG)
        assert (op(x) - full(x)).norm() < 1e-13

    def test_column_diagram_is_antisymmetrizer(self):
        t = column_ordered_tableau(YoungDiagram((1, 1, 1)))
        op = young_projection(t, 2)
        full = antisymmetrizer(2, 3)
        x = random_state(2, 3, RNG)
        assert (op(x) - full(x)).norm() < 1e-13

    def test_idempotent_but_not_hermitian(self):
        t = row_ordered_tableau(YoungDiagram((2, 1)))
        op = young_projection(t, 2)
        rng = np.random.default_rng(3)
        worst_herm = 0.0
        for _ in range(10):
            x = random_state(2, 3, rng)
            y = random_state(2, 3, rng)
            px = op(x)
            assert (op(px) - px).norm() < 1e-10
            worst_herm = max(worst_herm, abs(y.inner(px) - op(y).inner(x)))
        assert worst_herm > 1e-3  # genuinely non-hermitian


def sandwich_projector(t, d):
    """Dense reference: the recursive sandwich P_t = P_t' Y_t P_t', where t'
    drops the largest entry and P_t' acts on the leading factors."""
    n = t.n
    y = young_projection(t, d)._apply_raw(np.eye(d**n, dtype=np.complex128))
    if n <= 2:
        return y
    sub = np.kron(sandwich_projector(remove_largest(t), d), np.eye(d))
    return sub @ y @ sub


class TestOrthogonalProjector:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_sandwich_oracle(self, n, d):
        eye = np.eye(d**n, dtype=np.complex128)
        for nu in partitions_of(n):
            for t in enumerate_standard_tableaux(nu):
                dense = orthogonal_projector(t, d)._apply_raw(eye)
                np.testing.assert_allclose(dense, sandwich_projector(t, d), rtol=0, atol=1e-12)

    def test_single_box_is_identity(self):
        t = StandardTableau(((1,),))
        psi = random_state(3, 1, RNG)
        assert (orthogonal_projector(t, 3)(psi) - psi).norm() < 1e-15

    def test_two_box_column_is_singlet_projector(self):
        t = StandardTableau(((1,), (2,)))
        op = orthogonal_projector(t, 2)
        singlet = (
            TensorState.product_basis(2, [0, 1]) - TensorState.product_basis(2, [1, 0])
        ).normalized()
        x = random_state(2, 2, RNG)
        expected = singlet.inner(x) * singlet
        assert (op(x) - expected).norm() < 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_projector_algebra(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        tableaux = [t for nu in partitions_of(n) for t in enumerate_standard_tableaux(nu)]
        projs = [orthogonal_projector(t, d) for t in tableaux]
        for _ in range(3):
            x = random_state(d, n, rng)
            y = random_state(d, n, rng)
            total = None
            for proj in projs:
                px = proj(x)
                assert (proj(px) - px).norm() < 1e-10
                assert abs(y.inner(px) - proj(y).inner(x)) < 1e-10
                total = px if total is None else total + px
            assert (total - x).norm() < 1e-9
        for i, p in enumerate(projs):
            for q in projs[i + 1 :]:
                x = random_state(d, n, rng)
                assert p(q(x)).norm() < 1e-10

    def test_local_unitary_covariance(self):
        rng = np.random.default_rng(5)
        u = haar_unitary(3, rng)
        for nu in partitions_of(3):
            for t in enumerate_standard_tableaux(nu):
                proj = orthogonal_projector(t, 3)
                x = random_state(3, 3, rng)
                lhs = proj(apply_local_unitary(x, u))
                rhs = apply_local_unitary(proj(x), u)
                assert (lhs - rhs).norm() < 1e-10

    def test_rank_via_full_scan(self):
        # project every computational basis vector and count independent images
        for nu, d, per_sector in [((2, 1), 2, 2), ((3,), 2, 4), ((1, 1), 2, 1)]:
            dg = YoungDiagram(nu)
            total = 0
            for t in enumerate_standard_tableaux(dg):
                proj = orthogonal_projector(t, d)
                images = np.column_stack(
                    [
                        proj(TensorState.unit(d, dg.n_boxes, flat)).amplitudes
                        for flat in range(d**dg.n_boxes)
                    ]
                )
                rank = np.linalg.matrix_rank(images, tol=1e-8)
                assert rank == per_sector == dim_unitary_group_irrep(dg, d)
                total += rank
        # sectors of all shapes of 3 boxes at d=2 fill the whole space
        total = 0
        for nu in partitions_of(3):
            for t in enumerate_standard_tableaux(nu):
                proj = orthogonal_projector(t, 2)
                images = np.column_stack(
                    [proj(TensorState.unit(2, 3, flat)).amplitudes for flat in range(8)]
                )
                total += np.linalg.matrix_rank(images, tol=1e-8)
        assert total == 8


class TestClosedForms:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agree_with_recursion(self, n, d):
        rng = np.random.default_rng(n + 10 * d)
        for nu in partitions_of(n):
            for t in (row_ordered_tableau(nu), column_ordered_tableau(nu)):
                closed = closed_form_projector(t, d)
                projector = orthogonal_projector(t, d)
                for _ in range(3):
                    x = random_state(d, n, rng)
                    assert (closed(x) - projector(x)).norm() < 1e-10

    def test_unavailable_for_generic_tableau(self):
        t = StandardTableau(((1, 2, 4), (3, 5)))
        assert not t.is_row_ordered() and not t.is_column_ordered()
        with pytest.raises(ValueError, match="closed form unavailable"):
            closed_form_projector(t, 2)


class TestSubspaceBasis:
    def test_dimensions(self):
        t = StandardTableau(((1,), (2,)))
        assert len(subspace_basis(t, 2)) == 1
        dg = YoungDiagram((2, 1))
        for t in enumerate_standard_tableaux(dg):
            assert len(subspace_basis(t, 2)) == 2
            assert len(subspace_basis(t, 3)) == 8

    def test_empty_when_d_too_small(self):
        t = column_ordered_tableau(YoungDiagram((1, 1, 1)))
        assert subspace_basis(t, 2) == []

    def test_orthonormal_and_invariant(self):
        t = enumerate_standard_tableaux(YoungDiagram((2, 2)))[1]
        basis = subspace_basis(t, 2)
        proj = orthogonal_projector(t, 2)
        for i, b in enumerate(basis):
            assert (proj(b) - b).norm() < 1e-10
            for j, c in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(b.inner(c) - expected) < 1e-10

    @pytest.mark.parametrize(
        "rows, d",
        [((2, 1), 2), ((2, 1), 3), ((2, 2), 3), ((2, 1, 1), 3), ((3, 2), 2), ((1, 1, 1), 2)],
        ids=lambda v: f"d{v}" if isinstance(v, int) else "_".join(map(str, v)),
    )
    def test_block_basis_size(self, rows, d):
        # the per-tableau extraction stays the oracle for the block's span
        dg = YoungDiagram(rows)
        tableaux = enumerate_standard_tableaux(dg)
        basis = block_basis(dg, d)
        assert len(basis) == len(tableaux) * dim_unitary_group_irrep(dg, d)
        if d < dg.n_rows:
            assert basis == []
            return
        mat = np.column_stack([b.amplitudes for b in basis])
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(len(basis)), atol=1e-10)
        reference = sum(
            np.outer(v.amplitudes, v.amplitudes.conj())
            for t in tableaux
            for v in subspace_basis(t, d)
        )
        np.testing.assert_allclose(mat @ mat.conj().T, reference, atol=1e-10)


class TestAlignedBases:
    def test_alignment_reproduces_mixing_matrix(self):
        dg = YoungDiagram((2, 1))
        bases = aligned_sector_bases(dg, 2)
        tableaux = enumerate_standard_tableaux(dg)
        sigma = Permutation.transposition(3, 2, 3)
        from schurweyl.orthogonal_form import permutation_matrix

        m = permutation_matrix(dg, sigma).entries
        for ti, t in enumerate(tableaux):
            for a, vec in enumerate(bases[t]):
                image = apply_permutation(sigma, vec)
                for si, s in enumerate(tableaux):
                    for b, w in enumerate(bases[s]):
                        expected = m[si, ti] if a == b else 0.0
                        assert abs(w.inner(image) - expected) < 1e-12

    def test_swap_then_cut_matches_direct_trace(self):
        # moving factor k to the end and cutting there reproduces the
        # single-factor reduced spectrum of factor k
        from schurweyl.spectral import reduced_density_matrix, schmidt_decompose

        psi = random_state(2, 4, np.random.default_rng(11))
        k = 2
        moved = swap_factors(psi, k, 4)
        coeffs = schmidt_decompose(moved, 3).coefficients
        rho = reduced_density_matrix(psi, {k})
        eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
        np.testing.assert_allclose(np.sort(coeffs**2)[::-1], eigs, atol=1e-12)
