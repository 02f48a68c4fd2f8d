import itertools
import math

import numpy as np
import pytest

from schurweyl.special_states import coherent_state, optimizer_state, slater
from schurweyl.spectral import schmidt_decompose
from schurweyl.tensor_space import (
    TensorState,
    _rotated,
    column_antisymmetrizer,
    orthogonal_projector,
)
from schurweyl.young import (
    Box,
    StandardTableau,
    YoungDiagram,
    bound_for_box,
    column_ordered_tableau,
    partitions_of,
    removable_boxes,
    tableau_with_largest_in,
)


def full_antisymmetrizer(d, n):
    """The projector onto the antisymmetric subspace: the one column's
    antisymmetrizer."""
    return column_antisymmetrizer(column_ordered_tableau(YoungDiagram((1,) * n)), 1, d)


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestSlater:
    def test_single_vector(self):
        psi = slater(2, [1])
        np.testing.assert_allclose(psi.amplitudes, [0, 1])

    def test_two_vectors_give_singlet(self):
        psi = slater(2, [0, 1])
        expected = (
            TensorState.product_basis(2, [0, 1]) - TensorState.product_basis(2, [1, 0])
        ).normalized()
        assert min((psi - expected).norm(), (psi + expected).norm()) < 1e-14

    def test_antisymmetrizer_invariance(self):
        psi = slater(3, [0, 1, 2])
        assert psi.norm() == pytest.approx(1.0, abs=1e-14)
        assert (full_antisymmetrizer(3, 3)(psi) - psi).norm() < 1e-12

    def test_repeated_indices(self):
        with pytest.raises(ValueError, match="repeated"):
            slater(3, [0, 0])

    @pytest.mark.parametrize("indices, message", [
        ([], "at least one"), ([0, 3], "0..2"), ([-1], "0..2"),
    ])
    def test_rejects_empty_and_out_of_range(self, indices, message):
        with pytest.raises(ValueError, match=message):
            slater(3, indices)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_antisymmetrized_product(self, k):
        # the normalized antisymmetrization of e_{i_1} x ... x e_{i_k}
        for d in (k, k + 1):
            project = full_antisymmetrizer(d, k)
            for idx in itertools.combinations(range(d), k):
                oracle = project(TensorState.product_basis(d, idx)).amplitudes
                np.testing.assert_allclose(
                    slater(d, idx).amplitudes, math.sqrt(math.factorial(k)) * oracle,
                    rtol=0, atol=1e-14,
                )


class TestCoherentState:
    def test_column_diagram_is_slater(self):
        dg = YoungDiagram((1, 1, 1))
        t = column_ordered_tableau(dg)
        psi = coherent_state(t, 3)
        assert (psi - slater(3, [0, 1, 2])).norm() < 1e-14

    def test_row_diagram_is_power(self):
        dg = YoungDiagram((4,))
        psi = coherent_state(column_ordered_tableau(dg), d=1)
        np.testing.assert_allclose(psi.amplitudes, [1.0])
        psi2 = coherent_state(column_ordered_tableau(dg), d=2)
        np.testing.assert_allclose(
            psi2.amplitudes, TensorState.product_basis(2, [0, 0, 0, 0]).amplitudes
        )

    def test_requires_column_order(self):
        t = StandardTableau(((1, 2), (3,)))
        with pytest.raises(ValueError, match="column-ordered"):
            coherent_state(t, d=2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_membership_everywhere(self, n):
        for nu in partitions_of(n):
            t = column_ordered_tableau(nu)
            d = nu.n_rows
            psi = coherent_state(t, d=d)
            proj = orthogonal_projector(t, d)
            assert (proj(psi) - psi).norm() < 1e-9

    def test_membership_at_larger_d(self):
        dg = YoungDiagram((2, 1))
        t = column_ordered_tableau(dg)
        psi = coherent_state(t, d=4)
        assert (orthogonal_projector(t, 4)(psi) - psi).norm() < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_is_last_corners_optimizer(self, n):
        # the column-ordered tableau holds N in the corner of the last
        # column, and the coherent state is that corner's saturating state
        for nu in partitions_of(n):
            t = column_ordered_tableau(nu)
            box = max(removable_boxes(nu), key=lambda b: b.col)
            assert tableau_with_largest_in(nu, box) == t
            for d in (nu.n_rows, nu.n_rows + 1):
                np.testing.assert_allclose(
                    coherent_state(t, d).amplitudes,
                    optimizer_state(nu, box, d).amplitudes,
                    rtol=0, atol=1e-15,
                )


class TestOptimizerState:
    def test_fermion_column_is_slater(self):
        dg = YoungDiagram((1, 1, 1, 1))
        psi = optimizer_state(dg, Box(4, 1), d=4)
        assert min(
            (psi - slater(4, [0, 1, 2, 3])).norm(),
            (psi + slater(4, [0, 1, 2, 3])).norm(),
        ) < 1e-12
        lam = schmidt_decompose(psi, 3).coefficients[0]
        assert lam**2 == pytest.approx(0.25, abs=1e-12)

    def test_boson_row_is_product(self):
        dg = YoungDiagram((3,))
        psi = optimizer_state(dg, Box(1, 3), d=1)
        np.testing.assert_allclose(psi.amplitudes, [1.0])

    def test_square_diagram(self):
        psi = optimizer_state(YoungDiagram((2, 2)), Box(2, 2), d=2)
        lam = schmidt_decompose(psi, 3).coefficients[0]
        assert lam**2 == pytest.approx(0.5, abs=1e-10)

    def test_staircase_middle_box(self):
        dg = YoungDiagram((3, 2, 1))
        psi = optimizer_state(dg, Box(2, 2), d=3)
        lam = schmidt_decompose(psi, 5).coefficients[0]
        assert lam**2 == pytest.approx(2 / 3, abs=1e-10)

    def test_rejects_non_removable(self):
        with pytest.raises(ValueError, match="not removable"):
            optimizer_state(YoungDiagram((2, 2)), Box(1, 2), d=2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_saturation_and_membership_everywhere(self, n):
        for nu in partitions_of(n):
            d = nu.n_rows
            for box in removable_boxes(nu):
                psi = optimizer_state(nu, box, d=d)
                lam = schmidt_decompose(psi, n - 1).coefficients[0]
                assert lam**2 == pytest.approx(
                    float(bound_for_box(nu, box)), abs=1e-8
                )
                t = tableau_with_largest_in(nu, box)
                proj = orthogonal_projector(t, d)
                assert (proj(psi) - psi).norm() < 1e-8

    def test_frame_covariance(self):
        # u on every factor commutes with the sector projectors, so the
        # rotated optimizer stays in its sector and keeps its spectrum
        dg = YoungDiagram((2, 1))
        rng = np.random.default_rng(31)
        u = haar_unitary(3, rng)
        for box in removable_boxes(dg):
            psi = optimizer_state(dg, box, 3)
            rotated = TensorState(3, 3, _rotated(u, psi.amplitudes, 3, 3))
            spec = schmidt_decompose(psi, 2).coefficients
            spec_rotated = schmidt_decompose(rotated, 2).coefficients
            np.testing.assert_allclose(spec, spec_rotated, atol=1e-9)
            assert spec_rotated[0] ** 2 == pytest.approx(
                float(bound_for_box(dg, box)), abs=1e-9
            )
            proj = orthogonal_projector(tableau_with_largest_in(dg, box), 3)
            assert (proj(rotated) - rotated).norm() < 1e-9


class TestNonCoherentSaturator:
    def test_symmetric_combination_of_slaters(self):
        # (|u1^u2> x |u1^u3> + |u1^u3> x |u1^u2>)/sqrt(2) sits in the sector
        # of [[1,3],[2,4]] and still reaches the optimal 1/2
        s12 = slater(3, [0, 1])
        s13 = slater(3, [0, 2])
        psi = (s12.tensor(s13) + s13.tensor(s12)).normalized()
        t = StandardTableau(((1, 3), (2, 4)))
        proj = orthogonal_projector(t, 3)
        assert (proj(psi) - psi).norm() < 1e-10
        lam = schmidt_decompose(psi, 3).coefficients[0]
        assert lam**2 == pytest.approx(0.5, abs=1e-10)


def antisymmetric_norm_sq(phi, u):
    """|P_A(phi x u)|^2 for the antisymmetrizer on all factors."""
    return full_antisymmetrizer(phi.local_dim, phi.n_factors + 1)(phi.tensor(u)).norm() ** 2


class TestColemanCondition:
    # for an antisymmetric phi of k-1 factors, |P_A(phi x u)|^2 reaches
    # |phi|^2 / k exactly when u is orthogonal to every vector of phi
    def test_orthogonal_vector_reaches_equality(self):
        phi = slater(3, [0, 1])
        e2 = TensorState.unit(3, 1, 2)
        assert antisymmetric_norm_sq(phi, e2) == pytest.approx(1 / 3, abs=1e-12)

    def test_contained_vector_collapses(self):
        phi = slater(3, [0, 1])
        e0 = TensorState.unit(3, 1, 0)
        assert antisymmetric_norm_sq(phi, e0) == pytest.approx(0.0, abs=1e-12)

    def test_partial_overlap(self):
        phi = slater(3, [0, 1])
        u = TensorState(3, 1, np.array([1, 0, 1]) / math.sqrt(2))
        assert antisymmetric_norm_sq(phi, u) == pytest.approx(1 / 6, abs=1e-12)

    def test_two_factor_case(self):
        e0, e1 = TensorState.unit(2, 1, 0), TensorState.unit(2, 1, 1)
        assert antisymmetric_norm_sq(e0, e1) == pytest.approx(0.5, abs=1e-14)
