import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schurweyl.orthogonal_form import Permutation, permutation_matrix, permutation_sign
from schurweyl.young import YoungDiagram, enumerate_standard_tableaux, partitions_of


@st.composite
def permutation_strategy(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    images = draw(st.permutations(range(1, n + 1)))
    return Permutation(tuple(images))


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    def test_compose_and_inverse(self):
        s = Permutation((2, 3, 1))
        assert (s * s.inverse()).is_identity()
        assert s(1) == 2
        assert (s * s)(1) == 3

    def test_transposition(self):
        t = Permutation.transposition(4, 2, 4)
        assert t.images == (1, 4, 3, 2)
        assert permutation_sign(t.images) == -1

    @given(permutation_strategy(), permutation_strategy())
    def test_sign_multiplicative(self, a, b):
        if a.size != b.size:
            return
        assert permutation_sign((a * b).images) == (
            permutation_sign(a.images) * permutation_sign(b.images)
        )

    @given(permutation_strategy())
    def test_factorization_reconstructs(self, sigma):
        n = sigma.size
        out = Permutation(tuple(range(1, n + 1)))
        for k in sigma.adjacent_factorization():
            out = out * Permutation.transposition(n, k, k + 1)
        assert out == sigma


def generator(diagram, k):
    """The matrix of the adjacent transposition (k k+1)."""
    n = diagram.n_boxes
    return permutation_matrix(diagram, Permutation.transposition(n, k, k + 1))


class TestGeneratorMatrices:
    def test_mixing_values_for_two_one(self):
        dg = YoungDiagram((2, 1))
        assert [t.rows for t in enumerate_standard_tableaux(dg)] == [
            ((1, 2), (3,)), ((1, 3), (2,))
        ]
        expected = np.array([[-0.5, math.sqrt(0.75)], [math.sqrt(0.75), 0.5]])
        np.testing.assert_allclose(generator(dg, 2), expected, atol=1e-15)

    def test_trivial_cases(self):
        np.testing.assert_allclose(generator(YoungDiagram((4,)), 2), [[1.0]])
        np.testing.assert_allclose(generator(YoungDiagram((1, 1, 1)), 1), [[-1.0]])

    def test_k_out_of_range(self):
        # there is no (3 4) on three boxes
        with pytest.raises(ValueError):
            generator(YoungDiagram((2, 1)), 3)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_generator_relations(self, n):
        for nu in partitions_of(n):
            mats = [generator(nu, k) for k in range(1, n)]
            dim = mats[0].shape[0]
            eye = np.eye(dim)
            for m in mats:
                np.testing.assert_allclose(m @ m, eye, atol=1e-12)
                np.testing.assert_allclose(m.T @ m, eye, atol=1e-12)
            for k in range(len(mats) - 1):
                lhs = mats[k] @ mats[k + 1] @ mats[k]
                rhs = mats[k + 1] @ mats[k] @ mats[k + 1]
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)
            for k in range(len(mats)):
                for l in range(k + 2, len(mats)):
                    np.testing.assert_allclose(
                        mats[k] @ mats[l], mats[l] @ mats[k], atol=1e-12
                    )


class TestPermutationMatrices:
    def test_identity(self):
        m = permutation_matrix(YoungDiagram((2, 1)), Permutation((1, 2, 3)))
        np.testing.assert_allclose(m, np.eye(2))

    def test_adjacent_matches_generator(self):
        # 1, 2 share the row of the first tableau and the column of the second
        dg = YoungDiagram((2, 1))
        sigma = Permutation.transposition(3, 1, 2)
        np.testing.assert_allclose(permutation_matrix(dg, sigma), np.diag([1.0, -1.0]))

    def test_two_factorizations_agree(self):
        # (1 3) = (2 3)(1 2)(2 3) = (1 2)(2 3)(1 2)
        dg = YoungDiagram((2, 1))
        g1 = generator(dg, 1)
        g2 = generator(dg, 2)
        route_a = g2 @ g1 @ g2
        route_b = g1 @ g2 @ g1
        np.testing.assert_allclose(route_a, route_b, atol=1e-14)
        direct = permutation_matrix(dg, Permutation.transposition(3, 1, 3))
        np.testing.assert_allclose(direct, route_a, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 5), st.data())
    def test_homomorphism(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        sigma = Permutation.random(n, rng)
        tau = Permutation.random(n, rng)
        for nu in partitions_of(n):
            lhs = permutation_matrix(nu, sigma * tau)
            rhs = permutation_matrix(nu, sigma) @ permutation_matrix(nu, tau)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_character_is_class_function(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        sigma = Permutation.random(n, rng)
        rho = Permutation.random(n, rng)
        conjugate = rho * sigma * rho.inverse()
        for nu in partitions_of(n):
            chi_a = np.trace(permutation_matrix(nu, sigma))
            chi_b = np.trace(permutation_matrix(nu, conjugate))
            assert chi_a == pytest.approx(chi_b, abs=1e-10)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            permutation_matrix(YoungDiagram((2, 1)), Permutation((1, 2, 3, 4)))
