import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from schurweyl.orthogonal_form import Permutation
from schurweyl.tensor_space import (
    OperatorExpr,
    TensorState,
    _rotated,
    antisymmetrizer,
    apply_local_unitary,
    apply_permutation,
    block_basis,
    closed_form_projector,
    column_antisymmetrizer,
    orthogonal_projector,
    permute_matrix_columns,
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
    axial_distance,
    column_ordered_tableau,
    dim_unitary_group_irrep,
    dominates,
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
        # scale * (shift + sum +-sigma) per stage, the rightmost stage first
        rng = np.random.default_rng(d * 10 + n)
        stages = [
            (
                Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))),
                Fraction(int(rng.integers(-3, 4)), 2),
                tuple((int(rng.choice([-1, 1])), Permutation.random(n, rng)) for _ in range(3)),
            )
            for _ in range(3)
        ]
        op = OperatorExpr(d, n, stages)
        states = [random_state(d, n, rng) for _ in range(3)]
        batch_in = np.column_stack([x.amplitudes for x in states])
        batch = op._apply_raw(batch_in)
        for col, x in enumerate(states):
            expected = x.amplitudes
            for scale, shift, terms in reversed(stages):
                acted = [sign * apply_permutation(sigma, TensorState(d, n, expected)).amplitudes
                         for sign, sigma in terms]
                expected = float(scale) * (float(shift) * expected + sum(acted))
            np.testing.assert_allclose(op._apply_raw(x.amplitudes), expected, atol=1e-13)
            np.testing.assert_allclose(batch[:, col], expected, atol=1e-13)
            np.testing.assert_array_equal(batch_in[:, col], x.amplitudes)

    def test_stage_validation(self):
        swap = Permutation.transposition(3, 1, 2)
        with pytest.raises(ValueError, match="sign"):
            OperatorExpr(2, 3, [(1, 0, ((2, swap),))])
        with pytest.raises(ValueError, match="size"):
            OperatorExpr(2, 4, [(1, 0, ((1, swap),))])

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


# Dense operator oracle, independent of the package's operator code: group
# algebra elements are dicts {one-line images: Fraction}, multiplied exactly
# with (sigma tau)(k) = sigma(tau(k)), and turned into d^n x d^n matrices by
# flat-index arithmetic, out[j_1..j_n] = psi[j_sigma(1)..j_sigma(n)].


def group_average(n, members, signed):
    """(1/k!) sum over the permutations of ``members``, signed by parity
    when asked; the other points are fixed."""
    members = sorted(members)
    out = {}
    for perm in itertools.permutations(members):
        images = list(range(1, n + 1))
        for src, dst in zip(members, perm):
            images[src - 1] = dst
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        out[tuple(images)] = Fraction(-1 if signed and odd else 1, math.factorial(len(members)))
    return out


def algebra_product(n, *elements):
    result = {tuple(range(1, n + 1)): Fraction(1)}
    for element in elements:
        product = {}
        for sigma, a in result.items():
            for tau, b in element.items():
                key = tuple(sigma[v - 1] for v in tau)
                product[key] = product.get(key, 0) + a * b
        result = product
    return result


def dense(element, n, d):
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)
    weights = d ** np.arange(n - 1, -1, -1)
    rows = np.arange(d**n)
    out = np.zeros((d**n, d**n))
    for images, coeff in element.items():
        out[rows, digits[:, np.array(images) - 1] @ weights] += float(coeff)
    return out


def tableau_columns(t):
    return [[row[j] for row in t.rows if len(row) > j] for j in range(len(t.rows[0]))]


def row_and_column_averages(t):
    rows = [group_average(t.n, row, False) for row in t.rows]
    cols = [group_average(t.n, col, True) for col in tableau_columns(t)]
    return rows, cols


def hook_product_by_definition(t):
    shape = [len(row) for row in t.rows]
    return math.prod(
        shape[i] - j + sum(1 for r in shape[i + 1 :] if r > j)
        for i in range(len(shape))
        for j in range(shape[i])
    )


def young_scale(t):
    # rows! columns! / hooks: the averages carry 1/|R| 1/|C|, the idempotent
    # Young symmetrizer (sum_R p)(sum_C sgn(q) q) carries 1/hooks
    rows, cols = row_and_column_averages(t)
    size = math.prod(len(g) for g in rows + cols)
    return Fraction(size, hook_product_by_definition(t))


def oracle_young(t, d):
    rows, cols = row_and_column_averages(t)
    element = algebra_product(t.n, *rows, *cols)
    return float(young_scale(t)) * dense(element, t.n, d)


def oracle_closed_form(t, d):
    rows, cols = row_and_column_averages(t)
    if t.is_row_ordered():
        factors = (*rows, *cols, *rows)
    else:
        factors = (*cols, *rows, *cols)
    return float(young_scale(t)) * dense(algebra_product(t.n, *factors), t.n, d)


def sandwich_projector(t, d):
    """Dense reference: the recursive sandwich P_t = P_t' Y_t P_t', where t'
    drops the largest entry and P_t' acts on the leading factors."""
    y = oracle_young(t, d)
    if t.n <= 2:
        return y
    sub = np.kron(sandwich_projector(remove_largest(t), d), np.eye(d))
    return sub @ y @ sub


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operators_match_dense_oracle(n, d):
    eye = np.eye(d**n, dtype=np.complex128)

    def check(op, expected):
        np.testing.assert_allclose(op._apply_raw(eye), expected, rtol=0, atol=1e-12)

    everything = range(1, n + 1)
    check(symmetrizer(d, n), dense(group_average(n, everything, False), n, d))
    check(antisymmetrizer(d, n), dense(group_average(n, everything, True), n, d))
    for nu in partitions_of(n):
        for t in enumerate_standard_tableaux(nu):
            for i, row in enumerate(t.rows, start=1):
                check(row_symmetrizer(t, i, d), dense(group_average(n, row, False), n, d))
            for j, col in enumerate(tableau_columns(t), start=1):
                check(column_antisymmetrizer(t, j, d), dense(group_average(n, col, True), n, d))
            check(young_projection(t, d), oracle_young(t, d))
            if t.is_row_ordered() or t.is_column_ordered():
                check(closed_form_projector(t, d), oracle_closed_form(t, d))
            check(orthogonal_projector(t, d), sandwich_projector(t, d))


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
        # the same map on every column of a batch is the dense kron(u, u, u)
        mat = np.column_stack([random_state(3, 3, rng).amplitudes for _ in range(4)])
        np.testing.assert_allclose(
            _rotated(u, mat, 3, 3), np.kron(np.kron(u, u), u) @ mat, rtol=0, atol=1e-13
        )

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


def scan_basis(t, d):
    """Per-candidate extraction, the oracle for the batched seed.

    Projects computational basis states one at a time in flat-index order,
    skipping those whose digit multiplicities the block cannot hold
    (dominance order), and keeps each image that Gram-Schmidt leaves with
    norm above 1e-8, until dim V directions are found.
    """
    dg = t.diagram
    expected = dim_unitary_group_irrep(dg, d)
    proj = orthogonal_projector(t, d)
    kept = []
    for idx in itertools.product(range(d), repeat=t.n):
        if len(kept) == expected:
            break
        if not dominates(dg.rows, tuple(sorted(Counter(idx).values(), reverse=True))):
            continue
        vec = proj._apply_raw(TensorState.product_basis(d, idx).amplitudes)
        for _ in range(2):
            for b in kept:
                vec = vec - np.vdot(b, vec) * b
        nrm = np.linalg.norm(vec)
        if nrm > 1e-8:
            kept.append(vec / nrm)
    assert len(kept) == expected
    return np.column_stack(kept) if kept else np.zeros((d**t.n, 0), dtype=complex)


def columns(mat, d, n):
    return [TensorState(d, n, col) for col in mat.T]


class TestSubspaceBasis:
    def test_dimensions(self):
        t = StandardTableau(((1,), (2,)))
        assert subspace_basis(t, 2).scatter().shape == (4, 1)
        dg = YoungDiagram((2, 1))
        for t in enumerate_standard_tableaux(dg):
            assert subspace_basis(t, 2).scatter().shape == (8, 2)
            assert subspace_basis(t, 3).scatter().shape == (27, 8)

    def test_empty_when_d_too_small(self):
        t = column_ordered_tableau(YoungDiagram((1, 1, 1)))
        for basis in (subspace_basis(t, 2), block_basis(YoungDiagram((1, 1, 1)), 2)):
            assert (basis.d, basis.n, len(basis)) == (2, 3, 0)
            assert basis.scatter().shape == (8, 0)

    def test_orthonormal_and_invariant(self):
        t = enumerate_standard_tableaux(YoungDiagram((2, 2)))[1]
        basis = columns(subspace_basis(t, 2).scatter(), 2, 4)
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
        mat = block_basis(dg, d).scatter()
        assert mat.shape == (d**dg.n_boxes, len(tableaux) * dim_unitary_group_irrep(dg, d))
        if d < dg.n_rows:
            return
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(mat.shape[1]), atol=1e-10)
        reference = sum(
            (lambda q: q @ q.conj().T)(scan_basis(t, d)) for t in tableaux
        )
        np.testing.assert_allclose(mat @ mat.conj().T, reference, atol=1e-10)

    @pytest.mark.parametrize(
        "n, d",
        [
            pytest.param(n, d, marks=pytest.mark.slow) if d**n > 4**6 else (n, d)
            for d in range(1, 5)
            for n in range(1, 8)
        ],
    )
    def test_seed_spans_sector(self, n, d):
        # every tableau of every shape: dim V orthonormal vectors, checked
        # one weight block at a time (columns of different weights share no
        # row), and where the scan is cheap the same span (compared without
        # d^N x d^N projectors: ||Q_scan^H Q||_F^2 equals dim V exactly
        # when they agree)
        for nu in partitions_of(n):
            expected = dim_unitary_group_irrep(nu, d)
            for t in enumerate_standard_tableaux(nu):
                seed = subspace_basis(t, d)
                assert len(seed) == expected
                if not expected:
                    continue
                for _, blocks, _ in seed.stacks:
                    gram = blocks.conj().transpose(0, 2, 1) @ blocks
                    eye = np.broadcast_to(np.eye(gram.shape[1]), gram.shape)
                    np.testing.assert_allclose(gram, eye, atol=1e-10)
                if d**n <= 256:
                    overlap = np.linalg.norm(scan_basis(t, d).conj().T @ seed.scatter()) ** 2
                    assert overlap == pytest.approx(expected, abs=1e-10)


def weight_labels(d, n):
    # the digit multiset of every flat index, numbered in order of appearance
    labels = {}
    return np.array([
        labels.setdefault(tuple(sorted(idx)), len(labels))
        for idx in itertools.product(range(d), repeat=n)
    ])


def assert_weight_vectors(mat, labels):
    own = labels[np.argmax(np.abs(mat), axis=0)]
    assert (mat[labels[:, None] != own] == 0.0).all()


@pytest.mark.parametrize("n, d", [(n, d) for d in range(1, 5) for n in range(1, 7)])
def test_bases_are_exact_weight_vectors(n, d):
    # a permutation of factors keeps every digit multiset, so each column of
    # the seed and of the transported block is exactly zero off its weight
    labels = weight_labels(d, n)
    for nu in partitions_of(n):
        for t in enumerate_standard_tableaux(nu):
            assert_weight_vectors(subspace_basis(t, d).scatter(), labels)
        assert_weight_vectors(block_basis(nu, d).scatter(), labels)


class TestWeightLocalStages:
    def test_seed_and_block_make_no_dense_projection(self, monkeypatch):
        def refuse(self, arr):
            raise AssertionError("dense projector application")

        monkeypatch.setattr(OperatorExpr, "_apply_raw", refuse)
        dg = YoungDiagram((3, 2, 1))
        assert len(block_basis(dg, 3)) == 16 * 8
        assert len(subspace_basis(enumerate_standard_tableaux(dg)[3], 3)) == 8

    @staticmethod
    def assert_matches_dense(project, op):
        # random columns on every weight block; the dense operator, applied
        # to their scatter, must give the weight-local result bit for bit on
        # each block's rows (an operator on m < N factors as op x 1)
        arrays = [
            RNG.standard_normal(blocks.shape) + 1j * RNG.standard_normal(blocks.shape)
            for _, blocks, _ in project.stacks
        ]
        width = sum(len(a) * a.shape[2] for a in arrays)
        dense = np.zeros((project.d**project.n, width), dtype=complex)
        places = []
        start = 0
        for (part, blocks, _), arr in zip(project.stacks, arrays):
            rows = project.gather[part].reshape(blocks.shape[:2])
            cols = start + np.arange(len(arr) * arr.shape[2]).reshape(len(arr), -1)
            start += cols.size
            dense[rows[:, :, None], cols[:, None, :]] = arr
            places.append((rows, cols))
        split = (project.d**op.n_factors, -1)
        out = op._apply_raw(dense.reshape(split)).reshape(dense.shape)
        for (rows, cols), got in zip(places, project.apply(op, arrays)):
            np.testing.assert_array_equal(got, out[rows[:, :, None], cols[:, None, :]])

    @pytest.mark.parametrize("build", [orthogonal_projector, young_projection, closed_form_projector],
                             ids=["orthogonal", "young", "closed-form"])
    @pytest.mark.parametrize("rows, d", [((2, 1), 2), ((3, 2, 1), 3), ((2, 2, 1, 1), 4)],
                             ids=["21-d2", "321-d3", "2211-d4"])
    def test_apply_matches_dense(self, build, rows, d):
        dg = YoungDiagram(rows)
        self.assert_matches_dense(block_basis(dg, d), build(row_ordered_tableau(dg), d))

    def test_apply_on_leading_factors(self):
        dg = YoungDiagram((3, 2, 1))
        t = enumerate_standard_tableaux(dg)[4]
        self.assert_matches_dense(block_basis(dg, 3), orthogonal_projector(remove_largest(t), 3))


class TestAlignedBases:
    def test_alignment_reproduces_mixing_matrix(self):
        dg = YoungDiagram((2, 1))
        block = block_basis(dg, 2).scatter()
        sectors = np.split(block, len(enumerate_standard_tableaux(dg)), axis=1)
        sigma = Permutation.transposition(3, 2, 3)
        from schurweyl.orthogonal_form import permutation_matrix

        m = permutation_matrix(dg, sigma).entries
        for ti, v_t in enumerate(sectors):
            for a, vec in enumerate(columns(v_t, 2, 3)):
                image = apply_permutation(sigma, vec)
                for si, v_s in enumerate(sectors):
                    for b, w in enumerate(columns(v_s, 2, 3)):
                        expected = m[si, ti] if a == b else 0.0
                        assert abs(w.inner(image) - expected) < 1e-12

    @pytest.mark.parametrize(
        "rows, d", [((3, 2, 1), 3), ((2, 2, 1, 1), 4)], ids=["321-d3", "2211-d4"]
    )
    def test_transport_is_orthogonal_form(self, rows, d):
        # sigma_k v_t = v_t / r + sqrt(1 - 1/r^2) v_s, s = (k k+1) t, for the
        # axial distance r; for |r| = 1 there is no s and sigma_k v_t = r v_t
        dg = YoungDiagram(rows)
        n = dg.n_boxes
        tableaux = enumerate_standard_tableaux(dg)
        mats = dict(zip(tableaux, np.split(block_basis(dg, d).scatter(), len(tableaux), axis=1)))
        for t, v_t in mats.items():
            for k in range(1, n):
                r = axial_distance(t, k)
                expected = v_t / r
                if abs(r) >= 2:
                    expected = expected + math.sqrt(1 - 1 / r**2) * mats[t.with_swap(k)]
                moved = permute_matrix_columns(
                    Permutation.transposition(n, k, k + 1), v_t, d, n
                )
                np.testing.assert_allclose(moved, expected, rtol=0, atol=1e-12)

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
