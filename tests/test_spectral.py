import math

import numpy as np
import pytest

from schurweyl.spectral import (
    MaximizeConfig,
    entanglement_entropy,
    max_lambda1_over_subspace,
    reduced_density_matrix,
    schmidt_decompose,
    verify_fixed_point,
)
from schurweyl.orthogonal_form import Permutation
from schurweyl.special_states import OrthonormalFrame, optimizer_state, slater
from schurweyl.tensor_space import (
    TensorState,
    WeightBlocks,
    apply_local_unitary,
    block_basis,
    random_state,
    subspace_basis,
)
from schurweyl.young import (
    Box,
    StandardTableau,
    YoungDiagram,
    entropy_lower_bound,
    max_schmidt_bound,
    partitions_of,
)

RNG = np.random.default_rng(515)


def singlet():
    return (
        TensorState.product_basis(2, [0, 1]) - TensorState.product_basis(2, [1, 0])
    ).normalized()


def singlet_basis():
    return subspace_basis(StandardTableau(((1,), (2,))), 2)


def naive_partial_trace(psi, keep):
    # brute-force loop over all index tuples, independent of tensordot
    d, n = psi.local_dim, psi.n_factors
    keep = sorted(keep)
    m = d ** len(keep)
    rho = np.zeros((m, m), dtype=complex)
    amps = psi.amplitudes
    tuples = list(np.ndindex(*(d,) * n))
    for a, ia in enumerate(tuples):
        for b, ib in enumerate(tuples):
            if any(ia[q] != ib[q] for q in range(n) if q + 1 not in keep):
                continue
            ra = sum(ia[q - 1] * d ** (len(keep) - 1 - i) for i, q in enumerate(keep))
            rb = sum(ib[q - 1] * d ** (len(keep) - 1 - i) for i, q in enumerate(keep))
            rho[ra, rb] += amps[a] * np.conj(amps[b])
    return rho


class TestReducedDensityMatrix:
    def test_product_state(self):
        psi = TensorState.product_basis(2, [0, 1])
        rho = reduced_density_matrix(psi, {2})
        np.testing.assert_allclose(rho, [[0, 0], [0, 1]], atol=1e-15)

    def test_singlet(self):
        rho = reduced_density_matrix(singlet(), {2})
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_slater_three(self):
        frame = OrthonormalFrame.standard(3)
        psi = slater(frame, [0, 1, 2])
        rho = reduced_density_matrix(psi, {3})
        np.testing.assert_allclose(rho, np.eye(3) / 3, atol=1e-14)

    def test_matches_naive_trace(self):
        psi = random_state(2, 4, RNG)
        for keep in ({1}, {3}, {2, 4}, {1, 2, 3}):
            np.testing.assert_allclose(
                reduced_density_matrix(psi, keep),
                naive_partial_trace(psi, keep),
                atol=1e-12,
            )

    def test_properties(self):
        psi = random_state(3, 3, RNG)
        rho = reduced_density_matrix(psi, {1, 3})
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_keep_set_validation(self):
        psi = random_state(2, 3, RNG)
        with pytest.raises(ValueError):
            reduced_density_matrix(psi, set())
        with pytest.raises(ValueError):
            reduced_density_matrix(psi, {1, 2, 3})
        with pytest.raises(ValueError):
            reduced_density_matrix(psi, {0})


class TestSchmidt:
    def test_product_state(self):
        psi = TensorState.product_basis(2, [0, 1, 1])
        sr = schmidt_decompose(psi, 1)
        assert sr.coefficients[0] == pytest.approx(1.0)
        assert sr.coefficients[1:].max() < 1e-15

    def test_singlet(self):
        sr = schmidt_decompose(singlet(), 1)
        np.testing.assert_allclose(sr.coefficients, [2**-0.5, 2**-0.5], atol=1e-15)

    def test_slater_flat_spectrum(self):
        frame = OrthonormalFrame.standard(3)
        psi = slater(frame, [0, 1, 2])
        sr = schmidt_decompose(psi, 2)
        np.testing.assert_allclose(sr.coefficients**2, [1 / 3] * 3, atol=1e-14)

    def test_reconstruction_and_normalization(self):
        psi = random_state(2, 4, RNG)
        for k in (1, 2, 3):
            sr = schmidt_decompose(psi, k)
            assert (sr.coefficients**2).sum() == pytest.approx(1.0, abs=1e-10)
            rebuilt = None
            for lam, left, right in zip(sr.coefficients, sr.left_vectors, sr.right_vectors):
                term = lam * left.tensor(right)
                rebuilt = term if rebuilt is None else rebuilt + term
            assert (rebuilt - psi).norm() < 1e-9

    def test_squared_coefficients_are_rdm_eigenvalues(self):
        psi = random_state(2, 4, RNG)
        sr = schmidt_decompose(psi, 2)
        rho = reduced_density_matrix(psi, {1, 2})
        eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
        np.testing.assert_allclose(np.sort(sr.coefficients**2)[::-1], eigs, atol=1e-10)

    def test_cut_validation(self):
        with pytest.raises(ValueError):
            schmidt_decompose(random_state(2, 3, RNG), 3)

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        psi = random_state(2, 4, rng)
        before = schmidt_decompose(psi, 2).coefficients
        after = schmidt_decompose(apply_local_unitary(psi, u), 2).coefficients
        np.testing.assert_allclose(before, after, atol=1e-9)


class TestEntropy:
    def test_examples(self):
        assert entanglement_entropy(TensorState.product_basis(2, [0, 1]), 1) == 0.0
        assert entanglement_entropy(singlet(), 1) == pytest.approx(math.log(2))
        frame = OrthonormalFrame.standard(3)
        psi = slater(frame, [0, 1, 2])
        assert entanglement_entropy(psi, 2) == pytest.approx(math.log(3))

    def test_bounded_by_log_dims(self):
        for _ in range(5):
            psi = random_state(2, 4, RNG)
            for k in (1, 2, 3):
                s = entanglement_entropy(psi, k)
                assert 0.0 <= s <= math.log(min(2**k, 2 ** (4 - k))) + 1e-12


class TestMaximization:
    def test_antisymmetric_two_qubits(self):
        report = max_lambda1_over_subspace(singlet_basis(), 1, MaximizeConfig(restarts=4, seed=0))
        assert report.best_lambda1_sq == pytest.approx(0.5, abs=1e-10)

    def test_mixed_symmetry_block_reaches_one(self):
        basis = block_basis(YoungDiagram((2, 1)), 2)
        report = max_lambda1_over_subspace(basis, 2, MaximizeConfig(restarts=16, seed=1))
        assert report.best_lambda1_sq == pytest.approx(1.0, abs=1e-7)

    def test_square_diagram_reaches_half(self):
        basis = block_basis(YoungDiagram((2, 2)), 2)
        report = max_lambda1_over_subspace(basis, 3, MaximizeConfig(restarts=16, seed=0))
        assert report.best_lambda1_sq == pytest.approx(0.5, abs=1e-6)

    def test_staircase_block_reaches_one(self):
        basis = block_basis(YoungDiagram((3, 2, 1)), 3)
        report = max_lambda1_over_subspace(basis, 5, MaximizeConfig(restarts=12, seed=0))
        assert report.best_lambda1_sq == pytest.approx(1.0, abs=1e-6)

    def test_monotone_traces(self):
        basis = block_basis(YoungDiagram((2, 2)), 2)
        report = max_lambda1_over_subspace(basis, 3, MaximizeConfig(restarts=8, seed=3))
        for trace in report.objective_traces:
            diffs = np.diff(np.array(trace))
            assert (diffs >= -1e-12).all()

    def test_soundness_against_exact_bound(self):
        for nu in partitions_of(3) + partitions_of(4):
            dg = YoungDiagram(nu.rows)
            d = dg.n_rows
            basis = block_basis(dg, d)
            report = max_lambda1_over_subspace(
                basis, dg.n_boxes - 1, MaximizeConfig(restarts=6, seed=0),
                analytic_bound=max_schmidt_bound(dg)[0],
            )
            assert report.best_lambda1_sq <= float(report.analytic_bound) + 1e-7

    def test_seeded_pair_takes_over(self):
        dg = YoungDiagram((2, 2))
        basis = block_basis(dg, 2)
        state = optimizer_state(dg, Box(2, 2), d=2)
        sr = schmidt_decompose(state, 3)
        report = max_lambda1_over_subspace(
            basis, 3, MaximizeConfig(restarts=1, seed=0),
            initial_pairs=[(sr.left_vectors[0], sr.right_vectors[0])],
        )
        assert report.restarts == 2
        assert report.best_lambda1_sq == pytest.approx(0.5, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty basis"):
            max_lambda1_over_subspace(block_basis(YoungDiagram((1, 1, 1)), 2), 1)
        # one weight block, {0,1}, whose two columns are both |01>
        column = np.array([[1], [0]], dtype=complex)
        bad = np.concatenate([column, column], axis=1)[None]
        with pytest.raises(ValueError, match="orthonormal"):
            WeightBlocks(2, 2, np.array([1, 2]), [(slice(0, 2), bad, np.array([[0, 1]]))])
        with pytest.raises(ValueError, match="cut must be in 1..1"):
            max_lambda1_over_subspace(singlet_basis(), 2)

    def test_rejects_pair_on_another_local_dimension(self):
        # the right factor has d = 3, the basis d = 2
        pair = (TensorState.single([1, 0]), TensorState.single([0, 1, 0]))
        with pytest.raises(ValueError, match="local dimension 2"):
            max_lambda1_over_subspace(singlet_basis(), 1, initial_pairs=[pair])

    def test_report_serialization(self):
        report = max_lambda1_over_subspace(singlet_basis(), 1, MaximizeConfig(restarts=2, seed=0))
        blob = report.to_json_dict()
        assert "objective_traces" not in blob
        blob = report.to_json_dict(include_trace=True)
        assert len(blob["objective_traces"]) == 2

    def test_orthogonal_start_ending_on_reset_raises(self):
        # e0 x e0 has no singlet component: the only step resets the pair
        e0 = TensorState.single([1, 0])
        with pytest.raises(RuntimeError, match="no restart produced a state"):
            max_lambda1_over_subspace(
                singlet_basis(), 1, MaximizeConfig(restarts=0, max_iterations=1),
                initial_pairs=[(e0, e0)],
            )

    def test_random_restarts_follow_orthogonal_start(self):
        e0 = TensorState.single([1, 0])
        report = max_lambda1_over_subspace(
            singlet_basis(), 1, MaximizeConfig(restarts=2, max_iterations=1, seed=0),
            initial_pairs=[(e0, e0)],
        )
        assert report.objective_traces[0] == (0.0,)
        assert report.best_restart in (1, 2)
        assert report.best_lambda1_sq == report.objective_traces[report.best_restart][-1]
        assert report.best_lambda1_sq > 0
        # the one-dimensional subspace holds only the singlet, up to phase
        assert abs(abs(singlet().inner(report.maximizer)) - 1) < 1e-12

    @pytest.mark.parametrize("rows, d, cut", [((2, 2), 2, 3), ((2, 1, 1), 3, 2)])
    def test_report_residual_equals_verify(self, rows, d, cut):
        basis = block_basis(YoungDiagram(rows), d)
        report = max_lambda1_over_subspace(basis, cut, MaximizeConfig(restarts=4, seed=0))
        assert report.fixed_point_residual == verify_fixed_point(report.maximizer, basis, cut)

    def test_cut_covariance(self):
        # splitting off factor 1 instead of the last factor gives the same max
        dg = YoungDiagram((2, 1))
        basis = block_basis(dg, 2)
        rows = basis.row_map(Permutation.transposition(3, 1, 3))
        swapped = WeightBlocks(2, 3, basis.gather, [
            (part, blocks.reshape(-1, blocks.shape[2])[r].reshape(blocks.shape), cols)
            for (part, blocks, cols), r in zip(basis.stacks, rows)
        ])
        direct = max_lambda1_over_subspace(basis, 2, MaximizeConfig(restarts=12, seed=0))
        moved = max_lambda1_over_subspace(swapped, 2, MaximizeConfig(restarts=12, seed=0))
        assert direct.best_lambda1_sq == pytest.approx(moved.best_lambda1_sq, abs=1e-6)


# Recorded from the power-step ascent (one alternating power step per
# iteration, no SVD): restart iteration counts, index of the best restart
# and best objective, at 32 restarts.  ``svd_best`` is the best objective
# the earlier ascent reached when it took the top Schmidt pair by a full
# SVD each step; the two differ by at most 3.4e-11.  On the mid-cut
# (2,1,1)/d6 case four restarts stop at the 500-iteration cap.
ALL_CONVERGED = (True,) * 32
ASCENT_RECORD = [
    ((2, 2, 1), 3, 2, 0, 1, 0.9999999999973995, 0.9999999999976598, (
        16, 15, 15, 15, 15, 15, 19, 17, 17, 17, 16, 15, 15, 18, 15, 14,
        16, 15, 14, 14, 18, 15, 18, 14, 15, 17, 14, 15, 16, 14, 15, 14), ALL_CONVERGED),
    ((2, 2, 1), 3, 2, 1, 5, 0.9999999999976154, 0.9999999999976311, (
        15, 14, 14, 22, 15, 15, 17, 14, 14, 15, 16, 16, 15, 16, 17, 14,
        15, 16, 16, 16, 16, 17, 15, 16, 14, 15, 15, 16, 15, 16, 14, 15), ALL_CONVERGED),
    ((3, 2, 1), 3, 5, 0, 30, 0.9999999999638027, 0.9999999999633118, (
        30, 30, 31, 29, 30, 31, 29, 30, 30, 30, 30, 30, 30, 30, 29, 30,
        30, 30, 30, 30, 30, 29, 30, 30, 30, 30, 29, 30, 30, 30, 31, 30), ALL_CONVERGED),
    ((3, 2, 1), 3, 5, 1, 8, 0.9999999999642949, 0.9999999999642883, (
        29, 29, 29, 29, 30, 30, 30, 30, 30, 29, 29, 29, 30, 30, 30, 30,
        30, 30, 30, 29, 30, 30, 29, 30, 29, 30, 30, 30, 30, 30, 30, 30), ALL_CONVERGED),
    ((2, 1, 1), 6, 2, 0, 27, 0.4999999999010162, 0.4999999998676766, (
        96, 70, 106, 480, 49, 146, 125, 47, 121, 177, 241, 500, 99, 86, 172, 65,
        138, 61, 308, 500, 136, 115, 180, 208, 89, 148, 109, 36, 78, 500, 500, 128),
        tuple(i not in (11, 19, 29, 30) for i in range(32))),
]


@pytest.mark.parametrize(
    "rows, d, cut, seed, best_restart, best_value, svd_best, iterations, converged",
    ASCENT_RECORD,
    ids=[f"{''.join(map(str, r[0]))}-d{r[1]}-cut{r[2]}-seed{r[3]}" for r in ASCENT_RECORD],
)
def test_ascent_matches_record(
    rows, d, cut, seed, best_restart, best_value, svd_best, iterations, converged
):
    basis = block_basis(YoungDiagram(rows), d)
    report = max_lambda1_over_subspace(basis, cut, MaximizeConfig(seed=seed))
    assert report.iterations == iterations
    assert report.converged == converged
    assert report.best_restart == best_restart
    assert report.best_lambda1_sq == pytest.approx(best_value, abs=1e-12)
    assert abs(report.best_lambda1_sq - svd_best) <= 1e-9


@pytest.mark.parametrize(
    "rows, d",
    [((2, 1), 2), ((2, 2), 2), ((2, 1, 1), 3), ((3, 1), 3), ((2, 2, 1), 3),
     ((3, 2, 1), 3), ((2, 2, 1, 1), 4)],
    ids=["21-d2", "22-d2", "211-d3", "31-d3", "221-d3", "321-d3", "2211-d4"],
)
def test_power_step_reaches_bound_unseeded(rows, d):
    # cut N-1 with random restarts only: no pair from the saturating state
    dg = YoungDiagram(rows)
    exact, _ = max_schmidt_bound(dg)
    report = max_lambda1_over_subspace(
        block_basis(dg, d), dg.n_boxes - 1, MaximizeConfig(restarts=32, seed=0)
    )
    assert report.converged[report.best_restart]
    assert abs(report.best_lambda1_sq - float(exact)) <= 1e-9


def test_ascent_takes_no_svd(monkeypatch):
    # the one SVD left is the fixed-point residual's top Schmidt pair
    blocks = block_basis(YoungDiagram((2, 1, 1)), 6)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    max_lambda1_over_subspace(blocks, 2, MaximizeConfig(restarts=2, seed=0))
    assert calls == [(36, 36)]


class TestFixedPoint:
    def test_singlet_is_fixed(self):
        assert verify_fixed_point(singlet(), singlet_basis(), 1) < 1e-10

    def test_optimizer_state_is_fixed(self):
        dg = YoungDiagram((2, 2))
        basis = block_basis(dg, 2)
        state = optimizer_state(dg, Box(2, 2), d=2)
        assert verify_fixed_point(state, basis, 3) < 1e-8

    def test_generic_state_is_not_fixed(self):
        # the (2,2) block at d=2 is one-dimensional per sector and every state
        # there saturates the bound, so a generic control needs a wider block
        dg = YoungDiagram((2, 1))
        basis = block_basis(dg, 2)
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        coeffs /= np.linalg.norm(coeffs)
        psi = TensorState(2, 3, basis.scatter() @ coeffs)
        assert verify_fixed_point(psi, basis, 2) > 0.01

    def test_rejects_state_outside_span(self):
        dg = YoungDiagram((2, 2))
        basis = block_basis(dg, 2)
        outside = TensorState.product_basis(2, [0, 0, 0, 0])
        with pytest.raises(ValueError, match="outside"):
            verify_fixed_point(outside, basis, 3)

    @pytest.mark.parametrize("k", [0, 3])
    def test_rejects_cut_outside_range(self, k):
        # a (2,1), d = 2 block state: at k = 0 or k = N any state is its own
        # top Schmidt pair, and would read as a fixed point
        basis = block_basis(YoungDiagram((2, 1)), 2)
        psi = TensorState(2, 3, basis.scatter()[:, 0])
        with pytest.raises(ValueError, match=r"cut must be in 1\.\.2"):
            verify_fixed_point(psi, basis, k)

    def test_rejects_state_on_another_space(self):
        basis = block_basis(YoungDiagram((2, 2)), 2)
        other = TensorState.product_basis(3, [0, 0, 0, 0])
        with pytest.raises(ValueError, match="state on d=3, n=4"):
            verify_fixed_point(other, basis, 3)


WEIGHT_SHAPES = pytest.mark.parametrize(
    "rows, d", [((2, 1), 2), ((3, 2, 1), 3), ((2, 2, 1, 1), 4), ((2, 1, 1), 6)],
    ids=["21-d2", "321-d3", "2211-d4", "211-d6"],
)


class TestWeightProjector:
    @WEIGHT_SHAPES
    def test_matches_dense_projection(self, rows, d):
        basis = block_basis(YoungDiagram(rows), d)
        mat = basis.scatter()
        shape = (mat.shape[0], 5)
        batch = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
        np.testing.assert_allclose(basis(batch), mat @ (mat.conj().T @ batch), rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            basis(batch[:, 0]), mat @ (mat.conj().T @ batch[:, 0]), rtol=0, atol=1e-13
        )

    def test_ascent_takes_the_blocks(self):
        # the blocks carry N, so at d = 1 the maximizer keeps every factor
        dg = YoungDiagram((3,))
        report = max_lambda1_over_subspace(block_basis(dg, 1), 1, MaximizeConfig(restarts=1))
        assert (report.maximizer.local_dim, report.maximizer.n_factors) == (1, 3)


class TestEntropyBound:
    @pytest.mark.parametrize("nu", [(2,), (1, 1), (2, 1), (2, 2), (2, 1, 1)])
    def test_random_block_states_respect_bound(self, nu):
        dg = YoungDiagram(nu)
        d = dg.n_rows
        basis = block_basis(dg, d)
        bound = entropy_lower_bound(dg)
        rng = np.random.default_rng(hash(nu) % 2**32)
        for _ in range(25):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            coeffs /= np.linalg.norm(coeffs)
            psi = TensorState(d, dg.n_boxes, basis.scatter() @ coeffs)
            assert entanglement_entropy(psi, dg.n_boxes - 1) >= bound - 1e-7
