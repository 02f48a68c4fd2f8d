"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they print).
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from schurweyl.cli import main
from schurweyl.orthogonal_form import Permutation, permutation_matrix
from schurweyl.spectral import (
    entanglement_entropy,
    schmidt_decompose,
    verify_fixed_point,
)
from schurweyl.special_states import optimizer_state
from schurweyl.tensor_space import (
    TensorState,
    block_basis,
    closed_form_projector,
    orthogonal_projector,
    permute_matrix_columns,
    random_state,
    subspace_basis,
)
from schurweyl.young import (
    YoungDiagram,
    bound_for_box,
    column_ordered_tableau,
    dim_symmetric_group_irrep,
    dim_unitary_group_irrep,
    entropy_lower_bound,
    enumerate_standard_tableaux,
    partitions_of,
    removable_boxes,
    remove_largest,
    row_ordered_tableau,
)


def cli_json(args):
    result = CliRunner().invoke(main, args + ["--format", "json"])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def bounds_by_box(partition):
    payload = cli_json(["bound", "--partition", partition])
    return (
        {(b["row"], b["col"]): b["bound"] for b in payload["boxes"]},
        payload["max_bound"],
    )


def test_criterion_1_exact_bound_reproduction():
    per_box, best = bounds_by_box("3,2,1")
    assert per_box == {(3, 1): "8/15", (2, 2): "2/3", (1, 3): "1"}
    assert best == "1"

    per_box, best = bounds_by_box("2,2,2,1")
    assert per_box == {(4, 1): "2/5", (3, 2): "1/3"}
    assert best == "2/5"

    per_box, best = bounds_by_box("3,3,3,2,1")
    assert per_box == {(5, 1): "8/21", (4, 2): "2/5", (3, 3): "1/3"}
    assert best == "2/5"

    per_box, best = bounds_by_box("3,3,1")
    assert per_box == {(3, 1): "3/5", (2, 3): "1/2"}
    assert best == "3/5"

    for n in range(2, 11):
        _, boson = bounds_by_box(str(n))
        assert boson == "1"
        _, fermion = bounds_by_box(",".join(["1"] * n))
        assert fermion == str(Fraction(1, n))
    print("ACCEPTANCE 1: PASS - exact bound reproduction (worked values, "
          "boson/fermion endpoints)")


def test_criterion_2_numeric_vs_analytic():
    for n in (2, 3, 4):
        for nu in partitions_of(n):
            d = nu.n_rows
            payload = cli_json(
                ["maximize", "--partition", str(nu), "--d", str(d), "--seed", "0"]
            )
            exact = float(Fraction(payload["exact_bound"]))
            best = payload["best_lambda1_sq"]
            assert best <= exact + 1e-6, (str(nu), best, exact)
            assert best >= exact - 1e-6, (str(nu), best, exact)
    print("ACCEPTANCE 2: PASS - numeric maximum matches the exact bound to "
          "1e-6 for every partition of 2..4 boxes")


def test_criterion_3_projector_algebra():
    worst = 0.0
    for n in (2, 3, 4):
        tableaux = [
            t for nu in partitions_of(n) for t in enumerate_standard_tableaux(nu)
        ]
        for d in (2, 3):
            projs = [orthogonal_projector(t, d) for t in tableaux]
            rng = np.random.default_rng(100 * n + d)
            for _ in range(20):
                x = random_state(d, n, rng)
                y = random_state(d, n, rng)
                total = None
                for proj in projs:
                    px = proj(x)
                    worst = max(worst, (proj(px) - px).norm())
                    worst = max(worst, abs(np.vdot(y.amplitudes, px.amplitudes)
                                           - np.vdot(proj(y).amplitudes, x.amplitudes)))
                    total = px if total is None else total + px
                worst = max(worst, (total - x).norm())
            for i, p in enumerate(projs):
                for q in projs[i + 1 :]:
                    for _ in range(20):
                        x = random_state(d, n, rng)
                        worst = max(worst, p(q(x)).norm())
    assert worst <= 1e-9
    print(f"ACCEPTANCE 3: PASS - projector algebra residuals <= 1e-9 "
          f"(worst {worst:.2e})")


def test_criterion_4_closed_form_equivalence():
    worst = 0.0
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            rng = np.random.default_rng(10 * n + d)
            for nu in partitions_of(n):
                for t in (row_ordered_tableau(nu), column_ordered_tableau(nu)):
                    closed = closed_form_projector(t, d)
                    projector = orthogonal_projector(t, d)
                    for _ in range(10):
                        x = random_state(d, n, rng)
                        worst = max(worst, (closed(x) - projector(x)).norm())
    assert worst <= 1e-10
    print(f"ACCEPTANCE 4: PASS - closed forms match the sector projectors to 1e-10 "
          f"(worst {worst:.2e})")


def test_criterion_5_orthogonal_form_cross_check():
    # explicit mixing values for the (2,1) generator on (1 2 3) -> (1 3 2)
    m = permutation_matrix(YoungDiagram((2, 1)), Permutation.transposition(3, 2, 3))
    assert m[0, 0] == pytest.approx(-0.5, abs=1e-15)
    assert m[1, 0] == pytest.approx(math.sqrt(3 / 4), abs=1e-15)

    worst = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        for nu in partitions_of(n):
            d = max(2, nu.n_rows)
            dim_v = dim_unitary_group_irrep(nu, d)
            mat = block_basis(nu, d).scatter()
            sigmas = [Permutation.transposition(n, k, k + 1) for k in range(1, n)]
            sigmas.append(Permutation.random(n, rng))
            for sigma in sigmas:
                rep = permutation_matrix(nu, sigma)
                moved = permute_matrix_columns(sigma, mat, d, n)
                overlaps = mat.conj().T @ moved
                expected = np.kron(rep, np.eye(dim_v))
                worst = max(worst, float(np.abs(overlaps - expected).max()))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 5: PASS - tensor permutation action reproduces the "
          f"orthogonal-form matrices (worst {worst:.2e})")


def test_criterion_6_schmidt_confinement():
    worst = 0.0
    for n in (2, 3, 4):
        for nu in partitions_of(n):
            d = max(2, nu.n_rows)
            for t in enumerate_standard_tableaux(nu):
                down = orthogonal_projector(remove_largest(t), d)
                for col in subspace_basis(t, d).scatter().T:
                    sr = schmidt_decompose(TensorState(d, n, col), n - 1)
                    for lam, left in zip(sr.coefficients, sr.left.T):
                        if lam > 1e-8:
                            phi = TensorState(d, n - 1, left)
                            worst = max(worst, (down(phi) - phi).norm())
    assert worst <= 1e-8
    print(f"ACCEPTANCE 6: PASS - left Schmidt vectors confined to the reduced "
          f"sector (worst {worst:.2e})")


def test_criterion_7_saturating_states():
    worst_sat = 0.0
    worst_fix = 0.0
    for n in (2, 3, 4):
        for nu in partitions_of(n):
            d = nu.n_rows
            basis = block_basis(nu, d)
            for box in removable_boxes(nu):
                psi = optimizer_state(nu, box, d=d)
                lam1 = schmidt_decompose(psi, n - 1).coefficients[0]
                worst_sat = max(
                    worst_sat, abs(lam1**2 - float(bound_for_box(nu, box)))
                )
                worst_fix = max(worst_fix, verify_fixed_point(psi, basis, n - 1))
    assert worst_sat <= 1e-8
    assert worst_fix <= 1e-7
    print(f"ACCEPTANCE 7: PASS - saturating states attain every removable-box "
          f"bound (worst {worst_sat:.2e}) and are fixed points "
          f"(worst {worst_fix:.2e})")


def test_criterion_8_entropy_corollary():
    for n in (2, 3, 4):
        for nu in partitions_of(n):
            d = nu.n_rows
            mat = block_basis(nu, d).scatter()
            bound = entropy_lower_bound(nu)
            rng = np.random.default_rng(n * 1000 + d)
            for _ in range(200):
                coeffs = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(
                    mat.shape[1]
                )
                coeffs /= np.linalg.norm(coeffs)
                psi = TensorState(d, n, mat @ coeffs)
                assert entanglement_entropy(psi, n - 1) >= bound - 1e-7
    print("ACCEPTANCE 8: PASS - 200 random states per block respect the "
          "entropy lower bound")


def test_criterion_9_dimension_identities():
    for n in range(1, 9):
        assert sum(
            dim_symmetric_group_irrep(nu) ** 2 for nu in partitions_of(n)
        ) == math.factorial(n)
    for n in range(1, 7):
        for d in range(1, 5):
            assert sum(
                dim_symmetric_group_irrep(nu) * dim_unitary_group_irrep(nu, d)
                for nu in partitions_of(n)
            ) == d**n
    print("ACCEPTANCE 9: PASS - dimension identities hold exactly "
          "(N <= 8 squares, N <= 6 / d <= 4 mixed)")
