import math
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from schurweyl.young import (
    Box,
    StandardTableau,
    YoungDiagram,
    axial_distance,
    bound_for_box,
    column_ordered_tableau,
    dim_symmetric_group_irrep,
    dim_unitary_group_irrep,
    dominates,
    entropy_lower_bound,
    enumerate_semistandard_tableaux,
    enumerate_standard_tableaux,
    hook_length,
    max_schmidt_bound,
    partitions_of,
    removable_boxes,
    remove_largest,
    row_ordered_tableau,
    split_tableau,
    tableau_with_largest_in,
)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    counts = Counter(bins)
    return YoungDiagram(tuple(sorted(counts.values(), reverse=True)))


def brute_hook(diagram, box):
    # independent of the closed formula: count arm and leg boxes directly
    arm = sum(1 for j in range(box.col + 1, diagram.rows[box.row - 1] + 1))
    leg = sum(1 for i in range(box.row + 1, diagram.n_rows + 1)
              if diagram.rows[i - 1] >= box.col)
    return arm + leg + 1


# Reference path for the exact layer: every hook by brute_hook, every bound as
# a chain of Fraction multiplies, every dimension as a product over boxes.
def reference_removable(diagram):
    corners = [box for box in diagram.boxes() if brute_hook(diagram, box) == 1]
    return sorted(corners, key=lambda box: box.col)


def reference_bound(diagram, box):
    height = sum(1 for r in diagram.rows if r >= box.col)
    out = Fraction(1)
    for i in range(1, height):
        h = brute_hook(diagram, Box(i, box.col))
        out *= Fraction(h - 1, h)
    return out


def reference_max_bound(diagram):
    best = None
    for box in reference_removable(diagram):
        value = reference_bound(diagram, box)
        if best is None or value > best[0]:
            best = (value, box)
    return best


def reference_hook_product(diagram):
    return math.prod(brute_hook(diagram, box) for box in diagram.boxes())


def reference_dim_unitary(diagram, d):
    if d < diagram.n_rows:
        return 0
    num = math.prod(d + box.col - box.row for box in diagram.boxes())
    return Fraction(num, reference_hook_product(diagram))


def brute_force_tableaux(diagram):
    # place every permutation of 1..N into the shape, keep the standard ones
    n = diagram.n_boxes
    out = []
    for perm in permutations(range(1, n + 1)):
        rows, start = [], 0
        for r in diagram.rows:
            rows.append(perm[start:start + r])
            start += r
        if all(row[j] < row[j + 1] for row in rows for j in range(len(row) - 1)) and all(
            rows[i][j] < rows[i + 1][j]
            for i in range(len(rows) - 1) for j in range(len(rows[i + 1]))
        ):
            out.append(tuple(rows))
    return sorted(out, key=lambda rows: [v for row in rows for v in row])


class TestYoungDiagram:
    def test_basic_fields(self):
        dg = YoungDiagram((3, 2, 1))
        assert dg.n_boxes == 6
        assert dg.columns == (3, 2, 1)
        assert dg.conjugate() == dg

    def test_conjugate(self):
        assert YoungDiagram((4, 2)).columns == (2, 2, 1, 1)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))

    def test_string_round_trip(self):
        dg = YoungDiagram.from_string("3,2,1")
        assert dg.rows == (3, 2, 1)
        assert str(dg) == "3,2,1"
        with pytest.raises(ValueError):
            YoungDiagram.from_string("3,x")
        with pytest.raises(ValueError):
            YoungDiagram.from_string("")

    def test_cached_columns_keep_eq_and_hash(self):
        a, b = YoungDiagram((3, 1)), YoungDiagram((3, 1))
        before = hash(a)
        assert a.columns == (2, 1, 1)
        assert "columns" in vars(a) and "columns" not in vars(b)
        assert a == b
        assert hash(a) == before == hash(b)
        assert a != YoungDiagram((2, 2))
        with pytest.raises(FrozenInstanceError):
            a.rows = (4,)

    @given(partition_strategy())
    def test_conjugation_involution(self, dg):
        assert dg.conjugate().conjugate() == dg
        assert sum(dg.columns) == dg.n_boxes


class TestHooksAndRemovable:
    def test_hook_examples(self):
        dg = YoungDiagram((3, 2, 1))
        assert hook_length(dg, Box(1, 1)) == 5  # 3-1+3-1+1
        assert hook_length(dg, Box(2, 1)) == 3  # 2-1+3-2+1
        assert hook_length(YoungDiagram((1,)), Box(1, 1)) == 1

    def test_hook_outside_diagram(self):
        with pytest.raises(ValueError, match="outside"):
            hook_length(YoungDiagram((2, 1)), Box(2, 2))

    @given(partition_strategy())
    def test_hooks_match_brute_force(self, dg):
        for box in dg.boxes():
            assert hook_length(dg, box) == brute_hook(dg, box)

    def test_removable_examples(self):
        assert removable_boxes(YoungDiagram((3, 2, 1))) == [Box(3, 1), Box(2, 2), Box(1, 3)]
        assert removable_boxes(YoungDiagram((1, 1, 1))) == [Box(3, 1)]
        assert removable_boxes(YoungDiagram((3,))) == [Box(1, 3)]

    @given(partition_strategy())
    def test_removable_iff_hook_one(self, dg):
        removable = set(removable_boxes(dg))
        for box in dg.boxes():
            assert (hook_length(dg, box) == 1) == (box in removable)

    @given(partition_strategy())
    def test_removal_gives_valid_diagram(self, dg):
        for box in removable_boxes(dg):
            smaller = dg.remove(box)
            assert smaller.n_boxes == dg.n_boxes - 1


class TestBounds:
    def test_bound_examples(self):
        dg = YoungDiagram((3, 2, 1))
        assert bound_for_box(dg, Box(3, 1)) == Fraction(8, 15)
        assert bound_for_box(dg, Box(2, 2)) == Fraction(2, 3)
        assert bound_for_box(dg, Box(1, 3)) == 1
        assert bound_for_box(YoungDiagram((2, 2, 2, 1)), Box(4, 1)) == Fraction(2, 5)
        assert bound_for_box(YoungDiagram((3, 3, 3, 2, 1)), Box(5, 1)) == Fraction(8, 21)

    def test_bound_rejects_non_removable(self):
        with pytest.raises(ValueError, match="not removable"):
            bound_for_box(YoungDiagram((3, 2, 1)), Box(1, 1))

    @pytest.mark.parametrize(
        "rows, box",
        [((2, 1), Box(0, 1)), ((2, 1), Box(3, 1)), ((2, 1), Box(1, 3)), ((2, 1), Box(1, 1)),
         ((2, 2), Box(1, 2))],
    )
    def test_bound_rejects_boxes_off_the_corners(self, rows, box):
        # outside the diagram as well as inside it, or at the end of a row whose
        # column goes on: a ValueError, never an IndexError
        with pytest.raises(ValueError, match="not removable"):
            bound_for_box(YoungDiagram(rows), box)

    def test_max_bound_examples(self):
        assert max_schmidt_bound(YoungDiagram((3, 2, 1))) == (Fraction(1), Box(1, 3))
        assert max_schmidt_bound(YoungDiagram((3, 3, 1))) == (Fraction(3, 5), Box(3, 1))
        assert max_schmidt_bound(YoungDiagram((1, 1, 1, 1))) == (Fraction(1, 4), Box(4, 1))

    def test_max_bound_requires_two_boxes(self):
        with pytest.raises(ValueError, match="at least 2"):
            max_schmidt_bound(YoungDiagram((1,)))

    @given(st.integers(min_value=2, max_value=10))
    def test_row_and_column_endpoints(self, n):
        assert max_schmidt_bound(YoungDiagram((n,)))[0] == 1
        assert max_schmidt_bound(YoungDiagram((1,) * n))[0] == Fraction(1, n)

    @given(partition_strategy())
    def test_bound_sandwich(self, dg):
        if dg.n_boxes < 2:
            return
        value, _ = max_schmidt_bound(dg)
        shortest_column = dg.columns[-1]
        assert Fraction(1, shortest_column) <= value <= 1

    def test_entropy_examples(self):
        assert entropy_lower_bound(YoungDiagram((1, 1, 1))) == pytest.approx(math.log(3))
        assert entropy_lower_bound(YoungDiagram((3,))) == 0.0
        assert entropy_lower_bound(YoungDiagram((3, 3, 1))) == pytest.approx(math.log(5 / 3))

    @given(partition_strategy())
    def test_entropy_is_minus_log_bound(self, dg):
        if dg.n_boxes < 2:
            return
        value, _ = max_schmidt_bound(dg)
        assert entropy_lower_bound(dg) == pytest.approx(-math.log(value), abs=1e-15)


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_bounds_match_reference(self, n):
        for dg in partitions_of(n):
            corners = removable_boxes(dg)
            assert corners == reference_removable(dg), dg
            for box in corners:
                assert bound_for_box(dg, box) == reference_bound(dg, box), (dg, box)
            if n >= 2:
                value, witness = max_schmidt_bound(dg)
                assert (value, witness) == reference_max_bound(dg), dg
                assert type(witness) is Box

    @pytest.mark.parametrize("n", range(1, 13))
    def test_dimensions_match_reference(self, n):
        for dg in partitions_of(n):
            assert dim_symmetric_group_irrep(dg) == Fraction(
                math.factorial(n), reference_hook_product(dg)
            ), dg
            for d in range(1, 5):
                assert dim_unitary_group_irrep(dg, d) == reference_dim_unitary(dg, d), (dg, d)


class TestDimensions:
    def test_symmetric_group_examples(self):
        assert dim_symmetric_group_irrep(YoungDiagram((2, 1))) == 2
        assert dim_symmetric_group_irrep(YoungDiagram((7,))) == 1
        assert dim_symmetric_group_irrep(YoungDiagram((3, 2, 1))) == 16

    def test_unitary_group_examples(self):
        assert dim_unitary_group_irrep(YoungDiagram((2, 1)), 2) == 2
        assert dim_unitary_group_irrep(YoungDiagram((2, 1)), 3) == 8
        assert dim_unitary_group_irrep(YoungDiagram((1, 1, 1)), 3) == 1
        assert dim_unitary_group_irrep(YoungDiagram((2, 2)), 2) == 1
        assert dim_unitary_group_irrep(YoungDiagram((1, 1, 1)), 2) == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_squares_sum_to_factorial(self, n):
        total = sum(dim_symmetric_group_irrep(nu) ** 2 for nu in partitions_of(n))
        assert total == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_schur_weyl_dimension_count(self, n, d):
        total = sum(
            dim_symmetric_group_irrep(nu) * dim_unitary_group_irrep(nu, d)
            for nu in partitions_of(n)
        )
        assert total == d**n

    def test_partition_counts(self):
        assert len(partitions_of(3)) == 3
        assert len(partitions_of(4)) == 5
        assert len(partitions_of(8)) == 22


def brute_force_semistandard(diagram, d):
    # place every word over 0..d-1 into the shape, keep the semistandard ones
    out = []
    for word in product(range(d), repeat=diagram.n_boxes):
        rows, start = [], 0
        for r in diagram.rows:
            rows.append(word[start:start + r])
            start += r
        if all(row[j] <= row[j + 1] for row in rows for j in range(len(row) - 1)) and all(
            rows[i][j] < rows[i + 1][j]
            for i in range(len(rows) - 1) for j in range(len(rows[i + 1]))
        ):
            out.append(tuple(rows))
    return out


class TestSemistandardTableaux:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force(self, n):
        # the brute force runs over words in increasing order, so it is
        # already sorted by row word
        for dg in partitions_of(n):
            for d in range(1, 4):
                assert enumerate_semistandard_tableaux(dg, d) == brute_force_semistandard(dg, d)

    def test_count_is_unitary_dimension(self):
        for n in range(1, 9):
            for dg in partitions_of(n):
                for d in range(1, 5):
                    fillings = enumerate_semistandard_tableaux(dg, d)
                    assert len(fillings) == dim_unitary_group_irrep(dg, d)

    def test_examples(self):
        assert enumerate_semistandard_tableaux(YoungDiagram((2, 1)), 2) == [
            ((0, 0), (1,)),
            ((0, 1), (1,)),
        ]
        assert enumerate_semistandard_tableaux(YoungDiagram((1, 1, 1)), 2) == []
        with pytest.raises(ValueError):
            enumerate_semistandard_tableaux(YoungDiagram((2,)), 0)


class TestStandardTableaux:
    def test_validation(self):
        StandardTableau(((1, 3), (2,)))
        with pytest.raises(ValueError):
            StandardTableau(((1, 2), (2,)))  # not a bijection
        with pytest.raises(ValueError):
            StandardTableau(((2, 1), (3,)))  # row not increasing
        with pytest.raises(ValueError):
            StandardTableau(((1, 2), (4, 3)))

    def test_string_round_trip(self):
        t = StandardTableau.from_string("[[1,3],[2]]")
        assert t.rows == ((1, 3), (2,))
        assert str(t) == "[[1,3],[2]]"
        with pytest.raises(ValueError):
            StandardTableau.from_string("nonsense")

    def test_enumeration_examples(self):
        two_one = enumerate_standard_tableaux(YoungDiagram((2, 1)))
        assert [t.rows for t in two_one] == [((1, 2), (3,)), ((1, 3), (2,))]
        assert len(enumerate_standard_tableaux(YoungDiagram((5,)))) == 1
        assert len(enumerate_standard_tableaux(YoungDiagram((2, 2)))) == 2

    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumeration_matches_brute_force(self, n):
        for dg in partitions_of(n):
            tableaux = enumerate_standard_tableaux(dg)
            assert all(type(t) is StandardTableau for t in tableaux)
            assert [t.rows for t in tableaux] == brute_force_tableaux(dg), dg

    def test_enumeration_is_sorted_by_row_word(self):
        tableaux = enumerate_standard_tableaux(YoungDiagram((3, 2)))
        words = [t.row_word() for t in tableaux]
        assert words == sorted(words)

    @given(partition_strategy(max_n=6))
    def test_count_matches_hook_formula(self, dg):
        tableaux = enumerate_standard_tableaux(dg)
        assert len(tableaux) == dim_symmetric_group_irrep(dg)
        assert len(set(tableaux)) == len(tableaux)

    @given(partition_strategy(max_n=6))
    def test_ordered_fillings_present(self, dg):
        tableaux = enumerate_standard_tableaux(dg)
        assert row_ordered_tableau(dg) in tableaux
        assert column_ordered_tableau(dg) in tableaux

    @given(partition_strategy(max_n=7))
    def test_ordered_flags_mark_the_ordered_fillings(self, dg):
        for t in enumerate_standard_tableaux(dg):
            assert t.is_row_ordered() == (t == row_ordered_tableau(dg))
            assert t.is_column_ordered() == (t == column_ordered_tableau(dg))

    def test_ordered_fillings(self):
        dg = YoungDiagram((3, 2, 1))
        assert row_ordered_tableau(dg).rows == ((1, 2, 3), (4, 5), (6,))
        assert column_ordered_tableau(dg).rows == ((1, 4, 6), (2, 5), (3,))

    def test_tableau_with_largest_in(self):
        dg = YoungDiagram((3, 2, 1))
        t = tableau_with_largest_in(dg, Box(2, 2))
        assert t.rows == ((1, 4, 5), (2, 6), (3,))
        assert t.position(6) == Box(2, 2)


class TestTableauOperations:
    def test_remove_largest_examples(self):
        assert remove_largest(StandardTableau(((1, 3), (2,)))).rows == ((1,), (2,))
        assert remove_largest(StandardTableau(((1, 2), (3,)))).rows == ((1, 2),)
        big = row_ordered_tableau(YoungDiagram((3, 2, 1)))
        assert remove_largest(big) == row_ordered_tableau(YoungDiagram((3, 2)))

    @given(partition_strategy(max_n=6), st.randoms())
    def test_remove_largest_stays_standard(self, dg, rnd):
        tableaux = enumerate_standard_tableaux(dg)
        t = rnd.choice(tableaux)
        if t.n >= 2:
            smaller = remove_largest(t)
            assert smaller.n == t.n - 1

    def test_split_examples(self):
        t = StandardTableau(((1, 3), (2, 4)))
        t_a, t_b = split_tableau(t, 2)
        assert t_a.rows == ((1,), (2,))
        assert t_b is not None and t_b.rows == ((1,), (2,))

        t = StandardTableau(((1, 3), (2,)))
        t_a, t_b = split_tableau(t, 1)
        assert t_a.rows == ((1,),)
        assert t_b is None

    def test_split_row_block(self):
        # entries 3,4 fill row 2 completely: a vertically translated row shape
        t_a, t_b = split_tableau(StandardTableau(((1, 2), (3, 4))), 2)
        assert t_a.rows == ((1, 2),)
        assert t_b is not None and t_b.rows == ((1, 2),)

    @given(partition_strategy(max_n=6), st.randoms())
    def test_split_last_entry(self, dg, rnd):
        tableaux = enumerate_standard_tableaux(dg)
        t = rnd.choice(tableaux)
        if t.n >= 2:
            t_a, t_b = split_tableau(t, t.n - 1)
            assert t_a == remove_largest(t)
            assert t_b is not None and t_b.rows == ((1,),)

    def test_axial_distance_examples(self):
        t = StandardTableau(((1, 2), (3,)))
        assert axial_distance(t, 1) == 1
        assert axial_distance(t, 2) == -2
        assert axial_distance(StandardTableau(((1, 3), (2,))), 2) == 2

    @given(partition_strategy(max_n=6), st.randoms())
    def test_axial_distance_characterizes_adjacency(self, dg, rnd):
        tableaux = enumerate_standard_tableaux(dg)
        t = rnd.choice(tableaux)
        for k in range(1, t.n):
            r = axial_distance(t, k)
            same_row = t.position(k).row == t.position(k + 1).row
            same_col = t.position(k).col == t.position(k + 1).col
            assert (r == 1) == same_row
            assert (r == -1) == same_col
            if not same_row and not same_col:
                assert abs(r) >= 2


class TestDominance:
    def test_examples(self):
        assert dominates((2, 2), (2, 1, 1))
        assert not dominates((2, 1, 1), (2, 2))
        assert dominates((3, 1), (2, 2))
        assert dominates((2, 2), (2, 2))

    def test_requires_equal_weight(self):
        with pytest.raises(ValueError):
            dominates((2,), (1,))
