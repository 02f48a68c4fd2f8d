"""Exact combinatorics of partitions, Young diagrams and standard tableaux.

Bound and dimension computations run in arbitrary-precision integer and
rational arithmetic; floating point enters only when taking logarithms.
A diagram caches its conjugate, so a hook length costs O(1); the corners are
found in one scan of the rows; each corner bound is a single ``Fraction``
built from integer products; and both dimension formulas share one integer
hook product.  Partitions are generated one at a time (ZS1) from O(N) state.
Standard tableaux are built level by level on plain row tuples, with no
memo, and each is validated once, as it is returned; semistandard fillings,
which index a weight basis of the unitary-group factor, stay row tuples.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple


class Box(NamedTuple):
    """Cell of a Young diagram, addressed by 1-based (row, col)."""

    row: int
    col: int

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


@dataclass(frozen=True)
class YoungDiagram:
    """Partition drawn as left-justified rows of boxes.

    ``rows`` holds the weakly decreasing positive row lengths; column
    lengths (the conjugate partition) are derived from them once and cached.
    Equality and hashing use ``rows`` only.
    """

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if any(r <= 0 for r in rows):
            raise ValueError(f"row lengths must be positive, got {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"row lengths must be weakly decreasing, got {rows}")

    @classmethod
    def from_string(cls, text: str) -> YoungDiagram:
        """Parse a comma-separated partition such as ``"3,2,1"``."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"empty partition string: {text!r}")
        try:
            rows = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"malformed partition string: {text!r}") from exc
        return cls(rows)

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows)

    @property
    def n_boxes(self) -> int:
        return sum(self.rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return self.rows[0] if self.rows else 0

    @cached_property
    def columns(self) -> tuple[int, ...]:
        return tuple(
            sum(1 for r in self.rows if r >= j) for j in range(1, self.n_cols + 1)
        )

    def conjugate(self) -> YoungDiagram:
        return YoungDiagram(self.columns)

    def boxes(self) -> Iterator[Box]:
        for i, r in enumerate(self.rows, start=1):
            for j in range(1, r + 1):
                yield Box(i, j)

    def remove(self, box: Box) -> YoungDiagram:
        """Diagram with a removable corner box deleted."""
        if not _is_corner(self, box):
            raise ValueError(f"box {box} is not removable from {self}")
        rows = list(self.rows)
        rows[box.row - 1] -= 1
        return YoungDiagram(tuple(r for r in rows if r > 0))


def _corner_rows(rows: tuple[int, ...]) -> Iterator[int]:
    """0-based indices of the rows that end in a corner, bottom row first."""
    for i in range(len(rows) - 1, -1, -1):
        if i == len(rows) - 1 or rows[i + 1] < rows[i]:
            yield i


def removable_boxes(diagram: YoungDiagram) -> list[Box]:
    """Corner boxes whose removal leaves a valid diagram, by increasing column.

    These are exactly the boxes at the end of both their row and their
    column, i.e. the boxes with hook length 1: the last box of the bottom
    row and of every row longer than the one below it.
    """
    if diagram.n_boxes == 0:
        raise ValueError("empty diagram has no removable boxes")
    return [Box(i + 1, diagram.rows[i]) for i in _corner_rows(diagram.rows)]


def _is_corner(diagram: YoungDiagram, box: Box) -> bool:
    i, j = box
    rows = diagram.rows
    return 1 <= i <= len(rows) and j == rows[i - 1] and (i == len(rows) or rows[i] < j)


def bound_for_box(diagram: YoungDiagram, box: Box) -> Fraction:
    """Exact product of (1 - 1/h) over the boxes above a removable box.

    For the corner (i0, j) the box (i, j) above it has hook length
    h = r_i - j + i0 - i + 1; the bound is (prod of h - 1) / (prod of h), one
    ``Fraction`` in lowest terms.  The empty product (a removable box in a
    height-1 column) is 1.
    """
    if not _is_corner(diagram, box):
        raise ValueError(f"box {box} is not removable from ({diagram})")
    i0, j = box
    num = den = 1
    for i in range(1, i0):
        h = diagram.rows[i - 1] - j + i0 - i + 1
        num *= h - 1
        den *= h
    return Fraction(num, den)


def max_schmidt_bound(diagram: YoungDiagram) -> tuple[Fraction, Box]:
    """Largest squared Schmidt coefficient attainable in the diagram's block.

    Returns the maximum of :func:`bound_for_box` over removable boxes and a
    witnessing box; ties are broken by the smallest column index.
    """
    if diagram.n_boxes < 2:
        raise ValueError("bound requires a diagram with at least 2 boxes")
    best: tuple[Fraction, Box] | None = None
    for box in removable_boxes(diagram):
        value = bound_for_box(diagram, box)
        if best is None or value > best[0]:
            best = (value, box)
    assert best is not None
    return best


def entropy_from_bound(value: Fraction) -> float:
    """Entropy lower bound -ln(value) given by a squared Schmidt coefficient bound."""
    out = -math.log(value)
    return 0.0 if out == 0 else out


def entropy_lower_bound(diagram: YoungDiagram) -> float:
    """Lower bound on entanglement entropy for states in the block: -ln(bound)."""
    value, _ = max_schmidt_bound(diagram)
    return entropy_from_bound(value)


def _hook_product(diagram: YoungDiagram) -> int:
    """Product of the hook lengths of all boxes, as one integer."""
    cols = diagram.columns
    return math.prod(
        r - j + cols[j] - i - 1 for i, r in enumerate(diagram.rows) for j in range(r)
    )


def dim_symmetric_group_irrep(diagram: YoungDiagram) -> int:
    """Number of standard tableaux: N! over the product of all hook lengths."""
    q, r = divmod(math.factorial(diagram.n_boxes), _hook_product(diagram))
    if r:
        raise ArithmeticError(f"hook product does not divide N! for ({diagram})")
    return q


def dim_unitary_group_irrep(diagram: YoungDiagram, d: int) -> int:
    """Product over boxes of (d + col - row) / hook, evaluated exactly.

    Zero whenever the diagram has more than ``d`` rows.
    """
    if d < 1:
        raise ValueError("local dimension must be at least 1")
    if diagram.n_boxes == 0:
        return 1
    if d < diagram.n_rows:
        return 0
    num = math.prod(
        d + j - i for i, r in enumerate(diagram.rows) for j in range(r)
    )
    q, r = divmod(num, _hook_product(diagram))
    if r:
        raise ArithmeticError(f"content product does not divide hooks for ({diagram})")
    return q


def iter_partitions(n: int) -> Iterator[YoungDiagram]:
    """All partitions of n, in descending lexicographic order, one at a time.

    ZS1 (Zoghbi and Stojmenovic, Int. J. Comput. Math. 70 (1998) 319): the
    parts sit in one list of n entries that are all 1 past ``h``, the last
    part above 1.  Each step lowers that part by one and refills the parts
    after it with the largest allowed values, so the state stays O(n) however
    many partitions have been yielded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield YoungDiagram(())
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0  # x[:m] is the partition
    yield YoungDiagram((n,))
    while x[0] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # the boxes to refill: one off x[h], and the 1s after it
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1
            if t:
                m += 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield YoungDiagram(tuple(x[:m]))


def partitions_of(n: int) -> list[YoungDiagram]:
    """All partitions of n, in descending lexicographic order."""
    return list(iter_partitions(n))


@dataclass(frozen=True)
class StandardTableau:
    """Filling of a Young diagram with 1..N increasing along rows and columns."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        shape = tuple(len(r) for r in rows)
        YoungDiagram(shape)  # validates the shape
        n = sum(shape)
        if sorted(v for row in rows for v in row) != list(range(1, n + 1)):
            raise ValueError(f"entries must be a bijection onto 1..{n}")
        for row in rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"entries must increase along rows: {rows}")
        for i in range(len(rows) - 1):
            for j in range(len(rows[i + 1])):
                if rows[i][j] >= rows[i + 1][j]:
                    raise ValueError(f"entries must increase down columns: {rows}")

    @classmethod
    def from_string(cls, text: str) -> StandardTableau:
        """Parse bracketed rows such as ``"[[1,3],[2]]"``."""
        try:
            data = ast.literal_eval(text.strip())
        except (SyntaxError, ValueError) as exc:
            raise ValueError(f"malformed tableau string: {text!r}") from exc
        if not isinstance(data, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in data
        ):
            raise ValueError(f"malformed tableau string: {text!r}")
        return cls(tuple(tuple(int(v) for v in row) for row in data))

    def __str__(self) -> str:
        return "[" + ",".join(
            "[" + ",".join(str(v) for v in row) + "]" for row in self.rows
        ) + "]"

    @cached_property
    def diagram(self) -> YoungDiagram:
        return YoungDiagram(tuple(len(r) for r in self.rows))

    @cached_property
    def _positions(self) -> dict[int, Box]:
        return {
            v: Box(i, j)
            for i, row in enumerate(self.rows, start=1)
            for j, v in enumerate(row, start=1)
        }

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def position(self, value: int) -> Box:
        try:
            return self._positions[value]
        except KeyError:
            raise ValueError(f"value {value} not in tableau") from None

    def row_word(self) -> tuple[int, ...]:
        """Concatenation of the rows, top to bottom: the canonical sort key."""
        return tuple(v for row in self.rows for v in row)

    def is_row_ordered(self) -> bool:
        expect = 1
        for row in self.rows:
            for v in row:
                if v != expect:
                    return False
                expect += 1
        return True

    def is_column_ordered(self) -> bool:
        expect = 1
        for j in range(len(self.rows[0]) if self.rows else 0):
            for row in self.rows:
                if len(row) <= j:
                    break
                if row[j] != expect:
                    return False
                expect += 1
        return True

    def with_swap(self, k: int) -> StandardTableau:
        """Tableau with entries k and k+1 interchanged (must stay standard)."""
        if not 1 <= k <= self.n - 1:
            raise ValueError(f"k must be in 1..{self.n - 1}")
        swap = {k: k + 1, k + 1: k}
        return StandardTableau(
            tuple(tuple(swap.get(v, v) for v in row) for row in self.rows)
        )


def _insert_value(t: StandardTableau, box: Box, value: int) -> StandardTableau:
    rows = [list(r) for r in t.rows]
    if box.row == len(rows) + 1:
        rows.append([value])
    else:
        rows[box.row - 1].append(value)
    return StandardTableau(tuple(tuple(r) for r in rows))


Rows = tuple[tuple[int, ...], ...]


def _standard_fillings(shape: tuple[int, ...]) -> list[Rows]:
    """Standard fillings of a shape as plain row tuples, in no fixed order.

    Built level by level: the fillings with 1..k of every shape inside
    ``shape``, padded with empty rows, get k+1 in each addable box inside it.
    Every filling of a level extends to a different tableau of ``shape``, so
    a level holds at most as many fillings as the result.
    """
    level = {(0,) * len(shape): [((),) * len(shape)]}  # row lengths -> fillings
    for k in range(1, sum(shape) + 1):
        grown: dict[tuple[int, ...], list[Rows]] = {}
        for sub, fillings in level.items():
            for i, length in enumerate(sub):
                if length < shape[i] and (i == 0 or sub[i - 1] > length):
                    grown.setdefault((*sub[:i], length + 1, *sub[i + 1:]), []).extend(
                        (*rows[:i], (*rows[i], k), *rows[i + 1:]) for rows in fillings
                    )
        level = grown
    return level[shape]


def iter_standard_tableaux(diagram: YoungDiagram) -> Iterator[StandardTableau]:
    """The standard tableaux of a shape, sorted by row-reading word, each
    validated as it is yielded.  Nothing is kept after the listing: the
    fillings' row tuples live only while it runs.  Every filling has the
    same row lengths, so the row tuples themselves sort in row-word order."""
    for rows in sorted(_standard_fillings(diagram.rows)):
        yield StandardTableau(rows)


@lru_cache(maxsize=None)
def _standard_tableaux(diagram: YoungDiagram) -> tuple[StandardTableau, ...]:
    return tuple(iter_standard_tableaux(diagram))


def enumerate_standard_tableaux(diagram: YoungDiagram) -> list[StandardTableau]:
    """All standard tableaux of a shape, sorted by row-reading word.

    The fillings are built as row tuples, level by level; each returned
    tableau is the only validated ``StandardTableau`` made for it.  The
    tableaux of a shape are kept for the life of the process, since the
    numerical layers ask for them once per permutation matrix;
    :func:`iter_standard_tableaux` keeps nothing after a listing.
    """
    return list(_standard_tableaux(diagram))


def enumerate_semistandard_tableaux(diagram: YoungDiagram, d: int) -> list[Rows]:
    """Fillings with 0..d-1, weakly increasing along rows and strictly down
    columns, as row tuples sorted by row-reading word.

    There are ``dim_unitary_group_irrep(diagram, d)`` of them: they index a
    weight basis of the unitary-group factor (Fulton, *Young Tableaux*, ch. 8).
    Empty when d is smaller than the number of rows.
    """
    if d < 1:
        raise ValueError("local dimension must be at least 1")
    fillings: list[Rows] = [()]
    for r in diagram.rows:
        fillings = [
            (*rows, row)
            for rows in fillings
            for row in combinations_with_replacement(range(d), r)
            if not rows or all(a > b for a, b in zip(row, rows[-1]))
        ]
    return fillings


def row_ordered_tableau(diagram: YoungDiagram) -> StandardTableau:
    """Fill 1..N consecutively along the rows, top to bottom."""
    rows = []
    value = 1
    for r in diagram.rows:
        rows.append(tuple(range(value, value + r)))
        value += r
    return StandardTableau(tuple(rows))


def column_ordered_tableau(diagram: YoungDiagram) -> StandardTableau:
    """Fill 1..N consecutively down the columns, left to right."""
    grid: dict[Box, int] = {}
    value = 1
    for j, height in enumerate(diagram.columns, start=1):
        for i in range(1, height + 1):
            grid[Box(i, j)] = value
            value += 1
    return StandardTableau(
        tuple(tuple(grid[Box(i, j)] for j in range(1, r + 1))
              for i, r in enumerate(diagram.rows, start=1))
    )


def tableau_with_largest_in(diagram: YoungDiagram, box: Box) -> StandardTableau:
    """Tableau with N in the given removable box and 1..N-1 in column order."""
    sub = column_ordered_tableau(diagram.remove(box))
    return _insert_value(sub, box, diagram.n_boxes)


def remove_largest(t: StandardTableau) -> StandardTableau:
    """Tableau with the box containing the largest entry erased."""
    if t.n == 0:
        raise ValueError("cannot remove from an empty tableau")
    box = t.position(t.n)
    rows = [list(r) for r in t.rows]
    rows[box.row - 1].pop()
    if rows and not rows[-1]:
        rows.pop()
    return StandardTableau(tuple(tuple(r) for r in rows))


def axial_distance(t: StandardTableau, k: int) -> int:
    """Content difference (col - row) between the boxes of k+1 and k.

    Equals +1 when they share a row, -1 when they share a column, and has
    absolute value at least 2 otherwise.
    """
    if not 1 <= k <= t.n - 1:
        raise ValueError(f"k must be in 1..{t.n - 1}")
    i, j = t.position(k)
    i2, j2 = t.position(k + 1)
    return (j2 - i2) - (j - i)
