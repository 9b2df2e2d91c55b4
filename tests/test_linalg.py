"""The two eliminations: the leftmost-pivot reduction behind pivots and
rank, and the fraction-free (Bareiss) one behind det and solve, checked
against sympy, against each other and against rank on small exact
matrices."""

import random
from fractions import Fraction

import pytest

from brauerloop.linalg import _echelon, _pivot_rows, det, pivots, rank, solve

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows])


def from_sympy(value):
    return Fraction(int(value.p), int(value.q))


def rand_entry(rng, fractions):
    if fractions and rng.random() < 0.5:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return rng.choice([0, 0, rng.randint(-6, 6)])


def rand_matrix(rng, nrows, ncols, fractions=False, rank_at_most=None):
    """Random rows; with rank_at_most, a product of two thin random factors."""
    if rank_at_most is None:
        return [[rand_entry(rng, fractions) for _ in range(ncols)] for _ in range(nrows)]
    left = rand_matrix(rng, nrows, rank_at_most, fractions)
    right = rand_matrix(rng, rank_at_most, ncols, fractions)
    return [[sum(a * right[k][j] for k, a in enumerate(row)) for j in range(ncols)]
            for row in left]


def shapes():
    rng = random.Random(2024)
    for nrows in range(1, 6):
        for ncols in range(1, 7):
            for fractions in (False, True):
                yield rand_matrix(rng, nrows, ncols, fractions)
                low = rng.randint(0, min(nrows, ncols))
                yield rand_matrix(rng, nrows, ncols, fractions, rank_at_most=low)


def test_rank_matches_sympy():
    for rows in shapes():
        assert rank(rows) == to_sympy(rows).rank()


def test_rank_edge_shapes():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert rank([[0, 0], [0, 3], [0, 0]]) == 1
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1


def test_inputs_are_left_unchanged():
    # all-int rows enter the elimination without the scaling copy
    rows = [[0, 2, 4], [1, 1, 1], [2, 6, 10]]
    before = [list(r) for r in rows]
    assert rank(rows) == 2 and det(rows) == 0 and solve(rows[:2], [1, 1]) is None
    assert rows == before


def test_det_matches_sympy():
    for rows in shapes():
        if len(rows) == len(rows[0]):
            assert det(rows) == from_sympy(to_sympy(rows).det())


def test_det_row_swaps_and_edges():
    assert det([]) == 1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == 30
    assert det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 0], [1, 1]]) == 0
    assert det([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]) == Fraction(-5, 6)
    value = det([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert value == 4 and type(value) is int
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_solve_unique_matches_sympy():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        extra = rng.randint(0, 2)
        a = rand_matrix(rng, n, n, fractions=rng.random() < 0.5)
        while to_sympy(a).det() == 0:
            a = rand_matrix(rng, n, n, fractions=rng.random() < 0.5)
        x = [rand_entry(rng, True) for _ in range(n)]
        # consistent extra equations: combinations of the square system
        for _ in range(extra):
            c = [rng.randint(-2, 2) for _ in range(n)]
            a.append([sum(c[i] * a[i][j] for i in range(n)) for j in range(n)])
        rows = list(a)
        rng.shuffle(rows)
        b = [sum(r[j] * x[j] for j in range(n)) for r in rows]
        got = solve(rows, b)
        want = to_sympy(rows).solve_least_squares(to_sympy([[v] for v in b]))
        assert got == [Fraction(v) for v in x]
        assert got == [from_sympy(v) for v in want]


def test_solve_returns_none_unless_unique():
    # inconsistent
    assert solve([[1, 1], [1, 1]], [1, 2]) is None
    assert solve([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None
    assert solve([[0, 0]], [1]) is None
    # underdetermined: consistent with a free unknown
    assert solve([[1, 1]], [2]) is None
    assert solve([[1, 2], [2, 4]], [3, 6]) is None
    assert solve([[0, 1], [0, 2]], [1, 2]) is None
    # square singular systems, from sympy's own verdict
    rng = random.Random(11)
    for _ in range(20):
        rows = rand_matrix(rng, 4, 4, fractions=True, rank_at_most=3)
        b = [rand_entry(rng, True) for _ in range(4)]
        assert to_sympy(rows).rank() < 4
        assert solve(rows, b) is None


def test_solve_fraction_entries_and_zero_rows():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [0, 0], [Fraction(-1, 4), 1]]
    rhs = [Fraction(5, 6), 0, Fraction(3, 4)]
    assert solve(rows, rhs) == [Fraction(1), Fraction(1)]
    assert solve([[3]], [2]) == [Fraction(2, 3)]
    assert solve([], []) == []


entries = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def row_sets(draw):
    """Drawn rows, plus combinations of them (zero rows among them), shuffled."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=4))
    picks = st.sampled_from(base)
    coeffs = st.integers(-2, 2)
    extra = draw(st.lists(st.tuples(coeffs, picks, coeffs, picks), max_size=3))
    rows = base + [[c * x + d * y for x, y in zip(u, v)] for c, u, d, v in extra]
    return draw(st.permutations(rows))


def prefix_ranks(rows):
    """Entry c is the rank of columns 0..c: the pivots in those columns."""
    cols = [c for _, c in pivots(rows)]
    return [sum(1 for p in cols if p <= c) for c in range(len(rows[0]) if rows else 0)]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(row_sets())
def test_prefix_ranks_are_ranks_of_leading_column_blocks(rows):
    want = [rank([r[:c + 1] for r in rows]) for c in range(len(rows[0]))]
    assert prefix_ranks(rows) == want


def test_prefix_ranks_edges():
    assert prefix_ranks([]) == []
    assert prefix_ranks([[0, 0, 0], [0, 0, 0]]) == [0, 0, 0]
    # more columns than rows: the ranks stop growing at the row count
    assert prefix_ranks([[0, 1, 0, 5], [0, 2, 1, 0]]) == [0, 1, 2, 2]
    assert prefix_ranks([[Fraction(1, 2), 1], [1, 2]]) == [1, 1]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(row_sets())
def test_rank_agrees_with_bareiss(rows):
    assert rank(rows) == len(_echelon(rows)[1])


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(row_sets())
def test_pivots_give_the_rank_of_every_leading_block(rows):
    # rows 0..a and columns 0..b: the pivots (k, c) with k <= a and c <= b
    found = pivots(rows)
    for a in range(len(rows)):
        for b in range(len(rows[0])):
            want = rank([r[:b + 1] for r in rows[:a + 1]])
            assert sum(1 for k, c in found if k <= a and c <= b) == want


def test_pivots_are_leftmost_and_rows_are_reduced():
    assert pivots([[0, 2, 4], [0, 1, 2], [3, 0, 0], [0, 0, 5]]) == [(0, 1), (2, 0), (3, 2)]
    assert pivots([]) == [] and pivots([[0, 0]]) == []
    kept = _pivot_rows([[0, 4, 6, 8], [2, 4, 0, 0], [0, 6, 9, 13]])
    # each kept row is divided by its content: row 1 minus 2 (row 0 / 2) is
    # (2, 0, -6, -8), and row 2 minus 3 (row 0 / 2) leaves (0, 0, 0, 1)
    assert kept == [(0, 1, [0, 2, 3, 4]), (1, 0, [1, 0, -3, -4]), (2, 3, [0, 0, 0, 1])]
