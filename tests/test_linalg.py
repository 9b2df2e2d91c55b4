"""The one row reduction behind pivots, rank, solve and det, checked
against sympy, against the fraction-free (Bareiss) elimination kept here
as an oracle, and against rank on small exact matrices."""

import math
import random
from fractions import Fraction
from math import lcm

import pytest

from brauerloop import linalg, loopchain
from brauerloop.linalg import _pivot_rows, det, pivots, rank, solve

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# ---------------------------------------------------------------- Bareiss oracle
# The fraction-free elimination keeps minors in its rows, an invariant the
# leftmost-pivot reduction does not share, so it is an independent route
# to rank, det and solve.


def _cleared(rows):
    """Fresh integer copies of the rows, each scaled by the lcm of its
    denominators, and the product of those scales."""
    m, scale = [], 1
    for r in rows:
        # a sum of ints is an int, and one Fraction term makes it a Fraction
        if type(sum(r)) is int:
            m.append(list(r))
            continue
        den = lcm(*(x.denominator for x in r if isinstance(x, Fraction)))
        m.append([int(x * den) for x in r])
        scale *= den
    return m, scale


def _echelon(rows):
    """Fraction-free echelon form of the integer-scaled rows.

    Returns (rows, pivot columns, sign of the row swaps, product of the
    row scales).  Row k of the result holds pivot k, and its entries are
    (k+1)-minors of the scaled matrix, so the last pivot of a square
    matrix of full rank is its determinant up to the swap sign.
    """
    m, scale = _cleared(rows)
    nrows, ncols = len(m), len(m[0]) if m else 0
    cols = []
    sign = prev = 1
    for col in range(ncols):
        r = len(cols)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        lead = top[col]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = (lead * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = lead
        cols.append(col)
    return m, cols, sign, scale


def bareiss_solve(rows, rhs):
    """The unique solution of rows * x = rhs, or None if there is none or many.

    The augmented matrix is eliminated once.  The system has exactly one
    solution when every unknown's column holds a pivot and the rhs column
    does not; then the last pivot d is the determinant of the pivot rows,
    so d * x is an integer vector (Cramer) and back-substitution divides
    exactly.
    """
    ncols = len(rows[0]) if rows else 0
    m, cols, _, _ = _echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if cols != list(range(ncols)):
        return None  # a free unknown, or a pivot in the rhs column
    d = m[ncols - 1][ncols - 1] if ncols else 1
    y = [0] * ncols
    for k in range(ncols - 1, -1, -1):
        row = m[k]
        acc = d * row[ncols] - sum(row[j] * y[j] for j in range(k + 1, ncols))
        y[k] = acc // row[k]
    return [Fraction(v, d) for v in y]


def bareiss_det(rows):
    """Determinant: the sign times the last pivot (integer inputs stay integers)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    m, cols, sign, scale = _echelon(rows)
    if len(cols) < n:
        return 0
    value = sign * m[n - 1][n - 1]
    return value if scale == 1 else Fraction(value, scale)



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
    value = det([[Fraction(1, 2), 0], [0, 2]])
    assert value == 1 and type(value) is int
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
    # one right-hand side per row, or no answer at all
    with pytest.raises(ValueError):
        solve([[1]], [1, 2])
    with pytest.raises(ValueError):
        solve([[1], [2]], [1])
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
@hypothesis.given(row_sets(), st.data())
def test_rank_agrees_with_bareiss(rows, data):
    assert rank(rows) == len(_echelon(rows)[1])
    # det on the leading square block, so that every draw has one
    size = min(len(rows), len(rows[0]))
    square = [r[:size] for r in rows[:size]]
    assert det(square) == bareiss_det(square)
    # solve with a drawn right-hand side, mostly inconsistent once rows
    # repeat, and with one consistent by construction
    drawn = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    x = data.draw(st.lists(entries, min_size=len(rows[0]), max_size=len(rows[0])))
    image = [sum(a * b for a, b in zip(r, x)) for r in rows]
    for rhs in (drawn, image):
        assert solve(rows, rhs) == bareiss_solve(rows, rhs)


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
    assert kept == [(0, 1, [0, 2, 3, 4], 1, 2), (1, 0, [1, 0, -3, -4], 1, 2),
                    (2, 3, [0, 0, 0, 1], 1, 1)]
    # row 1 is scaled by 2 to (3, 0), then multiplied by lead/g = 2 before
    # row 0 times 3 is taken off: (0, -3), kept as content 3 times (0, -1)
    kept = _pivot_rows([[2, 1], [Fraction(3, 2), 0]])
    assert kept == [(0, 0, [2, 1], 1, 1), (1, 1, [0, -1], 4, 3)]
    assert det([[2, 1], [Fraction(3, 2), 0]]) == Fraction(-3, 2)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(row_sets())
def test_divisions_on_the_way_keep_rows_and_det(rows):
    # at GROWTH_BITS = 0 a row is divided by its content after every step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "GROWTH_BITS", 0)
        eager = _pivot_rows(rows)
        size = min(len(rows), len(rows[0]))
        square = [r[:size] for r in rows[:size]]
        assert det(square) == bareiss_det(square)
    assert [t[:3] for t in eager] == [t[:3] for t in _pivot_rows(rows)]


def orbit_system(n):
    """The augmented orbit balance system that loopchain.stationary(n) solves."""
    systems = []

    def capture(rows, rhs):
        systems.append([list(r) + [b] for r, b in zip(rows, rhs)])
        return solve(rows, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loopchain, "solve", capture)
        loopchain.stationary(n)
    return systems[0]


def test_multipliers_stay_near_the_kept_rows():
    # the orbit system at N=10, 80 rows in 79 unknowns: with the content divided out
    # only at the end of each row, its multiplier reached 11 049 bits while
    # the kept rows held at most 278
    system = orbit_system(10)
    widths = []

    def content(*values):
        # a row's content (not the gcd of two numbers) sees every entry of the row
        if len(values) > 2:
            widths.append(max(abs(x).bit_length() for x in values))
        return math.gcd(*values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "gcd", content)
        kept = _pivot_rows(system)
    assert len(kept) == 79
    # the rows under reduction grew to 11 076 bits; now each is divided on the way
    assert max(widths) <= 1000
    assert max(abs(x).bit_length() for _, _, row, _, _ in kept for x in row) <= 300
    assert max(mult.bit_length() for _, _, _, mult, _ in kept) <= 300
    assert max(content.bit_length() for *_, content in kept) <= 300
    # the divisions on the way keep det and solve: a nonsingular square block
    square = [row[:79] for row in system[1:]]
    assert det(square) == bareiss_det(square) != 0
    rows, rhs = [row[:79] for row in system], [row[79] for row in system]
    assert solve(rows, rhs) == bareiss_solve(rows, rhs)
