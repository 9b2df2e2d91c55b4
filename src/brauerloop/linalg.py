"""Dense exact linear algebra over the rationals, for small matrices.

Everything works on plain lists of lists whose entries are ints or
fractions.Fraction.  Each row is first scaled to integers, so no Fraction
is formed inside an elimination.  Two eliminations share that step:

  - pivots() reduces the rows one at a time, in the given order, against
    the pivot rows kept so far, and keeps each row's leftmost nonzero
    entry as its pivot.  The kept rows have distinct leading columns, so
    the pivots answer every rank question about a leading set of rows
    and a leading set of columns at once (the rank profile of
    Dumas-Pernet-Sultan).  rank() counts them.  Each step touches only
    the row being reduced, which suits the sparse map matrices of the
    geometry suite (30 by 36 at N=6) and the strip blocks of the rank
    bounds (11 by 11 at N=6).  On dense input, where its entries grow
    without an exact division to hold them back, it is the slower of the
    two; no library path ranks dense input.
  - _echelon() is the fraction-free (Bareiss) elimination.  Every
    division in it is exact, so row k holds (k+1)-minors of the matrix:
    det() reads the last pivot, and solve() back-substitutes from the
    echelon form of the augmented matrix, dividing by that determinant
    exactly (the chain's orbit system has 80 rows and 79 unknowns at
    N=10).  pivots() keeps no such invariant, so it cannot serve them.

Sizes here are small, so no pivot strategy beyond "first nonzero" is
needed in either.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Rational = int | Fraction


def _cleared(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[int]], int]:
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


def _echelon(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free echelon form of the integer-scaled rows.

    Returns (rows, pivot columns, sign of the row swaps, product of the
    row scales).  Row k of the result holds pivot k, and its entries are
    (k+1)-minors of the scaled matrix, so the last pivot of a square
    matrix of full rank is its determinant up to the swap sign.
    """
    m, scale = _cleared(rows)
    nrows, ncols = len(m), len(m[0]) if m else 0
    cols: list[int] = []
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


def _pivot_rows(rows: Sequence[Sequence[Rational]]) -> list[tuple[int, int, list[int]]]:
    """(row index, pivot column, reduced row) of each row that adds to the span.

    Each row v is reduced, in the given order, against the rows kept so
    far at their pivot columns: v <- (lead/g) v - (f/g) p, where lead is
    p's entry and f is v's entry at p's pivot column and g = gcd(lead, f).
    A kept row p is zero at the pivot column of every row kept before it,
    so each step clears one more pivot column of v and leaves the earlier
    ones clear.  What is left of v is zero at every kept pivot column; if
    it is nonzero, its leftmost nonzero entry is its pivot, and it is kept
    divided by its content (the gcd of its entries), which holds back the
    growth that the missing exact division of Bareiss would otherwise let
    through.
    """
    kept: list[tuple[int, int, list[int]]] = []
    for k, v in enumerate(_cleared(rows)[0]):
        for _, c, p in kept:
            f = v[c]
            if f:
                lead = p[c]
                g = gcd(lead, f)
                a, b = lead // g, f // g
                v = [a * x - b * y for x, y in zip(v, p)]
        g = gcd(*v)
        if not g:
            continue  # v is zero: the row lies in the span of the kept rows
        # the entries before the first nonzero one are zero, so index() finds it
        col = v.index(next(filter(None, v)))
        kept.append((k, col, v if g == 1 else [x // g for x in v]))
    return kept


def pivots(rows: Sequence[Sequence[Rational]]) -> list[tuple[int, int]]:
    """(row index, pivot column) of each row that adds to the span of the rows before it.

    The kept rows of the reduction (see _pivot_rows) span the same space
    as the rows read so far and have distinct leading columns, so they
    are a basis in echelon form up to order.  Restricted to the columns
    0..b, the kept rows whose pivot is at most b stay independent (their
    leading columns are still distinct) and the others vanish.  Hence the
    rank of the block of rows 0..a and columns 0..b is the number of
    pivots (k, c) with k <= a and c <= b, for every a and b at once.
    """
    return [(k, c) for k, c, _ in _pivot_rows(rows)]


def rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank: the number of pivots."""
    return len(pivots(rows))


def solve(rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Fraction] | None:
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


def det(rows: Sequence[Sequence[Rational]]) -> Rational:
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
