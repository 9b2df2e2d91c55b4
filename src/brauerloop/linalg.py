"""Dense exact linear algebra over the rationals, for small matrices.

Everything works on plain lists of lists whose entries are ints or
fractions.Fraction.  One fraction-free (Bareiss) elimination does all
the work: each row is scaled to integers, and every division in the
elimination is exact, so intermediate entries stay minor-sized integers
and no Fraction is formed.  rank() counts its pivots, prefix_ranks()
reads the rank of every leading column block off where the pivots fall,
det() reads the last pivot, and solve() back-substitutes from the
echelon form of the augmented matrix.  Sizes here are small (the chain's
orbit system has 80 rows and 79 unknowns at N=10; the geometry suite's
map ranks are 30 by 36 at N=6), so no pivot strategy beyond "first
nonzero" is needed.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import Sequence

Rational = int | Fraction


def _echelon(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free echelon form of the integer-scaled rows.

    Returns (rows, pivot columns, sign of the row swaps, product of the
    row scales).  Row k of the result holds pivot k, and its entries are
    (k+1)-minors of the scaled matrix, so the last pivot of a square
    matrix of full rank is its determinant up to the swap sign.
    """
    m, scale = [], 1
    for r in rows:
        # a sum of ints is an int, and one Fraction term makes it a Fraction
        if type(sum(r)) is int:
            m.append(list(r))
            continue
        den = lcm(*(x.denominator for x in r if isinstance(x, Fraction)))
        m.append([int(x * den) for x in r])
        scale *= den
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    sign = prev = 1
    for col in range(ncols):
        r = len(pivots)
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
        pivots.append(col)
    return m, pivots, sign, scale


def rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank: the number of pivots of the fraction-free elimination."""
    return len(_echelon(rows)[1])


def prefix_ranks(rows: Sequence[Sequence[Rational]]) -> list[int]:
    """Entry c is the rank of columns 0..c, for every column c.

    The elimination takes the columns in order and, restricted to the
    first c+1 columns, is the elimination of that block, so the block's
    rank is the number of pivots among its columns.
    """
    ncols = len(rows[0]) if rows else 0
    pivots = _echelon(rows)[1]
    return [bisect_right(pivots, c) for c in range(ncols)]


def solve(rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Fraction] | None:
    """The unique solution of rows * x = rhs, or None if there is none or many.

    The augmented matrix is eliminated once.  The system has exactly one
    solution when every unknown's column holds a pivot and the rhs column
    does not; then the last pivot d is the determinant of the pivot rows,
    so d * x is an integer vector (Cramer) and back-substitution divides
    exactly.
    """
    ncols = len(rows[0]) if rows else 0
    m, pivots, _, _ = _echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots != list(range(ncols)):
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
    m, pivots, sign, scale = _echelon(rows)
    if len(pivots) < n:
        return 0
    value = sign * m[n - 1][n - 1]
    return value if scale == 1 else Fraction(value, scale)
