"""Dense exact linear algebra over the rationals, for small matrices.

Everything works on plain lists of lists whose entries are ints or
fractions.Fraction.  Each row is first scaled to integers, so no Fraction
is formed inside the elimination, and one elimination serves every
question: _pivot_rows reduces the rows one at a time, in the given
order, against the pivot rows kept so far, and keeps each row's leftmost
nonzero entry as its pivot.  The kept rows have distinct leading columns,
so they are an echelon basis up to order:

  - pivots() and rank() read the pivots, which answer every rank
    question about a leading set of rows and a leading set of columns at
    once (the rank profile of Dumas-Pernet-Sultan).  Each step touches
    only the row being reduced, which suits the sparse map matrices of
    the geometry suite (30 by 36 at N=6) and the strip blocks of the rank
    bounds (11 by 11 at N=6);
  - solve() sorts the kept rows of the augmented matrix by pivot column
    into a triangular system and back-substitutes exactly (the chain's
    orbit system has 80 rows and 79 unknowns at N=10);
  - det() reads the triangular form too, undoing the row multipliers and
    content divisions that the reduction applied.

Without the exact division of fraction-free (Bareiss) elimination, only
divisions by the content hold back the growth of the entries: each kept
row is divided by its content, and a row under reduction is divided by
its own whenever it has been multiplied by more than GROWTH_BITS bits
since the last division, so that its entries stay near the size of the
kept rows (on the chain's orbit system at N=10 the row multipliers would
otherwise reach 11 049 bits against 278 in the kept rows).  Sizes here
are small, so no pivot strategy beyond "leftmost nonzero" is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

Rational = int | Fraction

GROWTH_BITS = 256


def _pivot_rows(rows: Sequence[Sequence[Rational]]) -> list[tuple[int, int, list[int], int, int]]:
    """(row index, pivot column, reduced row, multiplier, content) of each
    row that adds to the span.

    Each row is first scaled by the lcm of its denominators.  Then it is
    reduced, in the given order, against the rows kept so far at their
    pivot columns: v <- (lead/g) v - (f/g) p, where lead is p's entry and
    f is v's entry at p's pivot column and g = gcd(lead, f).  A kept row p
    is zero at the pivot column of every row kept before it, so each step
    clears one more pivot column of v and leaves the earlier ones clear.
    What is left of v is zero at every kept pivot column; if it is
    nonzero, its leftmost nonzero entry is its pivot, and it is kept
    divided by its content (the gcd of its entries).  Whenever the
    product of the lead/g that multiplied v since its last division
    passes GROWTH_BITS bits, v is divided by its content on the way too.
    A division changes the later lead/g, but each v along the way is
    still a positive multiple of the v without it, so the kept row, v
    divided by its content, is the same.

    The multiplier and the content are the product of the row's scale
    and of every lead/g, and the product of every content divided out,
    each divided by their gcd: multiplier * (row k) = content * (kept
    row) plus a rational combination of the rows before k, and det reads
    only the ratio.
    """
    kept: list[tuple[int, int, list[int], int, int]] = []
    for k, r in enumerate(rows):
        # a sum of ints is an int, and one Fraction term makes it a Fraction
        if type(sum(r)) is int:
            v, mult = list(r), 1
        else:
            mult = lcm(*(x.denominator for x in r if isinstance(x, Fraction)))
            v = [int(x * mult) for x in r]
        content = grown = 1
        for _, c, p, _, _ in kept:
            f = v[c]
            if f:
                lead = p[c]
                g = gcd(lead, f)
                a, b = lead // g, f // g
                v = [a * x - b * y for x, y in zip(v, p)]
                mult *= a
                grown *= a
                if grown.bit_length() > GROWTH_BITS:
                    g = gcd(*v)
                    if g > 1:
                        v = [x // g for x in v]
                        content *= g
                    grown = 1
        g = gcd(*v)
        if not g:
            continue  # v is zero: the row lies in the span of the kept rows
        content *= g
        common = gcd(mult, content)
        # the entries before the first nonzero one are zero, so index() finds it
        col = v.index(next(filter(None, v)))
        kept.append((k, col, v if g == 1 else [x // g for x in v],
                     mult // common, content // common))
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
    return [(k, c) for k, c, _, _, _ in _pivot_rows(rows)]


def rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank: the number of pivots."""
    return len(pivots(rows))


def solve(rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Fraction] | None:
    """The unique solution of rows * x = rhs, or None if there is none or many.

    The augmented matrix is reduced once.  The system has exactly one
    solution when the pivot columns are those of the unknowns and the rhs
    column holds none; then the kept rows, sorted by pivot column, are an
    upper-triangular system.  Back-substitution keeps x = y / d with
    integers y and one common denominator d, so every division is exact.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    ncols = len(rows[0]) if rows else 0
    kept = sorted(_pivot_rows([list(r) + [b] for r, b in zip(rows, rhs)]),
                  key=lambda t: t[1])
    if [c for _, c, _, _, _ in kept] != list(range(ncols)):
        return None  # a free unknown, or a pivot in the rhs column
    y, d = [0] * ncols, 1
    for _, k, row, _, _ in reversed(kept):
        # with x_j = y_j / d for j > k, row[k] * x_k = num / d
        num = d * row[ncols] - sum(row[j] * y[j] for j in range(k + 1, ncols))
        lead = row[k]
        q = abs(lead) // gcd(num, lead)  # x_k = (num / (lead / q)) / (q d)
        y = [v * q for v in y]
        d *= q
        y[k] = num // (lead // q)
    return [Fraction(v, d) for v in y]


def det(rows: Sequence[Sequence[Rational]]) -> Rational:
    """Determinant, an int whenever it is integral.

    Sorted by pivot column, the kept rows of a square matrix of full rank
    form an upper-triangular matrix.  Row k of the input times its
    multiplier is content times kept row k, plus earlier rows, so
    det = sign(pivot columns) * prod(pivot * content) / prod(multiplier).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    kept = _pivot_rows(rows)
    if len(kept) < n:
        return 0
    cols = [c for _, c, _, _, _ in kept]
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    num = (-1) ** inversions * prod(p[c] * g for _, c, p, _, g in kept)
    den = prod(mult for _, _, _, mult, _ in kept)
    value, rest = divmod(num, den)
    return Fraction(num, den) if rest else value
