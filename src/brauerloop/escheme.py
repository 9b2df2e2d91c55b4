"""Points of the loop scheme and its components.

The scheme lives inside the zero-diagonal matrices and is cut out by
M o M = 0 (circular product).  Its top components are indexed by link
patterns; the component of pi contains the dense family

    M = P o (pi t) o P^{o-1},

where pi t is the pattern matrix with row i scaled by t_i, fixed-point
entries removed, and P runs over unit-diagonal matrices.  This module
samples those families exactly and checks the equations satisfied on
each component:

  - membership: zero diagonal and M o M = 0;
  - diagonal pairing: the ordinary square's diagonal is (t_i t_{pi(i)}),
    so its nonzero values come in equal pairs and identify the pattern;
  - rank bounds: the southwest triangle at each strip position has rank
    at most the pattern's count of strip entries in that triangle.  Every
    triangle is a block of rows from one row down and columns up to one
    column of a single (2N-1) x (2N-1) strip block, so one leftmost-pivot
    reduction of that block, bottom row first, gives all N^2 ranks
    (southwest_ranks);
  - tangent and stabilizer dimensions: the ranks of the linear maps
    P -> P o M + M o P and P -> (pi t) o P - P o (pi t) on the
    zero-diagonal matrices, whose rows on the basis E_ij are written in
    closed form (circular_map_rows) and reduced once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable

from .circlealg import ExactMatrix, Rational, cp_inv, cp_mul
from .errors import AmbiguousPairing, DegenerateParameters
from .linalg import pivots, rank
from .linkpat import LinkPattern, RankTable


def pattern_matrix(pi: LinkPattern, t: tuple[Rational, ...] | None = None) -> ExactMatrix:
    """The matrix with entry t_i at (i, pi(i)) for non-fixed i, zero elsewhere."""
    n = pi.n
    t = (1,) * n if t is None else t
    if len(t) != n:
        raise ValueError("t must have one entry per point")
    return ExactMatrix._of([[t[i] if k == j - 1 != i else 0 for k in range(n)]
                            for i, j in enumerate(pi.pairing)])


def check_generic(pi: LinkPattern, t: tuple[Rational, ...]) -> None:
    """Raise DegenerateParameters unless all t_i != 0 and chord products differ."""
    if len(t) != pi.n:
        raise ValueError("t must have one entry per point")
    if any(not ti for ti in t):
        raise DegenerateParameters("zero entry in t")
    products = [t[a - 1] * t[b - 1] for a, b in pi.chords()]
    if len(set(products)) != len(products):
        raise DegenerateParameters("coinciding chord products in t")


@dataclass(frozen=True)
class SamplePoint:
    """A point of a component, kept with the data that produced it."""

    matrix: ExactMatrix
    pattern: LinkPattern
    t: tuple[Rational, ...]
    conjugator: ExactMatrix

    def to_obj(self) -> dict:
        return {
            "pairing": list(self.pattern.pairing),
            "t": [str(x) for x in self.t],
            "conjugator": [[str(x) for x in row] for row in self.conjugator.rows],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "SamplePoint":
        pi = LinkPattern(tuple(obj["pairing"]))
        t = tuple(_parse(x) for x in obj["t"])
        p = ExactMatrix([[_parse(x) for x in row] for row in obj["conjugator"]])
        return sample_point(pi, t, p)


def _parse(s: str) -> Rational:
    f = Fraction(s)
    return int(f) if f.denominator == 1 else f


def pattern_product(p: ExactMatrix, pi: LinkPattern, t: tuple[Rational, ...]) -> ExactMatrix:
    """P o (pi t) in closed form: column k of pi t is t_j at row j = pi(k) != k alone."""
    n = p.n
    partner = [j - 1 for j in pi.pairing]
    return ExactMatrix._of([
        [prow[j] * t[j] if prow[j] and j != k and (j - i) % n <= (k - i) % n else 0
         for k, j in enumerate(partner)]
        for i, prow in enumerate(p.rows)])


def sample_point(pi: LinkPattern, t: tuple[Rational, ...],
                 p: ExactMatrix) -> SamplePoint:
    """Conjugate the scaled pattern matrix by a unit-diagonal P: M = P o (pi t) o P^{o-1}.

    P o (pi t) is in closed form (pattern_product): entry (i, k) is P_{i,pi(k)} t_{pi(k)}
    when pi(k) != k and (pi(k) - i) mod N <= (k - i) mod N, and 0 otherwise.
    """
    if p.n != pi.n:
        raise ValueError("size mismatch")
    if any(d != 1 for d in p.diagonal_entries()):
        raise ValueError("conjugator must have unit diagonal")
    check_generic(pi, tuple(t))
    return SamplePoint(cp_mul(pattern_product(p, pi, t), cp_inv(p)), pi, tuple(t), p)


def _below(bits: Callable[[int], int], n: int) -> int:
    """A uniform draw from range(n), n >= 1, from a generator's getrandbits.

    It draws n.bit_length() bits and draws again while the value is n or
    more.  That is how CPython's randrange(n) draws (3.6 through 3.13), and
    randint(a, b) is a + randrange(b - a + 1) and choice(seq) is
    seq[randrange(len(seq))], so every instance drawn here is the one those
    calls drew, and the generator is left in the same state.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_t(pi: LinkPattern, rng: random.Random) -> tuple[int, ...]:
    """Generic t with entries in 1..40, redrawn until check_generic passes."""
    bits = rng.getrandbits
    while True:
        t = tuple(1 + _below(bits, 40) for _ in range(pi.n))
        try:
            check_generic(pi, t)
        except DegenerateParameters:
            continue
        return t


def random_conjugator(n: int, rng: random.Random) -> ExactMatrix:
    """A unit-diagonal matrix with off-diagonal entries in -3..3, row by row."""
    bits = rng.getrandbits
    rows = [[1] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j in range(n):
            if j != i:
                r = bits(3)  # _below(bits, 7) inlined: 7 takes 3 bits
                while r >= 7:
                    r = bits(3)
                row[j] = r - 3
    return ExactMatrix._of(rows)


def random_sample(pi: LinkPattern, rng: random.Random) -> SamplePoint:
    return sample_point(pi, random_t(pi, rng), random_conjugator(pi.n, rng))


# --------------------------------------------------------------------- membership


def is_in_E(m: ExactMatrix) -> bool:
    """Zero diagonal and vanishing circular square."""
    if any(d for d in m.diagonal_entries()):
        return False
    return cp_mul(m, m).is_zero()


def square_diag(m: ExactMatrix) -> list[Rational]:
    """Diagonal of the ordinary square M^2."""
    return [sum(map(mul, row, col)) for row, col in zip(m.rows, zip(*m.rows))]


def identify_pattern(m: ExactMatrix) -> LinkPattern:
    """Read the link pattern off the diagonal of M^2.

    Nonzero values must occur exactly twice (a chord), zero at most once
    (the odd fixed point); anything else is not generic enough to decide.
    """
    d = square_diag(m)
    n = m.n
    by_value: dict[Rational, list[int]] = {}
    for i, v in enumerate(d, start=1):
        by_value.setdefault(v, []).append(i)
    image = [0] * n
    for v, idx in by_value.items():
        if not v:
            if len(idx) > 1:
                raise AmbiguousPairing("several zero diagonal values")
            image[idx[0] - 1] = idx[0]
        elif len(idx) == 2:
            a, b = idx
            image[a - 1], image[b - 1] = b, a
        else:
            raise AmbiguousPairing(f"value {v} occurs {len(idx)} times")
    return LinkPattern(tuple(image))


# --------------------------------------------------------------------- rank bounds


def southwest_ranks(m: ExactMatrix) -> dict[tuple[int, int], int]:
    """The rank of every southwest triangle, keyed (i, d) as RankTable.ranks.

    Take the strip block with rows and columns 0..2N-2 (0-based),
    strip(a, c) = M[a mod N][c mod N] for 0 <= c - a < N and zero
    elsewhere.  Triangle (i, d) is its block of rows and columns
    i-1..i-1+d.  Widen it to all rows a >= i-1 and all columns
    c <= i-1+d: the rows below i-1+d vanish left of their own index, and
    no row a >= i-1 has an entry left of i-1, so the rank is unchanged.

    linalg.pivots reduces the rows once, from a = 2N-2 up to 0.  Once the
    rows a..2N-2 are read, its kept rows are an echelon basis of their
    span with distinct leading columns, so restricting to the columns
    <= b keeps exactly the basis rows whose pivot is <= b.  Hence
    triangle (i, d) has rank #{pivots (a, c) : a >= i-1, c <= i-1+d}.
    Every row read so far is zero left of a, so a pivot (a, c) has c >= a.
    """
    n, rows = m.n, m.rows
    size = 2 * n - 1
    block = []
    for a in range(size - 1, -1, -1):
        s = a % n
        band = (rows[s][s:] + rows[s][:s])[:size - a]  # columns a.. of row a
        block.append([0] * a + band + [0] * (size - a - len(band)))
    found = [(size - 1 - k, c) for k, c in pivots(block)]  # (a, c), a decreasing
    ranks: dict[tuple[int, int], int] = {}
    per_column = [0] * size  # pivots (a, c) with a >= i-1, by column c
    k = 0
    for i in range(n, 0, -1):
        while k < len(found) and found[k][0] >= i - 1:
            per_column[found[k][1]] += 1
            k += 1
        r = 0
        for d in range(n):
            r += per_column[i - 1 + d]
            ranks[i, d] = r
    return ranks


def check_rank_bounds(m: ExactMatrix, bounds: RankTable) -> bool:
    """Does every southwest-triangle rank respect the pattern's bound?

    bounds is the pattern's rank_table, read by its (row, offset) keys;
    the ranks are southwest_ranks(m), from one reduction of the strip
    block.  Raises ValueError when the sizes differ.
    """
    if m.n != bounds.n:
        raise ValueError("size mismatch")
    ranks = bounds.ranks
    return all(r <= ranks[key] for key, r in southwest_ranks(m).items())


# --------------------------------------------------------------------- dimensions


def circular_map_rows(a: ExactMatrix, b: ExactMatrix) -> list[list[Rational]]:
    """The rows of P -> P o A + B o P on the zero-diagonal N x N matrices.

    Row (i, j), i != j, in row-major order, is the flattened image of the
    basis matrix E_ij, written down in closed form: E_ij o A has A_jk at
    (i, k) for every k with j on the arc from i to k, and B o E_ij has
    B_li at (l, j) for every l with i on the arc from l to j.  These k run
    from j around to i-1 and these l from i back around to j+1.
    """
    n = a.n
    if b.n != n:
        raise ValueError("size mismatch")
    arow, brow = a.rows, b.rows
    rows = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = [0] * (n * n)
            for t in range((j - i) % n, n):
                k, l = (i + t) % n, (j - t) % n
                row[i * n + k] += arow[j][k]
                row[l * n + j] += brow[l][i]
            rows.append(row)
    return rows


def tangent_dimension(m: ExactMatrix) -> int:
    """Dimension of {P zero-diagonal : P o M + M o P = 0}.

    This is the kernel of the derivative of M o M at M, restricted to
    the zero-diagonal space, so it bounds the local dimension of the
    scheme from above.  The row of E_ij has M_jk at (i, k) for j on the
    arc from i to k, plus M_li at (l, j) for i on the arc from l to j.
    """
    n = m.n
    return n * n - n - rank(circular_map_rows(m, m))


def stabilizer_codim(pi: LinkPattern, t: tuple[Rational, ...]) -> int:
    """Codimension in the zero-diagonal space of {P : (pi t) o P = P o (pi t)}.

    The rank of P -> (pi t) o P - P o (pi t): the row of E_ij has
    -(pi t)_jk at (i, k) for j on the arc from i to k, plus (pi t)_li at
    (l, j) for i on the arc from l to j.
    """
    check_generic(pi, tuple(t))
    mt = pattern_matrix(pi, tuple(t))
    return rank(circular_map_rows(-mt, mt))
