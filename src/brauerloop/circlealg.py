"""The circular matrix product and its companion models.

cp_mul implements the degenerate product

    (P o Q)_{ik} = sum over j with cyc(i <= j <= k) of P_{ij} Q_{jk},

where cyc(i <= j <= k) says j lies on the cyclic arc from i to k; when
i == k the arc degenerates to the single point i.  Writing
e(i, j, k) = ((j-i) mod N) + ((k-j) mod N) - ((k-i) mod N), which is 0 on
the arc and N off it, the s-deformed product

    (P x_s Q)_{ik} = sum_j s^{e(i,j,k)} P_{ij} Q_{jk}

recovers the ordinary product at s = 1 and the circular product at
s = 0; for s != 0 it is conjugate to the ordinary product by the
rescaling M_{ij} -> s^{(j-i) mod N} M_{ij}.

The semidirect model splits M into its weakly upper part R and the class
of M modulo upper triangulars, represented by the strict lower part L;
the product is (R, L)(V, W) = (R V, R W + L V) and the inverse of (R, L)
is (R^-1, -R^-1 L R^-1).  The periodic strip embeds M as the infinite
banded matrix strip(i, j) = M_{i mod N, j mod N} for 0 <= j - i < N,
turning the circular product into ordinary (banded) matrix
multiplication; strip(M) is upper triangular, and cp_inv is the band of
its inverse, by back substitution along the strip on integers.  The strip
is never materialized: its entries are read off M, in every row.

Writing s = u/v with v > 0, the s-family runs on integers through two
cleared maps: s_mul_cleared(P, Q, u, v) = v^N (P x_s Q), whose terms are
u^e v^{N-e} P_{ij} Q_{jk} (v^N on the arc, u^N off it), and
s_scale_cleared(M, u, v) = T(M) with T(M)_{ij} = u^e v^{N-1-e} M_{ij} for
e = (j-i) mod N, which is v^{N-1} times the rescaling.  The conjugation
S(P) S(Q) = S(P x_s Q) multiplied by v^{2N-1} reads

    v T(P) T(Q) = T(v^N (P x_s Q)),

an identity between integer matrices for integer P, Q that holds exactly
when the rational one does.  s_mul divides the product by v^N.

Matrices are exact: entries are ints or fractions.Fraction, 1-based
indexing in the public interface.  ExactMatrix(rows) copies and checks its
rows; ExactMatrix._of(rows) wraps square rows that the caller has just
built and hands over, without copying or checking them, so no public
operation returns a row list shared with an operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import mul
from typing import Callable, Sequence

from .errors import NotInvertible

Rational = int | Fraction


class ExactMatrix:
    """Dense N x N matrix with exact rational entries, 1-based access."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Rational]]):
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def _of(cls, rows: list[list[Rational]]) -> "ExactMatrix":
        """Wrap freshly built square rows, which the matrix then owns: no copy, no check."""
        m = object.__new__(cls)
        m.rows = rows
        m.n = len(rows)
        return m

    @classmethod
    def zeros(cls, n: int) -> "ExactMatrix":
        return cls._of([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._of([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def build(cls, n: int, entry: Callable[[int, int], Rational]) -> "ExactMatrix":
        return cls._of([[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])

    def __getitem__(self, ij: tuple[int, int]) -> Rational:
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return ExactMatrix._of([[a + b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return ExactMatrix._of([[a - b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of([[-a for a in r] for r in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        cols = list(zip(*other.rows))
        return ExactMatrix._of([[sum(map(mul, row, col)) for col in cols]
                                for row in self.rows])

    def diagonal_entries(self) -> list[Rational]:
        return [self.rows[i][i] for i in range(self.n)]

    def upper_part(self) -> "ExactMatrix":
        """Weakly upper triangular part, diagonal included."""
        return ExactMatrix._of([[0] * i + r[i:] for i, r in enumerate(self.rows)])

    def strict_lower_part(self) -> "ExactMatrix":
        n = self.n
        return ExactMatrix._of([r[:i] + [0] * (n - i) for i, r in enumerate(self.rows)])

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"ExactMatrix[{body}]"


def clear_denominators(m: ExactMatrix) -> tuple[ExactMatrix, int]:
    """(c M, c) for the least c > 0 that makes c M a matrix of ints (M itself if it is one).

    A Fraction entry with denominator 1 becomes an int too.
    """
    dens = {x.denominator for row in m.rows for x in row if type(x) is not int}
    if not dens:
        return m, 1
    c = lcm(*dens)
    return ExactMatrix._of([[x * c if type(x) is int else x.numerator * (c // x.denominator)
                             for x in row] for row in m.rows]), c


def _ratio(v: int, d: int) -> Rational:
    """v / d, an int when d divides v."""
    return v // d if v % d == 0 else Fraction(v, d)


def _divided(m: ExactMatrix, d: int) -> ExactMatrix:
    """M / d entry by entry, an int wherever the quotient is integral; M itself if d = 1."""
    if d == 1:
        return m
    return ExactMatrix._of([[_ratio(x, d) if type(x) is int else x / d for x in row]
                            for row in m.rows])


# --------------------------------------------------------------------- cyclic order


@lru_cache(maxsize=None)
def _arcs(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """_arcs(n)[i][k]: the 0-based indices on the cyclic arc from i to k, in arc order."""
    return tuple(tuple(tuple((i + t) % n for t in range((k - i) % n + 1))
                       for k in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _off_arcs(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """_off_arcs(n)[i][k]: the 0-based indices off the cyclic arc from i to k."""
    return tuple(tuple(tuple(j for j in range(n) if j not in arc) for arc in arcs)
                 for arcs in _arcs(n))


# --------------------------------------------------------------------- products


def _arc_weighted(p: ExactMatrix, q: ExactMatrix, on: int, off: int) -> ExactMatrix:
    """Entry (i, k) is on * (sum on the arc) + off * (sum off the arc) of P_{ij} Q_{jk}."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    qrows = q.rows
    out = []
    for prow, arcs, off_arcs in zip(p.rows, _arcs(p.n), _off_arcs(p.n)):
        orow = []
        for k, arc in enumerate(arcs):
            acc: Rational = 0
            for j in arc:
                a = prow[j]
                if a:
                    b = qrows[j][k]
                    if b:
                        acc += a * b
            if off:
                rest: Rational = 0
                for j in off_arcs[k]:
                    a = prow[j]
                    if a:
                        b = qrows[j][k]
                        if b:
                            rest += a * b
                acc = on * acc + off * rest
            elif on != 1:
                acc *= on
            orow.append(acc)
        out.append(orow)
    return ExactMatrix._of(out)


def cp_mul(p: ExactMatrix, q: ExactMatrix) -> ExactMatrix:
    """Circular product: sum over the cyclic arc from row to column index."""
    return _arc_weighted(p, q, 1, 0)


def s_mul_cleared(p: ExactMatrix, q: ExactMatrix, u: int, v: int) -> ExactMatrix:
    """v^N (P x_s Q) for s = u/v, v != 0: the terms u^e v^{N-e} P_{ij} Q_{jk}, e in {0, N}.

    Arc terms carry v^N and the others u^N, so integer P and Q give an
    integer matrix; (u, v) = (0, 1) is the circular and (1, 1) the ordinary
    product.
    """
    return _arc_weighted(p, q, v ** p.n, u ** p.n)


def s_mul(p: ExactMatrix, q: ExactMatrix, s: Rational) -> ExactMatrix:
    """Deformed product sum_j s^{e(i,j,k)} P_{ij} Q_{jk}; s=1 ordinary, s=0 circular."""
    return _divided(s_mul_cleared(p, q, s.numerator, s.denominator), s.denominator ** p.n)


def s_scale_cleared(m: ExactMatrix, u: int, v: int) -> ExactMatrix:
    """T(M)_{ij} = u^e v^{N-1-e} M_{ij}, e = (j-i) mod N: v^{N-1} times the s = u/v rescaling."""
    n = m.n
    powers = [u ** e * v ** (n - 1 - e) for e in range(n)]
    # row i takes powers[(j - i) mod N] in column j: the list rotated right by i
    return ExactMatrix._of([list(map(mul, row, powers[n - i:] + powers[:n - i]))
                            for i, row in enumerate(m.rows)])


def cycle(m: ExactMatrix, k: int = 1) -> ExactMatrix:
    """The cycling automorphism M_{ij} -> M_{i+k, j+k} (indices mod N)."""
    k = k % m.n if m.n else 0
    return ExactMatrix._of([row[k:] + row[:k] for row in m.rows[k:] + m.rows[:k]])


def cp_inv(p: ExactMatrix) -> ExactMatrix:
    """Circular-product inverse; exists iff every diagonal entry is nonzero.

    strip(P o Q) is the band of strip(P) strip(Q), and strip(P) is upper
    triangular with diagonal P_ii, so the inverse is the band of
    Y = strip(P)^-1, which back substitution in strip(P) Y = I reaches
    through band entries alone.  With P = S / c, S integral, and D the
    product of the S_ii, y = D Y / c is integral on the band: Y_{ik} / c is
    an entry of the inverse of S's block i..k, whose denominator divides
    the product of S_jj over the distinct residues j on the arc, hence D.
    Column k is y_{kk} = D / S_kk and, for e = 1..N-1 and i = k - e mod N,
    y_{ik} = -(sum over t = 1..e of S_{i,i+t} y_{i+t,k}) / S_ii, exactly.
    The inverse is c y / D, an int wherever the entry is integral; when
    c = D = 1 (an integer P with unit diagonal) it is y and nothing is divided.
    """
    n = p.n
    if not all(p.diagonal_entries()):
        raise NotInvertible("zero diagonal entry")
    cleared, c = clear_denominators(p)
    band = [row[i:] + row[:i] for i, row in enumerate(cleared.rows)]  # band[i][t] = S_{i,i+t}
    diag = [row[0] for row in band]
    d = prod(diag)
    cols = []
    for k in range(n):
        col = [d // diag[k]]  # y_{k-e,k} for e = 0, 1, ...
        for e in range(1, n):
            i = k - e  # row i mod N: band[-1] is band[n - 1]
            col.append(-sum(map(mul, band[i][1:e + 1], reversed(col))) // diag[i])
        cols.append(col[k::-1] + col[:k:-1])  # by row: y_{i,k} is col[(k - i) mod N]
    if c == d == 1:
        return ExactMatrix._of(list(map(list, zip(*cols))))
    return ExactMatrix._of([[_ratio(c * y, d) for y in row] for row in zip(*cols)])


# --------------------------------------------------------------------- semidirect model


def to_semidirect(m: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Split M into (weakly upper part, strict lower representative)."""
    return m.upper_part(), m.strict_lower_part()


def from_semidirect(r: ExactMatrix, lower: ExactMatrix) -> ExactMatrix:
    """Reassemble a matrix from an upper part and a class-mod-upper representative."""
    return r + lower.strict_lower_part()


def semidirect_mul(a: tuple[ExactMatrix, ExactMatrix],
                   b: tuple[ExactMatrix, ExactMatrix]) -> tuple[ExactMatrix, ExactMatrix]:
    """(R, L)(V, W) = (R V, R W + L V), the second slot taken mod upper."""
    r, low = a
    v, w = b
    return r @ v, (r @ w + low @ v).strict_lower_part()


# --------------------------------------------------------------------- periodic strip


@dataclass(frozen=True)
class StripWindow:
    """The periodic strip of a matrix, read off the matrix itself.

    strip(i, j) is defined in every row i, for 0 <= j - i < N, and equals
    M_{i mod N, j mod N}; the band of the product of two strips is read a
    row at a time (band_product_row).
    """

    matrix: ExactMatrix

    def band_product_row(self, other: "StripWindow", i: int) -> list[Rational]:
        """Row i of the product of two strips on the band: entries (i, i + d), d = 0..N-1.

        Entry (i, k) is the sum of strip(i, j) strip(j, k) over i <= j <= k.
        Each nonzero strip(i, j), j = i + e, is multiplied into row j of the
        second strip read from column i on, and added to the entries
        d >= e: those terms, gathered a row at a time.
        """
        n = self.matrix.n
        if other.matrix.n != n:
            raise ValueError("size mismatch")
        s = (i - 1) % n
        prow = self.matrix.rows[s]
        qrows = other.matrix.rows
        acc: list[Rational] = [0] * n
        for e in range(n):
            a = prow[(s + e) % n]
            if a:
                qrow = qrows[(s + e) % n]
                band = qrow[s:] + qrow[:s]
                acc[e:] = [x + a * y for x, y in zip(acc[e:], band[e:])]
        return acc
