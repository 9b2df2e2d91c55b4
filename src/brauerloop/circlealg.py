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
is (R^-1, -R^-1 L R^-1), which is how cp_inv is computed, on integers:
from the adjugate of R cleared of denominators and from L cleared of
denominators, with one exact division per entry at the end.  The periodic
strip embeds M as the infinite banded matrix strip(i, j) = M_{i mod N,
j mod N} for 0 <= j - i < N, turning the circular product into ordinary
(banded) matrix multiplication.  The strip is never materialized: its
entries are read off M, in every row.

Matrices are exact: entries are ints or fractions.Fraction, 1-based
indexing in the public interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
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
    def zeros(cls, n: int) -> "ExactMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def build(cls, n: int, entry: Callable[[int, int], Rational]) -> "ExactMatrix":
        return cls([[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])

    def __getitem__(self, ij: tuple[int, int]) -> Rational:
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactMatrix) and self.n == other.n and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return ExactMatrix([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return ExactMatrix([[a - b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-a for a in r] for r in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        cols = list(zip(*other.rows))
        return ExactMatrix([[sum(a * b for a, b in zip(row, col) if a and b)
                             for col in cols] for row in self.rows])

    def diagonal_entries(self) -> list[Rational]:
        return [self.rows[i][i] for i in range(self.n)]

    def upper_part(self) -> "ExactMatrix":
        """Weakly upper triangular part, diagonal included."""
        return ExactMatrix([[a if j >= i else 0 for j, a in enumerate(r)]
                            for i, r in enumerate(self.rows)])

    def strict_lower_part(self) -> "ExactMatrix":
        return ExactMatrix([[a if j < i else 0 for j, a in enumerate(r)]
                            for i, r in enumerate(self.rows)])

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"ExactMatrix[{body}]"


def clear_denominators(m: ExactMatrix) -> tuple[ExactMatrix, int]:
    """(c M, c) for the least c > 0 that makes c M an integer matrix (M itself if c = 1)."""
    c = 1
    for row in m.rows:
        for x in row:
            if type(x) is not int:
                c = lcm(c, x.denominator)
    if c == 1:
        return m, c
    return ExactMatrix([[x * c if type(x) is int else x.numerator * (c // x.denominator)
                         for x in row] for row in m.rows]), c


# --------------------------------------------------------------------- cyclic order


def cyc_ordered(i: int, j: int, k: int, n: int) -> bool:
    """Does j lie on the cyclic arc from i to k?  For i == k only j == i does."""
    return (j - i) % n + (k - j) % n == (k - i) % n


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


def cp_mul(p: ExactMatrix, q: ExactMatrix) -> ExactMatrix:
    """Circular product: sum over the cyclic arc from row to column index."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    qrows = q.rows
    out = []
    for prow, arcs in zip(p.rows, _arcs(p.n)):
        orow = []
        for k, arc in enumerate(arcs):
            acc: Rational = 0
            for j in arc:
                a = prow[j]
                if a:
                    b = qrows[j][k]
                    if b:
                        acc += a * b
            orow.append(acc)
        out.append(orow)
    return ExactMatrix(out)


def s_mul(p: ExactMatrix, q: ExactMatrix, s: Rational) -> ExactMatrix:
    """Deformed product sum_j s^{e(i,j,k)} P_{ij} Q_{jk}; s=1 ordinary, s=0 circular."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    n = p.n
    s_n = s ** n
    qrows = q.rows
    out = []
    for prow, arcs, off_arcs in zip(p.rows, _arcs(n), _off_arcs(n)):
        orow = []
        for k in range(n):
            on = sum(prow[j] * qrows[j][k] for j in arcs[k])
            off = sum(prow[j] * qrows[j][k] for j in off_arcs[k])
            orow.append(on + s_n * off if off else on)
        out.append(orow)
    return ExactMatrix(out)


def s_scale(m: ExactMatrix, s: Rational) -> ExactMatrix:
    """Rescale M_{ij} by s^{(j-i) mod N} (the conjugation behind s_mul, s != 0)."""
    n = m.n
    powers = [s ** e for e in range(n)]
    return ExactMatrix([[x * powers[(j - i) % n] for j, x in enumerate(row)]
                        for i, row in enumerate(m.rows)])


def cycle(m: ExactMatrix, k: int = 1) -> ExactMatrix:
    """The cycling automorphism M_{ij} -> M_{i+k, j+k} (indices mod N)."""
    n = m.n
    return ExactMatrix.build(n, lambda i, j: m[(i + k - 1) % n + 1, (j + k - 1) % n + 1])


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


def _ratio(v: int, d: int) -> Rational:
    """v / d, an int when d divides v."""
    return v // d if v % d == 0 else Fraction(v, d)


def _upper_adjugate(r: ExactMatrix) -> tuple[list[list[int]], int, int]:
    """(A, c, det S) for R = S / c, S integral, and A = det(S) S^-1.

    The adjugate A is integral and upper triangular, so back substitution
    of S A = det(S) I divides exactly.
    """
    n = r.n
    if any(not d for d in r.diagonal_entries()):
        raise NotInvertible("zero diagonal entry")
    cleared, c = clear_denominators(r)
    s = cleared.rows
    d = prod(s[i][i] for i in range(n))
    adj = [[0] * n for _ in range(n)]
    for j in range(n - 1, -1, -1):
        adj[j][j] = d // s[j][j]
        for i in range(j - 1, -1, -1):
            acc = sum(s[i][k] * adj[k][j] for k in range(i + 1, j + 1) if s[i][k])
            adj[i][j] = -acc // s[i][i]
    return adj, c, d


def upper_inverse(r: ExactMatrix) -> ExactMatrix:
    """Ordinary inverse of a weakly upper triangular matrix, by back substitution.

    R is first cleared of denominators, R = S / c with S integral, and
    R^-1 = c A / det(S) for the integral adjugate A of S, an int wherever
    it is integral.
    """
    adj, c, d = _upper_adjugate(r)
    return ExactMatrix([[_ratio(c * a, d) for a in row] for row in adj])


def cp_inv(p: ExactMatrix) -> ExactMatrix:
    """Circular-product inverse; exists iff every diagonal entry is nonzero.

    With R = S / c the upper part, A the integral adjugate of S and
    L = T / e the cleared strict lower part, the inverse (R^-1, -R^-1 L R^-1)
    is (c A / det S, -c^2 (A T A) / (e det(S)^2)): two integer products and
    one exact division per entry, an int wherever the entry is integral.
    """
    r, low = to_semidirect(p)
    adj, c, d = _upper_adjugate(r)
    t, e = clear_denominators(low)
    adj_m = ExactMatrix(adj)
    lower = (adj_m @ t @ adj_m).rows
    den = e * d * d
    c2 = -c * c
    return ExactMatrix([[_ratio(c * a, d) if j >= i else _ratio(c2 * v, den)
                         for j, (a, v) in enumerate(zip(arow, lrow))]
                        for i, (arow, lrow) in enumerate(zip(adj, lower))])


# --------------------------------------------------------------------- periodic strip


@dataclass(frozen=True)
class StripWindow:
    """The periodic strip of a matrix, read off the matrix itself.

    entry(i, j) is defined in every row i, for 0 <= j - i < N (ValueError
    off the band), and equals M_{i mod N, j mod N}.
    """

    matrix: ExactMatrix

    def entry(self, i: int, j: int) -> Rational:
        n = self.matrix.n
        if not 0 <= j - i < n:
            raise ValueError(f"column {j} outside the band of row {i}")
        return self.matrix[(i - 1) % n + 1, (j - 1) % n + 1]

    def band_product_entry(self, other: "StripWindow", i: int, k: int) -> Rational:
        """Entry (i, k) of the product of two strips, 0 <= k - i < N."""
        acc: Rational = 0
        for j in range(i, k + 1):
            a = self.entry(i, j)
            if a:
                b = other.entry(j, k)
                if b:
                    acc += a * b
        return acc
