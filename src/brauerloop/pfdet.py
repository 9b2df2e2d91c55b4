"""Pfaffians, degree determinants, and the square-zero-cone formulas.

The Pfaffian is computed by fraction-free skew elimination over the
integers (Parlett and Reid 1970, with the exact divisions of Sylvester's
identity); `Fraction` entries are cleared by one common denominator first.
Odd size borders the matrix with one point joined to all others, with the
sign of the permutation (a1 b1 ... an bn k); the odd-N total multidegree
uses it, oriented z_j - z_i.

The cone D1 of square-zero N x N matrices has a multidegree with two
closed forms: a localization sum over n-element subsets, and a Pfaffian
product.  Both are rational-function identities, so they are checked by
exact evaluation at admissible points, never with floating point.  Both
forms are homogeneous, so each is evaluated at the integer image of the
point and divided by one power of its common denominator at the end.
The points come from here too: random_point draws a seeded point and
screens it by the integer image and pole rule the forms evaluate with
(_integer_point), and integer_image gives that image to the table checks.
The forms tie the whole table together: D1 degenerates onto the loop
scheme with multiplicity 2^(n+r) on every component, so

    form = 2^(n+r) A^N sum_pi mdeg E_pi.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, lcm, prod
from typing import Callable, Sequence

from .errors import IdentityViolation, PoleHit
from .linalg import det


class SkewMatrix:
    """Antisymmetric square matrix with int and `Fraction` entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        for i in range(self.n):
            if len(self.rows[i]) != self.n:
                raise ValueError("matrix must be square")
            if not (self.rows[i][i] == 0):
                raise ValueError("diagonal must vanish")
            for j in range(i):
                if not (self.rows[i][j] == -self.rows[j][i]):
                    raise ValueError("matrix must be antisymmetric")

    @classmethod
    def build(cls, n: int, upper: Callable[[int, int], object]) -> "SkewMatrix":
        """Fill from the strict upper triangle, 1-based upper(i, j), i < j."""
        rows: list[list] = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = upper(i + 1, j + 1)
                rows[i][j] = v
                rows[j][i] = -v
        return cls(rows)

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.rows[i - 1][j - 1]


def pfaffian(m: SkewMatrix) -> int | Fraction:
    """The canonical square root of the determinant, by fraction-free skew
    elimination; an `int` whenever the value is integral.

    `Fraction` entries are first multiplied by their common denominator c,
    and the Pfaffian of the integer matrix is divided by c^(N/2).  Step k
    swaps a nonzero a[k][j] into column k+1 (negating the value) and, with
    p = a[k][k+1] its pivot and p' the pivot of step k-2 (1 at step 0),
    replaces the trailing block by

        (p a[i][j] + a[k+1][i] a[k][j] - a[k][i] a[k+1][j]) // p'.

    The division is exact.  By induction the entry (i, j) after step k is
    the Pfaffian of the swapped matrix on the points 1..k+2, i, j, and the
    Pfaffian form of Sylvester's identity (Knuth, "Overlapping Pfaffians",
    Electron. J. Combin. 3(2), 1996) says that the numerator is p' times
    it.  So every pivot is a leading sub-Pfaffian, and the last one is the
    Pfaffian of the swapped matrix.  Each step drops its two points from
    the matrix and computes the upper half of the trailing block only; the
    lower half is its negated mirror, which the next swap needs.
    """
    n = m.n
    if n % 2:
        raise ValueError("even size required")
    c = lcm(*(x.denominator for row in m.rows for x in row))
    a = [[x.numerator * (c // x.denominator) for x in row] for row in m.rows]
    sign = prev = 1
    while a:
        pivot = next((j for j in range(1, len(a)) if a[0][j]), None)
        if pivot is None:
            return 0
        if pivot != 1:
            a[1], a[pivot] = a[pivot], a[1]
            for row in a:
                row[1], row[pivot] = row[pivot], row[1]
            sign = -sign
        top, nxt = a[0], a[1]
        p = top[1]
        block: list[list[int]] = []
        for i in range(2, len(a)):
            s, t = top[i], nxt[i]
            upper = [(p * x + t * u - s * w) // prev
                     for x, u, w in zip(a[i][i + 1:], top[i + 1:], nxt[i + 1:])]
            block.append([-row[i - 2] for row in block] + [0] + upper)
        a = block
        prev = p
    value = Fraction(sign * prev, c ** (n // 2))
    return value.numerator if value.denominator == 1 else value


def skew_sum(m: SkewMatrix, border: Sequence | None = None):
    """The Pfaffian, extended to odd size by bordering.

    An odd-size matrix gains one extra last point joined to every point i
    with weight border[i], by default 1.  Expanding that Pfaffian along
    the extra point gives the matching sum that leaves one point k out,
    each term signed by the permutation (a1 b1 ... an bn k) and weighted
    by border[k]; for size 1 the value is border[0].
    """
    if m.n % 2 == 0:
        return pfaffian(m)
    weights = [1] * m.n if border is None else list(border)
    return pfaffian(SkewMatrix([row + [w] for row, w in zip(m.rows, weights)]
                               + [[-w for w in weights] + [0]]))


# ---------------------------------------------------------------- degree counts


def degree_determinant(n: int) -> int:
    """Total degree of the loop scheme: a binomial determinant."""
    half = n // 2
    if n % 2 == 0:
        rows = [[comb(2 * i + 2 * j + 1, 2 * i) for j in range(half)]
                for i in range(half)]
    else:
        rows = [[comb(2 * i + 2 * j + 3, 2 * i + 1) for j in range(half)]
                for i in range(half)]
    if half == 0:
        return 1
    value = det(rows)
    if not isinstance(value, int):
        raise IdentityViolation(f"degree determinant at n={n} is {value}, not an integer")
    return value


# ---------------------------------------------------------------- evaluation forms

Rational = int | Fraction


def _integer_point(n: int, a: Rational, z: Sequence[Rational]) -> tuple[int, int, list[int]]:
    """(D, D a, D z) for the least D > 0 that makes an admissible point integral.

    Raises PoleHit, naming the first pole in the order (i, j), where two z
    coincide or A + z_i - z_j vanishes; scaling by D keeps both.
    """
    if len(z) != n:
        raise ValueError("point size mismatch")
    scale = lcm(a.denominator, *(x.denominator for x in z))
    ai = a.numerator * (scale // a.denominator)
    zi = [x.numerator * (scale // x.denominator) for x in z]
    for i in range(n):
        for j in range(n):
            if i != j and zi[i] == zi[j]:
                raise PoleHit(f"z_{i + 1} = z_{j + 1}")
            if i != j and ai + zi[i] - zi[j] == 0:
                raise PoleHit(f"A + z_{i + 1} - z_{j + 1} = 0")
    return scale, ai, zi


def integer_image(a: Fraction, z: list[Fraction]) -> tuple[int, list[int]]:
    """The point D (a, z) for the least D > 0 that makes it integral (_integer_point).

    Both sides of an identity between forms homogeneous of one degree d
    are D^d times their values at (a, z) there, so the identity holds at
    the image exactly when it holds at (a, z), and a polynomial over Z
    evaluates over Z.  A pole raises PoleHit, as in the forms.
    """
    _, ai, zi = _integer_point(len(z), a, z)
    return ai, zi


def random_point(n: int, rng: random.Random) -> tuple[Fraction, list[Fraction]]:
    """An exact evaluation point (a, z), distinct z, avoiding the usual denominators.

    A candidate is a = p/q, p in 1..60 and q in 1..20, and each z_i = s/t,
    s in -40..40 and t in 1..12, drawn in that order.  It is accepted
    unless _integer_point finds a pole: two equal z, or z_j - z_i = a.
    """
    while True:
        a = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        z = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n)]
        try:
            _integer_point(n, a, z)
        except PoleHit:
            continue
        return a, z


def total_mdeg_pfaffian_value(n: int, a: Rational, z: Sequence[Rational]) -> Rational:
    """The Pfaffian product formula for the total multidegree, at a point.

    Entries u/((A+u)(A-u)), i < j, with u = z_i - z_j at even N and the
    opposite orientation u = z_j - z_i at odd N; the prefactor
    prod_{i<j} (A+z_i-z_j)(A+z_j-z_i)/(z_i-z_j) clears every denominator,
    so the value is polynomial in (a, z).

    At odd N the matrix is bordered (skew_sum), and every matching of the
    bordered matrix has one border pair and (N-1)/2 inner pairs.  Turning
    one orientation into the other negates the inner block and so
    multiplies the Pfaffian by (-1)^((N-1)/2): the value with entries
    oriented z_j - z_i is (-1)^((N-1)/2) times the value oriented
    z_i - z_j.  It is this sign that makes the limit at A = 1, z -> 0
    the degree determinant (tested at N = 1..13).

    The form is homogeneous of degree ceil(N^2/2) - N, so it is evaluated
    at the integer image (D a, D z) and divided by D^deg once, with
    integers only.  There row and column i of the matrix are multiplied
    by d_i = lcm_{j != i} (A+u_ij).  Since u_ji = -u_ij, d_i d_j is a
    multiple of (A+u_ij)(A-u_ij), so every entry becomes an integer, and
    d_i has about half the bits of the lcm of the whole denominators,
    which the elimination's cost follows.  At odd N the border entry of
    point i is d_i instead of 1, so the matrix is D' B D' with
    D' = diag(d_1, ..., d_N, 1) and B the bordered matrix.  Either way its
    Pfaffian is prod d_i times that of the entries above, and one exact
    division at the end gives the value: an int at an integer point, a
    Fraction only at a rational one.
    """
    scale, ai, zi = _integer_point(n, a, z)
    sign = -1 if n % 2 else 1
    # A + u of the pair (i, j); (A+u)(A-u) is plus[i][j] * plus[j][i]
    plus = [[ai + sign * (zi[i] - zi[j]) for j in range(n)] for i in range(n)]
    d = [lcm(*(plus[i][j] for j in range(n) if j != i)) for i in range(n)]
    cof = [[d[i] // plus[i][j] if j != i else 0 for j in range(n)] for i in range(n)]
    rows = [[cof[i][j] * cof[j][i] * sign * (zi[i] - zi[j]) for j in range(n)]
            for i in range(n)]
    pf = skew_sum(SkewMatrix(rows), d)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    num = pf * prod(plus[i][j] * plus[j][i] for i, j in pairs)
    den = prod(d) * prod(zi[i] - zi[j] for i, j in pairs) * scale ** ((n * n + 1) // 2 - n)
    whole, rest = divmod(num, den)
    return Fraction(num, den) if rest else whole


def d1_mdeg_localization(n: int, a: Rational, z: Sequence[Rational]) -> Fraction:
    """Localization form of the square-zero cone multidegree.

    2^r prod_{i,j} (A+z_i-z_j), the product running over all ordered
    pairs including i = j, times the sum over n-subsets S of
    1/((A+z_s-z_t)(z_t-z_s)) over s in S, t outside.

    The form is homogeneous of degree ceil(N^2/2), so it is evaluated at
    the integer image (D a, D z), D the lcm of the point's denominators,
    and divided by D^deg once.  There the subset terms share the one
    denominator V = prod_{i<j} (z_j - z_i): the term of S times V is the
    integer product of the prefactor's factors A+z_i-z_j off S x S^c and
    of the differences z_j - z_i, i < j, inside S and inside S^c, signed
    by the number of pairs t < s with s in S, t outside.  A depth-first
    walk over the points, each put inside or outside, shares the product
    of every prefix of choices between the subsets that extend it.
    """
    scale, ai, zi = _integer_point(n, a, z)
    if a == 0:
        raise PoleHit("A = 0")
    half, r = n // 2, n % 2
    # factor of the pair j < k, by the sides of j and k: same side,
    # k inside and j outside (one inversion), k outside and j inside
    same = [[(ai + zi[j] - zi[k]) * (ai + zi[k] - zi[j]) * (zi[k] - zi[j])
             for j in range(k)] for k in range(n)]
    k_in = [[-(ai + zi[j] - zi[k]) for j in range(k)] for k in range(n)]
    k_out = [[ai + zi[k] - zi[j] for j in range(k)] for k in range(n)]

    def walk(k: int, acc: int, inside: list[int], outside: list[int]) -> int:
        if k == n:
            return acc
        total = 0
        if len(inside) < half:
            step = (prod(map(same[k].__getitem__, inside))
                    * prod(map(k_in[k].__getitem__, outside)))
            total += walk(k + 1, acc * step, inside + [k], outside)
        if len(outside) < n - half:
            step = (prod(map(k_out[k].__getitem__, inside))
                    * prod(map(same[k].__getitem__, outside)))
            total += walk(k + 1, acc * step, inside, outside + [k])
        return total

    vandermonde = prod(zi[k] - zi[j] for k in range(n) for j in range(k))
    return Fraction(2 ** r * ai ** n * walk(0, 1, [], []),
                    vandermonde * scale ** ((n * n + 1) // 2))


def d1_mdeg_pfaffian_form(n: int, a: Rational, z: Sequence[Rational]) -> Rational:
    """Pfaffian form: 2^(n+r) A^N times the total-multidegree product."""
    half, r = n // 2, n % 2
    return 2 ** (half + r) * a ** n * total_mdeg_pfaffian_value(n, a, z)


def d0_multiplicity_check(table, points: int = 20, seed: int = 4093) -> dict:
    """Both closed forms against 2^(n+r) A^N times the table's total.

    The flat degeneration carries every component with multiplicity
    2^(n+r); the A^N accounts for the full matrix space against the
    zero-diagonal subspace.  Every side is homogeneous of degree
    ceil(N^2/2), so each seeded rational point is evaluated at its integer
    image.  The points are drawn first, the table's total is evaluated at
    all their images in one call, and the closed forms are compared point
    by point in the order drawn.
    """
    if points < 1:
        raise ValueError(f"points must be at least 1, not {points}")
    n = table.n
    half, r = n // 2, n % 2
    factor = 2 ** (half + r)
    rng = random.Random(seed)
    drawn = [random_point(n, rng) for _ in range(points)]
    images = [integer_image(a, z) for a, z in drawn]
    for (a, z), (ai, zi), value in zip(drawn, images, table.mdeg_sum().evaluate(images)):
        expected = factor * ai ** n * value
        loc = d1_mdeg_localization(n, ai, zi)
        pf = d1_mdeg_pfaffian_form(n, ai, zi)
        if loc != expected or pf != expected:
            raise IdentityViolation(
                f"square-zero cone forms disagree at a={a}, z={z} (values at its "
                f"integer image): {loc}, {pf}, expected {expected}")
    return {"points": points}
