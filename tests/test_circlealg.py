"""The degenerate circular product: arc order, unit, associativity,
inverses, the semidirect splitting, the strip picture and the s-family."""

import random
from fractions import Fraction

import pytest

from brauerloop.circlealg import (
    ExactMatrix,
    StripWindow,
    clear_denominators,
    cp_inv,
    cp_mul,
    cycle,
    from_semidirect,
    s_mul,
    s_mul_cleared,
    s_scale_cleared,
    semidirect_mul,
    to_semidirect,
)
from brauerloop.errors import NotInvertible


def cyc_ordered(i: int, j: int, k: int, n: int) -> bool:
    """Does j lie on the cyclic arc from i to k?  For i == k only j == i does."""
    return (j - i) % n + (k - j) % n == (k - i) % n


def arc_points(i: int, k: int, n: int) -> list[int]:
    """Walk clockwise from i to k, endpoints included."""
    pts = [i]
    while pts[-1] != k:
        pts.append(pts[-1] % n + 1)
    return pts


def rand_matrix(n: int, rng: random.Random) -> ExactMatrix:
    return ExactMatrix.build(n, lambda i, j: rng.randint(-4, 4))


def rand_unit_upper(n: int, rng: random.Random) -> ExactMatrix:
    return ExactMatrix.build(
        n, lambda i, j: 1 if i == j else rng.randint(-3, 3) if i < j else 0)


def test_cyc_ordered_matches_arc_walk():
    for n in range(2, 7):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    assert cyc_ordered(i, j, k, n) == (j in arc_points(i, k, n))


def test_cyc_ordered_degenerate_arc():
    # for i == k the arc is the single point, not the full circle
    assert cyc_ordered(2, 2, 2, 5)
    assert not cyc_ordered(2, 3, 2, 5)


def test_product_two_by_two():
    p = ExactMatrix([[1, 2], [3, 4]])
    q = ExactMatrix([[5, 6], [7, 8]])
    got = cp_mul(p, q)
    # the (1,1) arc excludes j=2 and the (2,2) arc excludes j=1
    assert got == ExactMatrix([[5, 22], [43, 32]])


def test_identity_is_a_unit():
    rng = random.Random(3)
    for n in range(2, 7):
        m = rand_matrix(n, rng)
        eye = ExactMatrix.identity(n)
        assert cp_mul(eye, m) == m
        assert cp_mul(m, eye) == m


def test_upper_triangular_reduces_to_ordinary_product():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 6)
        p = rand_matrix(n, rng).upper_part()
        q = rand_matrix(n, rng).upper_part()
        assert cp_mul(p, q) == p @ q


def test_diagonal_is_multiplicative():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 6)
        p, q = rand_matrix(n, rng), rand_matrix(n, rng)
        got = cp_mul(p, q)
        for i in range(1, n + 1):
            assert got[i, i] == p[i, i] * q[i, i]


def test_associativity():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 6)
        p, q, r = (rand_matrix(n, rng) for _ in range(3))
        assert cp_mul(cp_mul(p, q), r) == cp_mul(p, cp_mul(q, r))


def test_upper_inverse():
    # on a weakly upper triangular matrix the circular inverse is the ordinary one
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 5)
        r = rand_unit_upper(n, rng)
        rinv = cp_inv(r)
        assert r @ rinv == ExactMatrix.identity(n)
        assert all(isinstance(v, int) for row in rinv.rows for v in row)
    half = cp_inv(ExactMatrix([[2, 0], [0, 1]]))
    assert half[1, 1] == Fraction(1, 2)
    with pytest.raises(NotInvertible):
        cp_inv(ExactMatrix([[0, 1], [0, 1]]))


def test_clear_denominators():
    cleared, c = clear_denominators(ExactMatrix([[Fraction(1, 2), 0], [Fraction(-2, 3), 5]]))
    assert c == 6 and cleared == ExactMatrix([[3, 0], [-4, 30]])
    mixed = ExactMatrix([[Fraction(-7, 4), Fraction(5, 1)], [3, Fraction(1, 6)]])
    cleared, c = clear_denominators(mixed)
    assert c == 12 and cleared == ExactMatrix([[-21, 60], [36, 2]])
    assert all(type(x) is int for row in cleared.rows for x in row)
    ints = ExactMatrix([[1, 2], [3, 4]])
    assert clear_denominators(ints) == (ints, 1)
    integral = ExactMatrix([[Fraction(4, 2), 0], [Fraction(-3, 1), 5]])
    cleared, c = clear_denominators(integral)
    assert c == 1 and cleared == integral
    assert all(type(x) is int for row in cleared.rows for x in row)


def fraction_upper_inverse(r: ExactMatrix) -> ExactMatrix:
    """Reference: back substitution over Fraction, integral entries as ints."""
    n = r.n
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n - 1, -1, -1):
        inv[j][j] = 1 / Fraction(r.rows[j][j])
        for i in range(j - 1, -1, -1):
            acc = sum((r.rows[i][k] * inv[k][j] for k in range(i + 1, j + 1)), Fraction(0))
            inv[i][j] = -acc / r.rows[i][i]
    return ExactMatrix([[int(x) if x.denominator == 1 else x for x in row] for row in inv])


def test_upper_inverse_matches_fraction_back_substitution():
    rng = random.Random(23)

    def entry():
        kind = rng.randrange(3)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if kind == 0 else rng.randint(-5, 5)

    for _ in range(150):
        n = rng.randint(1, 6)
        diag = [rng.choice([-3, -2, -1, 1, 2, 3, Fraction(3, 2), Fraction(-2, 5)]) for _ in range(n)]
        r = ExactMatrix.build(n, lambda i, j: diag[i - 1] if i == j else entry() if i < j else 0)
        got, want = cp_inv(r), fraction_upper_inverse(r)
        assert repr(got) == repr(want)
        assert [[type(x) for x in row] for row in got.rows] == \
            [[type(x) for x in row] for row in want.rows]


def strip_band_inverse(p: ExactMatrix) -> ExactMatrix:
    """Reference: the band of the Fraction inverse of the strip block of rows and columns 0..2N-1."""
    n = p.n
    block = ExactMatrix.build(2 * n, lambda a, b: p.rows[(a - 1) % n][(b - 1) % n]
                              if 0 <= b - a < n else 0)
    inv = fraction_upper_inverse(block)
    return ExactMatrix.build(n, lambda i, k: inv[i, i + (k - i) % n])


@pytest.mark.parametrize("n", range(1, 9))
def test_cp_inv_is_the_band_of_the_strip_inverse(n):
    rng = random.Random(100 + n)
    off = [0, 0, 1, -2, 3, -4, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
    diagonals = {"unit": [1], "integer": [2, 3, 5], "negative": [-1, -2, -3],
                 "fraction": [Fraction(1, 3), Fraction(-5, 2), Fraction(4, 7)],
                 "mixed": [1, -1, 2, -3, Fraction(3, 2), Fraction(-2, 5)]}
    for diag in diagonals.values():
        for _ in range(12):
            p = ExactMatrix.build(n, lambda i, j: rng.choice(diag if i == j else off))
            got, want = cp_inv(p), strip_band_inverse(p)
            assert got == want and repr(got) == repr(want)
            assert [[type(x) for x in row] for row in got.rows] == \
                [[type(x) for x in row] for row in want.rows]


def test_cp_inv_two_sided():
    rng = random.Random(17)
    eye_checked = 0
    for _ in range(80):
        n = rng.randint(2, 6)
        m = rand_matrix(n, rng)
        for i in range(1, n + 1):
            m.rows[i - 1][i - 1] = rng.choice([1, 1, 2, -1, 3])
        inv = cp_inv(m)
        eye = ExactMatrix.identity(n)
        assert cp_mul(m, inv) == eye
        assert cp_mul(inv, m) == eye
        eye_checked += 1
    assert eye_checked == 80
    with pytest.raises(NotInvertible):
        cp_inv(ExactMatrix([[0, 1], [2, 3]]))


def test_cp_inv_of_unit_diagonal_integer_matrix_is_integral():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 7)
        p = ExactMatrix.build(n, lambda i, j: 1 if i == j else rng.randint(-3, 3))
        inv = cp_inv(p)
        assert all(type(x) is int for row in inv.rows for x in row)
        assert cp_mul(p, inv) == ExactMatrix.identity(n) == cp_mul(inv, p)


def semidirect_inverse(p: ExactMatrix) -> ExactMatrix:
    """Reference: (R^-1, -R^-1 L R^-1) by ordinary products."""
    r, low = to_semidirect(p)
    rinv = fraction_upper_inverse(r)
    return from_semidirect(rinv, -(rinv @ low @ rinv))


def test_cp_inv_matches_semidirect_reference():
    rng = random.Random(47)
    for _ in range(120):
        n = rng.randint(1, 6)
        entries = [0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-3, 4)]
        diag = [1, -1, 2, 3, Fraction(1, 3), Fraction(-5, 2)]
        m = ExactMatrix.build(n, lambda i, j: rng.choice(diag if i == j else entries))
        got, want = cp_inv(m), semidirect_inverse(m)
        assert got == want
        for grow, wrow in zip(got.rows, want.rows):
            for g, w in zip(grow, wrow):
                assert type(g) is int or type(w) is not int


def s_mul_by_terms(p: ExactMatrix, q: ExactMatrix, s) -> ExactMatrix:
    """Reference: sum_j s^{e(i,j,k)} P_ij Q_jk, the arc decided term by term."""
    n = p.n
    return ExactMatrix.build(n, lambda i, k: sum(
        p[i, j] * q[j, k] * (1 if cyc_ordered(i, j, k, n) else s ** n)
        for j in range(1, n + 1)))


def test_s_mul_matches_term_by_term_sum():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 6)
        entry = lambda i, j: rng.choice([0, 0, 2, -3, 4, Fraction(2, 3), Fraction(-1, 5)])
        p, q = ExactMatrix.build(n, entry), ExactMatrix.build(n, entry)
        for s in (0, 1, -2, Fraction(3, 2)):
            assert s_mul(p, q, s) == s_mul_by_terms(p, q, s)


def test_s_mul_cleared_is_v_to_the_n_times_the_product():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(1, 6)
        p, q = rand_matrix(n, rng), rand_matrix(n, rng)
        for u, v in ((0, 1), (1, 1), (-3, 2), (-1, 3), (2, 5), (-4, 1)):
            got = s_mul_cleared(p, q, u, v)
            want = s_mul_by_terms(p, q, Fraction(u, v))
            assert got == ExactMatrix([[v ** n * x for x in row] for row in want.rows])
            assert all(type(x) is int for row in got.rows for x in row)


def test_s_scale_cleared_is_v_to_the_n_minus_1_times_the_rescaling():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rand_matrix(n, rng)
        for u, v in ((0, 1), (1, 1), (-3, 2), (2, 5)):
            s = Fraction(u, v)
            want = ExactMatrix.build(n, lambda i, j: v ** (n - 1) * s ** ((j - i) % n) * m[i, j])
            assert s_scale_cleared(m, u, v) == want


def test_sum_and_difference_need_equal_sizes():
    small, big = ExactMatrix.identity(2), ExactMatrix.identity(3)
    with pytest.raises(ValueError, match="size mismatch"):
        small + big
    with pytest.raises(ValueError, match="size mismatch"):
        big - small
    assert small + small == ExactMatrix([[2, 0], [0, 2]])


def test_semidirect_splitting():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(2, 6)
        p, q = rand_matrix(n, rng), rand_matrix(n, rng)
        assert from_semidirect(*to_semidirect(p)) == p
        prod = semidirect_mul(to_semidirect(p), to_semidirect(q))
        assert from_semidirect(*prod) == cp_mul(p, q)


def test_semidirect_components():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 5)
        p, q = rand_matrix(n, rng), rand_matrix(n, rng)
        got = cp_mul(p, q)
        # the upper part multiplies on its own, ignoring the lower parts
        assert got.upper_part() == (p.upper_part() @ q.upper_part()).upper_part()


def strip_entry(m: ExactMatrix, i: int, j: int):
    """Entry (i, j) of the periodic strip of m: m_{i mod N, j mod N} for
    0 <= j - i < N, in every row i; ValueError off the band."""
    n = m.n
    if not 0 <= j - i < n:
        raise ValueError(f"column {j} outside the band of row {i}")
    return m[(i - 1) % n + 1, (j - 1) % n + 1]


def band_product_entry(p: ExactMatrix, q: ExactMatrix, i: int, k: int):
    """Entry (i, k) of the product of the strips of p and q, 0 <= k - i < N,
    summed term by term: the oracle of StripWindow.band_product_row."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    strip_entry(p, i, k)  # off the band: ValueError
    return sum(strip_entry(p, i, j) * strip_entry(q, j, k) for j in range(i, k + 1))


def test_strip_window_entries():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert strip_entry(m, 1, 1) == 1 and strip_entry(m, 1, 2) == 2
    assert strip_entry(m, 3, 3) == 1 and strip_entry(m, 3, 4) == 2  # period two
    assert strip_entry(m, 4, 5) == 3
    # periodic in every row, however far, and in rows below the first
    assert strip_entry(m, 7, 7) == 1 and strip_entry(m, 1000, 1001) == 3
    assert strip_entry(m, 0, 1) == 3 and strip_entry(m, -1, -1) == 1
    for i, j in ((1, 3), (2, 1), (1001, 1003)):
        with pytest.raises(ValueError, match="outside the band"):
            strip_entry(m, i, j)


def test_strip_band_product_rejects_columns_outside_the_band():
    m = ExactMatrix([[1, 2], [3, 4]])
    for i, k in ((3, 1), (3, 2), (1, 3), (0, 2), (5, 4)):
        with pytest.raises(ValueError, match="outside the band"):
            band_product_entry(m, m, i, k)
    assert band_product_entry(m, m, 3, 4) == 1 * 2 + 2 * 4


def test_strip_band_product_matches_circular_product():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 6)
        p, q = rand_matrix(n, rng), rand_matrix(n, rng)
        prod = cp_mul(p, q)
        for i in range(1, 2 * n + 1):
            for d in range(n):
                want = prod[(i - 1) % n + 1, (i + d - 1) % n + 1]
                assert band_product_entry(p, q, i, i + d) == want


def test_strip_band_product_row_is_the_band_product_entries():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 6)
        p, q = rand_matrix(n, rng), rand_matrix(n, rng)
        wp, wq = StripWindow(p), StripWindow(q)
        for i in range(-n, 2 * n + 1):
            assert wp.band_product_row(wq, i) == [
                band_product_entry(p, q, i, i + d) for d in range(n)]
    half = StripWindow(ExactMatrix([[Fraction(1, 2), 0], [1, Fraction(-1, 3)]]))
    assert half.band_product_row(half, 2) == [Fraction(1, 9), Fraction(1, 2) - Fraction(1, 3)]
    with pytest.raises(ValueError, match="size mismatch"):
        wp.band_product_row(StripWindow(ExactMatrix.identity(n + 1)), 1)


def test_s_family_limits():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 6)
        p, q = rand_matrix(n, rng), rand_matrix(n, rng)
        assert s_mul(p, q, 0) == cp_mul(p, q)
        assert s_mul(p, q, 1) == p @ q


def test_s_family_conjugation():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(2, 5)
        p, q = rand_matrix(n, rng), rand_matrix(n, rng)
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        u, v = s.numerator, s.denominator
        tp, tq = s_scale_cleared(p, u, v), s_scale_cleared(q, u, v)
        left = ExactMatrix([[v * x for x in row] for row in tp.rows]) @ tq
        assert left == s_scale_cleared(s_mul_cleared(p, q, u, v), u, v)


def test_s_scale_literal():
    m = ExactMatrix([[1, 1], [1, 1]])
    got = s_scale_cleared(m, 3, 1)
    # at s = 3/1 entry (i, j) picks up s^((j - i) mod n)
    assert got == ExactMatrix([[1, 3], [3, 1]])


def test_cycle():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert cycle(m) == ExactMatrix([[4, 3], [2, 1]])
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 6)
        p, q = rand_matrix(n, rng), rand_matrix(n, rng)
        k = rng.randint(1, n)
        assert cycle(p, n) == p
        assert cycle(cycle(p, 1), k - 1) == cycle(p, k)
        # rotating labels is an automorphism of the circular product
        assert cycle(cp_mul(p, q), k) == cp_mul(cycle(p, k), cycle(q, k))


def test_no_operation_returns_an_operands_row():
    # results wrap freshly built rows: mutating one never reaches an operand
    rng = random.Random(67)
    p, q = rand_matrix(4, rng), rand_matrix(4, rng)
    for i in range(4):
        p.rows[i][i] = 1
    source = [[1, 2], [3, 4]]
    results = [
        ExactMatrix(source), p + q, p - q, -p, p @ q, p.upper_part(),
        p.strict_lower_part(), cp_mul(p, q), cp_inv(p), cp_inv(p.upper_part()),
        s_mul(p, q, 0), s_mul(p, q, 1), s_mul(p, q, Fraction(-3, 2)),
        s_mul_cleared(p, q, 1, 1), s_scale_cleared(p, 1, 1), s_scale_cleared(p, 2, 3),
        cycle(p, 0), cycle(p, 4), cycle(p, 1),
        *to_semidirect(p), from_semidirect(p, q),
        *semidirect_mul(to_semidirect(p), to_semidirect(q)),
    ]
    operand_rows = {id(r) for m in (p, q) for r in m.rows} | {id(r) for r in source}
    operand_lists = {id(p.rows), id(q.rows), id(source)}
    for m in results:
        assert id(m.rows) not in operand_lists
        assert not operand_rows & {id(r) for r in m.rows}
        assert len({id(r) for r in m.rows}) == m.n
