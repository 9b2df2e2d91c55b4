"""Sample points on the components: membership, pattern identification,
rank bounds, tangent space and stabilizer dimensions."""

import random
from fractions import Fraction

import pytest

from brauerloop.circlealg import ExactMatrix, cp_inv, cp_mul
from brauerloop.errors import AmbiguousPairing, DegenerateParameters
from brauerloop.escheme import (
    SamplePoint,
    check_generic,
    check_rank_bounds,
    circular_map_rows,
    identify_pattern,
    is_in_E,
    pattern_matrix,
    pattern_product,
    random_sample,
    random_t,
    sample_point,
    southwest_ranks,
    square_diag,
    stabilizer_codim,
    tangent_dimension,
)
from brauerloop.linalg import _pivot_rows, rank
from brauerloop.linkpat import LinkPattern, enumerate_patterns, maximal_pattern, rank_table


def test_pattern_matrix_entries():
    pi = LinkPattern((2, 1, 4, 3))
    m = pattern_matrix(pi, (1, 2, 5, 7))
    assert m[1, 2] == 1 and m[2, 1] == 2 and m[3, 4] == 5 and m[4, 3] == 7
    assert m[1, 3] == 0 and m[1, 1] == 0
    odd = pattern_matrix(LinkPattern((2, 1, 3)))
    assert odd[3, 3] == 0  # fixed point row stays empty
    with pytest.raises(ValueError):
        pattern_matrix(pi, (1, 2))


def test_check_generic():
    pi = LinkPattern((2, 1, 4, 3))
    check_generic(pi, (1, 2, 5, 7))
    with pytest.raises(DegenerateParameters):
        check_generic(pi, (1, 2, 0, 7))
    with pytest.raises(DegenerateParameters):
        check_generic(pi, (1, 2, 2, 1))  # both chords multiply to 2


def test_sample_point_membership():
    rng = random.Random(3)
    for n in range(2, 6):
        for pi in enumerate_patterns(n):
            for _ in range(15):
                sp = random_sample(pi, rng)
                m = sp.matrix
                assert is_in_E(m)
                assert all(d == 0 for d in m.diagonal_entries())
                assert cp_mul(m, m).is_zero()
                assert identify_pattern(m) == pi
                assert check_rank_bounds(m, rank_table(pi))


def test_square_diag_reads_chord_products():
    pi = LinkPattern((2, 1, 4, 3))
    sp = sample_point(pi, (1, 2, 5, 7), ExactMatrix.identity(4))
    assert square_diag(sp.matrix) == [2, 2, 35, 35]
    # conjugation does not move the diagonal of the ordinary square
    rng = random.Random(5)
    for _ in range(20):
        sp = random_sample(pi, rng)
        d = square_diag(sp.matrix)
        assert d[0] == d[1] == sp.t[0] * sp.t[1]
        assert d[2] == d[3] == sp.t[2] * sp.t[3]


def three_product_sample(pi: LinkPattern, t, p: ExactMatrix) -> ExactMatrix:
    """Reference: P o (pi t) o P^{o-1} by two general circular products."""
    return cp_mul(cp_mul(p, pattern_matrix(pi, tuple(t))), cp_inv(p))


def entry_types(m: ExactMatrix) -> list[list[type]]:
    return [[type(x) for x in row] for row in m.rows]


def test_pattern_product_is_the_circular_product_with_the_pattern_matrix():
    rng = random.Random(61)
    off = [0, 0, -3, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3)]
    values = [1, 2, -3, 7, 40, Fraction(3, 2), Fraction(-7, 5)]
    for n in range(1, 8):
        for pi in enumerate_patterns(n):
            for _ in range(3):
                p = ExactMatrix.build(n, lambda i, j: 1 if i == j else rng.choice(off))
                t = tuple(rng.choice(values) for _ in range(n))
                got, want = pattern_product(p, pi, t), cp_mul(p, pattern_matrix(pi, t))
                assert got == want and repr(got) == repr(want)
                assert entry_types(got) == entry_types(want)
                try:
                    check_generic(pi, t)
                except DegenerateParameters:
                    continue
                m, ref = sample_point(pi, t, p).matrix, three_product_sample(pi, t, p)
                assert m == ref and repr(m) == repr(ref) and entry_types(m) == entry_types(ref)
                assert square_diag(m) == (m @ m).diagonal_entries()


def test_sample_point_rejects_bad_conjugator():
    pi = LinkPattern((2, 1))
    with pytest.raises(ValueError):
        sample_point(pi, (1, 2), ExactMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        sample_point(pi, (1, 2), ExactMatrix.identity(3))


def test_is_in_E_rejections():
    assert not is_in_E(ExactMatrix.identity(3))  # nonzero diagonal
    assert is_in_E(ExactMatrix([[0, 1], [1, 0]]))  # the size-2 component itself
    upper = ExactMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert not is_in_E(upper)  # (1,3) entry of the circular square survives


def test_identify_pattern_ambiguous():
    with pytest.raises(AmbiguousPairing):
        identify_pattern(ExactMatrix.zeros(4))
    # equal chord products cannot be split into pairs
    flat = pattern_matrix(LinkPattern((2, 1, 4, 3)), (1, 1, 1, 1))
    with pytest.raises(AmbiguousPairing):
        identify_pattern(flat)


def strip_triangle(m, i, d):
    """The southwest triangle at strip position (i, i+d), 0 <= d < N.

    Row a, column c of the strip for i <= a <= c <= i+d, as a dense
    (d+1) x (d+1) array; entries below the diagonal are outside the
    band and vanish.
    """
    n, rows = m.n, m.rows
    idx = [(i + a - 1) % n for a in range(d + 1)]
    return [[rows[ia][idx[c]] if c >= a else 0 for c in range(d + 1)]
            for a, ia in enumerate(idx)]


def strip_rank(m, i, d):
    """Reference: the rank of the southwest triangle (i, d), by its own reduction."""
    return rank(strip_triangle(m, i, d))


def test_rank_bounds_separate_components():
    # a point of the little-arc component violates the crossing pattern's
    # zero conditions on the first offset
    sp = sample_point(LinkPattern((2, 1, 4, 3)), (1, 2, 5, 7),
                      ExactMatrix.identity(4))
    assert check_rank_bounds(sp.matrix, rank_table(LinkPattern((2, 1, 4, 3))))
    assert not check_rank_bounds(sp.matrix, rank_table(maximal_pattern(4)))
    assert strip_rank(sp.matrix, 1, 1) == 1


def test_rank_bounds_match_one_rank_per_position():
    rng = random.Random(43)
    verdicts = []
    for n in range(1, 9):
        patterns = list(enumerate_patterns(n))
        tables = {rho: rank_table(rho) for rho in patterns}
        points = [random_sample(pi, rng).matrix for pi in patterns for _ in range(2)]
        points += [ExactMatrix.build(n, lambda i, j: rng.choice([0, 0, 1, -2, Fraction(1, 3)]))
                   for _ in range(4)]
        for m in points:
            ranks = {(i, d): strip_rank(m, i, d) for i in range(1, n + 1) for d in range(n)}
            assert southwest_ranks(m) == ranks
            # every bound against every point up to N=6; beyond, a few drawn bounds
            for rho in patterns if n <= 6 else rng.sample(patterns, 4):
                got = check_rank_bounds(m, tables[rho])
                assert got == all(r <= tables[rho].ranks[key] for key, r in ranks.items())
                verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_southwest_ranks_are_the_rank_table():
    # the combinatorial count of strip entries and the linear algebra of a
    # point of the component are two routes to one set of ranks
    rng = random.Random(47)
    for n in range(1, 9):
        for pi in enumerate_patterns(n):
            want = rank_table(pi).ranks
            assert southwest_ranks(pattern_matrix(pi, random_t(pi, rng))) == want
            for _ in range(3):
                assert southwest_ranks(random_sample(pi, rng).matrix) == want


def strip_block(m):
    """The rows 2N-2 down to 0 of the strip, columns 0..2N-2, as southwest_ranks reduces them."""
    n, size = m.n, 2 * m.n - 1
    return [[m.rows[a % n][c % n] if 0 <= c - a < n else 0 for c in range(size)]
            for a in range(size - 1, -1, -1)]


def kept_bits(rows):
    return max((abs(x).bit_length() for _, _, row, _, _ in _pivot_rows(rows) for x in row), default=0)


def test_pivot_rows_stay_small():
    # without Bareiss's exact division only the content division bounds
    # the entries of the kept rows; these bounds hold with room to spare
    # (here at most 6 bits on the strip blocks and 15 on the maps; without
    # the content division the strip blocks reach 39)
    rng = random.Random(53)
    for pi in enumerate_patterns(8):
        assert kept_bits(strip_block(random_sample(pi, rng).matrix)) <= 16
    for pi in enumerate_patterns(6):
        sp = random_sample(pi, rng)
        mt = pattern_matrix(pi, sp.t)
        assert kept_bits(circular_map_rows(sp.matrix, sp.matrix)) <= 32
        assert kept_bits(circular_map_rows(-mt, mt)) <= 32


def test_strip_triangle_is_upper_triangular():
    m = ExactMatrix.build(4, lambda i, j: 10 * i + j)
    assert strip_triangle(m, 3, 2) == [[33, 34, 31], [0, 44, 41], [0, 0, 11]]
    with pytest.raises(ValueError):
        check_rank_bounds(m, rank_table(maximal_pattern(5)))


def map_rows_by_products(n, image):
    """Reference: the flattened image of each basis matrix E_ij, i != j, row-major in (i, j)."""
    rows = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = ExactMatrix.zeros(n)
                e.rows[i][j] = 1
                rows.append([x for row in image(e).rows for x in row])
    return rows


def test_circular_map_rows_match_products_with_basis_matrices():
    rng = random.Random(19)
    entries = [0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-3, 4)]
    for n in range(2, 7):
        for _ in range(4):
            m = ExactMatrix.build(n, lambda i, j: rng.choice(entries))
            a = ExactMatrix.build(n, lambda i, j: rng.choice(entries))
            assert circular_map_rows(m, m) == map_rows_by_products(
                n, lambda e: cp_mul(e, m) + cp_mul(m, e))
            assert circular_map_rows(a, m) == map_rows_by_products(
                n, lambda e: cp_mul(e, a) + cp_mul(m, e))
        for pi in enumerate_patterns(n):
            t = tuple(rng.choice([1, 2, -3, Fraction(5, 2)]) for _ in range(n))
            mt = pattern_matrix(pi, t)
            assert circular_map_rows(-mt, mt) == map_rows_by_products(
                n, lambda e: cp_mul(mt, e) - cp_mul(e, mt))
            sample = random_sample(pi, rng).matrix
            assert circular_map_rows(sample, sample) == map_rows_by_products(
                n, lambda e: cp_mul(e, sample) + cp_mul(sample, e))


def test_tangent_dimension():
    # at the origin every off-diagonal direction is flat
    assert tangent_dimension(ExactMatrix.zeros(3)) == 6
    assert tangent_dimension(ExactMatrix.zeros(4)) == 12
    sp = sample_point(maximal_pattern(4), (1, 2, 5, 7), ExactMatrix.identity(4))
    assert tangent_dimension(sp.matrix) == 8
    rng = random.Random(11)
    for n in range(2, 6):
        for pi in enumerate_patterns(n):
            sp = random_sample(pi, rng)
            assert tangent_dimension(sp.matrix) == n * n // 2


def test_stabilizer_codim():
    rng = random.Random(13)
    for n in range(2, 6):
        half = n // 2
        want = 2 * half * (half + n % 2 - 1)
        for pi in enumerate_patterns(n):
            sp = random_sample(pi, rng)
            assert stabilizer_codim(pi, sp.t) == want


def test_sample_roundtrip():
    pi = LinkPattern((2, 1, 4, 3))
    t = (1, Fraction(1, 2), 3, 5)
    rng = random.Random(17)
    p = ExactMatrix.build(4, lambda i, j: 1 if i == j else rng.randint(-2, 2))
    sp = sample_point(pi, t, p)
    again = SamplePoint.from_obj(sp.to_obj())
    assert again.matrix == sp.matrix
    assert again.t == sp.t
    assert again.pattern == pi
