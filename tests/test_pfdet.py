"""Pfaffians and the closed degree formulas, checked against naive
expansions, determinants and the recursion tables."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from conftest import with_vanishing_term

from brauerloop.errors import IdentityViolation, PoleHit
from brauerloop.linalg import det
from brauerloop.pfdet import (
    SkewMatrix,
    d0_multiplicity_check,
    d1_mdeg_localization,
    d1_mdeg_pfaffian_form,
    degree_determinant,
    pfaffian,
    skew_sum,
    total_mdeg_pfaffian_value,
)
from brauerloop.psitable import integer_image, random_point, target_degree


def pfaffian_naive(rows):
    """Expansion along the first row, the textbook recursion."""
    n = len(rows)
    if n == 0:
        return 1
    acc = 0
    for j in range(1, n):
        keep = [k for k in range(n) if k not in (0, j)]
        sub = [[rows[a][b] for b in keep] for a in keep]
        acc += (-1) ** (j - 1) * rows[0][j] * pfaffian_naive(sub)
    return acc


def symmetrized_matching_sum(rows):
    """Average of sign(s) prod a_{s(2i-1) s(2i)} over the symmetric group."""
    n = len(rows)
    half = n // 2
    acc = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = perm_sign(perm)
        term = sign
        for i in range(half):
            term *= rows[perm[2 * i]][perm[2 * i + 1]]
        acc += term
    denom = 2 ** half
    for k in range(1, half + 1):
        denom *= k
    return acc / denom


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def rand_skew(n: int, rng: random.Random) -> SkewMatrix:
    return SkewMatrix.build(n, lambda i, j: rng.randint(-5, 5))


def test_skew_matrix_validation():
    SkewMatrix([[0, 2], [-2, 0]])
    with pytest.raises(ValueError):
        SkewMatrix([[1, 2], [-2, 0]])
    with pytest.raises(ValueError):
        SkewMatrix([[0, 2], [2, 0]])
    with pytest.raises(ValueError):
        SkewMatrix([[0, 2]])
    m = SkewMatrix.build(3, lambda i, j: 10 * i + j)
    assert m[1, 2] == 12 and m[2, 1] == -12


def test_pfaffian_small():
    assert pfaffian(SkewMatrix([[0, 7], [-7, 0]])) == 7
    m = rand_skew(4, random.Random(1))
    want = (m[1, 2] * m[3, 4] - m[1, 3] * m[2, 4] + m[1, 4] * m[2, 3])
    assert pfaffian(m) == want
    assert pfaffian(SkewMatrix.build(4, lambda i, j: 0)) == 0
    with pytest.raises(ValueError):
        pfaffian(rand_skew(3, random.Random(2)))


def rand_fraction_skew(n: int, rng: random.Random) -> SkewMatrix:
    return SkewMatrix.build(n, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def test_pfaffian_against_naive_and_determinant():
    rng = random.Random(3)
    for n, count in ((2, 25), (4, 25), (6, 25), (8, 4), (10, 2), (12, 1)):
        for _ in range(count):
            for m in (rand_skew(n, rng), rand_fraction_skew(n, rng)):
                pf = pfaffian(m)
                assert pf == pfaffian_naive(m.rows)
                assert pf * pf == det(m.rows)


def test_pfaffian_pivot_swap_and_singular():
    rng = random.Random(19)
    for n in (4, 8, 12):
        # a[1][2] = 0 forces the first step to swap a later point into place
        m = rand_skew(n, rng)
        rows = [row[:] for row in m.rows]
        rows[0][1] = rows[1][0] = 0
        swapped = SkewMatrix(rows)
        pf = pfaffian(swapped)
        assert pf == pfaffian_naive(rows) and pf * pf == det(rows)
        assert pf != 0
        # u v^T - v u^T has rank 2: the second step finds no pivot
        u = [rng.randint(-5, 5) for _ in range(n)]
        v = [rng.randint(-5, 5) for _ in range(n)]
        u[0], v[0], u[1], v[1] = 1, 0, 0, 1
        rank_two = SkewMatrix.build(n, lambda i, j: u[i - 1] * v[j - 1] - v[i - 1] * u[j - 1])
        assert pfaffian(rank_two) == 0 == pfaffian_naive(rank_two.rows)
    # a zero first row ends the elimination before any pivot
    assert pfaffian(SkewMatrix.build(6, lambda i, j: 0 if i == 1 else i + j)) == 0


def test_pfaffian_of_ints_never_yields_a_float():
    # the first pivot, 2, divides neither later entry of row 1, so the
    # elimination passes through halves before its integer value
    m = SkewMatrix([[0, 2, 1, 1], [-2, 0, 1, 3], [-1, -1, 0, 5], [-1, -3, -5, 0]])
    pf = pfaffian(m)
    assert type(pf) in (int, Fraction) and pf == pfaffian_naive(m.rows) == 8
    rng = random.Random(23)
    for n in (2, 6, 10):
        pf = pfaffian(rand_skew(n, rng))
        assert type(pf) in (int, Fraction) and pf.denominator == 1


def test_odd_pfaffian():
    rng = random.Random(5)
    assert skew_sum(SkewMatrix([[0]])) == 1
    m = rand_skew(3, rng)
    assert skew_sum(m) == m[1, 2] - m[1, 3] + m[2, 3]


def test_odd_pfaffian_matches_symmetrized_sum():
    rng = random.Random(7)
    for n in (1, 3, 5):
        for _ in range(8):
            m = rand_skew(n, rng)
            assert skew_sum(m) == symmetrized_matching_sum(m.rows)


def test_even_pfaffian_matches_symmetrized_sum():
    rng = random.Random(9)
    for _ in range(8):
        m = rand_skew(4, rng)
        assert pfaffian(m) == symmetrized_matching_sum(m.rows)


def test_skew_sum_dispatch():
    rng = random.Random(11)
    m4 = rand_skew(4, rng)
    assert skew_sum(m4) == pfaffian(m4)
    m3 = rand_skew(3, rng)
    assert skew_sum(m3) == pfaffian(SkewMatrix.build(4, lambda i, j: m3[i, j] if j < 4 else 1))


def test_degree_determinant_values():
    assert [degree_determinant(n) for n in range(1, 8)] == [
        1, 1, 3, 7, 55, 307, 6153]


def test_total_mdeg_value_matches_tables(tables):
    rng = random.Random(13)
    for n in (2, 3, 4):
        total = tables(n).mdeg_sum()
        for _ in range(5):
            a, z = random_point(n, rng)
            assert total_mdeg_pfaffian_value(n, a, z) == total.evaluate(a, z)


def test_d0_multiplicity_names_the_failing_point(tables):
    bad = with_vanishing_term(tables(4))
    assert bad.degree_sum() == 7
    a, z = random_point(4, random.Random(4093))
    with pytest.raises(IdentityViolation,
                       match=re.escape(f"square-zero cone forms disagree at a={a}, z={z} ")):
        d0_multiplicity_check(bad)


def test_odd_sign_flip_limits_to_degree_determinant():
    # At A=1, z=eps*(0..n-1) the formula is a polynomial in eps of degree
    # target_degree(n) whose value at eps=0 (a pole of the formula itself)
    # is the degree sum; Lagrange interpolation reaches it from eps != 0.
    # The odd-n orientation z_j - z_i is fixed by this limit, so sizes 7
    # to 13 test it beyond the tables.
    for n in range(1, 14):
        eps = [Fraction(1, 10 * n + k) for k in range(target_degree(n) + 1)]
        at_zero = Fraction(0)
        for k, e in enumerate(eps):
            weight = Fraction(1)
            for j, other in enumerate(eps):
                if j != k:
                    weight *= other / (other - e)
            at_zero += weight * total_mdeg_pfaffian_value(n, 1, [e * c for c in range(n)])
        assert at_zero == degree_determinant(n)


def test_total_mdeg_value_poles():
    with pytest.raises(PoleHit):
        total_mdeg_pfaffian_value(2, Fraction(1), [Fraction(0), Fraction(0)])
    with pytest.raises(PoleHit):
        total_mdeg_pfaffian_value(2, Fraction(1), [Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        total_mdeg_pfaffian_value(2, Fraction(1), [Fraction(0)])


def test_square_zero_cone_forms_agree():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            a, z = random_point(n, rng)
            assert d1_mdeg_localization(n, a, z) == d1_mdeg_pfaffian_form(n, a, z)


def localization_by_subsets(n, a, z):
    """Reference: the subset sum over Fractions, one division per (s, t) pair."""
    half, r = n // 2, n % 2
    prefactor = Fraction(2) ** r
    for i in range(n):
        for j in range(n):
            prefactor *= a + z[i] - z[j]
    total = Fraction(0)
    for inside in itertools.combinations(range(n), half):
        term = Fraction(1)
        for s in inside:
            for t in range(n):
                if t not in inside:
                    term /= (a + z[s] - z[t]) * (z[t] - z[s])
        total += term
    return prefactor * total


def test_localization_matches_subset_sum():
    rng = random.Random(59)
    for n in range(1, 11):
        for _ in range(2):
            a, z = random_point(n, rng)
            assert d1_mdeg_localization(n, a, z) == localization_by_subsets(n, a, z)
            ai, zi = integer_image(a, z)
            assert d1_mdeg_localization(n, ai, zi) == localization_by_subsets(n, ai, zi)
    # negative A and unsorted z: the inversion signs and the Vandermonde sign
    a, z = Fraction(-5, 3), [Fraction(7, 2), Fraction(-1, 4), 2, Fraction(-9, 5), 0]
    assert d1_mdeg_localization(5, a, z) == localization_by_subsets(5, a, z)


def test_square_zero_cone_forms_agree_at_16():
    # elimination keeps the Pfaffian form cheap; the localization form's
    # C(16, 8) subsets set the cost
    a, z = integer_image(*random_point(16, random.Random(29)))
    assert d1_mdeg_localization(16, a, z) == d1_mdeg_pfaffian_form(16, a, z)


def test_square_zero_cone_one_point():
    # single point: the cone is the line, multidegree 2A
    a, z = Fraction(3), [Fraction(1)]
    assert d1_mdeg_localization(1, a, z) == 6
    assert d1_mdeg_pfaffian_form(1, a, z) == 6


def test_square_zero_cone_pole():
    with pytest.raises(PoleHit):
        d1_mdeg_localization(2, Fraction(0), [Fraction(1), Fraction(2)])


def test_multiplicity_check(tables):
    for n in (2, 3, 4):
        assert d0_multiplicity_check(tables(n), points=5) == {"points": 5}
