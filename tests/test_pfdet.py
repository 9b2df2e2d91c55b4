"""Pfaffians and the closed degree formulas, checked against naive
expansions, determinants, the recursion tables, and the skew elimination
over Fractions kept here as an oracle."""

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

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


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


# ---------------------------------------------------------------- Fraction oracles
# The skew elimination over Fractions that pfaffian replaced.  Its entries
# are ratios of sub-Pfaffians, where the fraction-free elimination keeps
# the sub-Pfaffians themselves, so it is an independent route to the value.


def parlett_reid(rows):
    """Step k swaps a nonzero a[k][j] into column k+1 (negating the value),
    multiplies the value by the pivot p = a[k][k+1], and replaces the
    trailing block by a[i][j] + (a[k+1][i] a[k][j] - a[k][i] a[k+1][j]) / p."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    value = Fraction(1)
    for k in range(0, n, 2):
        pivot = next((j for j in range(k + 1, n) if a[k][j]), None)
        if pivot is None:
            return Fraction(0)
        a[k + 1], a[pivot] = a[pivot], a[k + 1]
        for row in a:
            row[k + 1], row[pivot] = row[pivot], row[k + 1]
        top, nxt, p = a[k], a[k + 1], a[k][k + 1]
        value *= p if pivot == k + 1 else -p
        for i in range(k + 2, n):
            s, t = top[i] / p, nxt[i] / p
            for j in range(i + 1, n):
                a[i][j] += t * top[j] - s * nxt[j]
                a[j][i] = -a[i][j]
    return value


def total_mdeg_by_fractions(n, a, z):
    """The Pfaffian product formula with Fraction entries u/((A+u)(A-u)),
    u = z_i - z_j at even N and z_j - z_i at odd N, bordered with weight 1
    at odd N, times prod_{i<j} (A+z_i-z_j)(A+z_j-z_i)/(z_i-z_j)."""
    def entry(i, j):
        u = z[j - 1] - z[i - 1] if n % 2 else z[i - 1] - z[j - 1]
        return Fraction(u) / ((a + u) * (a - u))

    rows = SkewMatrix.build(n, entry).rows
    if n % 2:
        rows = [row + [1] for row in rows] + [[-1] * n + [0]]
    value = parlett_reid(rows)
    for i in range(n):
        for j in range(i + 1, n):
            value = value * ((a + z[i] - z[j]) * (a + z[j] - z[i])) / (z[i] - z[j])
    return value


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
        points = [random_point(n, rng) for _ in range(5)]
        assert [total_mdeg_pfaffian_value(n, a, z) for a, z in points] == total.evaluate(points)


def test_d0_multiplicity_names_the_failing_point(tables):
    bad = with_vanishing_term(tables(4))
    assert bad.degree_sum() == 7
    a, z = random_point(4, random.Random(4093))
    with pytest.raises(IdentityViolation,
                       match=re.escape(f"square-zero cone forms disagree at a={a}, z={z} ")):
        d0_multiplicity_check(bad)


# the first failure when the added term vanishes at the first k points
# that d0_multiplicity_check draws (seed 4093), k = 1, 2, 3
LATER_CONE_FAILURES = [
    "a=8/5, z=[Fraction(-23, 3), Fraction(-19, 3), Fraction(-10, 7), Fraction(-4, 3)] "
    "(values at its integer image): 264264021256438038528, 264264021256438038528, "
    "expected 171529098381147976777728",
    "a=9/19, z=[Fraction(-25, 11), Fraction(12, 1), Fraction(-32, 7), Fraction(-5, 4)] "
    "(values at its integer image): 437866692154630252946645338718208, "
    "437866692154630252946645338718208, expected -5536984667710280091071565307896798216192",
    "a=10/19, z=[Fraction(-23, 4), Fraction(-12, 11), Fraction(36, 7), Fraction(-1, 1)] "
    "(values at its integer image): 330393193921776379622215680000000, "
    "330393193921776379622215680000000, "
    "expected -41798456513560371244741552058173894656000000",
]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_d0_multiplicity_names_a_later_failing_point(tables, k):
    rng = random.Random(4093)
    zeros = [integer_image(*random_point(4, rng)) for _ in range(k)]
    with pytest.raises(IdentityViolation) as err:
        d0_multiplicity_check(with_vanishing_term(tables(4), zeros))
    assert str(err.value) == "square-zero cone forms disagree at " + LATER_CONE_FAILURES[k - 1]


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


# ---------------------------------------------------------------- against the oracles

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
ENTRIES = {
    "int": st.integers(-5, 5),
    "fraction": fractions,
    "mixed": st.one_of(st.integers(-5, 5), fractions),
    # mostly zero, so that later steps meet zero pivots too
    "sparse": st.sampled_from((0, 0, 0, 1, -2, Fraction(3, 2))),
}


@st.composite
def skew_matrices(draw):
    """An even skew matrix of size at most 10 whose first row starts with
    a drawn number of zeros, so that the first step must swap."""
    n = draw(st.sampled_from((0, 2, 4, 6, 8, 10)))
    upper = iter(draw(st.lists(ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))],
                               min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    zeros = draw(st.integers(0, max(n - 1, 0)))
    return SkewMatrix.build(n, lambda i, j: 0 if i == 1 and j <= zeros + 1 else next(upper))


@st.composite
def singular_skew_matrices(draw):
    """sum_k u_k v_k^T - v_k u_k^T over fewer than N/2 pairs: rank below N."""
    n = draw(st.sampled_from((2, 4, 6, 8, 10)))
    vectors = st.lists(st.one_of(st.integers(-4, 4), fractions), min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(vectors, vectors), max_size=n // 2 - 1))
    return SkewMatrix.build(n, lambda i, j: sum(
        (u[i - 1] * v[j - 1] - v[i - 1] * u[j - 1] for u, v in pairs), 0))


def integral(value) -> bool:
    return type(value) is int if value.denominator == 1 else type(value) is Fraction


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(skew_matrices())
def test_pfaffian_is_the_fraction_elimination_and_the_expansion(m):
    pf = pfaffian(m)
    assert pf == parlett_reid(m.rows) == pfaffian_naive(m.rows)
    assert integral(pf)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(singular_skew_matrices())
def test_pfaffian_of_a_singular_matrix_is_zero(m):
    assert pfaffian(m) == 0 == parlett_reid(m.rows) == pfaffian_naive(m.rows)


def test_pfaffian_swaps_at_a_later_step():
    # the step on points 3, 4 meets a[3][4] = 0 after the first update and
    # must swap point 5 in; the swap negates the value
    rows = [[0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 2, 1],
            [0, 0, 0, 0, 3, 5], [0, 0, -2, -3, 0, 7], [0, 0, -1, -5, -7, 0]]
    assert pfaffian(SkewMatrix(rows)) == parlett_reid(rows) == pfaffian_naive(rows) == -7
    half = [[Fraction(x, 2) for x in row] for row in rows]
    assert pfaffian(SkewMatrix(half)) == Fraction(-7, 8) == pfaffian_naive(half)


@st.composite
def points(draw, sizes=range(1, 13), integer=False):
    """An admissible point (n, a, z) with a of either sign, z unsorted."""
    n = draw(st.sampled_from(sizes))
    coord = st.integers(-60, 60) if integer else st.builds(
        Fraction, st.integers(-60, 60), st.integers(1, 7))
    a = draw(coord)
    z = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
    hypothesis.assume(all(a + x - y != 0 for x in z for y in z if x != y))
    return n, a, z


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(st.one_of(points(integer=True), points()))
def test_total_mdeg_value_is_the_fraction_form(point):
    n, a, z = point
    value = total_mdeg_pfaffian_value(n, a, z)
    assert value == total_mdeg_by_fractions(n, a, z)
    assert integral(value)
    if all(type(x) is int for x in (a, *z)):
        assert type(value) is int


def test_total_mdeg_value_at_the_seeded_points():
    # the sum-rule and D1 points, and their integer images, at both parities
    rng = random.Random(31)
    for n in range(1, 13):
        for _ in range(3):
            a, z = random_point(n, rng)
            assert total_mdeg_pfaffian_value(n, a, z) == total_mdeg_by_fractions(n, a, z)
            ai, zi = integer_image(a, z)
            value = total_mdeg_pfaffian_value(n, ai, zi)
            assert type(value) is int and value == total_mdeg_by_fractions(n, ai, zi)
    # A = 0 is admissible: the entries are -1/u
    for n in (3, 4):
        z = [0, 2, -5, 7][:n]
        assert total_mdeg_pfaffian_value(n, 0, z) == total_mdeg_by_fractions(n, 0, z)
