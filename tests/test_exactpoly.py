"""Exact polynomial ring: ring axioms against the evaluation homomorphism,
fixed identities for the symmetrizing operators, serialization."""

import random
from fractions import Fraction

import pytest
from conftest import lex_divide, literal_horner

from brauerloop.errors import ExponentOverflow, InexactDivision, NotHomogeneous
from brauerloop.exactpoly import MAX_EXPONENT, MultiPoly


def rand_poly(nz: int, rng: random.Random) -> MultiPoly:
    """Small random polynomial: a sum of products of random linear forms."""
    out = MultiPoly.zero(nz)
    for _ in range(rng.randint(1, 3)):
        term = MultiPoly.const(rng.randint(-3, 3), nz)
        for _ in range(rng.randint(0, 2)):
            term = term * (MultiPoly.linear(
                nz, rng.randint(-2, 2),
                {i: rng.randint(-2, 2) for i in range(1, nz + 1)})
                + rng.randint(-2, 2))
        out = out + term
    return out


def rand_point(nz: int, rng: random.Random):
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    z = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nz)]
    return a, z


def value(p: MultiPoly, a, z):
    """p at the one point (a, z)."""
    [v] = p.evaluate([(a, z)])
    return v


def test_generators():
    a = MultiPoly.gen_a(2)
    z1 = MultiPoly.gen_z(2, 1)
    z2 = MultiPoly.gen_z(2, 2)
    p = (a + z1) * (a - z2)
    assert p.evaluate([(3, [1, 2])]) == [4]
    assert p == a * a + z1 * a - a * z2 - z1 * z2
    for i in (0, 3):
        with pytest.raises(ValueError):
            MultiPoly.gen_z(2, i)


def test_linear_combines_coefficients():
    p = MultiPoly.linear(3, 2, {1: 1, 3: -1})
    assert p.evaluate([(1, [10, 0, 4])]) == [2 + 10 - 4]
    # z_coeffs may repeat an index through the dict, absent ones are zero
    assert MultiPoly.linear(3) == 0
    # a z index outside 1..nz is refused, never taken as A or the constant term
    for i in (0, 4):
        with pytest.raises(ValueError):
            MultiPoly.linear(3, 0, {i: 1})


def test_equality_against_scalars():
    assert MultiPoly.const(Fraction(4, 2), 3) == 2
    assert MultiPoly.zero(2) == 0
    assert not MultiPoly.gen_a(2) == 1
    assert MultiPoly.one(2) != 0


def test_str_output():
    a = MultiPoly.gen_a(2)
    z1 = MultiPoly.gen_z(2, 1)
    assert str(MultiPoly.zero(2)) == "0"
    assert str(a * a - z1 * 3) == "A^2 - 3*z1"
    assert str(MultiPoly.const(-1, 2)) == "-1"


def test_ring_ops_match_evaluation():
    rng = random.Random(11)
    for _ in range(200):
        nz = rng.randint(1, 4)
        p = rand_poly(nz, rng)
        q = rand_poly(nz, rng)
        a, z = rand_point(nz, rng)
        pv, qv = value(p, a, z), value(q, a, z)
        assert value(p + q, a, z) == pv + qv
        assert value(p - q, a, z) == pv - qv
        assert value(p * q, a, z) == pv * qv
        assert value(-p, a, z) == -pv
        c = rng.randint(-5, 5)
        assert value(c + p, a, z) == c + pv
        assert value(c - p, a, z) == c - pv
        assert value(p * c, a, z) == pv * c
        assert value(c * p, a, z) == c * pv


def test_sum_of_is_the_fold_of_additions():
    rng = random.Random(8)
    for _ in range(50):
        nz = rng.randint(0, 3)
        ps = [rand_poly(nz, rng) for _ in range(rng.randint(0, 4))]
        ps.append(-ps[0] if ps else MultiPoly.zero(nz))  # cancels every term of one
        fold = MultiPoly.zero(nz)
        for p in ps:
            fold = fold + p
        total = MultiPoly.sum_of(nz, iter(ps))
        assert total == fold and 0 not in total.terms.values()
    with pytest.raises(ValueError, match="mixed variable counts 2 and 3"):
        MultiPoly.sum_of(2, [MultiPoly.gen_a(2), MultiPoly.gen_a(3)])


def test_z_free_sum_is_the_value_at_a_one_z_zero():
    rng = random.Random(5)
    for _ in range(100):
        nz = rng.randint(1, 4)
        p = rand_poly(nz, rng) * MultiPoly.gen_a(nz) ** rng.randint(0, 2)
        assert p.z_free_sum() == value(p, 1, [0] * nz)
    assert MultiPoly.const(7, 0).z_free_sum() == 7
    assert MultiPoly.zero(3).z_free_sum() == 0


def test_pow():
    rng = random.Random(5)
    p = rand_poly(3, rng)
    assert p ** 0 == 1
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_degrees():
    a = MultiPoly.gen_a(2)
    z1 = MultiPoly.gen_z(2, 1)
    p = a * a * z1
    assert p.homogeneous_degree() == 3
    assert MultiPoly.zero(2).homogeneous_degree() == 0
    with pytest.raises(NotHomogeneous):
        (p + a).homogeneous_degree()


def test_tau_swaps_neighbours():
    z = [MultiPoly.gen_z(3, i) for i in range(1, 4)]
    assert z[0].tau(1) == z[1]
    assert z[1].tau(1) == z[0]
    assert z[2].tau(1) == z[2]
    # the last index wraps around to z_1
    assert z[2].tau(3) == z[0]
    assert z[0].tau(3) == z[2]
    rng = random.Random(7)
    for _ in range(50):
        p = rand_poly(3, rng)
        i = rng.randint(1, 3)
        assert p.tau(i).tau(i) == p


def test_ddiff_basics():
    z1 = MultiPoly.gen_z(3, 1)
    z2 = MultiPoly.gen_z(3, 2)
    assert MultiPoly.const(5, 3).ddiff(1) == 0
    assert z1.ddiff(1) == 1
    assert z2.ddiff(1) == -1
    # symmetric polynomials are killed
    assert (z1 * z2).ddiff(1) == 0
    assert (z1 + z2).ddiff(1) == 0


def test_ddiff_leibniz():
    # d_i(pq) = d_i(p) q + tau_i(p) d_i(q)
    rng = random.Random(23)
    for _ in range(50):
        p = rand_poly(3, rng)
        q = rand_poly(3, rng)
        i = rng.randint(1, 3)
        assert (p * q).ddiff(i) == p.ddiff(i) * q + p.tau(i) * q.ddiff(i)


def test_theta_hand_case():
    # theta_1 (A - z1)(A + z2) = 4A^2 - (A + z1)(A - z2)
    a = MultiPoly.gen_a(2)
    z1 = MultiPoly.gen_z(2, 1)
    z2 = MultiPoly.gen_z(2, 2)
    got = ((a - z1) * (a + z2)).theta(1)
    assert got == a * a * 4 - (a + z1) * (a - z2)


def test_theta_preserves_homogeneous_degree():
    rng = random.Random(31)
    a = MultiPoly.gen_a(3)
    for _ in range(20):
        p = MultiPoly.one(3)
        for _ in range(rng.randint(1, 3)):
            p = p * (a + MultiPoly.gen_z(3, rng.randint(1, 3)) * rng.randint(-2, 2))
        i = rng.randint(1, 3)
        assert p.theta(i).homogeneous_degree() == p.homogeneous_degree()


def rand_weights(nz: int, rng: random.Random) -> MultiPoly:
    """A product of up to three weights A + z_a - z_b."""
    out = MultiPoly.one(nz)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(1, nz + 1), 2)
        out = out * MultiPoly.linear(nz, 1, {a: 1, b: -1})
    return out


def rand_monic(nz: int, rng: random.Random) -> MultiPoly:
    """A^k plus random terms of A-degree below k."""
    k = rng.randint(0, 3)
    lower = {(rng.randint(0, k - 1),) + tuple(rng.randint(0, 2) for _ in range(nz)):
             rng.randint(-3, 3) for _ in range(rng.randint(0, 4) if k else 0)}
    return MultiPoly.gen_a(nz) ** k + MultiPoly(nz, lower)


def test_exact_divide():
    rng = random.Random(43)
    for _ in range(100):
        nz = rng.randint(2, 4)
        p = rand_poly(nz, rng)
        for d in (rand_weights(nz, rng), rand_monic(nz, rng)):
            assert (p * d).exact_divide(d) == p == lex_divide(p * d, d)
    a = MultiPoly.gen_a(2)
    z1 = MultiPoly.gen_z(2, 1)
    with pytest.raises(InexactDivision):
        (a * a + z1).exact_divide(a + z1)


def test_exact_divide_certifies_integer_quotient():
    # a divisor monic in A never divides a coefficient, so the quotient is in Z
    a = MultiPoly.gen_a(2)
    z1, z2 = MultiPoly.gen_z(2, 1), MultiPoly.gen_z(2, 2)
    w = a + z1 - z2
    assert (w * (a - z1) * 3).exact_divide(w) == (a - z1) * 3
    # z1 / (2 z1) = 1/2 is not in Z[A, z]: such a divisor is refused outright
    with pytest.raises(ValueError, match="not monic"):
        z1.exact_divide(z1 * 2)
    with pytest.raises(InexactDivision):
        (a * a * 2 + 1).exact_divide(a + 1)


def test_exact_divide_rejects_remainders():
    rng = random.Random(47)
    for _ in range(100):
        nz = rng.randint(2, 4)
        d = rand_weights(nz, rng) * MultiPoly.linear(nz, 1, {1: 1, 2: -1})
        m = max(k[0] for k in d.monomials())
        # a nonzero remainder: A-degree below m
        rem = MultiPoly(nz, {(rng.randint(0, m - 1),) + tuple(rng.randint(0, 2) for _ in range(nz)):
                             rng.choice([-2, -1, 1, 2])})
        num = rand_poly(nz, rng) * d + rem
        with pytest.raises(InexactDivision):
            num.exact_divide(d)
        with pytest.raises(InexactDivision):
            lex_divide(num, d)


@pytest.mark.parametrize("den", ["z1", "2A", "z2 - z1", "A(1 + z1)", "0"])
def test_exact_divide_rejects_divisors_not_monic_in_a(den):
    a = MultiPoly.gen_a(2)
    z1, z2 = MultiPoly.gen_z(2, 1), MultiPoly.gen_z(2, 2)
    divisor = {"z1": z1, "2A": a * 2, "z2 - z1": z2 - z1, "A(1 + z1)": a * (1 + z1),
               "0": MultiPoly.zero(2)}[den]
    with pytest.raises(ZeroDivisionError if den == "0" else ValueError):
        (a * z1 * z2).exact_divide(divisor)


def test_map_z():
    z1 = MultiPoly.gen_z(2, 1)
    z2 = MultiPoly.gen_z(2, 2)
    p = z1 * z1 + z2 * MultiPoly.gen_a(2)
    lifted = p.map_z(4, [3, 1])
    assert lifted == (MultiPoly.gen_z(4, 3) ** 2
                      + MultiPoly.gen_z(4, 1) * MultiPoly.gen_a(4))
    with pytest.raises(ValueError):
        p.map_z(4, [1, 1])
    with pytest.raises(ValueError):
        p.map_z(4, [1])
    with pytest.raises(ValueError):
        p.map_z(2, [1, 3])


def test_subs_z():
    rng = random.Random(59)
    for _ in range(60):
        nz = rng.randint(2, 4)
        p = rand_poly(nz, rng)
        i = rng.randint(1, nz)
        a, z = rand_point(nz, rng)
        c = rng.randint(-4, 4)
        point = list(z)
        point[i - 1] = c
        assert value(p.subs_z(i, c), a, z) == value(p, a, point)
        q = rand_poly(nz, rng)
        point[i - 1] = value(q, a, z)
        assert value(p.subs_z(i, q), a, z) == value(p, a, point)


def test_specialize_a():
    a = MultiPoly.gen_a(2)
    z1 = MultiPoly.gen_z(2, 1)
    p = a * a * 3 + a * z1 + 7
    q = p.specialize_a(2)
    assert q == z1 * 2 + 19
    assert q.evaluate([(100, [1, 0])]) == [21]


def test_horner_u_edge_cases():
    z1, z2, z3 = (MultiPoly.gen_z(3, k) for k in (1, 2, 3))
    assert MultiPoly.horner_u(3, 1, []) == 0
    assert MultiPoly.horner_u(3, 2, [[], [], []]) == 0
    assert MultiPoly.horner_u(3, 1, [[], [(1, z3)]]) == (z1 - z2) * z3
    assert MultiPoly.horner_u(3, 3, [[], [], [(2, z1)]]) == (z3 - z1) ** 2 * z1 * 2
    # u (z1 + z2) + (z2^2 - z1^2) cancels to zero at i = 1, and at the wrap i = 3 it does not
    layers = [[(1, z2 * z2), (-1, z1 * z1)], [(1, z1 + z2)]]
    assert not MultiPoly.horner_u(3, 1, layers).terms
    assert MultiPoly.horner_u(3, 3, layers) == literal_horner(3, 3, layers) != 0
    with pytest.raises(ValueError):
        MultiPoly.horner_u(3, 4, layers)
    with pytest.raises(ValueError):
        MultiPoly.horner_u(3, 1, [[(1, MultiPoly.gen_z(2, 1))]])


@pytest.mark.parametrize("i", [1, 2, 3])
def test_horner_u_raises_on_field_overflow(i):
    nz = 3
    j = i % nz + 1
    zi, zj = MultiPoly.gen_z(nz, i), MultiPoly.gen_z(nz, j)
    rest = MultiPoly.gen_z(nz, 6 - i - j)
    for top in (zi ** MAX_EXPONENT, zj ** MAX_EXPONENT * rest):
        # in the bottom layer, or cancelled above it, the exponent never moves
        assert MultiPoly.horner_u(nz, i, [[(1, top)]]) == top
        assert MultiPoly.horner_u(nz, i, [[(3, top)], [(1, top), (-1, top)]]) == top * 3
        with pytest.raises(ExponentOverflow):
            MultiPoly.horner_u(nz, i, [[(1, top)], [(1, top)]])
        with pytest.raises(ExponentOverflow):
            MultiPoly.horner_u(nz, i, [[], [], [(-2, top)]])
    # an exponent of 126 moves once; 127 in another variable never overflows
    below = zi ** (MAX_EXPONENT - 1)
    assert MultiPoly.horner_u(nz, i, [[], [(1, below)]]) == literal_horner(nz, i, [[], [(1, below)]])
    with pytest.raises(ExponentOverflow):
        MultiPoly.horner_u(nz, i, [[], [], [(1, below)]])
    other = rest ** MAX_EXPONENT * MultiPoly.gen_a(nz) ** MAX_EXPONENT
    assert MultiPoly.horner_u(nz, i, [[], [], [(1, other)]]) == literal_horner(nz, i, [[], [], [(1, other)]])


def test_coefficients_are_integers():
    assert MultiPoly.const(Fraction(4, 2), 2).monomials() == {(0, 0, 0): 2}
    assert type(MultiPoly.from_obj(1, [["-3", 0, [1]]]).monomials()[(0, 1)]) is int
    with pytest.raises(ValueError):
        MultiPoly.const(Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        MultiPoly.linear(2, 1, {1: 0.5})
    with pytest.raises(ValueError):
        MultiPoly.from_obj(1, [["1/2", 0, [1]]])
    with pytest.raises(TypeError):
        MultiPoly.gen_a(2) * Fraction(1, 2)
    with pytest.raises(TypeError):
        MultiPoly.gen_a(2).specialize_a(Fraction(1, 2))


@pytest.mark.parametrize("key", [(0, 1.5), (True, 1), (0, -1), (1,), (0, 1, 2), (0, "1")])
def test_exponents_are_nonnegative_ints(key):
    with pytest.raises(ValueError):
        MultiPoly(1, {key: 1})
    with pytest.raises(ValueError):
        MultiPoly.from_obj(1, [["1", key[0], list(key[1:])]])


def test_exponent_field_boundary():
    top = MAX_EXPONENT
    for key in [(top, 0, 0), (0, top, 0), (0, 0, top)]:
        p = MultiPoly(2, {key: 3})
        assert p.monomials() == {key: 3}
        assert MultiPoly.from_obj(2, p.to_obj()) == p
        over = tuple(e + (e == top) for e in key)
        with pytest.raises(ExponentOverflow):
            MultiPoly(2, {over: 1})
        with pytest.raises(ExponentOverflow):
            MultiPoly.from_obj(2, [["1", over[0], list(over[1:])]])


def test_operations_raise_on_field_overflow():
    a, z1, z2 = MultiPoly.gen_a(2), MultiPoly.gen_z(2, 1), MultiPoly.gen_z(2, 2)
    half = MAX_EXPONENT // 2
    # at the boundary every operation that adds exponents succeeds
    assert (z2 ** half * z2 ** (half + 1)).monomials() == {(0, 0, MAX_EXPONENT): 1}
    assert (a ** MAX_EXPONENT).monomials() == {(MAX_EXPONENT, 0, 0): 1}
    assert ((a + z1) * z1 ** (MAX_EXPONENT - 1)).exact_divide(a + z1) == z1 ** (MAX_EXPONENT - 1)
    # one past it each raises rather than carry into the next field (z2^128 is not z1)
    with pytest.raises(ExponentOverflow):
        z2 ** (half + 1) * z2 ** (half + 1)
    with pytest.raises(ExponentOverflow):
        z2 ** MAX_EXPONENT * z2
    with pytest.raises(ExponentOverflow):
        a ** (MAX_EXPONENT + 1)
    with pytest.raises(ExponentOverflow):  # the quotient would hold A z1^128
        (a * a * z1 ** MAX_EXPONENT).exact_divide(a + z1)
    assert (a ** (MAX_EXPONENT - 1) * z1).theta(1) == a ** MAX_EXPONENT * -2 - a ** (MAX_EXPONENT - 1) * z2
    with pytest.raises(ExponentOverflow):  # -2 A ddiff_1 would hold A^128
        (a ** MAX_EXPONENT * z1).theta(1)


def test_serialization_roundtrip():
    rng = random.Random(61)
    for _ in range(40):
        nz = rng.randint(1, 4)
        p = rand_poly(nz, rng)
        assert MultiPoly.from_obj(nz, p.to_obj()) == p
