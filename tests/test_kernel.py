"""The polynomial kernel against oracles: the closed-form divided
difference against the general lexicographic division of f - tau_i f by
z_i - z_{i+1} and against sympy's cancel, every operator on packed
monomial keys against the tuple-keyed reference TuplePoly, and the Horner
sum in u = z_i - z_{i+1} against literal_horner, and the JSON writer
to_json against json.dumps of to_obj."""

import json
import random
from fractions import Fraction
from math import prod

import pytest
from conftest import TuplePoly, lex_divide, literal_horner

from brauerloop.errors import ExponentOverflow, InexactDivision
from brauerloop.exactpoly import MAX_EXPONENT, MultiPoly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
checked = hypothesis.settings(max_examples=60, deadline=None)


@st.composite
def polys(draw, nz=None, top=4, max_size=8):
    if nz is None:
        nz = draw(st.integers(2, 4))
    key = st.tuples(*[st.integers(0, top)] * (nz + 1))
    return MultiPoly(nz, draw(st.dictionaries(key, st.integers(-5, 5), max_size=max_size)))


@st.composite
def poly_pairs(draw, top=4, max_size=8):
    nz = draw(st.integers(1, 4))
    return draw(polys(nz, top, max_size)), draw(polys(nz, top, max_size))


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@checked
@hypothesis.given(st.integers(0, 4).flatmap(
    lambda nz: st.tuples(*[st.integers(0, MAX_EXPONENT)] * (nz + 1))), st.integers(-9, 9))
def test_pack_unpack_roundtrip(exps, c):
    hypothesis.assume(c)
    nz = len(exps) - 1
    p = MultiPoly(nz, {exps: c})
    assert p.monomials() == {exps: c}
    assert p.to_obj() == [[str(c), exps[0], list(exps[1:])]]
    assert MultiPoly.from_obj(nz, p.to_obj()) == p


@checked
@hypothesis.given(polys(top=MAX_EXPONENT, max_size=20))
def test_packed_order_is_lex_order(p):
    # monomials() unpacks the sorted packed keys; to_obj and __str__ read that order
    keys = list(p.monomials())
    assert keys == sorted(keys)
    assert [(a, *z) for _, a, z in p.to_obj()] == keys
    assert p.to_obj() == TuplePoly.of(p).to_obj()


@checked
@hypothesis.given(poly_pairs(), st.integers(0, 3))
def test_ring_operations_match_reference(pq, e):
    p, q = pq
    rp, rq = TuplePoly.of(p), TuplePoly.of(q)
    assert (rp + rq).matches(p + q)
    assert (rp - rq).matches(p - q)
    assert (rp * rq).matches(p * q)
    assert (rp * -3).matches(p * -3)
    assert (rp ** e).matches(p ** e)


@checked
@hypothesis.given(poly_pairs(top=MAX_EXPONENT // 2 + 8, max_size=4))
def test_products_overflow_exactly_past_the_field(pq):
    p, q = pq
    want = TuplePoly.of(p) * TuplePoly.of(q)
    if any(e > MAX_EXPONENT for key in want.terms for e in key):
        with pytest.raises(ExponentOverflow):
            p * q
    else:
        assert want.matches(p * q)


@checked
@hypothesis.given(polys(nz=None), st.data())
def test_variable_operators_match_reference(p, data):
    ref = TuplePoly.of(p)
    for i in range(1, p.nz + 1):
        assert ref.tau(i).matches(p.tau(i))
        assert ref.ddiff(i).matches(p.ddiff(i))
        assert ref.theta(i).matches(p.theta(i))
    new_nz = data.draw(st.integers(p.nz, p.nz + 2))
    new_pos = data.draw(st.permutations(range(1, new_nz + 1)))[:p.nz]
    assert ref.map_z(new_nz, new_pos).matches(p.map_z(new_nz, new_pos))
    v = data.draw(st.integers(-4, 4))
    assert ref.specialize_a(v).matches(p.specialize_a(v))
    i = data.draw(st.integers(1, p.nz))
    q = data.draw(polys(p.nz, 2, 3))
    assert ref.subs_z(i, TuplePoly.of(q)).matches(p.subs_z(i, q))
    assert ref.subs_z(i, TuplePoly.of(MultiPoly.const(v, p.nz))).matches(p.subs_z(i, v))


@st.composite
def edge_polys(draw):
    """Polynomials whose fields sit near 0 or at the top, MAX_EXPONENT."""
    nz = draw(st.integers(1, 4))
    field = st.integers(0, 3) | st.integers(MAX_EXPONENT - 2, MAX_EXPONENT)
    key = st.tuples(*[field] * (nz + 1))
    return MultiPoly(nz, draw(st.dictionaries(key, st.integers(-5, 5), max_size=6)))


@checked
@hypothesis.given(edge_polys())
def test_theta_matches_composed_form(p):
    # the composed form's product raises where a nonzero ddiff_i term has A^MAX_EXPONENT
    for i in range(1, p.nz + 1):
        try:
            want = MultiPoly.gen_a(p.nz) * p.ddiff(i) * (-2) - p.tau(i)
        except ExponentOverflow:
            with pytest.raises(ExponentOverflow):
                p.theta(i)
        else:
            assert p.theta(i) == want


@checked
@hypothesis.given(edge_polys(), st.data())
def test_dihedral_is_map_z_then_negate_z(p, data):
    nz = p.nz
    r = data.draw(st.integers(-nz, 2 * nz))
    shift = [(k + r - 1) % nz + 1 for k in range(1, nz + 1)]
    reverse = list(range(nz, 0, -1))
    assert p.dihedral(r) == p.map_z(nz, shift)
    assert p.dihedral(r, flip=True) == p.map_z(nz, reverse).negate_z().map_z(nz, shift)


@checked
@hypothesis.given(polys(max_size=6), st.data())
def test_exact_divide_matches_reference(p, data):
    nz = p.nz
    den = MultiPoly.one(nz)
    for _ in range(data.draw(st.integers(1, 3))):
        a, b = data.draw(st.lists(st.integers(1, nz), min_size=2, max_size=2, unique=True))
        den = den * MultiPoly.linear(nz, 1, {a: 1, b: -1})
    num = p * den
    assert TuplePoly.of(num).exact_divide(TuplePoly.of(den)).matches(num.exact_divide(den))
    rem = data.draw(polys(nz, 0, 1))  # A-degree 0 and nonzero: below den's lead A^k
    if rem:
        with pytest.raises(InexactDivision):
            (num + rem).exact_divide(den)


def term_by_term(p: MultiPoly, a, z):
    """The sum of c * prod(x^e) over the terms of p at the point (a, z)."""
    return sum(c * prod(x ** e for x, e in zip((a, *z), exps))
               for exps, c in p.monomials().items())


@st.composite
def evaluation_cases(draw):
    """A polynomial, nz = 0..4 and exponents up to 4 or MAX_EXPONENT, with
    up to four int points and up to four rational points for it."""
    nz = draw(st.integers(0, 4))
    p = draw(polys(nz, draw(st.sampled_from([4, MAX_EXPONENT]))))

    def points(values):
        return st.lists(st.tuples(values, st.lists(values, min_size=nz, max_size=nz)),
                        max_size=4)

    return p, draw(points(st.integers(-9, 9))), draw(points(rationals))


@checked
@hypothesis.given(evaluation_cases())
def test_evaluate_matches_reference(case):
    p, ints, fractions = case
    values = p.evaluate(ints)
    assert values == [term_by_term(p, a, z) for a, z in ints]
    assert all(type(v) is int for v in values)
    assert p.evaluate(fractions) == [term_by_term(p, a, z) for a, z in fractions]


def test_evaluate_edge_cases():
    a, z1, z2 = MultiPoly.gen_a(2), MultiPoly.gen_z(2, 1), MultiPoly.gen_z(2, 2)
    points = [(3, [1, 2]), (Fraction(1, 2), [0, Fraction(-3, 4)])]
    assert MultiPoly.zero(2).evaluate(points) == [0, 0]
    assert MultiPoly.const(-7, 2).evaluate(points) == [-7, -7]
    assert MultiPoly.const(5, 0).evaluate([(2, []), (9, ())]) == [5, 5]
    assert MultiPoly.linear(1, 2, {1: -1}).evaluate([(3, [4]), (0, [1])]) == [2, -1]
    top = a ** MAX_EXPONENT * z2 ** MAX_EXPONENT - z1 ** MAX_EXPONENT
    assert top.evaluate(points) == [3 ** MAX_EXPONENT * 2 ** MAX_EXPONENT - 1,
                                    Fraction(-3, 8) ** MAX_EXPONENT]
    assert ((a + z1) * (a - z2)).evaluate([]) == []
    assert MultiPoly.zero(0).evaluate(iter([])) == []
    # every point is checked before any is evaluated
    for bad in ([(1, [1])], [(1, [1, 2]), (1, [1, 2, 3])]):
        with pytest.raises(ValueError, match="need 2 z values"):
            (a + z1).evaluate(bad)


@checked
@hypothesis.given(polys(top=MAX_EXPONENT))
def test_serialization_matches_reference(p):
    obj = p.to_obj()
    assert obj == TuplePoly.of(p).to_obj()
    assert TuplePoly.from_obj(p.nz, obj).matches(MultiPoly.from_obj(p.nz, obj))
    assert MultiPoly.from_obj(p.nz, obj) == p


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(polys())
def test_ddiff_matches_lex_division(f):
    for i in range(1, f.nz + 1):  # i = nz pairs z_nz with z_1
        j = i % f.nz + 1
        den = MultiPoly.linear(f.nz, z_coeffs={i: 1, j: -1})
        assert f.ddiff(i) == lex_divide(f - f.tau(i), den)


def test_ddiff_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(67)
    nz = 3
    syms = sympy.symbols("A z1 z2 z3")

    def to_sympy(p):
        return sum((c * sympy.prod([s ** e for s, e in zip(syms, k)])
                    for k, c in p.monomials().items()), sympy.Integer(0))

    for _ in range(6):
        f = MultiPoly(nz, {tuple(rng.randint(0, 3) for _ in range(nz + 1)): rng.randint(-4, 4)
                           for _ in range(5)})
        expr = to_sympy(f)
        for i in range(1, nz + 1):
            x, y = syms[i], syms[i % nz + 1]
            swapped = expr.subs({x: y, y: x}, simultaneous=True)
            want = sympy.cancel((expr - swapped) / (x - y))
            assert sympy.expand(want - to_sympy(f.ddiff(i))) == 0


@st.composite
def horner_cases(draw):
    """(nz, layers, literal): layers of (int, poly) pairs and literal_horner
    of them at each position i.  Some draws cancel to zero: the negated
    literal sum at one position joins the bottom layer."""
    nz = draw(st.integers(1, 4))
    layer = st.lists(st.tuples(st.integers(-3, 3), polys(nz, max_size=5)), max_size=3)
    layers = draw(st.lists(layer, max_size=4))
    cancel = draw(st.none() | st.integers(1, nz))
    literal = {i: literal_horner(nz, i, layers) for i in range(1, nz + 1)}
    if cancel is not None and literal[cancel]:
        layers = [[*(layers[0] if layers else []), (-1, literal[cancel])], *layers[1:]]
        literal = {i: MultiPoly.zero(nz) if i == cancel else literal[i] - literal[cancel]
                   for i in literal}
    return nz, layers, literal


@checked
@hypothesis.given(horner_cases())
def test_horner_u_matches_literal_sum(case):
    nz, layers, literal = case
    for i in range(1, nz + 1):  # i = nz pairs z_nz with z_1
        assert MultiPoly.horner_u(nz, i, layers) == literal[i]


@checked
@hypothesis.given(st.integers(1, 3).flatmap(lambda nz: st.tuples(
    st.just(nz), st.lists(st.lists(st.tuples(st.integers(-3, 3),
                                             polys(nz, MAX_EXPONENT, 3)), max_size=2),
                          max_size=3))))
def test_horner_u_overflows_exactly_past_the_field(case):
    nz, layers = case
    for i in range(1, nz + 1):
        j = i % nz + 1
        u = (TuplePoly(nz, {tuple(int(k == i) for k in range(nz + 1)): 1})
             - TuplePoly(nz, {tuple(int(k == j) for k in range(nz + 1)): 1}))  # 0 if nz = 1
        want = TuplePoly(nz, {})
        for k, pairs in enumerate(layers):
            for c, f in pairs:
                want = want + u ** k * (TuplePoly.of(f) * c)
        if any(e > MAX_EXPONENT for key in want.terms for e in key):
            with pytest.raises(ExponentOverflow):
                MultiPoly.horner_u(nz, i, layers)
        else:
            assert want.matches(MultiPoly.horner_u(nz, i, layers))


# coefficients of one machine word and of several, of either sign
coefficients = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))


@st.composite
def wide_polys(draw, nz=None):
    """Polynomials in 0..8 z variables, empty or not, with exponents up to MAX_EXPONENT."""
    if nz is None:
        nz = draw(st.integers(0, 8))
    key = st.tuples(*[st.integers(0, MAX_EXPONENT)] * (nz + 1))
    return MultiPoly(nz, draw(st.dictionaries(key, coefficients, max_size=12)))


@checked
@hypothesis.given(wide_polys(), st.data())
def test_to_json_is_json_dumps_of_to_obj(p, data):
    def oracle(q):
        return json.dumps(q.to_obj(), separators=(",", ":"))

    assert p.to_json({}) == oracle(p)
    # a cache shared with another polynomial in the same variables, filled
    # by it first and then read by p, gives the same text
    other = MultiPoly(p.nz, {**p.monomials(),
                             **data.draw(wide_polys(p.nz)).monomials()})
    suffixes: dict[int, str] = {}
    assert other.to_json(suffixes) == oracle(other)
    assert p.to_json(suffixes) == oracle(p)
    assert set(suffixes) == set(other.terms) | set(p.terms)
