"""The closed-form divided difference against two oracles: the general
lexicographic division of f - tau_i f by z_i - z_{i+1}, on random
polynomials, and sympy's cancel on a few fixed ones."""

import random

import pytest
from conftest import lex_divide

from brauerloop.exactpoly import MultiPoly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def polys(draw):
    nz = draw(st.integers(2, 4))
    key = st.tuples(*[st.integers(0, 4)] * (nz + 1))
    return MultiPoly(nz, draw(st.dictionaries(key, st.integers(-5, 5), max_size=8)))


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
                    for k, c in p.terms.items()), sympy.Integer(0))

    for _ in range(6):
        f = MultiPoly(nz, {tuple(rng.randint(0, 3) for _ in range(nz + 1)): rng.randint(-4, 4)
                           for _ in range(5)})
        expr = to_sympy(f)
        for i in range(1, nz + 1):
            x, y = syms[i], syms[i % nz + 1]
            swapped = expr.subs({x: y, y: x}, simultaneous=True)
            want = sympy.cancel((expr - swapped) / (x - y))
            assert sympy.expand(want - to_sympy(f.ddiff(i))) == 0
