"""The divided-difference chain for pairs of commuting matrices and its
crosscheck against the reversal pattern of the table."""

import hashlib
import json

import pytest

from brauerloop.commvar import (
    commuting_degree,
    crosscheck_with_table,
    degree_sequence,
    delta,
    delta_alt_order,
    half_weight_product,
    reversal_pattern,
)
from brauerloop.exactpoly import MultiPoly
from brauerloop.linkpat import LinkPattern


def test_delta_one():
    d = delta(1)
    assert d.degree == 1
    assert d.delta == MultiPoly.gen_a(1)


def test_delta_two_literal():
    a = MultiPoly.gen_a(2)
    z1 = MultiPoly.gen_z(2, 1)
    d = delta(2)
    # theta_1 of (A - z1)(A + z2), then z2 = 0, then the A^2 prefactor
    assert d.delta == a ** 2 * (a * a * 4 - a * (a + z1))
    assert d.degree == 3


def test_delta_alt_order_two_literal():
    a = MultiPoly.gen_a(2)
    z1 = MultiPoly.gen_z(2, 1)
    z2 = MultiPoly.gen_z(2, 2)
    d = delta_alt_order(2)
    assert d.delta == a ** 2 * (a * a * 4 - (a - z2) * (a + z1))
    assert d.degree == 3


# sha256 of the compact sorted JSON of delta(n).delta, n = 1..6
DELTA_HASHES = {
    1: "092d3d0a01822e21b709f5500422147a614f4f0ba81ab899030605c8f5288bab",
    2: "1d47392d0f3baafbe5ba46c59e914617b8cd62a8f4dd185076cedb30a0dc8eda",
    3: "5c0d94efbe3bd66c4f30abbb27cc1e59d42d06ef00088c64864effdcec6c49cb",
    4: "9d48cf714c0963cd9c48d0a5f9cd87446e15cead28e67d79f63ad10323e84a85",
    5: "304d0f52a74e2a4502f20d9d9d08e44bcada4bae87ae565067e26f51c9ca8ed7",
    6: "cd07af58f60cb9941be0013f1319eeff679167ac8502d8ba66d03b2f745adf69",
}


@pytest.mark.parametrize("n", sorted(DELTA_HASHES))
def test_delta_polynomials_are_pinned(n):
    d = delta(n)
    text = json.dumps(d.delta.to_obj(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DELTA_HASHES[n]
    # the truncated chain reads the same degree without the polynomial
    assert commuting_degree(n) == d.degree


def test_degree_sequence():
    assert degree_sequence(5) == [1, 3, 31, 1145, 154881]
    with pytest.raises(ValueError):
        commuting_degree(0)


def test_orders_agree_after_specialization():
    for n in (2, 3, 4):
        alt = delta_alt_order(n).delta
        for i in range(2, n + 1):
            alt = alt.subs_z(i, 0)
        assert alt == delta(n).delta


def test_reversal_pattern():
    assert reversal_pattern(2) == LinkPattern((2, 1))
    assert reversal_pattern(4) == LinkPattern((4, 3, 2, 1))
    assert reversal_pattern(3) == LinkPattern((3, 2, 1))  # midpoint stays fixed


def test_half_weight_product():
    assert half_weight_product(2) == 1
    a = MultiPoly.gen_a(4)
    z = [MultiPoly.gen_z(4, i) for i in range(1, 5)]
    assert half_weight_product(4) == (a + z[0] - z[1]) * (a + z[2] - z[3])


def test_crosscheck(tables):
    assert crosscheck_with_table(tables(2)) == {"n": 1, "degree": 1}
    assert crosscheck_with_table(tables(4)) == {"n": 2, "degree": 3}
    with pytest.raises(ValueError):
        crosscheck_with_table(tables(3))
