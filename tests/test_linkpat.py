"""Link patterns: enumeration against brute force, the chain moves,
the periodic strip and its rank tables."""

import itertools

import pytest

from brauerloop.linkpat import (
    LinkPattern,
    RankTable,
    _wrap,
    apply_e,
    apply_f,
    chords_cross,
    crossings,
    enumerate_patterns,
    essential_implies_all,
    essential_set,
    in_permutation_sector,
    maximal_pattern,
    rank_table,
    reflect,
    restrict_pattern,
    rotate,
    strands_cross_at,
    symmetries,
)


def brute_patterns(n: int) -> set[tuple[int, ...]]:
    """All involutions of 1..n with n mod 2 fixed points, by filtering."""
    out = set()
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[perm[i] - 1] == i + 1 for i in range(n)):
            if sum(1 for i in range(n) if perm[i] == i + 1) == n % 2:
                out.add(perm)
    return out


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def test_validation():
    with pytest.raises(ValueError):
        LinkPattern(())
    with pytest.raises(ValueError):
        LinkPattern((1, 1))
    with pytest.raises(ValueError):
        LinkPattern((2, 3, 1))  # not an involution
    with pytest.raises(ValueError):
        LinkPattern((1, 2, 3, 4))  # too many fixed points
    with pytest.raises(ValueError):
        LinkPattern((2, 1, 3, 4))
    LinkPattern((2, 1, 3))  # one fixed point at odd size is required


def test_basic_accessors():
    pi = LinkPattern((2, 1, 3))
    assert pi.n == 3
    assert pi(1) == 2 and pi(2) == 1 and pi(3) == 3
    assert pi(4) == 2 and pi(0) == 3  # labels reduce mod n
    assert pi.fixed_point() == 3
    assert pi.chords() == ((1, 2),)
    assert str(pi) == "(1 2)(3)"
    assert str(LinkPattern((3, 4, 1, 2))) == "(1 3)(2 4)"
    assert LinkPattern((2, 1, 4, 3)).fixed_point() is None


def test_strip_offset():
    pi = LinkPattern((2, 1, 3))
    assert pi.strip_offset(1) == 1
    assert pi.strip_offset(2) == 2  # partner 1 sits one full turn ahead minus one
    assert pi.strip_offset(3) == 0  # fixed point: no strip entry


def test_enumeration_matches_brute_force():
    for n in range(2, 7):
        pats = enumerate_patterns(n)
        assert {p.pairing for p in pats} == brute_patterns(n)
        assert list(pats) == sorted(pats, key=lambda p: p.pairing)


def test_enumeration_counts():
    for n in range(2, 9):
        want = double_factorial(n - 1) if n % 2 == 0 else double_factorial(n)
        assert len(enumerate_patterns(n)) == want
    assert len(enumerate_patterns(7)) == 105


def test_maximal_pattern():
    assert maximal_pattern(2).pairing == (2, 1)
    assert maximal_pattern(4).pairing == (3, 4, 1, 2)
    assert maximal_pattern(5).pairing == (3, 4, 1, 2, 5)
    assert maximal_pattern(6).pairing == (4, 5, 6, 1, 2, 3)
    for n in range(2, 7):
        most = max(crossings(pi) for pi in enumerate_patterns(n))
        assert crossings(maximal_pattern(n)) == most


def test_apply_e_fixed_cases():
    p12 = LinkPattern((2, 1, 4, 3))
    p13 = LinkPattern((3, 4, 1, 2))
    p14 = LinkPattern((4, 3, 2, 1))
    assert apply_e(p12, 1) == p12  # little arc already present
    assert apply_e(p13, 1) == p12
    assert apply_e(p12, 2) == p14
    assert apply_e(p13, 4) == p14  # position 4 glues points (4, 1)
    # at odd size the former partner of the glued pair becomes the fixed point
    assert apply_e(LinkPattern((2, 1, 3)), 2) == LinkPattern((1, 3, 2))
    assert apply_e(LinkPattern((3, 2, 1)), 1) == LinkPattern((2, 1, 3))


def test_apply_e_is_idempotent():
    for n in (3, 4, 5):
        for pi in enumerate_patterns(n):
            for i in range(1, n + 1):
                once = apply_e(pi, i)
                assert once(i) == i % n + 1
                assert apply_e(once, i) == once


def test_apply_f_fixed_cases():
    assert apply_f(LinkPattern((3, 4, 1, 2)), 1) == LinkPattern((4, 3, 2, 1))
    # a little arc at (i, i+1) is fixed by the crossing
    assert apply_f(LinkPattern((2, 1, 4, 3)), 1) == LinkPattern((2, 1, 4, 3))
    # moving the fixed point
    assert apply_f(LinkPattern((2, 1, 3)), 2) == LinkPattern((3, 2, 1))


def test_apply_f_is_involution():
    for n in (3, 4, 5):
        for pi in enumerate_patterns(n):
            for i in range(1, n + 1):
                assert apply_f(apply_f(pi, i), i) == pi


def conjugated(pi: LinkPattern, i: int) -> LinkPattern:
    """apply_f by its definition, s pi s for the transposition s = (i i+1), validated."""
    n = pi.n
    i = _wrap(i, n)
    ip = _wrap(i + 1, n)

    def s(x: int) -> int:
        return ip if x == i else i if x == ip else x

    return LinkPattern(tuple(s(pi(s(j))) for j in range(1, n + 1)))


def test_moves_are_valid_without_the_check():
    # the moves, rotations and reflection skip validation: rebuilding their
    # results through the checking constructor must succeed, and apply_f is
    # the conjugation
    for n in range(1, 10):
        for pi in enumerate_patterns(n):
            for i in range(1, n + 1):
                e, f, turned = apply_e(pi, i), apply_f(pi, i), rotate(pi, i)
                for q in (e, f, turned):
                    assert LinkPattern(q.pairing) == q
                assert f == conjugated(pi, i)
            assert LinkPattern(reflect(pi).pairing) == reflect(pi)


def test_rotate():
    pi = LinkPattern((2, 1, 4, 3))
    assert rotate(pi).pairing == (4, 3, 2, 1)
    assert rotate(pi, 2) == pi
    for n in (3, 4, 5):
        for q in enumerate_patterns(n):
            assert rotate(q, n) == q
            assert rotate(rotate(q, 1), 1) == rotate(q, 2)
            assert rotate(rotate(q, 1), -1) == q


def test_reflect():
    assert reflect(LinkPattern((2, 1, 3))).pairing == (1, 3, 2)
    assert reflect(LinkPattern((2, 1, 4, 3))) == LinkPattern((2, 1, 4, 3))
    assert reflect(LinkPattern((1,))) == LinkPattern((1,))
    for n in (3, 4, 5):
        for q in enumerate_patterns(n):
            assert reflect(reflect(q)) == q
            assert crossings(reflect(q)) == crossings(q)


def test_symmetries_enumerate_the_dihedral_group_in_order():
    pi = LinkPattern((3, 4, 1, 2, 5))
    images = list(symmetries(pi))
    assert [(r, flip) for r, flip, _ in images] == \
        [(r, False) for r in range(5)] + [(r, True) for r in range(5)]
    assert images[0] == (0, False, pi)
    for n in range(1, 7):
        for q in enumerate_patterns(n):
            got = [image for _, _, image in symmetries(q)]
            # rotate-then-reflect and reflect-then-rotate reach one orbit
            assert set(got) == {g for r in range(n) for g in (rotate(q, r), reflect(rotate(q, r)))}
            assert got == [rotate(reflect(q) if flip else q, r)
                           for flip in (False, True) for r in range(n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_moves_are_dihedrally_equivariant(n):
    # rotation carries position i to i+1, reflection carries i to N-i (mod N)
    for pi in enumerate_patterns(n):
        turned, mirrored = rotate(pi), reflect(pi)
        for i in range(1, n + 1):
            for move in (apply_e, apply_f):
                assert rotate(move(pi, i)) == move(turned, i + 1)
                assert reflect(move(pi, i)) == move(mirrored, n - i)


def test_chords_and_crossings():
    assert chords_cross((1, 3), (2, 4))
    assert not chords_cross((1, 2), (3, 4))
    assert not chords_cross((1, 4), (2, 3))  # nested
    assert crossings(LinkPattern((2, 1, 4, 3))) == 0
    assert crossings(LinkPattern((3, 4, 1, 2))) == 1
    assert crossings(maximal_pattern(6)) == 3


def test_strands_cross_at():
    assert strands_cross_at(LinkPattern((3, 4, 1, 2)), 1)
    assert not strands_cross_at(LinkPattern((2, 1, 4, 3)), 1)  # joined pair
    assert not strands_cross_at(LinkPattern((4, 3, 2, 1)), 1)  # nested strands
    # fixed points never cross
    assert not strands_cross_at(LinkPattern((2, 1, 3)), 2)
    assert not strands_cross_at(LinkPattern((2, 1, 3)), 3)


def test_permutation_sector():
    assert in_permutation_sector(LinkPattern((3, 4, 1, 2)))
    assert in_permutation_sector(LinkPattern((4, 3, 2, 1)))
    assert not in_permutation_sector(LinkPattern((2, 1, 4, 3)))
    assert in_permutation_sector(LinkPattern((2, 1)))
    # at odd size the fixed point always leaves one half unbalanced somewhere
    count = sum(in_permutation_sector(p) for p in enumerate_patterns(6))
    assert count == 6  # 3! pairings across the two halves


def test_restrict_pattern():
    pi = LinkPattern((2, 1, 4, 3))
    assert restrict_pattern(pi, (1, 2)) == LinkPattern((2, 1))
    assert restrict_pattern(pi, (3, 4)) == LinkPattern((2, 1))
    nested = LinkPattern((4, 3, 2, 1))
    assert restrict_pattern(nested, (2, 3)) == LinkPattern((2, 1))
    with pytest.raises(ValueError):
        restrict_pattern(pi, (1, 3))


def test_rank_table_values():
    rt = rank_table(LinkPattern((2, 1, 4, 3)))
    assert [rt.value(i, i) for i in range(1, 5)] == [0, 0, 0, 0]
    assert [rt.value(i, i + 1) for i in range(1, 5)] == [1, 0, 1, 0]
    assert [rt.value(i, i + 2) for i in range(1, 5)] == [1, 1, 1, 1]
    assert [rt.value(i, i + 3) for i in range(1, 5)] == [2, 2, 2, 2]
    mx = rank_table(LinkPattern((3, 4, 1, 2)))
    assert [mx.value(i, i + 1) for i in range(1, 5)] == [0, 0, 0, 0]
    assert [mx.value(i, i + 2) for i in range(1, 5)] == [1, 1, 1, 1]
    assert [mx.value(i, i + 3) for i in range(1, 5)] == [2, 2, 2, 2]


def test_rank_table_periodicity_and_bounds():
    rt = rank_table(LinkPattern((2, 1, 4, 3)))
    assert rt.value(5, 6) == rt.value(1, 2)
    assert rt.value(-3, -2) == rt.value(1, 2)
    with pytest.raises(ValueError):
        rt.value(1, 5)
    with pytest.raises(ValueError):
        rt.value(2, 1)
    assert list(rt.positions())[0] == (1, 1)


def test_rank_table_distinguishes_patterns():
    for n in range(2, 7):
        seen = {}
        for pi in enumerate_patterns(n):
            key = tuple(sorted(rank_table(pi).ranks.items()))
            assert key not in seen, f"{pi} and {seen[key]} share a rank table"
            seen[key] = pi


def test_essential_set():
    # two points carry no diagram at all
    assert essential_set(LinkPattern((2, 1))) == frozenset()
    # the crossing pattern pins every first-offset triangle to rank zero
    assert essential_set(maximal_pattern(4)) == frozenset(
        {(1, 2), (2, 3), (3, 4), (4, 5)})
    # the little arcs at (1,2) and (3,4) leave corners only between them
    assert essential_set(LinkPattern((2, 1, 4, 3))) == frozenset(
        {(2, 3), (4, 5)})
    for (i, j) in essential_set(maximal_pattern(5)):
        assert 1 <= i <= 5 and 1 <= j - i <= 3


def test_essential_set_recovers_full_table():
    for n in range(2, 7):
        for pi in enumerate_patterns(n):
            assert essential_implies_all(pi)
