"""The pattern random walk: transition structure, exact stationary
distributions, and the match with the table values at z = 0."""

from fractions import Fraction

import pytest

from brauerloop import loopchain
from brauerloop.errors import IdentityViolation, Mismatch, NonUniqueStationary
from brauerloop.linalg import solve
from brauerloop.linkpat import LinkPattern, enumerate_patterns, reflect, rotate
from brauerloop.loopchain import (
    StationarySolution,
    match_psi,
    stationary,
    transition_matrix,
)


def dense_stationary(n: int) -> dict[LinkPattern, Fraction]:
    """Reference: x (3n P - 3n I) = 0 over all states with sum(x) = 1 appended."""
    pats, rows = transition_matrix(n)
    m = len(pats)
    system = [[rows[i].get(j, 0) - (3 * n if i == j else 0) for i in range(m)]
              for j in range(m)]
    return dict(zip(pats, solve(system + [[1] * m], [0] * m + [1])))


def orbit(pi: LinkPattern) -> set[LinkPattern]:
    return {img for r in range(pi.n) for img in (rotate(pi, r), reflect(rotate(pi, r)))}


def test_transition_matrix_structure():
    for n in (2, 3, 4):
        pats, rows = transition_matrix(n)
        assert pats == enumerate_patterns(n)
        for row in rows:
            # every entry counts moves of probability 1/(3n) each
            assert sum(row.values()) == 3 * n
            assert all(type(v) is int and v > 0 for v in row.values())


@pytest.mark.parametrize("n", range(1, 9))
def test_stationary_matches_dense_solve(n):
    sol = stationary(n)
    want = dense_stationary(n)
    assert sol.probabilities == want
    low = min(want.values())
    assert sol.normalized == {pi: int(v / low) for pi, v in want.items()}
    assert all((v / low).denominator == 1 for v in want.values())


def test_stationary_is_constant_on_dihedral_orbits():
    for n in range(1, 9):
        sol = stationary(n)
        for pi, w in sol.normalized.items():
            assert {sol.normalized[img] for img in orbit(pi)} == {w}


def test_stationary_two():
    sol = stationary(2)
    pi = LinkPattern((2, 1))
    assert sol.probabilities == {pi: Fraction(1)}
    assert sol.normalized == {pi: 1}
    assert min(sol.probabilities.values()) == 1


def test_stationary_three_is_uniform():
    sol = stationary(3)
    assert set(sol.probabilities.values()) == {Fraction(1, 3)}
    assert set(sol.normalized.values()) == {1}


def test_stationary_four():
    sol = stationary(4)
    assert sol.normalized == {
        LinkPattern((2, 1, 4, 3)): 3,
        LinkPattern((3, 4, 1, 2)): 1,
        LinkPattern((4, 3, 2, 1)): 3,
    }
    assert sum(sol.probabilities.values()) == 1
    assert min(sol.probabilities.values()) == Fraction(1, 7)


def test_stationary_rejects_reducible_chain(monkeypatch):
    # every pattern absorbing: the stationary space is the whole space
    pats = enumerate_patterns(4)
    identity = [{i: 12} for i in range(len(pats))]
    monkeypatch.setattr(loopchain, "transition_matrix", lambda n: (pats, identity))
    with pytest.raises(NonUniqueStationary, match="dimension 3"):
        stationary(4)


def test_certificate_rejects_chain_without_dihedral_symmetry(monkeypatch):
    # N=4: patterns (12)(34) and (14)(23) form one orbit, (13)(24) the other.
    # The cycle A -> B -> C -> A with a half-probability loop at A is
    # irreducible, and its stationary vector (2, 1, 1) is not constant on
    # {A, C}: the orbit equations have no solution.
    pats = enumerate_patterns(4)
    cycle = [{0: 6, 1: 6}, {2: 12}, {0: 12}]
    monkeypatch.setattr(loopchain, "transition_matrix", lambda n: (pats, cycle))
    with pytest.raises(IdentityViolation, match="no unique solution"):
        stationary(4)


def test_certificate_rejects_orbit_solution_that_is_not_stationary(monkeypatch):
    # N=6: redirect one move between two patterns that head no orbit.  The
    # orbit equations, written at the representatives only, are unchanged,
    # so only the full-chain identity can see the change.
    n = 6
    pats, rows = transition_matrix(n)
    index = {pi: k for k, pi in enumerate(pats)}
    heads = {min(index[img] for img in orbit(pi)) for pi in pats}
    step = 1
    src, t1 = next((s, t) for s, row in enumerate(rows) for t, c in row.items()
                   if t not in heads and c > step)
    t2 = next(t for t in range(len(pats)) if t not in heads and t != t1)
    rows[src] = dict(rows[src])
    rows[src][t1] -= step
    rows[src][t2] = rows[src].get(t2, 0) + step
    monkeypatch.setattr(loopchain, "transition_matrix", lambda n: (pats, rows))
    with pytest.raises(IdentityViolation, match="not stationary at"):
        stationary(n)


def test_certificate_rejects_weights_not_divisible_by_the_least(monkeypatch):
    # N=4: an irreducible chain symmetric under swapping patterns 0 and 2
    # (one orbit), with stationary weights (2, 3, 2).  It passes every other
    # check, but rescaling by the least weight leaves pattern 1 at 3/2.
    pats = enumerate_patterns(4)
    counts = [{0: 9, 1: 3}, {0: 2, 1: 8, 2: 2}, {1: 3, 2: 9}]
    monkeypatch.setattr(loopchain, "transition_matrix", lambda n: (pats, counts))
    with pytest.raises(IdentityViolation, match=r"rescaled weight of .* is 3/2, not an integer"):
        stationary(4)


def test_match_with_table(tables):
    for n in (2, 3, 4):
        result = match_psi(tables(n), stationary(n))
        assert result["patterns"] == len(enumerate_patterns(n))


def test_match_rejects_wrong_weights(tables):
    sol = stationary(3)
    doctored = dict(sol.normalized)
    first = next(iter(doctored))
    doctored[first] += 1
    with pytest.raises(Mismatch):
        match_psi(tables(3), StationarySolution(3, sol.probabilities, doctored))
    with pytest.raises(ValueError):
        match_psi(tables(4), sol)

