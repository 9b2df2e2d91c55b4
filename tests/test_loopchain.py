"""The pattern random walk: transition structure, exact stationary
distributions, and the match with the table values at z = 0."""

from fractions import Fraction

import pytest

from brauerloop import loopchain
from brauerloop.errors import Mismatch, NonUniqueStationary
from brauerloop.linkpat import LinkPattern, enumerate_patterns
from brauerloop.loopchain import (
    StationarySolution,
    match_psi,
    stationary,
    transition_matrix,
)


def test_transition_matrix_structure():
    for n in (2, 3, 4):
        pats, rows = transition_matrix(n)
        assert pats == enumerate_patterns(n)
        for row in rows:
            assert sum(row) == 1
            # every entry is a multiple of the elementary step weight
            assert all((v * 3 * n).denominator == 1 for v in row)


def test_stationary_two():
    sol = stationary(2)
    pi = LinkPattern((2, 1))
    assert sol.probabilities == {pi: Fraction(1)}
    assert sol.normalized == {pi: 1}
    assert sol.minimum == 1


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
    assert sol.minimum == Fraction(1, 7)


def test_stationary_rejects_reducible_chain(monkeypatch):
    # every pattern absorbing: the stationary space is the whole space
    pats = enumerate_patterns(4)
    identity = [[Fraction(int(i == j)) for j in range(len(pats))] for i in range(len(pats))]
    monkeypatch.setattr(loopchain, "transition_matrix", lambda n: (pats, identity))
    with pytest.raises(NonUniqueStationary, match="dimension 3"):
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


def test_solution_serialization():
    obj = stationary(4).to_obj()
    assert obj["n"] == 4
    assert obj["minimum"] == "1/7"
    assert sorted(w for _, w in obj["normalized"]) == [1, 3, 3]
