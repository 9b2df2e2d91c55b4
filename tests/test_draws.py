"""The suites' integer draws give the instances that random.Random's methods gave.

The algebra and geometry suites draw their instances through
escheme._below on a generator's getrandbits.  The references below draw
them as the suites drew them through randrange, randint and choice.  For
seeds 0..199 and N = 2..8 both must give equal values and leave the
generator in the same state, so every check keeps its points and trials.
The sum-rule and D1 points are screened on integers; their reference
screens the same candidates as Fractions, at N = 1..8.
"""

import random
from fractions import Fraction

import pytest

from brauerloop import cli, escheme, psitable
from brauerloop.circlealg import ExactMatrix, _divided, clear_denominators
from brauerloop.errors import DegenerateParameters
from brauerloop.escheme import _below
from brauerloop.linkpat import maximal_pattern

SEEDS = range(200)
SIZES = range(2, 9)
NONZERO = (-3, -2, -1, 1, 2, 3)


def reference_entry(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if kind <= 2:
        return 0
    return rng.randint(-4, 4)


def reference_matrix(n: int, rng: random.Random) -> ExactMatrix:
    return ExactMatrix([[reference_entry(rng) for _ in range(n)] for _ in range(n)])


def reference_cleared(m: ExactMatrix) -> ExactMatrix:
    return clear_denominators(m)[0]


def reference_conjugator(n: int, rng: random.Random) -> ExactMatrix:
    return ExactMatrix.build(n, lambda i, j: 1 if i == j else rng.randint(-3, 3))


def reference_t(pi, rng: random.Random) -> tuple[int, ...]:
    while True:
        t = tuple(rng.randint(1, 40) for _ in range(pi.n))
        try:
            escheme.check_generic(pi, t)
        except DegenerateParameters:
            continue
        return t


def reference_point(n: int, rng: random.Random):
    while True:
        a = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        z = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n)]
        if len(set(z)) != n:
            continue
        if any(a + zi - zj == 0 for zi in z for zj in z):
            continue
        return a, z


def pair(seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


def test_below_is_randrange_randint_and_choice():
    for seed in SEEDS:
        old, new = pair(seed)
        bits = new.getrandbits
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 40, 64, 65, 1000, 2 ** 40 + 3):
            assert _below(bits, n) == old.randrange(n)
            assert -3 + _below(bits, 7) == old.randint(-3, 3)
            assert NONZERO[_below(bits, 6)] == old.choice(NONZERO)
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("n", range(1, 9))
def test_evaluation_points_are_the_reference(n):
    for seed in SEEDS:
        old, new = pair(seed)
        for _ in range(3):
            assert psitable.random_point(n, new) == reference_point(n, old)
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("n", SIZES)
def test_algebra_draw_is_the_cleared_reference(n):
    for seed in SEEDS:
        old, new = pair(seed)
        for _ in range(3):
            drawn = reference_matrix(n, old)
            cleared, c = cli._random_cleared(n, new)
            assert all(type(x) is int for row in cleared.rows for x in row)
            assert (cleared, c) == clear_denominators(drawn)
            # witnesses print P as drawn
            assert repr(_divided(cleared, c)) == repr(drawn)
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("n", SIZES)
def test_geometry_draws_are_the_reference(n):
    pi = maximal_pattern(n)
    for seed in SEEDS:
        old, new = pair(seed)
        assert escheme.random_conjugator(n, new) == reference_conjugator(n, old)
        assert escheme.random_t(pi, new) == reference_t(pi, old)
        assert escheme.random_sample(pi, new).to_obj() == escheme.sample_point(
            pi, reference_t(pi, old), reference_conjugator(n, old)).to_obj()
        assert new.getstate() == old.getstate()


def recording(monkeypatch, name: str, record) -> list:
    """Replace cli.<name> by a wrapper that appends record(*args) and calls it."""
    seen, original = [], getattr(cli, name)

    def wrapper(*args):
        seen.append(record(*args))
        return original(*args)

    monkeypatch.setattr(cli, name, wrapper)
    return seen


@pytest.mark.parametrize("n", SIZES)
def test_inverse_check_draws_the_reference_conjugators(monkeypatch, n):
    seen = recording(monkeypatch, "cp_inv", lambda p: [row[:] for row in p.rows])
    for seed in SEEDS:
        old, new = pair(seed)
        seen.clear()
        cli._check_inverse(n, new, 2)
        want = []
        for k in range(2):
            p = reference_conjugator(n, old)
            if k % 2:
                d = [old.choice(NONZERO) for _ in range(n)]
                p = ExactMatrix([[d[i] if i == j else p.rows[i][j] for j in range(n)]
                                 for i in range(n)])
            want.append(p.rows)
        assert seen == want
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("n", SIZES)
def test_sfamily_check_draws_the_reference_s(monkeypatch, n):
    seen = recording(monkeypatch, "s_mul_cleared", lambda p, q, u, v: (p, q, u, v))
    for seed in SEEDS:
        old, new = pair(seed)
        seen.clear()
        cli._check_sfamily(n, new, 1)
        p, q = reference_matrix(n, old), reference_matrix(n, old)
        s = Fraction(old.choice(NONZERO), old.randint(1, 3))
        assert seen == [(reference_cleared(p), reference_cleared(q),
                         s.numerator, s.denominator)]
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("n", SIZES)
def test_cycling_check_draws_the_reference_shift(monkeypatch, n):
    seen = recording(monkeypatch, "cycle", lambda m, k: k)
    for seed in SEEDS:
        old, new = pair(seed)
        seen.clear()
        cli._check_cycling(n, new, 1)
        for _ in range(2):
            reference_matrix(n, old)
        shift = old.randrange(n)
        # cycle(P Q, shift), cycle(P, shift), cycle(Q, shift), then the full turn
        assert seen == [shift, shift, shift, n]
        assert new.getstate() == old.getstate()
