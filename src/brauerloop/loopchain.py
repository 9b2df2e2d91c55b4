"""The loop-model Markov chain on link patterns.

One move: pick a position i uniformly from 1..N, then apply the glue
move e_i with probability 2/3 or the transposition move f_i with
probability 1/3.  The chain is irreducible, and its exact stationary
distribution, rescaled so the least likely pattern has weight 1, is a
vector of positive integers.  Those integers are computed here by exact
rational linear algebra and serve as an independent cross-check of the
multidegree table at z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IdentityViolation, Mismatch, NonUniqueStationary
from .linalg import rank, solve
from .linkpat import LinkPattern, apply_e, apply_f, enumerate_patterns


def transition_matrix(n: int) -> tuple[tuple[LinkPattern, ...], list[list[Fraction]]]:
    """Row-stochastic transition matrix in enumerate_patterns order."""
    pats = enumerate_patterns(n)
    index = {pi: k for k, pi in enumerate(pats)}
    e_step = Fraction(2, 3 * n)
    f_step = Fraction(1, 3 * n)
    rows = [[Fraction(0)] * len(pats) for _ in pats]
    for k, pi in enumerate(pats):
        for i in range(1, n + 1):
            rows[k][index[apply_e(pi, i)]] += e_step
            rows[k][index[apply_f(pi, i)]] += f_step
    for pi, row in zip(pats, rows):
        if sum(row) != 1:
            raise IdentityViolation(f"row {pi} of the transition matrix sums to {sum(row)}")
    return pats, rows


@dataclass(frozen=True)
class StationarySolution:
    n: int
    probabilities: dict[LinkPattern, Fraction]
    normalized: dict[LinkPattern, int]

    @property
    def minimum(self) -> Fraction:
        return min(self.probabilities.values())

    def to_obj(self) -> dict:
        pats = sorted(self.normalized, key=lambda p: p.pairing)
        return {
            "n": self.n,
            "minimum": str(self.minimum),
            "normalized": [[list(pi.pairing), self.normalized[pi]] for pi in pats],
        }


def stationary(n: int) -> StationarySolution:
    """Exact stationary distribution, with integer rescaled weights.

    Solves x (P - I) = 0 with the normalization sum(x) = 1 appended as
    an extra equation, so no pivot state is singled out.  One
    fraction-free elimination both solves and certifies: the appended
    system has a unique solution exactly when the kernel of P - I is a
    line, and solve() returns None otherwise.  Only then is the rank
    taken, to name the dimension of the stationary space in the error.
    """
    pats, rows = transition_matrix(n)
    m = len(pats)
    # each equation scaled by 3n so the elimination runs on integers
    system = [[int(3 * n * rows[i][j]) - (3 * n if i == j else 0) for i in range(m)]
              for j in range(m)]
    x = solve(system + [[1] * m], [0] * m + [1])
    if x is None:
        raise NonUniqueStationary(
            f"stationary space has dimension {m - rank(system)} at n={n}, not 1")
    if any(v <= 0 for v in x):
        raise NonUniqueStationary("stationary vector is not positive")
    low = min(x)
    normalized = {}
    for pi, v in zip(pats, x):
        w = v / low
        if w.denominator != 1:
            raise IdentityViolation(f"rescaled weight of {pi} is {w}, not an integer")
        normalized[pi] = w.numerator
    return StationarySolution(n, dict(zip(pats, x)), normalized)


def match_psi(table, sol: StationarySolution) -> dict:
    """The chain's integer weights against the table values at z = 0."""
    if table.n != sol.n:
        raise ValueError("size mismatch")
    for pi in table.patterns():
        got = sol.normalized[pi]
        want = table.degree(pi)
        if got != want:
            raise Mismatch(f"{pi}: chain weight {got}, table value {want}")
    return {"patterns": len(sol.normalized)}
