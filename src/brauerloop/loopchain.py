"""The loop-model Markov chain on link patterns.

One move: pick a position i uniformly from 1..N, then apply the glue
move e_i with probability 2/3 or the transposition move f_i with
probability 1/3.  Every transition probability is therefore an integer
count of moves divided by 3N, and the chain is handled through those
counts 3N P.  The chain is irreducible, and its exact stationary
distribution, rescaled so the least likely pattern has weight 1, is a
vector of positive integers.  Those integers are computed here by exact
linear algebra and serve as an independent cross-check of the
multidegree table at z = 0.

Rotating or reflecting the N points carries the move at position i to
the move at the image position, so the stationary vector is constant on
dihedral orbits of patterns.  stationary() therefore solves the balance
equations once per orbit (17 unknowns instead of 105 at N=8, 79 instead
of 945 at N=10) and then certifies the result on the full chain in
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import IdentityViolation, Mismatch, NonUniqueStationary
from .linalg import rank, solve
from .linkpat import LinkPattern, apply_e, apply_f, enumerate_patterns, symmetries


def transition_matrix(n: int) -> tuple[tuple[LinkPattern, ...], list[dict[int, int]]]:
    """Move counts 3n P in enumerate_patterns order, as sparse integer rows.

    Row k maps the index of every pattern one move reaches from pattern k
    to the number of the 3n equally likely choices that reach it (e_i
    counts twice, f_i once, for each i); entries not listed are zero.
    Every row sums to 3n, so P is the matrix divided by 3n.
    """
    pats = enumerate_patterns(n)
    index = {pi: k for k, pi in enumerate(pats)}
    rows = []
    for pi in pats:
        row: dict[int, int] = {}
        for i in range(1, n + 1):
            for target, weight in ((apply_e(pi, i), 2), (apply_f(pi, i), 1)):
                k = index[target]
                row[k] = row.get(k, 0) + weight
        if sum(row.values()) != 3 * n:
            raise IdentityViolation(f"row {pi} of the transition matrix sums to "
                                    f"{Fraction(sum(row.values()), 3 * n)}")
        rows.append(row)
    return pats, rows


@dataclass(frozen=True)
class StationarySolution:
    n: int
    probabilities: dict[LinkPattern, Fraction]
    normalized: dict[LinkPattern, int]


def _dihedral_orbits(pats: tuple[LinkPattern, ...]) -> tuple[list[int], list[int]]:
    """Orbit number of each pattern, and each orbit's first member in pats."""
    index = {pi: k for k, pi in enumerate(pats)}
    orbit = [-1] * len(pats)
    reps: list[int] = []
    for k, pi in enumerate(pats):
        if orbit[k] < 0:
            for _, _, image in symmetries(pi):
                orbit[index[image]] = len(reps)
            reps.append(k)
    return orbit, reps


def _reach(graph: list[list[int]], start: int) -> set[int]:
    seen, todo = {start}, [start]
    while todo:
        for t in graph[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _check_irreducible(n: int, counts: list[dict[int, int]]) -> None:
    """Raise unless every state reaches every other along moves of positive probability.

    One graph search forwards and one backwards from state 0 decide it.
    Otherwise the balance system x (3n P - 3n I) = 0 is ranked to name the
    dimension of the stationary space (one per closed communicating
    class); a single closed class leaves the other states weight zero.
    """
    m = len(counts)
    succ = [[t for t, c in row.items() if c] for row in counts]
    pred: list[list[int]] = [[] for _ in range(m)]
    for s, targets in enumerate(succ):
        for t in targets:
            pred[t].append(s)
    if len(_reach(succ, 0)) == m == len(_reach(pred, 0)):
        return
    system = [[counts[s].get(t, 0) - (3 * n if s == t else 0) for s in range(m)]
              for t in range(m)]
    dim = m - rank(system)
    if dim != 1:
        raise NonUniqueStationary(f"stationary space has dimension {dim} at n={n}, not 1")
    raise NonUniqueStationary("stationary vector is not positive")


def stationary(n: int) -> StationarySolution:
    """Exact stationary distribution, with integer rescaled weights.

    The balance equations x (3n P) = 3n x are solved, on the move counts
    of transition_matrix, for a vector constant on dihedral orbits: one
    unknown per orbit, one equation per orbit representative (the counts
    into it, summed over each source orbit), and the normalization
    sum(|orbit| y) = 1 appended, so no state is singled out.  Clearing
    the denominators of y gives integer weights w with gcd 1 and
    sum(w) equal to the common denominator, so the probabilities are
    w / sum(w).  The result is then certified on the full chain in
    integers: the move graph is strongly connected, so by
    Perron-Frobenius the stationary space is a line; the identity
    w (3n P) = 3n w holds at every state; the weights are positive and
    their rescaling by the least one is integral.
    """
    pats, counts = transition_matrix(n)
    _check_irreducible(n, counts)

    orbit, reps = _dihedral_orbits(pats)
    k = len(reps)
    head = {r: o for o, r in enumerate(reps)}
    system = [[-3 * n if i == j else 0 for j in range(k)] for i in range(k)]
    for s, row in enumerate(counts):
        for t, c in row.items():
            if t in head:
                system[head[t]][orbit[s]] += c
    sizes = [orbit.count(o) for o in range(k)]
    y = solve(system + [sizes], [0] * k + [1])
    if y is None:
        raise IdentityViolation(
            f"the orbit balance equations at n={n} have no unique solution: "
            "the chain is not symmetric under rotation and reflection")

    den = lcm(*(v.denominator for v in y))
    w = [(y[o] * den).numerator for o in orbit]
    inflow = [0] * len(pats)
    for s, row in enumerate(counts):
        for t, c in row.items():
            inflow[t] += w[s] * c
    for t, pi in enumerate(pats):
        if inflow[t] != 3 * n * w[t]:
            raise IdentityViolation(
                f"orbit-constant weights are not stationary at {pi}: "
                f"inflow {inflow[t]}, want {3 * n * w[t]}")
    if any(v <= 0 for v in w):
        raise NonUniqueStationary("stationary vector is not positive")
    low = min(w)
    for pi, v in zip(pats, w):
        if v % low:
            raise IdentityViolation(
                f"rescaled weight of {pi} is {Fraction(v, low)}, not an integer")
    total = sum(w)
    return StationarySolution(n, {pi: Fraction(v, total) for pi, v in zip(pats, w)},
                              {pi: v // low for pi, v in zip(pats, w)})


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
