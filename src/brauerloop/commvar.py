"""Degrees of commuting-matrix varieties via operator chains.

The degree of {(X, Y) : XY = YX} in pairs of n x n matrices is read off
the multidegree table at the reversal pattern, size N = 2n.  It can
also be computed directly by applying a chain of operators

    theta_i = -2A d_i - tau_i

to the seed product prod_i (A+z_i)^{i-1} (A-z_i)^{n-i}: one pass
theta_1..theta_{n-1}, then theta_1..theta_{n-2}, and so on down to a
single theta_1, finally multiplied by A^n.  Once theta_g has been
applied for the last time the variable z_{g+1} is dead and is set to 0
on the spot, which keeps intermediate polynomials small; the alternate
ordering (theta_g..theta_1 with g growing) must give the same value and
serves as an oracle at small n.

The degree alone needs far fewer terms (commuting_degree): every theta
keeps the total degree, and only its d_i part lowers the z-degree, by one,
so a term of z-degree above the number of thetas still to apply cannot
reach the A-only term that the degree reads, and is dropped on the spot.

The crosscheck against the table divides the reversal pattern's
multidegree by the within-half product of weights, exactly, and
compares the z_{n+i} = 0 specialization with the chain output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IdentityViolation, Mismatch
from .exactpoly import FIELD_BITS, MultiPoly
from .linkpat import LinkPattern


@dataclass(frozen=True)
class DeltaResult:
    n: int
    delta: MultiPoly
    degree: int


def _seed(n: int) -> MultiPoly:
    out = MultiPoly.one(n)
    for i in range(1, n + 1):
        out = (out * MultiPoly.linear(n, 1, {i: 1}) ** (i - 1)
               * MultiPoly.linear(n, 1, {i: -1}) ** (n - i))
    return out


def _positive(n: int, value: int) -> int:
    if value <= 0:
        raise IdentityViolation(f"commuting degree at n={n} is {value}, not positive")
    return value


def _result(n: int, poly: MultiPoly) -> DeltaResult:
    """Multiply the chain output by A^n and read the degree at A=1, z=0."""
    poly = poly * MultiPoly.gen_a(n) ** n
    return DeltaResult(n, poly, _positive(n, poly.z_free_sum()))


def delta(n: int) -> DeltaResult:
    """Grouped chain with immediate specialization of dead variables."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = _seed(n)
    for g in range(n - 1, 0, -1):
        for i in range(1, g + 1):
            poly = poly.theta(i)
        poly = poly.subs_z(g + 1, 0)
    return _result(n, poly)


def delta_alt_order(n: int) -> DeltaResult:
    """Reversed grouping, no early specialization; equality is a theorem."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = _seed(n)
    for g in range(1, n):
        for i in range(g, 0, -1):
            poly = poly.theta(i)
    return _result(n, poly)


def commuting_degree(n: int) -> int:
    """delta(n).degree by delta's chain, each step truncated to what the degree reads.

    The seed is homogeneous of degree D = n(n-1), and each theta_i =
    -2A d_i - tau_i keeps the total degree: tau_i keeps the z-degree of a
    term, and A d_i trades one z for one A.  So with R thetas still to
    apply, a term of z-degree above R, that is of A-degree below D - R,
    cannot reach the z-free terms whose sum is the degree.  A is the top
    field of a packed key, so those are exactly the keys below
    (D - R) << FIELD_BITS n, and they are dropped from the seed and after
    each theta.  Setting a dead variable to 0 keeps the rest homogeneous;
    at the end only the term A^D is left, and its coefficient is the
    degree (the factor A^n of delta changes no coefficient).
    """
    if n < 1:
        raise ValueError("n must be positive")
    top, left = n * (n - 1), n * (n - 1) // 2

    def truncated(poly: MultiPoly) -> MultiPoly:
        floor = (top - left) << FIELD_BITS * n
        return MultiPoly._of(n, {k: c for k, c in poly.terms.items() if k >= floor})

    poly = truncated(_seed(n))
    for g in range(n - 1, 0, -1):
        for i in range(1, g + 1):
            left -= 1
            poly = truncated(poly.theta(i))
        poly = poly.subs_z(g + 1, 0)
    return _positive(n, poly.z_free_sum())


def degree_sequence(max_n: int) -> list[int]:
    """The commuting degrees for n = 1..max_n, by commuting_degree."""
    return [commuting_degree(k) for k in range(1, max_n + 1)]


def reversal_pattern(n2: int) -> LinkPattern:
    return LinkPattern(tuple(n2 + 1 - i for i in range(1, n2 + 1)))


def half_weight_product(n2: int) -> MultiPoly:
    """prod (A + z_i - z_j) over ordered pairs i < j within each half."""
    n = n2 // 2
    out = MultiPoly.one(n2)
    for lo, hi in ((1, n), (n + 1, n2)):
        for i in range(lo, hi + 1):
            for j in range(i + 1, hi + 1):
                out = out * MultiPoly.linear(n2, 1, {i: 1, j: -1})
    return out


def crosscheck_with_table(table) -> dict:
    """The chain against the table at the reversal pattern.

    Compares degrees, divides the table entry by the half weight product
    -- the division must be exact -- and matches the z_{n+i} = 0
    specialization against the chain, plus the z_{n+i} = z_i
    identification at the degree level.
    """
    n2 = table.n
    if n2 % 2:
        raise ValueError("the crosscheck needs even size")
    n = n2 // 2
    mdeg = table.mdeg(reversal_pattern(n2))
    d = delta(n)
    if table.degree(reversal_pattern(n2)) != d.degree:
        raise Mismatch(
            f"table degree {table.degree(reversal_pattern(n2))} != chain {d.degree}")
    q = mdeg.exact_divide(half_weight_product(n2))
    spec = q * MultiPoly.gen_a(n2) ** n
    for i in range(1, n + 1):
        spec = spec.subs_z(n + i, 0)
    lifted = delta_alt_order(n).delta.map_z(n2, list(range(1, n + 1)))
    if spec != lifted:
        raise Mismatch(f"specialized quotient differs from the chain at n={n}")
    ident = q
    for i in range(1, n + 1):
        ident = ident.subs_z(n + i, MultiPoly.gen_z(n2, i))
    value = ident.z_free_sum()
    if value != d.degree:
        raise Mismatch(f"identified quotient value {value} != degree {d.degree}")
    return {"n": n, "degree": d.degree}
