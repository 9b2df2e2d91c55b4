"""Shared fixtures.

The multidegree tables are the expensive objects here (size 6 takes a few
seconds), so they are computed once per session and shared by every test
module through the `tables` fixture.  `lex_divide`, a general
lexicographic division, is the oracle for the library's closed-form
divided difference and its division by divisors monic in A.  The edge
equations of a stored table are checked by the library's own
`psitable.verify_edges`, so no copy of them lives here.
`with_vanishing_term` tampers a table so that only the pointwise checks
can see it.
"""

import heapq

import pytest

from brauerloop.errors import InexactDivision
from brauerloop.exactpoly import Key, MultiPoly
from brauerloop.psitable import MdegTable, compute_table, target_degree

_TABLES: dict[int, MdegTable] = {}


def cached_table(n: int) -> MdegTable:
    if n not in _TABLES:
        _TABLES[n] = compute_table(n)
    return _TABLES[n]


def with_vanishing_term(table: MdegTable) -> MdegTable:
    """The table with A^(d-1) (z_1 - z_2) added to its first entry.

    The entry stays homogeneous of degree d and keeps its value at z = 0,
    so the degrees and their sum are unchanged.
    """
    n, d = table.n, target_degree(table.n)
    term = MultiPoly(n, {(d - 1, 1) + (0,) * (n - 1): 1, (d - 1, 0, 1) + (0,) * (n - 2): -1})
    pi = table.patterns()[0]
    return MdegTable(n, {**table.entries, pi: table.mdeg(pi) + term}, table.edges)


def store_table(table: MdegTable) -> None:
    """Let a test that computed a table from scratch donate it to the cache."""
    _TABLES.setdefault(table.n, table)


@pytest.fixture(scope="session")
def tables():
    return cached_table


def lex_divide(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact quotient num / den in Z[A, z] for any divisor; the test oracle.

    Lexicographic order on (a, e_1, ..., e_m).  Each step divides the
    current lead coefficient by den's, which must leave no remainder.
    Because each reduction step only creates keys strictly below the
    current lead, a max-heap with lazy deletion keeps the whole division
    near-linear in the number of quotient terms for short divisors.
    """
    num._check_compat(den)
    if not den.terms:
        raise ZeroDivisionError("division by zero polynomial")
    if not num.terms:
        return MultiPoly.zero(num.nz)
    dlead = max(den.terms)
    dcoeff = den.terms[dlead]
    dtail = [(k, c) for k, c in den.terms.items() if k != dlead]
    rest = dict(num.terms)
    # heap of candidate leads; negate components so heapq pops the lex max
    heap = [tuple(-e for e in k) for k in rest]
    heapq.heapify(heap)
    quo: dict[Key, int] = {}
    while heap:
        lead = tuple(-e for e in heapq.heappop(heap))
        c = rest.get(lead)
        if not c:
            continue  # stale entry
        qkey = tuple(a - b for a, b in zip(lead, dlead))
        if any(e < 0 for e in qkey):
            raise InexactDivision(f"monomial {lead} not reducible by {dlead}")
        qc, rem = divmod(c, dcoeff)
        if rem:
            raise InexactDivision(f"coefficient {c} of {lead} not divisible by {dcoeff}")
        quo[qkey] = qc
        del rest[lead]
        for tk, tc in dtail:
            key = tuple(a + b for a, b in zip(qkey, tk))
            s = rest.get(key, 0) - qc * tc
            if s:
                if key not in rest:
                    heapq.heappush(heap, tuple(-e for e in key))
                rest[key] = s
            else:
                rest.pop(key, None)
    if rest:
        raise InexactDivision("nonzero remainder")
    return MultiPoly._of(num.nz, quo)
