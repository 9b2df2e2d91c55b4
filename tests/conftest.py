"""Shared fixtures.

The multidegree tables are the expensive objects here (size 6 takes a few
seconds), so they are computed once per session and shared by every test
module through the `tables` fixture.  `lex_divide`, a general
lexicographic division, is the oracle for the library's closed-form
divided difference and its division by divisors monic in A.  The edge
equations of a stored table are checked by the library's own
`psitable.verify_edges`, so no copy of them lives here.
`TuplePoly`, a tuple-keyed sparse polynomial, is the oracle for the
packed monomial keys of `MultiPoly`, and `literal_horner`, a sum of
powers of z_i - z_{i+1} built by the generic ring operations, the
oracle for `MultiPoly.horner_u`.  `table_tree` builds a table's
persisted object term by term, and its `json.dumps` is the oracle for
`MdegTable.canonical_text`.  `with_vanishing_term` tampers a
table so that only the pointwise checks can see it.  `verify_all` is one
run of `brauerloop verify all` over those tables, reloaded from their
files; the acceptance criteria and the report pin read it.  The `ci`
hypothesis profile draws the same examples on every run.
"""

import contextlib
import heapq
import io
import json
import re
from operator import add, index
from typing import NamedTuple

import pytest

from brauerloop import cli
from brauerloop.errors import InexactDivision
from brauerloop.exactpoly import MultiPoly
from brauerloop.psitable import MdegTable, compute_table, target_degree

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", derandomize=True)

Key = tuple[int, ...]

_TABLES: dict[int, MdegTable] = {}


def cached_table(n: int) -> MdegTable:
    if n not in _TABLES:
        _TABLES[n] = compute_table(n)
    return _TABLES[n]


def with_vanishing_term(table: MdegTable, zeros=()) -> MdegTable:
    """The table with A^(d-1-k) (z_1 - z_2) L_1 ... L_k added to its first entry.

    zeros lists k integer points (a, y), and L_j = y_2 z_1 - y_1 z_2
    vanishes at the j-th, so the term vanishes there and at every point
    with z_1 = z_2.  The entry stays homogeneous of degree d and keeps its
    value at z = 0, so the degrees and their sum are unchanged.
    """
    n, d = table.n, target_degree(table.n)
    z1, z2 = MultiPoly.gen_z(n, 1), MultiPoly.gen_z(n, 2)
    term = MultiPoly.gen_a(n) ** (d - 1 - len(zeros)) * (z1 - z2)
    for _, y in zeros:
        term = term * (z1 * y[1] - z2 * y[0])
    pi = table.patterns()[0]
    return MdegTable(n, {**table.entries, pi: table.mdeg(pi) + term}, table.edges)


def table_tree(table: MdegTable) -> dict:
    """Every placed pattern's entry and edge, sorted by pairing, as nested lists."""
    pats = sorted(table.place, key=lambda p: p.pairing)
    return {
        "n": table.n,
        "entries": [[list(pi.pairing), table.mdeg(pi).to_obj()] for pi in pats],
        "edges": [[list(pi.pairing),
                   None if table.edges.get(pi) is None else
                   [table.edges[pi][0], list(table.edges[pi][1].pairing)]]
                  for pi in pats],
    }


def tree_text(table: MdegTable) -> str:
    """The canonical text as json.dumps writes table_tree: compact, sorted keys."""
    return json.dumps(table_tree(table), sort_keys=True, separators=(",", ":"))


def store_table(table: MdegTable) -> None:
    """Let a test that computed a table from scratch donate it to the cache."""
    _TABLES.setdefault(table.n, table)


@pytest.fixture(scope="session")
def tables():
    return cached_table


class VerifyRun(NamedTuple):
    """The exit code and stdout of one verify run, with its checks by id."""

    code: int
    out: str
    checks: dict[str, cli.CheckResult]


# a report line of cli.print_report: PASS id [note] or FAIL id :: witness
_CHECK_LINE = re.compile(r"(PASS|FAIL) (\S+)(?: \[(.*)\])?(?: :: (.*))?")


@pytest.fixture(scope="session")
def verify_all(tmp_path_factory) -> VerifyRun:
    """`brauerloop verify all` once, over the session tables reloaded from files.

    A table the run would compute instead fails its checks; stderr is dropped.
    """
    directory = tmp_path_factory.mktemp("tables")
    store = cli.TableStore(directory)
    for n in range(2, cli.SYMBOLIC_LIMIT + 1):
        cli.write_table(cached_table(n), store.path(n))

    def recompute(n):
        raise AssertionError(f"the table N={n} was computed, not reloaded")

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        patch.setattr(cli, "compute_table", recompute)
        code = cli.main(["verify", "all", "--table-dir", str(directory)])
    checks = {}
    for line in out.getvalue().splitlines():
        if match := _CHECK_LINE.fullmatch(line):
            status, check_id, note, witness = match.groups()
            checks[check_id] = cli.CheckResult(check_id, status == "PASS",
                                               witness or "", note or "")
    return VerifyRun(code, out.getvalue(), checks)


def lex_divide(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact quotient num / den in Z[A, z] for any divisor; the test oracle.

    Lexicographic order on (a, e_1, ..., e_m).  Each step divides the
    current lead coefficient by den's, which must leave no remainder.
    Because each reduction step only creates keys strictly below the
    current lead, a max-heap with lazy deletion keeps the whole division
    near-linear in the number of quotient terms for short divisors.
    """
    num._check_compat(den)
    dterms = den.monomials()
    if not dterms:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return MultiPoly.zero(num.nz)
    dlead = max(dterms)
    dcoeff = dterms[dlead]
    dtail = [(k, c) for k, c in dterms.items() if k != dlead]
    rest = num.monomials()
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
    return MultiPoly(num.nz, quo)


def literal_horner(nz: int, i: int, layers) -> MultiPoly:
    """sum_k u^k sum_{(c, f) in layers[k]} c*f, u = z_i - z_{i+1} (cyclic), by * and +."""
    u = MultiPoly.gen_z(nz, i) - MultiPoly.gen_z(nz, i % nz + 1)
    total = MultiPoly.zero(nz)
    for k, layer in enumerate(layers):
        part = MultiPoly.zero(nz)
        for c, f in layer:
            part = part + f * c
        total = total + u ** k * part
    return total


class TuplePoly:
    """Sparse polynomial over Z keyed by exponent tuples (a, e_1, ..., e_nz).

    The reference for MultiPoly's packed keys: the same operators, computed
    on tuples with no field width.  TuplePoly.of(p) reads p through
    p.monomials(), and ref.matches(p) compares the terms.
    """

    def __init__(self, nz: int, terms: dict[Key, int]):
        self.nz = nz
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def of(cls, p: MultiPoly) -> "TuplePoly":
        return cls(p.nz, p.monomials())

    def matches(self, p: MultiPoly) -> bool:
        return self.nz == p.nz and self.terms == p.monomials()

    def _collect(self, pairs, nz=None) -> "TuplePoly":
        out: dict[Key, int] = {}
        for k, c in pairs:
            out[k] = out.get(k, 0) + c
        return TuplePoly(self.nz if nz is None else nz, out)

    def __add__(self, other: "TuplePoly") -> "TuplePoly":
        return self._collect([*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "TuplePoly":
        return TuplePoly(self.nz, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TuplePoly") -> "TuplePoly":
        return self + (-other)

    def __mul__(self, other: "TuplePoly | int") -> "TuplePoly":
        if isinstance(other, int):
            return TuplePoly(self.nz, {k: c * other for k, c in self.terms.items()})
        return self._collect((tuple(map(add, ka, kb)), ca * cb)
                             for ka, ca in self.terms.items() for kb, cb in other.terms.items())

    def __pow__(self, e: int) -> "TuplePoly":
        out = TuplePoly(self.nz, {(0,) * (self.nz + 1): 1})
        for _ in range(e):
            out = out * self
        return out

    def _swap(self, key: Key, i: int, j: int, ei: int, ej: int) -> Key:
        lk = list(key)
        lk[i], lk[j] = ei, ej
        return tuple(lk)

    def tau(self, i: int) -> "TuplePoly":
        j = i % self.nz + 1
        return TuplePoly(self.nz, {self._swap(k, i, j, k[j], k[i]): c
                                   for k, c in self.terms.items()})

    def ddiff(self, i: int) -> "TuplePoly":
        j = i % self.nz + 1
        pairs = []
        for key, c in self.terms.items():
            p, q = key[i], key[j]
            if p < q:
                p, q, c = q, p, -c
            pairs += [(self._swap(key, i, j, k, p + q - 1 - k), c) for k in range(q, p)]
        return self._collect(pairs)

    def theta(self, i: int) -> "TuplePoly":
        a = TuplePoly(self.nz, {(1,) + (0,) * self.nz: 1})
        return a * self.ddiff(i) * (-2) - self.tau(i)

    def map_z(self, new_nz: int, new_pos) -> "TuplePoly":
        out = {}
        for key, c in self.terms.items():
            nk = [key[0]] + [0] * new_nz
            for old, e in enumerate(key[1:]):
                nk[new_pos[old]] = e
            out[tuple(nk)] = c
        return TuplePoly(new_nz, out)

    def subs_z(self, i: int, repl: "TuplePoly") -> "TuplePoly":
        out = TuplePoly(self.nz, {})
        for key, c in self.terms.items():
            mono = TuplePoly(self.nz, {key[:i] + (0,) + key[i + 1:]: c})
            out = out + mono * repl ** key[i]
        return out

    def specialize_a(self, value: int) -> "TuplePoly":
        value = index(value)
        return self._collect(((0,) + k[1:], c * value ** k[0]) for k, c in self.terms.items())

    def exact_divide(self, den: "TuplePoly") -> "TuplePoly":
        """The quotient by lex_divide; den may be any divisor."""
        quo = lex_divide(MultiPoly(self.nz, self.terms), MultiPoly(den.nz, den.terms))
        return TuplePoly.of(quo)

    def to_obj(self) -> list[list]:
        return [[str(self.terms[k]), k[0], list(k[1:])] for k in sorted(self.terms)]

    @classmethod
    def from_obj(cls, nz: int, obj) -> "TuplePoly":
        return cls(nz, {(a, *z): int(c) for c, a, z in obj})
