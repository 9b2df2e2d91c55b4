"""Command line entry point: tables, degrees, verification suites.

Three subcommands:

* ``table``   computes the multidegree table for one size, or reloads
  it, and persists it as JSON with a content hash.  Each table has one
  canonical text, serialized at most once: the hash is taken of it and
  the file is written around it.  The store and the writer read a file by
  its head and foot alone (_read_frame): a file already holding those
  bytes is kept unparsed, one naming the table's hash in other bytes is
  replaced, and any other is only overwritten under ``--force``.
  Reloading a table re-serializes it to check its hash, so a warm run is
  still slower than a cold one.
* ``degrees`` prints exact degree numbers: the pattern-sum against the
  closed determinant form (scheme E), the two closed forms for the
  doubled scheme at a seeded sample point (scheme D1), or the commuting
  degree sequence.
* ``verify``  runs a named check suite (or ``all``) and reports one
  line per check, sorted by check id; the exit status is 0 iff every
  check passed.

Reports are byte-stable for fixed inputs and seed: all randomness is
derived from the seed, and timing goes to stderr, never into the
report itself.  Instances are integers drawn from the bits of a seeded
random.Random by rejection (escheme._below, inlined in the matrix draws),
exactly as its randrange, randint and choice would draw them, and the
algebra checks draw their matrices already cleared of denominators.
Failures never escape as tracebacks; each becomes a failed check whose
witness carries the offending instance, printed as drawn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import commvar, escheme, loopchain, pfdet, psitable
from .circlealg import (
    ExactMatrix,
    StripWindow,
    _divided,
    clear_denominators,
    cp_inv,
    cp_mul,
    cycle,
    s_mul,
    s_mul_cleared,
    s_scale_cleared,
)
from .errors import BrauerLoopError, IdentityViolation
from .escheme import _below
from .linkpat import LinkPattern, enumerate_patterns, rank_table
from .psitable import MdegTable, compute_table

# the largest N whose symbolic table finishes; above it, z=0 values come
# from the stationary chain
SYMBOLIC_LIMIT = 6
# the sizes each degrees scheme finishes: the chain up to N=10 (under 1 s
# there; N=11 has 10395 states), the D1 closed forms up to N=20 (2 s there,
# nearly all in the localization form's C(20, 10) subsets), commuting pairs up
# to n=7 (27 s there)
DEGREE_SIZES = {"E": (1, 10), "D1": (1, 20), "commuting": (1, 7)}


def _slug(pi: LinkPattern) -> str:
    return "".join(str(pi).split())


def _int_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(_int_seed(seed, label))


# ------------------------------------------------------------------ persistence


class TableStore:
    """Per-size table cache, optionally backed by a directory of JSON files."""

    def __init__(self, directory: Path | None):
        self.directory = directory
        self._cache: dict[int, MdegTable] = {}

    def path(self, n: int) -> Path:
        if self.directory is None:
            raise ValueError("no table directory configured")
        return self.directory / f"mdeg-{n}.json"

    def load(self, n: int) -> MdegTable | None:
        """A previously persisted table, or None if absent or unusable.

        A file loads exactly when it is, byte for byte, the text write_table
        writes for the table it holds: _read_frame must find the head
        naming the size n, which sets each entry's field count, before any
        entry is parsed.  The table's canonical text is then decoded one
        entry at a time (MdegTable.from_text), so no parse tree of the whole
        file is built.  The parsed table must serialize back to that text,
        hash to the hash the file names, and validate; that hash stays with
        the table.
        """
        if self.directory is None:
            return None
        framed = _read_frame(self.path(n))
        if framed is None or framed[1] != n:
            return None
        digest, _, body = framed
        del framed
        try:
            table = MdegTable.from_text(n, body)
            if table.canonical_text() != body:
                return None
            del body
            if table.content_hash() != digest:
                return None
            table.validate()
        except (BrauerLoopError, KeyError, TypeError, ValueError, RecursionError):
            return None
        return table

    def get(self, n: int) -> MdegTable:
        if n not in self._cache:
            table = self.load(n)
            if table is None:
                table = compute_table(n)
            self._cache[n] = table
        return self._cache[n]


def _frame(digest: str, n: int) -> tuple[str, str]:
    """The text of a table file before and after its table's canonical text.

    The file is {"hash": ..., "n": ..., "table": ...} as compact JSON with
    sorted keys, so the table's text is written and read in place.
    """
    return '{"hash":"%s","n":%d,"table":' % (digest, n), _FOOT


# _frame's head and foot: the hash as hexdigest writes it, the size as %d writes it
_HEAD = re.compile(r'\{"hash":"([0-9a-f]{64})","n":([1-9][0-9]*),"table":')
_FOOT = "}\n"


def _read_frame(path: Path) -> tuple[str, int, str] | None:
    """(hash, size, table text) of a file in _frame's layout, or None.

    Only the head and the foot are read, from the bytes decoded as
    write_table encodes them, with no newline translation.
    """
    try:
        text = path.read_bytes().decode()
        head = _HEAD.match(text)
        if head is None or not text.endswith(_FOOT):
            return None
        return head[1], int(head[2]), text[head.end():len(text) - len(_FOOT)]
    except (OSError, ValueError):
        return None


def write_table(table: MdegTable, path: Path, force: bool = False) -> bool:
    """Persist a table; returns False when the file already holds it.

    The file is the table's canonical text in its _frame, so the table is
    serialized once, and TableStore.load reads it back.  An existing file
    is read as load reads it (_read_frame), and its table's text is never
    parsed.  It is kept when it is what would be written, and replaced
    when it names this table's hash in any other text, so a damaged copy
    repairs itself.  A file naming another hash, or none in _frame's
    layout, is replaced only under force, and the refusal names the hash.
    A temporary file beside the target replaces it atomically, so a failed
    write leaves the old file intact.  The temporary file is given the mode
    open() would create the file with, 0o666 less the umask, before it
    replaces the target.
    """
    digest = table.content_hash()
    if path.is_file():
        framed = _read_frame(path)
        if framed == (digest, table.n, table.canonical_text()):
            return False
        if not force and (framed is None or framed[0] != digest):
            raise SystemExit(
                f"error: {path} holds a different table "
                f"(hash {framed[0] if framed else 'unreadable'}); pass --force to overwrite")
    head, foot = _frame(digest, table.n)
    data = "".join([head, table.canonical_text(), foot]).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)  # read by setting it, and restored at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return True


# ------------------------------------------------------------------ suite plumbing


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    witness: str = ""
    note: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"id": c.check_id, "status": "pass" if c.passed else "fail",
                 **({"witness": c.witness} if c.witness else {}),
                 **({"note": c.note} if c.note else {})}
                for c in self.checks
            ],
        }


Job = tuple[str, Callable[[], str | None]]


def run_suite(suite: str, jobs: Iterable[Job]) -> SuiteReport:
    start = time.perf_counter()
    results = []
    for check_id, fn in sorted(jobs, key=lambda j: j[0]):
        try:
            note = fn()
            results.append(CheckResult(check_id, True, note=note or ""))
        except Exception as exc:
            results.append(CheckResult(check_id, False,
                                       witness=f"{type(exc).__name__}: {exc}"))
    return SuiteReport(suite, tuple(results), time.perf_counter() - start)


# ------------------------------------------------------------------ algebra suite


# the nonzero values that the inverse check's diagonal and the s-family's s take
_NONZERO = (-3, -2, -1, 1, 2, 3)


def _random_cleared(n: int, rng: random.Random) -> tuple[ExactMatrix, int]:
    """(c P, c) for a random N x N matrix P and the least c > 0 making c P integral.

    P is drawn entry by entry, row by row: with probability 1/6 a fraction
    a/b, a in -6..6 and b in 1..4, with probability 1/3 a zero, and
    otherwise an int in -4..4.  Each fraction is reduced by its gcd and c is
    the lcm of the reduced denominators, so no Fraction is formed; P itself
    is _divided(c P, c).

    Every algebra check except inverse is multilinear in the drawn
    matrices, so it holds for the cleared matrices exactly when it holds
    for the drawn ones, and the products run on ints.  The inverse and the
    scaled s-family identity clear their own factors and compare against
    the same multiple of the other side.
    """
    bits = rng.getrandbits
    rows = []
    fractions = []  # (row, column, reduced denominator > 1)
    c = 1
    for i in range(n):
        row = []
        for j in range(n):
            kind = bits(3)  # _below inlined, n.bit_length() bits: 6, 4 -> 3; 13, 9 -> 4
            while kind >= 6:
                kind = bits(3)
            if kind == 0:
                a = bits(4)
                while a >= 13:
                    a = bits(4)
                b = bits(3)
                while b >= 4:
                    b = bits(3)
                a, b = a - 6, b + 1
                g = gcd(a, b)
                if g != b:
                    b //= g
                    fractions.append((i, j, b))
                    c = lcm(c, b)
                row.append(a // g)
            elif kind <= 2:
                row.append(0)
            else:
                r = bits(4)
                while r >= 9:
                    r = bits(4)
                row.append(r - 4)
        rows.append(row)
    if c != 1:
        rows = [[c * x for x in row] for row in rows]
        for i, j, b in fractions:
            rows[i][j] //= b
    return ExactMatrix._of(rows), c


def _as_drawn(*draws: tuple[ExactMatrix, int]) -> str:
    """The witness text P=..., Q=..., R=... of (c P, c) draws, each matrix as drawn."""
    return ", ".join(f"{name}={_divided(m, c)!r}" for name, (m, c) in zip("PQR", draws))


def _times(c: int, m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix._of([[c * x for x in row] for row in m.rows])


def _check_assoc(n: int, rng: random.Random, count: int) -> str:
    for k in range(count):
        draws = [_random_cleared(n, rng) for _ in range(3)]
        (p, _), (q, _), (r, _) = draws
        if cp_mul(cp_mul(p, q), r) != cp_mul(p, cp_mul(q, r)):
            raise IdentityViolation(f"instance {k}: {_as_drawn(*draws)}")
    return f"{count} instances"


def _check_inverse(n: int, rng: random.Random, count: int) -> str:
    ident = ExactMatrix.identity(n)
    bits = rng.getrandbits
    for k in range(count):
        p = escheme.random_conjugator(n, rng)
        unit_diag = k % 2 == 0
        if not unit_diag:
            for i, row in enumerate(p.rows):
                row[i] = _NONZERO[_below(bits, 6)]
        q = cp_inv(p)
        cq, c = clear_denominators(q)
        scalar = _times(c, ident)
        if cp_mul(p, cq) != scalar or cp_mul(cq, p) != scalar:
            raise IdentityViolation(f"instance {k}: P={p!r}")
        if unit_diag and any(not isinstance(x, int) for row in q.rows for x in row):
            raise IdentityViolation(f"instance {k}: non-integer inverse for P={p!r}")
    return f"{count} instances"


def _check_strip(n: int, rng: random.Random, count: int) -> str:
    """The band of the strip product against the circular product, a row at a time.

    Row i + n of a strip is row i, on both sides, so rows 1..n are every
    row of the band; a failure names the first entry (i, i + d), rows
    first, at which they differ.
    """
    for k in range(count):
        pd, qd = _random_cleared(n, rng), _random_cleared(n, rng)
        p, q = pd[0], qd[0]
        sp, sq = StripWindow(p), StripWindow(q)
        product = cp_mul(p, q).rows
        for i, row in enumerate(product, 1):
            got, want = sp.band_product_row(sq, i), row[i - 1:] + row[:i - 1]
            if got != want:
                d = next(d for d in range(n) if got[d] != want[d])
                raise IdentityViolation(f"instance {k} at ({i}, {i + d}): {_as_drawn(pd, qd)}")
    return f"{count} instances"


def _check_sfamily(n: int, rng: random.Random, count: int) -> str:
    """The s-family's limits and its conjugation to the ordinary product, on integers.

    With s = u/v, v > 0, T = s_scale_cleared(., u, v) is v^(N-1) times the
    rescaling S by s and s_mul_cleared(P, Q, u, v) is v^N (P x_s Q), so
    multiplying S(P) S(Q) = S(P x_s Q) by v^(2N-1) gives
    v T(P) T(Q) = T(v^N (P x_s Q)): the same identity, as v != 0.
    """
    bits = rng.getrandbits
    for k in range(count):
        pd, qd = _random_cleared(n, rng), _random_cleared(n, rng)
        p, q = pd[0], qd[0]
        if s_mul(p, q, 0) != cp_mul(p, q):
            raise IdentityViolation(f"instance {k}, s=0: {_as_drawn(pd, qd)}")
        if s_mul(p, q, 1) != p @ q:
            raise IdentityViolation(f"instance {k}, s=1: {_as_drawn(pd, qd)}")
        s = Fraction(_NONZERO[_below(bits, 6)], 1 + _below(bits, 3))
        u, v = s.numerator, s.denominator
        left = _times(v, s_scale_cleared(p, u, v)) @ s_scale_cleared(q, u, v)
        if left != s_scale_cleared(s_mul_cleared(p, q, u, v), u, v):
            raise IdentityViolation(f"instance {k}, s={s}: {_as_drawn(pd, qd)}")
    return f"{count} instances"


def _check_cycling(n: int, rng: random.Random, count: int) -> str:
    for k in range(count):
        pd, qd = _random_cleared(n, rng), _random_cleared(n, rng)
        p, q = pd[0], qd[0]
        shift = _below(rng.getrandbits, n)
        if cycle(cp_mul(p, q), shift) != cp_mul(cycle(p, shift), cycle(q, shift)):
            raise IdentityViolation(f"instance {k}, shift {shift}: {_as_drawn(pd, qd)}")
        if cycle(p, n) != p:
            raise IdentityViolation(f"instance {k}: full cycle moved {_as_drawn(pd)}")
    return f"{count} instances"


def _check_semidirect(n: int, rng: random.Random, count: int) -> str:
    from .circlealg import from_semidirect, semidirect_mul, to_semidirect

    for k in range(count):
        pd, qd = _random_cleared(n, rng), _random_cleared(n, rng)
        p, q = pd[0], qd[0]
        r, low = semidirect_mul(to_semidirect(p), to_semidirect(q))
        if from_semidirect(r, low) != cp_mul(p, q):
            raise IdentityViolation(f"instance {k}: {_as_drawn(pd, qd)}")
    return f"{count} instances"


_ALGEBRA_CHECKS = {
    "assoc": _check_assoc,
    "cycling": _check_cycling,
    "inverse": _check_inverse,
    "semidirect": _check_semidirect,
    "sfamily": _check_sfamily,
    "strip": _check_strip,
}


def algebra_jobs(ns: Sequence[int], seed: int, count: int) -> list[Job]:
    jobs: list[Job] = []
    for n in ns:
        for name, fn in _ALGEBRA_CHECKS.items():
            jobs.append((
                f"algebra/{name}/N{n}",
                lambda fn=fn, n=n, name=name: fn(n, _rng(seed, f"{name}/{n}"), count),
            ))
    return jobs


# ------------------------------------------------------------------ geometry suite


def _check_samples(pi: LinkPattern, rng: random.Random, count: int) -> str:
    bounds = rank_table(pi)
    for k in range(count):
        sp = escheme.random_sample(pi, rng)
        m = sp.matrix
        if not escheme.is_in_E(m):
            raise IdentityViolation(f"sample {k} left the scheme: {sp.to_obj()}")
        found = escheme.identify_pattern(m)
        if found != pi:
            raise IdentityViolation(
                f"sample {k} identified as {found}, not {pi}: {sp.to_obj()}")
        if not escheme.check_rank_bounds(m, bounds):
            raise IdentityViolation(f"sample {k} breaks a rank bound: {sp.to_obj()}")
    return f"{count} samples"


def _check_tangent(pi: LinkPattern, rng: random.Random) -> str:
    n = pi.n
    sp = escheme.random_sample(pi, rng)
    dim = escheme.tangent_dimension(sp.matrix)
    want = n * n // 2
    if dim != want:
        raise IdentityViolation(
            f"tangent dimension {dim}, want {want}: {sp.to_obj()}")
    return f"dimension {dim}"


def _check_stabilizer(pi: LinkPattern, rng: random.Random) -> str:
    n = pi.n
    half, odd = n // 2, n % 2
    t = escheme.random_t(pi, rng)
    codim = escheme.stabilizer_codim(pi, t)
    want = 2 * half * (half + odd - 1)
    if codim != want:
        raise IdentityViolation(f"stabilizer codimension {codim}, want {want}, t={t}")
    return f"codimension {codim}"


def geometry_jobs(ns: Sequence[int], seed: int, samples: int) -> list[Job]:
    jobs: list[Job] = []
    for n in ns:
        for pi in enumerate_patterns(n):
            tag = f"geometry/N{n}/{_slug(pi)}"
            label = f"geo/{n}/{pi.pairing}"
            jobs.append((f"{tag}/samples",
                         lambda pi=pi, label=label: _check_samples(
                             pi, _rng(seed, label), samples)))
            jobs.append((f"{tag}/tangent",
                         lambda pi=pi, label=label: _check_tangent(
                             pi, _rng(seed, label + "/t"))))
            jobs.append((f"{tag}/stabilizer",
                         lambda pi=pi, label=label: _check_stabilizer(
                             pi, _rng(seed, label + "/s"))))
    return jobs


# ------------------------------------------------------------------ table suites


def _per_table(prefix: str, ns: Iterable[int], store: TableStore,
               note: Callable[[MdegTable], str]) -> list[Job]:
    """One job per size n, id prefix/N<n>, that notes note(table n)."""
    return [(f"{prefix}/N{n}", lambda n=n: note(store.get(n))) for n in ns]


def sumrule_jobs(ns: Sequence[int], seed: int, points: int | None,
                 store: TableStore) -> list[Job]:
    def total(table: MdegTable) -> str:
        result = psitable.sum_rule_total(table, points=points or 20,
                                         seed=_int_seed(seed, f"total/{table.n}"))
        return f"degree sum {result['degree_sum']}, {result['points']} points"

    return (_per_table("sumrules/sector", [n for n in ns if n % 2 == 0], store,
                       lambda t: f"{psitable.sum_rule_sector(t)['patterns']} sector patterns")
            + _per_table("sumrules/total", ns, store, total))


def _markov(table: MdegTable) -> str:
    sol = loopchain.stationary(table.n)
    loopchain.match_psi(table, sol)
    return f"{len(sol.normalized)} patterns"


def commuting_jobs(ns: Sequence[int], seed: int, points: int | None,
                   store: TableStore) -> list[Job]:
    """The degree sequence up to the largest size, with its cross-checks."""
    max_n = ns[-1]
    jobs: list[Job] = [
        ("commuting/sequence",
         lambda: " ".join(str(d) for d in commvar.degree_sequence(max_n))),
    ]

    def check_alt(k: int) -> str:
        primary = commvar.delta(k)
        alt = commvar.delta_alt_order(k)
        spec = alt.delta
        for i in range(2, k + 1):
            spec = spec.subs_z(i, 0)
        if spec != primary.delta or alt.degree != primary.degree:
            raise IdentityViolation(f"operator orderings disagree at n={k}")
        return f"degree {primary.degree}"

    for k in range(1, min(max_n, 4) + 1):
        jobs.append((f"commuting/alt/n{k}", lambda k=k: check_alt(k)))
    return jobs + _per_table(
        "commuting/table", [2 * k for k in range(1, min(max_n, 3) + 1)], store,
        lambda t: f"degree {commvar.crosscheck_with_table(t)['degree']}")


# ------------------------------------------------------------------ orchestration


Builder = Callable[[Sequence[int], int, int | None, TableStore], list[Job]]


class Suite(NamedTuple):
    lo: int
    hi: int
    top: int  # the largest size run without --n or --max-n
    jobs: Builder  # (sizes, seed, --points, store) -> jobs


# every verify suite, in report order
SUITES: dict[str, Suite] = {
    "algebra": Suite(2, 8, 8, lambda ns, seed, points, store: algebra_jobs(
        ns, seed, points or 1000)),
    "geometry": Suite(3, 6, 6, lambda ns, seed, points, store: geometry_jobs(
        ns, seed, points or 200)),
    "edges": Suite(2, SYMBOLIC_LIMIT, SYMBOLIC_LIMIT, lambda ns, seed, points, store: _per_table(
        "edges", ns, store,
        lambda t: f"{psitable.verify_edges(t)['edges']} edge equations")),
    "exchange": Suite(2, SYMBOLIC_LIMIT, SYMBOLIC_LIMIT, lambda ns, seed, points, store: _per_table(
        "exchange", ns, store,
        lambda t: f"{psitable.verify_exchange(t)['identities']} identities")),
    "sumrules": Suite(2, SYMBOLIC_LIMIT, SYMBOLIC_LIMIT, sumrule_jobs),
    "markov": Suite(2, SYMBOLIC_LIMIT, SYMBOLIC_LIMIT, lambda ns, seed, points, store: _per_table(
        "markov", ns, store, _markov)),
    "d1": Suite(2, SYMBOLIC_LIMIT, SYMBOLIC_LIMIT, lambda ns, seed, points, store: _per_table(
        "d1", ns, store,
        lambda t: "{} points".format(pfdet.d0_multiplicity_check(
            t, points=points or 20, seed=_int_seed(seed, f"d1/{t.n}"))["points"]))),
    "commuting": Suite(*DEGREE_SIZES["commuting"], 6, commuting_jobs),
}


def _check_size(flag: str, value: int | None, lo: int, hi: int) -> None:
    if value is not None and not lo <= value <= hi:
        raise SystemExit(f"error: {flag} must lie in {lo}..{hi}")


def suite_jobs(suite: str, args, store: TableStore) -> list[Job]:
    spec = SUITES[suite]
    if args.n is not None:
        _check_size("--n", args.n, spec.lo, spec.hi)
        ns = [args.n]
    else:
        # a larger --max-n stands for hi, so that one bound can serve `verify all`
        top = spec.top if args.max_n is None else min(spec.hi, args.max_n)
        _check_size("--max-n", top, spec.lo, spec.hi)
        ns = list(range(spec.lo, top + 1))
    return spec.jobs(ns, args.seed, args.points, store)


def print_report(report: SuiteReport) -> None:
    for c in report.checks:
        line = f"{'PASS' if c.passed else 'FAIL'} {c.check_id}"
        if c.note:
            line += f" [{c.note}]"
        if c.witness:
            line += f" :: {c.witness}"
        print(line)
    good = sum(1 for c in report.checks if c.passed)
    print(f"suite {report.suite}: {good}/{len(report.checks)} checks passed")


# ------------------------------------------------------------------ subcommands


def _store(args) -> TableStore:
    return TableStore(Path(args.table_dir))


def cmd_table(args) -> int:
    _check_size("--n", args.n, 2, SYMBOLIC_LIMIT)
    store = _store(args)
    table = store.get(args.n)
    path = Path(args.out) if args.out else store.path(args.n)
    try:
        wrote = write_table(table, path, force=args.force)
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc.strerror or exc}")
    degrees = {str(pi): table.degree(pi) for pi in table.patterns()}
    if args.format == "json":
        print(json.dumps({"n": table.n, "patterns": len(degrees),
                          "degrees": degrees, "hash": table.content_hash(),
                          "path": str(path), "wrote": wrote},
                         indent=2, sort_keys=True))
    else:
        print(f"table N={table.n}: {len(degrees)} patterns")
        for name in sorted(degrees):
            print(f"  {name}  {degrees[name]}")
        print(f"hash {table.content_hash()}")
        print(f"{'wrote' if wrote else 'kept'} {path}")
    return 0


def cmd_degrees(args) -> int:
    lo, hi = DEGREE_SIZES[args.scheme]
    _check_size("--n", args.n, lo, hi)
    # the E listing starts at N=2: a smaller --max-n would list nothing
    _check_size("--max-n", args.max_n, 2 if args.scheme == "E" else lo, hi)
    store = _store(args)
    if args.scheme == "commuting":
        top = args.max_n or args.n
        if top is None:
            raise SystemExit("error: --scheme commuting needs --n or --max-n")
        seq = commvar.degree_sequence(top)
        if args.format == "json":
            print(json.dumps({"scheme": "commuting", "degrees": seq}))
        else:
            print(" ".join(str(d) for d in seq))
        return 0
    if args.scheme == "E":
        ns = [args.n] if args.n is not None else list(range(2, (args.max_n or 6) + 1))
        rows = []
        for n in ns:
            det = pfdet.degree_determinant(n)
            if n <= SYMBOLIC_LIMIT:
                total, source = store.get(n).degree_sum(), "table"
            else:
                sol = loopchain.stationary(n)
                total, source = sum(sol.normalized.values()), "chain"
            rows.append({"n": n, "determinant": det, "sum": total, "source": source})
        if args.format == "json":
            print(json.dumps({"scheme": "E", "results": rows}, sort_keys=True))
        else:
            for row in rows:
                print(f"E N={row['n']}: determinant {row['determinant']}, "
                      f"{row['source']} sum {row['sum']}")
        return 0 if all(r["determinant"] == r["sum"] for r in rows) else 1
    # scheme D1: both closed forms at one admissible seeded point
    if args.n is None:
        raise SystemExit("error: --scheme D1 needs --n")
    n = args.n
    rng = _rng(args.seed, f"d1point/{n}")
    a, z = pfdet.random_point(n, rng)
    local = pfdet.d1_mdeg_localization(n, a, z)
    pf = pfdet.d1_mdeg_pfaffian_form(n, a, z)
    if args.format == "json":
        print(json.dumps({
            "scheme": "D1", "n": n, "a": str(a), "z": [str(v) for v in z],
            "localization": str(local), "pfaffian_form": str(pf),
        }, sort_keys=True))
    else:
        print(f"D1 N={n} at A={a}, z={[str(v) for v in z]}")
        print(f"  localization form  {local}")
        print(f"  pfaffian form      {pf}")
    return 0 if local == pf else 1


def cmd_verify(args) -> int:
    store = _store(args)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    # every size is checked before any suite runs
    jobs = {suite: suite_jobs(suite, args, store) for suite in suites}
    reports = []
    for suite in suites:
        report = run_suite(suite, jobs[suite])
        print(f"suite {suite} took {report.wall_time:.1f}s", file=sys.stderr)
        if args.format == "text":
            print_report(report)
        reports.append(report)
    if args.format == "json":
        # one document: the suite objects in report order
        print(json.dumps([r.to_obj() for r in reports], indent=2, sort_keys=True))
    return 0 if all(r.passed for r in reports) else 1


# ------------------------------------------------------------------ entry point


def positive_int(text: str) -> int:
    """An argparse type: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    sizes = common.add_mutually_exclusive_group()
    sizes.add_argument("--n", type=int, default=None, help="single size")
    sizes.add_argument("--max-n", type=int, default=None, dest="max_n",
                       help="size range upper bound")
    common.add_argument("--seed", type=int, default=0, help="master random seed")
    common.add_argument("--points", type=positive_int, default=None,
                        help="instances / sample points per check (at least 1)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--table-dir", dest="table_dir",
                        default=os.environ.get("BRAUERLOOP_TABLE_DIR", "tables"),
                        help="table persistence directory")

    parser = argparse.ArgumentParser(
        prog="brauerloop",
        description="Exact degree tables and checks for the circular-product loop scheme.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[common],
                             help="compute and persist a multidegree table")
    p_table.add_argument("--out", default=None, help="explicit output path")
    p_table.add_argument("--force", action="store_true",
                         help="overwrite a file holding a different table")
    p_table.set_defaults(fn=cmd_table)

    p_deg = sub.add_parser("degrees", parents=[common],
                           help="print exact degrees from the closed forms")
    p_deg.add_argument("--scheme", choices=("E", "D1", "commuting"), required=True)
    p_deg.set_defaults(fn=cmd_degrees)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a verification suite")
    p_ver.add_argument("suite", choices=(*SUITES, "all"))
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table" and args.n is None:
        raise SystemExit("error: table needs --n")
    try:
        return args.fn(args)
    except BrauerLoopError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
