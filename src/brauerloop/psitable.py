"""Multidegree tables for the loop scheme components.

Each component E_pi of the loop scheme carries a multidegree, a
polynomial in A and z_1..z_N, homogeneous of degree ceil(N^2/2) - N.
The table of all of them is generated from two ingredients:

  - the base case at the maximally crossing pattern, an explicit product
    of linear forms (base_mdeg);
  - a divided-difference recursion (recursion_step) that produces the
    multidegree of f_i . rho from that of rho whenever rho has no chord
    joining i and i+1.  It is the operator theta_i = -2A d_i - tau_i of
    the commuting-variety chain (commvar), conjugated by the weight
    A + z_i - z_{i+1}; one operator drives both chains.

The multidegrees are covariant under the dihedral group: rotating a
pattern rotates the z's cyclically, and reflecting it reverses and negates
them (MultiPoly.dihedral).  So the table is built over dihedral orbits.
Since adjacent transposition moves connect all patterns, a breadth-first
sweep reaches every pattern; the first move into each one is its edge, and
these edges form a spanning tree rooted at the base.  The first pattern
reached in an orbit is the orbit's representative, and its entry is one
recursion step along its edge; every other entry is its representative's
under one symmetry.  The table stores the representatives' entries only
and derives each other one when it is read (MdegTable.mdeg; a degree,
which no symmetry moves, is read off the representative).  Its persisted
form lists every entry, and a loaded table stores them all.  That form is
the table's canonical text, compact JSON with sorted keys, written
straight from the entries' packed keys (MultiPoly.to_json) with one term
suffix per monomial cached across the table; its sha256 is the table's
content hash.  MdegTable.from_text reads that text back one entry at a
time.
verify_edges checks every move exactly, tree edge or not, and
stabilizer_check that every symmetry fixing a stored pattern fixes its
entry; both run apart from the build.

The remaining functions verify, symbolically or at exact rational
points (pfdet.random_point, evaluated at their integer images), the
identities these polynomials satisfy: the exchange relations tying the
family to the transfer matrix, sector and total sum rules, the
specialization that removes a small chord, the small-arch identity,
rotation and reflection covariance, and positivity on the region where
every weight 1 + z_i - z_j is positive.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import ChainInconsistency, ChordPresent, IdentityViolation
from .exactpoly import MultiPoly
from .linkpat import (LinkPattern, apply_e, apply_f, enumerate_patterns,
                      in_permutation_sector, maximal_pattern, reflect,
                      restrict_pattern, rotate, strands_cross_at, symmetries, _wrap)
from .pfdet import degree_determinant, integer_image, random_point, total_mdeg_pfaffian_value


def target_degree(n: int) -> int:
    """Homogeneous degree of every multidegree at size n."""
    return -(-n * n // 2) - n


def base_mdeg(n: int) -> MultiPoly:
    """Multidegree of the maximally crossing component, as a product.

    One factor A + z_i - z_{i+step} per point i and step 1..floor(N/2)-1,
    plus, for odd N, one factor A + z_i - z_{i+half} for each i in the
    second half; indices cyclic.
    """
    half = n // 2
    out = MultiPoly.one(n)
    for i in range(1, n + 1):
        for step in range(1, half):
            out = out * _lin(n, 1, i, _wrap(i + step, n))
    if n % 2:
        for i in range(half + 1, n + 1):
            out = out * _lin(n, 1, i, _wrap(i + half, n))
    return out


def _lin(n: int, a: int, plus: int, minus: int) -> MultiPoly:
    """a*A + z_plus - z_minus."""
    return MultiPoly.linear(n, a, {plus: 1, minus: -1})


def recursion_step(mdeg_rho: MultiPoly, rho: LinkPattern, i: int) -> MultiPoly:
    """Multidegree of f_i . rho from that of rho: theta_i conjugated by a weight.

    Needs no chord between i and i+1.  With u = z_i - z_{i+1}, the weights
    w = A - u and wbar = tau_i w = A + u, and f = mdeg rho, the crossing and
    non-crossing resolutions give mdeg(f_i.rho) = -(2A-u) d_i(w f)/w - f,
    which equals wbar * theta_i(f / wbar), theta_i = -2A d_i - tau_i:

      1. At A = u, d_i(w f) = (w f - wbar tau_i f)/u reduces to -2 tau_i f,
         so w divides d_i(w f) exactly when w divides tau_i f, that is,
         when wbar divides f.
      2. With f = wbar g, w wbar = A^2 - u^2 is tau_i-symmetric, so
         d_i(w f) = w wbar d_i g.
      3. As tau_i g = g - u d_i g, -(2A-u) wbar d_i g - wbar g = wbar theta_i(g).

    The division by wbar is exact (checked: InexactDivision otherwise)
    in exactly the cases where the division by w is.
    """
    n = rho.n
    ip = _wrap(i + 1, n)
    if rho(i) == ip:
        raise ChordPresent(f"pattern {rho} joins {i} and {ip}")
    wbar = _lin(n, 1, i, ip)
    return wbar * mdeg_rho.exact_divide(wbar).theta(i)


@dataclass(frozen=True)
class MdegTable:
    """All multidegrees at one size, each dihedral orbit stored once.

    stored maps the patterns whose entries the table keeps to their
    multidegrees.  place maps every pattern pi to (rep, r, flip), rep a
    stored pattern and pi = rotate(reflect(rep) if flip else rep, r), so
    that mdeg(pi) = stored[rep].dihedral(r, flip); with no place, every
    stored pattern is placed on itself.  edges maps each pattern to the
    first move (i, rho) into it in the build's breadth-first sweep, None at
    the base; verify_edges checks every move, edge or not.  A built table
    lists place and edges in the order the sweep reached the patterns, a
    loaded one stores every entry.

    The table is read-only: stored, place and edges are copied into
    read-only views, so its canonical text, serialized at most once, the
    content hash of that text and the sum of its entries, each computed at
    most once, can never go stale.
    """

    n: int
    stored: Mapping[LinkPattern, MultiPoly]
    edges: Mapping[LinkPattern, tuple[int, LinkPattern] | None]
    place: Mapping[LinkPattern, tuple[LinkPattern, int, bool]] | None = None
    _text: str | None = field(default=None, init=False, repr=False, compare=False)
    _hash: str | None = field(default=None, init=False, repr=False, compare=False)
    _sum: MultiPoly | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        place = {pi: (pi, 0, False) for pi in self.stored} if self.place is None else self.place
        object.__setattr__(self, "stored", MappingProxyType(dict(self.stored)))
        object.__setattr__(self, "place", MappingProxyType(dict(place)))
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))

    def __eq__(self, other: object) -> bool:
        """Equal size, entries and edges, however the entries are stored."""
        if not isinstance(other, MdegTable):
            return NotImplemented
        return (self.n == other.n and self.edges == other.edges
                and self.entries == other.entries)

    @property
    def entries(self) -> Mapping[LinkPattern, MultiPoly]:
        """Every placed pattern's entry, in place order, derived on each access."""
        return MappingProxyType({pi: self.mdeg(pi) for pi in self.place})

    def patterns(self) -> tuple[LinkPattern, ...]:
        return enumerate_patterns(self.n)

    def mdeg(self, pi: LinkPattern) -> MultiPoly:
        """The entry of pi: its representative's, under one key permutation."""
        return _placed(self.stored, self.place[pi])

    def psi(self, pi: LinkPattern) -> MultiPoly:
        return self.mdeg(pi).specialize_a(1)

    def degree(self, pi: LinkPattern) -> int:
        """The entry of pi at z = 0, A = 1: its representative's, as a symmetry keeps it."""
        return self.stored[self.place[pi][0]].z_free_sum()

    def degrees(self) -> dict[LinkPattern, int]:
        return {pi: self.degree(pi) for pi in self.patterns()}

    def degree_sum(self) -> int:
        return sum(self.degrees().values())

    def mdeg_sum(self) -> MultiPoly:
        """The sum of every pattern's entry, accumulated in one dict once per table."""
        if self._sum is None:
            total = MultiPoly.sum_of(self.n, map(self.mdeg, self.patterns()))
            object.__setattr__(self, "_sum", total)
        return self._sum

    def validate(self) -> None:
        """Every pattern placed, homogeneity, the base entry, and the family GCD.

        A symmetry keeps an entry's degree and the absolute values of its
        coefficients, at A = 1 too, so the stored entries stand for all.
        """
        missing = [pi for pi in self.patterns() if pi not in self.place]
        if missing:
            raise ChainInconsistency(f"no entry for patterns {missing}")
        want = target_degree(self.n)
        for pi, p in self.stored.items():
            if p.homogeneous_degree() != want:
                raise ChainInconsistency(
                    f"entry {pi} has degree {p.homogeneous_degree()}, want {want}")
        if self.mdeg(maximal_pattern(self.n)) != base_mdeg(self.n):
            raise ChainInconsistency("base entry does not match the base product")
        g = 0
        for p in self.stored.values():
            g = math.gcd(g, *p.specialize_a(1).terms.values())
        if g != 1:
            raise ChainInconsistency(f"family GCD is {g}, want 1")

    # ------------------------------------------------------------- persistence

    @classmethod
    def from_obj(cls, obj: dict) -> "MdegTable":
        """The table of a parsed canonical text, in one pass over its entries.

        obj holds "n", "edges" and "entries", as the canonical text does.
        obj["entries"] may be any iterable of [pairing, terms] pairs, such
        as the generator from_text decodes them with.  Each pair's terms
        are let go once they are converted, before the next pair is asked
        for, so the iterable decides how many parsed entries are alive.
        """
        n = obj["n"]
        entries = {}
        for pair, poly in obj["entries"]:
            entries[LinkPattern(tuple(pair))] = MultiPoly.from_obj(n, poly)
            del poly
        edges: dict[LinkPattern, tuple[int, LinkPattern] | None] = {}
        for pair, edge in obj["edges"]:
            pi = LinkPattern(tuple(pair))
            edges[pi] = None if edge is None else (edge[0], LinkPattern(tuple(edge[1])))
        return cls(n, entries, edges)

    @classmethod
    def from_text(cls, n: int, text: str) -> "MdegTable":
        """The table of size n whose canonical text is text, decoded one entry at a time.

        The inverse of canonical_text.  text must be
        {"edges":[...],"entries":[...],"n":n} with no space between its
        parts (ValueError otherwise).  The edges list is decoded whole, then
        each [pairing,terms] entry by itself and handed to from_obj, which
        converts it; each parsed entry is dropped before the next one is
        decoded, so the parse holds one entry's terms, never the whole tree.
        """
        decode = json.JSONDecoder().raw_decode
        head, middle, tail = '{"edges":', ',"entries":[', ',"n":%d}' % n
        if not text.startswith(head):
            raise ValueError("table text does not open with its edges")
        edges, pos = decode(text, len(head))
        if not text.startswith(middle, pos):
            raise ValueError("table text has no entries after its edges")
        pos += len(middle)

        def entries() -> Iterator[list]:
            nonlocal pos
            if not text.startswith("]", pos):
                while True:
                    entry, pos = decode(text, pos)
                    yield entry
                    del entry
                    if not text.startswith(",", pos):
                        break
                    pos += 1
            if not text.startswith("]", pos):
                raise ValueError(f"table text has no entry list end at {pos}")
            pos += 1

        table = cls.from_obj({"n": n, "edges": edges, "entries": entries()})
        if text[pos:] != tail:
            raise ValueError(f"table text does not close with its size {n}")
        return table

    def canonical_text(self) -> str:
        """The table as compact JSON with sorted keys, serialized once per table.

        {"edges":[[pairing,edge],...],"entries":[[pairing,terms],...],"n":n}
        with the patterns sorted by pairing, each edge [i,pairing] or null
        at the base, and each entry's terms as MultiPoly.to_json writes
        them, from one suffix cache shared by all entries.  It is the text
        json.dumps(..., sort_keys=True, separators=(",", ":")) gives for
        that object, which from_text reads back into the table.
        """
        if self._text is None:
            pats = sorted(self.place, key=lambda p: p.pairing)
            suffixes: dict[int, str] = {}
            entries = ",".join(["[%s,%s]" % (_ints(pi.pairing), self.mdeg(pi).to_json(suffixes))
                                for pi in pats])
            edges = ",".join(["[%s,%s]" % (_ints(pi.pairing), _edge(self.edges.get(pi)))
                              for pi in pats])
            text = '{"edges":[%s],"entries":[%s],"n":%d}' % (edges, entries, self.n)
            object.__setattr__(self, "_text", text)
        return self._text

    def content_hash(self) -> str:
        """The sha256 of the canonical text, computed once per table."""
        if self._hash is None:
            digest = hashlib.sha256(self.canonical_text().encode()).hexdigest()
            object.__setattr__(self, "_hash", digest)
        return self._hash


def _ints(values: tuple[int, ...]) -> str:
    """A JSON list of ints."""
    return "[" + ",".join(map(str, values)) + "]"


def _edge(edge: tuple[int, LinkPattern] | None) -> str:
    """An edge (i, rho) as the JSON [i,pairing], null at the base."""
    return "null" if edge is None else "[%d,%s]" % (edge[0], _ints(edge[1].pairing))


def _moves(rho: LinkPattern) -> Iterator[tuple[int, LinkPattern]]:
    """(i, f_i . rho) for i = 1..n in order, wherever rho has no chord (i, i+1)."""
    n = rho.n
    for i in range(1, n + 1):
        if rho(i) != _wrap(i + 1, n):
            yield i, apply_f(rho, i)


def _placed(stored: Mapping[LinkPattern, MultiPoly],
            at: tuple[LinkPattern, int, bool]) -> MultiPoly:
    """The entry placed at = (rep, r, flip): stored[rep], or its image under one symmetry."""
    rep, r, flip = at
    return stored[rep].dihedral(r, flip) if r or flip else stored[rep]


def compute_table(n: int) -> MdegTable:
    """The breadth-first transposition sweep from the base, one step per orbit.

    The moves out of each pattern are taken in the order of _moves, and the
    first move into a pattern is recorded in edges.  When that pattern's
    orbit was not reached before, the pattern becomes its representative
    and is stored, with one recursion step along the move; every pattern of
    the orbit is then placed by the first symmetry that carries the
    representative to it.  So the build makes one recursion step per orbit
    besides the base's, and derives no entry but those of the moves' sources.
    """
    stored: dict[LinkPattern, MultiPoly] = {}
    orbit: dict[LinkPattern, tuple[LinkPattern, int, bool]] = {}

    def new_orbit(rep: LinkPattern, entry: MultiPoly) -> None:
        stored[rep] = entry
        for r, flip, image in symmetries(rep):
            orbit.setdefault(image, (rep, r, flip))

    pi0 = maximal_pattern(n)
    new_orbit(pi0, base_mdeg(n))
    place = {pi0: orbit[pi0]}
    edges: dict[LinkPattern, tuple[int, LinkPattern] | None] = {pi0: None}
    work = deque([pi0])
    while work:
        rho = work.popleft()
        for i, sigma in _moves(rho):
            if sigma in edges:
                continue
            if sigma not in orbit:
                new_orbit(sigma, recursion_step(_placed(stored, place[rho]), rho, i))
            place[sigma] = orbit[sigma]
            edges[sigma] = (i, rho)
            work.append(sigma)
    missing = [pi for pi in enumerate_patterns(n) if pi not in edges]
    if missing:
        raise ChainInconsistency(f"unreached patterns: {missing}")
    return MdegTable(n, stored, edges, place)


def stabilizer_check(table: MdegTable) -> dict:
    """Every symmetry that fixes a stored pattern fixes its entry.

    The build places each pattern by one symmetry only, so this is what
    covariance asserts of a built table beyond its construction: with a
    nontrivial stabilizer, the entry must be invariant under it.  A loaded
    table stores every entry, so there every pattern's stabilizer is
    checked.  Raises ChainInconsistency naming the pattern, r and flip.
    """
    checked = 0
    for rep, entry in table.stored.items():
        for r, flip, image in symmetries(rep):
            if image != rep or not (r or flip):
                continue
            if entry.dihedral(r, flip) != entry:
                raise ChainInconsistency(
                    f"symmetry r={r}, flip={flip} fixes {rep} but not its entry")
            checked += 1
    return {"symmetries": checked}


def verify_edges(table: MdegTable) -> dict:
    """Every edge equation: recursion_step(T[rho], rho, i) == T[f_i . rho].

    Checks each move out of each pattern, tree edge or not, so the result
    does not depend on the order that built the table.  A mismatch raises
    ChainInconsistency naming the target, the move and its source.
    """
    checked = 0
    for rho in table.patterns():
        for i, sigma in _moves(rho):
            if recursion_step(table.mdeg(rho), rho, i) != table.mdeg(sigma):
                raise ChainInconsistency(
                    f"chains disagree at {sigma} via f_{i} from {rho}")
            checked += 1
    return {"edges": checked}


# ----------------------------------------------------------------- exchange


def verify_exchange(table: MdegTable) -> dict:
    """The denominator-cleared exchange identity at every position and pattern.

    With u = z_i - z_{i+1} (cyclic) and Psi the A=1 table,

      2(1-u) Psi_pi + u(1-u) Psi_{f_i.pi} + 2u sum_{rho: e_i.rho=pi} Psi_rho
        = (2-u)(1+u) tau_i Psi_pi.

    The coefficients are polynomials in u alone, so the difference of the
    two sides is one polynomial in powers of u.  Write P = Psi_pi,
    T = tau_i P, F = Psi_{f_i.pi} and E = the sum of the Psi_rho.  Since
    (2-u)(1+u) = 2 + u - u^2,

      lhs - rhs = 2P - 2uP + uF - u^2 F + 2uE - 2T - uT + u^2 T
                = 2(P - T) + u[(F + 2E - 2P - T) + u(T - F)],

    which MultiPoly.horner_u sums with no product of two polynomials.  The
    identity holds exactly when this residual R_k is zero, pi = pi_k.

    All the patterns at one position are checked by one horner_u call.
    Index the patterns pi_0..pi_{m-1} in table.patterns() order.  The
    residual is linear in the Psi's, so for a width s the packed residual
    R = sum_k 2^(s k) R_k is the same Horner sum of the packed polynomials

      P = sum_sigma 2^(s idx sigma) Psi_sigma           (the same at every i),
      T = tau_i P,
      F = sum_sigma 2^(s idx(f_i.sigma)) Psi_sigma      (f_i is an involution),
      E = sum_rho 2^(s idx(e_i.rho)) Psi_rho.

    Let B be the largest |coefficient| of any Psi and K the largest number
    of patterns that one e_i glues to one pattern.  The multipliers
    2(1-u), (2-u)(1+u), u(1-u) and 2u of P, T, F and each Psi_rho have
    absolute coefficient sums 6, 8, 6 and 4, so every coefficient of every
    R_k, and of every partial sum the Horner rule forms on the way, is at
    most (20 + 4K) B in absolute value.  With s = bit_length((20 + 4K) B)
    + 1, every digit d_k of a coefficient c = sum_k 2^(s k) d_k of R
    satisfies |d_k| < 2^(s-1): the d_k are c's balanced base-2^s digits,
    so R determines every R_k.  If j is the least k with d_k != 0, then c
    has exactly s j + (trailing zero bits of d_j) < s (j + 1) trailing zero
    bits, as 2^s divides no nonzero d_j.  So R = 0 exactly when every
    R_k = 0, and otherwise the first failing pattern is pi_k for k the
    least, over the coefficients c of R, of (trailing zero bits of c) // s:
    the witness a check of each pattern in turn would name.

    Each Psi is formed once and streamed into one coefficient vector per
    monomial, from which P, F and E are formed monomial by monomial.
    """
    n = table.n
    pats = table.patterns()
    index = {pi: k for k, pi in enumerate(pats)}
    vectors: dict[int, list[int]] = {}
    bound = 0
    for k, pi in enumerate(pats):
        terms = table.psi(pi).terms
        for key, c in terms.items():
            vector = vectors.get(key)
            if vector is None:
                vector = vectors[key] = [0] * len(pats)
            vector[k] = c
        bound = max(bound, max(map(abs, terms.values()), default=0))
    glued = [[index[apply_e(rho, i)] for rho in pats] for i in range(1, n + 1)]
    fan_in = max(max(Counter(row).values()) for row in glued)
    width = ((20 + 4 * fan_in) * bound).bit_length() + 1
    digits = [1 << width * k for k in range(len(pats))]

    def packed(weights: list[int]) -> MultiPoly:
        """sum_sigma weights[idx sigma] Psi_sigma, monomial by monomial."""
        return MultiPoly._of(n, {key: c for key, vector in vectors.items()
                                 if (c := sum(map(mul, vector, weights)))})

    p = packed(digits)
    for i, row in enumerate(glued, 1):
        t = p.tau(i)
        f = packed([digits[index[apply_f(sigma, i)]] for sigma in pats])
        e = packed([digits[k] for k in row])
        residual = MultiPoly.horner_u(n, i, [[(2, p), (-2, t)], [(1, f), (-2, p), (-1, t), (2, e)],
                                             [(1, t), (-1, f)]])
        if residual:
            k = min((c & -c).bit_length() - 1 for c in residual.terms.values()) // width
            raise IdentityViolation(f"exchange identity fails at i={i}, {pats[k]}")
    return {"identities": n * len(pats)}


# ----------------------------------------------------------------- sum rules


def sum_rule_sector(table: MdegTable) -> dict:
    """Patterns pairing each half into the other sum to a closed product."""
    n2 = table.n
    if n2 % 2:
        raise ValueError("the sector sum rule needs even size")
    n = n2 // 2
    sector = [pi for pi in table.patterns() if in_permutation_sector(pi)]
    total = MultiPoly.sum_of(n2, map(table.mdeg, sector))
    product = MultiPoly.one(n2)
    for lo, hi in ((1, n), (n + 1, n2)):
        for i in range(lo, hi + 1):
            for j in range(i + 1, hi + 1):
                product = product * _lin(n2, 1, i, j) * _lin(n2, 2, j, i)
    if total != product:
        raise IdentityViolation("sector sum rule fails")
    return {"patterns": len(sector)}


def sum_rule_total(table: MdegTable, points: int = 20, seed: int = 2011) -> dict:
    """Degree sum against the determinant, full sum against the Pfaffian.

    The Pfaffian form is checked by exact evaluation at the integer images
    of seeded rational points (both sides are homogeneous of degree
    ceil(N^2/2) - N); the inhomogeneous printed factor A - (z_i-z_j)^2 is
    read as (A + z_i - z_j)(A + z_j - z_i).  The points are drawn first,
    the table's total is evaluated at all their images in one call, and
    the Pfaffian side is compared point by point in the order drawn.
    """
    if points < 1:
        raise ValueError(f"points must be at least 1, not {points}")
    n = table.n
    want = degree_determinant(n)
    got = table.degree_sum()
    if got != want:
        raise IdentityViolation(f"degree sum {got} != determinant {want}")
    rng = random.Random(seed)
    drawn = [random_point(n, rng) for _ in range(points)]
    images = [integer_image(a, z) for a, z in drawn]
    for (a, z), (ai, zi), lhs in zip(drawn, images, table.mdeg_sum().evaluate(images)):
        if lhs != total_mdeg_pfaffian_value(n, ai, zi):
            raise IdentityViolation(
                f"Pfaffian total multidegree fails at a={a}, z={z}")
    return {"degree_sum": got, "points": points}


# ----------------------------------------------------------------- specialization


def specialize_check(table_big: MdegTable, table_small: MdegTable, i: int) -> dict:
    """Setting z_{i+1} = z_i + A collapses a chord (i, i+1).

    The specialized multidegree factors as the product over the other
    points k of (A+z_{i+1}-z_k)(A+z_k-z_i), likewise specialized, times
    the multidegree of the pattern with i, i+1 deleted.
    """
    n = table_big.n
    if table_small.n != n - 2:
        raise ValueError("tables must differ by one chord")
    if not 1 <= i < n:
        raise ValueError("the glued pair must be literal neighbours")
    sub = MultiPoly.linear(n, 1, {i: 1})
    keep = [k for k in range(1, n + 1) if k not in (i, i + 1)]
    checked = 0
    for p in table_big.patterns():
        if p(i) != i + 1:
            continue
        lhs = table_big.mdeg(p).subs_z(i + 1, sub)
        prefactor = MultiPoly.one(n)
        for k in keep:
            prefactor = prefactor * (_lin(n, 1, i + 1, k).subs_z(i + 1, sub)
                                     * _lin(n, 1, k, i))
        small = table_small.mdeg(restrict_pattern(p, (i, i + 1)))
        rhs = prefactor * small.map_z(n, keep)
        if lhs != rhs:
            raise IdentityViolation(f"specialization fails for {p} at i={i}")
        checked += 1
    return {"patterns": checked}


def smallarch_check(table: MdegTable, i: int) -> dict:
    """The small-arch identity at position i (cyclic).

    For every pi with a chord (i, i+1), writing g = A + z_{i+1} - z_i,

      -d_i((A+z_i-z_{i+1}) g mdeg pi) = -2A sum_rho d_i(g mdeg rho)

    with rho != pi running over the patterns that e_i glues to pi and
    whose strands through i and i+1 cross.
    """
    n = table.n
    ip = _wrap(i + 1, n)
    g = _lin(n, 1, ip, i)
    gbar = _lin(n, 1, i, ip)
    two_a = MultiPoly.linear(n, 2, {})
    checked = 0
    for pi in table.patterns():
        if pi(i) != ip:
            continue
        lhs = -((gbar * g * table.mdeg(pi)).ddiff(i))
        rhs = MultiPoly.zero(n)
        for rho in table.patterns():
            if rho == pi or apply_e(rho, i) != pi or not strands_cross_at(rho, i):
                continue
            rhs = rhs + (g * table.mdeg(rho)).ddiff(i)
        rhs = -(two_a * rhs)
        if lhs != rhs:
            raise IdentityViolation(f"small-arch identity fails for {pi} at i={i}")
        checked += 1
    return {"patterns": checked}


# ----------------------------------------------------------------- spot checks


def positivity_spot_check(table: MdegTable, trials: int = 100,
                          seed: int = 97) -> dict:
    """Every Psi is positive wherever every weight 1 + z_i - z_j is.

    At z = k/20, |k_i| <= 9, mdeg(20, k) = 20^d Psi(z) for an entry of
    homogeneous degree d (checked), so the integer value carries the sign.
    The trials are drawn first and each entry is evaluated at all of them
    in one call; the values are then read trial by trial, the patterns in
    order within a trial, so the first failure is named as if each trial
    were drawn and checked in turn.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    rng = random.Random(seed)
    points = [(20, [rng.randint(-9, 9) for _ in range(table.n)]) for _ in range(trials)]
    entries = []
    for pi in table.patterns():
        p = table.mdeg(pi)
        entries.append((pi, p.homogeneous_degree(), p.evaluate(points)))
    for t, (_, k) in enumerate(points):
        for pi, d, values in entries:
            if values[t] <= 0:
                raise IdentityViolation(f"{pi} evaluates to {Fraction(values[t], 20 ** d)} "
                                        f"at z={[Fraction(x, 20) for x in k]}")
    return {"points": trials}


def rotation_check(table: MdegTable) -> dict:
    """Rotating the pattern matches shifting the variables cyclically."""
    n = table.n
    shift = [_wrap(k + 1, n) for k in range(1, n + 1)]
    for pi in table.patterns():
        if table.mdeg(rotate(pi, 1)) != table.mdeg(pi).map_z(n, shift):
            raise IdentityViolation(f"rotation covariance fails at {pi}")
    return {"patterns": len(table.patterns())}


def reflection_check(table: MdegTable) -> dict:
    """Reflecting the pattern matches reversing and negating the variables.

    mdeg(refl pi)(A, z) = mdeg(pi)(A, -z_{N+1-i}): the variables are
    relabelled k -> N+1-k, and z -> -z flips the sign of every term of odd
    total z-degree.
    """
    n = table.n
    reverse = list(range(n, 0, -1))
    for pi in table.patterns():
        if table.mdeg(reflect(pi)) != table.mdeg(pi).map_z(n, reverse).negate_z():
            raise IdentityViolation(f"reflection covariance fails at {pi}")
    return {"patterns": len(table.patterns())}
