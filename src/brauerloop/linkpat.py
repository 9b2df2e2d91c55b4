"""Link patterns: chord diagrams on N cyclically ordered points.

A link pattern is an involution of {1, ..., N} whose number of fixed
points is N mod 2 (none for even N, exactly one for odd N), stored as
the 1-based image tuple, so pattern(i) is the partner of i.  Point
labels are cyclic throughout: every operator indexed by i acts on the
neighbouring pair (i, i+1), with i = N acting on (N, 1).

apply_e glues a little arc between i and i+1 and rejoins the former
partners of i and i+1 (when one of them was the fixed point, the other
former partner becomes the new fixed point); apply_f crosses the two
strands, i.e. conjugates by the transposition (i, i+1).  Both, like the
rotations and the reflection, map a link pattern to a link pattern by
construction, so they wrap their result with LinkPattern._of instead of
validating it again; the constructor validates every pattern built from
outside.

The periodic strip of a pattern is the infinite 0/1 array with an entry
in row a at column a + ((pi(a) - a) mod N) for every non-fixed a (shifted
by multiples of N in both directions); fixed points contribute nothing,
matching the ambient space of zero-diagonal matrices.  rank_table counts
entries in the triangle southwest of each strip position (i, j), i.e.
rows i..j, columns up to j; essential_set extracts the positions whose
rank conditions imply all the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "LinkPattern",
    "RankTable",
    "enumerate_patterns",
    "maximal_pattern",
    "apply_e",
    "apply_f",
    "rotate",
    "reflect",
    "crossings",
    "chords_cross",
    "strands_cross_at",
    "in_permutation_sector",
    "restrict_pattern",
    "rank_table",
    "essential_set",
    "essential_implies_all",
]


def _wrap(x: int, n: int) -> int:
    return (x - 1) % n + 1


@dataclass(frozen=True)
class LinkPattern:
    """Involution of {1..N} with N mod 2 fixed points, as a 1-based image tuple."""

    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.pairing)
        if n == 0:
            raise ValueError("empty pattern")
        if sorted(self.pairing) != list(range(1, n + 1)):
            raise ValueError(f"{self.pairing} is not a permutation of 1..{n}")
        if any(self.pairing[self.pairing[i - 1] - 1] != i for i in range(1, n + 1)):
            raise ValueError(f"{self.pairing} is not an involution")
        fixed = sum(1 for i in range(1, n + 1) if self.pairing[i - 1] == i)
        if fixed != n % 2:
            raise ValueError(f"{self.pairing} has {fixed} fixed points, expected {n % 2}")

    @classmethod
    def _of(cls, pairing: tuple[int, ...]) -> "LinkPattern":
        """Wrap a pairing that is a link pattern by construction: no check."""
        pi = object.__new__(cls)
        object.__setattr__(pi, "pairing", pairing)
        return pi

    @property
    def n(self) -> int:
        return len(self.pairing)

    def __call__(self, i: int) -> int:
        """Partner of point i; the label is reduced mod N first."""
        return self.pairing[(i - 1) % len(self.pairing)]

    def fixed_point(self) -> int | None:
        for i, p in enumerate(self.pairing, start=1):
            if p == i:
                return i
        return None

    def chords(self) -> tuple[tuple[int, int], ...]:
        """Chords as (a, b) with a < b."""
        return tuple((i, p) for i, p in enumerate(self.pairing, start=1) if i < p)

    def strip_offset(self, a: int) -> int:
        """Column offset of row a's strip entry, in 1..N-1; 0 means no entry."""
        n = self.n
        return (self(a) - _wrap(a, n)) % n

    def __str__(self) -> str:
        parts = [f"({a} {b})" for a, b in self.chords()]
        f = self.fixed_point()
        if f is not None:
            parts.append(f"({f})")
        return "".join(parts)


def enumerate_patterns(n: int) -> tuple[LinkPattern, ...]:
    """All link patterns on n points, sorted by their pairing tuple."""
    results: list[LinkPattern] = []
    image = [0] * (n + 1)

    def build(todo: list[int], fixed_left: int) -> None:
        if not todo:
            results.append(LinkPattern(tuple(image[1:])))
            return
        a = todo[0]
        rest = todo[1:]
        if fixed_left:
            image[a] = a
            build(rest, 0)
        for k, b in enumerate(rest):
            image[a], image[b] = b, a
            build(rest[:k] + rest[k + 1:], fixed_left)
        image[a] = 0

    build(list(range(1, n + 1)), n % 2)
    results.sort(key=lambda p: p.pairing)
    return tuple(results)


def maximal_pattern(n: int) -> LinkPattern:
    """The maximally crossing pattern: i paired with i+floor(n/2) around the even core."""
    half = n // 2
    image = [0] * (n + 1)
    for i in range(1, 2 * half + 1):
        image[i] = (i + half - 1) % (2 * half) + 1
    if n % 2:
        image[n] = n
    return LinkPattern(tuple(image[1:]))


def apply_e(pi: LinkPattern, i: int) -> LinkPattern:
    """Glue a little arc at (i, i+1) and rejoin the former partners."""
    n = pi.n
    i = _wrap(i, n)
    ip = _wrap(i + 1, n)
    image = list(pi.pairing)
    a, b = image[i - 1], image[ip - 1]
    if a == ip:
        return pi
    image[i - 1], image[ip - 1] = ip, i
    if a == i:  # i was the fixed point: the partner of i+1 becomes fixed
        image[b - 1] = b
    elif b == ip:  # i+1 was the fixed point
        image[a - 1] = a
    else:
        image[a - 1], image[b - 1] = b, a
    return LinkPattern._of(tuple(image))


def apply_f(pi: LinkPattern, i: int) -> LinkPattern:
    """Cross the strands at (i, i+1): conjugate by the transposition s = (i i+1).

    s pi s swaps the entries at positions i and i+1, after which the values
    i and i+1 sit at positions s(pi(i)) and s(pi(i+1)); it then swaps them.
    """
    n = pi.n
    i = _wrap(i, n)
    ip = _wrap(i + 1, n)
    image = list(pi.pairing)
    a, b = image[i - 1], image[ip - 1]
    image[i - 1], image[ip - 1] = b, a
    image[(ip if a == i else i if a == ip else a) - 1] = ip
    image[(ip if b == i else i if b == ip else b) - 1] = i
    return LinkPattern._of(tuple(image))


def rotate(pi: LinkPattern, k: int = 1) -> LinkPattern:
    """Rotate labels: rot(pi)(i) = pi(i-1) + 1 (applied k times, k may be negative)."""
    n = pi.n
    return LinkPattern._of(tuple(_wrap(pi(i - k) + k, n) for i in range(1, n + 1)))


def reflect(pi: LinkPattern) -> LinkPattern:
    """Reverse the labels: refl(pi)(i) = N + 1 - pi(N + 1 - i).

    The neighbouring pair (i, i+1) goes to (N-i, N+1-i), so the operators
    at position i become those at position N - i (read mod N).
    """
    n = pi.n
    return LinkPattern._of(tuple(n + 1 - pi(n + 1 - i) for i in range(1, n + 1)))


def symmetries(pi: LinkPattern) -> Iterator[tuple[int, bool, LinkPattern]]:
    """(r, flip, rotate(reflect(pi) if flip else pi, r)) over the dihedral group.

    The identity comes first, then the other rotations, then the
    reflections, so the first symmetry that reaches a pattern is a fixed
    choice that orbit builds and orbit numberings can rely on.
    """
    for flip in (False, True):
        mirrored = reflect(pi) if flip else pi
        for r in range(pi.n):
            yield r, flip, rotate(mirrored, r)


def chords_cross(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Do two chords on the circle interleave?  Endpoints must be distinct."""
    a, b = sorted(c1)
    c, d = sorted(c2)
    return (a < c < b < d) or (c < a < d < b)


def crossings(pi: LinkPattern) -> int:
    """Number of crossing chord pairs."""
    ch = pi.chords()
    return sum(1 for k, c1 in enumerate(ch) for c2 in ch[k + 1:] if chords_cross(c1, c2))


def strands_cross_at(pi: LinkPattern, i: int) -> bool:
    """Do the chords through the neighbours i and i+1 cross each other?

    False when either point is the fixed point (a boundary strand, not a
    chord) or when the two points are joined to each other.
    """
    n = pi.n
    i = _wrap(i, n)
    ip = _wrap(i + 1, n)
    a, b = pi(i), pi(ip)
    if a == i or b == ip or a == ip:
        return False
    return chords_cross((i, a), (ip, b))


def in_permutation_sector(pi: LinkPattern) -> bool:
    """No chord inside {1..n} and none inside {n+1..N} (n = floor(N/2))."""
    half = pi.n // 2
    for a, b in pi.chords():
        if b <= half or a > half:
            return False
    return True


def restrict_pattern(pi: LinkPattern, remove: tuple[int, int]) -> LinkPattern:
    """Delete two points joined by a chord and relabel the rest order-preservingly."""
    i, j = remove
    if pi(i) != j:
        raise ValueError(f"points {remove} are not joined in {pi}")
    keep = [a for a in range(1, pi.n + 1) if a not in (i, j)]
    relabel = {a: k for k, a in enumerate(keep, start=1)}
    image = tuple(relabel[pi(a)] for a in keep)
    return LinkPattern(image)


# --------------------------------------------------------------------- strip model


def _strip_dots(pi: LinkPattern) -> set[tuple[int, int]]:
    """Strip 1-entries as (row, offset) with row in 1..N, offset in 1..N-1."""
    n = pi.n
    return {(a, pi.strip_offset(a)) for a in range(1, n + 1) if pi(a) != a}


@dataclass(frozen=True)
class RankTable:
    """Ranks of the southwest triangles of the strip, one per position.

    Entries are keyed by (row in 1..N, offset in 0..N-1); value(i, j)
    accepts any integer row with 0 <= j - i < N and reduces by the period.
    """

    n: int
    ranks: dict[tuple[int, int], int]

    def value(self, i: int, j: int) -> int:
        d = j - i
        if not 0 <= d < self.n:
            raise ValueError(f"({i}, {j}) is outside the width-{self.n} strip")
        return self.ranks[(_wrap(i, self.n), d)]

    def positions(self) -> Iterator[tuple[int, int]]:
        for (i, d) in sorted(self.ranks):
            yield i, i + d


def rank_table(pi: LinkPattern) -> RankTable:
    """Count strip entries in each southwest triangle (rows i..j, columns <= j)."""
    n = pi.n
    offsets = {a: pi.strip_offset(a) for a in range(1, n + 1) if pi(a) != a}
    ranks: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for d in range(n):
            j = i + d
            r = 0
            for a in range(i, j + 1):
                off = offsets.get(_wrap(a, n))
                if off is not None and a + off <= j:
                    r += 1
            ranks[(i, d)] = r
    return RankTable(n, ranks)


def essential_set(pi: LinkPattern) -> frozenset[tuple[int, int]]:
    """Northeast corners of the strip diagram, as positions (i, j), j = i + offset.

    The diagram lives on offsets 1..N-2 (the main diagonal is identically
    zero in the ambient space and the top diagonal holds the free
    entries); the 1-entry boxes are removed together with every box
    directly north or directly east of a 1-entry.
    """
    n = pi.n
    if n <= 2:
        return frozenset()
    dots = _strip_dots(pi)
    crossed: set[tuple[int, int]] = set()
    for (a, d0) in dots:
        for d in range(d0 + 1, n - 1):  # east, same row
            crossed.add((a, d))
        for k in range(1, n - 1 - d0):  # north, same column
            crossed.add((_wrap(a - k, n), d0 + k))
    diagram = {(i, d) for i in range(1, n + 1) for d in range(1, n - 1)}
    diagram -= dots
    diagram -= crossed

    def north(box: tuple[int, int]) -> tuple[int, int]:
        return _wrap(box[0] - 1, n), box[1] + 1

    def east(box: tuple[int, int]) -> tuple[int, int]:
        return box[0], box[1] + 1

    corners = {box for box in diagram
               if north(box) not in diagram and east(box) not in diagram}
    return frozenset((i, i + d) for (i, d) in corners)


def essential_implies_all(pi: LinkPattern) -> bool:
    """Do the essential-set rank bounds propagate to the full rank table?

    Upper bounds spread through the strip by the four monotonicity rules
    (a southwest triangle contains its right/bottom neighbours' triangles
    and grows by at most one row or column at a time, the new diagonal
    entry being zero); the propagation must reproduce the whole table.
    """
    n = pi.n
    rt = rank_table(pi)
    best: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for d in range(n):
            best[(i, d)] = 0 if d == 0 else n  # offset 0 is the zero diagonal entry
    for (i, j) in essential_set(pi):
        pos = (_wrap(i, n), j - i)
        best[pos] = min(best[pos], rt.value(i, j))
    changed = True
    while changed:
        changed = False
        for (i, d), cur in list(best.items()):
            cand = cur
            if d + 1 < n:
                cand = min(cand, best[(i, d + 1)])          # drop column j+1
                cand = min(cand, best[(_wrap(i - 1, n), d + 1)])  # drop row i-1
            if d - 1 >= 0:
                cand = min(cand, best[(i, d - 1)] + 1)      # add column j
                cand = min(cand, best[(_wrap(i + 1, n), d - 1)] + 1)  # add row i
            if cand < cur:
                best[(i, d)] = cand
                changed = True
    return all(best[(_wrap(i, n), j - i)] == rt.value(i, j) for (i, j) in
               ((i, i + d) for i in range(1, n + 1) for d in range(n)))
