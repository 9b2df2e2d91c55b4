"""Exact sparse polynomials in Z[A, z_1, ..., z_m].

Coefficients are ints and zero coefficients are never stored.  Rational
numbers enter only as evaluation points: the constructors reject a
non-integral coefficient with ValueError (an integral Fraction is taken as
its int), scalars in the ring operations are ints, and no operation leaves
Z.  The first variable A is the scaling parameter; the z_i are attached to
the m cyclically ordered points, so every operator indexed by i acts on
the pair (z_i, z_{i+1}) with z_{m+1} meaning z_1.

Monomial keys.  A term is keyed by one int that packs its exponent vector
(a, e_1, ..., e_m) into FIELD_BITS = 8 bits per variable, A in the most
significant field and z_m in the least:

    key = a * 256^m + e_1 * 256^(m-1) + ... + e_m.

The top bit of every field is a guard bit and is clear in every stored
key, so an exponent is at most MAX_EXPONENT = 127.  Three things follow.
The key of a product monomial is the sum of the two keys, with no carry
between fields, because each field of the sum is at most 254.  An operation
that adds exponents (products, powers, exact_divide) finds an exponent
above 127 by its guard bit and raises ExponentOverflow, so a field never
carries into its neighbour; the constructor and from_obj raise it too,
and ValueError for an exponent that is negative or not an int (a bool is
not an int here).  And as every field is below 256, the packed ints sort
exactly as their exponent vectors sort lexicographically, so to_obj, the
printed form and every table hash are those of tuple keys.  Exponent
tuples appear only at the edges: the constructor, from_obj, to_obj,
__str__ and monomials().  to_json writes the JSON text of to_obj straight
from the sorted keys, each monomial's text unpacked once per shared cache;
a table's canonical text is built from it.

evaluate values a polynomial at a whole list of points in one call.  Once
per call it splits every key into a high half (A, z_1, ...) and a low half
(..., z_m) and indexes each term's halves among the distinct ones; at each
point it values every distinct half once and sums c * (high * low) over
the terms, two products per term.  The split is shared by the points of
one call and kept by no polynomial.

Divided differences use the convention

    ddiff(f, i) = (f - tau_i f) / (z_i - z_{i+1}),

so ddiff annihilates tau_i-symmetric polynomials and ddiff(z_i, i) = 1.
It is computed in closed form, monomial by monomial, with no division.
theta(i) is the degree-preserving combination -2*A*ddiff_i - tau_i, in
one pass; dihedral(r, flip), the rotation and reflection of the z
variables, is one permutation of the keys.
horner_u(nz, i, layers) sums u^k times an integer combination of
polynomials over k, u = z_i - z_{i+1}, by Horner's rule: multiplying by u
moves each term to two keys, so it forms no product of two polynomials.

exact_divide divides only by polynomials monic in A, A^m plus terms of
lower A-degree, such as the weights A + z_i - z_j and their products: it
reduces the dividend one A-degree slice at a time, never divides a
coefficient, and raises InexactDivision on a nonzero remainder.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import prod
from operator import and_, index, mul, or_, rshift
from typing import Iterable, Mapping, Sequence

from .errors import ExponentOverflow, InexactDivision, NotHomogeneous

FIELD_BITS = 8
MAX_EXPONENT = (1 << FIELD_BITS - 1) - 1
_FIELD = (1 << FIELD_BITS) - 1


def _pack(exponents: Iterable[int], nz: int) -> int:
    """The key of the exponent vector (a, e_1, ..., e_nz)."""
    exps = tuple(exponents)
    if len(exps) != nz + 1 or any(type(e) is not int or e < 0 for e in exps):
        raise ValueError(f"bad exponent vector {exps} for nz={nz}")
    if max(exps) > MAX_EXPONENT:
        raise ExponentOverflow(f"exponent vector {exps} exceeds {MAX_EXPONENT}")
    return int.from_bytes(bytes(exps), "big")


def _guards(nz: int) -> int:
    """The guard bits of the nz + 1 fields."""
    return int.from_bytes(b"\x80" * (nz + 1), "big")


def _span(keys: Iterable[int]) -> int:
    """OR of the keys: per field, a bound of its exponents below twice their maximum."""
    return reduce(or_, keys, 0)


def _integer(c: numbers.Rational) -> int:
    if type(c) is int:
        return c
    if not isinstance(c, numbers.Rational) or c.denominator != 1:
        raise ValueError(f"coefficient {c!r} is not an integer")
    return int(c)


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    """terms without the entries that cancelled to 0."""
    return {k: c for k, c in terms.items() if c} if 0 in terms.values() else terms


class MultiPoly:
    """Sparse polynomial in A and z_1 .. z_nz with integer coefficients."""

    __slots__ = ("nz", "terms")

    def __init__(self, nz: int, terms: Mapping[Sequence[int], numbers.Rational] | None = None):
        """terms maps exponent vectors (a, e_1, ..., e_nz) to coefficients."""
        if nz < 0:
            raise ValueError("nz must be nonnegative")
        self.nz = nz
        clean: dict[int, int] = {}
        for exps, c in (terms or {}).items():
            key, c = _pack(exps, nz), _integer(c)
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _of(cls, nz: int, terms: dict[int, int]) -> "MultiPoly":
        """Wrap packed terms that are already clean: int coefficients, none zero."""
        res = object.__new__(cls)
        res.nz = nz
        res.terms = terms
        return res

    def _shift(self, k: int) -> int:
        """Bit offset of variable k's field (k = 0 is A)."""
        return FIELD_BITS * (self.nz - k)

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls, nz: int) -> "MultiPoly":
        return cls(nz)

    @classmethod
    def const(cls, c: int, nz: int) -> "MultiPoly":
        return cls(nz, {(0,) * (nz + 1): c})

    @classmethod
    def one(cls, nz: int) -> "MultiPoly":
        return cls.const(1, nz)

    @classmethod
    def gen_a(cls, nz: int) -> "MultiPoly":
        return cls.linear(nz, 1)

    @classmethod
    def gen_z(cls, nz: int, i: int) -> "MultiPoly":
        return cls.linear(nz, 0, {i: 1})

    @classmethod
    def linear(cls, nz: int, a_coeff: int = 0,
               z_coeffs: Mapping[int, int] | None = None) -> "MultiPoly":
        """a_coeff*A + sum z_coeffs[i]*z_i."""
        terms = {1 << FIELD_BITS * nz: _integer(a_coeff)}
        for k, c in (z_coeffs or {}).items():
            if not 1 <= k <= nz:
                raise ValueError(f"z_{k} out of range for nz={nz}")
            key = 1 << FIELD_BITS * (nz - k)
            terms[key] = terms.get(key, 0) + _integer(c)
        return cls._of(nz, _nonzero(terms))

    # ---------------------------------------------------------------- basics

    def monomials(self) -> dict[tuple[int, ...], int]:
        """The terms keyed by exponent vectors (a, e_1, ..., e_nz), in lex order."""
        width, terms = self.nz + 1, self.terms
        return {tuple(k.to_bytes(width, "big")): terms[k] for k in sorted(terms)}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.nz == other.nz and self.terms == other.terms
        if isinstance(other, int):
            return self == MultiPoly.const(other, self.nz)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def _check_compat(self, other: "MultiPoly") -> None:
        if self.nz != other.nz:
            raise ValueError(f"mixed variable counts {self.nz} and {other.nz}")

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other, self.nz)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compat(other)
        out = dict(self.terms)
        get = out.get
        for key, c in other.terms.items():
            out[key] = get(key, 0) + c
        return MultiPoly._of(self.nz, _nonzero(out))

    __radd__ = __add__

    @classmethod
    def sum_of(cls, nz: int, polys: Iterable["MultiPoly"]) -> "MultiPoly":
        """The sum of polys, each in nz z variables, accumulated in one dict."""
        out: dict[int, int] = {}
        get = out.get
        for f in polys:
            if f.nz != nz:
                raise ValueError(f"mixed variable counts {nz} and {f.nz}")
            for key, c in f.terms.items():
                out[key] = get(key, 0) + c
        return cls._of(nz, _nonzero(out))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nz, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other, self.nz)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "MultiPoly":
        if not isinstance(other, int):
            return NotImplemented
        return MultiPoly.const(other, self.nz) - self

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            if not other:
                return MultiPoly.zero(self.nz)
            return MultiPoly._of(self.nz, {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compat(other)
        # iterate over the smaller operand for speed
        a, b = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        out = _nonzero(out)
        guards = _guards(self.nz)
        # the spans' fields are below 128, so their sum carries nowhere and bounds
        # every product exponent; only a bound past MAX_EXPONENT reads the product
        if (_span(a) + _span(b)) & guards and _span(out) & guards:
            raise ExponentOverflow(f"a product exponent exceeds {MAX_EXPONENT}")
        return MultiPoly._of(self.nz, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.nz)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __repr__(self) -> str:
        return f"MultiPoly(nz={self.nz}, {len(self.terms)} terms)"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = ["A"] + [f"z{i}" for i in range(1, self.nz + 1)]
        parts = []
        for key, c in reversed(self.monomials().items()):
            factors = [names[k] if e == 1 else f"{names[k]}^{e}"
                       for k, e in enumerate(key) if e]
            mono = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(mono)
            elif c == -1 and factors:
                parts.append(f"-{mono}")
            elif factors:
                parts.append(f"{c}*{mono}")
            else:
                parts.append(str(c))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # ---------------------------------------------------------------- degrees

    def homogeneous_degree(self) -> int:
        """Common total degree of all terms (A counts once); NotHomogeneous otherwise."""
        if not self.terms:
            return 0
        width = self.nz + 1
        degs = {sum(k.to_bytes(width, "big")) for k in self.terms}
        if len(degs) != 1:
            raise NotHomogeneous(f"degrees {sorted(degs)} present")
        return degs.pop()

    # ---------------------------------------------------------------- variable maps

    def _pair(self, i: int) -> tuple[int, int]:
        """Bit offsets of the fields of z_i and z_{i+1} (cyclically)."""
        if not 1 <= i <= self.nz:
            raise ValueError(f"index {i} out of range for nz={self.nz}")
        return self._shift(i), self._shift(i % self.nz + 1)

    def tau(self, i: int) -> "MultiPoly":
        """Swap z_i and z_{i+1} (cyclically: tau_m swaps z_m and z_1)."""
        si, sj = self._pair(i)
        step = (1 << si) - (1 << sj)
        # moving d = e_i - e_j from field i to field j swaps the two exponents
        return MultiPoly._of(self.nz, {k - ((k >> si & _FIELD) - (k >> sj & _FIELD)) * step: c
                                       for k, c in self.terms.items()})

    def ddiff(self, i: int) -> "MultiPoly":
        """Divided difference (f - tau_i f) / (z_i - z_{i+1}), term by term.

        With x = z_i, y = z_{i+1} and p > q, (x^p y^q - x^q y^p) / (x - y)
        is the sum of x^k y^(p+q-1-k) over q <= k < p; swapping p and q
        flips the sign, and p = q contributes nothing.
        """
        si, sj = self._pair(i)
        wi, wj = 1 << si, 1 << sj
        step = wi - wj
        out: dict[int, int] = {}
        get = out.get
        for key, c in self.terms.items():
            p, q = key >> si & _FIELD, key >> sj & _FIELD
            if p == q:
                continue
            base = key - p * wi - q * wj
            if p < q:
                p, q, c = q, p, -c
            start = base + q * wi + (p - 1) * wj  # k = q; each step moves one from y to x
            for nk in range(start, start + (p - q) * step, step):
                out[nk] = get(nk, 0) + c
        return MultiPoly._of(self.nz, _nonzero(out))

    def theta(self, i: int) -> "MultiPoly":
        """-2*A*ddiff_i - tau_i, the degree-preserving operator of the recursion.

        One dict: the terms of ddiff_i, each moved up one A-degree with its
        coefficient times -2, then every term of f subtracted at its tau_i
        key (the permutation of tau).  A nonzero ddiff_i term whose A-exponent
        is already MAX_EXPONENT raises ExponentOverflow, as the product
        A * ddiff_i would.
        """
        d = self.ddiff(i).terms
        sa = self._shift(0)
        if d and max(d) >> sa == MAX_EXPONENT:  # A is the top field of a key
            raise ExponentOverflow(f"a product exponent exceeds {MAX_EXPONENT}")
        wa = 1 << sa
        out = {k + wa: -2 * c for k, c in d.items()}
        si, sj = self._pair(i)
        step = (1 << si) - (1 << sj)
        get = out.get
        for k, c in self.terms.items():
            nk = k - ((k >> si & _FIELD) - (k >> sj & _FIELD)) * step
            out[nk] = get(nk, 0) - c
        return MultiPoly._of(self.nz, _nonzero(out))

    @classmethod
    def horner_u(cls, nz: int, i: int,
                 layers: Sequence[Sequence[tuple[int, "MultiPoly"]]]) -> "MultiPoly":
        """Sum over k of u^k * (sum of c*f over the pairs (c, f) of layers[k]).

        u = z_i - z_{i+1} (cyclically), and the sum is taken by Horner's
        rule, one dict per layer: from the top layer down, a layer's pairs
        are summed (the first by a copy), and the running sum of the layers
        above is multiplied by u into it.  Multiplying a term c*x^key by u
        moves c to key + (one in z_i's field) and -c to key + (one in
        z_{i+1}'s field).  A nonzero term whose z_i or z_{i+1} exponent is
        already MAX_EXPONENT raises ExponentOverflow before it moves; such a
        term survives into the result, since the top z_i and z_{i+1} degrees
        of a nonzero sum grow by one under u.  Terms that cancel are dropped
        once, at the end.
        """
        if not 1 <= i <= nz:
            raise ValueError(f"index {i} out of range for nz={nz}")
        if any(f.nz != nz for layer in layers for _, f in layer):
            raise ValueError(f"a layer mixes in a variable count other than {nz}")
        si, sj = FIELD_BITS * (nz - i), FIELD_BITS * (nz - i % nz - 1)
        wi, wj = 1 << si, 1 << sj
        guards = (wi | wj) << FIELD_BITS - 1
        if wi == wj:  # nz = 1: u = z_1 - z_1 = 0
            layers = layers[:1]
        acc: dict[int, int] = {}
        for layer in reversed(layers):
            out: dict[int, int] = {}
            for c, f in layer:
                if not out:
                    out = dict(f.terms) if c == 1 else {k: c * fc for k, fc in f.terms.items()}
                    continue
                get = out.get
                for key, fc in f.terms.items():
                    out[key] = get(key, 0) + c * fc
            get = out.get
            for key, c in acc.items():
                if not c:
                    continue
                ki, kj = key + wi, key + wj
                if (ki | kj) & guards:
                    raise ExponentOverflow(f"a product exponent exceeds {MAX_EXPONENT}")
                out[ki] = get(ki, 0) + c
                out[kj] = get(kj, 0) - c
            acc = out
        return cls._of(nz, _nonzero(acc))

    def map_z(self, new_nz: int, new_pos: Sequence[int]) -> "MultiPoly":
        """Relabel z variables: old z_k becomes z_{new_pos[k-1]} (injective)."""
        if len(new_pos) != self.nz:
            raise ValueError("new_pos must list a target for every z variable")
        if len(set(new_pos)) != len(new_pos):
            raise ValueError("variable relabeling must be injective")
        if any(not 1 <= p <= new_nz for p in new_pos):
            raise ValueError("target index out of range")
        width = self.nz + 1
        # the field of each new variable: A, an old z, or the zero byte after them
        source = [width] * (new_nz + 1)
        source[0] = 0
        for old, new in enumerate(new_pos, start=1):
            source[new] = old
        out: dict[int, int] = {}
        for key, c in self.terms.items():
            fields = key.to_bytes(width, "big") + b"\0"
            out[int.from_bytes(bytes(map(fields.__getitem__, source)), "big")] = c
        return MultiPoly._of(new_nz, out)

    def negate_z(self) -> "MultiPoly":
        """f(A, -z_1, ..., -z_m): every term of odd total z-degree changes sign."""
        width, sa = self.nz + 1, self._shift(0)
        return MultiPoly._of(self.nz, {
            k: -c if (sum(k.to_bytes(width, "big")) - (k >> sa)) & 1 else c
            for k, c in self.terms.items()})

    def dihedral(self, r: int, flip: bool = False) -> "MultiPoly":
        """f reflected when flip, then rotated by r, as one key permutation.

        The reflection is f(A, -z_m, ..., -z_1), map_z(m, [m, ..., 1])
        then negate_z(); the rotation relabels z_k as z_{k+r} (cyclically),
        map_z(m, [1+r, ..., m+r]).  On a key the z fields are its low
        FIELD_BITS * m bits, z_m lowest: the reflection reverses their bytes,
        and a term changes sign when its z-degree is odd, that is, when the
        low bits of its z fields hold an odd number of ones; the rotation
        turns the z bits right by FIELD_BITS * r, read off the z bits
        written twice side by side.
        """
        m = self.nz
        zbits = FIELD_BITS * m
        zmask = (1 << zbits) - 1
        amask, twice = ~zmask, 1 + (1 << zbits)
        sr = FIELD_BITS * (r % m) if m else 0
        if not flip:
            return MultiPoly._of(m, {k & amask | (k & zmask) * twice >> sr & zmask: c
                                     for k, c in self.terms.items()})
        ones, unpack = int.from_bytes(b"\1" * m, "big"), int.from_bytes
        return MultiPoly._of(m, {
            k & amask | unpack((k & zmask).to_bytes(m, "little"), "big") * twice >> sr & zmask:
            -c if (k & ones).bit_count() & 1 else c for k, c in self.terms.items()})

    def subs_z(self, i: int, repl: "MultiPoly | int") -> "MultiPoly":
        """Substitute z_i := repl (a polynomial in the same variables, or an integer)."""
        if not 1 <= i <= self.nz:
            raise ValueError(f"z_{i} out of range")
        si = self._shift(i)
        if not isinstance(repl, MultiPoly):
            if repl == 0:
                return MultiPoly._of(self.nz, {k: c for k, c in self.terms.items()
                                               if not k >> si & _FIELD})
            repl = MultiPoly.const(repl, self.nz)
        self._check_compat(repl)
        by_deg: dict[int, dict[int, int]] = {}
        for key, c in self.terms.items():
            d = key >> si & _FIELD
            by_deg.setdefault(d, {})[key - (d << si)] = c
        result = MultiPoly.zero(self.nz)
        for d, bucket in sorted(by_deg.items()):
            part = MultiPoly._of(self.nz, bucket)
            result = result + (part if d == 0 else part * repl ** d)
        return result

    def specialize_a(self, value: int) -> "MultiPoly":
        """Substitute A := value (the z variables survive)."""
        value = index(value)
        if not self.terms:
            return MultiPoly.zero(self.nz)
        sa = self._shift(0)
        zmask = (1 << sa) - 1
        powers = [value ** e for e in range((max(self.terms) >> sa) + 1)]
        out: dict[int, int] = {}
        get = out.get
        for key, c in self.terms.items():
            nk = key & zmask
            out[nk] = get(nk, 0) + c * powers[key >> sa]
        return MultiPoly._of(self.nz, _nonzero(out))

    # ---------------------------------------------------------------- division

    def exact_divide(self, den: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / den for den monic in A; InexactDivision otherwise.

        den must be A^m plus terms of A-degree below m (ValueError if not).
        The dividend is grouped by A-degree and reduced from the top slice
        down: a term of A-degree a >= m enters the quotient as it is, at
        A-degree a - m, and its product with den's tail lands in strictly
        lower slices.  The division is exact exactly when nothing is left
        below A^m.  A slice is keyed by the z fields of its keys, key & zmask,
        and its A-degree is key >> sa.
        """
        self._check_compat(den)
        if not den.terms:
            raise ZeroDivisionError("division by zero polynomial")
        sa = self._shift(0)
        zmask = (1 << sa) - 1
        m = max(den.terms) >> sa
        tail = [((k >> sa) - m, k & zmask, c) for k, c in den.terms.items() if k >> sa < m]
        if len(den.terms) - len(tail) != 1 or den.terms.get(m << sa) != 1:
            raise ValueError("divisor is not monic in A")
        slices: dict[int, dict[int, int]] = {}
        for key, c in self.terms.items():
            slices.setdefault(key >> sa, {})[key & zmask] = c
        guards = _guards(self.nz) & zmask
        quo: dict[int, int] = {}
        for a in range(max(slices, default=-1), m - 1, -1):
            reduced = slices.pop(a, None)
            if not reduced:
                continue
            qa = (a - m) << sa
            pushes = [(slices.setdefault(a + da, {}), tz, tc) for da, tz, tc in tail]
            for zkey, c in reduced.items():
                if not c:
                    continue  # cancelled by a higher slice
                if zkey & guards:  # checked before it is pushed on: no field carries
                    raise ExponentOverflow(f"a quotient exponent exceeds {MAX_EXPONENT}")
                quo[qa + zkey] = c
                for target, tz, tc in pushes:
                    nk = zkey + tz
                    target[nk] = target.get(nk, 0) - c * tc
        if any(any(s.values()) for s in slices.values()):
            raise InexactDivision("nonzero remainder")
        return MultiPoly._of(self.nz, quo)

    # ---------------------------------------------------------------- evaluation

    def evaluate(self, points: Iterable[tuple[int | Fraction, Sequence[int | Fraction]]]
                 ) -> list[int | Fraction]:
        """Exact values at the points (a_value, z_values), in order; int points give ints.

        The preparation is shared by all the points.  Each key is split into
        its high fields (A, z_1, ...) and its width // 2 low fields
        (..., z_m), and every term gets the index of its high half among the
        distinct high halves and of its low half among the distinct low
        ones.  At a point, every variable gets a table of its powers up to a
        bound of its exponents, each distinct half is valued once from those
        tables, and the value is the sum over the terms of c * (high value *
        low value): the sum of c * x^key term by term, reassociated, so it is
        exact at integer and at rational points alike.
        """
        points = list(points)
        for _, z_values in points:
            if len(z_values) != self.nz:
                raise ValueError(f"need {self.nz} z values")
        terms, width = self.terms, self.nz + 1
        high, lowbits = width - width // 2, FIELD_BITS * (width // 2)
        his = list(map(rshift, terms, repeat(lowbits)))
        los = list(map(and_, terms, repeat((1 << lowbits) - 1)))
        hi_at = {k: i for i, k in enumerate(dict.fromkeys(his))}
        lo_at = {k: i for i, k in enumerate(dict.fromkeys(los))}
        hidx, lidx = list(map(hi_at.__getitem__, his)), list(map(lo_at.__getitem__, los))
        hi_fields = [k.to_bytes(high, "big") for k in hi_at]
        lo_fields = [k.to_bytes(width - high, "big") for k in lo_at]
        coeffs = list(terms.values())
        bounds = _span(terms).to_bytes(width, "big")
        values = []
        for a_value, z_values in points:
            tables = [[x ** e for e in range(b + 1)] for x, b in zip((a_value, *z_values), bounds)]
            hi_tables, lo_tables = tables[:high], tables[high:]
            hv = [prod(map(list.__getitem__, hi_tables, f)) for f in hi_fields]
            lv = [prod(map(list.__getitem__, lo_tables, f)) for f in lo_fields]
            values.append(sum(map(mul, coeffs, map(mul, map(hv.__getitem__, hidx),
                                                    map(lv.__getitem__, lidx)))))
        return values

    def z_free_sum(self) -> int:
        """The value at A = 1, z = 0: the sum of the coefficients of the terms with no z factor."""
        z_fields = (1 << FIELD_BITS * self.nz) - 1
        return sum(c for k, c in self.terms.items() if not k & z_fields)

    # ---------------------------------------------------------------- serialization

    def to_obj(self) -> list[list]:
        """Sorted [coefficient-string, A-exponent, [z-exponents]] triples."""
        width, terms = self.nz + 1, self.terms
        out = []
        for key in sorted(terms):
            fields = key.to_bytes(width, "big")
            out.append([str(terms[key]), fields[0], list(fields[1:])])
        return out

    def to_json(self, suffixes: dict[int, str]) -> str:
        """to_obj() as compact JSON, [["c",a,[e_1,...,e_m]],...], written from the keys.

        The text of a term after its coefficient, '",a,[e_1,...,e_m]]',
        depends on its key alone; suffixes caches it per key and is filled
        on a miss, so polynomials in the same variables that share it, the
        entries of one table, unpack each monomial once.  A term then costs
        one str of its coefficient, one lookup and its share of one join.
        """
        terms, get, width = self.terms, suffixes.get, self.nz + 1

        def fill(key: int) -> str:
            fields = key.to_bytes(width, "big")
            text = suffixes[key] = '",%d,[%s]]' % (fields[0], ",".join(map(str, fields[1:])))
            return text

        return "[" + ",".join(['["' + str(terms[k]) + (get(k) or fill(k))
                               for k in sorted(terms)]) + "]"

    @classmethod
    def from_obj(cls, nz: int, obj: Iterable[Sequence]) -> "MultiPoly":
        """Inverse of to_obj; a coefficient string that is not an integer raises ValueError.

        A term's fields are packed by bytes(), which takes only ints in
        0..255; a term with the wrong field count, a bool or a set guard
        bit goes to _pack, which raises the error that names the fault.
        """
        width, guards = nz + 1, _guards(nz)
        terms: dict[int, int] = {}
        for coeff_str, a_exp, z_exps in obj:
            fields = (a_exp, *z_exps)
            try:
                key = int.from_bytes(bytes(fields), "big")
            except (TypeError, ValueError):
                key = guards
            if key & guards or len(fields) != width or bool in map(type, fields):
                key = _pack(fields, nz)
            terms[key] = int(coeff_str)
        return cls._of(nz, _nonzero(terms))
