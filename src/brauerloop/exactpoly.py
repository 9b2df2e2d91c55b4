"""Exact sparse polynomials in Z[A, z_1, ..., z_m].

A term is keyed by its exponent vector (a, e_1, ..., e_m); coefficients
are ints and zero coefficients are never stored.  Rational numbers enter
only as evaluation points: the constructors reject a non-integral
coefficient with ValueError (an integral Fraction is taken as its int),
scalars in the ring operations are ints, and no operation leaves Z.
The first variable A is the scaling parameter; the z_i are attached to
the m cyclically ordered points, so every operator indexed by i acts on
the pair (z_i, z_{i+1}) with z_{m+1} meaning z_1.

Divided differences use the convention

    ddiff(f, i) = (f - tau_i f) / (z_i - z_{i+1}),

so ddiff annihilates tau_i-symmetric polynomials and ddiff(z_i, i) = 1.
It is computed in closed form, monomial by monomial, with no division.
theta(i) is the degree-preserving combination -2*A*ddiff_i - tau_i.

exact_divide divides only by polynomials monic in A, A^m plus terms of
lower A-degree, such as the weights A + z_i - z_j and their products: it
reduces the dividend one A-degree slice at a time, never divides a
coefficient, and raises InexactDivision on a nonzero remainder.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from operator import add, index
from typing import Iterable, Mapping, Sequence

from .errors import InexactDivision, NotHomogeneous

Key = tuple[int, ...]


def _nonzero(terms: dict[Key, int]) -> dict[Key, int]:
    """terms without the entries that cancelled to 0."""
    return {k: c for k, c in terms.items() if c} if 0 in terms.values() else terms


class MultiPoly:
    """Sparse polynomial in A and z_1 .. z_nz with integer coefficients."""

    __slots__ = ("nz", "terms")

    def __init__(self, nz: int, terms: Mapping[Key, numbers.Rational] | None = None):
        if nz < 0:
            raise ValueError("nz must be nonnegative")
        self.nz = nz
        clean: dict[Key, int] = {}
        if terms:
            width = nz + 1
            for key, c in terms.items():
                key = tuple(key)
                if len(key) != width or any(e < 0 for e in key):
                    raise ValueError(f"bad exponent vector {key} for nz={nz}")
                if type(c) is not int:
                    if not isinstance(c, numbers.Rational) or c.denominator != 1:
                        raise ValueError(f"coefficient {c!r} is not an integer")
                    c = int(c)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _of(cls, nz: int, terms: dict[Key, int]) -> "MultiPoly":
        """Wrap terms that are already clean: int coefficients, none zero."""
        res = object.__new__(cls)
        res.nz = nz
        res.terms = terms
        return res

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
        key = (1,) + (0,) * nz
        return cls(nz, {key: 1})

    @classmethod
    def gen_z(cls, nz: int, i: int) -> "MultiPoly":
        if not 1 <= i <= nz:
            raise ValueError(f"z_{i} out of range for nz={nz}")
        key = tuple(1 if k == i else 0 for k in range(nz + 1))
        return cls(nz, {key: 1})

    @classmethod
    def linear(cls, nz: int, a_coeff: int = 0,
               z_coeffs: Mapping[int, int] | None = None) -> "MultiPoly":
        """a_coeff*A + sum z_coeffs[i]*z_i."""
        terms: dict[Key, int] = {}
        if a_coeff:
            terms[(1,) + (0,) * nz] = a_coeff
        for i, c in (z_coeffs or {}).items():
            key = tuple(1 if k == i else 0 for k in range(nz + 1))
            terms[key] = terms.get(key, 0) + c
        return cls(nz, terms)

    # ---------------------------------------------------------------- basics

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
        out: dict[Key, int] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = tuple(map(add, ka, kb))
                out[key] = get(key, 0) + ca * cb
        return MultiPoly._of(self.nz, _nonzero(out))

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
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
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
        degs = {sum(k) for k in self.terms}
        if len(degs) != 1:
            raise NotHomogeneous(f"degrees {sorted(degs)} present")
        return degs.pop()

    # ---------------------------------------------------------------- variable maps

    def _pair(self, i: int) -> tuple[int, int]:
        if not 1 <= i <= self.nz:
            raise ValueError(f"index {i} out of range for nz={self.nz}")
        return i, i % self.nz + 1

    def tau(self, i: int) -> "MultiPoly":
        """Swap z_i and z_{i+1} (cyclically: tau_m swaps z_m and z_1)."""
        i, j = self._pair(i)
        out: dict[Key, int] = {}
        for key, c in self.terms.items():
            lk = list(key)
            lk[i], lk[j] = lk[j], lk[i]
            out[tuple(lk)] = c
        return MultiPoly._of(self.nz, out)

    def ddiff(self, i: int) -> "MultiPoly":
        """Divided difference (f - tau_i f) / (z_i - z_{i+1}), term by term.

        With x = z_i, y = z_{i+1} and p > q, (x^p y^q - x^q y^p) / (x - y)
        is the sum of x^k y^(p+q-1-k) over q <= k < p; swapping p and q
        flips the sign, and p = q contributes nothing.
        """
        i, j = self._pair(i)
        out: dict[Key, int] = {}
        get = out.get
        for key, c in self.terms.items():
            p, q = key[i], key[j]
            if p == q:
                continue
            if p < q:
                p, q, c = q, p, -c
            lk = list(key)
            for k in range(q, p):
                lk[i], lk[j] = k, p + q - 1 - k
                nk = tuple(lk)
                out[nk] = get(nk, 0) + c
        return MultiPoly._of(self.nz, _nonzero(out))

    def theta(self, i: int) -> "MultiPoly":
        """-2*A*ddiff_i - tau_i, the degree-preserving operator of the recursion."""
        return MultiPoly.gen_a(self.nz) * self.ddiff(i) * (-2) - self.tau(i)

    def map_z(self, new_nz: int, new_pos: Sequence[int]) -> "MultiPoly":
        """Relabel z variables: old z_k becomes z_{new_pos[k-1]} (injective)."""
        if len(new_pos) != self.nz:
            raise ValueError("new_pos must list a target for every z variable")
        if len(set(new_pos)) != len(new_pos):
            raise ValueError("variable relabeling must be injective")
        if any(not 1 <= p <= new_nz for p in new_pos):
            raise ValueError("target index out of range")
        out: dict[Key, int] = {}
        for key, c in self.terms.items():
            nk = [0] * (new_nz + 1)
            nk[0] = key[0]
            for old, e in enumerate(key[1:], start=1):
                if e:
                    nk[new_pos[old - 1]] = e
            out[tuple(nk)] = c
        return MultiPoly._of(new_nz, out)

    def subs_z(self, i: int, repl: "MultiPoly | int") -> "MultiPoly":
        """Substitute z_i := repl (a polynomial in the same variables, or an integer)."""
        if not 1 <= i <= self.nz:
            raise ValueError(f"z_{i} out of range")
        if not isinstance(repl, MultiPoly):
            if repl == 0:
                return MultiPoly._of(self.nz, {k: c for k, c in self.terms.items() if k[i] == 0})
            repl = MultiPoly.const(repl, self.nz)
        self._check_compat(repl)
        by_deg: dict[int, dict[Key, int]] = {}
        for key, c in self.terms.items():
            d = key[i]
            stripped = key[:i] + (0,) + key[i + 1:]
            bucket = by_deg.setdefault(d, {})
            bucket[stripped] = bucket.get(stripped, 0) + c
        result = MultiPoly.zero(self.nz)
        for d, bucket in sorted(by_deg.items()):
            part = MultiPoly(self.nz, bucket)
            result = result + (part if d == 0 else part * repl ** d)
        return result

    def specialize_a(self, value: int) -> "MultiPoly":
        """Substitute A := value (the z variables survive)."""
        value = index(value)
        out: dict[Key, int] = {}
        get = out.get
        for key, c in self.terms.items():
            nk = (0,) + key[1:]
            out[nk] = get(nk, 0) + c * value ** key[0]
        return MultiPoly._of(self.nz, _nonzero(out))

    # ---------------------------------------------------------------- division

    def exact_divide(self, den: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / den for den monic in A; InexactDivision otherwise.

        den must be A^m plus terms of A-degree below m (ValueError if not).
        The dividend is grouped by A-degree and reduced from the top slice
        down: a term of A-degree a >= m enters the quotient as it is, at
        A-degree a - m, and its product with den's tail lands in strictly
        lower slices.  The division is exact exactly when nothing is left
        below A^m.
        """
        self._check_compat(den)
        if not den.terms:
            raise ZeroDivisionError("division by zero polynomial")
        m = max(k[0] for k in den.terms)
        tail = [(k[0] - m, k[1:], c) for k, c in den.terms.items() if k[0] < m]
        if len(den.terms) - len(tail) != 1 or den.terms.get((m,) + (0,) * self.nz) != 1:
            raise ValueError("divisor is not monic in A")
        slices: dict[int, dict[Key, int]] = {}
        for key, c in self.terms.items():
            slices.setdefault(key[0], {})[key[1:]] = c
        quo: dict[Key, int] = {}
        for a in range(max(slices, default=-1), m - 1, -1):
            qa = a - m
            for zkey, c in slices.pop(a, {}).items():
                if not c:
                    continue  # cancelled by a higher slice
                quo[(qa,) + zkey] = c
                for da, tz, tc in tail:
                    target = slices.setdefault(a + da, {})
                    nk = tuple(map(add, zkey, tz))
                    target[nk] = target.get(nk, 0) - c * tc
        if any(any(s.values()) for s in slices.values()):
            raise InexactDivision("nonzero remainder")
        return MultiPoly._of(self.nz, quo)

    # ---------------------------------------------------------------- evaluation

    def evaluate(self, a_value: int | Fraction,
                 z_values: Sequence[int | Fraction]) -> int | Fraction:
        """Exact value at A = a_value, z = z_values (integer or rational points)."""
        if len(z_values) != self.nz:
            raise ValueError(f"need {self.nz} z values")
        point = (a_value,) + tuple(z_values)
        total = 0
        for key, c in self.terms.items():
            v = c
            for x, e in zip(point, key):
                if e:
                    v = v * x ** e
            total += v
        return total

    # ---------------------------------------------------------------- serialization

    def to_obj(self) -> list[list]:
        """Sorted [coefficient-string, A-exponent, [z-exponents]] triples."""
        out = []
        for key in sorted(self.terms):
            out.append([str(self.terms[key]), key[0], list(key[1:])])
        return out

    @classmethod
    def from_obj(cls, nz: int, obj: Iterable[Sequence]) -> "MultiPoly":
        """Inverse of to_obj; a coefficient string that is not an integer raises ValueError."""
        terms: dict[Key, int] = {}
        for coeff_str, a_exp, z_exps in obj:
            key = (int(a_exp),) + tuple(int(e) for e in z_exps)
            terms[key] = int(coeff_str)
        return cls(nz, terms)
