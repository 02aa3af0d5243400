"""Exact sparse polynomials over Q and GF(2) polynomials as int masks.

Polynomials over Q (Python int / Fraction, integer-valued coefficients
stored as plain int) are sparse term lists with strictly increasing
exponents and no zero coefficients.  GF(2) polynomials are Python ints,
bit i holding the coefficient of X^i: addition is xor and `gf2_mul` is the
carry-less product.  All arithmetic is exact; nothing is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Degree of the zero polynomial.  A dedicated sentinel (never -1, which is a
#: legitimate Laurent exponent); compares below every integer.
NEG_INF = float("-inf")


class NotReducibleError(ArithmeticError):
    """Mod-2 reduction hit a coefficient that is not an integer."""


class SeriesPrecisionError(ValueError, ArithmeticError):
    """Usage error: a truncated series window is too shallow for the
    request."""


def _norm_q(c):
    """Collapse integer-valued Fractions to int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _coerce_q(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return _norm_q(c)
    raise TypeError(f"rational coefficient expected, got {type(c).__name__}")


@dataclass(frozen=True)
class SparsePoly:
    """Polynomial over Q as a sorted tuple of (exponent, coefficient), no zeros stored."""

    terms: tuple

    @classmethod
    def build(cls, items):
        """Canonicalize an iterable of (exp, coeff): merge, drop zeros, sort."""
        acc = {}
        for e, c in items:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"polynomial exponent must be a nonnegative int, got {e!r}")
            s = _norm_q(acc.get(e, 0) + _coerce_q(c))
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return cls(tuple(sorted(acc.items())))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls(((0, 1),))

    @classmethod
    def x_power(cls, e):
        return cls.build([(e, 1)])

    @property
    def degree(self):
        return self.terms[-1][0] if self.terms else NEG_INF

    def coeff(self, e):
        for ee, cc in self.terms:
            if ee == e:
                return cc
        return 0

    def __add__(self, other):
        return SparsePoly.build(self.terms + other.terms)

    def __neg__(self):
        return SparsePoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                s = _norm_q(acc.get(e, 0) + c1 * c2)
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return SparsePoly(tuple(sorted(acc.items())))

    def scale(self, c):
        c = _coerce_q(c)
        if not c:
            return SparsePoly.zero()
        return SparsePoly(tuple((e, _norm_q(cc * c)) for e, cc in self.terms))

    def shift(self, k):
        """Multiply by X^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        return SparsePoly(tuple((e + k, c) for e, c in self.terms))

    def term_count(self):
        return len(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
            if e == 0:
                parts.append(str(c))
            else:
                x = "X" if e == 1 else f"X^{e}"
                if c == 1:
                    parts.append(x)
                elif c == -1:
                    parts.append(f"-{x}")
                else:
                    parts.append(f"{c}*{x}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def gf2_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials packed in ints.

    The sparser operand is read a byte at a time: each nonzero byte v adds
    one shifted row v * b, taken from a table of the byte multiples of the
    denser operand that is filled as each byte value first appears."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    rows = {}
    acc = 0
    for i, v in enumerate(a.to_bytes((a.bit_length() + 7) // 8, "little")):
        if v:
            r = rows.get(v)
            if r is None:
                r = 0
                for j in range(v.bit_length()):
                    if (v >> j) & 1:
                        r ^= b << j
                rows[v] = r
            acc ^= r << (8 * i)
    return acc


def flags_to_mask(flags) -> int:
    """GF(2) mask of a coefficient stream: bit k is set where flags[k] is
    true.  flags is a numpy bool array, as kernel_range returns, or any
    iterable of truth values; the bits are packed by numpy, so the cost is
    linear in the length."""
    import numpy as np

    if not isinstance(flags, np.ndarray):
        flags = np.fromiter(flags, dtype=bool)
    packed = np.packbits(flags.astype(bool, copy=False), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def reduce_mod2(p: SparsePoly) -> int:
    """Ring map Z[X] -> GF(2)[X], as a mask; error if any coefficient is
    non-integral."""
    m = 0
    for e, c in p.terms:
        if isinstance(c, Fraction):
            raise NotReducibleError(f"not reducible: coefficient {c} at X^{e}")
        if c & 1:
            m |= 1 << e
    return m


def poly_to_json(p: SparsePoly) -> dict:
    return {"ring": "Q", "terms": [[e, str(c)] for e, c in p.terms]}


def poly_from_json(obj: dict) -> SparsePoly:
    if obj.get("ring") != "Q":
        raise ValueError(f"unknown ring {obj.get('ring')!r}")
    return SparsePoly.build((int(e), Fraction(c)) for e, c in obj["terms"])
