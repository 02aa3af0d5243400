"""Exact sparse polynomials over Z and GF(2) polynomials as int masks.

Polynomials over Z (Python int coefficients, nothing else) are sparse term
lists with strictly increasing exponents and no zero coefficients.  GF(2)
polynomials are Python ints, bit i holding the coefficient of X^i: addition
is xor and `gf2_mul` is the carry-less product.  All arithmetic is exact;
nothing is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Degree of the zero polynomial.  A dedicated sentinel (never -1, which is a
#: legitimate Laurent exponent); compares below every integer.
NEG_INF = float("-inf")


def _int_coeff(c):
    if type(c) is not int:
        raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
    return c


@dataclass(frozen=True)
class SparsePoly:
    """Polynomial over Z as a sorted tuple of (exponent, coefficient), no zeros stored."""

    terms: tuple

    @classmethod
    def build(cls, items):
        """Canonicalize an iterable of (exp, coeff): merge, drop zeros, sort."""
        acc = {}
        for e, c in items:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"polynomial exponent must be a nonnegative int, got {e!r}")
            s = acc.get(e, 0) + _int_coeff(c)
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
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return SparsePoly(tuple(sorted(acc.items())))

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


def flags_to_mask(flags: np.ndarray) -> int:
    """GF(2) mask of a coefficient stream: bit k is set where flags[k] is
    true.  flags is a numpy array, as kernel_range returns; the bits are
    packed by numpy, so the cost is linear in the length."""
    import numpy as np

    packed = np.packbits(flags.astype(bool, copy=False), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def reduce_mod2(p: SparsePoly) -> int:
    """Ring map Z[X] -> GF(2)[X], as a mask."""
    m = 0
    for e, c in p.terms:
        if c & 1:
            m |= 1 << e
    return m


def poly_to_json(p: SparsePoly) -> dict:
    """{"ring": "Q", "terms": [[e, str(c)], ...]}: the ring label predates
    integer coefficients and is kept so that the output stays stable."""
    return {"ring": "Q", "terms": [[e, str(c)] for e, c in p.terms]}

