"""Exact sparse polynomials over Q, GF(2) polynomials as int masks, and
truncated Laurent series.

Polynomials over Q (Python int / Fraction, integer-valued coefficients
stored as plain int) are sparse term lists with strictly increasing
exponents and no zero coefficients.  GF(2) polynomials are Python ints,
bit i holding the coefficient of X^i: addition is xor and `gf2_mul` is the
carry-less product.  Laurent series in descending powers of X are truncated
windows with explicit precision bookkeeping: a series knows its top
exponent and the cutoff below which nothing is known.  All arithmetic is
exact; nothing is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Degree of the zero polynomial.  A dedicated sentinel (never -1, which is a
#: legitimate Laurent exponent); compares below every integer.
NEG_INF = float("-inf")


class NotReducibleError(ArithmeticError):
    """Mod-2 reduction hit a coefficient that is not an integer."""


class ZeroSeriesError(ZeroDivisionError):
    """Inversion of the zero series."""


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
    def x_power(cls, e, c=1):
        return cls.build([(e, c)])

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


@dataclass(eq=False)
class LaurentSeries:
    """Truncated Laurent series in descending powers of X, rational coefficients.

    Coefficients are defined for every exponent in [-cutoff, top]; exponents
    above `top` are identically zero.  `cutoff is None` marks an exact series
    (a Laurent polynomial: nothing exists below the stored window either).
    A deeper window is a new series built from the source at that depth.
    Treated as immutable after construction.
    """

    coeffs: dict
    top: object          # int, or NEG_INF for the zero series
    cutoff: object       # int, or None when exact
    expect_integral_cf: bool = False   # set by the lacunary builder; see contfrac

    def __post_init__(self):
        self.coeffs = {e: _coerce_q(c) for e, c in self.coeffs.items() if c}
        if self.coeffs:
            hi = max(self.coeffs)
            if self.top is NEG_INF or hi > self.top:
                self.top = hi

    @property
    def exact(self):
        return self.cutoff is None

    def coeff(self, e):
        if self.top is not NEG_INF and e > self.top:
            return 0
        if self.exact or e >= -self.cutoff:
            return self.coeffs.get(e, 0)
        raise SeriesPrecisionError(f"precision: coefficient at X^{e} below cutoff {-self.cutoff}")

    def lead_exponent(self):
        return max(self.coeffs) if self.coeffs else NEG_INF

    def poly_part(self) -> SparsePoly:
        return SparsePoly.build((e, c) for e, c in self.coeffs.items() if e >= 0)

    def __str__(self):
        terms = sorted(self.coeffs.items(), reverse=True)
        shown = [f"{c}*X^{e}" for e, c in terms[:8]]
        tail = " + ..." if len(terms) > 8 else ""
        lo = "exact" if self.exact else f"O(X^{-self.cutoff - 1})"
        return (" + ".join(shown) or "0") + tail + f"  [{lo}]"


def series_from_poly(p: SparsePoly, denom_power: int = 0) -> LaurentSeries:
    """Exact series P(X)/X^d."""
    coeffs = {e - denom_power: c for e, c in p.terms}
    top = max(coeffs) if coeffs else NEG_INF
    return LaurentSeries(coeffs, top, None)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    a_top = a.top if a.top is not NEG_INF else 0
    b_top = b.top if b.top is not NEG_INF else 0
    if a.exact and b.exact:
        cutoff = None
    else:
        parts = []
        if not a.exact:
            parts.append(a.cutoff - b_top)
        if not b.exact:
            parts.append(b.cutoff - a_top)
        cutoff = min(parts)
    acc = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if cutoff is not None and e < -cutoff:
                continue
            s = _norm_q(acc.get(e, 0) + c1 * c2)
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    top = (a.top + b.top) if (a.top is not NEG_INF and b.top is not NEG_INF) else NEG_INF
    return LaurentSeries(acc, top, cutoff)


def series_invert(a: LaurentSeries, depth: int | None = None) -> LaurentSeries:
    """Multiplicative inverse.

    For a truncated input with lead exponent d and cutoff N the result is
    certified down to exponent -(N + 2d); a * invert(a) equals 1 up to terms
    below that window.  For an exact non-monomial input, `depth` asks for the
    result window (default 32).
    """
    if not a.coeffs:
        if a.exact:
            raise ZeroSeriesError("zero series")
        raise SeriesPrecisionError("precision: window shows no nonzero term to invert")
    d = a.lead_exponent()
    lead = a.coeffs[d]
    if a.exact and len(a.coeffs) == 1:
        return LaurentSeries({-d: _norm_q(Fraction(1, 1) / lead)}, -d, None)
    if a.exact:
        want = depth if depth is not None else 32
        m = max(want - d, 8)
        cut = d + m
    else:
        m = a.cutoff + d      # unit-series terms known beyond the lead
        cut = a.cutoff + 2 * d
    # unit u(t) = a * t^? read in t = 1/X; u[j] = coeff of X^(d - j)
    u = [a.coeffs.get(d - j, 0) for j in range(m + 1)]
    v = [_norm_q(Fraction(1, 1) / lead)]
    for j in range(1, m + 1):
        s = 0
        for i in range(1, j + 1):
            if u[i]:
                s += u[i] * v[j - i]
        v.append(_norm_q(Fraction(-s, 1) / lead))
    coeffs = {-d - j: c for j, c in enumerate(v) if c}
    return LaurentSeries(coeffs, -d, cut)
