"""2-adic integers, with digit access and the binomial-parity machinery
extended to 2-adic upper arguments.

A value is one of two cases:

* a rational a/b with odd b, stored as the reduced pair (num, den) and
  nothing else.  An ordinary integer n is the pair (n, 1); its digits are
  the two's-complement expansion, so a negative integer carries an infinite
  tail of 1s.  Digit j is read off num * den^-1 mod 2^(j+1) on demand, and a
  shift is one step of the numerator map x -> (x - (x&1)*den)/2, so walking
  the shift orbit costs time linear in the digit period.  The minimal
  preperiod and repeating block of a non-integer are computed only when
  ``pre``/``per`` are read;
* a stream: an opaque digit rule with a declared safe depth, for values
  given only by their digits.

``classify()`` tells the cases apart: "integer" (den == 1),
"rational-non-integer" (den > 1) or "unknown" (a stream).

Binomial parity against a 2-adic upper argument extends the digitwise rule:
C(w, k) mod 2 = 1 iff every digit of k is dominated by the matching digit of
w.  The half-sum coefficient C((w+k)/2, k) mod 2 is always evaluated through
the equivalent form C(w+k+1, 2k+1) mod 2, which needs windowed addition only
and never divides a digit string by 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .periodic import detect_ultimate_period


class NotTwoAdicError(ValueError):
    """Denominator is even: the rational is not a 2-adic integer."""


class StreamDepthError(ValueError, IndexError):
    """Usage error: a digit past the declared safe depth of a stream was
    requested."""


class OpaqueStreamError(ValueError, TypeError):
    """Usage error: the operation needs arithmetic that an opaque digit
    stream cannot support."""


@dataclass(frozen=True)
class Dyadic:
    """A 2-adic integer.  Construct through from_int / from_rational /
    from_bits / from_stream; direct construction is internal.

    A rational value holds only its reduced fraction num/den (den odd and
    positive, 1 for an integer); a non-integer's digit preperiod and period
    are the read-only properties ``pre``/``per``, computed on first access
    and cached.  A stream holds its digit rule and safe depth instead."""

    num: int = 0                   # rational: value = num / den
    den: int = 1
    rule: object = None            # stream only; None for every rational
    depth: int = 0                 # stream only: digits [0, depth) are safe
    name: str = ""

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "Dyadic":
        return cls(num=n)

    @classmethod
    def from_rational(cls, a: int, b: int) -> "Dyadic":
        """a/b as a 2-adic integer; b must be odd (after reduction)."""
        if b == 0:
            raise ValueError("zero denominator")
        if b < 0:
            a, b = -a, -b
        g = gcd(a, b)
        a //= g
        b //= g
        if b % 2 == 0:
            raise NotTwoAdicError(f"not a 2-adic integer: denominator {b} is even")
        return cls(num=a, den=b)

    @classmethod
    def from_bits(cls, pre, period) -> "Dyadic":
        """Digit description; canonicalized through the rational value."""
        pre = tuple(int(v) for v in pre)
        period = tuple(int(v) for v in period)
        if not period:
            raise ValueError("empty period")
        for v in pre + period:
            if v not in (0, 1):
                raise ValueError("digits must be 0 or 1")
        head = sum(v << i for i, v in enumerate(pre))
        block = sum(v << i for i, v in enumerate(period))
        ln = len(period)
        # value = head + 2^len(pre) * block / (1 - 2^ln)
        num = head * (1 - (1 << ln)) + (block << len(pre))
        den = 1 - (1 << ln)
        return cls.from_rational(num, den)

    @classmethod
    def from_stream(cls, rule, depth: int, name: str = "stream") -> "Dyadic":
        if depth <= 0:
            raise ValueError("stream depth must be positive")
        return cls(rule=rule, depth=depth, name=name)

    # -- basic structure ---------------------------------------------------

    @cached_property
    def _cycle(self) -> tuple:
        if self.classify() != "rational-non-integer":
            return ((), ())
        nums, cut = numerator_orbit(self.num, self.den)
        digits = tuple(x & 1 for x in nums)
        return digits[:cut], digits[cut:]

    @property
    def pre(self) -> tuple:
        """Minimal preperiod digits (rational non-integers only; () otherwise)."""
        return self._cycle[0]

    @property
    def per(self) -> tuple:
        """Minimal repeating digits (rational non-integers only; () otherwise)."""
        return self._cycle[1]

    def __eq__(self, other):
        if not isinstance(other, Dyadic):
            return NotImplemented
        if self.rule is None:
            return other.rule is None and (self.num, self.den) == (other.num, other.den)
        return self is other

    def __hash__(self):
        if self.rule is None:
            return hash((self.num, self.den))
        return id(self)

    def __repr__(self):
        return f"Dyadic({self.describe()})"

    def digit(self, j: int) -> int:
        """Digit j (LSB first)."""
        if j < 0:
            raise ValueError("negative digit index")
        if self.rule is None:
            return ((self.num * pow(self.den, -1, 1 << (j + 1))) >> j) & 1
        if j >= self.depth:
            raise StreamDepthError(f"stream exhausted: digit {j} beyond safe depth {self.depth}")
        return int(self.rule(j)) & 1

    def digits_window(self, length: int) -> int:
        """Digits [0, length) packed into an int, LSB first."""
        if length <= 0:
            return 0
        if self.rule is None:
            return (self.num * pow(self.den, -1, 1 << length)) & ((1 << length) - 1)
        if length > self.depth:
            raise StreamDepthError(f"stream exhausted: window {length} beyond safe depth {self.depth}")
        digits = "".join(str(int(self.rule(j)) & 1) for j in range(length))
        return int(digits[::-1], 2)

    def parity(self) -> int:
        if self.rule is None:
            return self.num & 1   # den is odd, so parity of num/den is parity of num
        return self.digit(0)

    def shift(self) -> "Dyadic":
        """The shifted value (w - w_0) / 2; a stream stays a stream."""
        if self.rule is None:
            # gcd(x - d*den, den) = gcd(x, den) = 1 and den is odd, so halving
            # keeps the fraction reduced
            return Dyadic(num=(self.num - (self.num & 1) * self.den) >> 1, den=self.den)
        rule, depth, name = self.rule, self.depth, self.name
        return Dyadic.from_stream(lambda j: rule(j + 1), depth - 1, name + ">>1")

    def add_int(self, n: int) -> "Dyadic":
        """w + n for an ordinary integer n."""
        if self.rule is None:
            # gcd(num + n*den, den) = gcd(num, den) = 1: still reduced
            return Dyadic(num=self.num + n * self.den, den=self.den)
        raise OpaqueStreamError("unsupported on opaque stream: add_int (use windowed digits)")

    def to_rational(self):
        """(numerator, denominator) with odd positive denominator."""
        if self.rule is None:
            return (self.num, self.den)
        raise OpaqueStreamError("unsupported on opaque stream: to_rational")

    def classify(self) -> str:
        if self.rule is None:
            return "integer" if self.den == 1 else "rational-non-integer"
        return "unknown"

    def describe(self) -> str:
        if self.rule is None:
            return fraction_format(self.den)(self.num)
        return f"stream:{self.name}"


def fraction_format(den: int):
    """num -> the text of num/den as Dyadic.describe gives it: the numerator
    alone for an integer (den 1), "num/den" otherwise."""
    return str if den == 1 else f"{{}}/{den}".format


def numerator_orbit(num: int, den: int, limit: int | None = None) -> tuple:
    """(numerators, cut): the distinct shifts of num/den (den odd) are
    numerators[j]/den in orbit order, cycling from index cut.  The map x ->
    (x - (x&1)*den) >> 1 is bounded, so the walk is linear in the period.

    With a limit, the walk stops after at most limit numerators: an orbit
    longer than that comes back as its first limit numerators and cut None."""
    seen = {}
    x = num
    while x not in seen:
        if len(seen) == limit:
            return list(seen), None
        seen[x] = len(seen)
        x = (x - (x & 1) * den) >> 1
    return list(seen), seen[x]


_STREAM_DEPTH = 1 << 20   # safe depth of the built-in demo streams


def parse_omega(text: str) -> Dyadic:
    """CLI grammar: ``int:-5``, ``rat:1/3``, ``bits:pre=1,0;period=0,1``,
    ``stream:thue-morse`` (built-in demo streams: thue-morse, paperfolding)."""
    if text.startswith("int:"):
        return Dyadic.from_int(int(text[4:]))
    if text.startswith("rat:"):
        body = text[4:]
        if "/" in body:
            a, b = body.split("/", 1)
            return Dyadic.from_rational(int(a), int(b))
        return Dyadic.from_rational(int(body), 1)
    if text.startswith("bits:"):
        pre: tuple = ()
        period = None
        for part in text[5:].split(";"):
            key, sep, val = part.partition("=")
            if not sep:
                raise ValueError(f"bad omega bits spec {text!r}")
            vals = tuple(int(v) for v in val.split(",") if v != "")
            if key == "pre":
                pre = vals
            elif key == "period":
                period = vals
            else:
                raise ValueError(f"bad omega bits key {key!r}")
        if period is None:
            raise ValueError(f"bad omega bits spec {text!r} (missing period)")
        return Dyadic.from_bits(pre, period)
    if text.startswith("stream:"):
        name = text[7:]
        if name == "thue-morse":
            return Dyadic.from_stream(lambda j: j.bit_count() & 1, _STREAM_DEPTH, "thue-morse")
        if name == "paperfolding":
            return Dyadic.from_stream(_paperfolding_bit, _STREAM_DEPTH, "paperfolding")
        raise ValueError(f"unknown demo stream {name!r}")
    raise ValueError(f"bad omega spec {text!r}")


def _paperfolding_bit(j: int) -> int:
    """Regular paperfolding sequence as 0/1 digits."""
    n = j + 1
    while n % 2 == 0:
        n //= 2
    return 1 if n % 4 == 1 else 0


# -- binomial parity with 2-adic upper argument ---------------------------

def binom_parity_dyadic(w: Dyadic, k: int) -> int:
    """C(w, k) mod 2 for a 2-adic w and nonnegative integer k."""
    if k < 0:
        raise ValueError("negative lower argument")
    if k == 0:
        return 1
    need = k.bit_length()
    return 1 if (k & ~w.digits_window(need)) == 0 else 0


def _window_plus(w: Dyadic, c: int, length: int) -> int:
    """Digits [0, length) of w + c, via windowed addition (carries only move
    upward, so a window of w of the same length determines the result)."""
    return (w.digits_window(length) + c) & ((1 << length) - 1)


# tag -> (a, b): the family C(w+k+b, 2k+a) mod 2
_KERNEL_OFFSETS = {"f": (1, 1), "g": (0, 0), "h": (1, 0)}


def _kernel_offsets(tag: str) -> tuple:
    try:
        return _KERNEL_OFFSETS[tag]
    except KeyError:
        raise ValueError(f"unknown tag {tag!r}") from None


def kernel_value(w: Dyadic, k: int, tag: str) -> int:
    """The three coefficient families used by the coefficient automata:
    tag 'f': C(w+k+1, 2k+1) mod 2 (the half-sum coefficient),
    tag 'g': C(w+k, 2k) mod 2,
    tag 'h': C(w+k, 2k+1) mod 2.

    Tag 'f' equals the half-sum binomial C((w+k)/2, k) mod 2 wherever that
    is defined, and needs no division, only a windowed add.  Opposite-parity
    combinations come out 0 automatically."""
    if k < 0:
        raise ValueError("negative lower argument")
    a, b = _kernel_offsets(tag)
    kk = 2 * k + a
    if kk == 0:
        return 1
    need = kk.bit_length()
    return 1 if (kk & ~_window_plus(w, k + b, need)) == 0 else 0


_BLOCK = 1 << 16   # k per numpy block of kernel_range


def kernel_range(w: Dyadic, k_max: int, tag: str = "f") -> np.ndarray:
    """kernel_value(w, k, tag) for k in 0..k_max, as a numpy bool array.

    One digit window of w, at most 64 digits, serves the whole sweep; the
    test (2k+a) & ~(w+k+b) == 0 runs in uint64 over blocks of _BLOCK
    values of k.  Wrap-around mod 2^64 keeps the low digits of w + k + b
    exact, because carries only move upward, and 2k+a has no digit above
    the window.  Each block forms 2k+a once and turns k into ~(w+k+b) in
    place, so the sweep holds two uint64 arrays of a block each."""
    import numpy as np

    if k_max < 0:
        raise ValueError("negative range")
    a, b = _kernel_offsets(tag)
    length = (2 * k_max + 1).bit_length() + 1
    if length > 64:
        raise ValueError(f"kernel sweep to k = {k_max} needs a {length}-digit window; "
                         "uint64 holds 64")
    shift = np.uint64(_window_plus(w, b, length))
    out = np.empty(k_max + 1, dtype=bool)
    for k0 in range(0, k_max + 1, _BLOCK):
        ks = np.arange(k0, min(k0 + _BLOCK, k_max + 1), dtype=np.uint64)
        low = ks << np.uint64(1) | np.uint64(a)
        ks += shift
        np.invert(ks, out=ks)
        low &= ks
        np.equal(low, 0, out=out[k0:k0 + len(ks)])
    return out


def digit_pair_period(w: Dyadic, max_digits: int):
    """Eventual periodicity of j -> (w_j + w_{j+1}) mod 2 within max_digits
    digits.  Returns (preperiod_length, period_tuple) or None.

    The pair-sum sequence equals j -> C(w + 2^j, 2^(j+1)) mod 2; it is
    ultimately periodic exactly when w is rational, and ultimately zero
    exactly when w is an integer."""
    if max_digits < 6:
        raise ValueError("insufficient data: need at least 6 digits")
    window = w.digits_window(max_digits + 1)
    seq = [((window >> j) ^ (window >> (j + 1))) & 1 for j in range(max_digits)]
    bound = max(1, max_digits // 3)
    return detect_ultimate_period(seq, max_period=bound, max_preperiod=max_digits - 2 * bound)


def halfsum_binom_halving(w: Dyadic, k: int) -> int:
    """C((w+k)/2, k) mod 2 by explicitly halving the digit stream of w + k.

    Only valid when parity(w) = parity(k) (the sum is even); test-facing
    second opinion for kernel_value(w, k, "f"), which never divides."""
    if k < 0:
        raise ValueError("negative lower argument")
    if (w.parity() ^ k) & 1:
        raise ValueError("parities differ: the half-sum is not a 2-adic integer")
    if k == 0:
        return 1
    need = k.bit_length()
    half = _window_plus(w, k, need + 1) >> 1
    return 1 if (k & ~half) == 0 else 0


def leading_zeros(w: Dyadic) -> int:
    """Number of leading 0 digits.  Undefined (raises) for 0."""
    if w == Dyadic.from_int(0):
        raise ValueError("zero has no finite leading-zeros count")
    n = 0
    while w.digit(n) == 0:
        n += 1
        if n > 10 ** 6:
            raise ValueError("leading-zeros count did not terminate")
    return n


def leading_ones(w: Dyadic) -> int:
    """Number of leading 1 digits.  Undefined (raises) for -1, whose digits
    are all 1."""
    if w == Dyadic.from_int(-1):
        raise ValueError("minus one has no finite leading-ones count")
    n = 0
    while w.digit(n) == 1:
        n += 1
        if n > 10 ** 6:
            raise ValueError("leading-ones count did not terminate")
    return n
