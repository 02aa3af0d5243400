"""Binary-digit combinatorics: block counts, binomial parity, gap
sequences, and the one sign rule attached to exponent sequences.

Conventions used throughout the package:

* digits are indexed from the least significant bit, e(k, 0) is the parity;
* ``count_10_blocks(k)`` counts occurrences of the block "10" when the binary
  expansion of k is read from the most significant digit down (so 12 = 1100
  contains exactly one such block);
* ``binom_parity(m, k)`` is C(m, k) mod 2 via the digitwise rule: 1 iff every
  binary digit of k is dominated by the corresponding digit of m.

An exponent sequence ("lambda spec") is a strictly increasing sequence of
positive integers whose growth is 2-lacunary: lambda(q+1) > 2 * lambda(q),
with lambda(-1) = 0 by convention: Mersenne, or a finite list checked for
2-lacunary growth when parsed.  A sign sequence ("epsilon spec") is an
ultimately periodic 0/1 sequence, zero for negative indices.  The k-th
closed-form term has exponent ``term_exponent(k, lam)`` and sign
``term_sign(k, eps)``; the sign pairs each difference eps_q - eps_{q-1}
with digit q of k, the reading the continued fraction confirms.
"""

from __future__ import annotations

from dataclasses import dataclass


class LambdaRangeError(ValueError, IndexError):
    """Usage error: the explicit exponent list is exhausted before the
    requested index."""


def count_10_blocks(k: int) -> int:
    """Number of "10" blocks in the MSB-first binary reading of k."""
    if k < 0:
        raise ValueError("negative argument")
    return ((k >> 1) & ~k).bit_count()


def count_10_blocks_scan(k: int) -> int:
    """Same count by walking the binary string; independent of the bit trick."""
    s = bin(k)[2:] if k else "0"
    return sum(1 for i in range(len(s) - 1) if s[i] == "1" and s[i + 1] == "0")


def count_10_blocks_rec(k: int) -> int:
    """Same count by recursion: c(0)=0, c(2n+1)=c(n), c(2n)=c(n)+(n mod 2)."""
    c = 0
    while k:
        if k & 1:
            k >>= 1
        else:
            k >>= 1
            c += k & 1
    return c


def binom_parity(m: int, k: int) -> int:
    """C(m, k) mod 2 for nonnegative integers, by digit domination."""
    if m < 0 or k < 0:
        raise ValueError("negative argument; use the dyadic module for those")
    return 1 if (k & ~m) == 0 else 0


@dataclass(frozen=True)
class LambdaSpec:
    """Strictly 2-lacunary exponent sequence 0 < l_0 < l_1 < ..., l_{q+1} > 2 l_q.

    ``values`` is a finite list, checked for growth when the spec is made
    (requests past its end raise LambdaRangeError), or None for the
    Mersenne sequence l_q = 2^(q+1) - 1.
    """

    values: tuple | None = None

    def __post_init__(self):
        if self.values is None:
            return
        if not self.values:
            raise ValueError("empty exponent list")
        if self.values[0] <= 0:
            raise ValueError(f"lambda_0 = {self.values[0]} must be positive")
        for i, (prev, v) in enumerate(zip(self.values, self.values[1:]), 1):
            if v <= 2 * prev:
                raise ValueError(f"not 2-lacunary: lambda_{i} = {v} <= 2 * lambda_{i-1} = {2 * prev}")

    @classmethod
    def mersenne(cls):
        return cls(None)

    @classmethod
    def from_list(cls, values):
        return cls(tuple(values))

    @property
    def is_mersenne(self):
        return self.values is None

    @property
    def name(self):
        return "mersenne" if self.values is None else "list:" + ",".join(map(str, self.values))

    def value(self, q: int) -> int:
        """lambda_q, with lambda_{-1} = 0."""
        if q < -1:
            raise ValueError("exponent index below -1")
        if q == -1:
            return 0
        if self.values is None:
            return (1 << (q + 1)) - 1
        if q >= len(self.values):
            raise LambdaRangeError(f"lambda range: index {q} beyond explicit list of length {len(self.values)}")
        return self.values[q]

    def gap(self, q: int) -> int:
        """lambda_q - lambda_{q-1} (q >= 0)."""
        return self.value(q) - self.value(q - 1)

    def __repr__(self):
        return f"LambdaSpec({self.name})"


@dataclass(frozen=True)
class EpsilonSpec:
    """Ultimately periodic 0/1 sign sequence; value(n) = 0 for n < 0."""

    pre: tuple = ()
    period: tuple = (0,)

    def __post_init__(self):
        if not self.period:
            raise ValueError("empty period")
        for v in self.pre + self.period:
            if v not in (0, 1):
                raise ValueError("sign sequence entries must be 0 or 1")

    @classmethod
    def zero(cls):
        return cls((), (0,))

    def value(self, n: int) -> int:
        if n < 0:
            return 0
        if n < len(self.pre):
            return self.pre[n]
        return self.period[(n - len(self.pre)) % len(self.period)]

    def sign(self, n: int) -> int:
        """(-1)^eps_n."""
        return -1 if self.value(n) else 1

    def describe(self):
        if self.pre:
            return "pre:" + ",".join(map(str, self.pre)) + "+period:" + ",".join(map(str, self.period))
        return "period:" + ",".join(map(str, self.period))

    def __repr__(self):
        return f"EpsilonSpec({self.describe()})"


def parse_lambda_spec(text: str) -> LambdaSpec:
    """CLI grammar: 'mersenne' or 'list:1,3,7,15'."""
    if text == "mersenne":
        return LambdaSpec.mersenne()
    if text.startswith("list:"):
        try:
            values = [int(v) for v in text[5:].split(",") if v != ""]
        except ValueError:
            raise ValueError(f"bad exponent list {text!r}")
        return LambdaSpec.from_list(values)
    raise ValueError(f"bad lambda spec {text!r} (expected 'mersenne' or 'list:...')")


def parse_epsilon_spec(text: str) -> EpsilonSpec:
    """CLI grammar: 'period:0' or 'pre:1,0+period:0,1'."""
    pre: tuple = ()
    body = text
    if text.startswith("pre:"):
        head, sep, body = text[4:].partition("+")
        if not sep:
            raise ValueError(f"bad epsilon spec {text!r} (missing '+period:')")
        pre = tuple(int(v) for v in head.split(",") if v != "")
    if not body.startswith("period:"):
        raise ValueError(f"bad epsilon spec {text!r} (expected 'period:...')")
    period = tuple(int(v) for v in body[7:].split(",") if v != "")
    return EpsilonSpec(pre, period)


def term_exponent(k: int, lam: LambdaSpec) -> int:
    """Exponent mu(k) = sum over set digits q of k of gap(q)."""
    if k < 0:
        raise ValueError("negative index")
    if lam.is_mersenne:
        return k   # gaps are 2^q, so the digit-weighted sum telescopes to k
    total = 0
    q = 0
    while k:
        if k & 1:
            total += lam.gap(q)
        k >>= 1
        q += 1
    return total


def term_sign(k: int, eps: EpsilonSpec) -> int:
    """Sign (+1/-1) of the k-th closed-form term: the parity of the "10"
    block count plus the sum of eps_q - eps_{q-1} over the set digits q
    of k."""
    if k < 0:
        raise ValueError("negative index")
    total = count_10_blocks(k)
    q = 0
    while k:
        if k & 1:
            total += eps.value(q) - eps.value(q - 1)
        k >>= 1
        q += 1
    return -1 if total & 1 else 1
