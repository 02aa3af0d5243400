"""Closed-form polynomials Q_n(X) and their 2-adic interpolation Q_w(X).

The coefficient of X^mu(k) is sign(k, eps) * C((w+k)/2, k) mod 2, the
half-sum binomial evaluated through its division-free equivalent.  Integer
w cuts the sum off (at w for w >= 0, at -w-2 for w <= -2, both because the
finite upper argument stops dominating); every other w yields a genuine
power series and callers must bound the window themselves.

Comparison families (scaled Chebyshev, Fibonacci, Morgan-Voyce) are built
by their own recurrences/sums so the mod-2 coincidences are cross-checks,
not restatements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .bits import EpsilonSpec, LambdaSpec, term_exponent, term_sign
from .dyadic import Dyadic, kernel_range, kernel_value
from .rings import NEG_INF, SparsePoly, flags_to_mask, gf2_mul


def _support_bound(n: int) -> int:
    """Largest k that contributes to Q_n for integer n (negative for n = -1,
    whose Q is zero)."""
    return n if n >= 0 else -n - 2


def q_poly(n: int, lam: LambdaSpec, eps: EpsilonSpec) -> SparsePoly:
    """Q_n(X) for integer n, any sign, as an exact integer polynomial.

    One code path: the digits of n (two's complement for n < 0) feed the
    half-sum binomial.  The cutoff -n-2 for negative n is forced by the
    binomial itself: for k >= -n-1 the upper argument n+k+1 is a nonnegative
    integer smaller than 2k+1."""
    bound = _support_bound(n)
    w = Dyadic.from_int(n)
    terms = []
    for k in range(0, bound + 1):
        if kernel_value(w, k, "f"):
            terms.append((term_exponent(k, lam), term_sign(k, eps)))
    return SparsePoly.build(terms)


def q_omega_window(w: Dyadic, lam: LambdaSpec, eps: EpsilonSpec, k_max: int):
    """Nonzero terms (exponent, coefficient) of Q_w for k <= k_max, ascending.

    Exponents ascend with k because each lambda gap exceeds the sum of all
    earlier ones; extending k_max never changes earlier entries."""
    import numpy as np

    ks = np.flatnonzero(kernel_range(w, k_max, "f"))
    signs = _term_signs(ks, eps).tolist()
    if lam.is_mersenne:
        return list(zip(ks.tolist(), signs))
    # list exponents may pass int64, so they stay exact Python ints
    return [(term_exponent(k, lam), s) for k, s in zip(ks.tolist(), signs)]


def _term_signs(ks: np.ndarray, eps: EpsilonSpec) -> np.ndarray:
    """term_sign(k, eps) for each k of the ascending int64 array ks, as an
    int64 array of +1/-1.  The sign is (-1)^popcount(((k >> 1) & ~k) ^
    (k & flips)), flips holding digit q iff eps_q != eps_{q-1}; the parity
    is taken by XOR-folding, since np.bitwise_count needs numpy 2."""
    top = int(ks[-1]).bit_length() if ks.size else 0
    flips = sum((eps.value(q) ^ eps.value(q - 1)) << q for q in range(top))
    x = ((ks >> 1) & ~ks) ^ (ks & flips)
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return 1 - 2 * (x & 1)


def q_support_flags(w: Dyadic, k_max: int) -> np.ndarray:
    """Bool array over k = 0..k_max: does k contribute a monomial to Q_w.
    Signs never vanish, so this is exactly the half-sum kernel."""
    return kernel_range(w, k_max, "f")


def q_term_count_range(n_max: int) -> np.ndarray:
    """Number of nonzero monomials of Q_n for n = 0..n_max-1, vectorized.
    Counts k <= n with 2k+1 digitwise below n+k+1; all values stay well
    inside int64 for any practical n_max."""
    import numpy as np

    out = np.zeros(n_max, dtype=np.int64)
    ns = np.arange(n_max, dtype=np.int64)
    for k in range(n_max):
        live = ns[k:]
        hits = ((2 * k + 1) & ~(live + k + 1)) == 0
        out[k:] += hits
    return out


def is_polynomial(w: Dyadic, lam: LambdaSpec):
    """("yes", degree) | ("no", None) | ("unknown", None).

    Integer w always keeps its top term (k = w resp. k = -w-2 survives), so
    the degree is mu of the cutoff; rational non-integer w never terminates;
    for an opaque stream the answer is "unknown"."""
    kind = w.classify()
    if kind == "integer":
        bound = _support_bound(w.num)
        if bound < 0:
            return ("yes", NEG_INF)
        return ("yes", term_exponent(bound, lam))
    if kind == "rational-non-integer":
        return ("no", None)
    return ("unknown", None)


def pell_check_mod2(w: Dyadic, trunc: int) -> bool:
    """Q_w^2 - Q_{w+1} Q_{w-1} = 1 mod 2, checked through X^trunc with
    Mersenne exponents.  Signs are invisible mod 2, so only the kernel
    masks enter."""
    m0, mp, mm = (flags_to_mask(kernel_range(v, trunc, "f"))
                  for v in (w, w.add_int(1), w.add_int(-1)))
    lhs = gf2_mul(m0, m0) ^ gf2_mul(mp, mm)
    return lhs & ((1 << (trunc + 1)) - 1) == 1


def chebyshev_u_scaled_range(n_max: int) -> list:
    """[s_0, ..., s_{n_max}] over the integers: U_m at half argument, by the
    three-term recurrence s_{m+1} = X s_m - s_{m-1} with s_0 = 1, s_1 = X."""
    if n_max < 0:
        raise ValueError("negative index")
    prev = {0: 1}
    if n_max == 0:
        return [SparsePoly.build(prev.items())]
    cur = {1: 1}
    out = [SparsePoly.build(prev.items()), SparsePoly.build(cur.items())]
    for _ in range(2, n_max + 1):
        nxt = {e + 1: c for e, c in cur.items()}
        for e, c in prev.items():
            nxt[e] = nxt.get(e, 0) - c
        prev, cur = cur, nxt
        out.append(SparsePoly.build(cur.items()))
    return out


def chebyshev_mask_range(n_max: int) -> list:
    """The same recurrence over GF2, as bit masks: s_{m+1} = (s_m << 1) ^ s_{m-1}."""
    if n_max < 0:
        raise ValueError("negative index")
    masks = [1]
    if n_max >= 1:
        masks.append(2)
    for _ in range(2, n_max + 1):
        masks.append((masks[-1] << 1) ^ masks[-2])
    return masks


def fibonacci_poly(m: int) -> SparsePoly:
    """F_1 = 1, F_2 = X, F_{m+1} = X F_m + F_{m-1}; equivalently
    F_{m+1}(X) = sum over 2j <= m of C(m-j, j) X^(m-2j)."""
    if m < 1:
        raise ValueError("index starts at 1")
    n = m - 1
    return SparsePoly.build([(n - 2 * j, comb(n - j, j)) for j in range(n // 2 + 1)])


def morgan_voyce(n: int, kind: str = "b") -> SparsePoly:
    """kind 'b': sum of C(n+k, 2k) X^k; kind 'B': sum of C(n+k+1, 2k+1) X^k."""
    if n < 0:
        raise ValueError("negative index")
    if kind == "b":
        terms = [(k, comb(n + k, 2 * k)) for k in range(n + 1)]
    elif kind == "B":
        terms = [(k, comb(n + k + 1, 2 * k + 1)) for k in range(n + 1)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return SparsePoly.build(terms)


@dataclass(frozen=True)
class ANumber:
    """Partial sum of sign(k) * halfsum(w, k) * g^-k over k <= terms, with
    the geometric tail bound."""

    value: Fraction
    base: int
    terms: int

    @property
    def tail_bound(self) -> Fraction:
        """Bound on what the terms past k = terms add: 2 / g^terms.  Formed
        on demand, since g^terms has about terms digits."""
        return Fraction(2, self.base**self.terms)

    def decimal(self, digits: int = 40) -> str:
        if digits < 0:
            raise ValueError("digits must be nonnegative")
        v = self.value
        sign = "-" if v < 0 else ""
        v = abs(v)
        ip = v.numerator // v.denominator
        frac = v - ip
        scaled = (frac.numerator * 10**digits) // frac.denominator
        return f"{sign}{ip}.{scaled:0{digits}d}"


def a_number(eps: EpsilonSpec, w: Dyadic, g: int, terms: int) -> ANumber:
    """The real number with digits driven by the Q_w coefficient stream in
    base g, summed exactly to the given number of terms."""
    if g < 2:
        raise ValueError("base must be at least 2")
    if terms < 0:
        raise ValueError("negative term count")
    import numpy as np

    # Horner's rule over the nonzero k: num / g^last is the sum so far
    ks = np.flatnonzero(kernel_range(w, terms, "f"))
    num = last = 0
    for k, sign in zip(ks.tolist(), _term_signs(ks, eps).tolist()):
        num = num * g ** (k - last) + sign
        last = k
    return ANumber(value=Fraction(num, g**last), base=g, terms=terms)
