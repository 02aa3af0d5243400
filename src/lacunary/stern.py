"""The Stern-Brocot sequence extended to negative indices, the
binomial-parity convolution, Thue-Morse, three derived signed sequences,
and the paperfolding family.

Scalar entry points are memoized top-down recursions over exact Python
integers.  Only u is defined at negative indices: v, thue_morse and the
signed scalars alpha, beta and gamma raise ValueError for n < 0.  The
signed scalars are defined as parity convolutions with Thue-Morse but
computed only by their doubling recursions; calling parity_convolve with
thue_morse evaluates the definition and is the independent check on them.

Tables are filled by window, as the containers that computed them:
doubling_window fills any [a, b] of u, v, alpha, beta or gamma from the
window of half its indices, in time O(b - a + log b).  A window with
b <= 2 * _PREFIX is the list of Python ints its prefix fills index by
index; a longer one is the numpy array its levels fill, int64 below 2^88
and of Python ints past it.  carlitz_window counts Carlitz's sum from
the bits of n by a two-count carry automaton, (b - a) * log2(b) numpy
element operations in all, and returns an int64 array, as
parity_convolve_range does; it calls neither doubling_window nor the
scalars.  The scalar paths stay the reference the windows are checked
against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .bits import binom_parity, count_10_blocks


@lru_cache(maxsize=None)
def stern_u(n: int) -> int:
    """u_0 = u_1 = 1, u_{2n} = u_n + u_{n-1}, u_{2n+1} = u_n, on all of Z
    via u_{-1} = 0 and u_{-n} = u_{n-2}."""
    if n < 0:
        return 0 if n == -1 else stern_u(-n - 2)
    if n <= 1:
        return 1
    half = n >> 1
    if n & 1:
        return stern_u(half)
    return stern_u(half) + stern_u(half - 1)


@lru_cache(maxsize=None)
def stern_v(n: int) -> int:
    """Index-doubling variant: v_0 = 0, v_1 = 1, v_{2n} = v_n,
    v_{2n+1} = v_n + v_{n+1}; satisfies stern_u(n) = stern_v(n+1)."""
    if n < 0:
        raise ValueError("variant defined for n >= 0")
    if n <= 1:
        return n
    half = n >> 1
    if n & 1:
        return stern_v(half) + stern_v(half + 1)
    return stern_v(half)


def parity_convolve(a, b, n: int) -> int:
    """sum over 0 <= 2r <= n of C(n-r, r) mod 2 times a(r) * b(n-r).

    a and b are index -> value rules.  With a = b = 1 this is the Carlitz
    form of the Stern-Brocot sequence."""
    if n < 0:
        raise ValueError("negative index")
    total = 0
    for r in range(n // 2 + 1):
        if binom_parity(n - r, r):
            total += a(r) * b(n - r)
    return total


def parity_convolve_range(a_vals, b_vals) -> np.ndarray:
    """Vectorized prefix of parity_convolve: inputs are equal-length value
    arrays, output[n] uses a_vals[r], b_vals[n-r] for 2r <= n."""
    import numpy as np

    a = np.asarray(a_vals, dtype=np.int64)
    b = np.asarray(b_vals, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two equal-length 1-d arrays")
    n_max = len(a)
    out = np.zeros(n_max, dtype=np.int64)
    ns_all = np.arange(n_max, dtype=np.int64)
    for r in range(n_max // 2 + 1):
        ns = ns_all[2 * r:]
        # C(n-r, r) odd iff adding r to n-2r carries nowhere
        sel = ns[((ns - 2 * r) & r) == 0]
        out[sel] += a[r] * b[sel - r]
    return out


def stern_carlitz(n: int) -> int:
    """Carlitz's sum for u_n: the number of r with C(n-r, r) odd."""
    return parity_convolve(lambda r: 1, lambda s: 1, n)


_BLOCK = 1 << 16


def carlitz_window(a: int, b: int) -> np.ndarray:
    """stern_carlitz(n) for n in a..b as an int64 array, counted from the
    bits of n rather than cell by cell.

    By Lucas, C(n-r, r) is odd iff r & (n - 2r) == 0, so the count is the
    number of pairs (m, r) with n = m + 2r and m & r == 0.  Read the bits
    of n from the lowest up, choosing bits m_k and r_k, not both 1, so that
    m_k + r_{k-1} + carry has the parity of n_k.  The state after bit k is
    (r_k, carry), and r_k + carry is what it adds to bit k + 1.  The two
    states that add 1 move alike, and (1, 1), which adds 2, is never
    reached from the start (0, 0).  So two counts suffice: x of the pairs
    that add 0 and y of those that add 1.  From (x, y) = (1, 0), a 1 bit
    sets x <- x + y and a 0 bit sets y <- x + y; the count is x once every
    bit of n is read, as a pair leaves no r bit or carry past n's top.
    The n are taken _BLOCK at a time, (b - a) * log2(b) numpy element
    operations in all; besides the int64 output, the memory is a block's
    temporaries."""
    import numpy as np

    if a < 0:
        raise ValueError("negative index")
    if b >= 1 << 62:
        raise ValueError("Carlitz's sum is evaluated in int64: n must be below 2^62")
    out = np.ones(max(b - a + 1, 0), dtype=np.int64)
    for n0 in range(a, b + 1, _BLOCK):
        n1 = min(n0 + _BLOCK, b + 1)
        ns = np.arange(n0, n1, dtype=np.int64)
        x, y = out[n0 - a:n1 - a], np.zeros(n1 - n0, dtype=np.int64)
        for _ in range((n1 - 1).bit_length()):
            one = (ns & 1).astype(bool)
            np.add(x, y, out=x, where=one)
            np.add(x, y, out=y, where=~one)
            ns >>= 1
    return out


def thue_morse(n: int) -> int:
    """t_n = +1 or -1 by bit-count parity; t_{2n} = t_n, t_{2n+1} = -t_n."""
    if n < 0:
        raise ValueError("negative index")
    return -1 if n.bit_count() & 1 else 1


@lru_cache(maxsize=None)
def alpha(n: int) -> int:
    """Convolution of Thue-Morse with the constant 1; alpha_{2n} =
    alpha_n - alpha_{n-1}, alpha_{2n+1} = alpha_n, alpha_0 = alpha_1 = 1."""
    if n < 0:
        raise ValueError("negative index")
    if n <= 1:
        return 1
    half = n >> 1
    if n & 1:
        return alpha(half)
    return alpha(half) - alpha(half - 1)


@lru_cache(maxsize=None)
def beta(n: int) -> int:
    """Convolution of the constant 1 with Thue-Morse; beta_{2n} =
    beta_n - beta_{n-1}, beta_{2n+1} = -beta_n, beta_0 = 1, beta_1 = -1."""
    if n < 0:
        raise ValueError("negative index")
    if n <= 1:
        return 1 if n == 0 else -1
    half = n >> 1
    if n & 1:
        return -beta(half)
    return beta(half) - beta(half - 1)


@lru_cache(maxsize=None)
def gamma(n: int) -> int:
    """Convolution of Thue-Morse with itself; 3-periodic with values
    1, -1, 0."""
    if n < 0:
        raise ValueError("negative index")
    if n <= 1:
        return 1 if n == 0 else -1
    half = n >> 1
    if n & 1:
        return -gamma(half)
    return gamma(half) + gamma(half - 1)


# (s_0, s_1; c0, c1, d0, d1): s_{2n} = c0*s_n + c1*s_{n-1} and
# s_{2n+1} = d0*s_n + d1*s_{n+1}
_DOUBLING = {
    "u": (1, 1, 1, 1, 1, 0),
    "v": (0, 1, 1, 0, 1, 1),
    "alpha": (1, 1, 1, -1, 1, 0),
    "beta": (1, -1, 1, -1, -1, 0),
    "gamma": (1, -1, 1, 1, -1, 0),
}
_PREFIX = 64


def _signed_sum(dst: np.ndarray, p: int, x: np.ndarray, q: int, y: np.ndarray) -> None:
    """dst = p * x + q * y, formed in dst with no product, for the (p, q)
    that _DOUBLING holds: (1, 1), (1, 0), (1, -1) and (-1, 0)."""
    import numpy as np

    if q == 0:
        (np.positive if p > 0 else np.negative)(x, out=dst)
    else:
        (np.add if q > 0 else np.subtract)(x, y, out=dst)


def doubling_window(which: str, a: int, b: int) -> list | np.ndarray:
    """s_a, ..., s_b for s in _DOUBLING; u also at negative indices.

    The window is halved to [max(a//2 - 1, 0), b//2 + 1] until
    b <= 2 * _PREFIX, that prefix is filled index by index, and each level
    back up is formed from the one below in numpy arrays: its even entries
    and then its odd entries are added, subtracted or negated straight into
    the level's strided slices, every coefficient being -1, 0 or 1, and s_0
    and s_1 are set anew on a level that starts below 2.  The arrays are
    int64 while b < 2^88: Lehmer's bound, u_n <= F_{bitlen(n+1)+1} < 2^62 there, holds for every
    |s_n| since |alpha|, |beta| <= u, |gamma| <= 1 and v is u shifted.
    Past 2^88 the same code runs on arrays of Python ints.  A window that
    needs no level is the prefix's list, so it loads no numpy; a window of
    u across zero is its reflected and direct parts joined, an array as
    soon as one part is."""
    s0, s1, c0, c1, d0, d1 = _DOUBLING[which]
    if a > b:
        return []
    if a < 0:
        if which != "u":
            raise ValueError(f"sequence {which} is defined for n >= 0")
        # u_{-1} = 0 and u_{-n} = u_{n-2}
        neg = doubling_window("u", max(-b - 2, 0), -a - 2)[::-1]
        zero, pos = [0] * (b >= -1), doubling_window("u", 0, b)
        if type(neg) is list and type(pos) is list:
            return neg + zero + pos
        import numpy as np

        # an empty list among them would make the join float64
        return np.concatenate([part for part in (neg, zero, pos) if len(part)])
    chain = []
    while b > 2 * _PREFIX:
        chain.append((a, b))
        a, b = max((a >> 1) - 1, 0), (b >> 1) + 1
    vals = [s0, s1]
    for m in range(2, b + 1):
        n = m >> 1
        vals.append(d0 * vals[n] + d1 * vals[n + 1] if m & 1 else c0 * vals[n] + c1 * vals[n - 1])
    vals = vals[a:b + 1]
    if not chain:
        return vals
    import numpy as np

    vals = np.array(vals, dtype=np.int64 if chain[0][1] < 1 << 88 else object)
    for lo, hi in reversed(chain):
        # vals holds s_a..s_b with a = max(lo//2 - 1, 0) and b = hi//2 + 1
        start = max(lo, 2)
        even, odd = start + (start & 1), start | 1
        i, n_even = (even >> 1) - a, (hi - even) // 2 + 1
        j, n_odd = (odd >> 1) - a, (hi - odd) // 2 + 1
        out = np.empty(hi - lo + 1, dtype=vals.dtype)
        _signed_sum(out[even - lo::2], c0, vals[i:i + n_even], c1, vals[i - 1:i - 1 + n_even])
        _signed_sum(out[odd - lo::2], d0, vals[j:j + n_odd], d1, vals[j + 1:j + 1 + n_odd])
        if lo < 2:
            out[:start - lo] = (s0, s1)[lo:]
        vals, a = out, lo
    return vals


def fold_v(n: int) -> int:
    """(-1) to the number of 10-blocks in n."""
    if n < 0:
        raise ValueError("negative index")
    return -1 if count_10_blocks(n) & 1 else 1


def fold_w(n: int) -> int:
    """fold_v(n) * fold_v(n+1); equals (-1)^n at even arguments."""
    return fold_v(n) * fold_v(n + 1)


def fold_z(n: int) -> int:
    """The paperfolding sequence fold_w(2n+1): fold_z(2n) = -(-1)^n and
    fold_z(2n+1) = fold_z(n)."""
    return fold_w(2 * n + 1)

