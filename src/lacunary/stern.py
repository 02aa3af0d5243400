"""The Stern-Brocot sequence extended to negative indices, the
binomial-parity convolution, Thue-Morse, three derived signed sequences,
and the paperfolding family.

Scalar entry points are memoized top-down recursions over exact Python
integers.  Only u is defined at negative indices: v, thue_morse and the
signed scalars alpha, beta and gamma raise ValueError for n < 0.  The
signed scalars are defined as parity convolutions with Thue-Morse but
computed only by their doubling recursions; calling parity_convolve with
thue_morse evaluates the definition and is the independent check on them.

Tables are filled by window, as lists of exact Python integers:
doubling_window fills any [a, b] of u, v, alpha, beta or gamma from the
window of half its indices, in time O(b - a + log b), and the *_range
functions are its windows from 0.  carlitz_window evaluates Carlitz's sum
in numpy int64 blocks of about 2^16 cells, (b - a) * b / 2 cell tests in
all; carlitz_range and parity_convolve_range return numpy int64 arrays.
The scalar paths stay the reference the windows are checked against.
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


_CELLS = 1 << 16


def carlitz_window(a: int, b: int) -> list:
    """[stern_carlitz(n) for n in a..b], the cells (n, r) tested in numpy
    int64 blocks of about _CELLS, with binom_parity's rule: C(n-r, r) is
    odd iff adding r to n-2r carries nowhere."""
    import numpy as np

    if a < 0:
        raise ValueError("negative index")
    if b >= 1 << 62:
        raise ValueError("Carlitz's sum is evaluated in int64: n must be below 2^62")
    if a > b:
        return []
    out = np.zeros(b - a + 1, dtype=np.int64)
    n_step = min(b - a + 1, 1 << 8)
    r_step = _CELLS // n_step
    for n0 in range(a, b + 1, n_step):
        n1 = min(n0 + n_step, b + 1)
        ns = np.arange(n0, n1, dtype=np.int64)[:, None]
        r_end = (n1 - 1) // 2 + 1
        for r0 in range(0, r_end, r_step):
            r1 = min(r0 + r_step, r_end)
            rs = np.arange(r0, r1, dtype=np.int64)
            d = ns - 2 * rs
            hit = (d & rs) == 0
            if 2 * (r1 - 1) > n0:
                hit &= d >= 0  # drop the cells with 2r > n
            out[n0 - a:n1 - a] += np.count_nonzero(hit, axis=1)
    return out.tolist()


def carlitz_range(n_max: int) -> np.ndarray:
    import numpy as np

    return np.array(carlitz_window(0, n_max - 1), dtype=np.int64)


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


def doubling_window(which: str, a: int, b: int) -> list:
    """[s_a, ..., s_b] for s in _DOUBLING, each window filled from
    [a//2 - 1, b//2 + 1], down to a prefix of about _PREFIX + b - a terms;
    u also at negative indices."""
    s0, s1, c0, c1, d0, d1 = _DOUBLING[which]
    if a > b:
        return []
    if a < 0:
        if which != "u":
            raise ValueError(f"sequence {which} is defined for n >= 0")
        # u_{-1} = 0 and u_{-n} = u_{n-2}
        vals = doubling_window("u", -min(b, -2) - 2, -a - 2)[::-1] if a <= -2 else []
        if b >= -1:
            vals.append(0)
        return vals + doubling_window("u", 0, b)
    chain = []
    while a > _PREFIX:
        chain.append((a, b))
        a, b = (a >> 1) - 1, (b >> 1) + 1
    vals = [s0, s1]
    for m in range(2, b + 1):
        n = m >> 1
        vals.append(d0 * vals[n] + d1 * vals[n + 1] if m & 1 else c0 * vals[n] + c1 * vals[n - 1])
    vals = vals[a:b + 1]
    for lo, hi in reversed(chain):
        # vals holds s_a..s_b with a = lo//2 - 1 and b = hi//2 + 1
        even, odd = lo + (lo & 1), lo | 1
        i, n_even = (even >> 1) - a, (hi - even) // 2 + 1
        j, n_odd = (odd >> 1) - a, (hi - odd) // 2 + 1
        out = [0] * (hi - lo + 1)
        out[even - lo::2] = [c0 * x + c1 * y for x, y in
                             zip(vals[i:i + n_even], vals[i - 1:i - 1 + n_even])]
        out[odd - lo::2] = [d0 * x + d1 * y for x, y in
                            zip(vals[j:j + n_odd], vals[j + 1:j + 1 + n_odd])]
        vals, a, b = out, lo, hi
    return vals


def stern_range(n_max: int) -> list:
    """[u_0, ..., u_{n_max-1}]."""
    return doubling_window("u", 0, n_max - 1)


def alpha_range(n_max: int) -> list:
    return doubling_window("alpha", 0, n_max - 1)


def beta_range(n_max: int) -> list:
    return doubling_window("beta", 0, n_max - 1)


def gamma_range(n_max: int) -> list:
    return doubling_window("gamma", 0, n_max - 1)


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

