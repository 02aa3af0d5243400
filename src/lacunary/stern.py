"""The Stern-Brocot sequence extended to negative indices, the
binomial-parity convolution, Thue-Morse, three derived signed sequences,
and the paperfolding family.

Scalar entry points are memoized top-down recursions over exact Python
integers.  alpha, beta and gamma are defined as parity convolutions with
Thue-Morse but computed only by their doubling recursions; calling
parity_convolve with thue_morse evaluates the definition and is the
independent check on them.  The *_range / parity_convolve_range functions
fill prefixes fast (numpy int64; every sequence here stays far below 2^63
on the ranges we sweep, and the scalar paths remain the exact reference).
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


def stern_range(n_max: int) -> list:
    """[u_0, ..., u_{n_max-1}] by one bottom-up pass."""
    if n_max <= 0:
        return []
    out = [1] * min(n_max, 2)
    for n in range(2, n_max):
        half = n >> 1
        out.append(out[half] if n & 1 else out[half] + out[half - 1])
    return out


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


def carlitz_range(n_max: int) -> np.ndarray:
    import numpy as np

    ones = np.ones(n_max, dtype=np.int64)
    return parity_convolve_range(ones, ones)


def thue_morse(n: int) -> int:
    """t_n = +1 or -1 by bit-count parity; t_{2n} = t_n, t_{2n+1} = -t_n."""
    if n < 0:
        raise ValueError("negative index")
    return -1 if n.bit_count() & 1 else 1


@lru_cache(maxsize=None)
def alpha(n: int) -> int:
    """Convolution of Thue-Morse with the constant 1; alpha_{2n} =
    alpha_n - alpha_{n-1}, alpha_{2n+1} = alpha_n, alpha_0 = alpha_1 = 1."""
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
    if n <= 1:
        return 1 if n == 0 else -1
    half = n >> 1
    if n & 1:
        return -gamma(half)
    return gamma(half) + gamma(half - 1)


def _rec_range(n_max: int, base0: int, base1: int, even_sign: int, odd_sign: int) -> list:
    # shared doubling fill: s_{2n} = s_n + even_sign*s_{n-1}, s_{2n+1} = odd_sign*s_n
    if n_max <= 0:
        return []
    out = [base0, base1][:n_max]
    for n in range(2, n_max):
        half = n >> 1
        out.append(odd_sign * out[half] if n & 1 else out[half] + even_sign * out[half - 1])
    return out


def alpha_range(n_max: int) -> list:
    return _rec_range(n_max, 1, 1, -1, 1)


def beta_range(n_max: int) -> list:
    return _rec_range(n_max, 1, -1, -1, -1)


def gamma_range(n_max: int) -> list:
    return _rec_range(n_max, 1, -1, 1, -1)


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

