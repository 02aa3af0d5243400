"""Diatomic sequences and relatives."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacunary import stern
from lacunary.stern import (
    alpha,
    beta,
    carlitz_window,
    doubling_window,
    fold_v,
    fold_w,
    fold_z,
    gamma,
    parity_convolve,
    parity_convolve_range,
    stern_carlitz,
    stern_u,
    stern_v,
    thue_morse,
)


class TestSternU:
    def test_head(self):
        assert [stern_u(n) for n in range(16)] == [
            1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4, 1,
        ]

    def test_negative_table(self):
        assert [stern_u(n) for n in range(-4, 5)] == [2, 1, 1, 0, 1, 1, 2, 1, 3]

    def test_reflection(self):
        for n in range(2, 200):
            assert stern_u(-n) == stern_u(n - 2)
        assert stern_u(-1) == 0

    @given(st.integers(-(1 << 12), 1 << 12))
    def test_doubling_everywhere(self, m):
        assert stern_u(2 * m) == stern_u(m) + stern_u(m - 1)
        assert stern_u(2 * m + 1) == stern_u(m)

    def test_range_matches_scalar(self):
        assert window("u", 0, 299) == [stern_u(n) for n in range(300)]

    @given(st.integers(0, 1 << 12))
    def test_carlitz_formula_against_comb(self, n):
        # independent oracle: count odd C(n-r, r) over 2r <= n
        want = sum(comb(n - r, r) % 2 for r in range(n // 2 + 1))
        assert stern_u(n) == want
        assert stern_carlitz(n) == want

    def test_carlitz_range_vectorized(self):
        assert carlitz(0, 2047) == window("u", 0, 2047)

    def test_variant_v(self):
        assert [stern_v(n) for n in range(8)] == [0, 1, 1, 2, 1, 3, 2, 3]
        for n in range(256):
            assert stern_v(n + 1) == stern_u(n)
        with pytest.raises(ValueError):
            stern_v(-1)


SCALARS = {"u": stern_u, "v": stern_v, "alpha": alpha, "beta": beta, "gamma": gamma}


def scalar_table(which, a, b):
    return [SCALARS[which](n) for n in range(a, b + 1)]


def window(which, a, b):
    """doubling_window(which, a, b) as a list of Python ints, once its
    container is the one it must be: the prefix's list of Python ints while
    the window reads no index past 2 * _PREFIX (u_{-n} reads u_{n-2}), an
    int64 array below 2^88 and an object array of Python ints from there."""
    vals = doubling_window(which, a, b)
    top = max(b, -a - 2)
    if a > b or top <= 2 * stern._PREFIX:
        assert type(vals) is list and all(type(x) is int for x in vals)
        return vals
    assert type(vals) is np.ndarray and vals.shape == (b - a + 1,)
    assert vals.dtype == (np.int64 if top < 1 << 88 else object)
    vals = vals.tolist()
    assert all(type(x) is int for x in vals)
    return vals


def carlitz(a, b):
    """carlitz_window(a, b), an int64 array, as a list."""
    vals = carlitz_window(a, b)
    assert type(vals) is np.ndarray and vals.dtype == np.int64
    return vals.tolist()


class TestWindows:
    @pytest.mark.parametrize("which", sorted(SCALARS))
    def test_smallest_windows(self, which):
        for a, b in ((0, 0), (1, 1), (0, 1), (2, 2), (0, 2)):
            assert window(which, a, b) == scalar_table(which, a, b)
        assert window(which, 5, 4) == []

    @pytest.mark.parametrize("which", sorted(SCALARS))
    def test_around_prefix_cutoff(self, which):
        cut = stern._PREFIX
        for a in range(cut - 3, cut + 5):
            for b in (a, a + 1, a + 6, 2 * cut + 3, 4 * cut + 1):
                assert window(which, a, b) == scalar_table(which, a, b), (a, b)

    @pytest.mark.parametrize("which", sorted(SCALARS))
    @pytest.mark.parametrize("a, b", [
        (10 ** 15, 10 ** 15 + 100),
        ((1 << 40) - 100, (1 << 40) + 100),
        ((1 << 40) + 1, (1 << 40) + 1),
        (12345, 14000),
        ((1 << 88) - 300, (1 << 88) + 300),   # b >= 2^88: Python ints
        (1 << 100, (1 << 100) + 700),
        # about the largest u_n below 2^88 (61 bits, int64) and below 2^100
        # (69 bits, Python ints)
        ((2 << 88) // 3 - 300, (2 << 88) // 3 + 300),
        ((2 << 100) // 3 - 300, (2 << 100) // 3 + 300),
    ])
    def test_far_windows(self, which, a, b):
        assert window(which, a, b) == scalar_table(which, a, b)

    @given(st.sampled_from(sorted(SCALARS)),
           st.one_of(st.integers(0, 1 << 11), st.integers(0, 1 << 100)),
           st.integers(0, 1500))
    def test_random_windows(self, which, a, width):
        # window() checks the container: a prefix list, past 2^88 an object
        # array of Python ints, otherwise int64
        assert window(which, a, a + width) == scalar_table(which, a, a + width)

    @pytest.mark.parametrize("which", sorted(SCALARS))
    def test_windows_from_the_prefix(self, which):
        # b = 2 * _PREFIX = 128 is filled index by index; from 129 on, one
        # array level, which re-sets s_0 and s_1 when it starts below 2
        for a in (0, 1, 2, 63, 64, 65):
            for b in (128, 129, 130, 131):
                assert window(which, a, b) == scalar_table(which, a, b), (a, b)

    @pytest.mark.parametrize("a, b", [
        (-1, -1), (-2, -2), (-3, -1), (-2, 0), (-5, 5), (-300, 40), (-40, 300),
        (-10 ** 15 - 50, -10 ** 15 + 50),
        # both parts past the prefix, one part past it, and a far start
        (-1000, 1000), (-1000, 40), (-40, 1000), (-131, 5), (-5, 129),
        (-100000 - 7, 300),
    ])
    def test_u_across_zero(self, a, b):
        assert window("u", a, b) == scalar_table("u", a, b)

    def test_negative_only_for_u(self):
        with pytest.raises(ValueError, match="n >= 0"):
            doubling_window("alpha", -1, 3)

    @pytest.mark.parametrize("a, b", [
        (0, 0), (1, 1), (0, 1), (2, 2), (3000, 3000),
        (0, 700), (1000, 1700), (1800, 3100),
    ])
    def test_carlitz_window(self, a, b):
        assert carlitz(a, b) == scalar_table("u", a, b)

    @given(st.integers(0, 1 << 13), st.integers(0, 64))
    def test_carlitz_window_against_the_cell_sum(self, a, width):
        # the plain sum over r, not the Stern recursion, is the oracle
        b = min(a + width, 1 << 13)
        assert carlitz(a, b) == [stern_carlitz(n) for n in range(a, b + 1)]

    @pytest.mark.parametrize("a, b", [
        (10 ** 15, 10 ** 15 + 1000),
        ((1 << 62) - 1001, (1 << 62) - 1),   # 62 bits, the int64 limit
    ])
    def test_carlitz_far_windows(self, a, b):
        assert carlitz(a, b) == window("u", a, b)

    @pytest.mark.parametrize("a, b", [
        (0, stern._BLOCK + 5),   # the second block's n are one bit longer
        (10 ** 15 - 7, 10 ** 15 + 2 * stern._BLOCK),   # three blocks
        (stern._BLOCK - 1, stern._BLOCK),   # one n on each side
    ])
    def test_carlitz_window_over_blocks(self, a, b):
        assert carlitz(a, b) == window("u", a, b)

    def test_carlitz_window_limits(self):
        assert carlitz(9, 8) == []
        with pytest.raises(ValueError, match="negative"):
            carlitz_window(-1, 4)
        with pytest.raises(ValueError, match="2\\^62"):
            carlitz_window(1 << 62, 1 << 62)


class TestTransforms:
    def test_parity_convolve_scalar(self):
        # sum over r <= n with C(n-r, r) odd of a(r) b(n-r); all-ones counts
        assert parity_convolve(lambda r: 1, lambda s: 1, 6) == stern_u(6)

    def test_parity_convolve_range(self):
        ones = np.ones(512, dtype=np.int64)
        assert parity_convolve_range(ones, ones).tolist() == window("u", 0, 511)

    def test_thue_morse(self):
        assert [thue_morse(n) for n in range(8)] == [1, -1, -1, 1, -1, 1, 1, -1]


class TestSigned:
    def test_alpha_head(self):
        # A005590 shifted: alpha(n) = a(n+1) there
        assert [alpha(n) for n in range(10)] == [1, 1, 0, 1, -1, 0, 1, 1, -2, -1]

    def test_beta_head(self):
        assert [beta(n) for n in range(10)] == [1, -1, -2, 1, -1, 2, 3, -1, -2, 1]

    def test_gamma_period_three(self):
        for n in range(3000):
            assert gamma(n) == (1, -1, 0)[n % 3]

    def test_ranges_match_scalars(self):
        assert window("alpha", 0, 199) == [alpha(n) for n in range(200)]
        assert window("beta", 0, 199) == [beta(n) for n in range(200)]
        assert window("gamma", 0, 199) == [gamma(n) for n in range(200)]

    @given(st.integers(0, 1 << 10))
    def test_dual_paths(self, n):
        assert alpha(n) == parity_convolve(thue_morse, lambda s: 1, n)
        assert beta(n) == parity_convolve(lambda r: 1, thue_morse, n)
        assert gamma(n) == parity_convolve(thue_morse, thue_morse, n)

    def test_recurrences(self):
        for n in range(1, 400):
            assert alpha(2 * n) == alpha(n) - alpha(n - 1)
            assert alpha(2 * n + 1) == alpha(n)
            assert beta(2 * n) == beta(n) - beta(n - 1)
            assert beta(2 * n + 1) == -beta(n)
            assert gamma(2 * n) == gamma(n) + gamma(n - 1)
            assert gamma(2 * n + 1) == -gamma(n)

    @pytest.mark.parametrize("fn", [alpha, beta, gamma])
    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_index_rejected(self, fn, n):
        with pytest.raises(ValueError, match="negative index"):
            fn(n)


class TestPaperfolding:
    def test_v_head(self):
        assert [fold_v(n) for n in range(8)] == [1, 1, -1, 1, -1, -1, -1, 1]

    @given(st.integers(0, 1 << 14))
    def test_v_relations(self, n):
        assert fold_v(2 * n + 1) == fold_v(n)
        assert fold_v(4 * n) == fold_v(2 * n)
        assert fold_v(4 * n + 2) == -fold_v(n)

    @given(st.integers(0, 1 << 14))
    def test_w_and_z(self, n):
        assert fold_w(n) == fold_v(n) * fold_v(n + 1)
        assert fold_w(2 * n) == (-1) ** n
        assert fold_z(2 * n) == -((-1) ** n)
        assert fold_z(2 * n + 1) == fold_z(n)

    def test_z_base(self):
        assert fold_z(0) == -1
