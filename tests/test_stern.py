"""Diatomic sequences and relatives."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from lacunary import stern
from lacunary.stern import (
    alpha,
    alpha_range,
    beta,
    beta_range,
    carlitz_range,
    carlitz_window,
    doubling_window,
    fold_v,
    fold_w,
    fold_z,
    gamma,
    gamma_range,
    parity_convolve,
    parity_convolve_range,
    stern_carlitz,
    stern_range,
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
        assert stern_range(300) == [stern_u(n) for n in range(300)]

    @given(st.integers(0, 1 << 12))
    def test_carlitz_formula_against_comb(self, n):
        # independent oracle: count odd C(n-r, r) over 2r <= n
        want = sum(comb(n - r, r) % 2 for r in range(n // 2 + 1))
        assert stern_u(n) == want
        assert stern_carlitz(n) == want

    def test_carlitz_range_vectorized(self):
        assert carlitz_range(2048).tolist() == stern_range(2048)

    def test_variant_v(self):
        assert [stern_v(n) for n in range(8)] == [0, 1, 1, 2, 1, 3, 2, 3]
        for n in range(256):
            assert stern_v(n + 1) == stern_u(n)
        with pytest.raises(ValueError):
            stern_v(-1)


SCALARS = {"u": stern_u, "v": stern_v, "alpha": alpha, "beta": beta, "gamma": gamma}


def scalar_table(which, a, b):
    return [SCALARS[which](n) for n in range(a, b + 1)]


class TestWindows:
    @pytest.mark.parametrize("which", sorted(SCALARS))
    def test_smallest_windows(self, which):
        for a, b in ((0, 0), (1, 1), (0, 1), (2, 2), (0, 2)):
            assert doubling_window(which, a, b) == scalar_table(which, a, b)
        assert doubling_window(which, 5, 4) == []

    @pytest.mark.parametrize("which", sorted(SCALARS))
    def test_around_prefix_cutoff(self, which):
        cut = stern._PREFIX
        for a in range(cut - 3, cut + 5):
            for b in (a, a + 1, a + 6, 2 * cut + 3, 4 * cut + 1):
                assert doubling_window(which, a, b) == scalar_table(which, a, b), (a, b)

    @pytest.mark.parametrize("which", sorted(SCALARS))
    @pytest.mark.parametrize("a, b", [
        (10 ** 15, 10 ** 15 + 100),
        ((1 << 40) - 100, (1 << 40) + 100),
        ((1 << 40) + 1, (1 << 40) + 1),
        (12345, 14000),
    ])
    def test_far_windows(self, which, a, b):
        assert doubling_window(which, a, b) == scalar_table(which, a, b)

    @given(st.sampled_from(sorted(SCALARS)), st.integers(0, 1 << 48), st.integers(0, 70))
    def test_random_windows(self, which, a, width):
        assert doubling_window(which, a, a + width) == scalar_table(which, a, a + width)

    @pytest.mark.parametrize("a, b", [
        (-1, -1), (-2, -2), (-3, -1), (-2, 0), (-5, 5), (-300, 40), (-40, 300),
        (-10 ** 15 - 50, -10 ** 15 + 50),
    ])
    def test_u_across_zero(self, a, b):
        assert doubling_window("u", a, b) == scalar_table("u", a, b)

    def test_negative_only_for_u(self):
        with pytest.raises(ValueError, match="n >= 0"):
            doubling_window("alpha", -1, 3)

    @pytest.mark.parametrize("a, b", [
        (0, 0), (1, 1), (0, 1), (3000, 3000),
        (0, 700),          # three blocks of n
        (1000, 1700),      # several blocks of r for each block of n
        (1800, 3100),
    ])
    def test_carlitz_window(self, a, b):
        assert carlitz_window(a, b) == scalar_table("u", a, b)

    def test_carlitz_single_index_over_two_r_blocks(self):
        # one n, so a block is one row of at most 2^16 values of r
        n = (1 << 17) + 5
        assert carlitz_window(n, n) == [stern_u(n)]

    def test_carlitz_window_limits(self):
        assert carlitz_window(9, 8) == []
        with pytest.raises(ValueError, match="negative"):
            carlitz_window(-1, 4)
        with pytest.raises(ValueError, match="2\\^62"):
            carlitz_window(1 << 62, 1 << 62)


class TestTransforms:
    def test_parity_convolve_scalar(self):
        # sum over r <= n with C(n-r, r) odd of a(r) b(n-r); all-ones counts
        assert parity_convolve(lambda r: 1, lambda s: 1, 6) == stern_u(6)

    def test_parity_convolve_range(self):
        import numpy as np
        ones = np.ones(512, dtype=np.int64)
        assert parity_convolve_range(ones, ones).tolist() == stern_range(512)

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
        assert alpha_range(200) == [alpha(n) for n in range(200)]
        assert beta_range(200) == [beta(n) for n in range(200)]
        assert gamma_range(200) == [gamma(n) for n in range(200)]

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
