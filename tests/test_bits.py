"""Digit combinatorics, exponent sequences, sign data."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from lacunary.bits import (
    EpsilonSpec,
    LambdaSpec,
    binom_parity,
    count_10_blocks,
    count_10_blocks_rec,
    count_10_blocks_scan,
    parse_epsilon_spec,
    parse_lambda_spec,
    term_exponent,
    term_sign,
)


class TestBlocks:
    def test_examples(self):
        # 12 = 1100 has one "10" descent, 10 = 1010 has two
        assert count_10_blocks(12) == 1
        assert count_10_blocks(10) == 2
        assert count_10_blocks(0) == 0
        assert count_10_blocks(1) == 0

    @given(st.integers(0, 1 << 20))
    def test_three_paths_agree(self, k):
        assert count_10_blocks(k) == count_10_blocks_scan(k) == count_10_blocks_rec(k)

    @given(st.integers(0, 1 << 20))
    def test_recurrences(self, n):
        assert count_10_blocks(2 * n + 1) == count_10_blocks(n)
        assert count_10_blocks(2 * n) == count_10_blocks(n) + (n & 1)


class TestBinomParity:
    @given(st.integers(0, 400), st.integers(0, 400))
    def test_against_comb(self, m, k):
        assert binom_parity(m, k) == comb(m, k) % 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binom_parity(-1, 2)


class TestLambdaSpec:
    def test_mersenne_values(self):
        lam = LambdaSpec.mersenne()
        assert [lam.value(q) for q in range(5)] == [1, 3, 7, 15, 31]
        assert lam.value(-1) == 0

    def test_list_exhaustion(self):
        lam = LambdaSpec.from_list([1, 4, 9])
        assert lam.value(2) == 9
        with pytest.raises(ValueError, match=r"^lambda range: index 3 beyond explicit list of length 3$"):
            lam.value(3)

    def test_growth_validated(self):
        # 2 <= 2*1 violates strictness; the whole list is checked when made
        with pytest.raises(ValueError, match=r"lambda_1 = 2 <= 2 \* lambda_0 = 2"):
            LambdaSpec.from_list([1, 2, 5])
        with pytest.raises(ValueError, match="lambda_0 = 0 must be positive"):
            LambdaSpec.from_list([0, 3])
        with pytest.raises(ValueError, match="empty exponent list"):
            LambdaSpec.from_list([])

    def test_rule_variant(self):
        lam = LambdaSpec.from_list([3 * 2**q - 2 for q in range(16)])
        assert [lam.value(q) for q in range(4)] == [1, 4, 10, 22]
        assert lam.gap(2) == 6
        assert lam.value(15) == 3 * 2**15 - 2

    def test_plain_values(self):
        assert LambdaSpec.from_list([1, 4, 10, 22]) == LambdaSpec.from_list((1, 4, 10, 22))
        assert LambdaSpec.mersenne() == LambdaSpec.mersenne()
        assert LambdaSpec.mersenne() != LambdaSpec.from_list([1, 3, 7, 15])
        assert LambdaSpec.from_list([1, 3]).name == "list:1,3"
        assert repr(LambdaSpec.mersenne()) == "LambdaSpec(mersenne)"

    def test_parse(self):
        assert parse_lambda_spec("mersenne").is_mersenne
        lam = parse_lambda_spec("list:1,3,7,15")
        assert [lam.value(q) for q in range(4)] == [1, 3, 7, 15]
        with pytest.raises(ValueError):
            parse_lambda_spec("fibonacci")


class TestEpsilonSpec:
    def test_value_and_sign(self):
        eps = EpsilonSpec((1,), (0, 1))
        assert [eps.value(n) for n in range(6)] == [1, 0, 1, 0, 1, 0]
        assert eps.value(-3) == 0
        assert eps.sign(0) == -1 and eps.sign(1) == 1

    def test_parse(self):
        assert parse_epsilon_spec("period:0") == EpsilonSpec.zero()
        assert parse_epsilon_spec("period:0,1") != EpsilonSpec.zero()
        eps = parse_epsilon_spec("pre:1,0+period:0,1")
        assert eps.pre == (1, 0) and eps.period == (0, 1)
        with pytest.raises(ValueError):
            parse_epsilon_spec("period:")


class TestTermData:
    def test_mersenne_exponent_is_identity(self):
        lam = LambdaSpec.mersenne()
        for k in (0, 1, 5, 100, 12345):
            assert term_exponent(k, lam) == k

    def test_list_exponents(self):
        lam = LambdaSpec.from_list([1, 4, 9, 19, 39])
        # gaps 1, 3, 5, 10, 20 weighted by binary digits of k
        assert term_exponent(0, lam) == 0
        assert term_exponent(1, lam) == 1
        assert term_exponent(2, lam) == 3
        assert term_exponent(3, lam) == 4
        assert term_exponent(31, lam) == 39

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_exponent_strictly_monotone(self, a, b):
        lam = LambdaSpec.from_list([1, 4, 9, 19, 39, 79, 159, 319])
        if a < b:
            assert term_exponent(a, lam) < term_exponent(b, lam)

    def test_sign_zero_eps_is_block_parity(self):
        eps = EpsilonSpec.zero()
        for k in range(256):
            assert term_sign(k, eps) == (-1) ** count_10_blocks(k)

    def test_conventions_differ_observably(self):
        # The rival readings of the sign-correction parity, written out here
        # because the package keeps only the digit rule: "spec-q" pairs digit
        # q with eps_{q-1} - eps_{q-2}, "literal-k" weights eps_{k-1} -
        # eps_{k-2} by the digit count of k.
        def spec_q(k, eps):
            return sum(eps.value(q - 1) - eps.value(q - 2)
                       for q in range(k.bit_length()) if (k >> q) & 1) & 1

        def literal_k(k, eps):
            return (k.bit_count() * (eps.value(k - 1) - eps.value(k - 2))) & 1

        def digit(k, eps):
            # the parity term_sign adds to the 10-block count
            return 0 if term_sign(k, eps) == (-1) ** count_10_blocks(k) else 1

        # one concrete witness per rival, k = 3 with two set digits
        eps = EpsilonSpec((), (1, 0))
        assert digit(3, eps) == 0
        assert spec_q(3, eps) == 1
        eps = EpsilonSpec((), (1, 1, 0))
        assert digit(3, eps) == 1
        assert literal_k(3, eps) == 0

    def test_digit_convention_small_table(self):
        # adjudicated reading, hand-checked against the expansion oracle:
        # eps = (1,0) repeating gives signs -,+,+,+ at k=1..4
        eps = EpsilonSpec((), (1, 0))
        assert [term_sign(k, eps) for k in (1, 2, 3, 4)] == [-1, 1, 1, 1]
