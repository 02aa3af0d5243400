"""2-adic integers: digits, windows, binomial parity, kernels."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacunary.dyadic import (
    Dyadic,
    NotTwoAdicError,
    OpaqueStreamError,
    StreamDepthError,
    binom_parity_dyadic,
    digit_pair_period,
    halfsum_binom_halving,
    kernel_range,
    kernel_value,
    leading_ones,
    leading_zeros,
    numerator_orbit,
    parse_omega,
)
from lacunary.stern import stern_u

odd = st.integers(0, 400).map(lambda n: 2 * n + 1)
signed_odd = st.integers(-400, 400).map(lambda n: 2 * n + 1)


def digits_oracle(a, b, length):
    """Digit window of a/b straight from the residue, one modulus, no orbit."""
    inv = pow(b, -1, 1 << length)
    return (a * inv) & ((1 << length) - 1)


class TestConstruction:
    def test_from_int_digits(self):
        w = Dyadic.from_int(6)
        assert [w.digit(j) for j in range(4)] == [0, 1, 1, 0]
        assert Dyadic.from_int(-1).digits_window(8) == 0xFF

    def test_from_rational_canonical(self):
        w = Dyadic.from_rational(1, 3)
        assert w.classify() == "rational-non-integer"
        assert w.pre == (1,) and w.per == (1, 0)
        assert Dyadic.from_rational(2, 6) == w

    def test_from_rational_integer_collapse(self):
        assert Dyadic.from_rational(10, 5).classify() == "integer"
        assert Dyadic.from_rational(10, 5) == Dyadic.from_int(2)

    def test_even_denominator_rejected(self):
        with pytest.raises(NotTwoAdicError, match="not a 2-adic integer"):
            Dyadic.from_rational(1, 4)

    def test_from_bits_round_trip(self):
        w = Dyadic.from_bits((1, 0), (0, 1, 1))
        num, den = w.to_rational()
        assert (num * pow(den, -1, 1 << 62) - w.digits_window(62)) % (1 << 62) == 0
        assert Dyadic.from_rational(num, den) == w

    @given(st.integers(-10**6, 10**6), odd)
    def test_window_matches_residue(self, a, b):
        w = Dyadic.from_rational(a, b)
        assert w.digits_window(48) == digits_oracle(a, b, 48)

    @given(st.integers(-10**6, 10**6), odd)
    def test_to_rational_round_trip(self, a, b):
        num, den = Dyadic.from_rational(a, b).to_rational()
        assert Fraction(num, den) == Fraction(a, b)

    def test_shift_peels_one_digit(self):
        w = Dyadic.from_rational(1, 3)          # digits 1,1,0,1,0,...
        s = w.shift()
        assert s.to_rational() == (-1, 3)       # (1/3 - 1)/2
        assert Dyadic.from_int(6).shift() == Dyadic.from_int(3)

    def test_add_int(self):
        w = Dyadic.from_rational(1, 3).add_int(2)
        assert w.to_rational() == (7, 3)

    def test_classify(self):
        assert Dyadic.from_int(-7).classify() == "integer"
        assert Dyadic.from_rational(3, 5).classify() == "rational-non-integer"
        s = Dyadic.from_stream(lambda j: 0, 64, "zeros")
        assert s.classify() == "unknown"


class TestIntegerIsRational:
    """An integer n is the fraction n/1: every operation on it is the
    rational formula at den == 1, checked against Python's two's complement."""

    @given(st.integers(-10**12, 10**12), signed_odd, st.integers(-10**6, 10**6))
    def test_collapsed_form(self, n, b, m):
        w = Dyadic.from_rational(n * b, b)
        assert w == Dyadic.from_int(n)
        assert hash(w) == hash(Dyadic.from_int(n))
        for length in range(81):
            assert w.digits_window(length) == n & ((1 << length) - 1), length
        assert w.shift() == Dyadic.from_int(n >> 1)
        assert w.add_int(m) == Dyadic.from_int(n + m)
        assert w.describe() == str(n)
        assert w.classify() == "integer"
        assert w.pre == () and w.per == ()

    def test_integer_differs_from_non_integer(self):
        assert Dyadic.from_int(1) != Dyadic.from_rational(1, 3)
        assert repr(Dyadic.from_int(-6)) == "Dyadic(-6)"
        assert repr(Dyadic.from_rational(-1, 3)) == "Dyadic(-1/3)"


class TestStreams:
    def test_depth_guard(self):
        s = Dyadic.from_stream(lambda j: 1, 16, "ones")
        assert s.digits_window(16) == 0xFFFF
        with pytest.raises(StreamDepthError, match="stream exhausted"):
            s.digits_window(17)

    def test_window_reads_each_digit_once(self):
        calls = []

        def rule(j):
            calls.append(j)
            return 2 + (j & 1)   # digits are the values mod 2

        s = Dyadic.from_stream(rule, 64, "two-three")
        digits = sum(s.digit(j) << j for j in range(8))
        calls.clear()
        assert s.digits_window(8) == digits == 0b10101010
        assert calls == list(range(8))

    def test_identity_equality_and_no_cycle(self):
        s = Dyadic.from_stream(lambda j: 0, 64, "zeros")
        t = Dyadic.from_stream(lambda j: 0, 64, "zeros")
        assert s == s and s != t and s != Dyadic.from_int(0)
        assert s.pre == () and s.per == ()
        assert repr(s) == "Dyadic(stream:zeros)"

    def test_opaque_operations(self):
        s = Dyadic.from_stream(lambda j: 0, 64, "zeros")
        with pytest.raises(OpaqueStreamError, match="unsupported on opaque stream"):
            s.add_int(1)
        with pytest.raises(OpaqueStreamError):
            s.to_rational()


class TestParseOmega:
    def test_forms(self):
        assert parse_omega("int:-5") == Dyadic.from_int(-5)
        assert parse_omega("rat:1/3") == Dyadic.from_rational(1, 3)
        w = parse_omega("bits:pre=1,0;period=0,1")
        assert w == Dyadic.from_bits((1, 0), (0, 1))
        tm = parse_omega("stream:thue-morse")
        assert [tm.digit(j) for j in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_paperfolding_stream(self):
        pf = parse_omega("stream:paperfolding")
        # regular folds: 1, 1, 0, 1, 1, 0, 0, 1, ...
        assert [pf.digit(j) for j in range(8)] == [1, 1, 0, 1, 1, 0, 0, 1]

    def test_rejects(self):
        with pytest.raises(ValueError):
            parse_omega("float:1.5")
        with pytest.raises(NotTwoAdicError):
            parse_omega("rat:1/6")
        with pytest.raises(ValueError):
            parse_omega("rat:1/0")


class TestBinomParity:
    @given(st.integers(0, 3000), st.integers(0, 200))
    def test_nonnegative_matches_comb(self, m, k):
        assert binom_parity_dyadic(Dyadic.from_int(m), k) == comb(m, k) % 2

    @given(st.integers(1, 200), st.integers(0, 200))
    def test_negative_reflection(self, ell, k):
        # C(-ell, k) = (-1)^k C(ell+k-1, k): parity ignores the sign
        got = binom_parity_dyadic(Dyadic.from_int(-ell), k)
        assert got == comb(ell + k - 1, k) % 2

    def test_all_ones_dominates_everything(self):
        w = Dyadic.from_int(-1)
        for k in (0, 1, 17, 1023, 65535):
            assert binom_parity_dyadic(w, k) == 1


class TestHalfsum:
    @given(st.integers(0, 600), st.integers(0, 120))
    def test_integer_case_against_comb(self, n, k):
        want = comb((n + k) // 2, k) % 2 if (n + k) % 2 == 0 else 0
        assert kernel_value(Dyadic.from_int(n), k, "f") == want

    @given(st.integers(-300, 600), st.integers(0, 64))
    def test_halving_route_agrees(self, n, k):
        w = Dyadic.from_int(n)
        if (n - k) % 2 == 0:
            assert kernel_value(w, k, "f") == halfsum_binom_halving(w, k)
        else:
            assert kernel_value(w, k, "f") == 0

    def test_parity_mismatch_is_zero(self):
        assert kernel_value(Dyadic.from_int(2), 1, "f") == 0
        assert kernel_value(Dyadic.from_rational(1, 3), 0, "f") == 0

    def test_kernel_value_and_range_agree(self):
        for w in (Dyadic.from_int(9), Dyadic.from_rational(3, 7)):
            for tag in ("f", "g", "h"):
                flags = kernel_range(w, 40, tag)
                assert flags.dtype == bool
                assert np.array_equal(flags, [kernel_value(w, k, tag) for k in range(41)])

    def test_kernel_base_values(self):
        for w in (Dyadic.from_int(4), Dyadic.from_int(7), Dyadic.from_rational(1, 5)):
            assert kernel_value(w, 0, "g") == 1
            assert kernel_value(w, 0, "h") == w.parity()
            assert kernel_value(w, 0, "f") == 1 - w.parity()

    @pytest.mark.parametrize("tag, upper, lower", [
        ("f", lambda n, k: n + k + 1, lambda k: 2 * k + 1),
        ("g", lambda n, k: n + k, lambda k: 2 * k),
        ("h", lambda n, k: n + k, lambda k: 2 * k + 1),
    ])
    @given(n=st.integers(0, 600), k=st.integers(0, 120))
    def test_kernel_tags_against_comb(self, tag, upper, lower, n, k):
        assert kernel_value(Dyadic.from_int(n), k, tag) == comb(upper(n, k), lower(k)) % 2

    def test_unknown_tag_rejected(self):
        w = Dyadic.from_int(5)
        with pytest.raises(ValueError, match="unknown tag 'x'"):
            kernel_value(w, 3, "x")
        with pytest.raises(ValueError, match="unknown tag 'x'"):
            kernel_range(w, 3, "x")

    @pytest.mark.parametrize("n", [5460, 10922])
    def test_kernel_count_past_a_byte(self, n):
        # u_5460 = 377 and u_10922 = 610: a count that a uint8 flag array
        # or a byte-wide sum would wrap
        assert stern_u(n) > 255
        flags = kernel_range(Dyadic.from_int(n), n)
        assert flags.dtype == bool
        assert np.count_nonzero(flags) == stern_u(n)

    @pytest.mark.parametrize("w", [Dyadic.from_rational(-7, 101), Dyadic.from_int(-12345),
                                   parse_omega("stream:paperfolding")])
    def test_kernel_range_across_blocks(self, w):
        # numpy fills 2^16 values of k per block: sample every block edge
        k_max = 3 * (1 << 16) + 5
        for tag in ("f", "g", "h"):
            flags = kernel_range(w, k_max, tag)
            assert len(flags) == k_max + 1
            for edge in (0, 1 << 16, 2 << 16, 3 << 16):
                for k in range(max(0, edge - 3), min(k_max, edge + 3) + 1):
                    assert flags[k] == kernel_value(w, k, tag), (tag, k)

    @pytest.mark.parametrize("k_max", [1 << 62, 1 << 80])
    def test_kernel_range_window_fits_uint64(self, k_max):
        # refused before anything is allocated
        with pytest.raises(ValueError, match="uint64 holds 64"):
            kernel_range(Dyadic.from_int(3), k_max)

    @given(st.integers(-400, 400), odd, st.integers(0, 80))
    def test_f_is_g_plus_h_mod2(self, a, b, k):
        w = Dyadic.from_rational(a, b)
        f = kernel_value(w, k, "f")
        g = kernel_value(w, k, "g")
        h = kernel_value(w, k, "h")
        assert f == (g + h) % 2


class TestNumeratorOrbit:
    def test_one_third(self):
        # 1/3 -> -1/3 -> -2/3 -> -1/3: the cycle starts at index 1
        assert numerator_orbit(1, 3) == ([1, -1, -2], 1)

    @pytest.mark.parametrize("limit", [3, 4, 100])
    def test_limit_at_or_past_the_orbit_changes_nothing(self, limit):
        assert numerator_orbit(1, 3, limit) == numerator_orbit(1, 3)

    @pytest.mark.parametrize("limit", [0, 1, 2])
    def test_limit_below_the_orbit_cuts_it(self, limit):
        assert numerator_orbit(1, 3, limit) == ([1, -1, -2][:limit], None)

    def test_limit_bounds_a_long_walk(self):
        # 1/1000003 has 1000003 numerators; the walk reads only five, the
        # first five shifts of the value
        w = Dyadic.from_rational(1, 1000003)
        shifts = []
        for _ in range(5):
            shifts.append(w.num)
            w = w.shift()
        assert numerator_orbit(1, 1000003, 5) == (shifts, None)


class TestDigitStructure:
    def test_pair_period_examples(self):
        assert digit_pair_period(Dyadic.from_rational(1, 3), 96) == (1, (1,))
        assert digit_pair_period(Dyadic.from_int(6), 96) == (3, (0,))

    def test_leading_runs(self):
        assert leading_ones(Dyadic.from_rational(1, 3)) == 2
        assert leading_zeros(Dyadic.from_int(8)) == 3
        with pytest.raises(ValueError):
            leading_zeros(Dyadic.from_int(0))
        with pytest.raises(ValueError):
            leading_ones(Dyadic.from_int(-1))
