"""Polynomial arithmetic over Q and GF(2), and the series window guard."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacunary.contfrac import LaurentSeries
from lacunary.rings import (
    NEG_INF,
    NotReducibleError,
    SeriesPrecisionError,
    SparsePoly,
    flags_to_mask,
    gf2_mul,
    poly_from_json,
    poly_to_json,
    reduce_mod2,
)

x = SparsePoly.x_power


def poly_q(*terms):
    return SparsePoly.build(terms)


def lift(mask):
    """The 0/1 integer polynomial whose reduction mod 2 is `mask`."""
    return SparsePoly.build((e, 1) for e in range(mask.bit_length()) if mask >> e & 1)


coeffs = st.integers(-9, 9)
exps = st.integers(0, 12)
polys = st.lists(st.tuples(exps, coeffs), max_size=5).map(SparsePoly.build)


class TestSparsePoly:
    def test_build_merges_and_drops_zeros(self):
        p = poly_q((2, 1), (2, -1), (0, 3), (5, 0))
        assert p.terms == ((0, 3),)

    def test_degree_of_zero_is_minus_infinity(self):
        z = SparsePoly.zero()
        assert z.degree is NEG_INF
        assert NEG_INF < 0 and NEG_INF < -(10**9)

    def test_arith_small(self):
        p = poly_q((1, 1), (0, 1))        # X + 1
        q = poly_q((1, 1), (0, -1))       # X - 1
        assert p * q == poly_q((2, 1), (0, -1))
        assert p + q == poly_q((1, 2))
        assert p - p == SparsePoly.zero()

    def test_fraction_coefficients(self):
        p = poly_q((1, Fraction(1, 2)))
        assert (p + p) == x(1)
        assert p.coeff(1) == Fraction(1, 2)

    def test_ring_mismatch(self):
        # polynomials are over Q only; GF(2) values are int masks, never JSON polys
        with pytest.raises(ValueError, match="unknown ring 'GF2'"):
            poly_from_json({"ring": "GF2", "terms": [[0, "1"]]})

    def test_scale_shift_term_count(self):
        p = poly_q((3, 2), (0, -1))
        assert p.scale(-1) == poly_q((3, -2), (0, 1))
        assert p.shift(2) == poly_q((5, 2), (2, -1))
        assert p.term_count() == 2

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(polys)
    def test_additive_inverse(self, a):
        assert a + a.scale(-1) == SparsePoly.zero()


class TestGF2:
    def test_mask_round_trip(self):
        p = poly_q((0, 1), (3, 1))
        assert reduce_mod2(p) == 0b1001
        assert lift(0b1001) == p

    def test_carry_less_product(self):
        # (1+X)(1+X) = 1+X^2 over GF2
        assert gf2_mul(0b11, 0b11) == 0b101

    @given(st.integers(0, 1 << 16), st.integers(0, 1 << 16))
    def test_gf2_mul_matches_poly_product(self, a, b):
        assert gf2_mul(a, b) == reduce_mod2(lift(a) * lift(b))

    # Operands of 1 to 5000 bits, kept sparse so that the product over Q
    # stays cheap: the byte table of gf2_mul meets many byte boundaries.
    @given(st.sets(st.integers(0, 4999), min_size=1, max_size=48),
           st.sets(st.integers(0, 4999), min_size=1, max_size=48))
    def test_gf2_mul_long_sparse_operands(self, a_bits, b_bits):
        a = sum(1 << e for e in a_bits)
        b = sum(1 << e for e in b_bits)
        assert gf2_mul(a, b) == reduce_mod2(lift(a) * lift(b))

    @pytest.mark.parametrize("bits", [1, 7, 8, 9, 63, 64, 65, 255, 256, 257, 600])
    def test_gf2_mul_dense_operands(self, bits):
        rng = random.Random(bits)
        a = rng.getrandbits(bits) | 1 << (bits - 1)
        b = rng.getrandbits(bits) | 1 << (bits - 1)
        assert gf2_mul(a, b) == reduce_mod2(lift(a) * lift(b))

    @pytest.mark.parametrize("bits", [1, 8, 9, 1000, 5000])
    def test_gf2_mul_zero_single_bit_all_ones(self, bits):
        ones = (1 << bits) - 1
        top = 1 << (bits - 1)
        for m in (ones, top, 1):
            assert gf2_mul(0, m) == 0 and gf2_mul(m, 0) == 0
            assert gf2_mul(top, m) == m << (bits - 1) == gf2_mul(m, top)
        # (1 + X + ... + X^(n-1))^2 = 1 + X^2 + ... + X^(2n-2) over GF(2)
        square = sum(1 << (2 * e) for e in range(bits))
        assert gf2_mul(ones, ones) == square
        if bits <= 1000:
            assert square == reduce_mod2(lift(ones) * lift(ones))

    @pytest.mark.parametrize("seed", range(4))
    def test_gf2_mul_unequal_density(self, seed):
        rng = random.Random(seed)
        dense = rng.getrandbits(5000) | 1 << 4999
        sparse = sum(1 << rng.randrange(5000) for _ in range(3)) or 1
        want = reduce_mod2(lift(sparse) * lift(dense))
        assert gf2_mul(sparse, dense) == want == gf2_mul(dense, sparse)

    @given(st.lists(st.integers(-2, 2), max_size=200))
    def test_flags_to_mask_matches_bit_loop(self, flags):
        want = 0
        for k, v in enumerate(flags):
            if v:
                want |= 1 << k
        assert flags_to_mask(flags) == want
        assert flags_to_mask(iter(flags)) == want
        assert flags_to_mask(np.array(flags, dtype=bool)) == want

    def test_reduce_mod2(self):
        p = poly_q((4, 3), (2, -2), (0, 1))
        assert reduce_mod2(p) == 0b10001

    def test_reduce_rejects_even_denominator(self):
        p = poly_q((0, Fraction(1, 2)))
        with pytest.raises(NotReducibleError, match="not reducible"):
            reduce_mod2(p)

    def test_reduce_rejects_any_nonintegral(self):
        # the map is defined on integer coefficients only, unit or not
        p = poly_q((0, Fraction(1, 3)))
        with pytest.raises(NotReducibleError, match="not reducible"):
            reduce_mod2(p)

    def test_reduce_accepts_integral_fraction(self):
        p = poly_q((1, Fraction(4, 2)))
        assert reduce_mod2(p) == 0

    @given(polys, polys)
    def test_reduce_is_ring_map(self, a, b):
        assert reduce_mod2(a * b) == gf2_mul(reduce_mod2(a), reduce_mod2(b))
        assert reduce_mod2(a + b) == reduce_mod2(a) ^ reduce_mod2(b)


class TestJson:
    def test_round_trip_q(self):
        p = poly_q((2, Fraction(-7, 3)), (0, 5))
        d = poly_to_json(p)
        assert d["ring"] == "Q"
        assert all(isinstance(c, str) for _, c in d["terms"])
        assert poly_from_json(d) == p

    def test_round_trip_gf2(self):
        # a GF(2) mask travels as its 0/1 lift over Q and reduces back
        p = lift(0b10010)
        assert poly_from_json(poly_to_json(p)) == p
        assert reduce_mod2(poly_from_json(poly_to_json(p))) == 0b10010


class TestLaurentSeries:
    def test_window_guard(self):
        s = LaurentSeries({-1: 1}, cutoff=8)
        assert s.coeff(-1) == 1
        assert s.coeff(-8) == 0
        with pytest.raises(SeriesPrecisionError):
            s.coeff(-9)
