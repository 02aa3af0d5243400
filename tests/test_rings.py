"""Polynomial arithmetic over Z and GF(2), and the series window guard."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacunary.contfrac import LaurentSeries, cf_expand, fold_expand
from lacunary.rings import (
    NEG_INF,
    SparsePoly,
    flags_to_mask,
    gf2_mul,
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

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(4, 2), 2.0, True])
    def test_coefficients_are_ints_only(self, c):
        with pytest.raises(TypeError, match="integer coefficient expected"):
            poly_q((1, c))

    def test_scale_term_count(self):
        p = poly_q((3, 2), (0, -1))
        assert -p == poly_q((3, -2), (0, 1))
        assert p.term_count() == 2

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(polys)
    def test_additive_inverse(self, a):
        assert a + (-a) == SparsePoly.zero()


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

    # Operands of 1 to 5000 bits, kept sparse so that the product over Z
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
        assert flags_to_mask(np.array(flags, dtype=bool)) == want

    def test_reduce_mod2(self):
        p = poly_q((4, 3), (2, -2), (0, 1))
        assert reduce_mod2(p) == 0b10001

    @given(polys, polys)
    def test_reduce_is_ring_map(self, a, b):
        assert reduce_mod2(a * b) == gf2_mul(reduce_mod2(a), reduce_mod2(b))
        assert reduce_mod2(a + b) == reduce_mod2(a) ^ reduce_mod2(b)


_NONZERO_TEXT = re.compile(r"-?[1-9][0-9]*")


def _poly_doc_problem(doc):
    """README's polynomial shape, as a check on what poly_to_json writes:
    None when doc is an object with ring "Q" and terms a list of
    [exponent, coefficient] pairs, exponents ints >= 0 in increasing order
    and coefficients the text str() writes for a nonzero int; otherwise
    the field it breaks."""
    if type(doc) is not dict:
        return "document"
    if doc.get("ring") != "Q":
        return "ring"
    terms = doc.get("terms")
    if type(terms) is not list:
        return "terms"
    last = -1
    for i, term in enumerate(terms):
        if type(term) is not list or len(term) != 2:
            return f"terms[{i}]"
        e, c = term
        if type(e) is not int or e <= last:
            return f"terms[{i}] exponent"
        if type(c) is not str or not _NONZERO_TEXT.fullmatch(c):
            return f"terms[{i}] coefficient"
        last = e
    return None


class TestJson:
    def test_layout_q(self):
        p = poly_q((2, -7), (0, 5), (9, 10**40))
        d = poly_to_json(p)
        assert d == {"ring": "Q", "terms": [[0, "5"], [2, "-7"], [9, "1" + "0" * 40]]}

    @given(st.lists(st.tuples(exps, st.integers(-10**30, 10**30)), max_size=6).map(SparsePoly.build))
    def test_writes_the_shape(self, p):
        d = poly_to_json(p)
        assert _poly_doc_problem(d) is None
        assert SparsePoly.build((e, int(c)) for e, c in d["terms"]) == p

    def test_gf2_lift_is_written_over_q(self):
        # a GF(2) mask is written as its 0/1 lift over Z and reduces back
        d = poly_to_json(lift(0b10010))
        assert d == {"ring": "Q", "terms": [[1, "1"], [4, "1"]]}
        assert reduce_mod2(SparsePoly.build((e, int(c)) for e, c in d["terms"])) == 0b10010

    # The shape check itself names the field of each broken document, so a
    # writer that drifted from the shape could not pass the tests above;
    # int() or Fraction() would read most of these as a polynomial.
    @pytest.mark.parametrize("doc, field", [
        ({"ring": "Q", "terms": [[1.5, "1"], [True, "2"]]}, "terms[0] exponent"),
        ({"ring": "Q", "terms": [[True, "2"]]}, "terms[0] exponent"),
        ({"ring": "Q", "terms": [["1", "2"]]}, "terms[0] exponent"),
        ({"ring": "Q", "terms": [[0, "1"], [-1, "1"]]}, "terms[1] exponent"),
        ({"ring": "Q", "terms": [[2, "1"], [1, "1"]]}, "terms[1] exponent"),
        ({"ring": "Q", "terms": [[1, "1"], [1, "1"]]}, "terms[1] exponent"),
        ({"ring": "Q", "terms": [[0, 1]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, True]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, "1/2"]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, "1.0"]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, "+1"]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, " 1"]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, "01"]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, "-0"]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, "0"]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, "1_0"]]}, "terms[0] coefficient"),
        ({"ring": "Q", "terms": [[0, "1", "2"]]}, "terms[0]"),
        ({"ring": "Q", "terms": [(0, "1")]}, "terms[0]"),
        ({"ring": "Q"}, "terms"),
        ({"ring": "Q", "terms": {"0": "1"}}, "terms"),
        ({"ring": "GF2", "terms": [[0, "1"]]}, "ring"),
        ([["0", "1"]], "document"),
    ], ids=["float-exponent", "bool-exponent", "str-exponent", "negative-exponent",
            "decreasing-exponent", "repeated-exponent", "number-coefficient",
            "bool-coefficient", "ratio-coefficient", "point-coefficient",
            "plus-coefficient", "space-coefficient", "leading-zero-coefficient",
            "minus-zero-coefficient", "zero-coefficient", "underscore-coefficient",
            "triple-term", "tuple-term", "no-terms", "terms-object", "other-ring",
            "not-an-object"])
    def test_check_rejects(self, doc, field):
        assert _poly_doc_problem(doc) == field


class TestLaurentSeries:
    def test_window_guard(self):
        # a coefficient below -cutoff is not part of the window
        s = LaurentSeries({-1: 1, -9: 5}, cutoff=8)
        t = LaurentSeries({-1: 1}, cutoff=8)
        assert cf_expand(s) == cf_expand(t) and fold_expand(s) == fold_expand(t)
