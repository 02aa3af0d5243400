"""Closed-form denominators, their 2-adic extension, and comparison families."""

from fractions import Fraction
from itertools import groupby
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lacunary.bits import (
    EpsilonSpec,
    LambdaSpec,
    term_exponent,
    term_sign,
)
from lacunary.contfrac import build_F, cf_expand, convergents
from lacunary.dyadic import Dyadic, kernel_range, kernel_value, parse_omega
from lacunary.qseries import (
    ANumber,
    a_number,
    chebyshev_mask_range,
    chebyshev_u_scaled_range,
    fibonacci_poly,
    is_polynomial,
    morgan_voyce,
    pell_check_mod2,
    q_omega_window,
    q_poly,
    q_support_flags,
    q_term_count_range,
    _term_signs,
)
from lacunary.rings import (
    NEG_INF,
    SparsePoly,
    reduce_mod2,
)
from lacunary.stern import doubling_window

MERS = LambdaSpec.mersenne()
ZERO = EpsilonSpec.zero()


# Everything below is recomputed from scratch: binary strings and math.comb
# only, no imports from the package under test.

def _bits(k):
    return [int(b) for b in bin(k)[2:][::-1]] if k else []


def _runs_sign(k):
    """Count maximal 1-runs not anchored at the lowest bit."""
    if k == 0:
        return 0
    runs = sum(1 for key, _ in groupby(bin(k)[2:]) if key == "1")
    return runs - (k & 1)


def _mubar_digit(k, eps_value):
    total = 0
    for q, b in enumerate(_bits(k)):
        prev = eps_value(q - 1) if q > 0 else 0
        total += b * (eps_value(q) - prev)
    return total % 2


# Two rival readings of the sign-correction parity, kept here only to show
# that the continued fraction rejects them: "spec-q" pairs digit q with
# eps_{q-1} - eps_{q-2}, "literal-k" weights eps_{k-1} - eps_{k-2} by the
# digit count of k.

def _mubar_spec_q(k, eps_value):
    total = 0
    for q, b in enumerate(_bits(k)):
        total += b * (eps_value(q - 1) - eps_value(q - 2))
    return total % 2


def _mubar_literal_k(k, eps_value):
    return (len([b for b in _bits(k) if b]) * (eps_value(k - 1) - eps_value(k - 2))) % 2


RIVALS = {"spec-q": _mubar_spec_q, "literal-k": _mubar_literal_k}


def _binom2(m, k):
    """Parity of C(m, k) for any integer m, nonnegative k."""
    if m >= 0:
        return comb(m, k) % 2 if m >= k else 0
    return comb(-m + k - 1, k) % 2


def _exponent(k, lam_value):
    total = 0
    for q, b in enumerate(_bits(k)):
        total += b * (lam_value(q) - (lam_value(q - 1) if q > 0 else 0))
    return total


def q_poly_oracle(n, lam_value, eps_value, mubar=_mubar_digit):
    """Signed monomial list of Q_n, straight from the definitions, with the
    sign-correction parity mubar (the digit reading unless a rival is given)."""
    bound = n if n >= 0 else -n - 2
    terms = {}
    for k in range(bound + 1):
        if (n + k) % 2:
            continue
        if _binom2((n + k) // 2, k):
            sign = (-1) ** (_runs_sign(k) + mubar(k, eps_value))
            terms[_exponent(k, lam_value)] = sign
    return terms


def _as_terms(p):
    return {e: c for e, c in p.terms}


LIST_LAM = LambdaSpec.from_list([1, 4, 9, 19, 39])
EPS_10 = EpsilonSpec((), (1, 0))
EPS_PRE = EpsilonSpec((1,), (0, 1))


class TestQPoly:
    def test_small_literals(self):
        assert q_poly(0, MERS, ZERO) == SparsePoly.one()
        assert q_poly(-1, MERS, ZERO) == SparsePoly.zero()
        assert _as_terms(q_poly(2, MERS, ZERO)) == {0: 1, 2: -1}

    @pytest.mark.parametrize("eps", [ZERO, EPS_10, EPS_PRE])
    def test_oracle_mersenne(self, eps):
        for n in range(-40, 41):
            got = _as_terms(q_poly(n, MERS, eps))
            assert got == q_poly_oracle(n, lambda q: 2 ** (q + 1) - 1, eps.value), n

    def test_oracle_list_lambda(self):
        vals = [1, 4, 9, 19, 39]
        for n in range(0, 6):
            got = _as_terms(q_poly(n, LIST_LAM, EPS_10))
            assert got == q_poly_oracle(n, lambda q: vals[q], EPS_10.value), n

    def test_oracle_rule_lambda(self):
        lam = LambdaSpec.from_list([3 * 2**q - 2 for q in range(16)])
        for n in range(-12, 13):
            got = _as_terms(q_poly(n, lam, ZERO))
            assert got == q_poly_oracle(n, lambda q: 3 * 2**q - 2, ZERO.value), n

    @given(st.integers(min_value=-200, max_value=200))
    def test_oracle_everywhere(self, n):
        got = _as_terms(q_poly(n, MERS, EPS_10))
        assert got == q_poly_oracle(n, lambda q: 2 ** (q + 1) - 1, EPS_10.value)

    def test_term_counts_are_stern(self):
        counts = q_term_count_range(512)
        assert counts.tolist() == doubling_window("u", 0, 511).tolist()
        for n in range(0, 64):
            assert counts[n] == q_poly(n, MERS, ZERO).term_count()


class TestAdjudication:
    """The sign rule is pinned by the continued fraction itself.

    Alternating sign patterns cannot separate the candidates (every
    consecutive difference is a unit), so the battery includes a pattern
    with a repeated sign.
    """

    BATTERY = [ZERO, EPS_10, EPS_PRE, EpsilonSpec((), (1, 1, 0))]

    def _cf_denominators(self, eps, upto):
        conv = convergents(cf_expand(build_F(MERS, eps, 4096), upto))
        assert conv.certified > upto
        return conv.q

    @pytest.mark.parametrize("eps", BATTERY)
    def test_digit_convention_matches_cf(self, eps):
        qs = self._cf_denominators(eps, 12)
        for n in range(13):
            assert q_poly(n, MERS, eps) == qs[n], n
            assert q_poly_oracle(n, MERS.value, eps.value) == _as_terms(qs[n]), n

    @pytest.mark.parametrize("convention", sorted(RIVALS))
    def test_other_conventions_fail_cf(self, convention):
        mismatch = []
        for eps in self.BATTERY:
            qs = self._cf_denominators(eps, 12)
            mismatch += [
                (eps, n)
                for n in range(13)
                if q_poly_oracle(n, MERS.value, eps.value, RIVALS[convention]) != _as_terms(qs[n])
            ]
        assert mismatch, convention


def _window(w, lam, eps, k_max):
    """q_omega_window's terms as (exponent, coefficient) pairs of Python
    ints, once its two columns are the ones it must return: int64 signs,
    and int64 exponents for Mersenne lambda or a list of Python ints for a
    list lambda."""
    exps, coeffs = q_omega_window(w, lam, eps, k_max)
    assert type(coeffs) is np.ndarray and coeffs.dtype == np.int64
    if lam.is_mersenne:
        assert type(exps) is np.ndarray and exps.dtype == np.int64
        exps = exps.tolist()
    assert type(exps) is list and all(type(e) is int for e in exps)
    assert len(exps) == len(coeffs)
    return list(zip(exps, coeffs.tolist()))


class TestWindow:
    def test_integer_window_matches_poly(self):
        for n in [0, 1, 5, 12, 31]:
            window = _window(Dyadic.from_int(n), MERS, EPS_10, n + 8)
            assert dict(window) == _as_terms(q_poly(n, MERS, EPS_10))

    def test_negative_one_is_empty(self):
        assert _window(Dyadic.from_int(-1), MERS, ZERO, 32) == []

    def test_exponents_strictly_ascend(self):
        window = _window(parse_omega("rat:1/3"), MERS, ZERO, 64)
        exps = [e for e, _ in window]
        assert exps == sorted(exps) and len(set(exps)) == len(exps)

    def test_prefix_stability(self):
        w = parse_omega("rat:-5/7")
        small, large = _window(w, MERS, EPS_10, 32), _window(w, MERS, EPS_10, 96)
        assert large[: len(small)] == small
        assert len(large) > len(small)

    def test_term_agrees_with_window(self):
        w = parse_omega("rat:1/5")
        window = dict(_window(w, MERS, ZERO, 40))
        for k in range(41):
            c = term_sign(k, ZERO) * kernel_value(w, k, "f")
            assert window.get(term_exponent(k, MERS), 0) == c

    def test_support_flags_match_kernel(self):
        w = parse_omega("rat:3/7")
        assert np.array_equal(q_support_flags(w, 50), kernel_range(w, 50, "f"))


class TestPolynomiality:
    def test_integer_yes_with_degree(self):
        assert is_polynomial(Dyadic.from_int(5), MERS) == ("yes", 5)
        assert is_polynomial(Dyadic.from_int(-7), LIST_LAM) == ("yes", term_exponent(5, LIST_LAM))

    def test_negative_one_degree(self):
        assert is_polynomial(Dyadic.from_int(-1), MERS) == ("yes", NEG_INF)

    def test_rational_no(self):
        assert is_polynomial(parse_omega("rat:12/5"), MERS) == ("no", None)

    def test_opaque_unknown(self):
        w = parse_omega("stream:thue-morse")
        assert is_polynomial(w, MERS) == ("unknown", None)


class TestPell:
    @pytest.mark.parametrize("text", ["rat:1/3", "rat:-1/3", "rat:1/5"])
    def test_rational_cases(self, text):
        assert pell_check_mod2(parse_omega(text), 128)

    def test_integer_cases(self):
        for n in [0, 1, 2, 7, -3]:
            assert pell_check_mod2(Dyadic.from_int(n), 64), n


class TestComparisonFamilies:
    def test_chebyshev_literals(self):
        assert _as_terms(chebyshev_u_scaled_range(2)[2]) == {2: 1, 0: -1}
        assert chebyshev_mask_range(2)[2] == 0b101

    def test_chebyshev_negative_index(self):
        for family in (chebyshev_u_scaled_range, chebyshev_mask_range):
            with pytest.raises(ValueError):
                family(-1)

    def test_chebyshev_masks_match_integer_reduction(self):
        polys = chebyshev_u_scaled_range(40)
        masks = chebyshev_mask_range(40)
        for p, m in zip(polys, masks):
            assert reduce_mod2(p) == m

    def test_chebyshev_is_q_mod2(self):
        for n in range(40):
            q2 = reduce_mod2(q_poly(n, MERS, ZERO))
            assert q2 == chebyshev_mask_range(n)[-1]

    def test_fibonacci_recurrence(self):
        x = SparsePoly.x_power(1)
        for m in range(3, 30):
            assert fibonacci_poly(m) == x * fibonacci_poly(m - 1) + fibonacci_poly(m - 2)
        with pytest.raises(ValueError):
            fibonacci_poly(0)

    def test_morgan_voyce_recurrence(self):
        shift = SparsePoly.build([(1, 1), (0, 2)])   # X + 2
        for kind in ("b", "B"):
            seq = [morgan_voyce(n, kind) for n in range(12)]
            for n in range(2, 12):
                assert seq[n] == shift * seq[n - 1] - seq[n - 2], (kind, n)
        assert _as_terms(morgan_voyce(1, "b")) == {0: 1, 1: 1}
        assert _as_terms(morgan_voyce(1, "B")) == {0: 2, 1: 1}
        with pytest.raises(ValueError):
            morgan_voyce(1, "c")


class TestANumber:
    def test_integer_zero(self):
        a = a_number(ZERO, Dyadic.from_int(0), 10, 30)
        assert a.value == 1

    def test_omega_minus_one_vanishes(self):
        a = a_number(ZERO, Dyadic.from_int(-1), 10, 30)
        assert a.value == 0

    def test_partial_sums_settle(self):
        w = parse_omega("rat:1/3")
        small = a_number(EPS_10, w, 10, 20)
        large = a_number(EPS_10, w, 10, 40)
        assert abs(large.value - small.value) <= small.tail_bound

    def test_matches_term_stream(self):
        w = parse_omega("rat:1/3")
        total = Fraction(0)
        flags = kernel_range(w, 25, "f")
        for k in range(26):
            if flags[k]:
                total += Fraction(term_sign(k, EPS_10), 10**k)
        assert a_number(EPS_10, w, 10, 25).value == total

    def test_decimal_rendering(self):
        a = ANumber(1, 3, 10, 0)
        assert a.decimal(5) == "0.33333"
        b = ANumber(-1, 2, 10, 0)
        assert b.decimal(4) == "-0.5000"

    def test_guards(self):
        with pytest.raises(ValueError):
            a_number(ZERO, Dyadic.from_int(1), 1, 5)
        with pytest.raises(ValueError):
            a_number(ZERO, Dyadic.from_int(1), 10, -1)


# The numpy window against the scalar rules term_exponent and term_sign.
_omegas = st.one_of(
    st.tuples(st.integers(-10**6, 10**6), st.integers(-999, 999).filter(lambda b: b % 2))
    .map(lambda ab: Dyadic.from_rational(*ab)),
    st.integers(-10**6, 10**6).map(Dyadic.from_int),
    st.sampled_from(["stream:thue-morse", "stream:paperfolding"]).map(parse_omega),
)
_epsilons = st.builds(
    lambda pre, period: EpsilonSpec(tuple(pre), tuple(period)),
    st.lists(st.integers(0, 1), max_size=5),
    st.lists(st.integers(0, 1), min_size=1, max_size=4),
)


@st.composite
def _lambdas(draw):
    """Mersenne, or a 2-lacunary list of 1 to 13 values (too short for some
    windows) whose tail from a drawn index is scaled, often past 2^63."""
    if draw(st.booleans()):
        return MERS
    values = [draw(st.integers(1, 3))]
    for _ in range(draw(st.integers(0, 12))):
        values.append(2 * values[-1] + draw(st.integers(1, 3)))
    cut = draw(st.integers(0, len(values)))
    scale = draw(st.sampled_from([1, 1 << 50, 1 << 60, 1 << 64]))
    return LambdaSpec.from_list(values[:cut] + [v * scale for v in values[cut:]])


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        if not str(exc).startswith("lambda range: "):
            raise
        return str(exc)


@given(_omegas, _lambdas(), _epsilons, st.integers(0, 3000))
@example(parse_omega("rat:1/3"), LambdaSpec.from_list([1, 3, 7, 1 << 70, 1 << 72]), ZERO, 20)
@example(parse_omega("rat:1/3"), LambdaSpec.from_list([1, 3, 7, 15]), EPS_PRE, 40)
@example(Dyadic.from_int(7), LambdaSpec.from_list([1, 3, (1 << 63) - 1]), EPS_10, 7)  # mu(7) = 2^63 - 1
@example(Dyadic.from_int(7), LambdaSpec.from_list([1, 3, 1 << 63]), EPS_10, 7)
def test_window_matches_scalar_terms(w, lam, eps, k_max):
    def scalar():
        ks = np.flatnonzero(kernel_range(w, k_max, "f")).tolist()
        return [(term_exponent(k, lam), term_sign(k, eps)) for k in ks]

    # _window checks the columns' types, as Python ints or int64
    assert _outcome(lambda: _window(w, lam, eps, k_max)) == _outcome(scalar)


@given(_omegas, _epsilons, st.integers(2, 16), st.integers(0, 600))
def test_a_number_matches_scalar_signs(w, eps, g, terms):
    ks = np.flatnonzero(kernel_range(w, terms, "f")).tolist()
    want = sum((Fraction(term_sign(k, eps), g**k) for k in ks), Fraction(0))
    assert a_number(eps, w, g, terms).value == want


_ANUMBER_OMEGAS = st.one_of(
    st.tuples(st.integers(-10**6, 10**6), st.integers(-999, 999).filter(lambda b: b % 2))
    .map(lambda ab: Dyadic.from_rational(*ab)),
    st.sampled_from(["stream:thue-morse", "stream:paperfolding"]).map(parse_omega),
)


@given(_ANUMBER_OMEGAS, st.sampled_from([ZERO, EPS_10, EPS_PRE]), st.integers(2, 30),
       st.integers(0, 3000))
@example(Dyadic.from_int(-1), ZERO, 10, 30)                  # no surviving term
@example(parse_omega("rat:1/3"), ZERO, 2, 3000)
def test_a_number_pair_is_reduced(w, eps, g, terms):
    # every prime of g^last divides g, and Horner leaves num = +-1 mod g
    a = a_number(eps, w, g, terms)
    ks = np.flatnonzero(kernel_range(w, terms, "f"))
    last = int(ks[-1]) if ks.size else 0
    assert a.den == g**last
    assert gcd(a.num, a.den) == 1


# Windows stop below k = 2^12 here, so the high digits are drawn directly.
_high_ks = st.lists(st.integers(0, (1 << 62) - 1), max_size=20).map(sorted)


@given(_high_ks, _epsilons)
def test_vector_signs_on_high_digits(ks, eps):
    got = _term_signs(np.array(ks, dtype=np.int64), eps).tolist()
    assert got == [term_sign(k, eps) for k in ks]

