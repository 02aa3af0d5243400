"""Series construction and continued-fraction expansion."""

import pytest
import gc
import weakref

from hypothesis import example, given, strategies as st

from lacunary.bits import EpsilonSpec, LambdaSpec
from lacunary.contfrac import (
    ContinuedFraction,
    Convergents,
    LaurentSeries,
    _divmod,
    build_F,
    cf_expand,
    convergent_side,
    convergents,
    fold_expand,
    phi_oracle,
)
from lacunary.rings import NEG_INF, SparsePoly, reduce_mod2

MERS = LambdaSpec.mersenne()
ZERO = EpsilonSpec.zero()


class TestBuildF:
    def test_window_coefficients(self):
        f = build_F(MERS, ZERO, 40)
        assert f.cutoff == 40
        assert f.coeffs == {-1: 1, -3: 1, -7: 1, -15: 1, -31: 1}

    def test_signs_follow_eps(self):
        f = build_F(MERS, EpsilonSpec((), (1, 0)), 20)
        assert f.coeffs == {-1: -1, -3: 1, -7: -1, -15: 1}

    def test_precision_below_first_exponent(self):
        with pytest.raises(ValueError, match=r"^precision: window 0 ends above first exponent 1$"):
            build_F(MERS, ZERO, 0)

    def test_list_completion_rule(self):
        lam = LambdaSpec.from_list([1, 4, 9, 19, 39])
        # completable while the forced next exponent (> 78) clears the window
        f = build_F(lam, ZERO, 78)
        assert f.coeffs.get(-39, 0) == 1
        with pytest.raises(ValueError, match="lambda range"):
            build_F(lam, ZERO, 79)

    def test_extension_deepens_window(self):
        f = build_F(MERS, ZERO, 16)
        assert f.cutoff == 16 and -31 not in f.coeffs
        g = build_F(MERS, ZERO, 64)
        assert g.coeffs.get(-31, 0) == 1
        for e in range(-1, -17, -1):
            assert g.coeffs.get(e, 0) == f.coeffs.get(e, 0), e


_terms = st.lists(st.tuples(st.integers(0, 16), st.integers(-2, 2)), max_size=12)
_leads = st.sampled_from([1, -1])
_coeffs = st.sampled_from([1, -1, 2, -3, 5])


@given(_terms, _terms, _terms, st.integers(0, 10), _leads)
def test_divmod_is_division_with_remainder(mult_terms, rest_terms, tail_terms, deg, lead):
    den = SparsePoly.build([(e % (deg + 1), c) for e, c in tail_terms if e % (deg + 1) < deg]
                           + [(deg, lead)])
    # a multiple of den plus noise, so exact divisions and cancellations occur
    num = SparsePoly.build(mult_terms) * den + SparsePoly.build(rest_terms)
    q, r = _divmod(dict(num.terms), dict(den.terms))
    # checked through SparsePoly arithmetic, not through _divmod's own loop
    assert SparsePoly.build(q.items()) * den + SparsePoly.build(r.items()) == num
    assert max(r, default=NEG_INF) < deg
    assert all(r.values()) and all(q.values())
    assert all(type(c) is int for c in (*q.values(), *r.values()))


@pytest.mark.parametrize("lead", [2, -3, 5])
def test_divmod_needs_a_unit_lead(lead):
    # X^2 / (lead X) would leave Z; even an exact division by a non-unit
    # lead is refused, as no Euclid step of a +-1 window divides by one
    for num in ({2: 1}, {2: lead}):
        with pytest.raises(ArithmeticError, match=f"divisor leads with {lead} at X\\^1"):
            _divmod(num, {1: lead, 0: 1})


_quotients = st.lists(
    st.lists(st.tuples(st.integers(0, 4), _coeffs), max_size=3).map(SparsePoly.build),
    min_size=1, max_size=6,
)


@given(_quotients)
def test_convergents_follow_the_recurrence(quotients):
    conv = convergents(ContinuedFraction(tuple(quotients), len(quotients), None, False))
    one, zero = SparsePoly.one(), SparsePoly.zero()
    for seq, before, first in ((conv.p, one, quotients[0]), (conv.q, zero, one)):
        # checked through SparsePoly's product and sum, not the merge
        want = [before, first]
        for a in quotients[1:]:
            want.append(a * want[-1] + want[-2])
        assert list(seq) == want[1:]
        assert all(type(c) is int for p in seq for _, c in p.terms)


@given(_quotients, st.integers(0, 6))
@example([SparsePoly.build([(2, -3)])], 1)                                # a lone A_0
@example([SparsePoly.zero(), SparsePoly.build([(1, 2), (0, 3)])], 2)
def test_convergents_are_the_two_sides(quotients, certified):
    cf = ContinuedFraction(tuple(quotients), min(certified, len(quotients)), None, False)
    sides = [convergent_side(cf.quotients, side) for side in ("p", "q")]
    assert convergents(cf) == Convergents(*map(tuple, sides), certified=cf.certified)


def test_side_holds_only_the_last_two():
    # X_n for n >= 1 is formed by the recurrence, so nothing but the
    # generator can hold it once the caller lets it go
    x = SparsePoly.x_power(1)
    for side in ("p", "q"):
        refs = []
        for n, poly in enumerate(convergent_side((x,) * 12, side)):
            refs.append(weakref.ref(poly))
            del poly
            gc.collect()
            assert [i for i, r in enumerate(refs[1:], 1) if r() is not None] == \
                list(range(max(1, n - 1), n + 1)), (side, n)


def _assert_best_approx(f, conv, i):
    """F * Q_i - P_i must vanish at every exponent >= -deg Q_i that the
    window fixes (those >= deg Q_i - N): the polynomial X^N (F * Q_i - P_i)
    has no term at or above N + max(-deg Q_i, deg Q_i - N)."""
    n = f.cutoff
    q, p = conv.q[i], conv.p[i]
    residual = SparsePoly.build((e + n, c) for e, c in f.coeffs.items()) * q - p * SparsePoly.x_power(n)
    lo = n + max(-q.degree, q.degree - n)
    assert residual.degree < lo, f"residual term at X^{residual.degree - n} for convergent {i}"


class TestExpansion:
    def test_quotients_have_degree_one_each(self):
        cf = cf_expand(build_F(MERS, ZERO, 128), 6)
        assert cf.quotients[0] == SparsePoly.zero()
        for q in cf.quotients[1:]:
            assert q.degree == 1

    def test_best_approximation_property(self):
        f = build_F(MERS, ZERO, 256)
        cf = cf_expand(f, 7)
        conv = convergents(cf)
        for i in range(conv.certified):
            _assert_best_approx(f, conv, i)

    def test_best_approximation_nonzero_eps(self):
        f = build_F(MERS, EpsilonSpec((1,), (0, 1)), 256)
        conv = convergents(cf_expand(f, 7))
        for i in range(conv.certified):
            _assert_best_approx(f, conv, i)

    def test_determinant_alternates(self):
        conv = convergents(cf_expand(build_F(MERS, ZERO, 128), 6))
        one = SparsePoly.one()
        for i in range(len(conv.p) - 1):
            det = conv.p[i + 1] * conv.q[i] - conv.p[i] * conv.q[i + 1]
            assert det == (one if i % 2 == 0 else -one)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="max_quotients must be nonnegative"):
            cf_expand(build_F(MERS, ZERO, 64), -3)

    def test_uncertifiable_first_quotient(self):
        f = build_F(MERS, ZERO, 1)
        with pytest.raises(ValueError, match="precision"):
            cf_expand(f, 3)

    def test_budget_and_certification_counts(self):
        cf = cf_expand(build_F(MERS, ZERO, 64), 4)
        assert len(cf.quotients) == 5        # A_0 plus the budget
        assert cf.certified == 5
        assert not cf.terminated

    def test_uncertified_tail_is_visible(self):
        cf = cf_expand(build_F(MERS, ZERO, 20))
        assert cf.certified < len(cf.quotients)
        assert cf.quotients[: cf.certified] == cf_expand(
            build_F(MERS, ZERO, 40), cf.certified - 1
        ).quotients[: cf.certified]

    def test_terminating_input(self):
        # X^-1 + X^-3 = (X^2 + 1) / X^3 expands to its end as [0; X, -X, -X]
        cf = cf_expand(build_F(MERS, ZERO, 3), 10)
        assert cf.terminated
        assert cf.precision == 3
        x = SparsePoly.x_power(1)
        assert cf.quotients == (SparsePoly.zero(), x, -x, -x)

    def test_integrality_enforcement(self):
        # 2/X + 1/X^2 would have a non-integral certified quotient, which no
        # window of +-1 at 2-lacunary exponents has; no flag asks for the check
        with pytest.raises(ArithmeticError, match="divisor leads with 2 at X\\^7"):
            cf_expand(LaurentSeries({-1: 2, -2: 1}, cutoff=8))

    def test_refuses_to_leave_z_past_the_certified_prefix(self):
        # 1/X + 2/X^3 = [0; X, -X/2]: the second quotient is uncertified at
        # this window, and the remainder -2X it divides by is refused all the
        # same; a cap that stops before that division expands
        f = LaurentSeries({-1: 1, -3: 2}, cutoff=3)
        for cap in (None, 2, 5):
            with pytest.raises(ArithmeticError, match="divisor leads with -2 at X\\^1"):
                cf_expand(f, cap)
        cf = cf_expand(f, 1)
        assert (cf.quotients, cf.certified) == ((SparsePoly.zero(), SparsePoly.x_power(1)), 2)

    def test_fold_recovers_prefix(self):
        # the convergents of the certified quotient prefix are the prefix of
        # the convergents of the whole expansion, uncertified tail included
        cf = cf_expand(build_F(MERS, ZERO, 128))
        upto = cf.certified
        assert upto < len(cf.quotients)
        head = convergents(
            ContinuedFraction(cf.quotients[:upto], upto, cf.precision, cf.terminated)
        )
        conv = convergents(cf)
        assert (head.p, head.q) == (conv.p[:upto], conv.q[:upto])


def _outcome(expand, f, cap):
    try:
        return expand(f, cap)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _lacunary_windows(draw):
    """build_F windows of strictly 2-lacunary series with +-1 signs."""
    pre = draw(st.lists(st.integers(0, 1), max_size=3))
    period = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    eps = EpsilonSpec(tuple(pre), tuple(period))
    if draw(st.booleans()):
        return build_F(MERS, eps, draw(st.integers(1, 300)))
    vals = [draw(st.integers(1, 4))]
    for _ in range(draw(st.integers(0, 5))):
        vals.append(2 * vals[-1] + 1 + draw(st.integers(0, vals[-1] + 1)))
    # any window from lambda_0 to 2 * lambda_last is complete from the list
    return build_F(LambdaSpec.from_list(vals), eps, draw(st.integers(vals[0], 2 * vals[-1])))


_caps = st.one_of(st.none(), st.sampled_from([-1, 0, 10**6]), st.integers(1, 12))


# lambda = 2, 7, 21: deg Q_i runs 2, 5, 7, 14, 16, 19, 21 and A_1 has degree 2
_LAM_2_7_21 = LambdaSpec.from_list([2, 7, 21])


class TestFold:
    @given(_lacunary_windows(), _caps)
    # a window of exactly 2 deg Q_4 + 1 certifies A_4, one short of it does not
    @example(f=build_F(_LAM_2_7_21, ZERO, 29), cap=None)
    @example(f=build_F(_LAM_2_7_21, ZERO, 28), cap=None)
    @example(f=build_F(_LAM_2_7_21, EpsilonSpec((1,), (0, 1)), 29), cap=4)
    @example(f=build_F(_LAM_2_7_21, EpsilonSpec((1,), (0, 1)), 28), cap=4)
    # A_1 needs a window of 5: at 4 it is an error unless the cap leaves it out
    @example(f=build_F(_LAM_2_7_21, ZERO, 4), cap=None)
    @example(f=build_F(_LAM_2_7_21, ZERO, 4), cap=0)
    @example(f=build_F(_LAM_2_7_21, ZERO, 4), cap=1)
    def test_fold_matches_euclid(self, f, cap):
        assert _outcome(fold_expand, f, cap) == _outcome(cf_expand, f, cap)

    @pytest.mark.parametrize("eps", [ZERO, EpsilonSpec((1,), (0, 1))])
    def test_each_distinct_quotient_is_one_object(self, eps):
        cf = fold_expand(build_F(MERS, eps, 4096))
        distinct = {quot.terms for quot in cf.quotients}
        assert len(cf.quotients) > 100 * len(distinct)
        assert len(set(map(id, cf.quotients))) == len(distinct)

    @pytest.mark.parametrize("eps", [ZERO, EpsilonSpec((1,), (0, 1))])
    def test_deep_windows(self, eps):
        # at 4095 = 2 * 2047 + 1 the last term lands on the window's edge
        for window in (4095, 4096):
            f = build_F(MERS, eps, window)
            cf = fold_expand(f)
            assert cf == cf_expand(f)
            assert (len(cf.quotients), cf.certified, cf.terminated) == (2049, 2048, False)

    @pytest.mark.parametrize("coeffs", [
        {-1: 1, -2: 1},             # 2 <= 2 * 1
        {-3: 1, -6: -1},            # 6 <= 2 * 3
        {-1: 1, -3: 2},             # coefficient 2
        {1: 1, -3: 1},              # exponent above X^-1
    ])
    def test_rejects_non_lacunary_window(self, coeffs):
        with pytest.raises(ValueError, match="2-lacunary"):
            fold_expand(LaurentSeries(coeffs, cutoff=16))


class TestPhiOracle:
    def test_mod2_agreement(self):
        conv = convergents(cf_expand(build_F(MERS, ZERO, 512), 8))
        phi = phi_oracle(8)
        for i in range(conv.certified):
            assert reduce_mod2(conv.q[i]) == reduce_mod2(phi.q[i])

    def test_numerator_lag(self):
        phi = phi_oracle(40)
        for n in range(1, 41):
            assert phi.p[n] == phi.q[n - 1]
