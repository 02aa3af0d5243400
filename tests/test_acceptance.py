"""Acceptance gate: eleven exact-identity criteria with wall-clock budgets.

Run with -v to get one pass/fail line per criterion.  Every criterion
measures its own elapsed time and fails when it exceeds the stated budget,
so a pass line certifies both the identity and the cost.
"""

import random
import time

import numpy as np

from lacunary.automaton import (
    build_dfao,
    find_algebraic_relation,
    orbit,
    signed_dfao,
    verify_relation,
)
from lacunary.bits import EpsilonSpec, LambdaSpec
from lacunary.contfrac import build_F, cf_expand, convergents
from lacunary.dyadic import (
    Dyadic,
    binom_parity_dyadic,
    digit_pair_period,
    halfsum_binom_halving,
    kernel_range,
    kernel_value,
    leading_ones,
    leading_zeros,
    parse_omega,
)
from lacunary.oeis import PROFILES, check_oeis
from lacunary.periodic import detect_ultimate_period
from lacunary.qseries import (
    chebyshev_u_scaled_range,
    is_polynomial,
    pell_check_mod2,
    q_omega_window,
    q_poly,
    q_support_flags,
    q_term_count_range,
)
from lacunary.rings import SparsePoly, gf2_mul, reduce_mod2
from lacunary.stern import (
    carlitz_window,
    doubling_window,
    fold_w,
    fold_z,
    parity_convolve_range,
    thue_morse,
)

MERS = LambdaSpec.mersenne()
ZERO = EpsilonSpec.zero()
EPS_10 = EpsilonSpec((), (1, 0))
LIST_LAM = LambdaSpec.from_list([1, 4, 9, 19, 39])
RULE_LAM = LambdaSpec.from_list([3 * 2**q - 2 for q in range(16)])


def _budget(t0, seconds, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{label}: {elapsed:.1f} s exceeds {seconds} s budget"


def _closed_form_mask(n):
    """GF2 mask of the closed form for integer n >= 0, built inline from
    the digitwise dominance condition alone."""
    mask = 0
    for k in range(n + 1):
        if ((2 * k + 1) & ~(n + k + 1)) == 0:
            mask |= 1 << k
    return mask


def _signed_closed_form(n, eps, mubar):
    """Q_n for integer n >= 0 with Mersenne exponents; term k has the sign
    of the parity of its 10-block count plus mubar(k, eps)."""
    mask = _closed_form_mask(n)
    return SparsePoly.build([
        (k, -1 if (((k >> 1) & ~k).bit_count() + mubar(k, eps)) & 1 else 1)
        for k in range(n + 1) if (mask >> k) & 1
    ])


def _mubar_digit(k, eps):
    # digit q of k carries eps_q - eps_{q-1}: the reading the package uses
    return sum(eps.value(q) - eps.value(q - 1)
               for q in range(k.bit_length()) if (k >> q) & 1) & 1


def _mubar_spec_q(k, eps):
    # rival reading: digit q of k carries eps_{q-1} - eps_{q-2}
    return sum(eps.value(q - 1) - eps.value(q - 2)
               for q in range(k.bit_length()) if (k >> q) & 1) & 1


def test_criterion_01_term_count_law():
    t0 = time.perf_counter()
    counts = q_term_count_range(4097)
    assert counts.tolist() == doubling_window("u", 0, 4096).tolist()
    rng = random.Random(1)
    sample = list(range(129)) + [rng.randrange(129, 4097) for _ in range(40)]
    for n in sample:
        assert q_poly(n, MERS, ZERO).term_count() == counts[n], n
    _budget(t0, 10, "criterion 1")


def test_criterion_02_cf_equals_closed_form():
    t0 = time.perf_counter()
    configs = [
        (MERS, ZERO, 1 << 14, 24),
        (MERS, EPS_10, 1 << 14, 24),
        (LIST_LAM, ZERO, 78, None),
    ]
    for lam, eps, precision, cap in configs:
        cf = cf_expand(build_F(lam, eps, precision), cap)
        conv = convergents(cf)
        assert conv.certified >= 13, (precision, conv.certified)
        for n in range(conv.certified):
            assert q_poly(n, lam, eps) == conv.q[n], n
    # the same battery adjudicates the sign-rule reading: built the same
    # way, the digit reading matches the expansion and the rival
    # per-position variant disagrees with it somewhere
    conv = convergents(cf_expand(build_F(MERS, EPS_10, 4096), 12))
    for n in range(13):
        assert _signed_closed_form(n, EPS_10, _mubar_digit) == conv.q[n], n
    rival_breaks = any(
        _signed_closed_form(n, EPS_10, _mubar_spec_q) != conv.q[n] for n in range(13)
    )
    assert rival_breaks
    _budget(t0, 60, "criterion 2")


def test_criterion_03_negative_index_reflection():
    t0 = time.perf_counter()
    for eps in (ZERO, EPS_10):
        for lam, top in ((MERS, 64), (RULE_LAM, 64), (LIST_LAM, 33)):
            for n in range(2, top + 1):
                assert q_poly(-n, lam, eps) == q_poly(n - 2, lam, eps), (n, eps)
            assert q_poly(-1, lam, eps).term_count() == 0
    _budget(t0, 5, "criterion 3")


def test_criterion_04_mod2_congruences():
    t0 = time.perf_counter()
    conv = convergents(cf_expand(build_F(MERS, ZERO, 4096), 40))
    assert conv.certified == 41
    for n in range(1, conv.certified):
        assert reduce_mod2(conv.p[n]) == reduce_mod2(conv.q[n - 1]), n
    masks = [_closed_form_mask(n) for n in range(1026)]
    for n in range(1, 1025):
        lhs = gf2_mul(masks[n], masks[n]) ^ gf2_mul(masks[n + 1], masks[n - 1])
        assert lhs == 1, n
    for text in ("rat:1/3", "rat:-1/3", "rat:1/5"):
        assert pell_check_mod2(parse_omega(text), 256), text
    _budget(t0, 30, "criterion 4")


def test_criterion_05_chebyshev_mod2():
    t0 = time.perf_counter()
    cheb = chebyshev_u_scaled_range(1023)
    for n in range(513):
        assert reduce_mod2(q_poly(n, MERS, ZERO)) == reduce_mod2(cheb[n]), n
    stern = doubling_window("u", 0, 1023).tolist()
    for n in range(1024):
        odd = sum(1 for _, c in cheb[n].terms if c % 2)
        assert odd == stern[n], n
    _budget(t0, 10, "criterion 5")


def test_criterion_06_polynomiality_dichotomy():
    t0 = time.perf_counter()
    for n in (5, -7, 12):
        w = Dyadic.from_int(n)
        bound = n if n >= 0 else -n - 2
        verdict, degree = is_polynomial(w, MERS)
        assert verdict == "yes" and degree == bound
        flags = q_support_flags(w, bound + 64)
        assert flags[bound] == 1
        assert not any(flags[bound + 1:])
    horizon = (1 << 13) + 64
    for text in ("rat:1/3", "rat:1/5", "rat:-1/3"):
        w = parse_omega(text)
        assert is_polynomial(w, MERS) == ("no", None)
        flags = q_support_flags(w, horizon)
        for e in range(13):
            assert any(flags[(1 << e) + 1:]), (text, e)
        assert detect_ultimate_period(flags, max_preperiod=256, max_period=64) is None
    _budget(t0, 20, "criterion 6")


def test_criterion_07_automaticity():
    t0 = time.perf_counter()
    omegas = ["rat:1/3", "rat:-1/3", "rat:1/5", "rat:3/7", "int:-5"]
    for text in omegas:
        w = parse_omega(text)
        pre, cyc = orbit(w)
        bound = 3 * (len(pre) + len(cyc)) + 1
        for tag in ("f", "g", "h"):
            d = build_dfao(w, tag)
            assert len(d) <= bound, (text, tag)
            assert np.array_equal(d.evaluate_all(16), kernel_range(w, (1 << 16) - 1, tag))
        sd = signed_dfao(w, EPS_10)
        signed = sd.evaluate_all(14).tolist()
        dense = [0] * (1 << 14)
        exps, coeffs = q_omega_window(w, MERS, EPS_10, (1 << 14) - 1)
        for e, c in zip(exps.tolist(), coeffs.tolist()):
            dense[e] = c
        assert signed == dense, text
    _budget(t0, 60, "criterion 7")


def test_criterion_08_algebraic_certificate():
    t0 = time.perf_counter()
    flags = kernel_range(parse_omega("rat:1/3"), 4095, "f")
    rel = find_algebraic_relation(flags, 4, 64, 4096)
    assert rel is not None and rel.kind == "generic"
    assert any(rel.coeffs)
    assert verify_relation(rel, flags)
    squares = [0] * 4096
    k = 0
    while k * k < 4096:
        squares[k * k] = 1
        k += 1
    assert find_algebraic_relation(squares, 4, 64, 4096) is None
    _budget(t0, 120, "criterion 8")


def test_criterion_09_sequence_remarks():
    t0 = time.perf_counter()
    n9 = 10**4
    expect = [(1, -1, 0)[n % 3] for n in range(n9)]
    assert doubling_window("gamma", 0, n9 - 1).tolist() == expect
    n = 1 << 12
    tm = [thue_morse(r) for r in range(n)]
    ones = [1] * n
    assert doubling_window("alpha", 0, n - 1).tolist() == parity_convolve_range(tm, ones).tolist()
    assert doubling_window("beta", 0, n - 1).tolist() == parity_convolve_range(ones, tm).tolist()
    assert doubling_window("gamma", 0, n - 1).tolist() == parity_convolve_range(tm, tm).tolist()
    for m in range(1 << 14):
        assert fold_w(2 * m) == (1 if m % 2 == 0 else -1)
        assert fold_z(2 * m + 1) == fold_z(m)
    n = 1 << 14
    assert carlitz_window(0, n - 1).tolist() == doubling_window("u", 0, n - 1).tolist()
    _budget(t0, 10, "criterion 9")


def test_criterion_10_oeis_fixtures():
    t0 = time.perf_counter()
    for seq_id in sorted(PROFILES):
        report = check_oeis(seq_id)
        assert report.ok, report.summary()
    _budget(t0, 5, "criterion 10")


def _random_rational(rng):
    b = 2 * rng.randrange(0, 32) + 1
    a = rng.randrange(-(1 << 16), 1 << 16)
    return Dyadic.from_rational(a, b)


def test_criterion_11_digit_lemma_suite():
    t0 = time.perf_counter()
    rng = random.Random("acceptance:digit-lemmas")

    # (i) adding 2^j toggles the digit-pair binomial
    for _ in range(1000):
        w = _random_rational(rng)
        j = rng.randrange(0, 64)
        got = binom_parity_dyadic(w.add_int(1 << j), 1 << (j + 1))
        assert got == (w.digit(j) ^ w.digit(j + 1))

    # (ii)(iii) rational inputs have an ultimately periodic pair stream
    # that reproduces the digits
    for _ in range(1000):
        w = _random_rational(rng)
        found = digit_pair_period(w, 360)
        assert found is not None
        pre_len, cycle = found
        for j in range(pre_len, pre_len + 2 * len(cycle)):
            assert (w.digit(j) ^ w.digit(j + 1)) == cycle[(j - pre_len) % len(cycle)]
    assert digit_pair_period(parse_omega("stream:thue-morse"), 240) is None

    # (iv) half-sum equals the shifted odd binomial, and the explicit
    # halving route agrees whenever the parities line up
    for _ in range(1000):
        w = _random_rational(rng)
        k = rng.randrange(0, 1 << 10)
        direct = kernel_value(w, k, "f")
        assert direct == binom_parity_dyadic(w.add_int(k + 1), 2 * k + 1)
        if w.parity() == (k & 1):
            assert direct == halfsum_binom_halving(w, k)

    # (v) peeling the leading ones reduces to the even kernel
    done = 0
    while done < 1000:
        w = _random_rational(rng)
        if w == Dyadic.from_int(-1):
            continue
        ell = leading_ones(w)
        wp = w
        for _ in range(ell + 1):
            wp = wp.shift()
        kp = rng.randrange(0, 1 << 10)
        k = (1 << ell) - 1 + (kp << (ell + 1))
        assert kernel_value(w, k, "f") == kernel_value(wp, kp, "g")
        done += 1

    # (vi) the odd-part refinement reduces to the half-sum again
    done = 0
    while done < 1000:
        w = _random_rational(rng)
        if w == Dyadic.from_int(-1):
            continue
        ell = leading_ones(w)
        u = w
        for _ in range(ell + 1):
            u = u.shift()
        if u == Dyadic.from_int(0):
            continue
        j = leading_zeros(u)
        wp = u
        for _ in range(j + 1):
            wp = wp.shift()
        kp = rng.randrange(0, 1 << 10)
        k = (1 << ell) - 1 + ((((2 * kp + 1) << j)) << (ell + 1))
        assert kernel_value(w, k, "f") == kernel_value(wp, kp, "f")
        done += 1

    _budget(t0, 10, "criterion 11")
