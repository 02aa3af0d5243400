"""Named, runnable checks for every documented invariant in the package.

Each check is a pure function raising AssertionError on violation; the
runner times them and reports one line per check in a canonical order.
Any other exception a check raises is reported as that check's failure.
Two effort levels: "quick" trims ranges for interactive use, "full" runs
the documented bounds.  Randomized checks derive their generator from the
seed and the check name, so reruns are reproducible.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .automaton import (
    build_dfao,
    find_algebraic_relation,
    orbit,
    signed_dfao,
    verify_relation,
)
from .bits import (EpsilonSpec, LambdaSpec, binom_parity, count_10_blocks, count_10_blocks_rec,
                   term_exponent, term_sign)
from .contfrac import (
    ContinuedFraction,
    build_F,
    cf_expand,
    convergents,
    fold_expand,
    phi_oracle,
)
from .dyadic import (
    Dyadic,
    binom_parity_dyadic,
    digit_pair_period,
    halfsum_binom_halving,
    kernel_range,
    kernel_value,
    leading_ones,
    leading_zeros,
)
from .jsontext import layout
from .periodic import detect_ultimate_period
from .qseries import (
    chebyshev_mask_range,
    chebyshev_u_scaled_range,
    fibonacci_poly,
    is_polynomial,
    morgan_voyce,
    pell_check_mod2,
    q_poly,
    q_support_flags,
    q_term_count_range,
    a_number,
)
from .rings import (
    SparsePoly,
    flags_to_mask,
    gf2_mul,
    reduce_mod2,
)
from .stern import (
    alpha,
    beta,
    carlitz_range,
    carlitz_window,
    fold_v,
    gamma,
    gamma_range,
    parity_convolve,
    stern_range,
    stern_u,
    stern_v,
    thue_morse,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _n(level: str, quick: int, full: int) -> int:
    return full if level == "full" else quick


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _rand_poly(rng, max_deg=6, max_terms=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append((rng.randint(0, max_deg), rng.randint(-9, 9)))
    return SparsePoly.build(terms)


def _rand_mask(rng, max_deg=6, max_terms=4):
    m = 0
    for _ in range(rng.randint(0, max_terms)):
        m ^= 1 << rng.randint(0, max_deg)
    return m


def _rand_rational_dyadic(rng, periodic_only=False) -> Dyadic:
    while True:
        b = 2 * rng.randint(1, 500) + 1
        a = rng.randint(-1000, 1000)
        w = Dyadic.from_rational(a, b)
        if w.classify() == "rational-non-integer":
            return w
        if not periodic_only:
            return w


def _rand_dyadic(rng) -> Dyadic:
    if rng.random() < 0.4:
        return Dyadic.from_int(rng.randint(-(1 << 16), 1 << 16))
    return _rand_rational_dyadic(rng)


# ---------------------------------------------------------------- core-arith

def check_ring_axioms(level, rng):
    trials = _n(level, 20, 100)
    for _ in range(trials):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c), "addition associativity"
        assert (a * b) * c == a * (b * c), "multiplication associativity"
        assert a * (b + c) == a * b + a * c, "distributivity"
        assert a + b == b + a and a * b == b * a, "commutativity"
    for _ in range(trials):
        a, b, c = (_rand_mask(rng) for _ in range(3))
        assert gf2_mul(gf2_mul(a, b), c) == gf2_mul(a, gf2_mul(b, c)), "GF2 associativity"
        assert gf2_mul(a, b ^ c) == gf2_mul(a, b) ^ gf2_mul(a, c), "GF2 distributivity"
        assert gf2_mul(a, b) == gf2_mul(b, a), "GF2 commutativity"
    return f"{2 * trials} random triples per law, both rings"


def check_reduce_mod2_homomorphism(level, rng):
    trials = _n(level, 30, 120)
    for _ in range(trials):
        p = _rand_poly(rng)
        q = _rand_poly(rng)
        assert reduce_mod2(p + q) == reduce_mod2(p) ^ reduce_mod2(q)
        assert reduce_mod2(p * q) == gf2_mul(reduce_mod2(p), reduce_mod2(q))
    return f"{trials} random pairs, + and *"


# ---------------------------------------------------------------------- bits

def check_lucas_support_count(level, rng):
    bound = _n(level, 1 << 9, 1 << 12)
    for m in range(bound):
        count = 0
        s = m
        while True:
            assert binom_parity(m, s) == 1, f"submask {s} of {m} not dominated"
            count += 1
            if s == 0:
                break
            s = (s - 1) & m
        assert count == 1 << m.bit_count(), f"support size of m={m}"
        k = rng.randint(0, max(m, 1))
        if k & ~m:
            assert binom_parity(m, k) == 0
    return f"all m < {bound}"


def check_lucas_pascal_row(level, rng):
    bound = _n(level, 1 << 8, 1 << 10)
    row = 1
    for m in range(bound):
        ours = 0
        for k in range(m + 1):
            if binom_parity(m, k):
                ours |= 1 << k
        assert ours == row, f"row {m} parity mismatch"
        row ^= row << 1
    return f"rows m < {bound} against the xor-shift Pascal oracle"


def check_domination_partial_order(level, rng):
    trials = _n(level, 100, 400)
    for m in range(256):
        assert binom_parity(m, m), "reflexivity"
    for _ in range(trials):
        c = rng.getrandbits(16)
        b = c & rng.getrandbits(16)
        a = b & rng.getrandbits(16)
        assert binom_parity(b, a) and binom_parity(c, b) and binom_parity(c, a), "transitivity"
        if binom_parity(b, a) and binom_parity(a, b):
            assert a == b, "antisymmetry"
    return f"reflexivity on m < 256, {trials} random chains"


def check_paperfold_v_relations(level, rng):
    bound = _n(level, 1 << 12, 1 << 16)
    for n in range(bound):
        assert fold_v(2 * n + 1) == fold_v(n)
        assert fold_v(4 * n) == fold_v(2 * n)
        assert fold_v(4 * n + 2) == -fold_v(n)
        assert count_10_blocks(n) == count_10_blocks_rec(n)
    return f"n < {bound}, both 10-block code paths"


def check_mu_injective(level, rng):
    lams = [LambdaSpec.from_list([1, 4, 9, 19, 39]), LambdaSpec.from_list([1, 3, 7, 15])]
    for _ in range(_n(level, 5, 20)):
        vals = [rng.randint(1, 3)]
        for _ in range(7):
            vals.append(2 * vals[-1] + rng.randint(1, 4))
        lams.append(LambdaSpec.from_list(vals))
    for lam in lams:
        kmax = 1 << len(lam.values)
        seen = set()
        for k in range(kmax):
            mu = term_exponent(k, lam)
            assert mu not in seen, f"mu collision at k={k}"
            seen.add(mu)
    mers = LambdaSpec.mersenne()
    for k in range(1 << 10):
        assert term_exponent(k, mers) == k, "Mersenne exponents"
    return f"{len(lams)} explicit growth sequences plus the Mersenne rule"


# -------------------------------------------------------------------- dyadic

def check_digit_lemma_i(level, rng):
    samples = _n(level, 100, 1000)
    for _ in range(samples):
        w = _rand_dyadic(rng)
        for j in range(0, 64, 7):
            lhs = binom_parity_dyadic(w.add_int(1 << j), 1 << (j + 1))
            assert lhs == (w.digit(j) ^ w.digit(j + 1)), f"pair digit at j={j}"
    return f"{samples} rational w, j sweep to 63"


def check_digit_lemma_ii_iii(level, rng):
    samples = _n(level, 50, 300)
    for _ in range(samples):
        # small odd denominators keep the digit period inside the scan bound
        if rng.random() < 0.4:
            w = Dyadic.from_int(rng.randint(-(1 << 12), 1 << 12))
        else:
            w = Dyadic.from_rational(rng.randint(-200, 200), 2 * rng.randint(1, 31) + 1)
        res = digit_pair_period(w, 360)
        assert res is not None, "rational w must have ultimately periodic pair sums"
        pre_len, period = res
        if w.classify() == "integer":
            assert period == (0,), "integer w pair sums must die out"
        else:
            assert w.per, "rational non-integer w must have a nonempty digit period"
            assert len(w.per) % len(period) == 0, "pair period must divide digit period"
    tm = Dyadic.from_stream(lambda j: j.bit_count() & 1, 1 << 12, "thue-morse")
    assert digit_pair_period(tm, 360) is None, "aperiodic stream must not certify a period"
    return f"{samples} rational w plus the aperiodic control"


def check_digit_lemma_iv(level, rng):
    samples = _n(level, 200, 1000)
    agree = 0
    for _ in range(samples):
        w = _rand_dyadic(rng)
        k = rng.randint(0, 1 << 12)
        via_shift = binom_parity_dyadic(w.add_int(k + 1), 2 * k + 1)
        half = kernel_value(w, k, "f")
        assert half == via_shift, "definition route"
        if (w.parity() ^ k) & 1 == 0:
            assert half == halfsum_binom_halving(w, k), "halving route"
            agree += 1
        else:
            assert half == 0, "opposite parity must vanish"
    return f"{samples} samples, {agree} parity-matched halving cross-checks"


def check_digit_lemma_v(level, rng):
    samples = _n(level, 100, 500)
    for _ in range(samples):
        w = _rand_rational_dyadic(rng, periodic_only=True)
        ell = leading_ones(w)
        wp = w
        for _ in range(ell + 1):
            wp = wp.shift()
        kp = rng.randint(0, 1 << 10)
        k = (1 << ell) - 1 + (kp << (ell + 1))
        assert kernel_value(w, k, "f") == kernel_value(wp, kp, "g"), (
            f"leading-ones reduction at ell={ell}, k'={kp}"
        )
    return f"{samples} periodic w"


def check_digit_lemma_vi(level, rng):
    samples = _n(level, 100, 500)
    for _ in range(samples):
        w = _rand_rational_dyadic(rng, periodic_only=True)
        ell = leading_ones(w)
        v = w
        for _ in range(ell + 1):
            v = v.shift()
        j = leading_zeros(v)
        w2 = v
        for _ in range(j + 1):
            w2 = w2.shift()
        kp = rng.randint(0, 1 << 10)
        k = (1 << ell) - 1 + ((((2 * kp + 1) << j)) << (ell + 1))
        assert kernel_value(w, k, "f") == kernel_value(w2, kp, "f"), (
            f"two-level reduction at ell={ell}, j={j}, k'={kp}"
        )
    return f"{samples} periodic w"


def check_dyadic_roundtrip(level, rng):
    samples = _n(level, 200, 1000)
    for _ in range(samples):
        b = 2 * rng.randint(0, 500) + 1
        a = rng.randint(-1000, 1000)
        w = Dyadic.from_rational(a, b)
        na, nb = w.to_rational()
        assert Fraction(na, nb) == Fraction(a, b), "value preserved"
        assert nb > 0 and nb % 2 == 1, "canonical denominator"
        win = w.digits_window(64)
        assert (a - b * win) % (1 << 64) == 0, "digit window multiplies back"
        if Fraction(a, b).denominator > 1:
            again = Dyadic.from_bits(w.pre, w.per)
            assert again == w and again.pre == w.pre and again.per == w.per, (
                "canonicalization idempotent"
            )
            assert w.classify() == "rational-non-integer"
        else:
            assert w.classify() == "integer"
    assert Dyadic.from_rational(-1, 1) == Dyadic.from_int(-1)
    assert binom_parity_dyadic(Dyadic.from_int(-1), rng.getrandbits(24)) == 1
    return f"{samples} random fractions"


# ------------------------------------------------------------------ contfrac

_EPS_SET = (
    EpsilonSpec.zero(),
    EpsilonSpec((), (1, 0)),
    EpsilonSpec((1,), (0, 1)),
)

# lambda_q = 3 * 2^q - 2, listed past every window and index checked here
_RULE_LAM = LambdaSpec.from_list([3 * 2**q - 2 for q in range(16)])


def check_cf_convergent_coefficients(level, rng):
    prec = _n(level, 1 << 9, 1 << 11)
    budget = _n(level, 16, 40)
    lam = LambdaSpec.mersenne()
    for eps in _EPS_SET:
        cf = cf_expand(build_F(lam, eps, prec), budget)
        conv = convergents(cf)
        for i in range(cf.certified):
            for _, c in conv.q[i].terms:
                assert c in (-1, 0, 1), f"coefficient {c} in Q_{i}"
    return f"3 sign patterns, certified prefixes at window {prec}"


def check_cf_numerator_shift_mod2(level, rng):
    prec = _n(level, 1 << 9, 1 << 11)
    budget = _n(level, 16, 40)
    lam = LambdaSpec.mersenne()
    for eps in _EPS_SET[:2]:
        conv = convergents(cf_expand(build_F(lam, eps, prec), budget))
        for i in range(1, conv.certified):
            assert reduce_mod2(conv.p[i]) == reduce_mod2(conv.q[i - 1]), f"P_{i} vs Q_{i-1}"
    return f"certified prefixes, window {prec}"


def check_cf_all_quotients_oracle_mod2(level, rng):
    prec = _n(level, 1 << 9, 1 << 11)
    budget = _n(level, 16, 40)
    cf = cf_expand(build_F(LambdaSpec.mersenne(), EpsilonSpec.zero(), prec), budget)
    conv = convergents(cf)
    phi = phi_oracle(len(cf.quotients) - 1)
    for i in range(cf.certified):
        assert reduce_mod2(conv.q[i]) == reduce_mod2(phi.q[i]), f"Q_{i} vs all-X denominator"
    for n in range(1, 51):
        phi = phi_oracle(n)
        assert phi.p[n] == phi.q[n - 1], "numerator lags denominator by one"
    return "denominators match the all-X expansion mod 2; numerator lag exact to n=50"


def check_cf_term_count_stern(level, rng):
    cases = [
        (LambdaSpec.mersenne(), _n(level, 1 << 9, 1 << 10), _n(level, 16, 24)),
        (LambdaSpec.from_list([1, 4, 9, 19, 39]), 39, None),
        (_RULE_LAM, _n(level, 1 << 8, 1 << 9), None),
    ]
    checked = 0
    for lam, prec, budget in cases:
        conv = convergents(cf_expand(build_F(lam, EpsilonSpec.zero(), prec), budget))
        for i in range(conv.certified):
            assert conv.q[i].term_count() == stern_u(i), f"terms of Q_{i}"
            checked += 1
    return f"{checked} certified denominators over 3 exponent growth rules"


def check_cf_prefix_stability(level, rng):
    prec = _n(level, 1 << 8, 1 << 10)
    budget = _n(level, 12, 32)
    lam = LambdaSpec.mersenne()
    for eps in _EPS_SET:
        small = cf_expand(build_F(lam, eps, prec), budget)
        large = cf_expand(build_F(lam, eps, 2 * prec), budget)
        assert small.quotients[: small.certified] == large.quotients[: small.certified], (
            "doubling the window changed a certified quotient"
        )
    return f"window {prec} vs {2 * prec}, 3 sign patterns"


def check_cf_determinant(level, rng):
    trials = _n(level, 30, 100)
    one = SparsePoly.one()
    for _ in range(trials):
        quots = [SparsePoly.zero()]
        for _ in range(rng.randint(2, 7)):
            deg = rng.randint(1, 2)
            terms = [(deg, rng.choice((-1, 1)) * rng.randint(1, 3))]
            terms += [(e, rng.randint(-2, 2)) for e in range(deg)]
            quots.append(SparsePoly.build(terms))
        cf = ContinuedFraction(tuple(quots), len(quots), None, False)
        conv = convergents(cf)
        for i in range(len(quots) - 1):
            det = conv.p[i + 1] * conv.q[i] - conv.p[i] * conv.q[i + 1]
            want = one if i % 2 == 0 else one.scale(-1)
            assert det == want, f"determinant at n={i}"
    return f"{trials} random quotient prefixes"


def _rand_lacunary_list(rng, window):
    """Exponents with lambda_{q+1} > 2 lambda_q up to window / 2 or beyond,
    so that build_F can complete the window from the list."""
    vals = [rng.randint(1, 3)]
    while vals[-1] < window // 2:
        vals.append(2 * vals[-1] + 1 + rng.randrange(vals[-1] + 1))
    return vals


def check_cf_fold_vs_euclid(level, rng):
    windows = (1 << 10, 1 << 11, 1 << 12) if level == "quick" else (1 << 16,)
    compared = 0
    for window in windows:
        for lam in (LambdaSpec.mersenne(),
                    LambdaSpec.from_list(_rand_lacunary_list(rng, window))):
            for eps in _EPS_SET:
                f = build_F(lam, eps, window)
                euclid = cf_expand(f)
                assert fold_expand(f) == euclid, f"{lam.name[:40]} {eps.describe()} at {window}"
                # a cap below, at or past the first uncertified quotient
                cap = rng.randint(0, len(euclid.quotients) + 8)
                assert fold_expand(f, cap) == cf_expand(f, cap), (
                    f"{lam.name[:40]} {eps.describe()} at {window}, cap {cap}"
                )
                compared += 2
    sizes = ", ".join(map(str, windows))
    return f"{compared} expansions, Mersenne and seeded lists, windows {sizes}"


# --------------------------------------------------------------------- stern

def check_stern_carlitz(level, rng):
    bound = _n(level, 1 << 10, 1 << 14)
    expected = stern_range(bound)
    assert carlitz_range(bound).tolist() == expected, "Carlitz sum vs recursion"
    # a window off 0, as `stern carlitz --from` fills it: 1300 wide, or
    # the upper half at the quick level
    lo = max(bound - 1300, bound // 2)
    assert carlitz_window(lo, bound - 1) == expected[lo:], f"Carlitz window from {lo}"
    return f"n < {bound}"


def check_stern_halfsum_count(level, rng):
    import numpy as np

    bound = _n(level, 1 << 8, 1 << 10)
    for n in range(bound):
        count = np.count_nonzero(kernel_range(Dyadic.from_int(n), n, "f"))
        assert count == stern_u(n), f"dominated-k count at n={n}"
    return f"n < {bound}"


def check_stern_extended_doubling(level, rng):
    bound = _n(level, 1 << 8, 1 << 10)
    for m in range(-bound + 1, bound):
        assert stern_u(2 * m) == stern_u(m) + stern_u(m - 1), f"even rule at m={m}"
        assert stern_u(2 * m + 1) == stern_u(m), f"odd rule at m={m}"
    return f"|m| < {bound}"


def check_stern_variant_alignment(level, rng):
    bound = _n(level, 1 << 10, 1 << 12)
    for n in range(bound):
        assert stern_u(n) == stern_v(n + 1), f"variant shift at n={n}"
    return f"n < {bound}"


def check_gamma_periodic(level, rng):
    bound = _n(level, 1 << 10, 1 << 14)
    pattern = [1, -1, 0]
    vals = gamma_range(bound)
    for n in range(bound):
        assert vals[n] == pattern[n % 3], f"gamma at n={n}"
    return f"n < {bound}"


def check_sequence_dual_paths(level, rng):
    bound = _n(level, 1 << 7, 1 << 9)
    for n in range(bound):
        assert alpha(n) == parity_convolve(thue_morse, lambda s: 1, n), f"alpha at {n}"
        assert beta(n) == parity_convolve(lambda r: 1, thue_morse, n), f"beta at {n}"
        assert gamma(n) == parity_convolve(thue_morse, thue_morse, n), f"gamma at {n}"
    assert parity_convolve(lambda r: 1, lambda s: 1, 4) == 3
    assert [thue_morse(n) for n in range(4)] == [1, -1, -1, 1]
    return f"recursion vs convolution for n < {bound}"


# ------------------------------------------------------------------- qseries

def check_q_cf_oracle(level, rng):
    prec = _n(level, 1 << 10, 1 << 12)
    budget = _n(level, 16, 48)
    cases = [
        (LambdaSpec.mersenne(), EpsilonSpec.zero(), prec, budget),
        (LambdaSpec.mersenne(), EpsilonSpec((), (1, 0)), prec, budget),
        (LambdaSpec.mersenne(), EpsilonSpec((1,), (0, 1)), prec, budget),
        (LambdaSpec.from_list([1, 4, 9, 19, 39]), EpsilonSpec.zero(), 39, None),
    ]
    compared = 0
    for lam, eps, n_prec, n_budget in cases:
        conv = convergents(cf_expand(build_F(lam, eps, n_prec), n_budget))
        assert conv.certified >= 13, "expected at least a dozen certified terms"
        for i in range(conv.certified):
            assert q_poly(i, lam, eps) == conv.q[i], f"closed form vs expansion at n={i}"
            compared += 1
    return f"{compared} certified denominators across 4 configurations"


def check_q_negative_reflection(level, rng):
    lams = [
        (LambdaSpec.mersenne(), 64),
        (_RULE_LAM, 64),
        (LambdaSpec.from_list([1, 4, 9, 19, 39]), 33),
    ]
    eps = EpsilonSpec.zero()
    for lam, n_max in lams:
        for n in range(2, n_max + 1):
            assert q_poly(-n, lam, eps) == q_poly(n - 2, lam, eps), f"reflection at n={n}"
    return "n in [2, 64] (explicit list capped at its digit range)"


def check_q_term_count(level, rng):
    import numpy as np

    bound = _n(level, 1 << 10, 1 << 12)
    counts = q_term_count_range(bound)
    expected = stern_range(bound)
    assert counts.tolist() == expected, "positive-index term counts"
    neg_bound = _n(level, 1 << 8, 1 << 10)
    for n in range(-neg_bound + 1, 0):
        w = Dyadic.from_int(n)
        cnt = np.count_nonzero(kernel_range(w, max(0, -n - 2), "f")) if n != -1 else 0
        assert cnt == stern_u(n), f"negative-index count at n={n}"
    return f"0 <= n < {bound} and -{neg_bound} < n < 0"


def check_q_chebyshev_mod2(level, rng):
    bound = _n(level, 1 << 7, 1 << 9)
    masks = chebyshev_mask_range(bound - 1)
    zpolys = chebyshev_u_scaled_range(bound - 1)
    lam = LambdaSpec.mersenne()
    eps = EpsilonSpec.zero()
    for n in range(bound):
        assert reduce_mod2(zpolys[n]) == masks[n], f"integer vs GF2 recurrence at n={n}"
        qmask = flags_to_mask(kernel_range(Dyadic.from_int(n), n, "f"))
        assert qmask == masks[n], f"closed form vs recurrence at n={n}"
        assert reduce_mod2(q_poly(n, lam, eps)) == masks[n]
    return f"n < {bound}"


def check_chebyshev_stern_count(level, rng):
    bound = _n(level, 1 << 8, 1 << 10)
    masks = chebyshev_mask_range(bound - 1)
    for n in range(bound):
        assert masks[n].bit_count() == stern_u(n), f"odd-coefficient count at n={n}"
    return f"n < {bound}"


def check_comparison_families(level, rng):
    import numpy as np

    bound = _n(level, 1 << 6, 1 << 8)
    for n in range(bound):
        fib = reduce_mod2(fibonacci_poly(n + 1))
        want = sum(binom_parity(n - j, j) << (n - 2 * j) for j in range(n // 2 + 1))
        assert fib == want, f"Fibonacci parity at n={n}"
        w = Dyadic.from_int(n)
        b_par = [c % 2 for c in _dense_coeffs(morgan_voyce(n, "b"), n)]
        assert np.array_equal(b_par, kernel_range(w, n, "g")), f"first triangle family at n={n}"
        big_par = [c % 2 for c in _dense_coeffs(morgan_voyce(n, "B"), n)]
        assert np.array_equal(big_par, kernel_range(w, n, "f")), (
            f"second triangle family at n={n}")
    return f"n < {bound}"


def _dense_coeffs(p: SparsePoly, deg: int) -> list:
    out = [0] * (deg + 1)
    for e, c in p.terms:
        out[e] = c
    return out


def check_pell_congruence(level, rng):
    top = _n(level, 16, 64)
    for n in range(0, top + 1):
        assert pell_check_mod2(Dyadic.from_int(n), 128), f"integer case n={n}"
    for a, b in ((1, 3), (-1, 3), (1, 5)):
        assert pell_check_mod2(Dyadic.from_rational(a, b), 256), f"rational case {a}/{b}"
    return f"integers to {top}, three rationals to X^256"


def check_q_support_aperiodic(level, rng):
    bound = _n(level, 1 << 10, 1 << 12)
    for a, b in ((1, 3), (1, 5), (-1, 3)):
        flags = q_support_flags(Dyadic.from_rational(a, b), bound)
        j = 1
        while (1 << j) < bound:
            assert flags[(1 << j):].any(), f"support of {a}/{b} dies after 2^{j}"
            j += 1
        assert detect_ultimate_period(flags.tolist(), 64, 256) is None, (
            f"support of {a}/{b} certified a period"
        )
    return f"3 rationals, window {bound}, periods to 64 with preperiod 256 excluded"


def check_q_polynomial_dichotomy(level, rng):
    import numpy as np

    lam = LambdaSpec.mersenne()
    for n in (5, -7, 12):
        w = Dyadic.from_int(n)
        verdict, deg = is_polynomial(w, lam)
        assert verdict == "yes"
        cut = n if n >= 0 else -n - 2
        assert deg == cut, f"degree of the integer case {n}"
        flags = q_support_flags(w, cut + 64)
        last = int(np.flatnonzero(flags)[-1])
        assert last == cut, f"window termination for {n}"
    for a, b in ((1, 3), (1, 5), (-1, 3)):
        assert is_polynomial(Dyadic.from_rational(a, b), lam)[0] == "no"
    stream = Dyadic.from_stream(lambda j: j.bit_count() & 1, 1 << 10, "thue-morse")
    verdict, _ = is_polynomial(stream, lam)
    assert verdict == "unknown"
    return "integers terminate at the predicted cutoff; rationals refuse; streams abstain"


def check_a_number(level, rng):
    one = a_number(EpsilonSpec.zero(), Dyadic.from_int(0), 10, 20)
    assert one.value == 1, "base case"
    base = a_number(EpsilonSpec.zero(), Dyadic.from_rational(1, 3), 10, 40)
    deeper = a_number(EpsilonSpec.zero(), Dyadic.from_rational(1, 3), 10, 50)
    assert abs(deeper.value - base.value) <= base.tail_bound, "tail bound honored"
    assert base.value != 0, "the 1/3 sum has surviving terms"
    # the all-ones digit stream dominates every k in the plain binomial sense,
    # yet the half-sum kernel at -1 is empty: both sides of the same coin
    minus_one = Dyadic.from_int(-1)
    for k in (0, 1, 5, 19, 1023):
        assert binom_parity_dyadic(minus_one, k) == 1
    assert a_number(EpsilonSpec.zero(), minus_one, 2, 20).value == 0
    return "base case, tail stability, empty sum at -1"


# ----------------------------------------------------------------- automaton

_OMEGA_SET = ((1, 3), (-1, 3), (1, 5), (3, 7), (-5, 1))


def _omega_values():
    return [Dyadic.from_rational(a, b) for a, b in _OMEGA_SET]


def check_dfao_equivalence(level, rng):
    import numpy as np

    bits = _n(level, 12, 16)
    for w in _omega_values():
        for tag in ("f", "g", "h"):
            d = build_dfao(w, tag)
            got = d.evaluate_all(bits)
            want = kernel_range(w, (1 << bits) - 1, tag)
            assert np.array_equal(got, want), f"{tag} automaton for {w.describe()}"
            for _ in range(50):
                k = rng.getrandbits(bits)
                assert d.evaluate(k) == want[k], "single evaluation path"
    return f"5 orbits x 3 families, all k < 2^{bits}"


def check_dfao_padding_stability(level, rng):
    autos = [build_dfao(w, t) for w in _omega_values() for t in ("f", "g", "h")]
    autos += [signed_dfao(Dyadic.from_rational(1, 3), EpsilonSpec((), (1, 0)))]
    for d in autos:
        for i, (t0, _) in enumerate(d.step):
            assert d.out[t0] == d.out[i], f"zero step changes output at {d.states[i]}"
    return f"{len(autos)} automata, every state"


def check_dfao_state_bound(level, rng):
    for w in _omega_values():
        pre, cyc = orbit(w)
        size = len(pre) + len(cyc)
        for tag in ("f", "g", "h"):
            d = build_dfao(w, tag)
            assert len(d) <= 3 * size + 1, f"state bound for {w.describe()}/{tag}"
    w = Dyadic.from_rational(1, 3)
    pre, cyc = orbit(w)
    assert len(pre) == 1 and len(cyc) == 2, "shift orbit of 1/3"
    pre, cyc = orbit(Dyadic.from_int(6))
    assert [e.describe() for e in pre + cyc] == ["6", "3", "1", "0"], "halving chain of 6"
    return "5 orbits, all families"


def check_dfao_kernel_closure(level, rng):
    length = _n(level, 1 << 8, 1 << 10)
    for w in (Dyadic.from_rational(1, 3), Dyadic.from_int(-5)):
        for tag in ("f", "g", "h"):
            d = build_dfao(w, tag)
            half = length // 2
            prefixes = [d.realized(i, length) for i in range(len(d))]
            shorts = {p[:half] for p in prefixes}
            for s, seq in zip(d.states, prefixes):
                even = tuple(seq[2 * k] for k in range(half))
                odd = tuple(seq[2 * k + 1] for k in range(half))
                assert even in shorts, f"even subsequence of {s} escapes the kernel"
                assert odd in shorts, f"odd subsequence of {s} escapes the kernel"
    return f"prefix length {length}, both test orbits, all families"


def check_dfao_signed_window(level, rng):
    bits = _n(level, 10, 12)
    count = 1 << bits
    for w in (Dyadic.from_int(2), Dyadic.from_rational(1, 3)):
        for eps in (EpsilonSpec.zero(), EpsilonSpec((), (1, 0))):
            d = signed_dfao(w, eps)
            got = d.evaluate_all(bits).tolist()
            flags = kernel_range(w, count - 1, "f").tolist()   # Python bools: exact products
            want = [term_sign(k, eps) * flags[k] for k in range(count)]
            assert got == want, f"signed stream for {w.describe()}, eps {eps.describe()}"
    d = signed_dfao(Dyadic.from_int(2), EpsilonSpec.zero())
    vals = [d.evaluate(k) for k in range(9)]
    assert vals == [1, 0, -1, 0, 0, 0, 0, 0, 0], "the degree-2 polynomial pattern"
    return f"2 omegas x 2 sign patterns, k < 2^{bits}"


def check_algebraic_relation(level, rng):
    n = 2048
    flags = q_support_flags(Dyadic.from_rational(1, 3), n - 1)
    rel = find_algebraic_relation(flags, 4, 64, n)
    assert rel is not None, "no relation found for the 1/3 coefficient stream"
    assert rel.kind == "generic"
    assert verify_relation(rel, flags), "independent re-verification"
    poly_flags = q_support_flags(Dyadic.from_int(5), n - 1)
    prel = find_algebraic_relation(poly_flags, 4, 64, n)
    assert prel is not None and prel.kind == "polynomial-input"
    squares = [1 if isqrt(k) ** 2 == k else 0 for k in range(n)]
    assert find_algebraic_relation(squares, 4, 64, n) is None, (
        "transcendental control produced a relation"
    )
    return f"found+verified at truncation {n}; polynomial flagged; control absent"


# ----------------------------------------------------------------------- cli

def check_cli_deterministic(level, rng):
    from . import cli
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["stern", "u", "--from", "-4", "--to", "8", "--json"])
        assert code == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1], "repeated invocation differs"
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["qseries", "--omega", "int:2", "--upto", "8", "--mod2", "--json"])
    assert code == 0, "window subcommand failed"
    assert "2" in buf.getvalue(), "expected the X^2 term in the output"
    return "byte-identical reruns; exit codes as documented"


def check_cli_coverage(level, rng):
    modules = {name.split(".")[0] for name, _ in CHECKS}
    want = {"core", "bits", "dyadic", "contfrac", "stern", "qseries", "automaton", "cli"}
    assert want <= modules, f"missing module coverage: {want - modules}"
    assert len(CHECKS) >= 38, "check registry shrank"
    return f"{len(CHECKS)} checks across {len(modules)} modules"


CHECKS = [
    ("core.ring-axioms", check_ring_axioms),
    ("core.reduce-mod2-homomorphism", check_reduce_mod2_homomorphism),
    ("bits.lucas-support-count", check_lucas_support_count),
    ("bits.lucas-pascal-row", check_lucas_pascal_row),
    ("bits.domination-partial-order", check_domination_partial_order),
    ("bits.paperfold-v-relations", check_paperfold_v_relations),
    ("bits.mu-injective", check_mu_injective),
    ("dyadic.digit-lemma-i", check_digit_lemma_i),
    ("dyadic.digit-lemma-ii-iii", check_digit_lemma_ii_iii),
    ("dyadic.digit-lemma-iv", check_digit_lemma_iv),
    ("dyadic.digit-lemma-v", check_digit_lemma_v),
    ("dyadic.digit-lemma-vi", check_digit_lemma_vi),
    ("dyadic.roundtrip-canonical", check_dyadic_roundtrip),
    ("contfrac.convergent-coefficients", check_cf_convergent_coefficients),
    ("contfrac.numerator-shift-mod2", check_cf_numerator_shift_mod2),
    ("contfrac.all-x-oracle-mod2", check_cf_all_quotients_oracle_mod2),
    ("contfrac.term-count-stern", check_cf_term_count_stern),
    ("contfrac.prefix-stability", check_cf_prefix_stability),
    ("contfrac.determinant-identity", check_cf_determinant),
    ("contfrac.fold-vs-euclid", check_cf_fold_vs_euclid),
    ("stern.carlitz-identity", check_stern_carlitz),
    ("stern.halfsum-count", check_stern_halfsum_count),
    ("stern.extended-doubling", check_stern_extended_doubling),
    ("stern.variant-alignment", check_stern_variant_alignment),
    ("stern.gamma-periodic", check_gamma_periodic),
    ("stern.dual-paths", check_sequence_dual_paths),
    ("qseries.cf-oracle", check_q_cf_oracle),
    ("qseries.negative-reflection", check_q_negative_reflection),
    ("qseries.term-count", check_q_term_count),
    ("qseries.chebyshev-mod2", check_q_chebyshev_mod2),
    ("qseries.chebyshev-stern-count", check_chebyshev_stern_count),
    ("qseries.comparison-families", check_comparison_families),
    ("qseries.pell-congruence", check_pell_congruence),
    ("qseries.support-aperiodic", check_q_support_aperiodic),
    ("qseries.polynomial-dichotomy", check_q_polynomial_dichotomy),
    ("qseries.a-number", check_a_number),
    ("automaton.direct-equivalence", check_dfao_equivalence),
    ("automaton.padding-stability", check_dfao_padding_stability),
    ("automaton.state-bound", check_dfao_state_bound),
    ("automaton.kernel-closure", check_dfao_kernel_closure),
    ("automaton.signed-window", check_dfao_signed_window),
    ("automaton.algebraic-relation", check_algebraic_relation),
    ("cli.deterministic-output", check_cli_deterministic),
    ("cli.coverage", check_cli_coverage),
]


def run_checks(level: str = "quick", seed: int = 0, names=None) -> list:
    """Run the named checks (all by default) in canonical order."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    selected = CHECKS if names is None else [c for c in CHECKS if c[0] in set(names)]
    if names is not None and len(selected) != len(set(names)):
        known = {c[0] for c in CHECKS}
        raise KeyError(f"unknown check names: {sorted(set(names) - known)}")
    results = []
    for name, fn in selected:
        start = time.perf_counter()
        try:
            detail = fn(level, _rng(seed, name))
            ok = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            ok = False
        except Exception as exc:      # a crashing check is one FAIL, not a lost report
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, ok, detail, elapsed))
    return results


def render_report(results, as_json: bool = False) -> str:
    passed = sum(1 for r in results if r.ok)
    if as_json:
        return layout({
            "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": r.seconds}
                       for r in results],
            "passed": passed,
            "failed": len(results) - passed,
        })
    width = max(len(r.name) for r in results) if results else 10
    lines = []
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {mark}  [{r.seconds:7.2f}s]  {r.detail}")
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
