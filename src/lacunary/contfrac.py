"""Continued fractions of formal Laurent series over Z.

Two expansions return the same `ContinuedFraction` for a lacunary window.

`fold_expand` is the one `cf` uses.  Under lambda_{q+1} > 2 lambda_q every
partial quotient of the partial sum F_q is a +-1 monomial, and adding the
next term folds the expansion (Mendes France, Acta Arith. 23 (1973); van
der Poorten and Shallit, "Folded continued fractions", J. Number Theory 40
(1992)), so its cost is the number of quotients.

`cf_expand` runs the polynomial Euclidean algorithm on the pair (window
polynomial, X^N) rather than repeatedly inverting series tails: the two
are equivalent, and Euclid keeps every coefficient in Z as long as each
divisor leads with +-1, which it checks.  Euclid runs on
sparse {exponent: coefficient} maps, the same shape as the series window:
the remainders of a lacunary series keep few nonzero terms.  It expands
any series and is the independent oracle for the fold.

A partial quotient A_i is *certified* once 2*deg(Q_i) + 1 <= N, where Q_i
is the convergent denominator; the rule is conservative and is itself
exercised by the prefix-stability tests.  Quotients past the certified
prefix are still reported, flagged uncertified.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import neg

from .bits import EpsilonSpec, LambdaSpec
from .rings import SparsePoly


@dataclass(frozen=True)
class LaurentSeries:
    """A window of a Laurent series in descending powers of X: coeffs maps
    exponent to coefficient, with no zero entries, and an exponent at or
    above -cutoff that it lacks has coefficient 0.  Nothing below -cutoff
    is known; a deeper window is another series."""

    coeffs: dict
    cutoff: int


def build_F(lam: LambdaSpec, eps: EpsilonSpec, precision: int) -> LaurentSeries:
    """The lacunary series sum of (-1)^eps_n X^(-lambda_n), materialized for
    exponents down to -precision; a deeper window is another call.

    An explicit lambda list must reach far enough that no unknown exponent
    could land inside the window: exhausting the list is fine only once the
    growth rule guarantees every later exponent lies below it."""
    lam0 = lam.value(0)
    if precision < lam0:
        raise ValueError(f"precision: window {precision} ends above first exponent {lam0}")
    coeffs = {}
    q = 0
    last = 0
    while lam.is_mersenne or q < len(lam.values) or 2 * last < precision:
        v = lam.value(q)
        if v > precision:
            break
        coeffs[-v] = eps.sign(q)
        last = v
        q += 1
    return LaurentSeries(coeffs, precision)


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients A_0, A_1, ... with a certified prefix length.

    certified counts quotients from A_0 on; precision is the source window
    (None for quotients that come from no window, as phi_oracle's);
    terminated means the remainder vanished exactly, so the expansion is the
    complete one of a rational function.
    """

    quotients: tuple
    certified: int
    precision: object
    terminated: bool


@dataclass(frozen=True)
class Convergents:
    """P_n, Q_n from the three-term recurrence; index n matches quotient A_n."""

    p: tuple
    q: tuple
    certified: int


def _divmod(num: dict, den: dict):
    """Quotient and remainder of integer polynomials held as {exponent:
    coefficient} maps with no zero entries; den must be nonempty and lead
    with +-1, or the quotient may leave Z (ArithmeticError); {} is the zero
    polynomial."""
    dn = max(den)
    lead = den[dn]
    if lead not in (1, -1):
        raise ArithmeticError(f"divisor leads with {lead} at X^{dn}: the quotient may leave Z")
    tail = [(e - dn, d) for e, d in den.items() if e != dn]
    r = dict(num)
    quot = {}
    for i in range(max(r, default=dn - 1), dn - 1, -1):
        c = r.pop(i, 0)
        if not c:
            continue
        f = c * lead
        quot[i - dn] = f
        for e, d in tail:
            k = i + e
            s = r.get(k, 0) - f * d
            if s:
                r[k] = s
            else:
                del r[k]
    return quot, r


def cf_expand(f: LaurentSeries, max_quotients: int | None = None) -> ContinuedFraction:
    """Expand f as [A_0; A_1, A_2, ...] by Euclid on (window * X^N, X^N).

    max_quotients bounds the number of quotients after A_0; None means run
    until the certified window is exhausted (one trailing uncertified
    quotient is kept so the flag is visible) or the remainder vanishes.
    A remainder that leads with anything but +-1 raises ArithmeticError
    (see _divmod): no window build_F makes has one, as its quotients are
    +-1 monomials (see fold_expand).
    """
    if max_quotients is not None and max_quotients < 0:
        raise ValueError("max_quotients must be nonnegative")
    window = f.cutoff
    num = {e + window: c for e, c in f.coeffs.items() if e >= -window}
    if not num:
        raise ValueError("precision: no nonzero coefficient in window")
    den = {window: 1}
    q0, rem = _divmod(num, den)
    quotients = [SparsePoly.build(q0.items())]
    a, b = den, rem
    deg_q = 0
    certified = 1
    prefix_ok = True
    i = 0
    while b and (max_quotients is None or i < max_quotients):
        i += 1
        qd, rem = _divmod(a, b)
        poly = SparsePoly.build(qd.items())
        quotients.append(poly)
        deg_q += poly.degree
        if 2 * deg_q + 1 <= window and prefix_ok:
            certified += 1
        else:
            if i == 1:
                raise ValueError(
                    f"precision: window {window} cannot certify the first partial quotient"
                    f" (degree {poly.degree})"
                )
            prefix_ok = False
            if max_quotients is None:
                a, b = b, rem
                break
        a, b = b, rem
    return ContinuedFraction(
        quotients=tuple(quotients),
        certified=certified,
        precision=window,
        terminated=not b,
    )


def fold_expand(f: LaurentSeries, max_quotients: int | None = None) -> ContinuedFraction:
    """The expansion cf_expand(f, max_quotients) returns, for a window of
    sum s_q X^(-lambda_q) with every s_q = +-1 and lambda_{q+1} > 2 lambda_q,
    built by folding instead of Euclid.

    F_0 = s_0 X^(-lambda_0) is [0; s_0 X^lambda_0].  When F_q = [0; A_1..A_m]
    has every A_i a +-1 monomial and last denominator +-X^lambda_q,
        F_{q+1} = [0; A_1..A_m, x, -A_m, ..., -A_1],
        x = (-1)^m s_{q+1} X^(lambda_{q+1} - 2 lambda_q),
    and its last denominator is s_{q+1} X^lambda_{q+1}.  The window is F_q
    for the last q it holds.  Certification, truncation, errors and flags
    are those of cf_expand; deg Q_i is a prefix sum of the exponents, so the
    certified count is one bisection of those sums.  Each distinct +-1
    monomial is one SparsePoly, shared by every quotient equal to it.
    """
    if max_quotients is not None and max_quotients < 0:
        raise ValueError("max_quotients must be nonnegative")
    window = f.cutoff
    terms = sorted((-e, c) for e, c in f.coeffs.items() if e >= -window)
    if not terms:
        raise ValueError("precision: no nonzero coefficient in window")
    prev = 0
    for lam, s in terms:
        if lam <= 2 * prev or s not in (1, -1):
            raise ValueError(
                f"fold_expand needs +-1 coefficients at strictly 2-lacunary exponents;"
                f" got {s} at X^{-lam} after X^{-prev}"
            )
        prev = lam
    # Quotient i is sgn[i] X^exp[i].  Folding only appends, so stop once the
    # list holds every quotient to emit: the cap, or uncapped the first
    # uncertified one, present once 2 lambda_q + 1 > N.
    exp, sgn = [terms[0][0]], [terms[0][1]]
    last = terms[0][0]
    for lam, s in terms[1:]:
        if max_quotients is not None and len(exp) >= max_quotients:
            break
        if max_quotients is None and 2 * last + 1 > window:
            break
        m = len(exp)
        exp += [lam - 2 * last] + exp[::-1]
        sgn += [-s if m & 1 else s, *map(neg, reversed(sgn))]
        last = lam
    count = len(exp) if max_quotients is None else min(max_quotients, len(exp))
    # Quotient i is certified when 2 (exp[0] + ... + exp[i]) + 1 <= N: the
    # sums increase, so the certified ones are a prefix, found by bisection.
    certified = 1 + bisect_right(list(accumulate(exp[:count])), (window - 1) // 2)
    if certified == 1 and count:
        raise ValueError(
            f"precision: window {window} cannot certify the first partial quotient"
            f" (degree {exp[0]})"
        )
    if max_quotients is None:  # keep the first uncertified quotient, if any
        count = min(count, certified)
    # few (exponent, sign) pairs recur, so each is one shared SparsePoly
    pairs = list(zip(exp[:count], sgn))
    poly = {pair: SparsePoly((pair,)) for pair in set(pairs)}
    return ContinuedFraction(
        quotients=(SparsePoly.zero(), *map(poly.__getitem__, pairs)),
        certified=certified,
        precision=window,
        terminated=last == terms[-1][0] and count == len(exp),
    )


def _step(a: SparsePoly, cur: SparsePoly, prev: SparsePoly) -> SparsePoly:
    """a * cur + prev as one merge into prev's terms and one sort."""
    acc = dict(prev.terms)
    for e1, c1 in a.terms:
        for e2, c2 in cur.terms:
            e = e1 + e2
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                del acc[e]
    return SparsePoly(tuple(sorted(acc.items())))


def convergent_side(quotients, side: str):
    """P_n (side "p") or Q_n (side "q") for n = 0, 1, ..., len(quotients) - 1,
    each yielded as it is formed by X_n = A_n X_{n-1} + X_{n-2} from
    P_{-1} = 1, P_0 = A_0 and Q_{-1} = 0, Q_0 = 1; only the last two are
    held, so a caller that writes each X_n out never holds the side."""
    one = SparsePoly.one()
    prev, cur = {"p": (one, quotients[0]), "q": (SparsePoly.zero(), one)}[side]
    yield cur
    for a in islice(quotients, 1, None):
        prev, cur = cur, _step(a, cur, prev)
        yield cur


def convergents(cf: ContinuedFraction) -> Convergents:
    """Both sides of convergent_side, held; satisfies
    P_{n+1} Q_n - P_n Q_{n+1} = (-1)^n on the certified prefix."""
    return Convergents(
        p=tuple(convergent_side(cf.quotients, "p")),
        q=tuple(convergent_side(cf.quotients, "q")),
        certified=cf.certified,
    )


def phi_oracle(n: int) -> Convergents:
    """Convergents of the series with all partial quotients X: denominators
    satisfy k_n = X k_{n-1} + k_{n-2}, and numerators are the denominators
    shifted by one index."""
    if n < 1:
        raise ValueError("need at least one quotient")
    x = SparsePoly.x_power(1)
    cf = ContinuedFraction(
        quotients=(SparsePoly.zero(),) + (x,) * n,
        certified=n + 1,
        precision=None,
        terminated=False,
    )
    return convergents(cf)
