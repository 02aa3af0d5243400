"""Digit automata for the coefficient streams and the algebraic certificate."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from lacunary import automaton, cli, jsontext
from lacunary.automaton import (
    DEAD,
    Dfao,
    Relation,
    build_dfao,
    find_algebraic_relation,
    minimize,
    orbit,
    signed_dfao,
    verify_relation,
)
from lacunary.bits import EpsilonSpec, term_sign
from lacunary.dyadic import Dyadic, kernel_range, kernel_value, parse_omega

THIRD = parse_omega("rat:1/3")
EPS_10 = EpsilonSpec((), (1, 0))


def _rat(a, b):
    return Dyadic.from_rational(a, b)


class TestOrbit:
    def test_one_third(self):
        pre, cyc = orbit(THIRD)
        assert pre == [_rat(1, 3)]
        assert cyc == [_rat(-1, 3), _rat(-2, 3)]

    def test_integer_reaches_zero(self):
        pre, cyc = orbit(Dyadic.from_int(6))
        assert pre == [Dyadic.from_int(6), Dyadic.from_int(3), Dyadic.from_int(1)]
        assert cyc == [Dyadic.from_int(0)]

    def test_negative_integer(self):
        pre, cyc = orbit(Dyadic.from_int(-1))
        assert pre == [] and cyc == [Dyadic.from_int(-1)]

    def test_shift_closure(self):
        pre, cyc = orbit(_rat(-5, 7))
        elems = pre + cyc
        for i, e in enumerate(elems[:-1]):
            assert e.shift() == elems[i + 1]
        assert elems[-1].shift() == cyc[0]

    def test_opaque_rejected(self):
        with pytest.raises(ValueError, match=r"^orbit requires rational 2-adic input$"):
            orbit(parse_omega("stream:thue-morse"))

    @given(st.integers(-4000, 4000), st.integers(1, 1000))
    def test_numerator_orbit_matches_digit_loop(self, a, half):
        # the shift orbit and pre/per share the numerator walk; digit()
        # reads digits off num * den^-1 mod 2^(j+1), a separate code path
        w = _rat(a, 2 * half + 1)
        assume(w.classify() == "rational-non-integer")
        pre, cyc = orbit(w)
        assert len(pre) == len(w.pre)
        assert len(cyc) == len(w.per)
        assert [e.parity() for e in pre + cyc] == list(w.pre + w.per)
        assert [w.digit(j) for j in range(len(pre + cyc))] == list(w.pre + w.per)

    @given(st.integers(-4000, 4000), st.integers(1, 1000))
    def test_digit_matches_window_and_cycle(self, a, half):
        w = _rat(a, 2 * half + 1)
        assume(w.classify() == "rational-non-integer")
        for j in range(len(w.pre) + 3 * len(w.per)):
            assert w.digit(j) == (w.digits_window(j + 1) >> j) & 1
            expect = w.pre[j] if j < len(w.pre) else w.per[(j - len(w.pre)) % len(w.per)]
            assert w.digit(j) == expect, j


# Integers, and rationals with a preperiod (1/3, 5/3, -5/3, -11/5) and
# without one (-1/3, -3/7): a positive non-integer always has a preperiod.
ORBIT_OMEGAS = ["int:0", "int:-1", "int:6", "int:-7", "rat:1/3", "rat:5/3",
                "rat:-5/3", "rat:-11/5", "rat:-1/3", "rat:-3/7"]


class TestIntegerOrbit:
    """build_dfao walks the orbit on numerators; its meta and the labels of
    its states must agree with the Dyadic orbit()."""

    @pytest.mark.parametrize("text", ORBIT_OMEGAS)
    def test_meta_matches_orbit(self, text):
        w = parse_omega(text)
        pre, cyc = orbit(w)
        for tag in ("f", "g", "h"):
            d = build_dfao(w, tag)
            assert d.meta()["orbit"] == [e.describe() for e in pre + cyc]
            assert d.meta()["orbit_preperiod"] == len(pre)

    def test_preperiods_covered(self):
        lengths = {text: len(orbit(parse_omega(text))[0]) for text in ORBIT_OMEGAS}
        assert lengths["rat:-5/3"] > 0 and lengths["rat:5/3"] > 0
        assert lengths["rat:-1/3"] == lengths["rat:-3/7"] == lengths["int:-1"] == 0

    @pytest.mark.parametrize("text", ORBIT_OMEGAS)
    @pytest.mark.parametrize("tag", ["f", "g", "h"])
    def test_labels_follow_orbit(self, text, tag):
        # every state (family, j) sits at orbit element j, steps to element
        # j + 1 (or back to the cycle start) by the kernel table and outputs
        # that element's kernel value at 0; the labels are the breadth-first
        # search's, once its numbering is the machine's
        w = parse_omega(text)
        pre, cyc = orbit(w)
        elems = pre + cyc
        d = build_dfao(w, tag)
        step, out, labels = _numbered_like(d, _bfs_machine(w, tag, None))
        assert labels[0] == (tag, 0)
        for i, label in enumerate(labels):
            if label == DEAD:
                assert step[i] == [i, i] and out[i] == 0
                continue
            fam, j = label
            p = elems[j].parity()
            assert out[i] == {"f": 1 - p, "g": 1, "h": p}[fam]
            nxt = j + 1 if j + 1 < len(elems) else len(pre)
            for b in (0, 1):
                fam2 = _KERNEL_TABLE[fam, p][b]
                assert labels[step[i][b]] == (DEAD if fam2 is None else (fam2, nxt))

    def test_stream_rejected_with_same_text(self):
        w = parse_omega("stream:paperfolding")
        for call in (lambda: orbit(w), lambda: build_dfao(w, "g"),
                     lambda: build_dfao(w, "g", 4), lambda: signed_dfao(w, EPS_10)):
            with pytest.raises(ValueError, match=r"^orbit requires rational 2-adic input$"):
                call()


class TestNoDigitCycleOnHotPaths:
    """Parsing, the orbit, the automata and qseries work from (num, den)
    alone; none of them may read the digit preperiod or period."""

    def test_guard(self, monkeypatch, capsys):
        def boom(w):
            raise AssertionError(f"digit cycle read for {w.describe()}")

        monkeypatch.setattr(Dyadic, "pre", property(boom))
        monkeypatch.setattr(Dyadic, "per", property(boom))
        w = parse_omega("rat:1/4099")
        pre, cyc = orbit(w)
        assert (len(pre), len(cyc)) == (1, 4098)
        for tag in ("f", "g", "h"):
            build_dfao(w, tag)
        signed_dfao(w, EPS_10)
        assert cli.main(["qseries", "--omega", "rat:1/1000000007", "--upto", "8"]) == 0
        capsys.readouterr()
        assert len(build_dfao(Dyadic.from_rational(1, 4099))) == 8199


OMEGAS = ["rat:1/3", "rat:-1/3", "rat:1/5", "rat:3/7", "rat:-5/1"]


class TestBuildDfao:
    @pytest.mark.parametrize("text", OMEGAS)
    @pytest.mark.parametrize("tag", ["f", "g", "h"])
    def test_matches_kernel(self, text, tag):
        w = parse_omega(text)
        d = build_dfao(w, tag)
        flags = kernel_range(w, 1023, tag)
        got = d.evaluate_all(10)
        assert np.array_equal(got, flags)

    def test_evaluate_all_matches_evaluate(self):
        d = build_dfao(THIRD, "f")
        vec = d.evaluate_all(8)
        assert [d.evaluate(k) for k in range(256)] == vec.tolist()

    def test_state_counts_one_third(self):
        assert len(build_dfao(THIRD, "f")) == 7
        assert len(build_dfao(THIRD, "g")) == 7
        assert len(build_dfao(THIRD, "h")) == 6

    @pytest.mark.parametrize("text", OMEGAS)
    def test_state_bound(self, text):
        w = parse_omega(text)
        pre, cyc = orbit(w)
        for tag in ("f", "g", "h"):
            assert len(build_dfao(w, tag)) <= 3 * (len(pre) + len(cyc)) + 1

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            build_dfao(THIRD, "q")

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            build_dfao(THIRD, "f").evaluate(-1)

    def test_meta_records_orbit(self):
        d = build_dfao(THIRD, "f")
        assert d.meta()["tag"] == "f"
        assert d.meta()["orbit_preperiod"] == 1
        assert len(d.meta()["orbit"]) == 3


# Orbits of 3 (1/3), 4 (-1/15, 5/7, 6, -5), 11 (7/33) and 508 (-3/509)
# numerators: the depths below close some of them and cut the others.
DEPTH_OMEGAS = ["rat:1/3", "rat:-3/509", "rat:7/33", "rat:-1/15", "rat:5/7", "int:6", "int:-5"]


class TestDepthBoundedBuild:
    """build_dfao(w, tag, depth) walks depth + 1 numerators: exact below
    2^depth, and the full machine when the orbit closes within them."""

    @pytest.mark.parametrize("text", DEPTH_OMEGAS)
    @pytest.mark.parametrize("tag", ["f", "g", "h"])
    @pytest.mark.parametrize("depth", [1, 2, 5, 16])
    def test_truncated_table_is_the_full_one_restricted(self, text, tag, depth):
        w = parse_omega(text)
        d = build_dfao(w, tag, depth)
        full = build_dfao(w, tag)
        assert np.array_equal(d.evaluate_all(depth), kernel_range(w, (1 << depth) - 1, tag))
        assert len(d) <= 3 * (depth + 1) + 1
        labels = _numbered_like(d, _bfs_machine(w, tag, depth))[2]
        full_labels = _numbered_like(full, _bfs_machine(w, tag, None))[2]
        index = {label: i for i, label in enumerate(full_labels)}
        for i, label in enumerate(labels):
            if label != DEAD and label[1] >= depth:
                continue
            j = index[label]
            assert d.out[i] == full.out[j], label
            assert [labels[t] for t in d.step[i]] == [full_labels[t] for t in full.step[j]], label
        if len(full.meta()["orbit"]) <= depth + 1:
            assert d.to_json() == full.to_json()
        else:
            assert d.meta() == {"omega": w.describe(), "tag": tag,
                                "orbit": full.meta()["orbit"][:depth + 1], "depth": depth}

    def test_both_cases_covered(self):
        lengths = [sum(map(len, orbit(parse_omega(text)))) for text in DEPTH_OMEGAS]
        assert min(lengths) <= 2 + 1 and max(lengths) > 16 + 1

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="negative depth -1"):
            build_dfao(THIRD, "f", -1)


def _fifo(root, step):
    """A FIFO search from root under step(label) = (next on 0, next on 1),
    numbering each label as discovered: (the labels, the table)."""
    labels, index, table = [root], {root: 0}, []
    for label in labels:
        for t in step(label):
            if t not in index:
                index[t] = len(labels)
                labels.append(t)
        table.append([index[t] for t in step(label)])
    return labels, table


# The module docstring's transition table, copied so that no oracle steps
# by automaton's own: (family, parity) -> (family on digit 0, family on
# digit 1), with None for the dead state
_KERNEL_TABLE = {
    ("f", 0): ("g", None),
    ("f", 1): (None, "f"),
    ("g", 0): ("g", "h"),
    ("g", 1): ("g", "f"),
    ("h", 0): (None, "h"),
    ("h", 1): ("g", None),
}


def _kernel_oracle(w, depth):
    """(elems, loop, step, output) of the kernel states (family, orbit
    position) and DEAD: the orbit elements, walked by Dyadic.shift() up to
    depth + 1 of them or the first repeat, the position of that repeat
    (None if none came), the transition table as a function on labels and
    the output of a label."""
    limit = None if depth is None else depth + 1
    elems, seen, x = [], {}, w
    while x not in seen and len(elems) != limit:
        seen[x] = len(elems)
        elems.append(x)
        x = x.shift()
    loop = seen.get(x)
    parity = [e.parity() for e in elems]
    after = list(range(1, len(elems))) + [len(elems) - 1 if loop is None else loop]

    def step(label):
        if label == DEAD:
            return (DEAD, DEAD)
        fam, j = label
        nxt = _KERNEL_TABLE[fam, parity[j]]
        return tuple(DEAD if f2 is None else (f2, after[j]) for f2 in nxt)

    def output(label):
        if label == DEAD:
            return 0
        fam, j = label
        return {"f": 1 - parity[j], "g": 1, "h": parity[j]}[fam]

    return elems, loop, step, output


def _orbit_texts(elems):
    return [e.describe() for e in elems]


def _bfs_machine(w, tag, depth):
    """The numbering build_dfao replaced, kept as the oracle: a FIFO search
    from (tag, 0) over (family, orbit position) states, stepped one at a
    time by the transition table and numbered as discovered.  Returns (the
    table, the outputs, the labels, meta) as Python lists and a dict."""
    elems, loop, step, output = _kernel_oracle(w, depth)
    labels, table = _fifo((tag, 0), step)
    meta = {"omega": w.describe(), "tag": tag, "orbit": _orbit_texts(elems)}
    if loop is None:
        meta["depth"] = depth
    else:
        meta["orbit_preperiod"] = loop
    return table, list(map(output, labels)), labels, meta


def _signed_bfs_machine(w, eps):
    """The numbering of signed_dfao, as an oracle sharing no code with it:
    a FIFO search over (kernel label, prev digit, nu, mb, class) from
    ((f, 0), None, 0, 0, 0).  On digit b the kernel label steps by the
    transition table; prev becomes b; nu flips when b is 1 after a 0 (a
    10-block); mb flips when b is 1 at a position q with eps_q != eps_(q-1);
    and the class is the position up to len(pre), then cycles through the
    len(period) classes after it.  Returns (the table, the outputs, the
    labels, meta) as Python lists and a dict."""
    elems, _, kernel_step, kernel_out = _kernel_oracle(w, None)
    top = len(eps.pre) + len(eps.period)   # the last class
    e = [0, *eps.pre, *eps.period, eps.period[0]]   # e[c + 1] is eps_c, c <= top

    def step(label):
        kernel, prev, nu, mb, c = label
        after = c + 1 if c < top else len(eps.pre) + 1
        return tuple((k, b, nu ^ (b & (prev == 0)), mb ^ (b & (e[c + 1] ^ e[c])), after)
                     for b, k in enumerate(kernel_step(kernel)))

    labels, table = _fifo((("f", 0), None, 0, 0, 0), step)
    out = [kernel_out(k) * (-1 if nu ^ mb else 1) for k, _, nu, mb, _ in labels]
    meta = {"omega": w.describe(), "tag": "signed-f", "eps": eps.describe(),
            "orbit": _orbit_texts(elems)}
    return table, out, labels, meta


def _numbered_like(d, machine):
    """(table, outputs, labels) of an oracle machine, once d's table,
    outputs, label texts and meta are asserted to be the oracle's."""
    table, out, labels, meta = machine
    assert d.step.tolist() == table
    assert d.out.tolist() == out
    assert d.texts(slice(None)) == list(map(_text, labels))
    assert d.meta() == meta
    return table, out, labels


# odd denominators to 10^4 and numerators in +-10^6: orbits of one to
# about 10^4 numerators
_RATIONALS = st.builds(Dyadic.from_rational, st.integers(-10**6, 10**6),
                       st.integers(0, 4999).map(lambda i: 2 * i + 1))


class TestClosedFormNumbering:
    """build_dfao numbers the first pass through the orbit in closed form
    and closes only the wrap-around; its machine is the breadth-first
    search's, state for state.  Orbits of any length take the closed form
    once _CLOSED_FORM_FROM is 0."""

    @given(_RATIONALS, st.sampled_from("fgh"), st.sampled_from([None, 0, 1, 2, 5, 16]))
    @example(Dyadic.from_int(0), "g", None)          # orbit [0]
    @example(Dyadic.from_int(-1), "f", None)         # orbit [-1]
    @example(Dyadic.from_int(6), "h", None)          # 6, 3, 1, 0
    @example(Dyadic.from_int(1), "g", None)          # 1, 0
    @example(Dyadic.from_rational(-1, 3), "g", 1)    # cycle -1/3, -2/3
    @example(Dyadic.from_rational(1, 4099), "f", None)
    @example(Dyadic.from_rational(-3, 509), "h", 16)
    def test_matches_breadth_first_search(self, w, tag, depth):
        machine = _bfs_machine(w, tag, depth)
        for start in (automaton._CLOSED_FORM_FROM, 0):
            with mock.patch.object(automaton, "_CLOSED_FORM_FROM", start):
                _numbered_like(build_dfao(w, tag, depth), machine)

    def test_both_paths_covered(self):
        assert 2 < automaton._CLOSED_FORM_FROM < len(build_dfao(_rat(1, 4099), "f").meta()["orbit"])


class TestOrbitCap:
    """A whole automaton refuses an orbit over ORBIT_CAP numerators after
    walking at most that many."""

    def test_orbit_of_exactly_the_cap_builds(self, monkeypatch):
        full = build_dfao(THIRD, "g")
        monkeypatch.setattr(automaton, "ORBIT_CAP", 3)
        assert build_dfao(THIRD, "g").to_json() == full.to_json()

    def test_orbit_over_the_cap_refused(self, monkeypatch):
        walks = []
        real = automaton.numerator_orbit

        def walk(num, den, limit=None):
            walks.append(limit)
            return real(num, den, limit)

        monkeypatch.setattr(automaton, "ORBIT_CAP", 2)
        monkeypatch.setattr(automaton, "numerator_orbit", walk)
        msg = r"^the shift orbit of 1/3 has more than 2 numerators, the cap of a whole automaton$"
        for call in (lambda: build_dfao(THIRD, "h"), lambda: signed_dfao(THIRD, EPS_10)):
            with pytest.raises(ValueError, match=msg):
                call()
        assert walks == [2, 2]
        # a depth-bounded build has no cap
        assert build_dfao(_rat(-3, 509), "h", 5).meta()["depth"] == 5
        assert walks[2:] == [6]


class TestMinimize:
    def test_preserves_behavior(self):
        for text in OMEGAS:
            d = build_dfao(parse_omega(text), "f")
            m = minimize(d)
            assert len(m) <= len(d)
            assert np.array_equal(m.evaluate_all(10), d.evaluate_all(10))

    def test_one_third_counts(self):
        assert len(minimize(build_dfao(THIRD, "f"))) == 5
        assert len(minimize(build_dfao(THIRD, "h"))) == 3

    def test_merged_classes_cover_all_states(self):
        d = build_dfao(THIRD, "f")
        m = minimize(d)
        merged = m.meta()["merged"]
        members = [x for v in merged.values() for x in v]
        assert sorted(members) == sorted(d.texts(slice(None)))

    def test_idempotent(self):
        m = minimize(build_dfao(THIRD, "g"))
        assert len(minimize(m)) == len(m)


class TestSigned:
    @pytest.mark.parametrize("eps", [EPS_10, EpsilonSpec((1,), (0, 1)), EpsilonSpec((), (1, 1, 0))])
    def test_matches_signed_stream(self, eps):
        d = signed_dfao(THIRD, eps)
        for k in range(512):
            expect = term_sign(k, eps) * kernel_value(THIRD, k, "f")
            assert d.evaluate(k) == expect, k

    # odd denominators to about 600 and numerators in +-2000; sign patterns
    # with a preperiod of 0 to 3 and a period of 1 to 5
    @given(st.builds(Dyadic.from_rational, st.integers(-2000, 2000),
                     st.integers(0, 299).map(lambda i: 2 * i + 1)),
           st.builds(EpsilonSpec, st.lists(st.integers(0, 1), max_size=3).map(tuple),
                     st.lists(st.integers(0, 1), min_size=1, max_size=5).map(tuple)))
    @example(Dyadic.from_int(6), EpsilonSpec((1,), (0, 1)))              # orbit ends at 0
    @example(_rat(1, 7), EpsilonSpec((), (0, 1)))                         # cycle 3, period 2
    @example(_rat(-1, 131), EpsilonSpec((1, 0, 1), (0, 0, 1, 1, 1)))      # cycle 130, period 5
    @example(_rat(5, 3), EpsilonSpec((0, 1), (1, 1, 0, 1)))               # preperiods on both sides
    @example(_rat(-1, 131), EpsilonSpec((), (0, 0, 1)))                  # cycle 130, period 3: 3 passes
    @example(_rat(1, 7), EpsilonSpec((1, 0, 0, 1, 1, 0, 1), (0, 1)))     # eps preperiod 7, orbit's 1
    @example(Dyadic.from_int(0), EpsilonSpec.zero())                      # orbit [0]
    def test_matches_breadth_first_search(self, w, eps):
        _numbered_like(signed_dfao(w, eps), _signed_bfs_machine(w, eps))

    def test_outputs_in_range(self):
        d = signed_dfao(_rat(1, 5), EPS_10)
        assert set(d.evaluate_all(10).tolist()) <= {-1, 0, 1}

    def test_zero_eps_collapses_to_sign_of_runs(self):
        d = signed_dfao(THIRD, EpsilonSpec.zero())
        vec = d.evaluate_all(9)
        flags = kernel_range(THIRD, 511, "f")
        for k in range(512):
            expect = term_sign(k, EpsilonSpec.zero()) * flags[k]
            assert vec[k] == expect


class TestSerialization:
    def test_json_shape(self):
        obj = json.loads(build_dfao(THIRD, "h").to_json())
        assert obj["input"] == "lsb-first"
        assert {"id", "label", "output"} <= set(obj["states"][0])
        assert len(obj["transitions"]) == len(obj["states"])
        assert all(len(t) == 2 for t in obj["transitions"])

    def test_dot_output(self):
        dot = build_dfao(THIRD, "f").to_dot()
        assert dot.startswith("digraph")
        assert "__start" in dot and "rankdir=LR" in dot
        assert dot.count("->") >= 2 * 7
        # quotes and backslashes in labels are escaped inside the DOT strings
        odd = _machine(['a"b', "c\\", "dead"], [(1, 2), (2, 2), (2, 2)], [1, -1, 0])
        lines = odd.to_dot().splitlines()
        assert '  s0 [label="a\\"b / 1"];' in lines
        assert '  s1 [label="c\\\\ / -1"];' in lines


class TestRelation:
    def _stream(self, n):
        return kernel_range(THIRD, n, "f")

    def test_frozen_certificate_one_third(self):
        seq = self._stream(4096)
        for trunc in (2048, 4096):
            rel = find_algebraic_relation(seq, 4, 64, trunc)
            assert rel is not None and verify_relation(rel, seq)
            assert rel.kind == "generic"
            assert rel.coeffs == (8, 1, 4, 0, 0)
            assert rel.degree_used() == 2 and rel.height_used() == 3
        assert "S^2" in rel.describe() and "mod X^4096" in rel.describe()

    def test_every_truncation_certifies(self):
        # S^(2^i) keeps every term below X^n; a column that lost one would
        # give a relation failing re-verification (ArithmeticError) or none
        seq = self._stream(600)
        for n in range(48, 601):
            rel = find_algebraic_relation(seq, 2, 3, n)
            assert rel is not None and verify_relation(rel, seq), n

    def test_verify_rejects_corruption(self):
        seq = self._stream(2048)
        rel = find_algebraic_relation(seq, 4, 64, 2048)
        bad = Relation((rel.coeffs[0] ^ 2,) + rel.coeffs[1:], rel.truncation, rel.kind)
        assert verify_relation(rel, seq)
        assert not verify_relation(bad, seq)

    def test_no_squaring_past_last_coefficient(self, monkeypatch):
        # trailing zero coefficients never change the verdict, so their
        # powers of S are not computed
        seq = self._stream(2048)
        rel = find_algebraic_relation(seq, 4, 64, 2048)
        bad = Relation((rel.coeffs[0] ^ 2,) + rel.coeffs[1:], rel.truncation, rel.kind)
        lone = Relation((1,), rel.truncation, rel.kind)
        squarings = []

        def counting(a, b, real=automaton.gf2_mul):
            if a is b:
                squarings.append(a.bit_length())
            return real(a, b)

        monkeypatch.setattr(automaton, "gf2_mul", counting)
        for r, verdict in ((rel, True), (bad, False), (lone, False)):
            for pad in (0, 1, 5):
                padded = Relation(r.coeffs + (0,) * pad, r.truncation, r.kind)
                squarings.clear()
                assert verify_relation(padded, seq) is verdict
                assert len(squarings) == padded.degree_used() == r.degree_used()

    def test_polynomial_input_branch(self):
        seq = kernel_range(Dyadic.from_int(6), 63, "f")
        rel = find_algebraic_relation(seq, 1, 0, 64)
        assert rel.kind == "polynomial-input" and verify_relation(rel, seq)
        assert rel.coeffs == (0b1010001, 1)

    def test_failed_verification_raises(self, monkeypatch):
        # a relation the independent check rejects is never returned
        monkeypatch.setattr(automaton, "verify_relation", lambda rel, seq: False)
        with pytest.raises(ArithmeticError, match="fails independent verification"):
            find_algebraic_relation(self._stream(2048), 4, 64, 2048)

    def test_failed_verification_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(automaton, "verify_relation", lambda rel, seq: False)
        assert cli.main(["automaton", "algrel", "--omega", "rat:1/3", "--trunc", "2048"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("verification failure: "), lines

    def test_squares_control_finds_nothing(self):
        sq = [0] * 1024
        k = 0
        while k * k < 1024:
            sq[k * k] = 1
            k += 1
        assert find_algebraic_relation(sq, 3, 16, 1024) is None

    def test_margin_guard(self):
        seq = self._stream(64)
        with pytest.raises(ValueError, match="margin"):
            find_algebraic_relation(seq, 4, 64, 64)
        with pytest.raises(ValueError):
            find_algebraic_relation(seq, 0, 4, 32)

    def test_truncation_beyond_prefix(self):
        with pytest.raises(ValueError):
            find_algebraic_relation(self._stream(100), 1, 1, 512)


def _machine(labels, step, out, meta=None) -> Dfao:
    """A Dfao from Python lists: labels, (next on 0, next on 1) pairs and
    outputs; the texts of its labels are _text's."""
    texts = np.array(list(map(_text, labels)), dtype=object)
    return Dfao(np.array(step, dtype=np.int32).reshape(-1, 2), np.array(out, dtype=np.int8),
                lambda idx: texts[idx].tolist(), lambda: {} if meta is None else meta)


def _text(label) -> str:
    """A label's text: a str as it is, a tuple as "(a, b, ...)" of str() of
    its components."""
    return label if isinstance(label, str) else "(" + ", ".join(str(p) for p in label) + ")"


def _reference_json(d: Dfao) -> str:
    """The encoder to_json replaced, kept as the oracle: json.dumps of the
    whole document."""
    out = d.out.tolist()
    return json.dumps({
        "input": "lsb-first",
        "states": [{"id": i, "label": s, "output": out[i]}
                   for i, s in enumerate(d.texts(slice(None)))],
        "initial": 0,
        "transitions": d.step.tolist(),
        "meta": d.meta(),
    }, sort_keys=True, indent=2)


def _reference_dot(d: Dfao) -> str:
    """The DOT writer to_dot replaced, kept as the oracle: an f-string per
    state and two per transition."""
    out = d.out.tolist()
    lines = [
        "digraph dfao {",
        "  rankdir=LR;",
        '  node [shape=circle, fontname="monospace"];',
        '  __start [shape=none, label=""];',
        "  __start -> s0;",
    ]
    for i, s in enumerate(d.texts(slice(None))):
        s = s.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  s{i} [label="{s} / {out[i]}"];')
    for i, (t0, t1) in enumerate(d.step.tolist()):
        lines.append(f'  s{i} -> s{t0} [label="0"];')
        lines.append(f'  s{i} -> s{t1} [label="1"];')
    lines.append("}")
    return "\n".join(lines)


def _reference_minimize(d: Dfao) -> Dfao:
    """The Moore refinement minimize replaced, kept as the oracle: each
    round numbers the keys (block, block on 0, block on 1) in a dict, in
    order of first appearance, until the block count stops growing."""
    step, out = d.step.tolist(), d.out.tolist()
    block = out
    count = len(set(block))
    while True:
        renum = {}
        block = [renum.setdefault((block[i], block[t0], block[t1]), len(renum))
                 for i, (t0, t1) in enumerate(step)]
        if len(renum) == count:
            break
        count = len(renum)
    labels = [f"m{b}" for b in range(count)]
    texts = d.texts(slice(None))
    members = [[] for _ in labels]
    q_step = [None] * count
    q_out = [None] * count
    for i, (t0, t1) in enumerate(step):
        b = block[i]
        members[b].append(texts[i])
        q_step[b] = (block[t0], block[t1])
        q_out[b] = out[i]
    meta = dict(d.meta())
    meta["merged"] = dict(zip(labels, members))
    return _machine(labels, q_step, q_out, meta)


# quotes, backslashes, percent signs, braces, non-ASCII (a surrogate pair
# included) and control characters
_TEXT = st.text(st.sampled_from('ab%{"\\\x00\x1f\n\t\x7f\u00e9\u2028\U0001d11e'), max_size=6)
_LEAF = st.one_of(st.integers(-3, 300), _TEXT, st.none(), st.booleans())
_LABEL = st.one_of(
    _TEXT,
    st.just(DEAD),
    st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=3).map(tuple),
                 max_leaves=6).filter(lambda x: isinstance(x, tuple)),
)
_META = st.dictionaries(_TEXT, st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8), max_size=4)


@st.composite
def _dfaos(draw, labels=_LABEL):
    n = draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    return _machine(
        labels=draw(st.lists(labels, min_size=n, max_size=n)),
        step=draw(st.lists(st.tuples(index, index), min_size=n, max_size=n)),
        out=draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)),
        meta=draw(_META),
    )


_W7, _W131, _W6 = parse_omega("rat:1/7"), parse_omega("rat:-1/131"), parse_omega("int:6")


class TestJsonOracle:
    @given(_dfaos())
    @example(build_dfao(_W7, "f"))
    @example(build_dfao(_W131, "g"))
    @example(build_dfao(_W6, "h"))
    @example(signed_dfao(_W7, EpsilonSpec((1,), (0, 1))))
    @example(signed_dfao(_W131, EPS_10))
    @example(signed_dfao(_W6, EpsilonSpec.zero()))
    @example(minimize(build_dfao(_W7, "g")))
    @example(minimize(signed_dfao(_W131, EpsilonSpec((), (1, 1, 0)))))
    @example(minimize(build_dfao(_W6, "f")))
    @example(_machine(["only"], [(0, 0)], [1]))
    def test_to_json_matches_json_dumps(self, d):
        # a chunk of 1 or 3 rows puts chunk edges inside these small machines
        for chunk in (1, 3, jsontext.CHUNK):
            with mock.patch.object(jsontext, "CHUNK", chunk):
                text = d.to_json()
            assert isinstance(text, str)
            assert text == _reference_json(d), chunk


def _oracle_machines():
    """Built and signed machines for three orbits, a one-state machine and
    one whose outputs are all equal."""
    machines = []
    for text in ("rat:1/3", "rat:-1/131", "int:6"):
        w = parse_omega(text)
        machines += [build_dfao(w, tag) for tag in ("f", "g", "h")]
        machines += [signed_dfao(w, eps) for eps in (EpsilonSpec.zero(), EPS_10, EpsilonSpec((1,), (0, 1)))]
    machines.append(_machine(["only"], [(0, 0)], [1]))
    machines.append(_machine(["a", ("b", 1), "c"], [(1, 2), (2, 0), (0, 1)], [-1, -1, -1]))
    return machines


_ORACLE_MACHINES = _oracle_machines()


# a field left out of the document
_MISSING = object()


def _is_index(x, n: int) -> bool:
    return type(x) is int and 0 <= x < n


def _dfao_doc_problem(obj):
    """README's automaton JSON shape, as a check on what to_json writes:
    None when obj is an object whose input is "lsb-first", whose states
    are objects with ids 0..n-1 in order, string labels and outputs in
    {-1, 0, 1}, whose transitions are n pairs of state ids, whose initial
    state is a state id and whose meta is an object; otherwise the field
    it breaks."""
    if type(obj) is not dict:
        return "document"
    if obj.get("input") != "lsb-first":
        return "input"
    states = obj.get("states")
    if type(states) is not list or not all(type(s) is dict for s in states):
        return "states"
    n = len(states)
    if [s.get("id") for s in states] != list(range(n)) or not all(type(s.get("id")) is int for s in states):
        return "id"
    if not all(type(s.get("label")) is str for s in states):
        return "label"
    if not all(type(s.get("output")) is int and -1 <= s["output"] <= 1 for s in states):
        return "output"
    trans = obj.get("transitions")
    if type(trans) is not list or len(trans) != n or not all(
            type(t) is list and len(t) == 2 and all(_is_index(x, n) for x in t) for t in trans):
        return "transitions"
    if not _is_index(obj.get("initial"), n):
        return "initial"
    if type(obj.get("meta")) is not dict:
        return "meta"
    return None


def _doc_outputs(obj, bits: int) -> list:
    """The output for every k < 2^bits, read from the document alone:
    exactly `bits` digits of k, least significant first, from the initial
    state."""
    trans, out = obj["transitions"], [s["output"] for s in obj["states"]]
    values = []
    for k in range(1 << bits):
        i = obj["initial"]
        for b in range(bits):
            i = trans[i][k >> b & 1]
        values.append(out[i])
    return values


class TestJsonSchema:
    """Every document to_json writes has README's automaton shape and
    evaluates, read on its own, like the machine that wrote it."""

    @pytest.mark.parametrize("d", _ORACLE_MACHINES + list(map(minimize, _ORACLE_MACHINES)))
    def test_machines_write_the_shape(self, d):
        obj = json.loads(d.to_json())
        assert _dfao_doc_problem(obj) is None
        assert _doc_outputs(obj, 8) == d.evaluate_all(8).tolist()

    @given(_dfaos())
    def test_random_machines_write_the_shape(self, d):
        obj = json.loads(d.to_json())
        assert _dfao_doc_problem(obj) is None
        assert _doc_outputs(obj, 4) == d.evaluate_all(4).tolist()

    # The shape check itself names the field of each broken document, so a
    # writer that drifted from the shape could not pass the tests above.
    def test_check_rejects_other_conventions(self):
        obj = json.loads(build_dfao(THIRD, "f").to_json())
        obj["input"] = "msb-first"
        assert _dfao_doc_problem(obj) == "input"

    @pytest.mark.parametrize("field, value", [
        ("output", "1"),
        ("output", True),
        ("output", 2),
        ("output", _MISSING),
        ("id", True),
        ("label", ["f", 0]),
        ("meta", ["orbit"]),
        ("meta", _MISSING),
        ("document", []),
        ("document", "x"),
        ("states", _MISSING),
        ("states", [1]),
        ("states", {"a": 1}),
        ("transitions", _MISSING),
        ("initial", _MISSING),
    ], ids=["output-str", "output-bool", "output-2", "output-missing", "id-bool", "label-list",
            "meta-list", "meta-missing", "document-list", "document-str", "states-missing",
            "states-ints", "states-object", "transitions-missing", "initial-missing"])
    def test_check_rejects_bad_field(self, field, value):
        obj = json.loads(build_dfao(THIRD, "f").to_json())
        if field == "document":
            obj = value
        else:
            # a state's own field is set on state 1, any other on the document
            node = obj["states"][1] if field in ("id", "output", "label") else obj
            if value is _MISSING:
                del node[field]
            else:
                node[field] = value
        assert _dfao_doc_problem(obj) == ("states" if field == "states" else field)

    def test_check_rejects_unordered_ids(self):
        obj = json.loads(build_dfao(THIRD, "f").to_json())
        obj["states"][0]["id"], obj["states"][1]["id"] = 1, 0
        assert _dfao_doc_problem(obj) == "id"

    @pytest.mark.parametrize("transitions", [
        lambda t: t[:-1],
        lambda t: t[:-1] + [[0, len(t)]],
        lambda t: t[:-1] + [[0, -1]],
        lambda t: t[:-1] + [[0]],
        lambda t: t[:-1] + [0],
    ], ids=["count", "past-end", "negative", "not-pair", "not-list"])
    def test_check_rejects_bad_transitions(self, transitions):
        obj = json.loads(build_dfao(THIRD, "f").to_json())
        obj["transitions"] = transitions(obj["transitions"])
        assert _dfao_doc_problem(obj) == "transitions"

    @pytest.mark.parametrize("initial", [7, -1, "0"])
    def test_check_rejects_bad_initial(self, initial):
        obj = json.loads(build_dfao(THIRD, "f").to_json())
        obj["initial"] = initial
        assert _dfao_doc_problem(obj) == "initial"


class TestMooreOracle:
    """minimize against the dict refinement it replaced: the same blocks,
    numbered by first member, and the same merged labels, byte for byte."""

    @pytest.mark.parametrize("d", _ORACLE_MACHINES)
    def test_matches_dict_refinement(self, d):
        assert minimize(d).to_json() == _reference_minimize(d).to_json()

    @given(_dfaos())
    def test_random_machines_match_dict_refinement(self, d):
        assert minimize(d).to_json() == _reference_minimize(d).to_json()


class TestDotOracle:
    """to_dot against the f-string writer it replaced; no catalogue op runs
    --export dot, so only this guards its bytes."""

    @staticmethod
    def _check(d):
        # a chunk of 1 or 3 rows puts chunk edges inside these small machines
        for chunk in (1, 3, jsontext.CHUNK):
            with mock.patch.object(jsontext, "CHUNK", chunk):
                assert d.to_dot() == _reference_dot(d), chunk

    @pytest.mark.parametrize("d", _ORACLE_MACHINES + list(map(minimize, _ORACLE_MACHINES)))
    def test_machines_match(self, d):
        self._check(d)

    @given(_dfaos())
    @example(_machine(['a"b', "c\\", ('"', "\\\\"), DEAD], [(1, 2), (3, 3), (0, 3), (3, 3)],
                      [1, -1, 1, 0]))
    def test_quotes_and_backslashes_match(self, d):
        self._check(d)


class TestStateCost:
    """A state costs 9 bytes of table: an int32 pair and an int8 output."""

    @pytest.mark.parametrize("make", [
        lambda: build_dfao(_W131, "g"),
        lambda: signed_dfao(_W7, EpsilonSpec((1,), (0, 1))),
        lambda: minimize(build_dfao(_W131, "g")),
    ], ids=["build", "signed", "minimized"])
    def test_nine_bytes_per_state(self, make):
        d = make()
        assert d.step.shape == (len(d), 2) and d.step.dtype == np.int32
        assert d.out.shape == (len(d),) and d.out.dtype == np.int8
        assert d.step.nbytes + d.out.nbytes == 9 * len(d)


class TestEvaluateAll:
    """evaluate_all from the initial state or from an array of states."""

    @given(_dfaos(), st.integers(0, 5))
    def test_rows_are_the_walks_from_each_state(self, d, bits):
        step, out = d.step.tolist(), d.out.tolist()

        def walk(i, k):
            # exactly bits digits of k, least significant first
            for _ in range(bits):
                i = step[i][k & 1]
                k >>= 1
            return out[i]

        table = d.evaluate_all(bits, np.arange(len(d)))
        assert table.shape == (len(d), 1 << bits) and table.dtype == np.int8
        assert table.tolist() == [[walk(i, k) for k in range(1 << bits)] for i in range(len(d))]
        first = d.evaluate_all(bits)
        assert first.shape == (1 << bits,) and first.dtype == np.int8
        assert first.tolist() == d.evaluate_all(bits, 0).tolist() == table[0].tolist()

    @pytest.mark.parametrize("make, bits", [
        (lambda: build_dfao(THIRD, "f"), range(0, 21)),          # 7 states: bytes from 11 bits
        (lambda: signed_dfao(_W7, EPS_10), range(0, 21)),
        (lambda: minimize(build_dfao(_W131, "g")), range(6, 21)),
        (lambda: build_dfao(_W131, "h"), [15, 16, 17]),          # 262 states: bytes from 17 bits
    ], ids=["build", "signed", "minimized", "large"])
    def test_bytes_and_digits_match_evaluate(self, make, bits):
        # every k below 2^bits for the first 12 bits, then a sample of k
        # against evaluate and the whole array against a digit at a time
        d = make()
        d0, d1 = d.step.T
        rng = np.random.default_rng(len(d))
        for b in bits:
            got = d.evaluate_all(b)
            assert got.shape == (1 << b,) and got.dtype == np.int8
            ks = range(1 << b) if b <= 12 else rng.integers(0, 1 << b, 300).tolist()
            assert [got[k] for k in ks] == [d.evaluate(k) for k in ks], b
            arr = np.array([0])
            for _ in range(b):
                arr = np.concatenate([d0[arr], d1[arr]])
            assert np.array_equal(got, d.out[arr]), b

    @pytest.mark.parametrize("bits", [0, 3, 8, 9, 16, 17])
    def test_start_shapes(self, bits):
        # a scalar, a 1-D and a 2-D array of starts: one row per start
        d = signed_dfao(THIRD, EPS_10)
        table = d.evaluate_all(bits, np.arange(len(d)))
        assert table.shape == (len(d), 1 << bits)
        assert np.array_equal(d.evaluate_all(bits, 3), table[3])
        starts = np.arange(len(d))[::-1].reshape(-1, 2)[:3]
        assert np.array_equal(d.evaluate_all(bits, starts), table[starts])
        assert np.array_equal(d.evaluate_all(bits, starts[0]), table[starts[0]])


def _oracle_dfao(machine) -> Dfao:
    """An oracle's (table, outputs, labels, meta) as a Dfao from state 0."""
    table, out, labels, meta = machine
    return _machine(labels, table, out, meta)


class TestLabelTexts:
    """The texts the exports and minimize read are formed from the code
    columns; they are the texts of the breadth-first oracles' labels, and
    a minimized machine's are those of the dict refinement of its oracle."""

    @staticmethod
    def _pairs():
        for text in ("rat:1/3", "rat:-1/131", "int:6", "int:0", "rat:-3/509"):
            w = parse_omega(text)
            pairs = [(build_dfao(w, tag), _oracle_dfao(_bfs_machine(w, tag, None)))
                     for tag in "fgh"]
            pairs += [(signed_dfao(w, eps), _oracle_dfao(_signed_bfs_machine(w, eps)))
                      for eps in (EpsilonSpec.zero(), EPS_10, EpsilonSpec((1,), (0, 1)))]
            yield from pairs
            for d, oracle in pairs:
                yield minimize(d), _reference_minimize(oracle)

    def test_texts_are_the_label_texts(self):
        for d, oracle in self._pairs():
            texts = oracle.texts(slice(None))
            assert d.texts(slice(None)) == texts
            order = np.random.default_rng(len(d)).permutation(len(d))
            assert d.texts(order) == [texts[i] for i in order]
            assert d.texts(slice(1, 4)) == texts[1:4]
            assert d.meta() == oracle.meta()


class TestClosureOnlyWraps:
    """build_dfao steps states one at a time only past the first pass, and
    signed_dfao only once per distinct step from one level to the next."""

    @pytest.mark.parametrize("tag", ["f", "g", "h"])
    def test_closure_steps_the_wrap_only(self, tag):
        stepped = []
        close = automaton._close

        def counted(step, states, index):
            codes, table = close(step, states, index)
            stepped.append(len(codes))
            return codes, table

        with mock.patch.object(automaton, "_close", counted):
            d = build_dfao(_rat(1, 4099), tag)
        assert len(d) >= 8198 and stepped and sum(stepped) <= 12

    def test_signed_steps_each_kind_of_level_once(self):
        stepped = []
        places = automaton._next_places

        def counted(row, read, taken):
            stepped.append(len(row))
            return places(row, read, taken)

        with mock.patch.object(automaton, "_close", None), \
                mock.patch.object(automaton, "_next_places", counted):
            d = signed_dfao(_rat(1, 4099), EpsilonSpec((), (0, 1)))
        assert len(d) == 32802 and sum(stepped) <= 400


class TestLazyMeta:
    """Only an export formats label texts and only the JSON export meta:
    the listing of a kernel or signed machine, minimized or not, formats
    neither."""

    @pytest.mark.parametrize("extra", [["--tag", "f"], ["--tag", "g", "--minimize"],
                                       ["--tag", "signed", "--eps", "period:0,1"],
                                       ["--tag", "signed", "--minimize"]])
    def test_listing_formats_no_meta(self, extra, capsys):
        def boom(*args):
            raise AssertionError("formatted a text nothing prints")

        with mock.patch.object(automaton, "_orbit_texts", boom), \
                mock.patch.object(automaton, "_kernel_texts", boom), \
                mock.patch.object(automaton, "_formatted", boom):
            code = cli.main(["automaton", "build", "--omega", "rat:-1/131", *extra])
        assert code == 0
        assert capsys.readouterr().out.startswith("states: ")
