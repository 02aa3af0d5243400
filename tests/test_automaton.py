"""Digit automata for the coefficient streams and the algebraic certificate."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from lacunary import automaton, cli
from lacunary.automaton import (
    DEAD,
    Dfao,
    OrbitCapError,
    OrbitError,
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
        with pytest.raises(OrbitError):
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
    """build_dfao walks the orbit on numerators; its meta and labels must
    agree with the Dyadic orbit()."""

    @pytest.mark.parametrize("text", ORBIT_OMEGAS)
    def test_meta_matches_orbit(self, text):
        w = parse_omega(text)
        pre, cyc = orbit(w)
        for tag in ("f", "g", "h"):
            d = build_dfao(w, tag)
            assert d.meta["orbit"] == [e.describe() for e in pre + cyc]
            assert d.meta["orbit_preperiod"] == len(pre)

    def test_preperiods_covered(self):
        lengths = {text: len(orbit(parse_omega(text))[0]) for text in ORBIT_OMEGAS}
        assert lengths["rat:-5/3"] > 0 and lengths["rat:5/3"] > 0
        assert lengths["rat:-1/3"] == lengths["rat:-3/7"] == lengths["int:-1"] == 0

    @pytest.mark.parametrize("text", ORBIT_OMEGAS)
    @pytest.mark.parametrize("tag", ["f", "g", "h"])
    def test_labels_follow_orbit(self, text, tag):
        # every state (family, j) sits at orbit element j, steps to element
        # j + 1 (or back to the cycle start) by the kernel table and outputs
        # that element's kernel value at 0
        pre, cyc = orbit(parse_omega(text))
        elems = pre + cyc
        d = build_dfao(parse_omega(text), tag)
        assert d.states[d.initial] == (tag, 0)
        for i, label in enumerate(d.states):
            if label == DEAD:
                assert d.step[i] == (i, i) and d.out[i] == 0
                continue
            fam, j = label
            p = elems[j].parity()
            assert d.out[i] == {"f": 1 - p, "g": 1, "h": p}[fam]
            nxt = j + 1 if j + 1 < len(elems) else len(pre)
            for b in (0, 1):
                fam2 = automaton._KERNEL_STEP[fam, p][b]
                assert d.states[d.step[i][b]] == (DEAD if fam2 is None else (fam2, nxt))

    def test_stream_rejected_with_same_text(self):
        w = parse_omega("stream:paperfolding")
        for call in (lambda: orbit(w), lambda: build_dfao(w, "g"),
                     lambda: build_dfao(w, "g", 4), lambda: signed_dfao(w, EPS_10)):
            with pytest.raises(OrbitError, match=r"^orbit requires rational 2-adic input$"):
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
        assert d.meta["tag"] == "f"
        assert d.meta["orbit_preperiod"] == 1
        assert len(d.meta["orbit"]) == 3


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
        index = {label: i for i, label in enumerate(full.states)}
        for i, label in enumerate(d.states):
            if label != DEAD and label[1] >= depth:
                continue
            j = index[label]
            assert d.out[i] == full.out[j], label
            assert [d.states[t] for t in d.step[i]] == [full.states[t] for t in full.step[j]], label
        if len(full.meta["orbit"]) <= depth + 1:
            assert d == full
        else:
            assert d.meta == {"omega": w.describe(), "tag": tag,
                              "orbit": full.meta["orbit"][:depth + 1], "depth": depth}

    def test_both_cases_covered(self):
        lengths = [sum(map(len, orbit(parse_omega(text)))) for text in DEPTH_OMEGAS]
        assert min(lengths) <= 2 + 1 and max(lengths) > 16 + 1

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="negative depth -1"):
            build_dfao(THIRD, "f", -1)


class TestOrbitCap:
    """A whole automaton refuses an orbit over ORBIT_CAP numerators after
    walking at most that many."""

    def test_orbit_of_exactly_the_cap_builds(self, monkeypatch):
        full = build_dfao(THIRD, "g")
        monkeypatch.setattr(automaton, "ORBIT_CAP", 3)
        assert build_dfao(THIRD, "g") == full

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
            with pytest.raises(OrbitCapError, match=msg):
                call()
        assert walks == [2, 2]
        # a depth-bounded build has no cap
        assert build_dfao(_rat(-3, 509), "h", 5).meta["depth"] == 5
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
        merged = m.meta["merged"]
        members = [x for v in merged.values() for x in v]
        assert sorted(members) == sorted(str(s) if isinstance(s, str) else
                                         "(" + ", ".join(str(p) for p in s) + ")"
                                         for s in d.states)

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


# a field left out of the document
_MISSING = object()


class TestSerialization:
    def test_json_round_trip_behavior(self):
        d = build_dfao(THIRD, "f")
        d2 = Dfao.from_json(d.to_json())
        assert len(d2) == len(d)
        assert d2.meta == d.meta
        assert np.array_equal(d2.evaluate_all(10), d.evaluate_all(10))

    def test_json_shape(self):
        obj = json.loads(build_dfao(THIRD, "h").to_json())
        assert obj["input"] == "lsb-first"
        assert {"id", "label", "output"} <= set(obj["states"][0])
        assert len(obj["transitions"]) == len(obj["states"])
        assert all(len(t) == 2 for t in obj["transitions"])

    def test_from_json_rejects_other_conventions(self):
        obj = json.loads(build_dfao(THIRD, "f").to_json())
        obj["input"] = "msb-first"
        with pytest.raises(ValueError):
            Dfao.from_json(json.dumps(obj))

    @pytest.mark.parametrize("make", [
        lambda: build_dfao(THIRD, "f"),
        lambda: signed_dfao(_rat(1, 7), EpsilonSpec((1,), (0, 1))),
        lambda: minimize(build_dfao(_rat(-1, 131), "g")),
    ], ids=["f", "signed", "minimized"])
    def test_json_round_trip_bytes(self, make):
        text = make().to_json()
        assert Dfao.from_json(text).to_json() == text

    @pytest.mark.parametrize("field, value", [
        ("output", "1"),
        ("output", True),
        ("output", 2),
        ("output", _MISSING),
        ("id", True),
        ("label", ["f", 0]),
        ("meta", ["orbit"]),
        ("document", []),
        ("document", "x"),
        ("states", _MISSING),
        ("states", [1]),
        ("states", {"a": 1}),
        ("transitions", _MISSING),
        ("initial", _MISSING),
    ], ids=["output-str", "output-bool", "output-2", "output-missing", "id-bool", "label-list",
            "meta-list", "document-list", "document-str", "states-missing", "states-ints",
            "states-object", "transitions-missing", "initial-missing"])
    def test_from_json_rejects_bad_field(self, field, value):
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
        with pytest.raises(ValueError, match=field):
            Dfao.from_json(json.dumps(obj))

    def test_from_json_rejects_unordered_ids(self):
        obj = json.loads(build_dfao(THIRD, "f").to_json())
        obj["states"][0]["id"], obj["states"][1]["id"] = 1, 0
        with pytest.raises(ValueError, match="state ids"):
            Dfao.from_json(json.dumps(obj))

    @pytest.mark.parametrize("transitions", [
        lambda t: t[:-1],
        lambda t: t[:-1] + [[0, len(t)]],
        lambda t: t[:-1] + [[0, -1]],
        lambda t: t[:-1] + [[0]],
        lambda t: t[:-1] + [0],
    ], ids=["count", "past-end", "negative", "not-pair", "not-list"])
    def test_from_json_rejects_bad_transitions(self, transitions):
        obj = json.loads(build_dfao(THIRD, "f").to_json())
        obj["transitions"] = transitions(obj["transitions"])
        with pytest.raises(ValueError, match="transitions"):
            Dfao.from_json(json.dumps(obj))

    @pytest.mark.parametrize("initial", [7, -1, "0"])
    def test_from_json_rejects_bad_initial(self, initial):
        obj = json.loads(build_dfao(THIRD, "f").to_json())
        obj["initial"] = initial
        with pytest.raises(ValueError, match="initial"):
            Dfao.from_json(json.dumps(obj))

    def test_dot_output(self):
        dot = build_dfao(THIRD, "f").to_dot()
        assert dot.startswith("digraph")
        assert "__start" in dot and "rankdir=LR" in dot
        assert dot.count("->") >= 2 * 7
        # quotes and backslashes in labels are escaped inside the DOT strings
        odd = Dfao(('a"b', "c\\", "dead"), ((1, 2), (2, 2), (2, 2)), (1, -1, 0), 0)
        lines = odd.to_dot().splitlines()
        assert '  s0 [label="a\\"b / 1"];' in lines
        assert '  s1 [label="c\\\\ / -1"];' in lines
        assert Dfao.from_json(odd.to_json()).to_dot() == odd.to_dot()


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


def _reference_json(d: Dfao) -> str:
    """The encoder to_json replaced, kept as the oracle: json.dumps of the
    whole document, labels as "(a, b, ...)" of str() of their components."""
    def text(s):
        return s if isinstance(s, str) else "(" + ", ".join(str(p) for p in s) + ")"

    return json.dumps({
        "input": "lsb-first",
        "states": [{"id": i, "label": text(s), "output": d.out[i]}
                   for i, s in enumerate(d.states)],
        "initial": d.initial,
        "transitions": d.step,
        "meta": d.meta,
    }, sort_keys=True, indent=2)


# quotes, backslashes, non-ASCII (a surrogate pair included) and control
# characters
_TEXT = st.text(st.sampled_from('ab"\\\x00\x1f\n\t\x7f\u00e9\u2028\U0001d11e'), max_size=6)
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
    return Dfao(
        states=tuple(draw(st.lists(labels, min_size=n, max_size=n))),
        step=tuple(draw(st.lists(st.tuples(index, index), min_size=n, max_size=n))),
        out=tuple(draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))),
        initial=draw(index),
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
    @example(Dfao(("only",), ((0, 0),), (1,), 0))
    def test_to_json_matches_json_dumps(self, d):
        text = d.to_json()
        assert isinstance(text, str)
        assert text == _reference_json(d)

    @given(_dfaos(labels=_TEXT | st.just(DEAD)))
    def test_from_json_output_is_laid_out_as_json_dumps(self, d):
        back = Dfao.from_json(_reference_json(d))
        assert back.to_json() == _reference_json(back) == _reference_json(d)
