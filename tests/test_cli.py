"""Command-line interface: output shapes, exit codes, determinism."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import lacunary.automaton
import lacunary.cli
import lacunary.contfrac
import lacunary.jsontext
import lacunary.oeis
import lacunary.qseries

from lacunary.automaton import build_dfao, minimize, signed_dfao
from lacunary.bits import (
    EpsilonSpec,
    LambdaSpec,
    parse_epsilon_spec,
    parse_lambda_spec,
)
from lacunary.cli import main
from lacunary.contfrac import ContinuedFraction, convergents
from lacunary.dyadic import Dyadic, parse_omega
from lacunary.qseries import q_omega_window, q_poly
from lacunary.rings import (
    SparsePoly,
    poly_to_json,
    reduce_mod2,
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestStern:
    def test_table_with_negatives(self, capsys):
        rc, out, _ = run(capsys, "stern", "u", "--from", "-4", "--to", "4")
        assert rc == 0 and out.strip() == "2,1,1,0,1,1,2,1,3"

    def test_default_action_and_range(self, capsys):
        rc, out, _ = run(capsys, "stern")
        values = [int(v) for v in out.strip().split(",")]
        assert rc == 0 and len(values) == 17
        assert values[:8] == [1, 1, 2, 1, 3, 2, 3, 1]

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "stern", "beta", "--to", "3", "--csv")
        assert rc == 0
        assert out.splitlines() == ["n,beta", "0,1", "1,-1", "2,-2", "3,1"]

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "stern", "gamma", "--to", "5", "--json")
        obj = json.loads(out)
        assert rc == 0
        assert obj == {"from": 0, "sequence": "gamma", "to": 5,
                       "values": [1, -1, 0, 1, -1, 0]}

    def test_negative_range_only_for_u(self, capsys):
        rc, _, err = run(capsys, "stern", "carlitz", "--from", "-2", "--to", "3")
        assert rc == 2 and "n >= 0" in err

    def test_empty_range(self, capsys):
        rc, _, err = run(capsys, "stern", "u", "--from", "5", "--to", "1")
        assert rc == 2 and "empty range" in err

    def test_far_window_equals_scalars(self, capsys):
        from lacunary.stern import stern_u
        start = 10 ** 15
        rc, out, _ = run(capsys, "stern", "u", "--from", str(start), "--to", str(start + 100))
        assert rc == 0
        assert out.strip() == ",".join(str(stern_u(n)) for n in range(start, start + 101))

    @pytest.mark.parametrize("which", ["u", "v", "alpha", "beta", "gamma", "carlitz"])
    def test_single_index(self, capsys, which):
        from lacunary.stern import alpha, beta, gamma, stern_carlitz, stern_u, stern_v
        scalar = {"u": stern_u, "v": stern_v, "alpha": alpha, "beta": beta,
                  "gamma": gamma, "carlitz": stern_carlitz}[which]
        rc, out, _ = run(capsys, "stern", which, "--from", "1234", "--to", "1234", "--csv")
        assert rc == 0 and out.splitlines() == [f"n,{which}", f"1234,{scalar(1234)}"]

    def test_carlitz_past_int64(self, capsys):
        rc, out, err = run(capsys, "stern", "carlitz", "--from", str(1 << 62),
                           "--to", str(1 << 62))
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestQSeries:
    def test_integer_window_text(self, capsys):
        rc, out, _ = run(capsys, "qseries", "--omega", "int:2")
        assert rc == 0 and out.strip() == "{0: 1, 2: -1}"

    def test_mod2_drops_signs(self, capsys):
        rc, out, _ = run(capsys, "qseries", "--omega", "int:2", "--mod2")
        assert rc == 0 and out.strip() == "{0: 1, 2: 1}"

    def test_window_json(self, capsys):
        rc, out, _ = run(capsys, "qseries", "window", "--omega", "rat:1/3",
                         "--upto", "16", "--json")
        obj = json.loads(out)
        assert rc == 0
        assert obj["omega"] == "1/3" and obj["upto"] == 16 and not obj["mod2"]
        assert all(isinstance(e, int) and isinstance(c, str) for e, c in obj["terms"])

    def test_pell(self, capsys):
        rc, out, _ = run(capsys, "qseries", "pell", "--omega", "rat:1/5",
                         "--trunc", "64")
        assert rc == 0 and "holds" in out

    def test_anumber_decimal(self, capsys):
        rc, out, _ = run(capsys, "qseries", "anumber", "--omega", "int:0",
                         "--g", "10", "--digits", "6")
        assert rc == 0 and out.strip() == "1.000000"

    def test_anumber_json(self, capsys):
        rc, out, _ = run(capsys, "qseries", "anumber", "--omega", "rat:1/3",
                         "--terms", "30", "--json")
        obj = json.loads(out)
        assert rc == 0
        assert set(obj) == {"base", "decimal", "den", "num", "terms"}
        assert int(obj["den"]) > 0

    def test_anumber_forms_no_fraction(self, capsys, monkeypatch):
        # num / 10^last is already in lowest terms, so the command needs no
        # gcd; the digests pin the bytes the Fraction-based sum printed
        def boom(*args):
            raise AssertionError("anumber must not form a Fraction")

        monkeypatch.setattr(lacunary.qseries, "Fraction", boom)
        argv = ["qseries", "anumber", "--omega", "rat:1/3", "--terms", "4000", "--digits", "120"]
        digests = {
            (): "b2ad8f1297e5cf51ffe15dfe8c2c6c53f7060732a1acabcae50c965ca2f85d90",
            ("--json",): "d6f091189c963a64a18da383f2e322224a07d1a96ef38eb59e43a2d65d57e24f",
        }
        for extra, digest in digests.items():
            rc, out, err = run(capsys, *argv, *extra)
            assert (rc, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, extra

    def test_anumber_digit_count(self, capsys):
        rc, out, _ = run(capsys, "qseries", "anumber", "--digits", "0")
        assert rc == 0 and out.strip() == "0.0"
        rc, out, err = run(capsys, "qseries", "anumber", "--digits", "-3")
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: --digits must be at least 0, got -3"]

    def test_anumber_digits_cap_is_named(self, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("the sum must not start")

        monkeypatch.setattr(lacunary.cli, "a_number", boom)
        rc, out, err = run(capsys, "qseries", "anumber", "--digits", "4097")
        assert (rc, out) == (2, "")
        assert err == "error: --digits must be at most 4096 (2^12), got 4097\n"
        rc, out, _ = run(capsys, "qseries", "anumber", "--help")
        assert rc == 0 and re.search(r"--digits \S+ [^-]*4096 \(2\^12\)", out)

    def test_anumber_base_below_two_is_named(self, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("the sum must not start")

        monkeypatch.setattr(lacunary.cli, "a_number", boom)
        rc, out, err = run(capsys, "qseries", "anumber", "--g", "1")
        assert (rc, out) == (2, "")
        assert err == "error: --g must be at least 2, got 1\n"
        rc, out, _ = run(capsys, "qseries", "anumber", "--help")
        assert rc == 0 and re.search(r"--g G\s+base, at least 2", out)

    def test_anumber_digits_at_cap(self, capsys):
        rc, out, _ = run(capsys, "qseries", "anumber", "--digits", "4096")
        assert rc == 0
        whole, frac = out.strip().split(".")
        assert whole.isdigit() and len(frac) == 4096 and frac.isdigit()

    def test_anumber_json_past_int_str_limit(self, capsys):
        # the text form prints --digits digits; --json writes num and den whole
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            rc, out, _ = run(capsys, "qseries", "anumber", "--terms", "5000")
            assert rc == 0 and out
            rc, out, err = run(capsys, "qseries", "anumber", "--terms", "5000", "--json")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (rc, out) == (2, "")
        assert err == ("error: --json writes num and den in full: at --terms 5000 they "
                       "pass Python's 4300-digit int-to-str limit\n")

    def test_long_period_window_unchanged(self, capsys):
        # 1/1000003 has a digit period of 10^6 - 2; only the window is read
        rc, out, _ = run(capsys, "qseries", "--omega", "rat:1/1000003", "--upto", "8")
        assert rc == 0 and out == "{3: 1}\n"
        rc, out, _ = run(capsys, "qseries", "--omega", "rat:1/1000003", "--upto", "8",
                         "--json")
        assert rc == 0 and out == (
            '{\n  "mod2": false,\n  "omega": "1/1000003",\n'
            '  "terms": [\n    [\n      3,\n      "1"\n    ]\n  ],\n  "upto": 8\n}\n'
        )


def _digits(draw, low):
    return ",".join(map(str, draw(st.lists(st.integers(0, 1), min_size=low, max_size=3))))


@st.composite
def _cf_options(draw):
    """(--lambda, --eps, --precision, --n) of a cf over a random strictly
    2-lacunary lambda (Mersenne or a list), a random eps and a window of at
    most 512, --n None or a cap."""
    pre = _digits(draw, 0)
    eps = (f"pre:{pre}+" if pre else "") + "period:" + _digits(draw, 1)
    cap = draw(st.one_of(st.none(), st.integers(0, 12)))
    if draw(st.booleans()):
        return "mersenne", eps, draw(st.integers(3, 512)), cap
    vals = [draw(st.integers(1, 4))]
    while len(vals) < 2 or vals[-1] < 256 and draw(st.integers(0, 5)):
        vals.append(2 * vals[-1] + 1 + draw(st.integers(0, vals[-1] + 1)))
    # a window past 2 * lambda_0, where the first quotient is certified, up
    # to 2 * lambda_last, where it is still complete from the list
    window = draw(st.integers(2 * vals[0] + 1, min(2 * vals[-1], 512)))
    return "list:" + ",".join(map(str, vals)), eps, window, cap


class TestCf:
    def test_text_listing(self, capsys):
        rc, out, _ = run(capsys, "cf", "--n", "4", "--precision", "64")
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == "A_0 = 0"
        assert lines[1].startswith("A_1 = ")
        assert "certified: 5 of 5 quotients at precision 64" in lines[-1]

    def test_json_denominators_match_closed_form(self, capsys):
        rc, out, _ = run(capsys, "cf", "--n", "6", "--precision", "256", "--json")
        obj = json.loads(out)
        assert rc == 0
        assert obj["certified_count"] == 7 and not obj["terminated"]
        mers, zero = LambdaSpec.mersenne(), EpsilonSpec.zero()
        for n in range(7):
            assert obj["q"][n] == poly_to_json(q_poly(n, mers, zero))
            if n >= 1:
                # P_n = Q_{n-1} mod 2, read from P_n's printed terms
                p_n = sum(1 << e for e, c in obj["p"][n]["terms"] if int(c) & 1)
                assert p_n == reduce_mod2(q_poly(n - 1, mers, zero))

    @given(_cf_options())
    @example(("mersenne", "period:0", 64, None))           # an uncertified last quotient
    @example(("list:1,4,9,19,39", "pre:1+period:0,1", 78, 5))
    @example(("mersenne", "pre:1,1,0+period:0,1,1", 512, None))
    def test_every_printed_denominator_is_the_closed_form(self, options):
        # Q_n of the paper's 2-adic closed form for every n cf --json prints:
        # the uncertified tail and --n caps included
        lam, eps, window, cap = options
        argv = ["cf", "--lambda", lam, "--eps", eps, "--precision", str(window), "--json"]
        rc, out = _printed(main, argv + ([] if cap is None else ["--n", str(cap)]))
        qs = json.loads(out)["q"]
        assert rc == 0 and (cap is None or len(qs) <= cap + 1)
        lam, eps = parse_lambda_spec(lam), parse_epsilon_spec(eps)
        for n, q in enumerate(qs):
            assert q == poly_to_json(q_poly(n, lam, eps)), n

    def test_eps_changes_signs(self, capsys):
        rc, out, _ = run(capsys, "cf", "--n", "3", "--precision", "64",
                         "--eps", "period:1,0")
        assert rc == 0 and "A_0 = 0" in out

    def test_bad_lambda(self, capsys):
        rc, _, err = run(capsys, "cf", "--lambda", "list:1,2,5")
        assert rc == 2 and "error:" in err

    def test_json_polynomial_shape(self, capsys):
        rc, out, _ = run(capsys, "cf", "--n", "3", "--precision", "64", "--json")
        obj = json.loads(out)
        assert rc == 0
        # Q_2 = 1 - X^2 for the Mersenne series with all signs positive
        assert obj["q"][2] == {"ring": "Q", "terms": [[0, "1"], [2, "-1"]]}
        for key in ("a", "p", "q"):
            for poly in obj[key]:
                assert poly["ring"] == "Q"
                exps = [e for e, _ in poly["terms"]]
                assert exps == sorted(set(exps)), (key, exps)


    def test_text_skips_convergents(self, capsys, monkeypatch):
        def boom(quotients, side):
            raise AssertionError("text output must not compute P/Q")

        monkeypatch.setattr(lacunary.cli, "convergent_side", boom)
        rc, out, _ = run(capsys, "cf", "--n", "4", "--precision", "64")
        assert rc == 0
        assert out.splitlines() == [
            "A_0 = 0",
            "A_1 = X",
            "A_2 = -X",
            "A_3 = -X",
            "A_4 = -X",
            "certified: 5 of 5 quotients at precision 64",
        ]

    def test_cf_expands_without_euclid(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("cf must expand by folding")

        monkeypatch.setattr(lacunary.contfrac, "cf_expand", boom)
        monkeypatch.setattr(lacunary.cli, "cf_expand", boom, raising=False)
        rc, out, _ = run(capsys, "cf", "--n", "4", "--precision", "64")
        assert rc == 0
        assert out.splitlines()[-1] == "certified: 5 of 5 quotients at precision 64"
        rc, out, _ = run(capsys, "cf", "--n", "4", "--precision", "64", "--json")
        assert rc == 0 and json.loads(out)["certified_count"] == 5

    def test_negative_quotient_cap(self, capsys):
        rc, out, err = run(capsys, "cf", "--n", "-3", "--precision", "64")
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: --n must be at least 0, got -3"]

    def test_zero_quotient_cap(self, capsys):
        rc, out, _ = run(capsys, "cf", "--n", "0", "--precision", "64")
        assert rc == 0
        assert out.splitlines() == ["A_0 = 0", "certified: 1 of 1 quotients at precision 64"]

    # SHA-256 of stdout for uncapped expansions of deep windows: a change to
    # the Euclid loop must leave every byte of the output as it is.
    LIST = "list:2,7,21,56,148,386,1005,2615,6800,17682"

    @pytest.mark.parametrize("argv, digest", [
        (("--precision", "4096"),
         "34a37a75c4b53a6398086759444524c52e2a71f7f79fc7829fc65d9bd9889dc8"),
        (("--precision", "4096", "--json"),
         "974eaef6393a489b35f4c4ec674ede461dbbf867f757f61c0f4e7dec532c748f"),
        (("--precision", "4096", "--eps", "pre:1+period:0,1"),
         "fa2219b782bca3bec5df0d69d9979116f683fb663d1be6e85dad1fb6085b39ec"),
        (("--precision", "4096", "--eps", "pre:1+period:0,1", "--json"),
         "0a637a0d1a481df777c77631ebb1d9e8bb4d0f02e8d871f05053c87a84bbcf40"),
        (("--precision", "16384", "--lambda", LIST),
         "a94d911c7754e9eb9d55db442f6472939428d0d4340b2b2818dd90ca2123fa89"),
        (("--precision", "16384", "--lambda", LIST, "--json"),
         "e515d1d5546d8918b95bc7d60c62152b877d4d1a3abb28ffec0dcaadd13b49e9"),
    ], ids=["mersenne", "mersenne-json", "signed", "signed-json", "list", "list-json"])
    def test_output_unchanged(self, capsys, argv, digest):
        rc, out, _ = run(capsys, "cf", *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


_coeffs = st.sampled_from([1, -1, 2, -7, 10**30, -3])
_polys = st.lists(st.tuples(st.integers(0, 5), _coeffs), max_size=3).map(SparsePoly.build)


@st.composite
def _expansions(draw):
    quotients = tuple(draw(st.lists(_polys, min_size=1, max_size=5)))
    return ContinuedFraction(
        quotients,
        certified=draw(st.integers(0, len(quotients))),
        precision=draw(st.one_of(st.none(), st.integers(1, 4096))),
        terminated=draw(st.booleans()),
    )


@given(_expansions())
@example(ContinuedFraction(
    (SparsePoly.zero(), SparsePoly.build([(1, -7), (0, 3)])),
    certified=2, precision=None, terminated=True,
))
def test_cf_json_writer_matches_dump(cf):
    conv = convergents(cf)
    want = json.dumps({
        "a": [poly_to_json(p) for p in cf.quotients],
        "p": [poly_to_json(p) for p in conv.p],
        "q": [poly_to_json(p) for p in conv.q],
        "certified": [i < cf.certified for i in range(len(cf.quotients))],
        "certified_count": cf.certified,
        "precision": cf.precision,
        "terminated": cf.terminated,
    }, sort_keys=True, indent=2) + "\n"
    # a write of 1 or 3 polynomials puts write edges inside these small lists
    for chunk in (1, 3, lacunary.cli._POLY_CHUNK):
        with mock.patch.object(lacunary.cli, "_POLY_CHUNK", chunk):
            assert _printed(lacunary.cli._write_cf_json, cf) == (None, want), chunk


def test_cf_json_formats_each_distinct_term_once(monkeypatch):
    calls = []
    missing = lacunary.cli._TermTexts.__missing__
    monkeypatch.setattr(lacunary.cli._TermTexts, "__missing__",
                        lambda texts, term: calls.append(term) or missing(texts, term))
    rc, out = _printed(main, ["cf", "--precision", "1024", "--json"])
    written = [(e, c) for key in "apq" for poly in json.loads(out)[key] for e, c in poly["terms"]]
    assert rc == 0 and len(written) > 4 * len(set(written))
    assert len(calls) == len(set(written))
    assert {(e, str(c)) for e, c in calls} == set(written)


def test_cf_text_formats_each_distinct_quotient_once(monkeypatch):
    calls = []
    text = SparsePoly.__str__
    monkeypatch.setattr(SparsePoly, "__str__", lambda p: calls.append(p) or text(p))
    rc, out = _printed(main, ["cf", "--precision", "1024"])
    quotients = [line.split(" = ")[1].split("   ")[0] for line in out.splitlines()[:-1]]
    assert rc == 0 and len(quotients) > 4 * len(set(quotients))
    assert len(calls) == len(set(calls)) == len(set(quotients))
    assert {text(p) for p in calls} == set(quotients)


def test_cf_json_formats_each_distinct_quotient_once(monkeypatch):
    calls = []
    entry = lacunary.cli._poly_entry
    monkeypatch.setattr(lacunary.cli, "_poly_entry",
                        lambda terms, texts: calls.append(terms) or entry(terms, texts))
    rc, out = _printed(main, ["cf", "--precision", "1024", "--json"])
    doc = json.loads(out)
    distinct = {json.dumps(a) for a in doc["a"]}
    assert rc == 0 and len(doc["a"]) > 4 * len(distinct)
    # one entry per distinct quotient, then one per P_n and one per Q_n
    assert len(calls) == len(distinct) + len(doc["p"]) + len(doc["q"])


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
def test_cf_writers_never_hash_or_compare_a_quotient(monkeypatch, form):
    def boom(*args):
        raise AssertionError("a SparsePoly was hashed or compared")

    want = _printed(main, ["cf", "--precision", "1024", *form])
    monkeypatch.setattr(SparsePoly, "__hash__", boom)
    monkeypatch.setattr(SparsePoly, "__eq__", boom)
    assert _printed(main, ["cf", "--precision", "1024", *form]) == want


class _Writes(io.StringIO):
    """A stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


def test_cf_json_is_written_as_it_is_formed():
    out = _Writes()
    with contextlib.redirect_stdout(out):
        assert main(["cf", "--precision", "4096", "--json"]) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "974eaef6393a489b35f4c4ec674ede461dbbf867f757f61c0f4e7dec532c748f")
    assert len(out.sizes) > 100
    assert max(out.sizes) < len(text) / 10


def _dumps(payload) -> str:
    """The JSON oracle: print(json.dumps(payload, sort_keys=True, indent=2))."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _printed(fn, *args):
    """(return value, stdout) of fn(*args)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = fn(*args)
    return rc, out.getvalue()


# The streamed tables against the whole-document writers they replace:
# print(json.dumps(..., sort_keys=True, indent=2)), one print per CSV row,
# and one joined text line.  A chunk of 1 or 3 strings puts chunk edges
# inside these small tables.
_CHUNKS = st.sampled_from([1, 3, lacunary.jsontext.CHUNK])


@given(st.sampled_from(["u", "v", "alpha", "beta", "gamma", "carlitz"]),
       st.integers(-40, 300), st.integers(0, 11), _CHUNKS)
@example("u", -5, 0, 1)
@example("u", -9, 9, 3)
@example("carlitz", 7, 0, 3)
@example("u", (1 << 64) + 3, 11, 3)         # past int64 indices, int64 values
@example("v", (1 << 88) - 5, 11, 1)         # across 2^88: Python-int arrays
@example("alpha", (1 << 88) + 9, 11, 3)
@example("gamma", (1 << 100) + 1, 7, 1)
def test_stern_writers_match_print(which, start, extra, chunk):
    if which != "u":
        start = abs(start)
    to = start + extra
    values = [int(v) for v in lacunary.cli._STERN_FUNCS[which](start, to)]

    def rows():
        print("n," + which)
        for n, v in zip(range(start, to + 1), values):
            print(f"{n},{v}")

    want = {
        "--json": _dumps({"from": start, "sequence": which, "to": to, "values": values}),
        "--csv": _printed(rows)[1],
        "text": ",".join(str(v) for v in values) + "\n",
    }
    argv = ["stern", which, "--from", str(start), "--to", str(to)]
    with mock.patch.object(lacunary.jsontext, "CHUNK", chunk):
        for form, text in want.items():
            assert _printed(main, argv + ([] if form == "text" else [form])) == (0, text), form


@given(_expansions(), _CHUNKS)
@example(ContinuedFraction((SparsePoly.zero(),) + (SparsePoly.build([(1, -1)]),) * 6,
                           certified=4, precision=64, terminated=False), 3)
def test_cf_text_writer_matches_print(cf, chunk):
    def lines():
        for i, quot in enumerate(cf.quotients):
            mark = "" if i < cf.certified else "   (uncertified)"
            print(f"A_{i} = {quot}{mark}")
        print(f"certified: {cf.certified} of {len(cf.quotients)} quotients at precision {cf.precision}")

    with mock.patch.object(lacunary.jsontext, "CHUNK", chunk):
        assert _printed(lacunary.cli._write_cf_text, cf) == _printed(lines)


@given(st.sampled_from(["int:6", "rat:1/3", "rat:-5/7", "rat:1/11", "rat:-1/131"]),
       st.sampled_from(["f", "g", "h", "signed"]), st.booleans(), _CHUNKS)
@example("rat:-1/131", "g", False, 3)
@example("rat:-5/7", "signed", False, 1)
@example("rat:1/3", "h", True, 3)
@example("rat:-1/131", "signed", True, lacunary.jsontext.CHUNK)
def test_automaton_writers_match_print(omega, tag, minimized, chunk):
    w = parse_omega(omega)
    d = signed_dfao(w, EpsilonSpec.zero()) if tag == "signed" else build_dfao(w, tag)
    d = minimize(d) if minimized else d

    def listing():
        print(f"states: {len(d)}, initial: 0")
        for i, ((t0, t1), out) in enumerate(zip(d.step.tolist(), d.out.tolist())):
            print(f"  {i}: out {out:+d}, 0 -> {t0}, 1 -> {t1}")

    # the export's pieces, at any chunk, are print(d.to_json()) at the default
    exported = _printed(print, d.to_json())[1]
    argv = ["automaton", "build", "--omega", omega, "--tag", tag] + ["--minimize"] * minimized
    with mock.patch.object(lacunary.jsontext, "CHUNK", chunk):
        assert _printed(main, argv) == (0, _printed(listing)[1])
        rc, out = _printed(main, argv + ["--export", "json"])
        assert _printed(main, ["--json", *argv]) == (0, exported)
    assert rc == 0 and out == exported == _dumps(json.loads(out))


@given(st.sampled_from(["int:-1", "int:0", "int:6", "rat:1/3", "rat:-5/7", "stream:thue-morse"]),
       st.sampled_from(["mersenne", "list:1,3,7,15,31,63,127,255"]),
       st.sampled_from(["period:0", "pre:1+period:0,1"]),
       st.integers(0, 255), st.booleans(), _CHUNKS)
@example("int:-1", "mersenne", "period:0", 40, False, 3)    # no terms
@example("int:0", "mersenne", "period:0", 40, True, 3)      # one term
@example("rat:1/3", "mersenne", "period:0,1", 12, False, 1)
def test_qseries_writers_match_dump(omega, lam, eps, upto, mod2, chunk):
    w = parse_omega(omega)
    exps, coeffs = q_omega_window(w, parse_lambda_spec(lam), parse_epsilon_spec(eps), upto)
    terms = [(int(e), int(c)) for e, c in zip(exps, coeffs)]
    if mod2:
        terms = [(e, abs(c)) for e, c in terms]
    payload = {"mod2": mod2, "omega": w.describe(),
               "terms": [[e, str(c)] for e, c in terms], "upto": upto}
    want = {
        "--json": _dumps(payload),
        "text": "{" + ", ".join(f"{e}: {c}" for e, c in terms) + "}\n",
    }
    argv = ["qseries", "--omega", omega, "--lambda", lam, "--eps", eps, "--upto", str(upto)]
    argv += ["--mod2"] if mod2 else []
    with mock.patch.object(lacunary.jsontext, "CHUNK", chunk):
        for form, text in want.items():
            assert _printed(main, argv + ([] if form == "text" else [form])) == (0, text), form


_PACKAGE_DIR = os.path.dirname(lacunary.cli.__file__)
_MODULES = sorted(info.name for info in pkgutil.iter_modules([_PACKAGE_DIR]))


def _fresh_stdout(code: str) -> str:
    """What code prints in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(_PACKAGE_DIR))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_import_leaves_numpy_unloaded():
    assert _fresh_stdout("import sys, lacunary.cli; print('numpy' in sys.modules)") == "False\n"


def test_cf_writers_leave_numpy_unloaded():
    assert _fresh_stdout(
        "import contextlib, io, sys, lacunary.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = [lacunary.cli.main(['cf', '--precision', '1024', *form])\n"
        "          for form in ([], ['--json'])]\n"
        "print(rc, 'numpy' in sys.modules)"
    ) == "[0, 0] False\n"


def test_small_stern_table_leaves_numpy_unloaded():
    # the README example: both parts of the window are filled index by index
    assert _fresh_stdout(
        "import contextlib, io, sys, lacunary.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    rc = lacunary.cli.main(['stern', 'u', '--from', '-4', '--to', '8'])\n"
        "print(rc, out.getvalue().strip(), 'numpy' in sys.modules)"
    ) == "0 2,1,1,0,1,1,2,1,3,2,3,1,4 False\n"


@pytest.mark.parametrize("module", _MODULES)
def test_import_layering(module):
    # Each name is imported from the module that defines it and the package
    # root re-exports nothing, so a module loads only what it uses.
    names, fractions = _fresh_stdout(
        f"import sys, lacunary.{module}; "
        "print(*(name for name in sys.modules if name.startswith('lacunary.')))\n"
        "print('fractions' in sys.modules)"
    ).splitlines()
    loaded = set(names.split()) - {f"lacunary.{module}"}
    if module not in ("cli", "qseries", "verify"):
        # polynomials are over Z: only the A-number's value and verify's
        # own round-trip checks are Fractions
        assert fractions == "False"
    if module in ("bits", "jsontext", "periodic", "rings"):
        assert loaded == set()
    if module == "cli":
        # perfbench collects the package's caches from sys.modules after it
        assert loaded == {f"lacunary.{name}" for name in _MODULES if name != "cli"}
    else:
        assert "lacunary.cli" not in loaded
    if module not in ("cli", "verify"):
        assert "lacunary.verify" not in loaded


class TestAutomaton:
    def test_build_text(self, capsys):
        rc, out, _ = run(capsys, "automaton", "--omega", "rat:1/3", "--tag", "f")
        assert rc == 0
        assert out.splitlines()[0].startswith("states: 7")

    def test_minimize_flag(self, capsys):
        rc, out, _ = run(capsys, "automaton", "--omega", "rat:1/3", "--minimize")
        assert rc == 0 and out.splitlines()[0].startswith("states: 5")

    def test_export_dot(self, capsys):
        rc, out, _ = run(capsys, "automaton", "build", "--omega", "rat:1/5",
                         "--export", "dot")
        assert rc == 0 and out.startswith("digraph") and "->" in out

    def test_export_json(self, capsys):
        rc, out, _ = run(capsys, "automaton", "--omega", "rat:1/3", "--tag", "h",
                         "--export", "json")
        obj = json.loads(out)
        assert rc == 0 and obj["input"] == "lsb-first"
        assert len(obj["states"]) == 6

    def test_signed_tag(self, capsys):
        rc, out, _ = run(capsys, "automaton", "--omega", "rat:1/3",
                         "--tag", "signed", "--eps", "period:1,0")
        assert rc == 0 and out.startswith("states:")

    # SHA-256 of stdout for a signed automaton: the product of the f-kernel
    # machine with the sign trackers must keep its labels, BFS order and
    # minimized form byte for byte.
    @pytest.mark.parametrize("extra, digest", [
        (("--export", "json"),
         "38471e3930958f407cb4b16b136e5c09c70d1e4973230121a9e35ee4a34e87cf"),
        (("--export", "dot"),
         "bd32f57d1e7c20fc31035a56a1e6b837a87e7d9e71f4b166ae83a5e7b5acc5fb"),
        (("--minimize",),
         "4d2a943efd59963291b2ee5cfcab4c821efa984cbea3632f3a75cb32c99d6987"),
    ], ids=["json", "dot", "minimize"])
    def test_signed_output_unchanged(self, capsys, extra, digest):
        rc, out, _ = run(capsys, "automaton", "build", "--omega", "rat:1/7", "--tag", "signed",
                         "--eps", "pre:1+period:0,1", *extra)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # SHA-256 of stdout for a plain g-kernel automaton (period 130 orbit):
    # the index tables must keep the BFS numbering, the minimized form and
    # both exports byte for byte.
    @pytest.mark.parametrize("extra, digest", [
        ((), "e8a4a7ac7320cfad2d9b03ebbdcc8a6ecce127051f21aa6ccbc96eea4e655f00"),
        (("--minimize",),
         "ec460560ecd601ef03d286c8e4bbecbf5a3541ef89561c0bb97aa4272a463502"),
        (("--export", "json"),
         "b24d49f12562892be8a86ea90f9f261b6fc2d123db93fbf984e1aa838bb1d344"),
        (("--export", "dot"),
         "c5dae2edc9d100f0461bdd8fc202503a730c37e27e52fac832dfbbfa6cd58332"),
    ], ids=["text", "minimize", "json", "dot"])
    def test_plain_output_unchanged(self, capsys, extra, digest):
        rc, out, _ = run(capsys, "automaton", "build", "--omega", "rat:-1/131", "--tag", "g",
                         *extra)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("upto", ["0", "-5"])
    def test_verify_rejects_empty_range(self, capsys, upto):
        rc, out, err = run(capsys, "automaton", "verify", "--upto", upto)
        assert rc == 2 and out == ""
        assert err == f"error: --upto must be at least 1, got {upto}\n"

    def test_verify_names_first_mismatch(self, capsys, monkeypatch):
        real = lacunary.cli.kernel_range

        def corrupted(w, k_max, tag="f"):
            flags = real(w, k_max, tag)
            flags[5] = not flags[5]
            return flags

        monkeypatch.setattr(lacunary.cli, "kernel_range", corrupted)
        rc, out, _ = run(capsys, "automaton", "verify", "--omega", "rat:1/3", "--upto", "64")
        flag = int(real(lacunary.cli.parse_omega("rat:1/3"), 5, "f")[5])
        assert rc == 1
        assert out == f"MISMATCH: tag f, k = 5: automaton {flag}, direct {1 - flag}\n"

    def test_verify_sweep(self, capsys):
        rc, out, _ = run(capsys, "automaton", "verify", "--omega", "rat:3/7",
                         "--upto", "4096")
        assert rc == 0
        assert "matches direct evaluation for all k < 4096" in out

    @pytest.mark.parametrize("omega", ["rat:1/101", "rat:1/1000003"])
    def test_verify_builds_for_its_digits(self, capsys, monkeypatch, omega):
        # k < 256 reads 8 digits: 9 orbit positions, so at most 3 * 9 + 1 states
        sizes = []
        real = lacunary.cli.build_dfao

        def recording(*args):
            d = real(*args)
            sizes.append(len(d))
            return d

        monkeypatch.setattr(lacunary.cli, "build_dfao", recording)
        rc, _, _ = run(capsys, "automaton", "verify", "--omega", omega, "--upto", "256")
        assert rc == 0
        assert len(sizes) == 3 and max(sizes) <= 3 * 9 + 1

    def test_verify_walks_its_digits_only(self, capsys, monkeypatch):
        # k < 16 reads 4 digits of each shift: 5 numerators of 1000003
        walks = []
        real = lacunary.automaton.numerator_orbit

        def walk(num, den, limit=None):
            assert limit is not None and limit <= 64, f"walk of {limit} numerators"
            nums, cut = real(num, den, limit)
            walks.append(len(nums))
            return nums, cut

        monkeypatch.setattr(lacunary.automaton, "numerator_orbit", walk)
        rc, _, _ = run(capsys, "automaton", "verify", "--omega", "rat:1/1000003", "--upto", "16")
        assert rc == 0
        assert walks == [5, 5, 5]

    # 1/1048589 has 1048589 shift-orbit numerators, 13 over the cap
    @pytest.mark.parametrize("extra", [[], ["--export", "json"], ["--minimize"],
                                       ["--tag", "signed"]])
    def test_whole_automaton_refuses_an_orbit_over_the_cap(self, capsys, extra):
        rc, out, err = run(capsys, "automaton", "build", "--omega", "rat:1/1048589", *extra)
        assert (rc, out) == (2, "")
        assert err == ("error: the shift orbit of 1/1048589 has more than 1048576 numerators, "
                       "the cap of a whole automaton\n")

    def test_algrel_found(self, capsys):
        rc, out, _ = run(capsys, "automaton", "algrel", "--omega", "rat:1/3")
        assert rc == 0
        assert "= 0  (mod X^4096)" in out
        assert "verified to O(X^4096)" in out

    def test_algrel_json(self, capsys):
        rc, out, _ = run(capsys, "automaton", "algrel", "--omega", "rat:1/3",
                         "--trunc", "2048", "--json")
        obj = json.loads(out)
        assert rc == 0 and obj["found"] and obj["kind"] == "generic"
        assert obj["coefficients"] == ["8", "1", "4", "0", "0"]

    def test_algrel_absent(self, capsys):
        rc, out, _ = run(capsys, "automaton", "algrel", "--omega", "rat:1/3",
                         "--deg", "1", "--height", "0", "--trunc", "64")
        assert rc == 1 and "no relation" in out


class TestVerify:
    def test_only_selection(self, capsys):
        rc, out, _ = run(capsys, "verify", "--only",
                         "core.ring-axioms,bits.lucas-pascal-row")
        assert rc == 0
        assert "2/2 checks passed" in out
        assert "PASS" in out

    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, "verify", "--only", "stern.carlitz-identity",
                         "--json", "--seed", "3")
        obj = json.loads(out)
        assert rc == 0
        assert obj["passed"] == 1 and obj["failed"] == 0
        assert obj["checks"][0]["name"] == "stern.carlitz-identity"

    def test_unknown_name(self, capsys):
        rc, out, err = run(capsys, "verify", "--only", "no.such-check")
        assert rc == 2 and out == ""
        assert err == "error: unknown check names: ['no.such-check']\n"

    @pytest.mark.parametrize("only", [",", " ", ""])
    def test_only_naming_no_check(self, capsys, monkeypatch, only):
        # exit 2 before any work, not a vacuous "0/0 checks passed"
        def boom(**kwargs):
            raise AssertionError("no check may run")

        monkeypatch.setattr(lacunary.cli.verify_mod, "run_checks", boom)
        rc, out, err = run(capsys, "verify", "--only", only)
        assert (rc, out, err) == (2, "", "error: --only names no check\n")

    def test_stray_positional_rejected(self, capsys):
        # verify takes no positional: a stray word must not run every check
        rc, out, err = run(capsys, "verify", "junk")
        assert (rc, out, err) == (2, "", "error: unrecognized arguments: junk\n")

    def test_seed_and_level(self, capsys):
        outs = []
        for argv in (("verify", "--seed", "7", "--level", "quick", "--json"),
                     ("--json", "verify", "--seed", "7"),
                     ("verify", "--json", "--seed", "0"),
                     ("verify", "--json")):
            rc, out, _ = run(capsys, *argv, "--only", "dyadic.roundtrip-canonical")
            assert rc == 0
            obj = json.loads(out)
            assert obj["passed"] == 1 and obj["failed"] == 0
            outs.append(re.sub(r'"seconds": [^,\n]+', '"seconds": _', out))
        # --seed 0 and --level quick are the defaults
        assert outs[0] == outs[1] and outs[2] == outs[3]

    @pytest.mark.parametrize("argv", [
        ("cf", "--level", "full"),
        ("qseries", "--seed", "1"),
        ("--seed", "1", "verify"),
    ])
    def test_seed_and_level_only_on_verify(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert "error:" in err


class TestOeis:
    def test_single_id(self, capsys):
        rc, out, _ = run(capsys, "oeis-check", "A002487", "--limit", "64")
        assert rc == 0 and "OK" in out

    def test_all_profiles(self, capsys):
        rc, out, _ = run(capsys, "oeis-check", "--limit", "40")
        assert rc == 0 and len(out.strip().splitlines()) == 7

    def test_all_profiles_json_is_one_list(self, capsys):
        rc, out, _ = run(capsys, "oeis-check", "--limit", "10", "--json")
        reports = json.loads(out)
        assert rc == 0 and len(reports) == 7
        assert reports == [json.loads(run(capsys, "oeis-check", seq_id, "--limit", "10", "--json")[1])
                           for seq_id in sorted(lacunary.oeis.PROFILES)]

    @pytest.mark.parametrize("form", [(), ("--json",)])
    def test_all_profiles_exit_with_the_worst(self, capsys, monkeypatch, form):
        check = lacunary.cli.check_oeis

        def one_mismatch(seq_id, **kwargs):
            report = check(seq_id, **kwargs)
            if seq_id != "A049347":
                return report
            return lacunary.oeis.CheckReport(seq_id, report.compared, False, (0, 1, 2))

        monkeypatch.setattr(lacunary.cli, "check_oeis", one_mismatch)
        rc, out, _ = run(capsys, "oeis-check", "--limit", "10", *form)
        assert rc == 1 and out.count("MISMATCH") == 1 and out.count("OK") == 6

    def test_doctored_bfile(self, capsys, tmp_path):
        bad = tmp_path / "b002487.txt"
        bad.write_text("0 0\n1 999\n")
        rc, out, _ = run(capsys, "oeis-check", "A002487", "--bfile", str(bad))
        assert rc == 1 and "MISMATCH" in out

    def test_missing_bfile(self, capsys):
        rc, _, err = run(capsys, "oeis-check", "A002487", "--bfile",
                         "/no/such/file.txt")
        assert rc == 2 and "error:" in err

    @pytest.mark.parametrize("extra", [(), ("--limit", "3"), ("--json",)])
    def test_bfile_without_id_is_refused_first(self, capsys, monkeypatch, extra):
        def boom(*args, **kwargs):
            raise AssertionError("no sequence may be checked")

        monkeypatch.setattr(lacunary.cli, "check_oeis", boom)
        rc, out, err = run(capsys, "oeis-check", "--bfile", "/no/such/file", *extra)
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: --bfile needs an id"]

    @pytest.mark.parametrize("argv", [
        ("oeis-check", "A002487", "--bfile"),
        ("stern", "oeis-check", "--id", "A002487", "--bfile"),
    ])
    def test_directory_bfile(self, capsys, tmp_path, argv):
        rc, out, err = run(capsys, *argv, str(tmp_path))
        assert rc == 2 and out == ""
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_bfile_index_past_64_bits(self, capsys, tmp_path):
        # the Stern scalars recurse per binary digit: 1100 digits would
        # end in a RecursionError, so the index is refused first
        bfile = tmp_path / "b002487.txt"
        bfile.write_text(f"{1 << 1100} 1\n")
        rc, out, err = run(capsys, "oeis-check", "A002487", "--bfile", str(bfile))
        assert rc == 2 and out == ""
        assert err == f"error: b-file index {1 << 1100} has more than 64 bits\n"

    def test_bfile_index_of_64_bits_is_compared(self, capsys, tmp_path):
        bfile = tmp_path / "b002487.txt"
        bfile.write_text(f"{(1 << 64) - 1} 1\n")
        rc, out, _ = run(capsys, "oeis-check", "A002487", "--bfile", str(bfile))
        assert rc in (0, 1) and out.startswith("A002487: ")

    @pytest.mark.parametrize("argv", [
        ("oeis-check", "A002487", "--limit", "-1"),
        ("oeis-check", "--limit", "-1"),
        ("stern", "oeis-check", "--id", "A002487", "--limit", "-1"),
        ("oeis-check", "A002487", "--limit", "0"),
        ("oeis-check", "--limit", "0"),
        ("stern", "oeis-check", "--id", "A002487", "--limit", "0"),
    ])
    def test_negative_limit(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: --limit must be at least 1, got {argv[-1]}"]

    def test_stern_alias_requires_id(self, capsys):
        rc, _, err = run(capsys, "stern", "oeis-check")
        assert rc == 2 and "needs --id" in err

    @pytest.mark.parametrize("argv", [("oeis-check", "A000001"),
                                      ("stern", "oeis-check", "--id", "A000001")])
    def test_unknown_id(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err == "error: no profile for A000001\n"


# (argv, exit code) of every subcommand that writes JSON
@pytest.mark.parametrize("argv, code", [
    (("cf", "--n", "5", "--precision", "128", "--eps", "pre:1+period:0,1", "--json"), 0),
    (("qseries", "window", "--omega", "rat:-5/7", "--upto", "40", "--json"), 0),
    (("qseries", "pell", "--omega", "rat:1/5", "--trunc", "64", "--json"), 0),
    (("qseries", "anumber", "--omega", "rat:1/3", "--terms", "30", "--json"), 0),
    (("stern", "u", "--from", "-4", "--to", "12", "--json"), 0),
    (("stern", "oeis-check", "--id", "A049347", "--limit", "32", "--json"), 0),
    (("automaton", "build", "--omega", "rat:1/7", "--tag", "signed", "--json"), 0),
    (("automaton", "build", "--omega", "rat:-1/131", "--minimize", "--export", "json"), 0),
    (("automaton", "algrel", "--omega", "rat:1/3", "--trunc", "2048", "--json"), 0),
    (("automaton", "algrel", "--omega", "rat:1/3", "--deg", "1", "--height", "0",
      "--trunc", "64", "--json"), 1),
    (("oeis-check", "A002487", "--limit", "64", "--json"), 0),
    (("oeis-check", "--limit", "10", "--json"), 0),
    (("verify", "--only", "stern.carlitz-identity,core.ring-axioms", "--json"), 0),
], ids=["cf", "qseries-window", "qseries-pell", "qseries-anumber", "stern", "stern-oeis",
        "automaton-build", "automaton-export", "algrel-found", "algrel-absent", "oeis-check",
        "oeis-check-all", "verify"])
def test_json_is_laid_out_as_json_dumps(capsys, argv, code):
    rc, out, _ = run(capsys, *argv)
    assert rc == code
    assert out == _dumps(json.loads(out))


class _FailingStdout(io.StringIO):
    """A stdout whose every write raises error."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("argv", [
    ("stern", "u", "--to", "20", "--csv"),
    ("cf", "--n", "3", "--precision", "64", "--json"),
    ("oeis-check", "A002487", "--limit", "5"),
])
@pytest.mark.parametrize("error, lines", [
    (BrokenPipeError(errno.EPIPE, "Broken pipe"), []),
    (OSError(errno.ENOSPC, "No space left on device"),
     ["error: [Errno 28] No space left on device"]),
], ids=["closed", "full"])
def test_failed_stdout_exits_1(argv, error, lines):
    # a closed pipe (`| head`) is reported by its exit code only
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingStdout(error)), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert rc == 1 and err.getvalue().splitlines() == lines


class TestUsageAndDeterminism:
    def test_unknown_subcommand(self, capsys):
        rc, _, _ = run(capsys, "frobnicate")
        assert rc == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "qseries", "--help")[0] == 0

    @pytest.mark.parametrize("argv", [
        (),
        ("frobnicate",),
        ("cf", "bogus"),
        ("cf", "--precision", "abc"),
        ("stern", "w", "--to", "3"),
        ("automaton", "--tag", "x"),
        ("cf", "--level", "full"),
        ("verify", "--level", "medium"),
    ])
    def test_argparse_errors_are_one_line(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    # before the command word the root names the option alone; after it, the
    # action's parser names every word it does not read
    @pytest.mark.parametrize("argv, unknown", [
        (("cf", "--level", "full"), "--level full"),
        (("cf", "--precision", "64", "--level", "full"), "--level full"),
        (("stern", "--level", "u"), "--level u"),
        (("--seed", "1", "verify"), "--seed"),
        (("--level", "full", "verify"), "--level"),
    ])
    def test_unknown_option_is_named(self, capsys, argv, unknown):
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert err == f"error: unrecognized arguments: {unknown}\n"

    @pytest.mark.parametrize("argv, line", [
        (("qseries", "--upto", "-1"), "error: --upto must be at least 0, got -1"),
        (("qseries", "pell", "--trunc", "-1"), "error: --trunc must be at least 0, got -1"),
        (("automaton", "algrel", "--trunc", "0"), "error: --trunc must be at least 1, got 0"),
        (("cf", "--n", "-1"), "error: --n must be at least 0, got -1"),
        (("qseries", "anumber", "--terms", "-1"), "error: --terms must be at least 0, got -1"),
        (("qseries", "anumber", "--digits", "-3"), "error: --digits must be at least 0, got -3"),
        (("automaton", "algrel", "--deg", "0"), "error: --deg must be at least 1, got 0"),
        (("automaton", "algrel", "--height", "-1"), "error: --height must be at least 0, got -1"),
    ])
    def test_range_option_is_named(self, capsys, argv, line):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err == line + "\n"

    # Only the rejection is run: a kernel sweep allocates a byte per k, so a
    # size past the cap is refused before any work.
    @pytest.mark.parametrize("argv, option", [
        (("qseries", "--upto"), "--upto"),
        (("qseries", "window", "--upto"), "--upto"),
        (("qseries", "pell", "--trunc"), "--trunc"),
        (("automaton", "verify", "--upto"), "--upto"),
        (("automaton", "algrel", "--omega", "rat:1/3", "--deg", "1", "--trunc"), "--trunc"),
        (("qseries", "anumber", "--terms"), "--terms"),
    ])
    @pytest.mark.parametrize("size", [(1 << 24) + 1, 99999999999])
    def test_kernel_size_cap_is_named(self, capsys, argv, option, size):
        rc, out, err = run(capsys, *argv, str(size))
        assert rc == 2 and out == ""
        assert err == f"error: {option} must be at most 16777216 (2^24), got {size}\n"

    @pytest.mark.parametrize("command, action, option", [
        ("qseries", "window", "--upto"),
        ("qseries", "pell", "--trunc"),
        ("qseries", "anumber", "--terms"),
        ("automaton", "verify", "--upto"),
        ("automaton", "algrel", "--trunc"),
    ])
    def test_kernel_size_cap_in_help(self, capsys, command, action, option):
        rc, out, _ = run(capsys, command, action, "--help")
        assert rc == 0
        assert re.search(rf"{option} \S+ [^-]*16777216 \(2\^24\)", " ".join(out.split()))

    # Only the rejection is run: the elimination could hold (deg + 1)(height
    # + 1) columns of trunc bits, so a search past 2^33 bits is refused
    # before the stream is formed.
    @pytest.mark.parametrize("trunc, deg, height", [
        (1 << 24, 1, (1 << 21) - 1),
        (1 << 24, 7, 64),
        (1 << 20, 4, 8191),
        (2, 10 ** 12, 0),
    ])
    def test_relation_search_cap_is_named(self, capsys, monkeypatch, trunc, deg, height):
        def boom(*args):
            raise AssertionError("the search must not start")

        monkeypatch.setattr(lacunary.qseries, "q_support_flags", boom)
        monkeypatch.setattr(lacunary.cli, "find_algebraic_relation", boom)
        rc, out, err = run(capsys, "automaton", "algrel", "--omega", "stream:thue-morse",
                           "--trunc", str(trunc), "--deg", str(deg), "--height", str(height))
        assert (rc, out) == (2, "")
        assert err == ("error: (--deg + 1) * (--height + 1) * --trunc must be at most "
                       f"8589934592 (2^33), got {(deg + 1) * (height + 1) * trunc}\n")

    @pytest.mark.parametrize("extra", [(), ("--deg", "7", "--height", "63")])
    def test_relation_search_at_cap_is_accepted(self, capsys, monkeypatch, extra):
        def reached(w, upto):
            raise ValueError(f"stream reached to {upto}")

        monkeypatch.setattr(lacunary.qseries, "q_support_flags", reached)
        rc, _, err = run(capsys, "automaton", "algrel", "--trunc", str(1 << 24), *extra)
        assert (rc, err) == (2, f"error: stream reached to {(1 << 24) - 1}\n")

    def test_relation_search_cap_in_help(self, capsys):
        rc, out, _ = run(capsys, "automaton", "algrel", "--help")
        assert rc == 0
        assert re.search(r"--height \S+ .*\(--deg \+ 1\) \* \(--height \+ 1\) \* --trunc "
                         r"at most 8589934592 \(2\^33\)", " ".join(out.split()))

    def test_orbit_cap_in_help(self, capsys):
        rc, out, _ = run(capsys, "automaton", "build", "--help")
        assert rc == 0
        assert re.search(r"--omega \S+ a shift orbit of at most 1048576 \(2\^20\) numerators",
                         " ".join(out.split()))

    # Only the rejection is run; at the cap itself build_F is reached.
    @pytest.mark.parametrize("size", [(1 << 20) + 1, 99999999999])
    def test_precision_cap_is_named(self, capsys, monkeypatch, size):
        def boom(*args):
            raise AssertionError("build_F must not run")

        monkeypatch.setattr(lacunary.cli, "build_F", boom)
        rc, out, err = run(capsys, "cf", "--precision", str(size))
        assert (rc, out) == (2, "")
        assert err == f"error: --precision must be at most 1048576 (2^20), got {size}\n"

    def test_precision_at_cap_is_accepted(self, capsys, monkeypatch):
        def reached(lam, eps, precision):
            raise ValueError(f"build_F reached at {precision}")

        monkeypatch.setattr(lacunary.cli, "build_F", reached)
        rc, _, err = run(capsys, "cf", "--precision", str(1 << 20))
        assert (rc, err) == (2, "error: build_F reached at 1048576\n")

    def test_precision_cap_in_help(self, capsys):
        rc, out, _ = run(capsys, "cf", "--help")
        assert rc == 0
        assert re.search(r"--precision \S+ [^-]*1048576 \(2\^20\)", " ".join(out.split()))

    # Only the rejection is run, before the table function is reached.
    @pytest.mark.parametrize("argv, line", [
        (("u", "--from", "0", "--to", "1000000000000"),
         "--to - --from + 1 must be at most 4194304 (2^22), got 1000000000001"),
        (("beta", "--from", "5", "--to", str(5 + (1 << 22))),
         "--to - --from + 1 must be at most 4194304 (2^22), got 4194305"),
        (("carlitz", "--to", "10000000"),
         "--to - --from + 1 must be at most 4194304 (2^22), got 10000001"),
    ])
    def test_stern_cap_is_named(self, capsys, monkeypatch, argv, line):
        def boom(a, b):
            raise AssertionError("the table must not be filled")

        for which in lacunary.cli._STERN_FUNCS:
            monkeypatch.setitem(lacunary.cli._STERN_FUNCS, which, boom)
        rc, out, err = run(capsys, "stern", *argv)
        assert (rc, out, err) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("which, start, to", [
        ("u", -5, (1 << 22) - 6),
        ("gamma", 10 ** 15, 10 ** 15 + (1 << 22) - 1),
        ("carlitz", 10 ** 15, 10 ** 15 + (1 << 22) - 1),
    ])
    def test_stern_at_cap_is_accepted(self, capsys, monkeypatch, which, start, to):
        def reached(a, b):
            raise ValueError(f"table reached at {a}..{b}")

        monkeypatch.setitem(lacunary.cli._STERN_FUNCS, which, reached)
        rc, _, err = run(capsys, "stern", which, "--from", str(start), "--to", str(to))
        assert (rc, err) == (2, f"error: table reached at {start}..{to}\n")

    def test_stern_caps_in_help(self, capsys):
        rc, out, _ = run(capsys, "stern", "--help")
        assert rc == 0
        assert re.search(r"--to \S+ [^-]*4194304 \(2\^22\) values from --from",
                         " ".join(out.split()))

    def test_pell_constant_term(self, capsys):
        rc, out, _ = run(capsys, "qseries", "pell", "--trunc", "0")
        assert rc == 0 and "holds to X^0" in out

    @pytest.mark.parametrize("argv", [
        ("cf", "--lambda", "list:1,3,7,5", "--precision", "4"),
        ("qseries", "--lambda", "list:1,3,7,5", "--upto", "3"),
    ])
    def test_non_lacunary_list_rejected_when_parsed(self, capsys, argv):
        # the window stops before lambda_3, but the whole list is checked
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err == "error: not 2-lacunary: lambda_3 = 5 <= 2 * lambda_2 = 14\n"

    def test_bad_positional_choice_is_named(self, capsys):
        rc, _, err = run(capsys, "qseries", "pel")
        assert rc == 2 and err.startswith("error: argument action: invalid choice: 'pel'")

    def test_non_dyadic_omega(self, capsys):
        rc, _, err = run(capsys, "qseries", "--omega", "rat:1/6")
        assert rc == 2 and "error:" in err

    @pytest.mark.parametrize("argv", [
        ("cf", "--lambda", "list:1,3", "--precision", "64"),
        ("automaton", "build", "--omega", "stream:thue-morse"),
        ("automaton", "verify", "--omega", "stream:paperfolding", "--upto", "64"),
    ])
    def test_input_errors_exit_two(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    # one argv per package usage error that argv alone can reach, with the
    # exact line it prints
    @pytest.mark.parametrize("argv, line", [
        (("cf", "--lambda", "list:1,3", "--precision", "64"),
         "error: lambda range: index 2 beyond explicit list of length 2"),
        (("qseries", "pell", "--omega", "stream:thue-morse"),
         "error: unsupported on opaque stream: add_int (use windowed digits)"),
        (("automaton", "build", "--omega", "stream:thue-morse"),
         "error: orbit requires rational 2-adic input"),
        (("cf", "--precision", "0"),
         "error: precision: window 0 ends above first exponent 1"),
        (("cf", "--eps", "period:a"), "error: bad epsilon spec 'period:a'"),
        (("qseries", "--omega", "int:x"), "error: bad omega spec 'int:x'"),
        (("qseries", "--omega", "rat:1/x"), "error: bad omega spec 'rat:1/x'"),
        (("qseries", "--omega", "bits:pre=x;period=1"),
         "error: bad omega spec 'bits:pre=x;period=1'"),
    ], ids=["lambda-range", "opaque-stream", "orbit-rational", "precision",
            "eps-number", "omega-int", "omega-rat", "omega-bits"])
    def test_package_usage_error_exits_two(self, capsys, argv, line):
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", line + "\n")

    def test_stream_depth_exits_two(self, capsys, monkeypatch):
        # the demo streams are deep enough for every capped sweep, so a
        # shallow stream stands in for the omega
        shallow = Dyadic.from_stream(lambda j: 1, 3, "shallow")
        monkeypatch.setattr(lacunary.cli, "parse_omega", lambda text: shallow)
        rc, out, err = run(capsys, "qseries", "--upto", "64")
        assert (rc, out, err) == (2, "", "error: stream exhausted: window 9 beyond safe depth 3\n")

    def test_zero_denominator(self, capsys):
        rc, _, err = run(capsys, "qseries", "--omega", "rat:1/0")
        assert rc == 2 and "error:" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--only", "dyadic.roundtrip-canonical", "--seed", "7", "--json"),
        ("automaton", "--omega", "rat:3/7", "--export", "dot"),
        ("cf", "--n", "5", "--precision", "128", "--json"),
    ])
    def test_byte_determinism(self, capsys, argv):
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        if argv[0] == "verify":
            # per-check seconds are timings; every other byte must repeat
            (out1, n1), (out2, n2) = (re.subn(r'"seconds": [^,\n]+', '"seconds": _', o)
                                      for o in (out1, out2))
            assert n1 == n2 == 1
        assert rc1 == rc2 == 0 and out1 == out2


_FROB = ("error: argument command: invalid choice: 'frobnicate' (choose from 'cf', 'qseries', "
         "'stern', 'automaton', 'verify', 'oeis-check')")
_NO_COMMAND = "error: the following arguments are required: command"
_HELP = (0, True, "", None)

# Samples of each way argv leaves argparse, each pinned to (exit code, stdout
# written, first stderr line, the (command, action) run): help, usage errors
# and parsed values.
_PARSER_ROWS = [
    ((), 2, False, _NO_COMMAND, None),
    (("--help",), *_HELP), (("-h",), *_HELP),
    (("--json",), 2, False, _NO_COMMAND, None),
    (("frobnicate",), 2, False, _FROB, None), (("--json", "frobnicate"), 2, False, _FROB, None),
    (("--nope", "cf"), 2, False, "error: unrecognized arguments: --nope", None),
    (("--level", "full", "verify"), 2, False, "error: unrecognized arguments: --level", None),
    (("--js", "cf", "--n", "2"), 0, False, "", ("cf", "expand")),
    # the root reads the command after --, and main runs it as if named first
    (("--", "cf"), 0, False, "", ("cf", "expand")),
    (("cf", "--", "expand"), 2, False, "error: unrecognized arguments: -- expand", None),
    (("-h", "cf"), *_HELP), (("--he", "stern"), *_HELP), (("--json", "-h", "automaton"), *_HELP),
    (("--jso", "cf"), 0, False, "", ("cf", "expand")),
    (("--json=1", "cf"), 2, False, "error: argument --json: ignored explicit argument '1'", None),
    *(((name, "--help"), *_HELP) for name in lacunary.cli._COMMANDS),
    (("--json", "cf"), 0, False, "", ("cf", "expand")),
    (("--json", "qseries"), 0, False, "", ("qseries", "window")),
    (("--json", "stern"), 0, False, "", ("stern", "u")),
    (("--json", "automaton"), 0, False, "", ("automaton", "build")),
    (("--json", "verify"), 0, False, "", ("verify", "")),
    (("--json", "oeis-check"), 0, False, "", ("oeis-check", "")),
    (("cf", "bogus"), 2, False,
     "error: argument action: invalid choice: 'bogus' (choose from 'expand')", None),
    (("cf", "--precision", "abc"), 2, False,
     "error: argument --precision: invalid int value: 'abc'", None),
    (("cf", "--level", "full"), 2, False, "error: unrecognized arguments: --level full", None),
    (("cf", "--n", "3", "--precision", "64", "--json"), 0, False, "", ("cf", "expand")),
    (("cf", "expand", "--lambda", "list:1,3,7", "--eps", "period:1"), 0, False, "",
     ("cf", "expand")),
    (("qseries", "pell", "--trunc", "9", "--mod2"), 2, False,
     "error: unrecognized arguments: --mod2", None),
    (("qseries", "pel"), 2, False,
     "error: argument action: invalid choice: 'pel' (choose from 'window', 'pell', 'anumber')",
     None),
    (("stern", "w", "--to", "3"), 2, False,
     "error: argument action: invalid choice: 'w' (choose from 'u', 'v', 'alpha', 'beta', "
     "'gamma', 'carlitz', 'oeis-check')", None),
    (("stern", "--level", "u"), 2, False, "error: unrecognized arguments: --level u", None),
    (("stern", "carlitz", "--csv"), 0, False, "", ("stern", "carlitz")),
    (("automaton", "--tag", "x"), 2, False,
     "error: argument --tag: invalid choice: 'x' (choose from 'f', 'g', 'h', 'signed')", None),
    (("automaton", "algrel", "--deg", "2", "--minimize"), 2, False,
     "error: unrecognized arguments: --minimize", None),
    (("automaton", "build", "--export", "svg"), 2, False,
     "error: argument --export: invalid choice: 'svg' (choose from 'dot', 'json')", None),
    (("verify", "--level", "medium"), 2, False,
     "error: argument --level: invalid choice: 'medium' (choose from 'quick', 'full')", None),
    (("verify", "--only", "a,b", "--seed", "3"), 0, False, "", ("verify", "")),
    (("oeis-check", "A002487", "--limit", "5"), 0, False, "", ("oeis-check", "")),
    (("oeis-check", "--bfile"), 2, False, "error: argument --bfile: expected one argument", None),
    # the flat parser of a named action reads argv less the command and action words
    (("cf", "cf"), 2, False,
     "error: argument action: invalid choice: 'cf' (choose from 'expand')", None),
    (("oeis-check", "cf"), 0, False, "", ("oeis-check", "")),
    (("--json", "cf", "--json"), 0, False, "", ("cf", "expand")),
    (("--js", "stern", "u", "--to", "3"), 0, False, "", ("stern", "u")),
    (("cf", "--prec", "64"), 0, False, "", ("cf", "expand")),
    (("cf", "--precision=64"), 0, False, "", ("cf", "expand")),
    (("stern", "u", "-h"), *_HELP),
    # an action word after an option is not read as the action
    (("qseries", "--", "pell"), 2, False, "error: unrecognized arguments: -- pell", None),
    (("automaton", "--omega=rat:1/3", "build", "--tag", "g"), 2, False,
     "error: unrecognized arguments: build", None),
]


def _main_parse(monkeypatch, argv):
    """(exit code, stdout, stderr, the (command, action) pairs run) of
    main(argv) with every handler replaced by a recorder."""
    ran = []

    def recorder(command, action):
        return lambda args: ran.append((command, action)) or 0

    with monkeypatch.context() as m:
        m.setattr(lacunary.cli, "_COMMANDS", {
            name: (text, {action: (add, recorder(name, action))
                          for action, (add, _) in actions.items()})
            for name, (text, actions) in lacunary.cli._COMMANDS.items()
        })
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue(), ran


@pytest.mark.parametrize("argv, code, printed, line, ran", _PARSER_ROWS,
                         ids=[" ".join(row[0]) for row in _PARSER_ROWS])
def test_parser_outcome_is_pinned(monkeypatch, argv, code, printed, line, ran):
    rc, out, err, runs = _main_parse(monkeypatch, argv)
    assert (rc, bool(out), (err.splitlines() or [""])[0]) == (code, printed, line)
    assert runs == ([] if ran is None else [ran])


def test_parser_holds_one_action():
    flat = lacunary.cli.build_parser("cf", "expand")
    assert flat.prog == "lacunary cf expand"
    assert {"--json", "--precision"} <= set(flat._option_string_actions)
    assert lacunary.cli.build_parser("qseries", "pell").prog == "lacunary qseries pell"
    assert lacunary.cli.build_parser("verify", "").prog == "lacunary verify"
    for command in (None, "frobnicate"):
        root = lacunary.cli.build_parser(command)
        assert root.prog == "lacunary"
        assert [a.dest for a in root._actions] == ["help", "json", "command", "rest"]
    for parser in (flat, root):
        assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)


def _parsers_built(monkeypatch, argv):
    """How many argparse.ArgumentParser objects main(argv) constructs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "__init__", counted)
        _main_parse(monkeypatch, argv)
    return len(built)


@pytest.mark.parametrize("argv", [
    ("cf",), ("--json", "cf", "--n", "2"), ("--js", "stern", "u", "--to", "3"),
    ("automaton", "build", "--tag", "g"), ("qseries", "--help"), ("verify", "--level", "bogus"),
    ("oeis-check", "cf"), ("qseries", "--upto", "3"), ("qseries", "pell", "--trunc", "4"),
    ("stern", "oeis-check", "--id", "A002487"), ("automaton", "algrel", "--help"),
], ids=" ".join)
def test_named_command_builds_one_parser(monkeypatch, argv):
    assert _parsers_built(monkeypatch, argv) == 1


# the root alone; after -- it reads a command, whose action's parser is the second
@pytest.mark.parametrize("argv, built", [
    ((), 1), (("frobnicate",), 1), (("-h", "cf"), 1), (("--nope", "cf"), 1), (("--", "cf"), 2),
], ids=repr)
def test_no_named_command_builds_the_root(monkeypatch, argv, built):
    assert _parsers_built(monkeypatch, argv) == built


def test_an_action_is_one_table_entry(capsys, monkeypatch):
    def echo_options(p):
        p.add_argument("--word", default="hi")

    def echo(args):
        print(args.word, args.json)
        return 0

    monkeypatch.setitem(lacunary.cli._COMMANDS["qseries"][1], "echo", (echo_options, echo))
    assert run(capsys, "qseries", "echo", "--word", "hello") == (0, "hello False\n", "")
    assert run(capsys, "--json", "qseries", "echo") == (0, "hi True\n", "")
    rc, out, _ = run(capsys, "qseries", "--help")
    assert rc == 0 and "qseries window|pell|anumber|echo" in out
    assert run(capsys, "qseries", "window", "--word", "x") == (
        2, "", "error: unrecognized arguments: --word x\n")


@pytest.mark.parametrize("columns", ["50", "80", "200"])
def test_help_width_is_fixed_once_per_parser(monkeypatch, columns):
    # every text argparse writes, help and usage errors alike, is the one
    # its own formatter writes at that width, and main asks the terminal
    # for its size once per parser it builds
    monkeypatch.setenv("COLUMNS", columns)
    size = shutil.get_terminal_size
    calls = []
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
    for argv, *_ in _PARSER_ROWS:
        calls.clear()
        fixed = _main_parse(monkeypatch, argv)
        assert len(calls) == _parsers_built(monkeypatch, argv), argv
        with monkeypatch.context() as m:
            m.setattr(lacunary.cli, "_help_formatter", lambda: argparse.RawDescriptionHelpFormatter)
            assert fixed == _main_parse(monkeypatch, argv), argv


# A bounded argv grammar: every command, action and option from a fixed
# vocabulary, with valid and malformed specs.  verify runs one quick check
# only, and --bfile names a missing file only.
_INTS = st.one_of(st.integers(-3, 64).map(str), st.just("abc"))
_OMEGAS = st.sampled_from([
    "rat:1/3", "rat:-5/7", "rat:2/31", "int:5", "int:-3", "rat:1/6", "rat:1/0", "rat:1/1048589",
    "rat:x", "int:x", "rat:1/x", "bits:pre=1;period=0,1", "bits:period=", "bits:x",
    "stream:thue-morse", "stream:paperfolding", "stream:nope", "",
])
_LAMBDAS = st.sampled_from([
    "mersenne", "list:1,3,7,15", "list:1,3", "list:1,3,7,5", "list:0,1", "list:",
    "list:x", "bogus",
])
_EPSILONS = st.sampled_from([
    "period:0", "period:1,0", "pre:1,0+period:0,1", "pre:1", "period:", "period:2", "period:a",
    "bogus",
])
_IDS = st.sampled_from(["A002487", "A049347", "A168561", "A000001", "junk"])
_QUICK_CHECKS = st.sampled_from([
    "core.ring-axioms", "stern.gamma-periodic", "dyadic.digit-lemma-v",
    "qseries.pell-congruence", "no.such-check",
])
_FLAG = st.just(None)
_MISSING = st.just("/no/such/b-file.txt")
_TABLE = {"--from": _INTS, "--to": _INTS, "--csv": _FLAG}

# (command, action) -> {option: values or _FLAG}, each action's own options;
# "" is the one action of a command that takes no action word
_GRAMMAR = {
    ("cf", "expand"): {
        "--lambda": _LAMBDAS, "--eps": _EPSILONS, "--n": _INTS, "--precision": _INTS,
    },
    ("qseries", "window"): {
        "--omega": _OMEGAS, "--lambda": _LAMBDAS, "--eps": _EPSILONS, "--upto": _INTS,
        "--mod2": _FLAG,
    },
    ("qseries", "pell"): {"--omega": _OMEGAS, "--trunc": _INTS},
    ("qseries", "anumber"): {
        "--omega": _OMEGAS, "--eps": _EPSILONS, "--g": _INTS, "--terms": _INTS,
        "--digits": st.one_of(_INTS, st.sampled_from(["4096", "4097"])),
    },
    **{("stern", which): _TABLE for which in ("u", "v", "alpha", "beta", "gamma", "carlitz")},
    ("stern", "oeis-check"): {"--id": _IDS, "--bfile": _MISSING, "--limit": _INTS},
    ("automaton", "build"): {
        "--omega": _OMEGAS, "--tag": st.sampled_from(["f", "g", "h", "signed", "x"]),
        "--eps": _EPSILONS, "--export": st.sampled_from(["dot", "json", "svg"]),
        "--minimize": _FLAG,
    },
    ("automaton", "verify"): {"--omega": _OMEGAS, "--upto": _INTS},
    ("automaton", "algrel"): {
        "--omega": _OMEGAS, "--deg": _INTS, "--height": _INTS, "--trunc": _INTS,
    },
    ("oeis-check", ""): {"--limit": _INTS, "--bfile": _MISSING},
    ("verify", ""): {
        "--only": _QUICK_CHECKS, "--seed": _INTS,
        "--level": st.sampled_from(["quick", "medium"]),
    },
}
# options no command takes, or only another one does
_FOREIGN = {"--seed": _INTS, "--level": _FLAG, "--nope": _FLAG, "--help": _FLAG}


def _siblings(command, action):
    """{option: values} of the options that another action of command takes
    and action does not."""
    return {option: values
            for (c, a), options in _GRAMMAR.items() if c == command and a != action
            for option, values in options.items() if option not in _GRAMMAR[command, action]}


def test_each_action_holds_its_own_options():
    actions = {(c, a) for c, (_, acts) in lacunary.cli._COMMANDS.items() for a in acts}
    assert actions == set(_GRAMMAR)
    for (command, action), options in _GRAMMAR.items():
        parser = lacunary.cli.build_parser(command, action)
        assert set(parser._option_string_actions) == {"-h", "--help", "--json", *options}


# command, action and each option that a sibling action takes and this one
# does not, with a value unless it is a flag
_FOREIGN_ARGV = [
    (command, action, option) + (() if values is _FLAG else ("1",))
    for command, action in _GRAMMAR
    for option, values in sorted(_siblings(command, action).items())
]


@pytest.mark.parametrize("argv", _FOREIGN_ARGV, ids=" ".join)
def test_foreign_option_exits_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: unrecognized arguments: {' '.join(argv[2:])}\n")


# each read its foreign options as if unset, and exited 0
@pytest.mark.parametrize("argv, unknown", [
    (("qseries", "window", "--g", "5", "--digits", "7"), "--g 5 --digits 7"),
    (("qseries", "anumber", "--mod2"), "--mod2"),
    (("automaton", "build", "--trunc", "9", "--deg", "3"), "--trunc 9 --deg 3"),
    (("qseries", "pell", "--lambda", "list:1,3,7,15", "--eps", "period:1"),
     "--lambda list:1,3,7,15 --eps period:1"),
    (("automaton", "algrel", "--minimize", "--export", "dot"), "--minimize --export dot"),
])
def test_options_once_dropped_are_refused(capsys, argv, unknown):
    assert run(capsys, *argv) == (2, "", f"error: unrecognized arguments: {unknown}\n")


@st.composite
def _argv(draw):
    command, action = draw(st.sampled_from(sorted(_GRAMMAR)))
    options = {**_FOREIGN, **_siblings(command, action), **_GRAMMAR[command, action]}
    argv = [command]
    if action and draw(st.booleans()):
        argv.append(draw(st.sampled_from([action, "bogus"])))
    if command == "oeis-check" and draw(st.booleans()):
        argv.append(draw(_IDS))
    names = draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True))
    if command == "verify" and "--only" not in names:
        names.append("--only")  # else every quick check runs
    for name in names:
        value = draw(options[name])
        argv += [name] if value is None else [name, value]
    where = draw(st.sampled_from(["none", "before", "after"]))
    if where == "before":
        argv.insert(0, "--json")
    elif where == "after":
        argv.append("--json")
    return argv


@settings(max_examples=150)
@given(_argv())
def test_every_argv_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


def _readme_examples():
    """(argv, stdout lines) of each README example: a fenced block whose
    first line is `$ lacunary <argv>` and whose other lines are what it
    prints.  A block of command lines alone shows no output; it is skipped."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = re.findall(r"^```\n(.*?)^```$", fh.read(), re.M | re.S)
    examples = []
    for block in blocks:
        first, *output = block.splitlines()
        if (first.startswith("$ lacunary ") and output
                and not any(line.startswith("$ ") for line in output)):
            examples.append((first.removeprefix("$ lacunary "), output))
    return examples


_README_EXAMPLES = _readme_examples()


def test_readme_examples_are_found():
    # cf, the qseries window, anumber, stern u, the minimised automaton, algrel
    assert len(_README_EXAMPLES) == 6


@pytest.mark.parametrize("argv, output", _README_EXAMPLES, ids=[a for a, _ in _README_EXAMPLES])
def test_readme_example_holds(capsys, argv, output):
    rc, out, err = run(capsys, *shlex.split(argv))
    assert (rc, err) == (0, "")
    assert out == "\n".join(output) + "\n"
