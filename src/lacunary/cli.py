"""Command-line front end.

Subcommands: cf, qseries, stern, automaton, verify, oeis-check.  Exit
codes: 0 success, 1 a verification failed or stdout failed or closed,
2 usage error.  JSON output is deterministic: keys sorted, no timestamps,
coefficients rendered as decimal strings; the one timing is the per-check
seconds of verify --json.  jsontext lays out every document (one list for
oeis-check with no id), the long ones a piece at a time.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import chain, islice, repeat, starmap

from .bits import parse_epsilon_spec, parse_lambda_spec
from .contfrac import build_F, convergent_side, fold_expand
from .dyadic import kernel_range, parse_omega
from .jsontext import SLOT, TEXT, document, layout, separator, template
from .oeis import PROFILES, check_oeis
from .qseries import a_number, pell_check_mod2, q_omega_window
from .stern import carlitz_window, doubling_window
from .automaton import ORBIT_CAP, build_dfao, find_algebraic_relation, minimize, signed_dfao
from . import verify as verify_mod

#: Largest k-range of one kernel sweep (qseries window/pell, automaton
#: verify/algrel); the benchmark catalogue goes to 2^20.
_KERNEL_CAP = 1 << 24

#: Largest algrel search, (deg + 1)(height + 1) * trunc bits: the
#: elimination can hold that many candidate columns of trunc bits each
#: (2^33 bits is 1 GiB).  The default bounds at the --trunc cap come to
#: 325 * 2^24, and the benchmark catalogue's largest search to 325 * 2^16.
_SEARCH_CAP = 1 << 33

#: Largest cf --precision: the work grows faster than the window, and the
#: benchmark catalogue goes to 2^14.
_PRECISION_CAP = 1 << 20

#: Most anumber --digits: the decimal is formatted from one int of that
#: many digits, which stays under CPython's 4300-digit int-to-str limit.
_DIGITS_CAP = 1 << 12

#: Longest stern table, --to - --from + 1 values: a table is held as a list
#: of ints (2^22 u values as JSON: 3.1 s, 207 MB peak); CI writes 2000001.
_TABLE_CAP = 1 << 22

#: Largest stern carlitz --to: Carlitz's sum costs about (to - from) * to / 2
#: cell tests (0 to 2^16: 3.6 s); the benchmark catalogue goes to 3200.
_CARLITZ_CAP = 1 << 16

#: Bad input, an unreadable --bfile included: exit 2.  An unknown
#: oeis-check id or verify --only name is a KeyError, every other usage
#: error a ValueError.
_USAGE_ERRORS = (ValueError, KeyError)


#: Strings per write of a streamed table: one chunk of its text is held at
#: a time, never the whole document.
_CHUNK = 1 << 12

#: Strings per write of a streamed list of polynomials: one polynomial of
#: a 2^14 cf window averages about 9 KB of text, so a table's chunk of them
#: would hold tens of MB.
_POLY_CHUNK = 16


def _write_joined(sep: str, strs, per_write=None) -> None:
    """sys.stdout.write(sep.join(strs)), per_write strings at a time
    (_CHUNK if None)."""
    write = sys.stdout.write
    strs = iter(strs)
    per_write = per_write or _CHUNK
    first = True
    while chunk := list(islice(strs, per_write)):
        if not first:
            write(sep)
        write(sep.join(chunk))
        first = False


# poly_to_json(p) as a top-level list's entry, a term of it, a qseries window term
_POLY = template({"ring": "Q", "terms": [SLOT]}, 2)
_ZERO_POLY = layout({"ring": "Q", "terms": []}, 2)
_TERM = template([SLOT, TEXT], 4)
_QTERM = template([SLOT, TEXT], 2)


class _TermTexts(dict):
    """(e, c) -> _TERM(e, c), formatted on first use.  The P_n and Q_n of a
    cf reuse a few terms many times over (Q_n has coefficients 0 and +-1),
    and a coefficient equal to an int is stored as that int, so equal keys
    have equal text."""

    def __missing__(self, term):
        text = self[term] = _TERM(*term)
        return text


def _poly_items(polys, texts):
    """layout(poly_to_json(p), 2) for each p as it is drawn from polys, its
    terms' text looked up in texts, a _TermTexts."""
    join, text = separator(3).join, texts.__getitem__
    for p in polys:
        yield _POLY(join(map(text, p.terms))) if p.terms else _ZERO_POLY


def _write_cf_json(cf) -> None:
    """print(layout(...)) of the cf --json payload, written as it is formed:
    P is one pass of its recurrence and Q a second, and each polynomial
    goes out as it is formed, so neither side is ever held.  Each distinct
    term is formatted once."""
    n, certified = len(cf.quotients), cf.certified
    texts = _TermTexts()
    _write_joined("", document(
        {"certified_count": certified, "precision": cf.precision, "terminated": cf.terminated},
        {
            "a": _poly_items(cf.quotients, texts),
            "certified": chain(repeat(layout(True), certified), repeat(layout(False), n - certified)),
            "p": _poly_items(convergent_side(cf.quotients, "p"), texts),
            "q": _poly_items(convergent_side(cf.quotients, "q"), texts),
        },
    ), _POLY_CHUNK)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, `error: ...`, and exits 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _action(p, dest, choices) -> None:
    """An optional positional whose choice main checks after parsing: an
    unknown option is reported first, not its value as a bad choice."""
    p.add_argument(dest, nargs="?", default=choices[0], metavar="{" + ",".join(choices) + "}")
    p.set_defaults(_choice=(dest, choices))


def _check_choice(parser, args) -> None:
    if not hasattr(args, "_choice"):
        return
    dest, choices = args._choice
    value = getattr(args, dest)
    if value not in choices:
        parser.error(f"argument {dest}: invalid choice: {value!r} "
                     f"(choose from {', '.join(map(repr, choices))})")


def _check_root_options(root, argv) -> None:
    """Names an unknown option given before the subcommand: left to
    argparse, the value after it would be reported as a bad subcommand."""
    for arg in argv:
        if not arg.startswith("-"):
            return
        name = arg.partition("=")[0]
        if not any(opt == name or (name.startswith("--") and opt.startswith(name))
                   for opt in root._option_string_actions):
            root.error(f"unrecognized arguments: {arg}")


def _check_at_least(option: str, value: int, low: int) -> None:
    """Rejects an option below its least meaningful value before any work."""
    if value < low:
        raise ValueError(f"{option} must be at least {low}, got {value}")


def _cap_text(cap: int) -> str:
    """A power-of-two cap as shown to users: "1048576 (2^20)"."""
    return f"{cap} (2^{cap.bit_length() - 1})"


def _check_at_most(option: str, value: int, cap: int) -> None:
    """Rejects an option above its cap before any work."""
    if value > cap:
        raise ValueError(f"{option} must be at most {_cap_text(cap)}, got {value}")


def _check_kernel_size(option: str, value: int, low: int) -> None:
    """Rejects a kernel sweep size outside [low, _KERNEL_CAP] before any
    work: the sweep allocates a byte per k."""
    _check_at_least(option, value, low)
    _check_at_most(option, value, _KERNEL_CAP)


def _specs(args):
    return parse_lambda_spec(args.lam), parse_epsilon_spec(args.eps)


def _cf_options(p) -> None:
    _action(p, "action", ("expand",))
    p.add_argument("--lambda", dest="lam", default="mersenne")
    p.add_argument("--eps", default="period:0")
    p.add_argument("--n", type=int, default=None,
                   help="max partial quotients past A_0 (at least 0)")
    p.add_argument("--precision", type=int, default=1024,
                   help=f"depth of the series window, at most {_cap_text(_PRECISION_CAP)}")


def _cmd_cf(args) -> int:
    if args.n is not None:
        _check_at_least("--n", args.n, 0)
    _check_at_most("--precision", args.precision, _PRECISION_CAP)
    lam, eps = _specs(args)
    f = build_F(lam, eps, args.precision)
    cf = fold_expand(f, args.n)
    if args.json:
        _write_cf_json(cf)
        return 0
    for i, quot in enumerate(cf.quotients):
        mark = "" if i < cf.certified else "   (uncertified)"
        print(f"A_{i} = {quot}{mark}")
    print(f"certified: {cf.certified} of {len(cf.quotients)} quotients at precision {cf.precision}")
    return 0


def _qseries_options(p) -> None:
    _action(p, "action", ("window", "pell", "anumber"))
    p.add_argument("--omega", default="rat:1/3")
    p.add_argument("--lambda", dest="lam", default="mersenne")
    p.add_argument("--eps", default="period:0")
    p.add_argument("--upto", type=int, default=64,
                   help=f"window: largest k, 0 to {_cap_text(_KERNEL_CAP)}")
    p.add_argument("--mod2", action="store_true")
    p.add_argument("--trunc", type=int, default=128,
                   help=f"pell: check through X^trunc, 0 to {_cap_text(_KERNEL_CAP)}")
    p.add_argument("--g", type=int, default=10, help="anumber: base, at least 2")
    p.add_argument("--terms", type=int, default=60,
                   help=f"anumber: last k summed, 0 to {_cap_text(_KERNEL_CAP)}")
    p.add_argument("--digits", type=int, default=40,
                   help=f"anumber: decimal digits shown, 0 to {_cap_text(_DIGITS_CAP)}")


def _cmd_qseries(args) -> int:
    if args.action == "window":
        _check_kernel_size("--upto", args.upto, 0)
    elif args.action == "pell":
        _check_kernel_size("--trunc", args.trunc, 0)
    else:
        _check_at_least("--g", args.g, 2)
        _check_kernel_size("--terms", args.terms, 0)
        _check_at_least("--digits", args.digits, 0)
        _check_at_most("--digits", args.digits, _DIGITS_CAP)
    lam, eps = _specs(args)
    w = parse_omega(args.omega)
    if args.action == "pell":
        ok = pell_check_mod2(w, args.trunc)
        if args.json:
            print(layout({"omega": w.describe(), "trunc": args.trunc, "holds": ok}))
        else:
            verdict = "holds" if ok else "FAILS"
            print(f"Q^2 - Q(+1)Q(-1) = 1 mod 2 {verdict} to X^{args.trunc} for omega = {w.describe()}")
        return 0 if ok else 1
    if args.action == "anumber":
        val = a_number(eps, w, args.g, args.terms)
        if args.json:
            try:
                num, den = str(val.value.numerator), str(val.value.denominator)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ValueError(f"--json writes num and den in full: at --terms {args.terms} they "
                                 f"pass Python's {sys.get_int_max_str_digits()}-digit "
                                 f"int-to-str limit") from None
            print(layout({
                "base": args.g,
                "decimal": val.decimal(args.digits),
                "den": den,
                "num": num,
                "terms": args.terms,
            }))
        else:
            print(val.decimal(args.digits))
        return 0
    terms = q_omega_window(w, lam, eps, args.upto)
    if args.mod2:
        terms = [(e, abs(c)) for e, c in terms]
    if args.json:
        _write_joined("", document({"mod2": args.mod2, "omega": w.describe(), "upto": args.upto},
                                   {"terms": starmap(_QTERM, terms)}))
    else:
        sys.stdout.write("{")
        _write_joined(", ", starmap("{}: {}".format, terms))
        sys.stdout.write("}\n")
    return 0


# which -> fn(a, b), the table [a, b] as a list
_STERN_FUNCS = {
    **{which: partial(doubling_window, which) for which in ("u", "v", "alpha", "beta", "gamma")},
    "carlitz": carlitz_window,
}


# A table's options and stern oeis-check's, each option's default None so
# that one given to the other kind is refused: (option, dest) pairs
_TABLE_OPTIONS = (("--from", "start"), ("--to", "to"), ("--csv", "csv"))
_CHECK_OPTIONS = (("--id", "id"), ("--bfile", "bfile"), ("--limit", "limit"))


def _stern_options(p) -> None:
    _action(p, "which", ("u", "v", "alpha", "beta", "gamma", "carlitz", "oeis-check"))
    p.add_argument("--from", dest="start", type=int, default=None)
    p.add_argument("--to", type=int, default=None,
                   help=f"last index: at most {_cap_text(_TABLE_CAP)} values from --from, "
                        f"and carlitz --to at most {_cap_text(_CARLITZ_CAP)}")
    p.add_argument("--csv", action="store_true", default=None)
    p.add_argument("--id", default=None)
    p.add_argument("--bfile", default=None)
    p.add_argument("--limit", type=int, default=None)


def _cmd_stern(args) -> int:
    table = args.which != "oeis-check"
    for option, dest in _CHECK_OPTIONS if table else _TABLE_OPTIONS:
        if getattr(args, dest) is not None:
            raise ValueError(f"stern {args.which} takes no {option}")
    if not table:
        if args.id is None:
            raise ValueError("oeis-check needs --id")
        return _cmd_oeis(args)
    fn = _STERN_FUNCS[args.which]
    start = 0 if args.start is None else args.start
    to = 16 if args.to is None else args.to
    if start > to:
        raise ValueError(f"empty range: --from {start} > --to {to}")
    if start < 0 and args.which != "u":
        raise ValueError(f"sequence {args.which} is defined for n >= 0")
    _check_at_most("--to - --from + 1", to - start + 1, _TABLE_CAP)
    if args.which == "carlitz":
        _check_at_most("--to", to, _CARLITZ_CAP)
    values = fn(start, to)
    if args.json:
        _write_joined("", document({"from": start, "sequence": args.which, "to": to},
                                   {"values": map(str, values)}))
    elif args.csv:
        sys.stdout.write(f"n,{args.which}\n")
        _write_joined("\n", map("{},{}".format, range(start, to + 1), values))
        sys.stdout.write("\n")
    else:
        _write_joined(",", map(str, values))
        sys.stdout.write("\n")
    return 0


def _automaton_options(p) -> None:
    _action(p, "action", ("build", "verify", "algrel"))
    p.add_argument("--omega", default="rat:1/3",
                   help="build: a shift orbit of at most "
                        f"{_cap_text(ORBIT_CAP)} numerators; verify walks --upto's digits only")
    p.add_argument("--tag", default="f", choices=("f", "g", "h", "signed"))
    p.add_argument("--eps", default="period:0")
    p.add_argument("--export", default=None, choices=("dot", "json"))
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--upto", type=int, default=65536,
                   help=f"verify: check k < upto, 1 to {_cap_text(_KERNEL_CAP)}")
    p.add_argument("--deg", type=int, default=4, help="algrel: largest i in S^(2^i) (at least 1)")
    p.add_argument("--height", type=int, default=64,
                   help="algrel: largest coefficient degree (at least 0); "
                        f"(--deg + 1) * (--height + 1) * --trunc at most {_cap_text(_SEARCH_CAP)}")
    p.add_argument("--trunc", type=int, default=4096,
                   help=f"algrel: relation modulo X^trunc, 1 to {_cap_text(_KERNEL_CAP)}")


def _cmd_automaton(args) -> int:
    if args.action == "verify":
        _check_kernel_size("--upto", args.upto, 1)
    elif args.action == "algrel":
        _check_kernel_size("--trunc", args.trunc, 1)
        _check_at_least("--deg", args.deg, 1)
        _check_at_least("--height", args.height, 0)
        _check_at_most("(--deg + 1) * (--height + 1) * --trunc",
                       (args.deg + 1) * (args.height + 1) * args.trunc, _SEARCH_CAP)
    w = parse_omega(args.omega)
    if args.action == "algrel":
        from .qseries import q_support_flags
        flags = q_support_flags(w, args.trunc - 1)
        rel = find_algebraic_relation(flags, args.deg, args.height, args.trunc)
        if rel is None:
            msg = (f"no relation of degree <= {args.deg}, height <= {args.height} "
                   f"modulo X^{args.trunc}")
            if args.json:
                print(layout({"found": False, "message": msg}))
            else:
                print(msg)
            return 1
        if args.json:
            print(layout({
                "coefficients": [format(c, "x") for c in rel.coeffs],
                "degree_used": rel.degree_used(),
                "found": True,
                "height_used": rel.height_used(),
                "kind": rel.kind,
                "truncation": rel.truncation,
            }))
        else:
            print(rel.describe())
            print(f"verified to O(X^{rel.truncation})")
        return 0
    if args.action == "verify":
        import numpy as np

        bits = max(1, (args.upto - 1).bit_length())
        for tag in ("f", "g", "h"):
            d = build_dfao(w, tag, bits)
            got = d.evaluate_all(bits)[: args.upto]
            want = kernel_range(w, args.upto - 1, tag)
            if not np.array_equal(got, want):
                bad = int(np.flatnonzero(got != want)[0])
                print(f"MISMATCH: tag {tag}, k = {bad}: "
                      f"automaton {int(got[bad])}, direct {int(want[bad])}")
                return 1
        print(f"automaton output matches direct evaluation for all k < {args.upto} (tags f, g, h)")
        return 0
    if args.tag == "signed":
        d = signed_dfao(w, parse_epsilon_spec(args.eps))
    else:
        d = build_dfao(w, args.tag)
    if args.minimize:
        d = minimize(d)
    if args.export == "dot":
        print(d.to_dot())
    elif args.export == "json" or args.json:
        print(d.to_json())
    else:
        print(f"states: {len(d)}, initial: {d.initial}")
        _write_joined("\n", map("  {}: out {:+d}, 0 -> {}, 1 -> {}".format,
                                range(len(d)), d.out, *zip(*d.step)))
        sys.stdout.write("\n")
    return 0


def _verify_options(p) -> None:
    p.add_argument("--only", default=None, help="comma-separated check names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", choices=("quick", "full"), default="quick")


def _cmd_verify(args) -> int:
    names = None
    if args.only is not None:
        names = [s.strip() for s in args.only.split(",") if s.strip()]
        if not names:
            raise ValueError("--only names no check")
    results = verify_mod.run_checks(
        level=args.level,
        seed=args.seed,
        names=names,
    )
    print(verify_mod.render_report(results, as_json=args.json))
    return 0 if all(r.ok for r in results) else 1


def _oeis_options(p) -> None:
    p.add_argument("id", nargs="?", default=None)
    p.add_argument("--bfile", default=None)
    p.add_argument("--limit", type=int, default=None)


def _cmd_oeis(args) -> int:
    """Checks args.id against args.bfile (its fixture if None), or with no
    id every bundled sequence against its fixture, whose JSON is one list."""
    if args.id is None and args.bfile is not None:
        raise ValueError("--bfile needs an id")
    if args.limit is not None:
        _check_at_least("--limit", args.limit, 1)
    text = None
    if args.bfile is not None:
        try:
            with open(args.bfile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:  # an unreadable --bfile is bad input
            raise ValueError(str(exc)) from exc
    reports = [check_oeis(name, bfile_text=text, limit=args.limit)
               for name in (sorted(PROFILES) if args.id is None else [args.id])]
    if args.json:
        fields = [{"compared": r.compared, "id": r.seq_id, "ok": r.ok, "summary": r.summary()}
                  for r in reports]
        print(layout(fields if args.id is None else fields[0]))
    else:
        print("\n".join(r.summary() for r in reports))
    return 0 if all(r.ok for r in reports) else 1


#: Subcommand -> (help, add_options(parser), handler(args) -> exit code)
_COMMANDS = {
    "cf": ("continued fraction expansion", _cf_options, _cmd_cf),
    "qseries": ("closed-form series windows", _qseries_options, _cmd_qseries),
    "stern": ("sequence tables", _stern_options, _cmd_stern),
    "automaton": ("finite automata for coefficients", _automaton_options, _cmd_automaton),
    "verify": ("run the named invariant checks", _verify_options, _cmd_verify),
    "oeis-check": ("compare against bundled b-files", _oeis_options, _cmd_oeis),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The root parser with command's subparser only, or with all six when
    command is None or names no subcommand.  main parses one subcommand,
    and building the other five would cost it about half a small op."""
    root = _Parser(prog="lacunary")
    root.add_argument("--json", action="store_true")
    sub = root.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, add_options, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        # unset when not given, so that it cannot undo the root's --json
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
        add_options(p)
    return root


def _named_command(argv):
    """The subcommand argv names, if only --json or an abbreviation of it
    comes before it; else None.  Then the whole tree is built, so that
    `-h cf` and `-- cf` read as they would with all six subcommands."""
    for arg in argv:
        if not arg.startswith("-"):
            return arg
        if len(arg) < 3 or not "--json".startswith(arg):
            return None
    return None


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(_named_command(argv))
    try:
        _check_root_options(parser, argv)
        args = parser.parse_args(argv)
        _check_choice(parser, args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = _COMMANDS[args.command][2](args)
        sys.stdout.flush()  # a closed or full stdout fails here at the latest
        return code
    # ahead of ArithmeticError: SeriesPrecisionError is both
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # stdout failed, or closed as `| head` closes it
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        _drop_failed_stdout()
        return 1


def _drop_failed_stdout() -> None:
    """Points a stdout that still cannot be flushed at os.devnull, so the
    flush at exit cannot fail again (the SIGPIPE recipe of Python's docs)."""
    try:
        sys.stdout.flush()
    except OSError:
        try:
            fd = sys.stdout.fileno()
        except OSError:  # io.UnsupportedOperation
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
