"""Spans and counters recorded around the calls into each lacunary module.

Nothing inside the package is edited.  Each traced function is replaced by
a wrapper in the modules that call it, the same way ``from .x import f``
bound it there (``lacunary.cli.cf_expand``, ``lacunary.qseries.kernel_range``,
...).  A module's calls to its own functions are wrapped in that module
(``automaton.orbit`` from ``build_dfao``).  Functions called once per index
(the Stern scalars, the term exponent and sign) only add to a per-name
counter; everything else records one span per call.

A span is (id, parent id, op index, name, start, end, child seconds, size).
Self time is the span's duration minus the time of the calls nested in it,
spans and counted calls alike.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time

import lacunary.automaton
import lacunary.cli

_PACKAGE = ("cli", "bits", "rings", "contfrac", "dyadic", "periodic", "qseries",
            "stern", "automaton", "oeis", "verify")


def _note_cf(tracer, args, result):
    tracer.add("quotients", len(result.quotients))
    tracer.add("certified", result.certified)


def _note_states(tracer, args, result):
    tracer.add("states", len(result))


def _note_minimize(tracer, args, result):
    tracer.add("min_in", len(args[0]))
    tracer.add("min_out", len(result))


def _note_relation(tracer, args, result):
    tracer.add("relation_tries", 1)
    tracer.add("relation_found", result is not None)


def _note_oeis(tracer, args, result):
    tracer.add("compared", result.compared)


def _note_checks(tracer, args, result):
    tracer.add("checks", len(result))


def _size_orbit(tracer, args, result):
    pre, cyc = result
    return len(pre) + len(cyc)


def _size_kernel(tracer, args, result):
    n = args[1] + 1
    tracer.add("k", n)
    return n


# (span name, defining module, function, also wrap the module's own calls,
#  note(tracer, args, result) -> size or None)
SPANS = (
    ("contfrac.build_F", "contfrac", "build_F", False, None),
    ("contfrac.cf_expand", "contfrac", "cf_expand", False, _note_cf),
    ("contfrac.convergents", "contfrac", "convergents", False, None),
    ("rings.poly_to_json", "rings", "poly_to_json", False, None),
    ("rings.gf2_mul", "rings", "gf2_mul", False, None),
    ("dyadic.parse_omega", "dyadic", "parse_omega", False, None),
    ("dyadic.kernel_range", "dyadic", "kernel_range", False, _size_kernel),
    ("automaton.orbit", "automaton", "orbit", True, _size_orbit),
    ("automaton.build_dfao", "automaton", "build_dfao", False, _note_states),
    ("automaton.signed_dfao", "automaton", "signed_dfao", False, _note_states),
    ("automaton.minimize", "automaton", "minimize", False, _note_minimize),
    ("automaton.find_algebraic_relation", "automaton", "find_algebraic_relation", False,
     _note_relation),
    ("automaton.verify_relation", "automaton", "verify_relation", True, None),
    ("qseries.q_omega_window", "qseries", "q_omega_window", False, None),
    # cli imports q_support_flags inside the algrel branch, from the module.
    ("qseries.q_support_flags", "qseries", "q_support_flags", True, None),
    ("qseries.pell_check_mod2", "qseries", "pell_check_mod2", False, None),
    ("qseries.a_number", "qseries", "a_number", False, None),
    ("oeis.check_oeis", "oeis", "check_oeis", False, _note_oeis),
    # cli calls verify.run_checks through the module object.
    ("verify.run_checks", "verify", "run_checks", True, _note_checks),
    ("periodic.detect_ultimate_period", "periodic", "detect_ultimate_period", False, None),
)

# Counted, not spanned: (counter name, defining module, function, caller module)
COUNTED = (
    ("bits.term", "bits", "term_exponent", "qseries"),
    ("bits.term", "bits", "term_sign", "qseries"),
)


def _module(name):
    return importlib.import_module("lacunary." + name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = {}      # name -> [calls, self seconds]
        self.counts = {}
        self.op = None
        self._stack = []      # [span id, child seconds] per open call
        self._next_id = 0
        self._patch_list = self._patches()
        self._main = self.wrap("cli.main", lacunary.cli.main)

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, note=None, counted=False):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        total = self.totals.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                total[0] += 1
                total[1] += dur - frame[1]
            size = None if note is None else note(self, args, result)
            if not counted:
                spans.append((span_id, parent, self.op, name, start, end, frame[1], size))
            return result

        traced.__wrapped__ = fn
        return traced

    def _patches(self):
        """(namespace, name, original, wrapper) for every traced call site."""
        mods = {name: _module(name) for name in _PACKAGE}
        patches = []
        for name, home, attr, own, note in SPANS:
            fn = getattr(mods[home], attr)
            wrapper = self.wrap(name, fn, note)
            for mod_name, mod in mods.items():
                if getattr(mod, attr, None) is fn and (mod_name != home or own):
                    patches.append((vars(mod), attr, fn, wrapper))
        for name, home, attr, caller in COUNTED:
            fn = getattr(mods[home], attr)
            patches.append((vars(mods[caller]), attr, fn, self.wrap(name, fn, counted=True)))
        # A method: the class namespace is a mappingproxy, so go through setattr.
        dfao = lacunary.automaton.Dfao
        fn = dfao.evaluate_all
        patches.append((dfao, "evaluate_all", fn, self.wrap("automaton.evaluate_all", fn)))
        # cli looks the Stern scalars up in a table built at import time.
        table = lacunary.cli._STERN_FUNCS
        for which, fn in table.items():
            patches.append((table, which, fn, self.wrap("stern.scalar", fn, counted=True)))
        return patches

    def _apply(self, pick):
        for space, name, original, wrapper in self._patch_list:
            value = pick(original, wrapper)
            if isinstance(space, dict):
                space[name] = value
            else:
                setattr(space, name, value)

    def enable(self):
        """Put the wrappers in place at every call site."""
        self._apply(lambda original, wrapper: wrapper)

    def disable(self):
        """Restore the package's own functions."""
        self._apply(lambda original, wrapper: original)

    def main(self, index, argv):
        """lacunary.cli.main(argv) as the root span of op `index`."""
        self.op = index
        try:
            return self._main(argv)
        finally:
            self.op = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _self(span):
    return span[5] - span[4] - span[6]


def scaling_exponent(points):
    """Least-squares slope of log(median seconds) against log(size), over
    the size classes within 16x of the largest, where fixed per-call costs
    no longer dominate.  0 when fewer than two classes qualify."""
    by_size = {}
    for size, secs in points:
        if size and secs > 0:
            by_size.setdefault(size, []).append(secs)
    if not by_size:
        return 0.0
    top = max(by_size)
    xs, ys = [], []
    for size, vals in by_size.items():
        if size * 16 >= top:
            xs.append(math.log(size))
            ys.append(math.log(statistics.median(vals)))
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops, output_bytes, traced_s, untraced_s, escaped):
    """Per-layer metrics of one traced pass.  ops[i] is the op dict of the
    span op index i.  A layer that did no work reports 0."""
    tot = tracer.totals
    counts = tracer.counts

    def self_s(name):
        return tot.get(name, [0, 0.0])[1]

    def calls(name):
        return tot.get(name, [0, 0.0])[0]

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    unused = sum(_self(s) for s in by_name.get("contfrac.convergents", ())
                 if "--json" not in ops[s[2]]["argv"])
    cf_points = [(ops[s[2]]["window"], _self(s)) for s in by_name.get("contfrac.cf_expand", ())]

    return {
        "cli.main.self_s": self_s("cli.main"),
        "cli.output_bytes": output_bytes,
        "cli.escaped": escaped,
        "contfrac.build_F.self_s": self_s("contfrac.build_F"),
        "contfrac.cf_expand.self_s": self_s("contfrac.cf_expand"),
        "contfrac.cf_expand.scaling_exp": scaling_exponent(cf_points),
        "contfrac.convergents.self_s": self_s("contfrac.convergents"),
        "contfrac.convergents.unused_s": unused,
        "contfrac.quotients": counts.get("quotients", 0),
        "contfrac.certified_ratio": _ratio(counts.get("certified", 0), counts.get("quotients", 0)),
        "rings.poly_to_json.self_s": self_s("rings.poly_to_json"),
        "rings.poly_to_json.calls": calls("rings.poly_to_json"),
        "rings.gf2_mul.self_s": self_s("rings.gf2_mul"),
        "rings.gf2_mul.calls": calls("rings.gf2_mul"),
        "dyadic.parse_omega.self_s": self_s("dyadic.parse_omega"),
        "dyadic.kernel_range.self_s": self_s("dyadic.kernel_range"),
        "dyadic.kernel_range.k_per_s": _ratio(counts.get("k", 0), self_s("dyadic.kernel_range")),
        "dyadic.kernel_range.scaling_exp": scaling_exponent(
            (s[7], _self(s)) for s in by_name.get("dyadic.kernel_range", ())),
        "automaton.orbit.self_s": self_s("automaton.orbit"),
        "automaton.orbit.scaling_exp": scaling_exponent(
            (s[7], _self(s)) for s in by_name.get("automaton.orbit", ())),
        "automaton.build_dfao.self_s": self_s("automaton.build_dfao"),
        "automaton.signed_dfao.self_s": self_s("automaton.signed_dfao"),
        "automaton.minimize.self_s": self_s("automaton.minimize"),
        "automaton.states": counts.get("states", 0),
        "automaton.min_ratio": _ratio(counts.get("min_out", 0), counts.get("min_in", 0)),
        "automaton.evaluate_all.self_s": self_s("automaton.evaluate_all"),
        "automaton.find_algebraic_relation.self_s": self_s("automaton.find_algebraic_relation"),
        "automaton.verify_relation.self_s": self_s("automaton.verify_relation"),
        "automaton.relation_found_ratio": _ratio(counts.get("relation_found", 0),
                                                 counts.get("relation_tries", 0)),
        "qseries.q_omega_window.self_s": self_s("qseries.q_omega_window"),
        "qseries.q_support_flags.self_s": self_s("qseries.q_support_flags"),
        "qseries.pell_check_mod2.self_s": self_s("qseries.pell_check_mod2"),
        "qseries.a_number.self_s": self_s("qseries.a_number"),
        "bits.term.self_s": self_s("bits.term"),
        "bits.term.calls": calls("bits.term"),
        "stern.scalar.self_s": self_s("stern.scalar"),
        "stern.scalar.calls": calls("stern.scalar"),
        "oeis.check_oeis.self_s": self_s("oeis.check_oeis"),
        "oeis.compared": counts.get("compared", 0),
        "verify.run_checks.self_s": self_s("verify.run_checks"),
        "verify.checks": counts.get("checks", 0),
        "periodic.detect_ultimate_period.self_s": self_s("periodic.detect_ultimate_period"),
        "periodic.detect_ultimate_period.calls": calls("periodic.detect_ultimate_period"),
        "trace_overhead": traced_s / untraced_s - 1,
    }
