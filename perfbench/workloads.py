"""The three workloads as fixed catalogues of CLI argv, and the seeded decks
drawn from them.

A workload is a list of strata.  A stratum is a pool of argv of about the
same cost plus the number of them one pass of the deck runs.  The pools are
fixed, so every argv a seed can draw has an expected outcome in
reference.json; the seed picks which pool members run and in what order.
Because each pass runs the same number of ops from every stratum, the mix
of cheap and expensive ops is the same for every seed, and so are the
medians and percentiles the benchmark reports.

Each op is a dict:
    argv    the arguments for ``lacunary.cli.main``
    usage   True when the argv is invalid and must end in exit 2 with a
            one-line ``error:`` message
    window  for uncapped Mersenne ``cf`` ops, the window; the size classes
            of ``contfrac.cf_expand.scaling_exp``
"""

from __future__ import annotations

import random

WORKLOADS = ("cf-expand", "automaton-orbit", "kernel-sweep")

# Sign patterns for the lacunary series and for the signed automaton.
_EPS = ("period:0", "period:0,1", "pre:1+period:0,1", "period:1",
        "pre:0,1+period:1,0,0", "period:0,0,1", "period:1,0", "pre:1,1+period:0",
        "period:0,1,1", "pre:0,0,1+period:1")


def _op(*argv, usage=False, window=None):
    return {"argv": [str(a) for a in argv], "usage": usage, "window": window}


def _lacunary_list(rng, window):
    """Exponents l_0 < l_1 < ... with l_{q+1} about 2.6 l_q, reaching
    window/2, so that the whole window is determined by the list.  A fixed
    ratio keeps the cost of lists at one window within a factor of two."""
    vals = [rng.randint(1, 3)]
    while vals[-1] < window // 2:
        vals.append(int(2.6 * vals[-1]) + 1 + rng.randrange(3))
    return "list:" + ",".join(map(str, vals))


def _cf_expand():
    rng = random.Random("cf-expand catalogue")
    strata = []
    # Mersenne exponents: about N/2 quotients of degree 1 at window N, so
    # the dense Euclid loop and the P/Q products grow as N^2.  Text and JSON
    # are separate strata because JSON output of P/Q costs as much again.
    # Counts put the median op among the 2^10 text expansions and the 90th
    # percentile among the 2^11 JSON ones.
    for window, n_text, n_json in ((1024, 9, 5), (2048, 3, 4), (4096, 1, 1)):
        for mode, count in (("text", n_text), ("json", n_json)):
            extra = ["--json"] if mode == "json" else []
            pool = [_op("cf", "--precision", window, "--eps", eps, *extra, window=window)
                    for eps in _EPS]
            strata.append((f"mersenne-{window}-{mode}", count, pool))
    # Seeded 2-lacunary lists: fewer quotients of higher degree.
    for window, count in ((1024, 4), (2048, 3), (4096, 2), (8192, 2), (16384, 1)):
        lists = [_lacunary_list(rng, window) for _ in range(4)]
        for mode in ("text", "json"):
            extra = ["--json"] if mode == "json" else []
            pool = [_op("cf", "--precision", window, "--lambda", lam, "--eps", eps, *extra)
                    for lam in lists for eps in _EPS[:3]]
            strata.append((f"list-{window}-{mode}", count, pool))
    # Capped expansions of deep windows: build_F over the whole window, then
    # only the first --n quotients.
    pool = [_op("cf", "--precision", window, "--n", n, "--eps", eps, *extra)
            for window in (8192, 16384) for n in (50, 100, 200)
            for eps in _EPS[:2] for extra in ([], ["--json"])]
    strata.append(("capped", 5, pool))
    pool = [
        _op("cf", "--lambda", "list:1,x", usage=True),
        _op("cf", "--lambda", "list:5,7,40", "--precision", 64, usage=True),
        _op("cf", "--lambda", "rule:3*2^q-2", usage=True),
        _op("cf", "--eps", "period:2", usage=True),
        _op("cf", "--eps", "pre:1", usage=True),
        _op("cf", "--precision", 0, usage=True),
    ]
    strata.append(("usage", 2, pool))
    return strata


def _rat_pool(dens, nums=(1, -1, 3, -5, 7)):
    return [f"rat:{a}/{b}" for b in dens for a in nums]


def _automaton_orbit():
    strata = []
    # Odd denominators grouped by the 2-adic period of 1/b, log-uniform from
    # 2 to about 4100.  Building the automaton rebuilds that period once per
    # orbit element, so time grows as the period squared.
    classes = (
        ("p2-12", (3, 5, 7, 9, 11, 13), 14),
        ("p30-40", (29, 37, 71, 79, 109), 12),
        ("p420-520", (419, 443, 467, 491, 509, 1031), 5),
    )
    for name, dens, count in classes:
        pool = []
        for omega in _rat_pool(dens):
            for tag in ("f", "g", "h"):
                pool.append(_op("automaton", "build", "--omega", omega, "--tag", tag))
                pool.append(_op("automaton", "build", "--omega", omega, "--tag", tag, "--minimize"))
                pool.append(_op("automaton", "build", "--omega", omega, "--tag", tag,
                                "--export", "json"))
            for eps in _EPS[:3]:
                pool.append(_op("automaton", "build", "--omega", omega, "--tag", "signed",
                                "--eps", eps))
        strata.append((name + "-build", count, pool))
    # The median op falls in this class, so its periods lie close together
    # (130 to 138) and each variant, which costs between 5 and 9 ms here,
    # has its own count.
    omegas = _rat_pool((131, 139, 263, 271, 289))
    variants = (
        ("plain", 4, [[]]),
        ("minimize", 3, [["--minimize"]]),
        ("json", 3, [["--export", "json"]]),
        ("signed", 4, [["--eps", eps] for eps in _EPS[:3]]),
    )
    for variant, count, extras in variants:
        tags = ("signed",) if variant == "signed" else ("f", "g", "h")
        pool = [_op("automaton", "build", "--omega", w, "--tag", tag, *extra)
                for w in omegas for tag in tags for extra in extras]
        strata.append((f"p130-138-{variant}", count, pool))
    # One op per denominator and variant keeps these pools small: each op
    # takes about a second (period 2000) or three (period 4100).  Several
    # per pass, because single ops of this size vary by 12-16% from run to run.
    variants = ((1, "f", []), (-1, "g", ["--minimize"]), (3, "h", ["--export", "json"]))
    pool = [_op("automaton", "build", "--omega", f"rat:{a}/{b}", "--tag", tag, *extra)
            for b in (1987, 1997, 2027, 2029, 2053) for a, tag, extra in variants]
    strata.append(("p1990-2050-build", 2, pool))
    pool = [_op("automaton", "build", "--omega", f"rat:{a}/{b}", "--tag", "signed",
                "--eps", eps, *extra)
            for b in (1987, 1997, 2027, 2029, 2053)
            for (a, _, extra), eps in zip(variants, _EPS)]
    strata.append(("p1990-2050-signed", 1, pool))
    pool = [_op("automaton", "build", "--omega", f"rat:{a}/{b}", "--tag", tag, *extra)
            for b in (4091, 4093, 4099, 8231, 8383) for a, tag, extra in variants]
    strata.append(("p4068-4115-build", 1, pool))
    # Direct check of the automata against kernel_range.  The checks at
    # periods near 500 are the slowest ops below the handful of big ones,
    # so the 90th percentile falls among them.
    pool = [_op("automaton", "verify", "--omega", w, "--upto", 65536)
            for w in _rat_pool((3, 11, 13, 29, 37, 107, 131, 139), (1, -3))]
    strata.append(("verify", 10, pool))
    pool = [_op("automaton", "verify", "--omega", w, "--upto", 65536)
            for w in _rat_pool((419, 443, 467, 491, 509), (1, -3))]
    strata.append(("verify-p420-510", 8, pool))
    # Tiny output over a huge hidden period (about 10^6 digits).
    pool = [_op("qseries", "--omega", w, "--upto", 8, *extra)
            for w in _rat_pool((999907, 999917, 1000003, 1000037), (1, -1, 5))
            for extra in ([], ["--json"])]
    strata.append(("huge-period-qseries", 1, pool))
    pool = [
        _op("automaton", "build", "--omega", "rat:1/4", usage=True),
        _op("automaton", "build", "--omega", "rat:3/1030", usage=True),
        _op("automaton", "verify", "--omega", "rat:1/0", usage=True),
        _op("automaton", "build", "--omega", "bits:pre=1", usage=True),
        _op("qseries", "--omega", "rat:5/8", "--upto", 8, usage=True),
        _op("automaton", "build", "--omega", "int:x", usage=True),
    ]
    strata.append(("usage", 2, pool))
    return strata


# Small-period omega: odd denominators up to 31, both signs.
_SMALL = tuple(f"rat:{a}/{b}" for b in (3, 5, 7, 9, 15, 21, 31) for a in (1, -1, 2, -5))
_STREAMS = ("stream:thue-morse", "stream:paperfolding")


def _kernel_sweep():
    strata = []
    # The 2^20 windows hold the largest lists of the workload, so every pass
    # runs the same number of them and peak memory does not depend on the draw.
    for name, uptos, count in (("qseries-window", (1 << 18, 1 << 19), 7),
                               ("qseries-window-2^20", (1 << 20,), 3)):
        pool = [_op("qseries", "--omega", w, "--upto", upto, *extra)
                for w in _SMALL[::2] + _STREAMS for upto in uptos
                for extra in ([], ["--json"], ["--mod2", "--json"])]
        strata.append((name, count, pool))
    pool = [_op("qseries", "pell", "--omega", w, "--trunc", trunc, *extra)
            for w in _SMALL for trunc in (8192, 32768, 65536)
            for extra in ([], ["--json"])]
    strata.append(("qseries-pell", 4, pool))
    pool = [_op("qseries", "anumber", "--omega", w, "--eps", eps, "--g", g,
                "--terms", terms, "--digits", 120)
            for w in _SMALL[::3] for eps in _EPS[:3] for g in (2, 10)
            for terms in (1000, 4000)]
    strata.append(("qseries-anumber", 4, pool))
    # Relation search at the default bounds and at --deg 1 --height 2.  The
    # outcome is recorded as the code gives it: about two fifths of these ops
    # exit 1 (no relation found), default-bound ones too, and for several
    # omega the outcome changes back and forth with --trunc (README.md).
    pool = [_op("automaton", "algrel", "--omega", w, "--trunc", trunc, *extra)
            for w in _SMALL[1::2] + _STREAMS for trunc in (8192, 16384, 32768, 65536)
            for extra in ([], ["--json"])]
    pool += [_op("automaton", "algrel", "--omega", w, "--trunc", trunc,
                 "--deg", 1, "--height", 2, *extra)
             for w in ("rat:1/7", "rat:-5/31", "rat:2/21") for trunc in (8192, 32768, 65536)
             for extra in ([], ["--json"])]
    strata.append(("algrel", 8, pool))
    # Ranges of equal length, so that these ops cost about the same; they
    # are the largest stratum and the median op falls among them.
    pool = [_op("stern", which, "--from", start, "--to", start + 20000, *extra)
            for which in ("u", "v", "alpha", "beta", "gamma")
            for start in (0, 10000, 20000) for extra in ([], ["--csv"], ["--json"])]
    strata.append(("stern-range", 30, pool))
    # Carlitz's sum costs about n/2 per index; neighbouring ranges of equal
    # length cost about the same.  The slowest ops of the workload: the
    # 90th percentile falls among them.
    pool = [_op("stern", "carlitz", "--from", start, "--to", start + 1300, *extra)
            for start in range(1300, 1900, 100) for extra in ([], ["--csv"], ["--json"])]
    strata.append(("stern-carlitz", 14, pool))
    pool = [_op("oeis-check", seq, "--limit", limit, *extra)
            for seq in ("A002487", "A049347", "A005590", "A177219", "A168561",
                        "A085478", "A078812")
            for limit in (500, 2000) for extra in ([], ["--json"])]
    pool += [_op("stern", "oeis-check", "--id", "A002487", "--limit", 1000)]
    strata.append(("oeis", 6, pool))
    checks = ("bits.lucas-support-count", "bits.lucas-pascal-row",
              "bits.domination-partial-order", "bits.paperfold-v-relations",
              "bits.mu-injective", "stern.carlitz-identity", "stern.halfsum-count",
              "stern.extended-doubling", "stern.variant-alignment", "stern.gamma-periodic",
              "stern.dual-paths", "dyadic.digit-lemma-i", "dyadic.digit-lemma-ii-iii",
              "dyadic.digit-lemma-iv", "dyadic.digit-lemma-v", "dyadic.digit-lemma-vi",
              "qseries.support-aperiodic")
    pool = [_op("verify", "--json", "--seed", seed, "--only", ",".join(checks[i:i + 3]))
            for i in range(0, len(checks), 2) for seed in (0, 1)]
    strata.append(("verify", 6, pool))
    pool = [
        _op("qseries", "--omega", "rat:1/6", usage=True),
        _op("qseries", "anumber", "--digits", -3, usage=True),
        _op("stern", "u", "--from", 9, "--to", 3, usage=True),
        _op("stern", "carlitz", "--from", -4, usage=True),
        _op("automaton", "algrel", "--trunc", 16, usage=True),
        _op("oeis-check", "A000001", usage=True),
        _op("verify", "--json", "--only", "no.such-check", usage=True),
        _op("qseries", "pell", "--omega", "stream:thue-morse", usage=True),
    ]
    strata.append(("usage", 3, pool))
    return strata


_BUILDERS = {
    "cf-expand": _cf_expand,
    "automaton-orbit": _automaton_orbit,
    "kernel-sweep": _kernel_sweep,
}

# Invalid argv that the code does not yet turn into exit 2 with a one-line
# message.  They run outside the timed mix, once per run, and each escape is
# reported; see README.md.
PROBES = {
    "cf-expand": [
        ["cf", "--lambda", "list:1,3", "--precision", "64"],
        ["cf", "--lambda", "list:2,5,11", "--precision", "100"],
    ],
    "automaton-orbit": [
        ["automaton", "build", "--omega", "stream:thue-morse"],
        ["automaton", "verify", "--omega", "stream:paperfolding", "--upto", "64"],
    ],
    "kernel-sweep": [],
}


def strata(workload):
    """[(name, ops per pass, pool)] for the workload."""
    return _BUILDERS[workload]()


def catalogue(workload):
    """Every op any seed can draw, without repeats."""
    seen = {}
    for _, _, pool in strata(workload):
        for op in pool:
            seen.setdefault(key(op["argv"]), op)
    return list(seen.values())


def deck(workload, seed, pass_index, per_stratum=None):
    """The ops of one pass, shuffled.  per_stratum overrides the counts
    (the smoke test runs one op of each stratum)."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    ops = []
    for name, count, pool in strata(workload):
        ops.extend(dict(op, stratum=name) for op in rng.sample(pool, per_stratum or count))
    rng.shuffle(ops)
    return ops


def key(argv):
    return " ".join(argv)


def one_line_error(record):
    """The outcome every invalid argv must have: exit 2 and exactly one
    stderr line, starting with 'error:'."""
    lines = record["stderr"].strip().splitlines()
    return (record["error"] is None and record["rc"] == 2
            and len(lines) == 1 and lines[0].startswith("error:"))
