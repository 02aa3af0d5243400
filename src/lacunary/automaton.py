"""Finite automata with output for the coefficient sequences of Q_w with
rational w, plus periodicity detection and a GF(2)(X)-algebraicity probe.

Digits of k are fed LSB-first: the kernel recurrences split on the parity
of k, so the low bit must be consumed first.  A Dfao is index tables:
states are numbered 0..n-1 in the order a breadth-first closure from the
initial state discovers them, and each has a successor index per digit and
an output.  Labels, here (family tag, shift-orbit position) pairs, are kept
only for export; the identically-zero state is materialized as an explicit
absorbing "dead" state so the twelve table entries below stay visible in
code.

Transition table (state family x digit, p = parity of the current orbit
element; the orbit element always advances by one shift):

    p=0:  f --0--> g    f --1--> dead    p=1:  f --0--> dead  f --1--> f
          g --0--> g    g --1--> h             g --0--> g     g --1--> f
          h --0--> dead h --1--> h             h --0--> g     h --1--> dead

Outputs: f-state 1 - p, g-state 1, h-state p, dead 0; every output equals
the state's sequence at argument 0, which is exactly the condition making
trailing zero digits harmless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .bits import EpsilonSpec
from .dyadic import Dyadic, fraction_format, numerator_orbit
from .jsontext import CHUNK, SLOT, encode, layout, rows, separator, template
from .rings import flags_to_mask, gf2_mul


class OrbitError(ValueError, TypeError):
    """Usage error: shift-orbit enumeration needs a rational 2-adic integer."""


class OrbitCapError(ValueError):
    """Usage error: a whole automaton was asked for an orbit longer than
    ORBIT_CAP numerators."""


#: Longest shift orbit a whole automaton is built for: its closure costs
#: about 1.2 GB per 10^6 numerators.
ORBIT_CAP = 1 << 20


def _numerator_orbit(w: Dyadic, limit: int | None = None):
    """numerator_orbit of w, which must be rational."""
    if w.classify() == "unknown":
        raise OrbitError("orbit requires rational 2-adic input")
    return numerator_orbit(w.num, w.den, limit)


def orbit(w: Dyadic):
    """(preperiod list, cycle list) of the distinct shifts T^j w."""
    nums, cut = _numerator_orbit(w)
    chain = [Dyadic(num=x, den=w.den) for x in nums]
    return chain[:cut], chain[cut:]


@dataclass(frozen=True)
class Dfao:
    """Deterministic finite automaton with output, input digits LSB-first,
    held as index tables over the states 0..n-1.

    step[i] = (next on 0, next on 1) and out[i] in {-1, 0, +1} describe
    state i; initial is an index.  states[i] is the label of state i, kept
    only for export."""

    states: tuple
    step: tuple
    out: tuple
    initial: int
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.states)

    def evaluate(self, k: int) -> int:
        return self.evaluate_from(self.initial, k)

    def evaluate_from(self, i: int, k: int) -> int:
        """Value at k of the sequence realized by state i."""
        if k < 0:
            raise ValueError("negative input")
        step = self.step
        while k:
            i = step[i][k & 1]
            k >>= 1
        return self.out[i]

    def realized(self, i: int, length: int) -> tuple:
        return tuple(self.evaluate_from(i, k) for k in range(length))

    def evaluate_all(self, bits: int) -> np.ndarray:
        """Outputs for every k < 2^bits at once, feeding each k as exactly
        `bits` digits.  Zero padding never changes the result (the output
        map is stable under the 0-transition), so this matches evaluate().
        One state-array doubling per digit position."""
        import numpy as np

        d0, d1 = np.array(self.step, dtype=np.int32).T
        arr = np.array([self.initial], dtype=np.int32)
        for _ in range(bits):
            arr = np.concatenate([d0[arr], d1[arr]])
        return np.array(self.out, dtype=np.int32)[arr]

    def to_dot(self) -> str:
        lines = [
            "digraph dfao {",
            "  rankdir=LR;",
            '  node [shape=circle, fontname="monospace"];',
            '  __start [shape=none, label=""];',
            f"  __start -> s{self.initial};",
        ]
        for i, s in enumerate(_label_texts(self.states)):
            s = s.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  s{i} [label="{s} / {self.out[i]}"];')
        for i, (t0, t1) in enumerate(self.step):
            lines.append(f'  s{i} -> s{t0} [label="0"];')
            lines.append(f'  s{i} -> s{t1} [label="1"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """json.dumps(obj, sort_keys=True, indent=2) of {"input", "states",
        "initial", "transitions", "meta"}, its states and transitions laid
        out by jsontext.rows, CHUNK of them per %-format; labels go through
        json's C string encoder."""
        labels = list(map(encode, _label_texts(self.states)))
        states = rows(_STATE, separator(1), (range(len(labels)), labels, self.out), CHUNK)
        transitions = rows(_PAIR, separator(1), tuple(zip(*self.step)), CHUNK)
        return _DOCUMENT % (self.initial, layout(self.meta, 1), "".join(states), "".join(transitions))

    @classmethod
    def from_json(cls, text: str) -> "Dfao":
        """Inverse of to_json; ValueError names the field unless ids are 0..n-1
        in order, every transition and the initial state name one of them,
        labels are strings, outputs ints in {-1, 0, 1} and meta an object."""
        obj = json.loads(text)
        if type(obj) is not dict:
            raise ValueError("the document must be an object")
        if obj.get("input") != "lsb-first":
            raise ValueError("unknown input convention")
        states = obj.get("states")
        if type(states) is not list or not all(type(st) is dict for st in states):
            raise ValueError("states must be a list of objects")
        n = len(states)
        ids = [st.get("id") for st in states]
        if ids != list(range(n)) or not all(type(i) is int for i in ids):
            raise ValueError(f"state ids must be 0..{n - 1} in order")
        labels = tuple(st.get("label") for st in states)
        if not all(type(x) is str for x in labels):
            raise ValueError("state labels must be strings")
        out = tuple(st.get("output") for st in states)
        if not all(type(x) is int and -1 <= x <= 1 for x in out):
            raise ValueError("state outputs must be -1, 0 or 1")
        trans = obj.get("transitions")
        if type(trans) is not list or len(trans) != n or not all(
                isinstance(t, list) and len(t) == 2 and all(_is_index(x, n) for x in t) for t in trans):
            raise ValueError(f"transitions must be {n} pairs of state ids")
        if not _is_index(obj.get("initial"), n):
            raise ValueError(f"initial state {obj.get('initial')!r} is not a state id")
        meta = obj.get("meta", {})
        if type(meta) is not dict:
            raise ValueError("meta must be an object")
        return cls(states=labels, step=tuple(map(tuple, trans)), out=out,
                   initial=obj["initial"], meta=meta)


def _is_index(x, n: int) -> bool:
    return type(x) is int and 0 <= x < n


def _label_texts(states) -> list:
    """The text of each label: a str as it is, a tuple as "(a, b, ...)" of
    str() of its components, through one %-template per tuple length."""
    forms = {n: "(" + ", ".join(["%s"] * n) + ")"
             for n in {len(s) for s in states if not isinstance(s, str)}}
    return [s if isinstance(s, str) else forms[len(s)] % s for s in states]


# to_json's document, one state and one transition pair
_DOCUMENT = template({"initial": SLOT, "input": "lsb-first", "meta": SLOT,
                      "states": [SLOT], "transitions": [SLOT]})
_STATE = template({"id": SLOT, "label": SLOT, "output": SLOT}, 2)
_PAIR = template([SLOT, SLOT], 2)


DEAD = "dead"
_FAMILIES = "fgh"

# (family, parity) x digit -> family; None is the dead state
_KERNEL_STEP = {
    ("f", 0): ("g", None),
    ("f", 1): (None, "f"),
    ("g", 0): ("g", "h"),
    ("g", 1): ("g", "f"),
    ("h", 0): (None, "h"),
    ("h", 1): ("g", None),
}


def build_dfao(w: Dyadic, tag: str = "f", depth: int | None = None) -> Dfao:
    """Automaton computing k -> kernel_value(w, k, tag), built by closing
    the (family, orbit position) state set under the transition table.
    Only states reachable from the initial one are kept.

    The closure runs on integer codes: (family, j) is fam * n + j, with
    fam the family's index in "fgh" and n the number of orbit positions,
    and the dead state is 3n.  Labels and outputs are decoded once it is
    done.

    Without a depth the whole orbit is walked, and one longer than
    ORBIT_CAP numerators raises OrbitCapError before any closure.  With a
    depth the walk stops after depth + 1 numerators, so the machine has at
    most 3(depth + 1) + 1 states.  If the orbit closes within them, the
    result is the full machine.  Otherwise it is exact only for k < 2^depth:
    its last position steps to itself, and meta records "depth" in place
    of "orbit_preperiod"."""
    if tag not in _FAMILIES:
        raise ValueError(f"unknown tag {tag!r}")
    if depth is not None and depth < 0:
        raise ValueError(f"negative depth {depth}")
    nums, loop = _numerator_orbit(w, ORBIT_CAP if depth is None else depth + 1)
    if loop is None and depth is None:
        raise OrbitCapError(f"the shift orbit of {w.describe()} has more than {ORBIT_CAP} "
                            "numerators, the cap of a whole automaton")
    n = len(nums)
    parities = [x & 1 for x in nums]
    after = list(range(1, n))           # orbit position after j
    after.append(n - 1 if loop is None else loop)
    dead = 3 * n
    # (fam index, parity) -> code offset of the family entered on 0 and on 1,
    # None for the dead state
    moves = [[tuple(None if f2 is None else _FAMILIES.index(f2) * n
                    for f2 in _KERNEL_STEP[fam, p]) for p in (0, 1)]
             for fam in _FAMILIES]

    def step(s):
        if s == dead:
            return (dead, dead)
        fam, j = divmod(s, n)
        a, b = moves[fam][parities[j]]
        j = after[j]
        return (dead if a is None else a + j, dead if b is None else b + j)

    codes, table = _close(_FAMILIES.index(tag) * n, step)
    # output by code: f-states 1 - p, g-states 1, h-states p, dead 0
    outputs = [1 - p for p in parities] + [1] * n + parities + [0]
    labels = tuple(DEAD if s == dead else (_FAMILIES[s // n], s % n) for s in codes)
    meta = {
        "omega": w.describe(),
        "tag": tag,
        "orbit": list(map(fraction_format(w.den), nums)),
    }
    if loop is None:
        meta["depth"] = depth
    else:
        meta["orbit_preperiod"] = loop
    return Dfao(labels, table, tuple(map(outputs.__getitem__, codes)), 0, meta)


def _close(root, step):
    """Closure of root under step(state) = (next on 0, next on 1), numbering
    each state when it is first discovered: the order in which a FIFO search
    visits them, root at index 0.  Returns (states, index table of (next on
    0, next on 1))."""
    states = [root]
    index = {root: 0}
    table = []
    # map sees the states appended while it runs
    for t0, t1 in map(step, states):
        i0 = index.get(t0)
        if i0 is None:
            i0 = index[t0] = len(states)
            states.append(t0)
        i1 = index.get(t1)
        if i1 is None:
            i1 = index[t1] = len(states)
            states.append(t1)
        table.append((i0, i1))
    return states, tuple(table)


def signed_dfao(w: Dyadic, eps: EpsilonSpec) -> Dfao:
    """Automaton for the signed coefficient k -> sign(k, eps) * f_w(k),
    with exponent convention mu(k) = k (the Mersenne case).

    Product of three machines: the f-kernel automaton build_dfao(w, "f"),
    whose state labels lead the product labels; a 10-block parity tracker
    (previous digit plus running parity, counting a block when the current
    digit is 1 and the previous was 0); and the position automaton for the
    digitwise sign differences of eps, which accumulates d_q = eps_q -
    eps_{q-1} mod 2 at every 1 digit of k.

    The last two run together as one tracker whose states (prev digit, nu,
    mb, class) are numbered in a table, and the closure runs on packed
    product states k * T + r: kernel state index k, tracker state index r,
    T tracker states."""
    ker = build_dfao(w, "f")
    p_len, r_len = len(eps.pre), len(eps.period)
    n_cls = p_len + 1 + r_len

    def cls_next(c: int) -> int:
        return c + 1 if c + 1 < n_cls else p_len + 1

    def cls_diff(c: int) -> int:
        # eps_q - eps_{q-1} mod 2, the same for every position q in class c,
        # and position c is in class c
        return eps.value(c) ^ eps.value(c - 1)

    def track(state, b):
        prev, nu, mb, c = state
        nu2 = nu ^ (1 if (b == 1 and prev == 0) else 0)
        mb2 = mb ^ (cls_diff(c) if b else 0)
        return (b, nu2, mb2, cls_next(c))

    tracks = list(product((None, 0, 1), (0, 1), (0, 1), range(n_cls)))
    t_len = len(tracks)
    t_index = {t: r for r, t in enumerate(tracks)}
    t_step = [(t_index[track(t, 0)], t_index[track(t, 1)]) for t in tracks]
    k_step = [(k0 * t_len, k1 * t_len) for k0, k1 in ker.step]

    def step(s):
        k, r = divmod(s, t_len)
        k0, k1 = k_step[k]
        r0, r1 = t_step[r]
        return (k0 + r0, k1 + r1)

    codes, table = _close(ker.initial * t_len + t_index[None, 0, 0, 0], step)
    signs = [-1 if nu ^ mb else 1 for _, nu, mb, _ in tracks]
    pairs = [divmod(s, t_len) for s in codes]
    labels = tuple((ker.states[k], *tracks[r]) for k, r in pairs)
    out = tuple(ker.out[k] * signs[r] for k, r in pairs)
    meta = {
        "omega": w.describe(),
        "tag": "signed-f",
        "eps": eps.describe(),
        "orbit": ker.meta["orbit"],
    }
    return Dfao(labels, table, out, 0, meta)


def minimize(d: Dfao) -> Dfao:
    """Moore-style partition refinement; labels of merged states are kept
    in the metadata, the quotient states are renamed m0, m1, ... in order
    of their first member."""
    block = d.out
    count = len(set(block))
    while True:
        renum = {}
        block = [renum.setdefault((block[i], block[t0], block[t1]), len(renum))
                 for i, (t0, t1) in enumerate(d.step)]
        if len(renum) == count:
            break
        count = len(renum)
    labels = tuple(f"m{b}" for b in range(count))
    texts = _label_texts(d.states)
    members = [[] for _ in labels]
    step = [None] * count
    out = [None] * count
    for i, (t0, t1) in enumerate(d.step):
        b = block[i]
        members[b].append(texts[i])
        step[b] = (block[t0], block[t1])
        out[b] = d.out[i]
    meta = dict(d.meta)
    meta["merged"] = dict(zip(labels, members))
    return Dfao(labels, tuple(step), tuple(out), block[d.initial], meta)


@dataclass(frozen=True)
class Relation:
    """A Frobenius-linear relation sum of c_i(X) * S(X)^(2^i) = 0, truncated:
    the certificate holds modulo X^truncation, nothing stronger."""

    coeffs: tuple          # c_0..c_D as GF2 masks (bit j = X^j)
    truncation: int
    kind: str              # "generic" | "polynomial-input"

    def degree_used(self) -> int:
        return max((i for i, c in enumerate(self.coeffs) if c), default=0)

    def height_used(self) -> int:
        return max((c.bit_length() - 1 for c in self.coeffs if c), default=0)

    def describe(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms = [("X^%d" % j if j else "1") for j in range(c.bit_length()) if (c >> j) & 1]
                parts.append("(" + " + ".join(terms) + f")*S^{2**i}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} = 0  (mod X^{self.truncation})"


def find_algebraic_relation(seq, degree_bound: int, height_bound: int, truncation: int):
    """Search for c_0..c_D over GF2[X], deg c_i <= height bound, with
    sum of c_i * S^(2^i) = 0 modulo X^N, N the truncation, where S has the
    given 0/1 coefficient prefix.  Returns a Relation or None.

    Candidate columns X^j * S^(2^i) are built from the nonzero positions of
    the prefix, each multiplied by 2^i; the returned relation has passed
    verify_relation, a separate code path, and one that fails it raises
    ArithmeticError.  A prefix whose support dies before N/2 is reported
    through the exact relation S^2 + P*S = 0 with P the polynomial itself,
    flagged "polynomial-input"."""
    n = truncation
    if n > len(seq):
        raise ValueError(f"prefix has {len(seq)} terms, truncation {n} needs more")
    if degree_bound < 1 or height_bound < 0:
        raise ValueError("need degree bound >= 1 and height bound >= 0")
    if n < 4 * (degree_bound + 1) * (height_bound + 1):
        raise ValueError(
            f"truncation {n} below solvability margin "
            f"{4 * (degree_bound + 1) * (height_bound + 1)}"
        )
    import numpy as np

    odd = np.asarray(seq[:n]) & 1
    s_mask = flags_to_mask(odd)
    window = (1 << n) - 1

    if s_mask.bit_length() <= n // 2:
        coeffs = [0] * (degree_bound + 1)
        coeffs[0] = s_mask
        coeffs[1] = 1
        return _certify(Relation(tuple(coeffs), n, "polynomial-input"), seq)

    # S^(2^i) mod X^n: the term X^k of S becomes X^(k * 2^i)
    support = np.flatnonzero(odd)
    powers = []
    for i in range(degree_bound + 1):
        spread = np.zeros(n, dtype=bool)
        spread[support[support <= (n - 1) >> i] << i] = True
        powers.append(flags_to_mask(spread))

    # column X^j * S^(2^i) is bit i * (H + 1) + j of a combination, so c_i
    # is its i-th slice of H + 1 bits
    width = height_bound + 1
    basis = {}
    for i in range(degree_bound + 1):
        for j in range(width):
            vec = (powers[i] << j) & window
            combo = 1 << (i * width + j)
            while vec:
                low = vec & -vec
                if low not in basis:
                    basis[low] = (vec, combo)
                    break
                bvec, bcombo = basis[low]
                vec ^= bvec
                combo ^= bcombo
            if not vec:
                coeffs = tuple(combo >> (d * width) & ((1 << width) - 1)
                               for d in range(degree_bound + 1))
                return _certify(Relation(coeffs, n, "generic"), seq)
    return None


def _certify(rel: Relation, seq) -> Relation:
    """rel, once verify_relation accepts it; ArithmeticError otherwise."""
    if not verify_relation(rel, seq):
        raise ArithmeticError("solver produced a relation that fails independent verification")
    return rel


def verify_relation(rel: Relation, seq) -> bool:
    """Independent check of a Relation against the sequence prefix: powers
    come from repeated carry-less squaring with truncation, never from the
    solver's spread tables."""
    n = rel.truncation
    if n > len(seq):
        raise ValueError("prefix shorter than the relation's truncation")
    import numpy as np

    window = (1 << n) - 1
    s_mask = flags_to_mask(np.asarray(seq[:n]) & 1)
    total = 0
    power = s_mask
    # no squaring past the last nonzero coefficient, whose powers go unused
    for i, c in enumerate(rel.coeffs[: rel.degree_used() + 1]):
        if i > 0:
            power = gf2_mul(power, power) & window
        if c:
            total ^= gf2_mul(c, power) & window
    return not (total & window)
