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
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .bits import EpsilonSpec
from .dyadic import Dyadic
from .rings import flags_to_mask, gf2_mul

__all__ = [
    "Dfao",
    "OrbitError",
    "orbit",
    "build_dfao",
    "signed_dfao",
    "minimize",
    "Relation",
    "find_algebraic_relation",
    "verify_relation",
]


class OrbitError(ValueError, TypeError):
    """Usage error: shift-orbit enumeration needs a rational 2-adic integer."""


def orbit(w: Dyadic):
    """(preperiod list, cycle list) of the distinct shifts T^j w.

    Rational w guarantees termination: numerators over the fixed odd
    denominator stay bounded."""
    if w.classify() == "unknown":
        raise OrbitError("orbit requires rational 2-adic input")
    seen = {}
    chain = []
    cur = w
    while cur not in seen:
        seen[cur] = len(chain)
        chain.append(cur)
        cur = cur.shift()
    cut = seen[cur]
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
        for i, s in enumerate(self.states):
            lines.append(f'  s{i} [label="{_label_str(s)} / {self.out[i]}"];')
        for i, (t0, t1) in enumerate(self.step):
            lines.append(f'  s{i} -> s{t0} [label="0"];')
            lines.append(f'  s{i} -> s{t1} [label="1"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        obj = {
            "input": "lsb-first",
            "states": [
                {"id": i, "label": _label_str(s), "output": self.out[i]}
                for i, s in enumerate(self.states)
            ],
            "initial": self.initial,
            "transitions": self.step,
            "meta": self.meta,
        }
        return json.dumps(obj, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Dfao":
        """Inverse of to_json.  Ids must be 0..n-1 in order and every
        transition and the initial state must name one of them."""
        obj = json.loads(text)
        if obj.get("input") != "lsb-first":
            raise ValueError("unknown input convention")
        states = obj["states"]
        n = len(states)
        if [st["id"] for st in states] != list(range(n)):
            raise ValueError(f"state ids must be 0..{n - 1} in order")
        trans = obj["transitions"]
        if len(trans) != n or not all(isinstance(t, list) and len(t) == 2
                                      and all(_is_index(x, n) for x in t) for t in trans):
            raise ValueError(f"transitions must be {n} pairs of state ids")
        if not _is_index(obj["initial"], n):
            raise ValueError(f"initial state {obj['initial']!r} is not a state id")
        return cls(
            states=tuple(st["label"] for st in states),
            step=tuple(map(tuple, trans)),
            out=tuple(st["output"] for st in states),
            initial=obj["initial"],
            meta=obj.get("meta", {}),
        )


def _is_index(x, n: int) -> bool:
    return type(x) is int and 0 <= x < n


def _label_str(s) -> str:
    if isinstance(s, str):
        return s
    return "(" + ", ".join(str(p) for p in s) + ")"


DEAD = "dead"

# (family, parity) x digit -> family; None is the dead state
_KERNEL_STEP = {
    ("f", 0): ("g", None),
    ("f", 1): (None, "f"),
    ("g", 0): ("g", "h"),
    ("g", 1): ("g", "f"),
    ("h", 0): (None, "h"),
    ("h", 1): ("g", None),
}


def build_dfao(w: Dyadic, tag: str = "f") -> Dfao:
    """Automaton computing k -> kernel_value(w, k, tag), built by closing
    the (family, orbit position) state set under the transition table.
    Only states reachable from the initial one are kept."""
    if tag not in ("f", "g", "h"):
        raise ValueError(f"unknown tag {tag!r}")
    pre, cyc = orbit(w)
    elems = pre + cyc
    parities = [e.parity() for e in elems]
    last, loop = len(elems) - 1, len(pre)

    def step(state, b):
        if state == DEAD:
            return DEAD
        fam, j = state
        fam2 = _KERNEL_STEP[(fam, parities[j])][b]
        return DEAD if fam2 is None else (fam2, j + 1 if j < last else loop)

    def output(state):
        if state == DEAD:
            return 0
        fam, j = state
        if fam == "f":
            return 1 - parities[j]
        if fam == "g":
            return 1
        return parities[j]

    states, table = _close((tag, 0), step)
    meta = {
        "omega": w.describe(),
        "tag": tag,
        "orbit": [e.describe() for e in elems],
        "orbit_preperiod": len(pre),
    }
    return Dfao(tuple(states), table, tuple(map(output, states)), 0, meta)


def _close(root, step):
    """Closure of root under step(state, bit), numbering each state when it
    is first discovered: the order in which a FIFO search visits them, root
    at index 0.  Returns (states, index table of (next on 0, next on 1))."""
    states = [root]
    index = {root: 0}
    table = []
    for s in states:
        row = []
        for b in (0, 1):
            t = step(s, b)
            i = index.get(t)
            if i is None:
                i = index[t] = len(states)
                states.append(t)
            row.append(i)
        table.append(tuple(row))
    return states, tuple(table)


def signed_dfao(w: Dyadic, eps: EpsilonSpec) -> Dfao:
    """Automaton for the signed coefficient k -> sign(k, eps) * f_w(k),
    with exponent convention mu(k) = k (the Mersenne case).

    Product of three machines: the f-kernel automaton build_dfao(w, "f"),
    whose state labels lead the product labels; a 10-block parity tracker
    (previous digit plus running parity, counting a block when the current
    digit is 1 and the previous was 0); and the position automaton for the
    digitwise sign differences of eps, which accumulates d_q = eps_q -
    eps_{q-1} mod 2 at every 1 digit of k."""
    ker = build_dfao(w, "f")
    p_len, r_len = len(eps.pre), len(eps.period)
    n_cls = p_len + 1 + r_len

    def cls_next(c: int) -> int:
        return c + 1 if c + 1 < n_cls else p_len + 1

    def cls_diff(c: int) -> int:
        # eps_q - eps_{q-1} mod 2 for any position q in class c
        if c <= p_len:
            q = c
            return (eps.value(q) ^ eps.value(q - 1)) & 1
        r = c - p_len - 1
        return (eps.period[(r + 1) % r_len] ^ eps.period[r]) & 1

    # a product state is (kernel state index, prev digit, nu, mb, class)
    def step(state, b):
        k, prev, nu, mb, c = state
        nu2 = nu ^ (1 if (b == 1 and prev == 0) else 0)
        mb2 = mb ^ (cls_diff(c) if b else 0)
        return (ker.step[k][b], b, nu2, mb2, cls_next(c))

    def output(state):
        k, prev, nu, mb, c = state
        if ker.out[k] == 0:
            return 0
        return -1 if (nu ^ mb) & 1 else 1

    states, table = _close((ker.initial, None, 0, 0, 0), step)
    meta = {
        "omega": w.describe(),
        "tag": "signed-f",
        "eps": eps.describe(),
        "orbit": ker.meta["orbit"],
    }
    labels = tuple((ker.states[s[0]],) + s[1:] for s in states)
    return Dfao(labels, table, tuple(map(output, states)), 0, meta)


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
    members = [[] for _ in labels]
    step = [None] * count
    out = [None] * count
    for i, (t0, t1) in enumerate(d.step):
        b = block[i]
        members[b].append(_label_str(d.states[i]))
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
    verified: bool = False

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


def find_algebraic_relation(seq, degree_bound: int, height_bound: int, truncation: int | None = None):
    """Search for c_0..c_D over GF2[X], deg c_i <= height bound, with
    sum of c_i * S^(2^i) = 0 modulo X^N, where S has the given 0/1
    coefficient prefix.  Returns a verified Relation or None.

    Candidate columns X^j * S^(2^i) are built from the nonzero positions of
    the prefix, each multiplied by 2^i; the returned relation is
    re-verified through the carry-less product routine, a separate code
    path.  A prefix whose support dies before N/2 is reported through the
    exact relation S^2 + P*S = 0 with P the polynomial itself, flagged
    "polynomial-input"."""
    n = len(seq) if truncation is None else truncation
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

    basis = {}
    col_id = 0
    combos = {}
    for i in range(degree_bound + 1):
        for j in range(height_bound + 1):
            vec = (powers[i] << j) & window
            combo = 1 << col_id
            combos[col_id] = (i, j)
            col_id += 1
            while vec:
                low = vec & -vec
                if low not in basis:
                    basis[low] = (vec, combo)
                    break
                bvec, bcombo = basis[low]
                vec ^= bvec
                combo ^= bcombo
            if not vec:
                coeffs = [0] * (degree_bound + 1)
                for cid, (ci, cj) in combos.items():
                    if (combo >> cid) & 1:
                        coeffs[ci] |= 1 << cj
                return _certify(Relation(tuple(coeffs), n, "generic"), seq)
    return None


def _certify(rel: Relation, seq) -> Relation:
    if not verify_relation(rel, seq):
        raise ArithmeticError("solver produced a relation that fails independent verification")
    return Relation(rel.coeffs, rel.truncation, rel.kind, verified=True)


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
