"""Finite automata with output for the coefficient sequences of Q_w with
rational w, plus periodicity detection and a GF(2)(X)-algebraicity probe.

Digits of k are fed LSB-first: the kernel recurrences split on the parity
of k, so the low bit must be consumed first.  States are labeled by a
(family tag, shift-orbit element) pair; the identically-zero state is
materialized as an explicit absorbing "dead" state so the twelve table
entries below stay visible in code.

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
from .rings import gf2_mul

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


class OrbitError(TypeError):
    """Shift-orbit enumeration needs a rational 2-adic integer."""


def orbit(w: Dyadic):
    """(preperiod list, cycle list) of the distinct shifts T^j w.

    Rational w guarantees termination: numerators over the fixed odd
    denominator stay bounded."""
    if not w.is_rational():
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
    """Deterministic finite automaton with output, input digits LSB-first.

    states are hashable labels; delta maps (state, bit) -> state; out maps
    state -> value in {-1, 0, +1}.  Indexed arrays are precompiled for the
    evaluation loop."""

    states: tuple
    initial: object
    delta: dict
    out: dict
    meta: dict = field(default_factory=dict)
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _step: tuple = field(default=(), repr=False, compare=False)
    _outv: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        idx = {s: i for i, s in enumerate(self.states)}
        step = []
        outv = []
        for s in self.states:
            step.append((idx[self.delta[(s, 0)]], idx[self.delta[(s, 1)]]))
            outv.append(self.out[s])
        object.__setattr__(self, "_index", idx)
        object.__setattr__(self, "_step", tuple(step))
        object.__setattr__(self, "_outv", tuple(outv))

    def __len__(self):
        return len(self.states)

    def evaluate(self, k: int) -> int:
        return self.evaluate_from(self.initial, k)

    def evaluate_from(self, state, k: int) -> int:
        """Value at k of the sequence realized by `state`."""
        if k < 0:
            raise ValueError("negative input")
        i = self._index[state]
        step = self._step
        while k:
            i = step[i][k & 1]
            k >>= 1
        return self._outv[i]

    def realized(self, state, length: int) -> tuple:
        return tuple(self.evaluate_from(state, k) for k in range(length))

    def evaluate_all(self, bits: int) -> np.ndarray:
        """Outputs for every k < 2^bits at once, feeding each k as exactly
        `bits` digits.  Zero padding never changes the result (the output
        map is stable under the 0-transition), so this matches evaluate().
        One state-array doubling per digit position."""
        import numpy as np

        d0 = np.array([t[0] for t in self._step], dtype=np.int32)
        d1 = np.array([t[1] for t in self._step], dtype=np.int32)
        arr = np.array([self._index[self.initial]], dtype=np.int32)
        for _ in range(bits):
            arr = np.concatenate([d0[arr], d1[arr]])
        return np.array(self._outv, dtype=np.int32)[arr]

    def to_dot(self) -> str:
        idx = self._index
        lines = [
            "digraph dfao {",
            "  rankdir=LR;",
            '  node [shape=circle, fontname="monospace"];',
            '  __start [shape=none, label=""];',
            f"  __start -> s{idx[self.initial]};",
        ]
        for s in self.states:
            label = f"{_label_str(s)} / {self.out[s]}"
            lines.append(f'  s{idx[s]} [label="{label}"];')
        for s in self.states:
            for b in (0, 1):
                lines.append(f'  s{idx[s]} -> s{idx[self.delta[(s, b)]]} [label="{b}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        idx = self._index
        obj = {
            "input": "lsb-first",
            "states": [
                {"id": i, "label": _label_str(s), "output": self.out[s]}
                for i, s in enumerate(self.states)
            ],
            "initial": idx[self.initial],
            "transitions": [
                [idx[self.delta[(s, 0)]], idx[self.delta[(s, 1)]]] for s in self.states
            ],
            "meta": {k: v for k, v in self.meta.items()},
        }
        return json.dumps(obj, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Dfao":
        obj = json.loads(text)
        if obj.get("input") != "lsb-first":
            raise ValueError("unknown input convention")
        labels = [st["label"] for st in obj["states"]]
        out = {labels[st["id"]]: st["output"] for st in obj["states"]}
        delta = {}
        for i, (t0, t1) in enumerate(obj["transitions"]):
            delta[(labels[i], 0)] = labels[t0]
            delta[(labels[i], 1)] = labels[t1]
        return cls(
            states=tuple(labels),
            initial=labels[obj["initial"]],
            delta=delta,
            out=out,
            meta=obj.get("meta", {}),
        )


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

    initial = (tag, 0)
    states, delta = _close([initial], step)
    out = {s: output(s) for s in states}
    meta = {
        "omega": w.describe(),
        "tag": tag,
        "orbit": [e.describe() for e in elems],
        "orbit_preperiod": len(pre),
    }
    return Dfao(states=tuple(states), initial=initial, delta=delta, out=out, meta=meta)


def _close(roots, step):
    """BFS closure; returns (ordered states, delta dict)."""
    order = []
    seen = set()
    queue = list(roots)
    delta = {}
    while queue:
        s = queue.pop(0)
        if s in seen:
            continue
        seen.add(s)
        order.append(s)
        for b in (0, 1):
            t = step(s, b)
            delta[(s, b)] = t
            if t not in seen:
                queue.append(t)
    return order, delta


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

    def step(state, b):
        k, prev, nu, mb, c = state
        nu2 = nu ^ (1 if (b == 1 and prev == 0) else 0)
        mb2 = mb ^ (cls_diff(c) if b else 0)
        return (ker.delta[(k, b)], b, nu2, mb2, cls_next(c))

    def output(state):
        k, prev, nu, mb, c = state
        if ker.out[k] == 0:
            return 0
        return -1 if (nu ^ mb) & 1 else 1

    initial = (ker.initial, None, 0, 0, 0)
    states, delta = _close([initial], step)
    out = {s: output(s) for s in states}
    meta = {
        "omega": w.describe(),
        "tag": "signed-f",
        "eps": eps.describe(),
        "orbit": ker.meta["orbit"],
    }
    return Dfao(states=tuple(states), initial=initial, delta=delta, out=out, meta=meta)


def minimize(d: Dfao) -> Dfao:
    """Moore-style partition refinement; labels of merged states are kept
    in the metadata, the quotient states are renamed m0, m1, ..."""
    block = {s: d.out[s] for s in d.states}
    while True:
        sig = {
            s: (block[s], block[d.delta[(s, 0)]], block[d.delta[(s, 1)]])
            for s in d.states
        }
        renum = {}
        for s in d.states:
            renum.setdefault(sig[s], len(renum))
        new_block = {s: renum[sig[s]] for s in d.states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    n_blocks = len(set(block.values()))
    labels = [f"m{i}" for i in range(n_blocks)]
    members = {i: [] for i in range(n_blocks)}
    for s in d.states:
        members[block[s]].append(_label_str(s))
    delta = {}
    out = {}
    for s in d.states:
        b = block[s]
        delta[(labels[b], 0)] = labels[block[d.delta[(s, 0)]]]
        delta[(labels[b], 1)] = labels[block[d.delta[(s, 1)]]]
        out[labels[b]] = d.out[s]
    meta = dict(d.meta)
    meta["merged"] = {labels[i]: members[i] for i in range(n_blocks)}
    return Dfao(
        states=tuple(labels),
        initial=labels[block[d.initial]],
        delta=delta,
        out=out,
        meta=meta,
    )


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


def _seq_mask(seq, n: int) -> int:
    mask = 0
    for k in range(n):
        if seq[k] & 1:
            mask |= 1 << k
    return mask


def find_algebraic_relation(seq, degree_bound: int, height_bound: int, truncation: int | None = None):
    """Search for c_0..c_D over GF2[X], deg c_i <= height bound, with
    sum of c_i * S^(2^i) = 0 modulo X^N, where S has the given 0/1
    coefficient prefix.  Returns a verified Relation or None.

    Candidate columns X^j * S^(2^i) are built by bit-spreading the prefix;
    the returned relation is re-verified through the carry-less product
    routine, a separate code path.  A prefix whose support dies before N/2
    is reported through the exact relation S^2 + P*S = 0 with P the
    polynomial itself, flagged "polynomial-input"."""
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
    s_mask = _seq_mask(seq, n)
    window = (1 << n) - 1

    if s_mask.bit_length() <= n // 2:
        coeffs = [0] * (degree_bound + 1)
        coeffs[0] = s_mask
        coeffs[1] = 1
        return _certify(Relation(tuple(coeffs), n, "polynomial-input"), seq)

    # S^(2^i) mod X^n by digit spreading
    powers = []
    for i in range(degree_bound + 1):
        spread = 0
        stride = 1 << i
        for k in range(0, (n - 1) // stride + 1):
            if (s_mask >> k) & 1:
                spread |= 1 << (k * stride)
        powers.append(spread & window)

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
    window = (1 << n) - 1
    s_mask = _seq_mask(seq, n)
    total = 0
    power = s_mask
    for i, c in enumerate(rel.coeffs):
        if i > 0:
            power = gf2_mul(power, power) & window
        if c:
            total ^= gf2_mul(c, power) & window
    return not (total & window)
