"""Finite automata with output for the coefficient sequences of Q_w with
rational w, plus periodicity detection and a GF(2)(X)-algebraicity probe.

Digits of k are fed LSB-first: the kernel recurrences split on the parity
of k, so the low bit must be consumed first.  A Dfao is two integer
arrays: states are numbered 0..n-1 in the order a breadth-first closure
from the initial state discovers them, an (n, 2) int32 table holds each
state's successor index per digit and an int8 vector its output.  A
state's label text, here "(family tag, shift-orbit position)", is
formatted from the closure's code columns on request; the
identically-zero state is materialized as an explicit absorbing "dead"
state.

Transition table (state family x digit, p = parity of the current orbit
element; the orbit element always advances by one shift), which _MOVES
holds as it stands:

    p=0:  f --0--> g    f --1--> dead    p=1:  f --0--> dead  f --1--> f
          g --0--> g    g --1--> h             g --0--> g     g --1--> f
          h --0--> dead h --1--> h             h --0--> g     h --1--> dead

Outputs: f-state 1 - p, g-state 1, h-state p, dead 0; every output equals
the state's sequence at argument 0, which is exactly the condition making
trailing zero digits harmless.

Numbering lemma.  From (tag, 0) the breadth-first search reaches orbit
position L at level L, and on its first pass through the orbit the
parities p_0, p_1, ... alone fix every level, in discovery order: before
the first g each level holds one family, f while the parities read are 1
and h while they are 0; g then enters alone; from then on level L is
exactly [g, h] when p_(L-1) = 0 and [g, f] when p_(L-1) = 1; and dead is
numbered while the first f or h state is stepped.

Proof.  By the table, a step at parity 0 enters only g and h, and one at
parity 1 only g and f.  An f or h state has dead as one successor and
one live one: f at parity 0 and h at parity 1 step to g, f at parity 1
and h at parity 0 keep their family.  So a level of one f or h state is
followed by one state of the same family, or by g alone.  A level whose
first state is g is followed by g, its digit-0 successor at either
parity, and then by its digit-1 successor, h after parity 0 and f after
parity 1; by the first sentence no other state of the level enters
anything else.

The search meets a numbered position again only past the last one,
where the orbit wraps into its cycle (or, cut at a depth, stays at the
last position).  So build_dfao numbers the first pass in closed form and
runs the closure from the last level on.

Product lemma.  A state of signed_dfao is (kernel state, prev digit, nu,
mb, class) and its search starts at ((f, 0), None, 0, 0, 0).  Every
state at level L lies at orbit position j_L and class c_L, and a live
one, past the first, has prev 0 in family g and 1 in families f and h.
So a level's states are one or two kernel families times the (nu, mb)
pairs, or dead states: each is fixed by L and its place, one of 12 live
places (family, nu, mb) and 8 dead ones (prev, nu, mb).  The places the
search numbers at level L + 1 are, in order, those its level-L states
step into that were not numbered before, and which those are depends
only on the places of level L in order, the parity at j_L, the class
difference at c_L and the places numbered before at (j_(L+1),
c_(L+1)): the live ones numbered at a level with both equal, the dead
ones at a level with the class equal.  From level max(preperiod of the
orbit, len(pre) + 1) on, (j_L, c_L) recurs with period lcm(cycle length,
len(period)), and before it no pair recurs.

Proof.  Position and class advance by one per digit whatever the digit,
so every path of length L from the start ends at j_L and c_L.  A digit b
sets prev to b, and by the table digit 0 enters only g and dead, and
digit 1 only f, h and dead.  A FIFO search steps the states of level L
in number order, digit 0 before digit 1, and numbers each successor it
has not met; it steps only the states it numbers, so level L + 1 holds
exactly the new successors of level L's new states, and it ends at the
first level with none.  A live state carries its position and a dead
one does not, which gives the two rules for "numbered before".  The
position is periodic from the orbit's preperiod with the cycle's
length, and the class from len(pre) + 1 with len(period); past both the
pair recurs exactly when L does modulo the lcm, and before them one
coordinate takes a value it never takes again.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from math import lcm
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

from .bits import EpsilonSpec
from .dyadic import Dyadic, fraction_form, numerator_orbit
from .jsontext import SLOT, document, encode, rows, separator, template
from .rings import flags_to_mask, gf2_mul


#: Longest shift orbit a whole automaton is built for: a kernel build, and
#: its --minimize, peak at about 0.26 GB per 10^6 numerators; a signed one
#: at about 0.33 GB for eps of period 2, more for longer periods.
ORBIT_CAP = 1 << 20


def _numerator_orbit(w: Dyadic, limit: int | None = None):
    """numerator_orbit of w, which must be rational."""
    if w.classify() == "unknown":
        raise ValueError("orbit requires rational 2-adic input")
    return numerator_orbit(w.num, w.den, limit)


def orbit(w: Dyadic):
    """(preperiod list, cycle list) of the distinct shifts T^j w."""
    nums, cut = _numerator_orbit(w)
    chain = [Dyadic(num=x, den=w.den) for x in nums]
    return chain[:cut], chain[cut:]


@dataclass(frozen=True, eq=False)
class Dfao:
    """Deterministic finite automaton with output, input digits LSB-first,
    held as two integer arrays over the states 0..n-1.

    step[i] = (next on 0, next on 1), a row of the (n, 2) int32 table, and
    out[i] in {-1, 0, +1}, an entry of the int8 vector, describe state i;
    state 0 is the initial one.  texts(idx) gives the label texts of the
    states idx, a slice or an index array, as a list of str; it is the one
    description of a state that the exports read.  meta() gives the
    metadata dict, formed anew on each call; only the JSON export calls
    it, so a machine that is listed or minimized formats neither.  Two
    machines are compared by their to_json() text: it holds the label
    texts, both tables and meta."""

    step: np.ndarray
    out: np.ndarray
    texts: Callable[[object], list]
    meta: Callable[[], dict] = dict

    def __len__(self):
        return len(self.out)

    def evaluate(self, k: int) -> int:
        """Value at k, one step per digit of k from the initial state."""
        if k < 0:
            raise ValueError("negative input")
        i, step = 0, self.step
        while k:
            i = step[i, k & 1]
            k >>= 1
        return int(self.out[i])

    def evaluate_all(self, bits: int, start=None) -> np.ndarray:
        """Outputs for every k < 2^bits at once, as an int8 array, feeding
        each k as exactly `bits` digits.  Zero padding never changes the
        result (the output map is stable under the 0-transition), so this
        matches evaluate().

        start is the initial state 0 by default; an array of start states
        gives one row of outputs per start, row i the sequence that state
        start[i] realizes.

        Each gather reads the next digits of every k for every start: one
        digit a gather for the bits % 8 low digits, then 8, through the
        (256, n) table of the state each state reaches after each byte.
        That table is built only when it is no larger than the output, so
        a large machine walked for few digits goes a digit at a time."""
        import numpy as np

        first = np.asarray(0 if start is None else start, dtype=np.int32)
        starts = first.size
        arr = first.reshape(1, starts)           # arr[k, i]: k read from start i
        table = np.ascontiguousarray(self.step.T)  # table[x, s]: x read from s
        whole = bits // 8 if len(self) << 8 <= starts << bits else 0
        for _ in range(bits - 8 * whole):
            arr = table.take(arr, axis=1).reshape(2 * len(arr), starts)
        if whole:
            for _ in range(3):  # 1 -> 2 -> 4 -> 8 digits: row x_lo + 2^d x_hi
                table = table.take(table, axis=1).reshape(-1, len(self))
            for _ in range(whole):
                arr = table.take(arr, axis=1).reshape(256 * len(arr), starts)
        return self.out.take(arr).T.reshape(first.shape + (1 << bits,))

    def to_dot(self) -> str:
        """The machine in Graphviz DOT, its states and transitions laid out
        by jsontext.rows; a label's quotes and backslashes are escaped."""
        ids = range(len(self))

        def texts(i, j):
            return [s.replace("\\", "\\\\").replace('"', '\\"') for s in self.texts(slice(i, j))]

        nodes = rows('  s%d [label="%s / %d"];', "\n", (ids, texts, self.out))
        edges = rows('  s%d -> s%d [label="0"];\n  s%d -> s%d [label="1"];', "\n",
                     (ids, self.step[:, 0], ids, self.step[:, 1]))
        return "\n".join([_DOT_HEAD, "".join(nodes), "".join(edges), "}"])

    def json_pieces(self):
        """The text print(self.to_json()) writes, a piece at a time as
        jsontext.document yields it: {"initial", "input", "meta", "states",
        "transitions"}, its states and transitions laid out by jsontext.rows;
        label texts are formed and go through json's C string encoder a
        chunk at a time."""

        def labels(i, j):
            return list(map(encode, self.texts(slice(i, j))))

        return document(
            {"initial": 0, "input": "lsb-first", "meta": self.meta()},
            {"states": rows(_STATE, separator(1), (range(len(self)), labels, self.out)),
             "transitions": rows(_PAIR, separator(1), self.step.T)})

    def to_json(self) -> str:
        """json.dumps(obj, sort_keys=True, indent=2) of the machine: the
        pieces of json_pieces joined, without the final newline."""
        return "".join(self.json_pieces())[:-1]


def _formatted(form: str, columns) -> list:
    """[form % row for row in zip(*columns)], formed by jsontext.rows; no
    row's text may hold a newline."""
    if not len(columns[0]):
        return []
    return "".join(rows(form, "\n", columns)).split("\n")


# to_dot's lines before the states
_DOT_HEAD = """digraph dfao {
  rankdir=LR;
  node [shape=circle, fontname="monospace"];
  __start [shape=none, label=""];
  __start -> s0;"""

# json_pieces' state and transition pair
_STATE = template({"id": SLOT, "label": SLOT, "output": SLOT}, 2)
_PAIR = template([SLOT, SLOT], 2)


DEAD = "dead"
_FAMILIES = "fgh"

# the transition table: family (f, g, h, dead = 0..3) -> parity ->
# (family on digit 0, family on digit 1)
_MOVES = [[[1, 3], [3, 0]], [[1, 2], [1, 0]], [[3, 2], [1, 3]], [[3, 3], [3, 3]]]

#: Orbits this long or longer have their first pass numbered in closed
#: form; below it the closure numbers them alone, which costs less than
#: numpy's set-up.
_CLOSED_FORM_FROM = 64


def build_dfao(w: Dyadic, tag: str = "f", depth: int | None = None) -> Dfao:
    """Automaton computing k -> kernel_value(w, k, tag): the states
    reachable from (tag, 0) under the transition table, numbered as a
    breadth-first closure discovers them.

    States are integer codes: (family, j) is fam * n + j, with fam the
    family's index in "fgh" and n the number of orbit positions, and the
    dead state is 3n.  Outputs and label texts are read off the codes.

    Without a depth the whole orbit is walked, and one longer than
    ORBIT_CAP numerators raises ValueError before any closure.  With a
    depth the walk stops after depth + 1 numerators, so the machine has at
    most 3(depth + 1) + 1 states.  If the orbit closes within them, the
    result is the full machine.  Otherwise it is exact only for k < 2^depth:
    its last position steps to itself, and meta records "depth" in place
    of "orbit_preperiod"."""
    if tag not in _FAMILIES:
        raise ValueError(f"unknown tag {tag!r}")
    if depth is not None and depth < 0:
        raise ValueError(f"negative depth {depth}")
    nums, loop = _whole_orbit(w) if depth is None else _numerator_orbit(w, depth + 1)
    n = len(nums)
    parities = [x & 1 for x in nums]
    wrap = n - 1 if loop is None else loop   # orbit position after the last
    dead = 3 * n

    # dead decodes to family 3 at position 0, which steps to dead
    def step(s):
        fam, j = divmod(s, n)
        a, b = _MOVES[fam][parities[j]]
        j = j + 1 if j + 1 < n else wrap
        return (dead if a == 3 else a * n + j, dead if b == 3 else b * n + j)

    import numpy as np

    p = np.array(parities, dtype=np.int8)
    fam = _FAMILIES.index(tag)
    root = fam * n
    if n < _CLOSED_FORM_FROM:
        codes, table = _close(step, [root], {root: 0})
    else:
        head, head_table, tail, index = _first_pass(fam, p, wrap)
        more, more_table = _close(step, tail, index)
        codes, table = np.concatenate([head, more]), np.concatenate([head_table, more_table])
    # output by code: f-states 1 - p, g-states 1, h-states p, dead 0
    outputs = np.concatenate([1 - p, np.ones(n, np.int8), p, np.zeros(1, np.int8)])

    def texts(idx):
        return _kernel_texts("(%s, %d)", *np.divmod(codes[idx], n))

    def meta():
        cut = {"depth": depth} if loop is None else {"orbit_preperiod": loop}
        return {"omega": w.describe(), "tag": tag, "orbit": _orbit_texts(w, nums), **cut}

    return Dfao(table, outputs[codes], texts, meta)


def _whole_orbit(w: Dyadic):
    """_numerator_orbit(w) for a whole automaton: ValueError past
    ORBIT_CAP numerators, found by walking at most that many."""
    nums, loop = _numerator_orbit(w, ORBIT_CAP)
    if loop is None:
        raise ValueError(f"the shift orbit of {w.describe()} has more than {ORBIT_CAP} "
                         "numerators, the cap of a whole automaton")
    return nums, loop


def _orbit_texts(w: Dyadic, nums) -> list:
    """The texts of the orbit elements nums[j]/w.den, as Dyadic.describe
    gives them."""
    return _formatted(fraction_form(w.den), (nums,))


def _first_pass(fam: int, p, wrap: int):
    """The closure's first pass through the orbit, numbered by the lemma of
    the module docstring: (head, rows, tail, index).  head holds the codes
    numbered before the first state at the last position n - 1 and rows
    their table; tail lists the codes numbered from there on, which the
    closure steps next; index numbers the tail and every numbered state
    the closure can reach from it.

    That closure steps the tail into position wrap, and it numbers new
    states only where the first pass lacks a family: at wrap itself, or
    up to the level where g entered, since past both every level holds
    every family a step can enter there.  So it looks up positions wrap to
    max(wrap, that level) + 1 only, and dead."""
    import numpy as np

    n = len(p)
    dead = 3 * n
    if fam == 1:
        lg = 0
    else:  # f leaves for g on parity 0, h on parity 1
        hits = np.flatnonzero(p[:n - 1] == fam // 2)
        lg = int(hits[0]) + 1 if hits.size else n
    # level by level: one state up to lg, then the pairs [g, h] or [g, f]
    # after parity 0 or 1
    j = np.arange(n)
    pairs = max(n - 1 - lg, 0)
    live = np.empty(min(lg, n - 1) + 1 + 2 * pairs, np.int64)
    live[:lg] = fam * n + j[:lg]
    live[lg:lg + 1] = n + lg
    live[lg + 1::2] = n + j[lg + 1:]
    live[lg + 2::2] = 2 * n * (p[lg:n - 1] == 0) + j[lg + 1:]
    before = len(live) - (2 if pairs else 1)  # live states before position n - 1
    # dead is found stepping the first f or h state.  For tag f or h that
    # is state 0: dead is its digit-0 successor (number 1) unless state 0
    # steps to g (then number 2).  For tag g it is state 2, the second of
    # level 1, stepped after g's two successors (numbers 3 and 4).
    if n >= (3 if fam == 1 else 2):
        at = 5 if fam == 1 else (2 if lg == 1 else 1)
        codes = np.concatenate([live[:at], [dead], live[at:]])
        before += at <= before
    else:
        codes = live
    number = np.full(dead + 1, -1, np.int32)
    number[codes] = np.arange(len(codes), dtype=np.int32)
    # successors of the head: family by (family, parity), position + 1
    fams, pos = np.divmod(codes[:before], n)
    to = np.array(_MOVES, np.int64).reshape(8, 2).take(2 * fams + p[pos], axis=0)
    rows = number[np.where(to == 3, dead, to * n + pos[:, None] + 1)]
    top = min(n - 1, max(wrap, lg) + 1)
    near = np.concatenate([codes[before:], [dead],
                           (n * np.arange(3)[:, None] + np.arange(wrap, top + 1)).ravel()])
    near = near[number[near] >= 0]
    index = dict(zip(near.tolist(), number[near].tolist()))
    return codes[:before], rows, codes[before:].tolist(), index


def _kernel_texts(form: str, fams, pos) -> list:
    """The label texts of the kernel states of families fams (3 for dead)
    at orbit positions pos, two int arrays: DEAD, or form over the family
    letter and the position."""
    import numpy as np

    texts = _formatted(form, (np.array(list(_FAMILIES + "-"), dtype=object)[fams], pos))
    for i in np.flatnonzero(fams == 3).tolist():
        texts[i] = DEAD
    return texts


def _close(step, states, index):
    """Continues a closure under step(state) = (next on 0, next on 1),
    numbering each state when it is first discovered: the order in which a
    FIFO search visits them.  index numbers every state the search can
    meet that is numbered already, and states lists the ones not yet
    stepped, in number order from index[states[0]]; the search appends to
    it.  Returns (states as an int64 array, their (len(states), 2) int32
    index table of (next on 0, next on 1))."""
    import numpy as np

    first = index[states[0]]
    table = []
    # map sees the states appended while it runs
    for t0, t1 in map(step, states):
        i0 = index.get(t0)
        if i0 is None:
            i0 = index[t0] = first + len(states)
            states.append(t0)
        i1 = index.get(t1)
        if i1 is None:
            i1 = index[t1] = first + len(states)
            states.append(t1)
        table += i0, i1
    return np.array(states, dtype=np.int64), np.array(table, dtype=np.int32).reshape(-1, 2)


# A signed state's place in its level, numbered 0..20: (family, prev digit,
# nu, mb).  Live (family, nu, mb) is place 4 * family + 2 * nu + mb, its
# prev the digit that enters the family; dead (prev, nu, mb) is place 12 +
# 4 * prev + 2 * nu + mb; the initial state, f with no digit read, is 20.
_PLACES = ([(fam, int(fam != 1), nu, mb) for fam in range(3) for nu in (0, 1) for mb in (0, 1)]
           + [(3, prev, nu, mb) for prev in (0, 1) for nu in (0, 1) for mb in (0, 1)]
           + [(0, None, 0, 0)])
_ROOT = 20
_LIVE = (1 << 12) - 1   # the bits of the live places


def _signed_move(fam, prev, nu, mb, p, d, b):
    """The place entered on digit b from a place at parity p and class
    difference d: the family by _MOVES, prev becomes b, nu flips on a
    10-block and mb on a 1 where d is 1."""
    return _PLACES.index((_MOVES[fam][p][b], b, nu ^ (b & (prev == 0)), mb ^ (b & d)))


# byte 2 * (4 * place + read) + b, read = 2 * parity + class difference: the
# place entered on digit b
_SIGNED_MOVES = bytes(_signed_move(*pl, p, d, b)
                      for pl in _PLACES for p in (0, 1) for d in (0, 1) for b in (0, 1))
# entry 2 * place + parity: the output, the kernel family's times (-1)^(nu + mb)
_SIGNED_OUT = [(1 - p, 1, p, 0)[fam] * (-1) ** (nu ^ mb) for fam, _, nu, mb in _PLACES
               for p in (0, 1)]

#: States keyed per numpy call when signed_dfao lays out its table
_CHUNK = 1 << 16


def signed_dfao(w: Dyadic, eps: EpsilonSpec) -> Dfao:
    """Automaton for the signed coefficient k -> sign(k, eps) * f_w(k),
    with exponent convention mu(k) = k (the Mersenne case).

    Product of three machines: the f-kernel automaton build_dfao(w, "f"),
    whose label text leads the product's; a 10-block parity tracker
    (previous digit plus running parity, counting a block when the current
    digit is 1 and the previous was 0); and the position automaton for the
    digitwise sign differences of eps, which accumulates d_q = eps_q -
    eps_{q-1} mod 2 at every 1 digit of k.  A state is the tuple (kernel
    state, prev digit, nu, mb, class), and the states are numbered as a
    breadth-first closure from ((f, 0), None, 0, 0, 0) discovers them.

    The numbering goes a level at a time, by the product lemma of the
    module docstring: _signed_levels finds the places of each level, and
    the outputs and the int32 table are laid out from them in numpy.  A
    state is held as its level and its place, from which its label text
    is formatted on request."""
    import numpy as np

    nums, wrap = _whole_orbit(w)
    n, p_len, r_len = len(nums), len(eps.pre), len(eps.period)
    n_cls = p_len + 1 + r_len
    # from level `since` on, a level's (position, class) recurs every `span`
    # levels, and before it none recurs
    since, span = max(wrap, p_len + 1), lcm(n - wrap, r_len)
    slots = since + span
    parity = [x & 1 for x in nums]
    # class c holds position c: eps_q - eps_(q-1) is the same at every q in it
    diff = [eps.value(c) ^ eps.value(c - 1) for c in range(n_cls)]
    levels, places = _signed_levels(parity, diff, wrap, p_len, slots, since)

    # each level's orbit position, class, slot and read, one more for the
    # level the last one steps into
    at = np.arange(len(levels) + 1)
    pos = np.where(at < n, at, wrap + (at - wrap) % (n - wrap))
    cls = np.where(at <= p_len, at, p_len + 1 + (at - p_len - 1) % r_len)
    slot = np.where(at < slots, at, since + (at - since) % span)
    p = np.array(parity, np.int8)[pos]
    read = 2 * p + np.array(diff, np.int8)[cls]

    # grid[kind]: the places of a kind of level, padded by place 21; row
    # 4 * kind + read of moves and outs: where each steps on digits 0 and 1,
    # and its output
    sizes = np.array(list(map(len, places)))
    width = int(sizes.max())
    padded = b"".join([row.ljust(width, b"\x15") for row in places])
    grid = np.frombuffer(padded, np.int8).reshape(-1, width)
    cells = (4 * grid[:, None, :] + np.arange(4, dtype=np.int8)[:, None]).reshape(-1, width)
    moves = np.frombuffer(_SIGNED_MOVES + bytes(8), np.int8).reshape(-1, 2)[cells]
    outs = np.array(_SIGNED_OUT + [0, 0], np.int8).repeat(2)[cells]

    # the states in number order: level by level, each level's places in order
    kinds = np.array(levels)
    count = sizes[kinds]
    level = np.repeat(np.arange(len(levels), dtype=np.int32), count)
    kept = np.arange(width) < count[:, None]
    rows = 4 * kinds + read[:-1]
    place, out = grid[kinds][kept], outs[rows][kept]
    to = [moves[rows, :, b][kept] for b in (0, 1)]
    del kinds, count, kept, rows

    # a state's number by key: 12 * slot + place for a live state, after
    # those 12 * slots + 8 * class + place - 12 for a dead one.  The
    # initial state, whose class no other level has, is never looked up.
    live, dead = 12 * slot, 12 * slots + 8 * cls - 12

    def keys(i, j, places, ahead):
        # the keys of places at the levels of states i..j-1, plus ahead
        at = level[i:j] + ahead
        return np.where(places < 12, live[at], dead[at]) + places

    number = np.zeros(12 * slots + 8 * n_cls, np.int32)
    for i in range(1, len(place), _CHUNK):
        j = min(i + _CHUNK, len(place))
        number[keys(i, j, place[i:j], 0)] = np.arange(i, j, dtype=np.int32)
    table = np.empty((len(place), 2), np.int32)
    for i in range(0, len(place), _CHUNK):
        j = min(i + _CHUNK, len(place))
        for b in (0, 1):
            table[i:j, b] = number[keys(i, j, to[b][i:j], 1)]
    del number, to

    def texts(idx):
        # the text of the tuple (kernel label, prev, nu, mb, class), the
        # kernel label a (letter, position) tuple or DEAD
        fams = np.array([fam for fam, *_ in _PLACES])
        prevs, nus, mbs = np.array([tracker for _, *tracker in _PLACES], dtype=object).T
        lv, s = level[idx], place[idx]
        kernel = _kernel_texts("('%s', %d)", fams[s], pos[lv])
        return _formatted("(%s, %s, %s, %s, %s)", (kernel, prevs[s], nus[s], mbs[s], cls[lv]))

    def meta():
        return {"omega": w.describe(), "tag": "signed-f", "eps": eps.describe(),
                "orbit": _orbit_texts(w, nums)}

    return Dfao(table, out, texts, meta)


def _signed_levels(parity, diff, wrap, p_len, slots, since):
    """(levels, places) of signed_dfao's breadth-first closure: levels[L]
    indexes places, whose entry holds the places of the states the closure
    numbers at level L as bytes, in number order; the closure ends at the
    first level with none.

    Level L reads orbit position j_L and class c_L.  Its slot is L below
    slots, then since + (L - since) mod (slots - since), so two levels
    share a slot when they share (j_L, c_L).  The places of the next level
    follow from this level's, the parity at j_L, the class difference at
    c_L and the places numbered already where the next level lies: live
    ones at its slot, dead ones at its class.  Each distinct step is made
    once by _next_places and looked up after."""
    places = [b"", bytes([_ROOT])]
    known, steps = {row: kind for kind, row in enumerate(places)}, {}
    seen = [0] * slots          # live places numbered at a slot, as bits
    dead = [0] * len(diff)      # dead places numbered at a class, as bits
    levels = [1]
    kind, j, c, at = 1, 0, 0, 0
    n, n_cls = len(parity), len(diff)
    while True:
        j1 = j + 1 if j + 1 < n else wrap
        c1 = c + 1 if c + 1 < n_cls else p_len + 1
        at1 = at + 1 if at + 1 < slots else since
        read, taken = 2 * parity[j] + diff[c], seen[at1] | dead[c1]
        args = (kind, read, taken)
        hit = steps.get(args)
        if hit is None:
            new, now = _next_places(places[kind], read, taken)
            if new not in known:
                known[new] = len(places)
                places.append(new)
            hit = steps[args] = known[new], (now ^ taken) & _LIVE, (now ^ taken) & ~_LIVE
        kind, live, gone = hit
        if not kind:
            return levels, places
        seen[at1] |= live
        dead[c1] |= gone
        levels.append(kind)
        j, c, at = j1, c1, at1


def _next_places(row: bytes, read: int, taken: int):
    """(places, taken): the places of the next level, numbered as the
    places of row step at read, in order and digit 0 before 1, skipping
    those with a bit set in taken; and taken with their bits set too."""
    new = []
    for s in row:
        k = 8 * s + 2 * read
        for t in _SIGNED_MOVES[k:k + 2]:
            if not taken >> t & 1:
                taken |= 1 << t
                new.append(t)
    return bytes(new), taken


def minimize(d: Dfao) -> Dfao:
    """Moore-style partition refinement; the quotient states are renamed
    m0, m1, ... in order of their first member, so the initial state stays
    0, and meta()["merged"] maps each name to the label texts of its
    members, formed when meta is called.

    Each round ranks every state's key (block, block on 0, block on 1) in
    two stages, the pair and then the triple, with np.unique; every rank is
    below n, so no key reaches n^2.  Rounds stop when the block count stops
    growing."""
    import numpy as np

    t0, t1 = d.step.T
    keys, block = np.unique(d.out, return_inverse=True)
    count = len(keys)
    while True:
        _, pair = np.unique(block * count + block[t0], return_inverse=True)
        keys, block = np.unique(pair * count + block[t1], return_inverse=True)
        if len(keys) == count:
            break
        count = len(keys)
    # number the blocks by their first member
    first = np.sort(np.unique(block, return_index=True)[1])
    block = np.argsort(block[first]).astype(np.int32)[block]

    def texts(idx):
        return _formatted("m%d", (np.arange(count)[idx],))

    # meta holds d's texts and meta, not its table
    members_of, meta_of = d.texts, d.meta

    def meta():
        ordered = members_of(np.argsort(block, kind="stable"))
        ends = np.cumsum(np.bincount(block, minlength=count)).tolist()
        # a list of str per block, none in a cycle: at 10^6 blocks the
        # cyclic collector's passes over the new lists cost five times their
        # making
        collecting = gc.isenabled()
        gc.disable()
        try:
            members = [ordered[a:b] for a, b in zip([0] + ends[:-1], ends)]
        finally:
            if collecting:
                gc.enable()
        return {**meta_of(), "merged": dict(zip(texts(slice(None)), members))}

    return Dfao(block[d.step[first]], d.out[first], texts, meta)


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
