"""Turing machine reduction to constrained word problems.

A machine configuration of fixed width p is a row of cells, exactly one of
which carries the head (token "symbol:state"). A run c0, c1, ..., cT is
encoded as the word

    c1' # c2' # ... # cT' $ 0^k $ 0

where each cell symbol is followed by a k-digit block, initially all zeros.
The compiled automaton's states implement, per sequence item:

* a check-marking state that increments (least significant digit first)
  every block of a segment up to and including the first all-zero one, so
  that after j passes block i encodes max(0, j - i);
* checker states that locate the first unmarked cell of each segment,
  verify its symbol evolves by the local transition map tau from the window
  remembered out of the previous segment, and carry the new window across
  the segment boundary (the missing neighbours at the borders are blanks),
  built as blocks of whole rows indexed by arithmetic on (window, l1, l2);
* a shape checker for the virgin input form (q_c) and an all-marked checker
  (q_l) used by the inverse-semigroup instance;
* a final-state prober e that toggles the single trailing digit exactly
  when some final-state head token occurred and the counter block between
  the two $ signs is all zeros;
* in the group variant, a failure counter f that increments that counter
  block once per routed checker mismatch, plus an identity-preferring sink
  completion making every state a permutation.

The instance compares a sequence containing e against the same sequence
without it; outputs can then differ only in the trailing digit, and they do
exactly when the word encodes an accepting computation (group variant:
within the constraint language of well-shaped words).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .errors import AutomatonError, LeftEdgeViolated, NotGAutomaton, SpaceBoundViolated
from .mealy import (
    Acceptor,
    MealyAutomaton,
    Word,
    _check_token,
    _Table,
    minimize,
)
from .wordproblem import WordProblemInstance

MOVES = ("L", "N", "R")
_RESERVED_LETTERS = ("0", "1", "#", "$")

CHECK_MARK_STATE = "mark"
FORM_ENTRY = "form0"
FULL_ENTRY = "full0"
PROBE_ENTRY = "probe0"
FAIL_ENTRY = "bump0"
SINK_STATE = "sink"


def head_token(symbol: str, state: str) -> str:
    """The combined cell token for a head over `symbol` in `state`."""
    return f"{symbol}:{state}"


def split_head(token: str) -> tuple[str, str] | None:
    """Inverse of head_token; None for a plain tape symbol."""
    if ":" not in token:
        return None
    symbol, state = token.split(":", 1)
    return symbol, state


@dataclass(frozen=True)
class TuringMachineSpec:
    """A single-tape machine that never halts: missing rules are completed
    to stay-put self-loops on construction. Acceptance is entering a state
    in finals at some step t >= 1; the machine keeps running afterwards."""

    name: str
    tape_alphabet: frozenset[str]
    blank: str
    states: frozenset[str]
    initial: str
    finals: frozenset[str]
    rules: Mapping[tuple[str, str], tuple[str, str, str]]

    def __init__(
        self,
        name: str,
        tape_alphabet: Iterable[str],
        blank: str,
        states: Iterable[str],
        initial: str,
        finals: Iterable[str],
        rules: Mapping[tuple[str, str], tuple[str, str, str]],
    ):
        _check_token(name, "state name")
        tape_alphabet, states = tuple(tape_alphabet), tuple(states)
        for g in tape_alphabet:  # in the order given, so the error repeats
            _check_token(g, "tape symbol")
            if ":" in g or "|" in g:
                raise AutomatonError(f"tape symbol may not contain ':' or '|': {g!r}")
            if g in _RESERVED_LETTERS:
                raise AutomatonError(f"tape symbol {g!r} collides with a reserved letter")
            if g.startswith("~"):
                raise AutomatonError(f"tape symbol may not begin with '~': {g!r}")
        for z in states:
            _check_token(z, "machine state")
            if ":" in z or "|" in z:
                raise AutomatonError(f"machine state may not contain ':' or '|': {z!r}")
        tape_alphabet, states, finals = map(frozenset, (tape_alphabet, states, finals))
        if blank not in tape_alphabet:
            raise AutomatonError(f"blank {blank!r} must be in the tape alphabet")
        if initial not in states:
            raise AutomatonError(f"initial state {initial!r} not declared")
        if not finals <= states:
            raise AutomatonError("final states must be declared states")
        total = dict(rules)
        for (z, g), (g2, z2, move) in total.items():
            if z not in states or g not in tape_alphabet:
                raise AutomatonError(f"rule key ({z!r}, {g!r}) uses undeclared tokens")
            if z2 not in states or g2 not in tape_alphabet:
                raise AutomatonError(f"rule value for ({z!r}, {g!r}) uses undeclared tokens")
            if move not in MOVES:
                raise AutomatonError(f"move must be one of {MOVES}, got {move!r}")
        for z in states:
            for g in tape_alphabet:
                total.setdefault((z, g), (g, z, "N"))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "tape_alphabet", tape_alphabet)
        object.__setattr__(self, "blank", blank)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "finals", finals)
        object.__setattr__(self, "rules", total)


def delta_alphabet(tm: TuringMachineSpec) -> tuple[str, ...]:
    """Plain tape symbols followed by all head tokens, sorted within each
    group (deterministic order for reproducible builds)."""
    plain = sorted(tm.tape_alphabet)
    heads = [head_token(g, z) for g in plain for z in sorted(tm.states)]
    return tuple(plain) + tuple(heads)


def sigma_alphabet(tm: TuringMachineSpec) -> tuple[str, ...]:
    return delta_alphabet(tm) + _RESERVED_LETTERS


@dataclass(frozen=True)
class TmReductionParams:
    """Width and variant of one reduction instance.

    k is the digit-block length, computed as ceil(log2(p_val + 1)) so that
    the count p_val (the number of check-marking passes the first block
    receives) is representable."""

    p_val: int
    input_word: Word = ()
    group_variant: bool = False
    k: int = field(init=False)

    def __post_init__(self):
        if self.p_val < 1:
            raise AutomatonError("p_val must be >= 1")
        if len(self.input_word) > self.p_val:
            raise AutomatonError("input word longer than the space bound p_val")
        object.__setattr__(self, "input_word", tuple(self.input_word))
        object.__setattr__(self, "k", self.p_val.bit_length())


def _validate_input_word(tm: TuringMachineSpec, params: TmReductionParams) -> None:
    for tok in params.input_word:
        if tok not in tm.tape_alphabet or tok == tm.blank:
            raise AutomatonError(
                f"input token {tok!r} must be a non-blank tape symbol of {tm.name}"
            )


def derive_tau(tm: TuringMachineSpec) -> dict[tuple[str, str, str], str]:
    """The middle cell of a window after one step, as a function of the
    window alone: a head on the middle rewrites (and stays only on N), a
    head on the left arrives exactly on R, a head on the right arrives
    exactly on L, and otherwise the middle is untouched. Defined exactly on
    the windows with at most one head token."""
    delta = delta_alphabet(tm)
    table: dict[tuple[str, str, str], str] = {}
    for window in itertools.product(delta, repeat=3):
        heads = [(j, split_head(t)) for j, t in enumerate(window) if ":" in t]
        if len(heads) > 1:
            continue
        x, y, z = window
        if not heads:
            table[window] = y
            continue
        j, (symbol, state) = heads[0]
        write, nxt, move = tm.rules[(state, symbol)]
        if j == 1:
            table[window] = head_token(write, nxt) if move == "N" else write
        elif j == 0:
            table[window] = head_token(y, nxt) if move == "R" else y
        else:
            table[window] = head_token(y, nxt) if move == "L" else y
    return table


# ---------------------------------------------------------------------------
# simulation oracle


def initial_configuration(
    tm: TuringMachineSpec, params: TmReductionParams
) -> tuple[str, ...]:
    """Width-p_val row: the head sits on cell 0 over the first input symbol
    (or the blank for the empty input)."""
    w = params.input_word
    first = w[0] if w else tm.blank
    cells = [head_token(first, tm.initial)]
    cells.extend(w[1:])
    cells.extend([tm.blank] * (params.p_val - len(cells)))
    return tuple(cells)


@dataclass(frozen=True)
class SimulationResult:
    """trace[t] is the configuration after t steps; accepts_within counts from step 1."""

    accepts_within: int | None
    trace: tuple[tuple[str, ...], ...]


def _head_position(cfg: tuple[str, ...]) -> int:
    for i, tok in enumerate(cfg):
        if ":" in tok:
            return i
    raise AssertionError("configuration lost its head")


def _step(tm: TuringMachineSpec, cfg: tuple[str, ...]) -> tuple[str, ...]:
    i = _head_position(cfg)
    symbol, state = split_head(cfg[i])
    write, nxt, move = tm.rules[(state, symbol)]
    new = list(cfg)
    if move == "N":
        new[i] = head_token(write, nxt)
    elif move == "R":
        if i + 1 >= len(cfg):
            raise SpaceBoundViolated(
                f"{tm.name} needs more than {len(cfg)} cells"
            )
        new[i] = write
        new[i + 1] = head_token(new[i + 1], nxt)
    else:
        if i == 0:
            raise LeftEdgeViolated(f"{tm.name} moved left of the first cell")
        new[i] = write
        new[i - 1] = head_token(new[i - 1], nxt)
    return tuple(new)


def simulate_tm(
    tm: TuringMachineSpec, params: TmReductionParams, max_steps: int
) -> SimulationResult:
    """Direct configuration-by-configuration run for max_steps steps.
    accepts_within is the first trace index t >= 1 whose configuration
    carries a final-state head, if any: a final initial state alone is no
    acceptance, as encode_computation's words start at c1."""
    _validate_input_word(tm, params)
    cfg = initial_configuration(tm, params)
    trace = [cfg]
    for _ in range(max_steps):
        cfg = _step(tm, cfg)
        trace.append(cfg)
    finals = (t for t, c in enumerate(trace) if split_head(c[_head_position(c)])[1] in tm.finals)
    return SimulationResult(next((t for t in finals if t), None), tuple(trace))


def encode_computation(
    tm: TuringMachineSpec, params: TmReductionParams, T: int
) -> Word:
    """The canonical word for the first T steps: each configuration cell is
    followed by an all-zero k-block, configurations are separated by #, and
    the suffix is $ 0^k $ 0."""
    if T < 1:
        raise AutomatonError("need at least one computation step")
    sim = simulate_tm(tm, params, T)
    k = params.k
    parts: list[str] = []
    for t in range(1, T + 1):
        if t > 1:
            parts.append("#")
        for tok in sim.trace[t]:
            parts.append(tok)
            parts.extend(["0"] * k)
    parts.append("$")
    parts.extend(["0"] * k)
    parts.append("$")
    parts.append("0")
    return tuple(parts)


# ---------------------------------------------------------------------------
# automaton construction


def checker_entry(window: Iterable[str]) -> str:
    """Sequence-item state name for the checker seeded with this window."""
    x, y, z = tuple(window)
    return f"chk1|{x}|{y}|{z}||"


def checker_family_size(n_delta: int) -> int:
    """Number of checker states the construction makes: both tags over
    window times lower-pair, the skip family, and the d1/d2/d3 tail."""
    return 2 * n_delta**3 * (n_delta + 1) ** 2 + n_delta**3 + 3


def build_tm_automaton(tm: TuringMachineSpec, params: TmReductionParams) -> MealyAutomaton:
    """The full reduction automaton over sigma = Delta + {0,1,#,$}, the
    whole checker family included, one chk row per window and lower pair,
    unreachable states too (minimize gives its Moore quotient)."""
    return _build(tm, params, tuple)[0]  # each window is its own key


def _build(tm: TuringMachineSpec, params: TmReductionParams, key: Callable) -> tuple:
    """build_tm_automaton with the chk rows of one window key shared, and
    _write_checkers' map from each checker_entry name to its row. One _Table
    holds it: the few dozen other states first, a row each as named (route
    fills pass-through cells, add the counter digits, tail each suffix reader
    0^k $ 0), then the checker family as row blocks. _of wraps it, so its
    transitions dict is derived only if read. The group variant then
    completes every row and checks the G-automaton class in one pass
    (_complete_rows); failure raises NotGAutomaton."""
    delta, sigma, group = delta_alphabet(tm), sigma_alphabet(tm), params.group_variant
    table = _Table(f"tm-{tm.name}-group" if group else f"tm-{tm.name}", sigma)
    add, route = table.add, table.route

    def tail(q: str, digits: str, r: str, end: str, bit: str = "0") -> None:
        """q reads digits to itself and $ to r; r emits bit on 0, to end."""
        route(q, digits, q)
        route(q, "$", r)
        add(r, "0", bit, end)

    # --- check-marking: increment blocks up to the first all-zero one
    route("mark", delta, "mark_inc")
    route("mark_new", delta, "mark_skip")
    route("mark_old", delta, "mark_inc")
    add("mark_inc", "0", "1", "mark_new")
    add("mark_inc", "1", "0", "mark_carry")
    route("mark_new", "0", "mark_new")
    route("mark_new", "1", "mark_old")
    route("mark_new", "#", "mark")
    route("mark_new", "$", "mark_end")
    route("mark_old", "01", "mark_old")
    add("mark_carry", "1", "0", "mark_carry")
    add("mark_carry", "0", "1", "mark_old")
    route("mark_skip", delta + ("0", "1"), "mark_skip")
    route("mark_skip", "#", "mark")
    route("mark_skip", "$", "mark_end")
    route("mark_end", "01$", "mark_end")

    # --- q_c: virgin shape, every digit a 0
    route("form0", delta, "form1")
    route("form1", delta, "form1")
    route("form1", "0", "form1")
    route("form1", "#", "form0")
    route("form1", "$", "form2")
    tail("form2", "0", "form3", "form4")

    # --- q_l: every block marked
    route("full0", delta, "full1")
    route("full2", delta, "full1")
    route("full1", "0", "full1")
    route("full1", "1", "full2")
    route("full2", "01", "full2")
    route("full2", "#", "full0")
    route("full2", "$", "full3")
    tail("full3", "01", "full4", "full5")

    # --- e: the toggle
    route("probe0", sigma, "probe0")
    route("probe0", "$", "probe1")
    route("probe0", [head_token(g, z) for g in tm.tape_alphabet for z in tm.finals], "probe4")
    tail("probe1", "0", "probe2", "probe3")
    route("probe4", sigma, "probe4")
    route("probe4", "$", "probe5")
    tail("probe5", "0", "probe6", "probe7", bit="1")
    route("probe5", "1", "probe_dead")
    route("probe_dead", sigma, "probe_dead")
    tail("d1", "01", "d2", "d3")  # the checkers' suffix reader

    if group:
        # --- f: skip to the counter block and increment it once
        route(FAIL_ENTRY, sigma, FAIL_ENTRY)
        route(FAIL_ENTRY, "$", "bump1")
        add("bump1", "1", "0", "bump1")
        add("bump1", "0", "1", "bump2")
        tail("bump2", "01", "bump3", "bump4")
        route(SINK_STATE, sigma, SINK_STATE)

    # --- checkers, last: the blocks then size the table's lists exactly
    entry = _write_checkers(table, tm, group, key)
    if group:
        _complete_rows(table, table.state_index[SINK_STATE])
    return MealyAutomaton._of(table), entry


def _write_checkers(table: _Table, tm: TuringMachineSpec, group: bool, key: Callable) -> dict:
    """The checker family as three blocks of whole rows: skipc|x|y|z per
    window over delta, then chk0 and chk1 per window key and lower pair
    (l1, l2) over ('', *delta). A chk row reads its window w only through
    tau(w), so the windows of one key, which must fix tau(w), share their
    rows, named chk<tag>|x|y|z|l1|l2 by the least such name among them. A
    row's index is computed from its coordinates' delta indices, and its
    targets are read off the blocks' index lists (shared ints); d1, bump0,
    bump1 and the sink are rows already. A chk1 row reads no # or $; the
    group variant's completion sends them to the sink. Returns the map from
    each checker_entry name to the chk1 row that stands for it."""
    delta, si = delta_alphabet(tm), table.state_index
    n, width, outs, targets = len(delta), table.width, table.outs, table.targets
    windows = list(itertools.product(delta, repeat=3))
    ids: dict = {}
    of = [ids.setdefault(key(w), len(ids)) for w in windows]  # window -> its key's index
    evolved = list(dict(zip(of, map(derive_tau(tm).get, windows))).values())  # per key
    names = ["|".join(w) for w in windows]
    # key -> its member with the least w + "|", the last one written; that is
    # no other's prefix, so its name chk<tag>|w|l1|l2 is the least for any tag and pair
    least = dict(sorted(zip(of, names), key=lambda cw: cw[1] + "|", reverse=True))
    pairs = [f"{l1}|{l2}" for l1 in ("", *delta) for l2 in ("", *delta)]
    skip = table.block([f"skipc|{w}" for w in names])
    chk0 = table.block([f"chk0|{least[c]}|{p}" for c in range(len(ids)) for p in pairs])
    chk1 = table.block([f"chk1|{least[c]}|{p}" for c in range(len(ids)) for p in pairs])
    # a row is listed for delta, 0, 1, # and $, then gathered into letter order
    order = (*delta, "0", "1", "#", "$")
    gather = itemgetter(*map(order.index, table.letters))
    own = [table.letter_index[a] for a in order]
    every, digits = gather(own), gather([-1] * n + own[n:n + 2] + [-1, -1])
    c1_outs = gather(own[:n + 2] + [-1, -1])
    d1, fail = si["d1"], [si[FAIL_ENTRY], si["bump1"]] if group else None

    def row(q: int, out: tuple, on_delta: list, *on_0_1_hash_dollar: int) -> None:
        outs[q * width:(q + 1) * width] = out
        targets[q * width:(q + 1) * width] = gather([*on_delta, *on_0_1_hash_dollar])

    blank, wide = delta.index(tm.blank), len(pairs)
    for w, s in enumerate(skip):
        row(s, every, [s] * n, s, s, chk1[of[w] * wide], d1)
    for i, (c0, c1) in enumerate(zip(chk0, chk1)):
        c, l1, l2 = i // wide, i // (n + 1) % (n + 1), i % (n + 1)
        lo = c * wide + l2 * (n + 1) + 1  # chk0 of (key, l2, delta[0])
        row(c1, c1_outs, chk0[lo:lo + n], c1, c1, 0, 0)
        # the first unmarked cell has been located: its symbol is l2, which
        # must match the stored window's evolution
        if l2 and delta[l2 - 1] == evolved[c]:
            lo = ((l1 - 1 if l1 else blank) * n + l2 - 1) * n  # skipc of (left, l2, delta[0])
            row(c0, every, skip[lo:lo + n], c0, c1, chk1[of[lo + blank] * wide], d1)
        elif group:
            row(c0, every, fail[:1] * n, c0, c1, *fail)
        else:
            row(c0, digits, [0] * n, c0, c1, 0, 0)
    return {checker_entry(w): table.states[chk1[c * wide]] for w, c in zip(windows, of)}


def _complete_rows(table: _Table, sink: int) -> None:
    """The group variant's completion and class check, in place, over every
    row. A row whose defined cells repeat an output raises NotGAutomaton,
    naming the first such state in table order. Otherwise each undefined
    cell emits its own letter if the row does not emit it yet, else the
    least letter the row does not emit, and moves to the sink: every row
    then emits every letter exactly once."""
    outs, targets, width = table.outs, table.targets, table.width
    for i, q in enumerate(table.states):
        k = i * width
        row = outs[k:k + width]
        used = set(row)
        used.discard(-1)
        if len(used) + row.count(-1) < width:
            raise NotGAutomaton(
                f"{table.name} failed the class check: state {q!r} does not "
                "emit every letter exactly once"
            )
        if len(used) == width:
            continue
        for j, b in enumerate(row):
            if b < 0:
                out = j if j not in used else next(x for x in range(width) if x not in used)
                used.add(out)
                outs[k + j], targets[k + j] = out, sink


def structured_words_acceptor(
    tm: TuringMachineSpec, params: TmReductionParams
) -> Acceptor:
    """The constraint language of well-shaped words: one or more segments of
    exactly p_val cells with k-digit all-zero blocks, then $ 0^k $ 0."""
    delta, k = delta_alphabet(tm), params.k
    width = params.p_val * (k + 1)
    trans = [
        (f"c{m}", g, f"c{m + 1}")
        for m in range(width)
        for g in (delta if m % (k + 1) == 0 else ("0",))
    ]
    trans += [(f"c{width}", "#", "c0"), (f"c{width}", "$", "s0")]
    trans += [(f"s{j}", "0", f"s{j + 1}") for j in range(k)]
    trans += [(f"s{k}", "$", "t0"), ("t0", "0", "acc")]
    states = {s for (q, _a, p) in trans for s in (q, p)}
    return Acceptor("structured", sigma_alphabet(tm), states, trans, ("c0",), ("acc",))


def reduce_tm(tm: TuringMachineSpec, params: TmReductionParams) -> WordProblemInstance:
    """The full word-problem instance for this machine and width.

    Inverse-semigroup variant: [e, q_l, (check-mark, checker) * p_val, q_c]
    against the same without e. Group variant: [e] + pairs against the
    pairs, constrained to the structured-word language. The automaton is
    the literal one of build_tm_automaton."""
    return WordProblemInstance(*_reduce(tm, params, tuple))


def _reduce_quotient(tm: TuringMachineSpec, params: TmReductionParams) -> WordProblemInstance:
    """The instance `autsg reduce tm` prints: reduce_tm's over the Moore
    quotient of the literal automaton, the same verdicts and witnesses in a
    file hundreds of times smaller. The build writes one chk row per tau
    class (about 935 rows at p = 3, not 21k), whose quotient is the literal
    one's, names included; each item is mapped to its class."""
    aut, lhs, rhs, constraints = _reduce(tm, params, derive_tau(tm).get)
    quotient, class_of = minimize(aut)
    return WordProblemInstance(
        quotient, map(class_of.get, lhs), map(class_of.get, rhs), constraints
    )


def _reduce(tm: TuringMachineSpec, params: TmReductionParams, key: Callable) -> tuple:
    """reduce_tm's automaton, sides and constraints, the automaton's chk rows
    shared by the windows of one key (_build), which must fix tau(w); each
    checker item is the row that stands for it."""
    _validate_input_word(tm, params)
    aut, entry = _build(tm, params, key)
    cells = (tm.blank, *initial_configuration(tm, params), tm.blank)
    pairs: list[str] = []
    for i in range(params.p_val, 0, -1):  # c0's windows, the last cell's first
        pairs += [CHECK_MARK_STATE, entry[checker_entry(cells[i - 1:i + 2])]]
    if params.group_variant:
        rhs, constraints = pairs, [structured_words_acceptor(tm, params)]
    else:
        rhs, constraints = [FULL_ENTRY, *pairs, FORM_ENTRY], []
    return aut, [PROBE_ENTRY, *rhs], rhs, constraints
