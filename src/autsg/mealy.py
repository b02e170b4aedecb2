"""Core transducer types and operations.

A Mealy automaton here is a letter-to-letter synchronous transducer over a
single alphabet: every transition reads one letter and emits one letter, so
each state induces a length-preserving partial map on words. Sequences of
(possibly inverted) states act by composition, with the rightmost item acting
first; that convention is global to the package and everything downstream
(word problems, gadgets, reductions) depends on it.

Partiality is first-class: transitions may be missing, and acting on a word
either yields Defined(output, advanced sequence) or UndefinedAt(index of the
offending input letter).

Each automaton is one integer table, a _Table: per state a row holding,
per letter, the index of the output letter and of the next state. The
table is also the one builder: the constructor writes the transitions dict
it is given into a table and keeps no dict, while the reductions
(build_tm_automaton, reduce_dfa_intersection, reduce_dfa_emptiness),
minimize and the derived automata (invert, union, dual, complete_with_zero)
fill a table directly: cell by cell with _Table.add, the cells that pass
their letter on with _Table.route, or in whole rows, as slices of a block
of rows _Table.block reserves (build_tm_automaton's checker family), and
wrap it with MealyAutomaton._of; reduce_dfa_intersection starts from a
_Table.copy of cached counters. Names leave a table only as its cells,
sorted by name (_Table.cells): the serializer and the derived automata read
them, and transitions derives its dict from them.

This module owns the two stepping kernels the rest of the package uses:
_thread, how a sequence of signed states consumes one letter, and
_subset_step, how a constraint acceptor's state subset reads one letter
(behind acceptor_accepts and the search). _thread runs on a table, on the
signed rows the _Table fills as states are first stepped (behind act_word,
which act_step calls, and the word-problem search), or on its power table,
a _PowerTable, whose states are blocks of up to _BLOCK signed states and
whose cells are built one letter at a time by _thread on the table (behind
the search on sides of more than _BLOCK items, which _sides cuts). Both
keep their rows as lists and leave a cell marked _DEFERRED to their cell.

_gc_paused runs a function with CPython's cyclic garbage collector off and
switches it back on when the function returns or raises. It wraps only the
entry points that keep many new containers alive while they run, where each
collection rescans tables that hold no reference cycles and frees nothing:
parse_file and parse_text in textio (unpaused, the 10.7 MB literal Scanner
group instance takes about 1,200 collections and 0.4 s longer) and the
search behind decide and oracle_decide (about 280 collections at separation
n = 16). minimize started no collection on the p = 3 machine tables (about
935 rows from reduce tm, 21k literal), and a paused derivation of
transitions pays as much in the one collection that follows, so both run
unpaused, as do the builders that fill lists of ints, which the collector
does not track. The pause is process-wide: it covers other threads while it
lasts, and one that was already off stays off. A generator function is
refused, because the pause would last for as long as it is suspended.
"""

from __future__ import annotations

import gc
import inspect
from dataclasses import dataclass
from functools import cached_property, wraps
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    AutomatonError,
    NotInverseDeterministic,
    ReservedTokenCollision,
    UnknownLetter,
    UnknownState,
)

Letter = str
State = str
Word = tuple[Letter, ...]

ZERO_STATE = "_zero"
BOTTOM_LETTER = "_bot"


def _gc_paused(fn):
    """fn run with the cyclic garbage collector off; see the module docstring."""
    if inspect.isgeneratorfunction(fn):
        raise TypeError(f"cannot pause the collector around generator {fn.__name__}")

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _check_token(tok: str, what: str) -> None:
    if not isinstance(tok, str) or not tok:
        raise AutomatonError(f"{what} must be a non-empty string, got {tok!r}")
    if tok.split() != [tok]:
        raise AutomatonError(f"{what} may not contain whitespace: {tok!r}")


def _checked_tokens(
    letters: Iterable[Letter], states: Iterable[State]
) -> tuple[frozenset[Letter], frozenset[State]]:
    """The letters and the states as frozensets, checked in the order given
    first, so that the token an error names does not depend on hashing. The
    states pass in bulk if none is "" and their join (TypeError on a
    non-string) has no whitespace; else the loop names the first bad one."""
    letters, states = tuple(letters), tuple(states)
    for tok in letters:
        _check_token(tok, "letter token")
        if tok.startswith("~"):
            raise AutomatonError(f"letter token may not begin with '~': {tok!r}")
    try:
        bad = "" in states or (joined := "".join(states)).split() != [joined]
    except TypeError:
        bad = True
    for tok in states if bad else ():
        _check_token(tok, "state name")
    return frozenset(letters), frozenset(states)


@dataclass(frozen=True)
class SignedState:
    """A state, possibly inverted. Inversion never changes during an action:
    stepping an inverted state yields an inverted state."""

    base: State
    inverted: bool = False

    def __repr__(self) -> str:
        return f"~{self.base}" if self.inverted else self.base


SeqItem = Union[SignedState, str]


def _coerce_item(item: SeqItem) -> SignedState:
    if isinstance(item, SignedState):
        return item
    if isinstance(item, str):
        return SignedState(item)
    raise AutomatonError(f"sequence item must be SignedState or str, got {item!r}")


@dataclass(frozen=True)
class StateSequence:
    """A (possibly empty) sequence of signed states. The empty sequence acts
    as the identity. The rightmost item acts first."""

    items: tuple[SignedState, ...] = ()

    def __init__(self, items: Iterable[SeqItem] = ()):
        object.__setattr__(self, "items", tuple(_coerce_item(i) for i in items))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[SignedState]:
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __repr__(self) -> str:
        return "[" + " ".join(repr(i) for i in self.items) + "]"


@dataclass(frozen=True)
class Defined:
    """Successful action: the full output word and the advanced sequence."""

    output: Word
    final: StateSequence


@dataclass(frozen=True)
class UndefinedAt:
    """Failed action: index (0-based) of the input letter with no transition."""

    index: int


@dataclass(frozen=True)
class MealyAutomaton:
    """A deterministic, possibly partial synchronous transducer.

    transitions maps (state, input letter) to (output letter, next state),
    read-only. Determinism is inherent to the representation; completeness
    is not required. Instances are immutable and safe to share. Every
    automaton keeps only its integer table, whether built from a dict or
    wrapped from a filled _Table by _of, until transitions is first read,
    which derives their dict from its cells and keeps it; the dict it was
    built from is not kept, so changing it later changes nothing here.
    """

    name: str
    alphabet: frozenset[Letter]
    states: frozenset[State]

    def __init__(
        self,
        name: str,
        alphabet: Iterable[Letter],
        states: Iterable[State],
        transitions: Mapping[tuple[State, Letter], tuple[Letter, State]],
    ):
        _check_token(name, "state name")
        alphabet, states = _checked_tokens(alphabet, states)
        table = _Table(name, alphabet, sorted(states))
        li, si, outs, targets = table.letter_index, table.state_index, table.outs, table.targets
        width = table.width
        for (q, a), (b, p) in transitions.items():
            if (i := si.get(q)) is None:
                raise AutomatonError(f"transition source {q!r} is not a declared state")
            if (t := si.get(p)) is None:
                raise AutomatonError(f"transition target {p!r} is not a declared state")
            if (j := li.get(a)) is None:
                raise AutomatonError(f"transition input {a!r} is not in the alphabet")
            if (o := li.get(b)) is None:
                raise AutomatonError(f"transition output {b!r} is not in the alphabet")
            outs[i * width + j] = o
            targets[i * width + j] = t
        self._wrap(table, alphabet, states)

    @classmethod
    def _of(cls, table: "_Table") -> "MealyAutomaton":
        """The automaton that wraps a filled table, whose name, letters and
        states must pass the token checks."""
        _check_token(table.name, "state name")
        automaton = cls.__new__(cls)
        automaton._wrap(table, *_checked_tokens(table.letters, table.states))
        return automaton

    def _wrap(self, table: "_Table", alphabet: frozenset[Letter], states: frozenset[State]):
        table.rows += [None] * (2 * len(table.states) - len(table.rows))
        vars(self).update(name=table.name, alphabet=alphabet, states=states, _table=table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MealyAutomaton):
            return NotImplemented
        return self.name == other.name and self.same_structure(other)

    __hash__ = None  # equality compares transition tables, which do not hash

    def __repr__(self) -> str:
        return (
            f"MealyAutomaton(name={self.name!r}, alphabet={self.alphabet!r}, "
            f"states={self.states!r}, transitions={dict(self.transitions)!r})"
        )

    def same_structure(self, other: "MealyAutomaton") -> bool:
        """Equality ignoring the name."""
        return (
            self.alphabet == other.alphabet
            and self.states == other.states
            and self.transitions.items() == other.transitions.items()
        )

    @property
    def transitions(self) -> Mapping[tuple[State, Letter], tuple[Letter, State]]:
        """A read-only view of _transitions. The view is not cached: it
        cannot be pickled or copied, and the automaton can."""
        return MappingProxyType(self._transitions)

    @cached_property
    def _transitions(self) -> dict[tuple[State, Letter], tuple[Letter, State]]:
        """The table's cells as a dict, derived on first read."""
        return {(q, a): (b, p) for q, a, b, p in self._table.cells()}


@dataclass(frozen=True)
class PropertyReport:
    """The class flags of an automaton; see check_properties."""

    complete: bool
    inverse_deterministic: bool
    inverse_complete: bool
    reversible: bool
    bireversible: bool
    is_g_automaton: bool

    @property
    def is_s_bar_automaton(self) -> bool:
        """Membership in the paper's class of partial invertible automata,
        which generate automaton-inverse semigroups: inverse_deterministic."""
        return self.inverse_deterministic


@dataclass(frozen=True)
class Acceptor:
    """A nondeterministic finite acceptor over the same kind of letter tokens.

    transitions is a set of (state, letter, state) triples; initial must be
    non-empty. Used both for rational constraints and as reduction input.
    """

    name: str
    alphabet: frozenset[Letter]
    states: frozenset[State]
    transitions: frozenset[tuple[State, Letter, State]]
    initial: frozenset[State]
    final: frozenset[State]

    def __init__(
        self,
        name: str,
        alphabet: Iterable[Letter],
        states: Iterable[State],
        transitions: Iterable[tuple[State, Letter, State]],
        initial: Iterable[State],
        final: Iterable[State],
    ):
        _check_token(name, "state name")
        alphabet, states = _checked_tokens(alphabet, states)
        transitions = tuple(transitions)
        for (q, a, p) in transitions:  # in the order given, so the error repeats
            if q not in states or p not in states:
                raise AutomatonError(
                    f"acceptor transition ({q!r},{a!r},{p!r}) uses undeclared state"
                )
            if a not in alphabet:
                raise AutomatonError(f"acceptor transition letter {a!r} not in alphabet")
        transitions = frozenset(transitions)
        initial = frozenset(initial)
        final = frozenset(final)
        if not initial:
            raise AutomatonError("acceptor needs at least one initial state")
        if not initial <= states or not final <= states:
            raise AutomatonError("initial/final states must be declared states")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "final", final)

    @cached_property
    def _steps(self) -> dict[tuple[State, Letter], set[State]]:
        """Per (state, letter), the states it steps to; built on first read."""
        m: dict[tuple[State, Letter], set[State]] = {}
        for (q, a, p) in self.transitions:
            m.setdefault((q, a), set()).add(p)
        return m


def _subset_step(
    step_map: Mapping[tuple[State, Letter], set[State]],
    subset: Iterable[State],
    letter: Letter,
) -> frozenset[State]:
    """The subset-construction step over an Acceptor's _steps: every state
    some member of subset reaches on letter."""
    nxt: set[State] = set()
    for q in subset:
        nxt.update(step_map.get((q, letter), ()))
    return frozenset(nxt)


def acceptor_accepts(acc: Acceptor, word: Iterable[Letter] | str) -> bool:
    steps, cur = acc._steps, acc.initial
    for a in word:
        cur = _subset_step(steps, cur, a)
        if not cur:
            return False
    return bool(cur & acc.final)


_DEFERRED = Ellipsis  # a cell left to table.cell; a singleton, kept by pickle and copy


class _Table:
    """The integer table of a MealyAutomaton, which actions, check_properties
    and minimize read, and its builder. letters is the sorted alphabet and
    width its size; state i's row is the width cells from i * width on in
    outs and in targets, holding per letter the index of the output letter
    (-1 where undefined) and of the next state (0 where undefined).

    A table is filled before an automaton wraps it (MealyAutomaton._of):
    the states it is given, and those block reserves, get undefined rows,
    and add writes one cell, giving a state named for the first time the
    next row. Row indices come only from state_index, so every cell is in range.

    Actions step signed states: 2*i is state i, 2*i + 1 its inverse.
    rows, extended when the table is wrapped, holds per signed state s None
    until s is first stepped, then per letter (output letter, next signed
    state), None where undefined, or _DEFERRED where an inverse has several
    candidate transitions, so that cell raises. No row is written after row
    builds it, so a copy keeps the rows of the table it copies:
    reduce_dfa_intersection copies a template whose counter rows are built."""

    def __init__(self, name: str, letters: Iterable[Letter], states: Iterable[State] = ()):
        self.name, self.letters, self.states = name, sorted(letters), list(states)
        self.width = len(self.letters)
        cells = len(self.states) * self.width
        self.outs, self.targets, self.rows = [-1] * cells, [0] * cells, []
        self.letter_index = {a: j for j, a in enumerate(self.letters)}
        self.state_index = {q: i for i, q in enumerate(self.states)}

    def block(self, names: Iterable[State]) -> list[int]:
        """Reserve the next rows, undefined, for the new states names and
        return their indices, the int objects state_index holds. Raises
        AutomatonError naming the first name already in the table or repeated."""
        names, start, si = list(names), len(self.states), self.state_index
        index = dict(zip(names, range(start, start + len(names))))
        if len(index) < len(names) or not si.keys().isdisjoint(index):
            q = next(q for i, q in enumerate(names, start) if q in si or index[q] != i)
            raise AutomatonError(f"state {q!r} is named twice in table {self.name}")
        si.update(index)
        self.states += names
        cells = len(names) * self.width
        self.outs += [-1] * cells
        self.targets += [0] * cells
        return list(index.values())

    def copy(self) -> "_Table":
        """The same cells and signed rows, in lists of its own."""
        new = _Table.__new__(_Table)
        vars(new).update(vars(self), state_index=dict(self.state_index))
        new.states, new.outs = self.states[:], self.outs[:]
        new.targets, new.rows = self.targets[:], self.rows[:]
        return new

    def add(self, q: State, a: Letter, b: Letter, p: State) -> None:
        """Write one cell: q emits b on a and moves to p. A later write to
        the same cell replaces this one, so a builder may route every letter
        of a row one way and then re-route a few."""
        si, li = self.state_index, self.letter_index
        k = (si[q] if q in si else self._new_row(q)) * self.width + li[a]
        self.outs[k] = li[b]
        self.targets[k] = si[p] if p in si else self._new_row(p)

    def route(self, q: State, letters: Iterable[Letter], p: State) -> None:
        """Write one identity cell per letter: q emits it unchanged and moves to p."""
        for a in letters:
            self.add(q, a, a, p)

    def _new_row(self, q: State) -> int:
        """The index of the next row, given to the new state q, undefined."""
        i = self.state_index[q] = len(self.states)
        self.states.append(q)
        self.outs += [-1] * self.width
        self.targets += [0] * self.width
        return i

    def cells(self) -> Iterator[tuple[State, Letter, Letter, State]]:
        """Every defined cell as (state, input, output, next state), sorted
        by state name and then by letter, whatever the order of the rows:
        the one way names leave the table."""
        letters, states, outs, targets = self.letters, self.states, self.outs, self.targets
        for i in sorted(range(len(states)), key=states.__getitem__):
            for k, a in enumerate(letters, i * self.width):
                if (b := outs[k]) >= 0:
                    yield states[i], a, letters[b], states[targets[k]]

    def signed(self, item: SignedState) -> int:
        i = self.state_index.get(item.base)
        if i is None:
            raise UnknownState(f"{item.base!r} is not a state of {self.name}")
        return 2 * i + item.inverted

    def item(self, s: int) -> SignedState:
        return SignedState(self.states[s >> 1], bool(s & 1))

    def row(self, s: int) -> list:
        """Build, cache and return the row of signed state s."""
        inverted, width = s & 1, self.width
        k = (s >> 1) * width
        row: list = [None] * width
        for a, (b, t) in enumerate(zip(self.outs[k:k + width], self.targets[k:k + width])):
            if b >= 0:
                if inverted:  # ~q reads what q emits and emits what q reads
                    a, b = b, a
                row[a] = (b, 2 * t + inverted) if row[a] is None else _DEFERRED
        self.rows[s] = row
        return row

    def fixes(self, a: int) -> bool:
        """Whether every state emits letter a on a and stays where it is."""
        n, width = len(self.states), self.width
        return self.outs[a::width] == [a] * n and self.targets[a::width] == list(range(n))

    def cell(self, s: int, letter: int):
        """The cell row s defers: raise, as the inverse s steps ambiguously."""
        raise NotInverseDeterministic(
            f"state {self.states[s >> 1]!r} of {self.name} emits "
            f"{self.letters[letter]!r} on more than one transition"
        )

    def check_inverse(self, item: SignedState) -> None:
        """Raise NotInverseDeterministic if the inverted item reaches an
        ambiguous row: when q reaches p by u and p emits one letter on both
        a and b, q maps ua and ub alike, so ~q is not defined."""
        start = self.signed(item)
        seen, todo = {start}, [start]
        while todo:
            s = todo.pop()
            for step in self.rows[s] or self.row(s):
                if step is _DEFERRED:
                    raise NotInverseDeterministic(
                        f"{item!r} is not defined: it reaches {self.item(s)!r} of "
                        f"{self.name}, which has an ambiguous step"
                    )
                if step is not None and step[1] not in seen:
                    seen.add(step[1])
                    todo.append(step[1])


def _thread(table: _Table | _PowerTable, items: list[int], letter: int) -> int | None:
    """The letter-threading kernel: advance the signed states items in place
    by one input letter, rightmost item first, each output feeding the item
    to its left. Returns the leftmost output (the letter itself for no
    items), or None where the action is undefined, leaving items partly
    advanced. Raises NotInverseDeterministic on an ambiguous inverse step.
    table is a _Table or a _PowerTable; a _DEFERRED cell is table.cell's,
    which raises naming a base state on an ambiguous step."""
    rows = table.rows
    for i in range(len(items) - 1, -1, -1):
        s = items[i]
        step = (rows[s] or table.row(s))[letter]
        if step is _DEFERRED:
            step = table.cell(s, letter)
        if step is None:
            return None
        letter, items[i] = step
    return letter


_BLOCK = 8  # the most signed states one state of a _PowerTable stands for


class _PowerTable:
    """The power table of a _Table: its signed states are blocks, tuples of
    up to _BLOCK signed states of the base table, numbered as first met, so
    that a block has one number wherever it occurs. blocks holds the items
    of each and rows a list made whole, so _thread asks no row of it, each
    cell _DEFERRED until cell builds it; _thread runs on it as on the base
    table, whose letters it shares."""

    def __init__(self, base: _Table):
        self.base, self.letters, self.number = base, base.letters, {}
        self.rows, self.blocks = [], []

    def intern(self, items: tuple[int, ...]) -> int:
        """The number of the block items, the next one if it is new."""
        s = self.number.get(items)
        if s is None:
            s = self.number[items] = len(self.rows)
            self.rows.append([_DEFERRED] * self.base.width)
            self.blocks.append(items)
        return s

    def cut(self, items: tuple[int, ...]) -> tuple[int, ...]:
        """The signed states items as blocks of _BLOCK from the right, so
        that sequences which end alike end in the same blocks; only the
        leftmost block may be shorter."""
        ends = range(len(items), 0, -_BLOCK)
        return tuple(self.intern(items[max(end - _BLOCK, 0):end]) for end in reversed(ends))

    def cell(self, s: int, letter: int):
        """Build, store and return the cell of block s for letter: its
        output and next block, threaded through the block on the base table,
        or None where undefined. An ambiguous step raises before anything
        is stored, so it raises again on every read."""
        items = list(self.blocks[s])
        out = _thread(self.base, items, letter)
        self.rows[s][letter] = cell = None if out is None else (out, self.intern(tuple(items)))
        return cell


def _sides(table: _Table, lhs: StateSequence, rhs: StateSequence) -> tuple:
    """The table a search threads letters on and the sides as its signed
    states: signed-state ints, or, when a side has more than _BLOCK items,
    block ids of a power table, cut from the right so that a suffix both
    sides share has the same ids."""
    lhs, rhs = tuple(map(table.signed, lhs)), tuple(map(table.signed, rhs))
    if len(lhs) > _BLOCK or len(rhs) > _BLOCK:
        table = _PowerTable(table)
        return table, table.cut(lhs), table.cut(rhs)
    return table, lhs, rhs


def act_step(
    automaton: MealyAutomaton, state: SeqItem, letter: Letter
) -> tuple[Letter, SignedState] | None:
    """One action step of a signed state on one input letter.

    Forward states follow the transition table. An inverted state ~q consumes
    letter a by running the unique q-transition whose *output* is a, swapping
    input and output; if several q-transitions share the output a the inverse
    is ill-defined and NotInverseDeterministic is raised. Returns None where
    the (partial) map is undefined.
    """
    result = act_word(automaton, [state], [letter])
    return None if isinstance(result, UndefinedAt) else (result.output[0], result.final[0])


def act_word(
    automaton: MealyAutomaton,
    seq: StateSequence | Iterable[SeqItem],
    word: Iterable[Letter] | str,
) -> Defined | UndefinedAt:
    """Act a sequence on a word, rightmost item first.

    Each input letter is threaded through the items right to left: the
    rightmost item transforms it, its output feeds the next item, and the
    leftmost item's output becomes the result letter. The empty sequence is
    the identity. Letters are checked one at a time, so an undefined letter
    is reported before an unknown letter after it.
    """
    if not isinstance(seq, StateSequence):
        seq = StateSequence(seq)
    table = automaton._table
    items = [table.signed(s) for s in seq.items]
    out: list[Letter] = []
    for idx, letter in enumerate(word):
        a = table.letter_index.get(letter)
        if a is None:
            raise UnknownLetter(f"{letter!r} is not a letter of {automaton.name}")
        a = _thread(table, items, a)
        if a is None:
            return UndefinedAt(idx)
        out.append(table.letters[a])
    return Defined(tuple(out), StateSequence(map(table.item, items)))


def check_properties(automaton: MealyAutomaton) -> PropertyReport:
    """Classify the automaton. Determinism is true by representation (the
    transition table is a map); the other flags are computed.

    complete: every (state, letter) pair has a transition.
    inverse_deterministic: per state, output letters are pairwise distinct.
    inverse_complete: per state, every alphabet letter occurs as an output.
    reversible: per (target state, input letter), at most one incoming
    transition; bireversible additionally bounds (target, output) pairs.
    is_g_automaton: complete and inverse_deterministic.

    Each flag compares a count of distinct pairs with the number of
    transitions (no repeats) or with states * letters (every pair occurs)."""
    table = automaton._table
    outs, targets, width = table.outs, table.targets, table.width
    full = len(outs)
    n = full - outs.count(-1)
    rows = (set(outs[k:k + width]) for k in range(0, full, width or 1))
    outputs = sum(len(row) - (-1 in row) for row in rows)
    cells = [k for k, b in enumerate(outs) if b >= 0]
    reversible = len({targets[k] * width + k % width for k in cells}) == n
    bireversible = reversible and len({targets[k] * width + outs[k] for k in cells}) == n
    return PropertyReport(
        complete=n == full,
        inverse_deterministic=outputs == n,
        inverse_complete=outputs == full,
        reversible=reversible,
        bireversible=bireversible,
        is_g_automaton=n == full and outputs == n,
    )


def invert(automaton: MealyAutomaton) -> MealyAutomaton:
    """The inverse transducer on a fresh state copy named with a ~ prefix.

    Requires inverse determinism (otherwise the swapped table would be
    nondeterministic). For every q -a/b-> p the result has ~q -b/a-> ~p; a
    cell of ~q written twice means q emits one letter on two.
    """
    table, width = automaton._table, automaton._table.width
    inverse = _Table(f"~{automaton.name}", table.letters, [f"~{q}" for q in table.states])
    for k, b in enumerate(table.outs):
        if b >= 0:
            a = k % width
            cell = k - a + b
            if inverse.outs[cell] >= 0:
                raise NotInverseDeterministic(
                    f"{automaton.name} is not inverse-deterministic; cannot invert"
                )
            inverse.outs[cell], inverse.targets[cell] = a, table.targets[k]
    return MealyAutomaton._of(inverse)


def union(a1: MealyAutomaton, a2: MealyAutomaton) -> MealyAutomaton:
    """Disjoint union over the merged alphabet.

    State names are kept when the two state sets are disjoint; on collision
    each side is prefixed with its automaton name, or with l_ and r_ when
    even the prefixed names collide (as in union(A, A), or for A named a
    with a state b_x and B named a_b with a state x).
    """
    p1 = p2 = ""
    if a1.states & a2.states:
        p1, p2 = f"{a1.name}_", f"{a2.name}_"
        if {p1 + q for q in a1.states} & {p2 + q for q in a2.states}:
            p1, p2 = "l_", "r_"
    states = sorted([p1 + q for q in a1.states] + [p2 + q for q in a2.states])
    table = _Table(f"{a1.name}+{a2.name}", a1.alphabet | a2.alphabet, states)
    for prefix, side in ((p1, a1), (p2, a2)):
        for q, a, b, p in side._table.cells():
            table.add(prefix + q, a, b, prefix + p)
    return MealyAutomaton._of(table)


def dual(automaton: MealyAutomaton) -> MealyAutomaton:
    """Exchange the roles of states and letters.

    For every q -a/b-> p the dual has a -q/p-> b: dual-state a reads the
    letter q, emits the letter p and moves to dual-state b. States must
    satisfy the letter token rules (no leading ~) for this to be well formed,
    and are checked in sorted order, so the one an error names does not
    depend on string hashing.
    """
    table = _Table(f"dual_{automaton.name}", automaton.states, sorted(automaton.alphabet))
    for q, a, b, p in automaton._table.cells():
        table.add(a, q, p, b)
    return MealyAutomaton._of(table)


def complete_with_zero(automaton: MealyAutomaton) -> MealyAutomaton:
    """Adjoin a zero: a sink state and a fresh bottom letter.

    Every missing (state, letter) pair, every pair on the new letter, and
    everything at the sink maps to the bottom letter and the sink. Original
    state names are kept. Raises ReservedTokenCollision if the automaton
    already uses the reserved tokens.
    """
    if BOTTOM_LETTER in automaton.alphabet:
        raise ReservedTokenCollision(f"alphabet already contains {BOTTOM_LETTER!r}")
    if ZERO_STATE in automaton.states:
        raise ReservedTokenCollision(f"states already contain {ZERO_STATE!r}")
    states = [*sorted(automaton.states), ZERO_STATE]
    table = _Table(f"{automaton.name}_hat", automaton.alphabet | {BOTTOM_LETTER}, states)
    cells = len(table.outs)  # every cell starts as the zero's
    table.outs = [table.letter_index[BOTTOM_LETTER]] * cells
    table.targets = [table.state_index[ZERO_STATE]] * cells
    for q, a, b, p in automaton._table.cells():
        table.add(q, a, b, p)
    return MealyAutomaton._of(table)


def _refine(n: int, outs: list[int], targets: list[int], width: int) -> list[int]:
    """Moore's refinement of n states from equal outputs, classes numbered as
    first met. A key is a tuple: 0 (so n keys with no letters) and the state's
    outputs, then each round its class and its targets' classes."""
    ids: dict = {}
    keys = zip([0] * n, *[outs[j::width] for j in range(width)])
    cls = [ids.setdefault(key, len(ids)) for key in keys]
    # where undefined, the output -1 tells the states apart and the target,
    # state 0, is never the only difference
    columns = [targets[j::width] for j in range(width)]  # per letter, every state's target
    count = 0
    while len(ids) != count:  # a round that splits no class is stable
        count = len(ids)
        keys = zip(cls, *[map(cls.__getitem__, col) for col in columns])
        ids = {}
        cls = [ids.setdefault(key, len(ids)) for key in keys]
    return cls


def minimize(automaton: MealyAutomaton) -> tuple[MealyAutomaton, dict[State, State]]:
    """The Moore quotient and the class of every state.

    Moore's refinement over the table from its outputs (_refine), an undefined
    transition counting as an output of its own. Each class is named by its
    least state name, which class_of maps every state to; the quotient's table
    is filled from the rows of those least states and keeps the name and the
    whole alphabet, so constraint acceptors still match it. A state and its
    class act alike on every word, inverted too: they have the same outputs,
    so ~q steps ambiguously exactly where ~class_of[q] does. Names and orders
    do not depend on string hashing."""
    table = automaton._table
    letters, states, outs, targets = table.letters, table.states, table.outs, table.targets
    width = table.width
    cls = _refine(len(states), outs, targets, width)
    order = sorted(range(len(states)), key=states.__getitem__)
    least: dict[int, int] = {}  # class -> its least state, in the order of those
    for i in order:
        least.setdefault(cls[i], i)
    position = {c: r for r, c in enumerate(least)}  # class -> its state in the quotient
    names = [states[i] for i in least.values()]
    class_of = {states[i]: names[position[cls[i]]] for i in order}
    quotient = _Table(automaton.name, letters, names)
    for r, i in enumerate(least.values()):
        row, k = slice(i * width, (i + 1) * width), r * width
        quotient.outs[k:k + width] = outs[row]
        quotient.targets[k:k + width] = [
            position[cls[t]] if b >= 0 else 0 for b, t in zip(outs[row], targets[row])
        ]
    return MealyAutomaton._of(quotient), class_of
