"""DFA-based hardness reductions to constrained word problems.

Two compilers and one independent oracle:

* reduce_dfa_intersection turns "is the intersection of r DFA languages
  empty?" into a word-problem instance over the alphabet {0,1,#}. Input
  words have the shape w # y1..yr # z. Each DFA gets a state copy acting as
  the identity on w and branching at # into a counter. A counter is a chain
  of r+3 positions that counts the letters after the first #: position
  i < r reads the bit yi+1, position r the second #, r+1 the trailing bit z
  and r+2 nothing. Each position emits its letter, with 0 and 1 exchanged
  at one position, and moves to the next. DFA k's counter requires a 1 at
  position k-1; from a rejecting run it switches that bit to 0, from an
  accepting run it keeps it. The two sides differ only in the leftmost
  item: a conditional flipper, whose counter switches z unless the y-block
  arrives all ones, against an unconditional one. The outputs disagree
  exactly on w # 1^r # 1 with w in every language. In the group variant
  every position reads all three letters. The counters depend on r and the
  variant alone: a build copies them from a cached template, one of at most
  16 of a few dozen rows each, and adds the DFA copies.

* reduce_dfa_emptiness turns "is L(A) empty?" into comparing [initial] with
  the empty sequence on an automaton that copies A and swaps 0/1 at final
  states.

* dfa_intersection_empty answers the intersection question directly by
  product-automaton reachability, for cross-checking the compiled instances.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import MalformedDfa
from .mealy import Acceptor, MealyAutomaton, State, StateSequence, _Table
from .wordproblem import WordProblemInstance

BIT_ALPHABET = frozenset({"0", "1"})
_SAME = {"0": "0", "1": "1", "#": "#"}
_SWAPPED = {"0": "1", "1": "0", "#": "#"}


def _deterministic_steps(acc: Acceptor) -> dict[tuple[State, str], State]:
    """Step map of a DFA, validating determinism and completeness in sorted
    order, so that the pair an error names does not depend on hashing."""
    if acc.alphabet != BIT_ALPHABET:
        raise MalformedDfa(f"{acc.name}: alphabet must be exactly {{0,1}}")
    if len(acc.initial) != 1:
        raise MalformedDfa(f"{acc.name}: exactly one initial state required")
    steps: dict[tuple[State, str], State] = {}
    for (q, a, p) in sorted(acc.transitions):
        if (q, a) in steps:
            raise MalformedDfa(f"{acc.name}: nondeterministic on ({q!r}, {a!r})")
        steps[(q, a)] = p
    for q in sorted(acc.states):
        for a in ("0", "1"):
            if (q, a) not in steps:
                raise MalformedDfa(f"{acc.name}: missing transition on ({q!r}, {a!r})")
    return steps


@dataclass(frozen=True)
class DfaList:
    """A non-empty list of complete deterministic acceptors over {0,1}.
    _steps keeps each DFA's step map, sorted, as the check built it."""

    dfas: tuple[Acceptor, ...]

    def __init__(self, dfas: Iterable[Acceptor]):
        dfas = tuple(dfas)
        if not dfas:
            raise MalformedDfa("need at least one DFA")
        object.__setattr__(self, "_steps", tuple(_deterministic_steps(acc) for acc in dfas))
        object.__setattr__(self, "dfas", dfas)

    @property
    def r(self) -> int:
        return len(self.dfas)


def dfa_intersection_empty(d: DfaList) -> bool:
    """Product-automaton reachability: true iff no jointly-final product
    state is reachable."""
    start = tuple(next(iter(acc.initial)) for acc in d.dfas)
    seen = {start}
    queue = deque([start])
    while queue:
        prod = queue.popleft()
        if all(q in acc.final for q, acc in zip(prod, d.dfas)):
            return False
        for a in ("0", "1"):
            nxt = tuple(m[(q, a)] for q, m in zip(prod, d._steps))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def reduce_dfa_intersection(d: DfaList, group_variant: bool = False) -> WordProblemInstance:
    """Compile the intersection-emptiness question into an instance that is
    Equal exactly when the intersection is empty.

    Every gadget after the first # is a counter over positions 0..r+2 (see
    the module docstring), copied from _counters. The group variant lets
    every position read all three letters, which makes the automaton a
    G-automaton, and constrains inputs to {0,1}* # 1^r # 1, the shape on
    which the construction is meaningful.
    """
    table = _counters(d.r, group_variant).copy()
    # Per-DFA copies with identity outputs, bridging at # into the bit
    # gadget: a rejecting run must see its bit as 1 and switches it to 0, an
    # accepting run checks the 1 and keeps it. The step maps are sorted, so
    # the table's row order does not depend on string hashing.
    for k, (acc, steps) in enumerate(zip(d.dfas, d._steps), start=1):
        name = {q: f"dfa{k}_{q}" for q in acc.states}
        for (q, a), p in steps.items():
            table.add(name[q], a, a, name[p])
        for q in sorted(acc.states):
            table.add(name[q], "#", "#", f"kp{k}_0" if q in acc.final else f"sw{k}_0")
    aut = MealyAutomaton._of(table)
    copies = [f"dfa{k}_{next(iter(acc.initial))}" for k, acc in enumerate(d.dfas, start=1)]
    tail = StateSequence(copies[::-1]).items  # coerced once, shared by both sides
    lhs, rhs = StateSequence(["check", *tail]), StateSequence(["flip", *tail])
    return WordProblemInstance(aut, lhs, rhs, [_tail_ones(d.r)] if group_variant else [])


@lru_cache(maxsize=16)
def _counters(r: int, group_variant: bool) -> _Table:
    """The two flippers and the sw and kp counters of r DFAs in the variant,
    every signed row stepped: counter rows lead only to counter states, so
    the rows hold in every copy. Nothing writes to it; 16 at most are cached."""
    table = _Table("dfa-isect-group" if group_variant else "dfa-isect", ("0", "1", "#"))
    add, route = table.add, table.route

    def chain(name: str, start: int = 0, swap: int = -1, only1: int = -1) -> None:
        """Positions start..r+2 of counter name: each emits its letter, with
        0 and 1 exchanged at swap, and moves on, the last to itself."""
        for i in range(start, r + 3):
            if group_variant:
                letters = "01#"
            elif i < r:
                letters = "1" if i == only1 else "01"
            else:
                letters = ("#", "1", "")[i - r]
            out = _SWAPPED if i == swap else _SAME
            q, p = f"{name}_{i}", f"{name}_{i + (i < r + 2)}"
            for a in letters:
                add(q, a, out[a], p)

    # Conditional flipper: tracks whether the y-block is all ones, then
    # flips the trailing bit only when it is not.
    route("check", "01", "check")
    route("check", "#", "all1_0")
    chain("all1")
    for i in range(r):
        add(f"all1_{i}", "0", "0", f"has0_{i + 1}")
    chain("has0", start=1, swap=r + 1)
    # Unconditional flipper.
    route("flip", "01", "flip")
    route("flip", "#", "flip_0")
    chain("flip", swap=r + 1)
    for k in range(1, r + 1):
        chain(f"sw{k}", swap=k - 1, only1=k - 1)
        chain(f"kp{k}", only1=k - 1)
    table.rows = [None] * (2 * len(table.states))
    for s in range(len(table.rows)):
        table.row(s)
    return table


@lru_cache(maxsize=16)
def _tail_ones(r: int) -> Acceptor:
    """The group variant's constraint language {0,1}* # 1^r # 1."""
    trans = [("w0", "0", "w0"), ("w0", "1", "w0"), ("w0", "#", "b0"), (f"b{r}", "#", "c0")]
    trans += [(f"b{i}", "1", f"b{i + 1}") for i in range(r)] + [("c0", "1", "acc")]
    states = {s for (q, _a, p) in trans for s in (q, p)}
    return Acceptor("tail-ones", "01#", states, trans, ("w0",), ("acc",))


def reduce_dfa_emptiness(dfa: Acceptor) -> WordProblemInstance:
    """Compile "is L(A) empty?" into comparing [initial] with the identity.

    The compiled automaton runs A, emitting letters unchanged at non-final
    states and 0/1-swapped at final states; the sides agree exactly when no
    run ever reads a letter from a final state.
    """
    table = _Table("dfa-empty", ("0", "1"), sorted(dfa.states))
    for (q, a), p in _deterministic_steps(dfa).items():
        table.add(q, a, (_SWAPPED if q in dfa.final else _SAME)[a], p)
    aut = MealyAutomaton._of(table)
    initial = next(iter(dfa.initial))
    return WordProblemInstance(aut, StateSequence([initial]), StateSequence())
