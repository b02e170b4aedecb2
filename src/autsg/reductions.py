"""DFA-based hardness reductions to constrained word problems.

Two compilers and one independent oracle:

* reduce_dfa_intersection turns "is the intersection of r DFA languages
  empty?" into a word-problem instance over the alphabet {0,1,#}. Input
  words have the shape w # y1..yr # z. Each DFA gets a state copy acting as
  the identity on w, branching at # into a bit gadget that either requires
  its own bit position to be 1 and flips it to 0 (reached from a rejecting
  run) or requires 1 and keeps it (accepting run). The two sides differ only
  in the leftmost item: a conditional flipper that flips the trailing bit
  unless the y-block arrives all ones, versus an unconditional flipper. The
  outputs disagree exactly on w # 1^r # 1 with w in every language.

* reduce_dfa_emptiness turns "is L(A) empty?" into comparing [initial] with
  the empty sequence on an automaton that copies A and swaps 0/1 at final
  states.

* dfa_intersection_empty answers the intersection question directly by
  product-automaton reachability, for cross-checking the compiled instances.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import MalformedDfa
from .mealy import Acceptor, MealyAutomaton, State, StateSequence, _Table
from .wordproblem import WordProblemInstance

BIT_ALPHABET = frozenset({"0", "1"})


def _deterministic_steps(acc: Acceptor) -> dict[tuple[State, str], State]:
    """Step map of a DFA, validating determinism and completeness."""
    if acc.alphabet != BIT_ALPHABET:
        raise MalformedDfa(f"{acc.name}: alphabet must be exactly {{0,1}}")
    if len(acc.initial) != 1:
        raise MalformedDfa(f"{acc.name}: exactly one initial state required")
    steps: dict[tuple[State, str], State] = {}
    for (q, a, p) in acc.transitions:
        if (q, a) in steps:
            raise MalformedDfa(f"{acc.name}: nondeterministic on ({q!r}, {a!r})")
        steps[(q, a)] = p
    for q in acc.states:
        for a in ("0", "1"):
            if (q, a) not in steps:
                raise MalformedDfa(f"{acc.name}: missing transition on ({q!r}, {a!r})")
    return steps


@dataclass(frozen=True)
class DfaList:
    """A non-empty list of complete deterministic acceptors over {0,1}."""

    dfas: tuple[Acceptor, ...]

    def __init__(self, dfas: Iterable[Acceptor]):
        dfas = tuple(dfas)
        if not dfas:
            raise MalformedDfa("need at least one DFA")
        for acc in dfas:
            _deterministic_steps(acc)
        object.__setattr__(self, "dfas", dfas)

    @property
    def r(self) -> int:
        return len(self.dfas)


def dfa_intersection_empty(d: DfaList) -> bool:
    """Product-automaton reachability: true iff no jointly-final product
    state is reachable."""
    steps = [_deterministic_steps(acc) for acc in d.dfas]
    start = tuple(next(iter(acc.initial)) for acc in d.dfas)
    seen = {start}
    queue = deque([start])
    while queue:
        prod = queue.popleft()
        if all(q in acc.final for q, acc in zip(prod, d.dfas)):
            return False
        for a in ("0", "1"):
            nxt = tuple(m[(q, a)] for q, m in zip(prod, steps))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def reduce_dfa_intersection(d: DfaList, group_variant: bool = False) -> WordProblemInstance:
    """Compile the intersection-emptiness question into an instance that is
    Equal exactly when the intersection is empty.

    The group variant adds the completion transitions everywhere (making the
    automaton a G-automaton) and constrains inputs to {0,1}* # 1^r # 1, the
    shape on which the construction is meaningful.
    """
    r = d.r
    table = _Table("dfa-isect-group" if group_variant else "dfa-isect", ("0", "1", "#"))
    add = table.add

    # Conditional flipper: tracks whether the y-block is all ones, then
    # flips the trailing bit only when it is not.
    add("check", "0", "0", "check")
    add("check", "1", "1", "check")
    add("check", "#", "#", "all1_0")
    # Unconditional flipper.
    add("flip", "0", "0", "flip")
    add("flip", "1", "1", "flip")
    add("flip", "#", "#", "flip_0")
    for i in range(r):
        add(f"all1_{i}", "1", "1", f"all1_{i + 1}")
        add(f"all1_{i}", "0", "0", f"has0_{i + 1}")
        add(f"flip_{i}", "0", "0", f"flip_{i + 1}")
        add(f"flip_{i}", "1", "1", f"flip_{i + 1}")
        if i >= 1:
            add(f"has0_{i}", "0", "0", f"has0_{i + 1}")
            add(f"has0_{i}", "1", "1", f"has0_{i + 1}")
        if group_variant:
            add(f"all1_{i}", "#", "#", f"all1_{i + 1}")
            add(f"flip_{i}", "#", "#", f"flip_{i + 1}")
            if i >= 1:
                add(f"has0_{i}", "#", "#", f"has0_{i + 1}")
    # after the y-block: a # then the trailing bit
    for chain in ("all1", "has0", "flip"):
        add(f"{chain}_{r}", "#", "#", f"{chain}_{r + 1}")
        if group_variant:
            add(f"{chain}_{r}", "0", "0", f"{chain}_{r + 1}")
            add(f"{chain}_{r}", "1", "1", f"{chain}_{r + 1}")
    add(f"all1_{r + 1}", "1", "1", f"all1_{r + 2}")
    add(f"has0_{r + 1}", "1", "0", f"has0_{r + 2}")
    add(f"flip_{r + 1}", "1", "0", f"flip_{r + 2}")
    if group_variant:
        add(f"all1_{r + 1}", "0", "0", f"all1_{r + 2}")
        add(f"all1_{r + 1}", "#", "#", f"all1_{r + 2}")
        for chain in ("has0", "flip"):
            add(f"{chain}_{r + 1}", "0", "1", f"{chain}_{r + 2}")
            add(f"{chain}_{r + 1}", "#", "#", f"{chain}_{r + 2}")
        for chain in ("all1", "has0", "flip"):
            term = f"{chain}_{r + 2}"
            for a in ("0", "1", "#"):
                add(term, a, a, term)

    # Per-DFA copies with identity outputs, bridging at # into the bit
    # gadget: a rejecting run must see its bit as 1 and switches it to 0, an
    # accepting run checks the 1 and keeps it. States are named in sorted
    # order, so the table's row order does not depend on string hashing.
    for k, acc in enumerate(d.dfas, start=1):
        for (q, a), p in sorted(_deterministic_steps(acc).items()):
            add(f"dfa{k}_{q}", a, a, f"dfa{k}_{p}")
        for q in sorted(acc.states):
            entry = f"kp{k}_0" if q in acc.final else f"sw{k}_0"
            add(f"dfa{k}_{q}", "#", "#", entry)
        for kind in ("sw", "kp"):
            for i in range(r):
                src = f"{kind}{k}_{i}"
                dst = f"{kind}{k}_{i + 1}"
                if i == k - 1:
                    if kind == "sw":
                        add(src, "1", "0", dst)
                        if group_variant:
                            add(src, "0", "1", dst)
                    else:
                        add(src, "1", "1", dst)
                        if group_variant:
                            add(src, "0", "0", dst)
                    if group_variant:
                        add(src, "#", "#", dst)
                else:
                    add(src, "0", "0", dst)
                    add(src, "1", "1", dst)
                    if group_variant:
                        add(src, "#", "#", dst)
            add(f"{kind}{k}_{r}", "#", "#", f"{kind}{k}_{r + 1}")
            add(f"{kind}{k}_{r + 1}", "1", "1", f"{kind}{k}_{r + 2}")
            if group_variant:
                add(f"{kind}{k}_{r}", "0", "0", f"{kind}{k}_{r + 1}")
                add(f"{kind}{k}_{r}", "1", "1", f"{kind}{k}_{r + 1}")
                add(f"{kind}{k}_{r + 1}", "0", "0", f"{kind}{k}_{r + 2}")
                add(f"{kind}{k}_{r + 1}", "#", "#", f"{kind}{k}_{r + 2}")
                term = f"{kind}{k}_{r + 2}"
                for a in ("0", "1", "#"):
                    add(term, a, a, term)

    aut = MealyAutomaton._of(table)

    copies = [
        f"dfa{k}_{next(iter(acc.initial))}"
        for k, acc in reversed(list(enumerate(d.dfas, start=1)))
    ]
    lhs = StateSequence(["check"] + copies)
    rhs = StateSequence(["flip"] + copies)

    constraints = []
    if group_variant:
        acc_trans = {("w0", "0", "w0"), ("w0", "1", "w0"), ("w0", "#", "b0")}
        acc_states = {"w0", "acc"}
        for i in range(r):
            acc_trans.add((f"b{i}", "1", f"b{i + 1}"))
            acc_states.add(f"b{i}")
        acc_states.add(f"b{r}")
        acc_trans.add((f"b{r}", "#", "c0"))
        acc_states.add("c0")
        acc_trans.add(("c0", "1", "acc"))
        constraints.append(
            Acceptor(
                "tail-ones", ("0", "1", "#"), acc_states, acc_trans, ("w0",), ("acc",)
            )
        )
    return WordProblemInstance(aut, lhs, rhs, constraints)


def reduce_dfa_emptiness(dfa: Acceptor) -> WordProblemInstance:
    """Compile "is L(A) empty?" into comparing [initial] with the identity.

    The compiled automaton runs A, emitting letters unchanged at non-final
    states and 0/1-swapped at final states; the sides agree exactly when no
    run ever reads a letter from a final state.
    """
    table = _Table("dfa-empty", ("0", "1"), sorted(dfa.states))
    for (q, a), p in _deterministic_steps(dfa).items():
        table.add(q, a, a if q not in dfa.final else ("1" if a == "0" else "0"), p)
    aut = MealyAutomaton._of(table)
    initial = next(iter(dfa.initial))
    return WordProblemInstance(aut, StateSequence([initial]), StateSequence())
