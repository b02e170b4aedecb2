"""Word problems with rational constraints.

Given two state sequences over one automaton and a set of constraint
acceptors, decide whether the sequences act identically (as partial maps) on
every word in the constraint intersection. Partial semantics: two sides agree
on a word when both are undefined, or both are defined with equal outputs;
a defined/undefined asymmetry is a difference.

decide() runs a breadth-first search over joint configurations
(per-side item states or a dead marker, one subset per constraint acceptor,
and a divergence flag). A configuration witnesses inequality when every
acceptor subset meets its final states and either both sides are alive with
diverged outputs or exactly one side is alive. Deduplication is sound because
the witness predicate and the successor relation depend only on the
configuration, and breadth-first order with letter-sorted expansion makes the
returned witness the length-then-lex least one. A letter that every state
emits on itself staying put, and on which every acceptor state steps to itself
alone, maps each configuration to itself: both sides emit it, and an inverted
~q stays too, as q emits it on that letter alone or the instance was rejected
when built. Its child is always stored already, so the search skips that
letter from depth 4 on. This module only searches:
how a side consumes a letter (mealy._thread) and how a constraint subset
steps (mealy._subset_step) are the kernels in mealy.py, and so is the
representation of the sides (mealy._sides): tuples of signed-state ints on
the automaton's table, or of block ids on its power table, where a block id
stands for one tuple of signed states, so the configurations correspond one
to one either way. Each step records both sides' output letters, so the
walk back along the parent chain that rebuilds the witness also yields the
sides' values on it.

oracle_decide() answers the same question bounded by a word length. Its
default implementation is the same deduplicated search cut at that depth,
which returns results bit-identical to literal length-then-lex enumeration
(if two words share a configuration, every extension of the earlier word
precedes the same extension of the later one, so pruning the later word never
skips the first witness). naive=True switches to the literal enumeration for
cross-validation at small bounds.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import AutomatonError, ConfigBudgetExceeded
from .mealy import (
    Acceptor,
    Defined,
    MealyAutomaton,
    SeqItem,
    StateSequence,
    Word,
    _gc_paused,
    _sides,
    _subset_step,
    _thread,
    acceptor_accepts,
    act_word,
)

EQUAL = "Equal"
NOT_EQUAL = "NotEqual"


class _UndefinedType(enum.Enum):
    """Marker for an undefined side value in a Verdict. As an enum member it
    stays one object through copy and pickle."""

    UNDEFINED = "Undefined"

    def __repr__(self) -> str:
        return "Undefined"

    __str__ = __repr__


UNDEFINED = _UndefinedType.UNDEFINED


@dataclass(frozen=True)
class WordProblemInstance:
    """Two sequences over one automaton and the constraint acceptors. An
    inverted item ~q is rejected here with NotInverseDeterministic when q
    reaches a state that emits some letter on more than one transition."""

    automaton: MealyAutomaton
    lhs: StateSequence
    rhs: StateSequence
    constraints: tuple[Acceptor, ...] = ()

    def __init__(
        self,
        automaton: MealyAutomaton,
        lhs: StateSequence | Iterable[SeqItem],
        rhs: StateSequence | Iterable[SeqItem],
        constraints: Iterable[Acceptor] = (),
    ):
        if not isinstance(lhs, StateSequence):
            lhs = StateSequence(lhs)
        if not isinstance(rhs, StateSequence):
            rhs = StateSequence(rhs)
        constraints = tuple(constraints)
        for seq in (lhs, rhs):
            for item in seq:
                if item.base not in automaton.states:
                    raise AutomatonError(
                        f"sequence item {item!r} is not a state of {automaton.name}"
                    )
                if item.inverted:
                    automaton._table.check_inverse(item)
        for acc in constraints:
            if acc.alphabet != automaton.alphabet:
                raise AutomatonError(
                    f"constraint {acc.name} alphabet differs from {automaton.name}'s"
                )
        object.__setattr__(self, "automaton", automaton)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "constraints", constraints)


@dataclass(frozen=True)
class Verdict:
    """kind is Equal or NotEqual. For NotEqual, witness is the
    length-then-lex least differing word and lhs_value/rhs_value are the two
    sides' values on it (a Word, or UNDEFINED). bounded marks an Equal that
    was only established up to a length bound."""

    kind: str
    witness: Word | None = None
    lhs_value: object = None
    rhs_value: object = None
    bounded: bool = False


def config_bound(inst: WordProblemInstance) -> int:
    """Upper bound on distinct search configurations: each sequence item is
    one of |Q| states or dead, each acceptor contributes its subset lattice,
    and the divergence flag doubles everything."""
    n = len(inst.lhs) + len(inst.rhs)
    bound = (len(inst.automaton.states) + 1) ** n * 2
    for acc in inst.constraints:
        bound *= 2 ** len(acc.states)
    return bound


def _is_witness(cfg, finals) -> bool:
    lhs, rhs, subs, diverged = cfg
    for sub, fin in zip(subs, finals):
        if not (sub & fin):
            return False
    if lhs is not None and rhs is not None:
        return diverged
    return True  # exactly one alive; both-dead configs are never enqueued


def _witness_verdict(letters: list, parents: dict, node) -> Verdict:
    """Walk the parent chain back from the witnessing config node: the
    letters read are the witness, and each alive side's outputs its value."""
    alive = (True, node[0] is not None, node[1] is not None)
    steps = []
    while parents[node] is not None:
        node, *step = parents[node]
        steps.append(step)
    word, lhs_value, rhs_value = (
        tuple(letters[x] for x in column) if ok else UNDEFINED
        for column, ok in zip(zip(*reversed(steps)), alive)
    )
    return Verdict(NOT_EQUAL, word, lhs_value, rhs_value)


@_gc_paused
def _search(
    inst: WordProblemInstance,
    max_depth: int | None,
    max_configs: int | None,
) -> Verdict:
    base = inst.automaton._table
    table, lhs, rhs = _sides(base, inst.lhs, inst.rhs)
    accs = inst.constraints
    step_maps = [acc._steps for acc in accs]
    # from depth 4 on, only the letters whose child may differ from its config
    # (module docstring): the many small searches that end sooner skip the test
    moves, skip_at = list(enumerate(base.letters)), 4
    finals = [acc.final for acc in accs]
    init = (lhs, rhs, tuple(acc.initial for acc in accs), False)
    # config -> (parent config, letter read, lhs output, rhs output)
    parents: dict = {init: None}
    queue = deque([(init, 0)])
    while queue:
        cfg, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        if depth == skip_at:
            skip_at = None
            moves = [
                (a, letter) for a, letter in moves if not base.fixes(a)
                or any(acc._steps.get((q, letter)) != {q} for acc in accs for q in acc.states)
            ]
        lhs, rhs, subs, diverged = cfg
        for a, letter in moves:
            new_subs = []
            for m, sub in zip(step_maps, subs):
                nxt = _subset_step(m, sub, letter)
                if not nxt:
                    break
                new_subs.append(nxt)
            if len(new_subs) < len(subs):
                continue
            # a dead side (None) stays dead; a side dies where it is undefined
            lhs2 = rhs2 = out_l = out_r = None
            if lhs is not None:
                lhs2 = list(lhs)
                out_l = _thread(table, lhs2, a)
                lhs2 = None if out_l is None else tuple(lhs2)
            if rhs is not None:
                rhs2 = list(rhs)
                out_r = _thread(table, rhs2, a)
                rhs2 = None if out_r is None else tuple(rhs2)
            if lhs2 is None and rhs2 is None:
                continue
            if lhs2 is not None and rhs2 is not None:
                diverged2 = diverged or (out_l != out_r)
            else:
                diverged2 = False
            child = (lhs2, rhs2, tuple(new_subs), diverged2)
            if child in parents:
                continue
            parents[child] = (cfg, a, out_l, out_r)
            if _is_witness(child, finals):
                return _witness_verdict(table.letters, parents, child)
            if max_configs is not None and len(parents) > max_configs:
                raise ConfigBudgetExceeded(
                    f"more than {max_configs} configurations explored",
                    configs=len(parents),
                    depth=depth + 1,
                )
            queue.append((child, depth + 1))
    return Verdict(EQUAL, bounded=max_depth is not None)


def decide(inst: WordProblemInstance, max_configs: int | None = None) -> Verdict:
    """Decide the constrained word problem exactly.

    Raises ConfigBudgetExceeded when the explored configuration count passes
    the caller-supplied cap, which must be at least 1; with no cap,
    termination follows from the finite configuration space (see config_bound)."""
    if max_configs is not None and max_configs < 1:
        raise AutomatonError("max_configs must be >= 1")
    return _search(inst, max_depth=None, max_configs=max_configs)


def oracle_decide(
    inst: WordProblemInstance, max_len: int, naive: bool = False
) -> Verdict:
    """Bounded reference decision.

    Semantics: enumerate every word of length <= max_len in length-then-lex
    order (sorted letter tokens), keep those inside every constraint
    language, and report the first word on which the sides' partial values
    differ; Equal verdicts carry bounded=True. The default implementation is
    the deduplicated search (provably identical results); naive=True performs
    the literal enumeration and is only sensible for small bounds.
    """
    if max_len < 0:
        raise AutomatonError("max_len must be >= 0")
    if not naive:
        return _search(inst, max_depth=max_len, max_configs=None)
    automaton = inst.automaton
    letters = sorted(automaton.alphabet)
    for length in range(max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            if not all(acceptor_accepts(acc, combo) for acc in inst.constraints):
                continue
            values = [act_word(automaton, side, combo) for side in (inst.lhs, inst.rhs)]
            lhs_value, rhs_value = (
                v.output if isinstance(v, Defined) else UNDEFINED for v in values
            )
            if lhs_value != rhs_value:
                return Verdict(NOT_EQUAL, combo, lhs_value, rhs_value)
    return Verdict(EQUAL, bounded=True)
