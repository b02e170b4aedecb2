"""Shared test utilities."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import autsg
from autsg import (
    Acceptor,
    Defined,
    MealyAutomaton,
    NotInverseDeterministic,
    SignedState,
    StateSequence,
    TuringMachineSpec,
    UndefinedAt,
    WordProblemInstance,
    decide,
)
from autsg.mealy import _Table

# Stays put forever, no final states; z1 exists only to make the cell
# alphabet six tokens wide.
LOOPER = TuringMachineSpec(
    "looper",
    ["_", "a"],
    "_",
    ["z0", "z1"],
    "z0",
    [],
    {("z0", "_"): ("_", "z0", "N"), ("z0", "a"): ("a", "z0", "N")},
)

# Walks right over the input and accepts on the first blank.
SCANNER = TuringMachineSpec(
    "scan",
    ["_", "a"],
    "_",
    ["z0", "zf"],
    "z0",
    ["zf"],
    {("z0", "a"): ("a", "z0", "R"), ("z0", "_"): ("_", "zf", "N")},
)

# One blank, one state, accepting at once: a 155-state reduction automaton.
TINY = TuringMachineSpec("tiny", ["_"], "_", ["z"], "z", ["z"], {})

# Cell alphabets Delta of 3, 4 and 5 tokens (plain symbols plus one head
# token per symbol and state), where Scanner and Looper both have 6: an
# index into the checker family that depends on |Delta| shows at these.
FLIP = TuringMachineSpec(
    "flip", ["_"], "_", ["z0", "z1"], "z0", ["z1"], {("z0", "_"): ("_", "z1", "N")}
)
SWAP = TuringMachineSpec(
    "swap",
    ["_", "a"],
    "_",
    ["z"],
    "z",
    [],
    {("z", "a"): ("_", "z", "R"), ("z", "_"): ("a", "z", "L")},
)
COUNT = TuringMachineSpec(
    "count",
    ["_"],
    "_",
    ["z0", "z1", "z2", "z3"],
    "z0",
    ["z3"],
    {
        ("z0", "_"): ("_", "z1", "R"),
        ("z1", "_"): ("_", "z2", "L"),
        ("z2", "_"): ("_", "z3", "N"),
    },
)
SMALL_DELTA_MACHINES = (FLIP, SWAP, COUNT)


def W(s: str) -> tuple[str, ...]:
    """Word shorthand for single-character alphabets: W("010") == ("0","1","0")."""
    return tuple(s)


def S(*items) -> StateSequence:
    """Sequence shorthand. A leading ~ on a string marks inversion:
    S("+1", "~+0") has a forward +1 and an inverted +0."""
    out = []
    for it in items:
        if isinstance(it, SignedState):
            out.append(it)
        elif it.startswith("~"):
            out.append(SignedState(it[1:], inverted=True))
        else:
            out.append(SignedState(it))
    return StateSequence(out)


def random_dfa(rng: random.Random, name: str, max_states: int = 4) -> Acceptor:
    """A complete DFA over {0,1} of one to max_states states."""
    n = rng.randint(1, max_states)
    states = [f"{name}s{i}" for i in range(n)]
    trans = {(q, a, rng.choice(states)) for q in states for a in ("0", "1")}
    finals = [q for q in states if rng.random() < 0.4]
    return Acceptor(name, ("0", "1"), states, trans, (states[0],), finals)


def acceptance_dfa(
    rng: random.Random, name: str, max_states: int, final_prob: float
) -> Acceptor:
    """A complete DFA over {0,1} of one to max_states states, each final
    with probability final_prob: the draw of acceptance criteria 5 and 6."""
    m = rng.randint(1, max_states)
    states = [f"s{j}" for j in range(m)]
    trans = {(q, a, rng.choice(states)) for q in states for a in ("0", "1")}
    final = [q for q in states if rng.random() < final_prob]
    return Acceptor(name, ("0", "1"), states, trans, [states[0]], final)


def rebuilt_with_add(automaton: MealyAutomaton) -> MealyAutomaton:
    """The automaton rebuilt cell by cell through _Table.add, its states
    declared in reverse-sorted order, so not in the order the dict
    constructor gives them."""
    table = _Table(automaton.name, automaton.alphabet, sorted(automaton.states, reverse=True))
    for (q, a), (b, p) in automaton.transitions.items():
        table.add(q, a, b, p)
    return MealyAutomaton._of(table)


def assert_built_as_from_a_dict(inst: WordProblemInstance) -> None:
    """inst's automaton, which a construction filled through a _Table, has
    the structure the dict constructor gives its transitions, and the two
    decide inst alike."""
    aut = inst.automaton
    again = MealyAutomaton(aut.name, aut.alphabet, aut.states, dict(aut.transitions))
    assert aut.same_structure(again) and again.same_structure(aut)
    assert decide(WordProblemInstance(again, inst.lhs, inst.rhs, inst.constraints)) == decide(inst)


def act(automaton: MealyAutomaton, seq, word) -> Defined | UndefinedAt:
    """Literal reference for act_word on known states and letters: reads
    automaton.transitions directly and scans the alphabet for the unique
    transition an inverted item runs backwards."""
    items, out = list(seq), []
    for idx, letter in enumerate(word):
        for i in range(len(items) - 1, -1, -1):
            q, inverted = items[i].base, items[i].inverted
            hits = [automaton.transitions.get((q, letter))]
            if inverted:
                hits = [
                    (a, t[1])
                    for a in automaton.alphabet
                    if (t := automaton.transitions.get((q, a))) and t[0] == letter
                ] or [None]
            if len(hits) > 1:
                raise NotInverseDeterministic(f"~{q} on {letter}")
            if hits[0] is None:
                return UndefinedAt(idx)
            letter, p = hits[0]
            items[i] = SignedState(p, inverted)
        out.append(letter)
    return Defined(tuple(out), StateSequence(items))


def class_flags(automaton: MealyAutomaton) -> dict[str, bool]:
    """Literal reference for check_properties: every flag, is_s_bar_automaton
    included, by its definition in check_properties' docstring, checked
    state by state on the transitions out of and into each state."""
    trans, letters = automaton.transitions, automaton.alphabet
    complete = inv_det = inv_complete = reversible = birev_half = True
    for q in automaton.states:
        outputs = [trans[q, a][0] for a in letters if (q, a) in trans]
        complete &= len(outputs) == len(letters)
        inv_det &= len(set(outputs)) == len(outputs)
        inv_complete &= set(outputs) == letters
        incoming = [(a, b) for (_s, a), (b, p) in trans.items() if p == q]
        reversible &= len({a for a, _b in incoming}) == len(incoming)
        birev_half &= len({b for _a, b in incoming}) == len(incoming)
    return {
        "complete": complete,
        "inverse_deterministic": inv_det,
        "inverse_complete": inv_complete,
        "reversible": reversible,
        "bireversible": reversible and birev_half,
        "is_s_bar_automaton": inv_det,
        "is_g_automaton": complete and inv_det,
    }


def rename_letters(
    automaton: MealyAutomaton, mapping: dict[str, str], name: str | None = None
) -> MealyAutomaton:
    """Rename alphabet letters through mapping (must cover the alphabet)."""
    trans = {
        (q, mapping[a]): (mapping[b], p)
        for (q, a), (b, p) in automaton.transitions.items()
    }
    return MealyAutomaton(
        name or automaton.name,
        {mapping[a] for a in automaton.alphabet},
        automaton.states,
        trans,
    )


def rename_states(
    automaton: MealyAutomaton, mapping: dict[str, str], name: str | None = None
) -> MealyAutomaton:
    trans = {
        (mapping[q], a): (b, mapping[p])
        for (q, a), (b, p) in automaton.transitions.items()
    }
    return MealyAutomaton(
        name or automaton.name,
        automaton.alphabet,
        {mapping[q] for q in automaton.states},
        trans,
    )


def renamed(outcome, class_of: dict[str, str]):
    """An action's outcome with the states of a Defined result's final
    sequence renamed through class_of; any other outcome as it is."""
    if not isinstance(outcome, Defined):
        return outcome
    final = [SignedState(class_of[s.base], s.inverted) for s in outcome.final]
    return Defined(outcome.output, StateSequence(final))


def autsg_env(**extra: str) -> dict[str, str]:
    """The environment with extra set and this checkout's src/ first on
    PYTHONPATH, so that a subprocess imports the autsg under test."""
    src = str(Path(autsg.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def stdout_under_hash_seeds(argv: list[str], seeds=("1", "4")) -> list[str]:
    """The stdout of `python argv...` once per PYTHONHASHSEED, with this
    checkout's autsg importable. Seeds 1 and 4 iterate small string sets in
    different orders."""
    outputs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            env=autsg_env(PYTHONHASHSEED=seed),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs
