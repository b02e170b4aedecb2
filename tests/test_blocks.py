"""The search on long sides, which steps blocks of signed states.

When a side has more than _BLOCK items, the search threads letters on the
automaton's power table: each side is cut into blocks of up to _BLOCK
signed states from the right, and a block's cell for a letter (its output
and its next block) is built by _thread on the base table the first time
the block reads that letter. Verdicts must not notice: decide is compared
here with the literal enumeration and every witness is replayed through
act_word. The two properties the search relies on are checked directly:
blocks are cut from the right, so sides that end alike end in the same
block ids, and a block gets a cell only for a letter it has read.
"""

from __future__ import annotations

import random

import pytest

from autsg import (
    Acceptor,
    Defined,
    MealyAutomaton,
    SignedState,
    WordProblemInstance,
    acceptor_accepts,
    act_word,
    check_properties,
    decide,
    oracle_decide,
)
from autsg.errors import ConfigBudgetExceeded, NotInverseDeterministic
from autsg.mealy import _BLOCK, _DEFERRED, _PowerTable, _sides, _thread
from autsg.wordproblem import EQUAL, NOT_EQUAL, UNDEFINED

ORACLE_LEN = 4
BUDGET = 4000


def _automaton(rng: random.Random) -> MealyAutomaton:
    """A random partial automaton, or, half the time, one whose states
    permute the letters, so that long sides still act in many ways."""
    states = [f"q{i}" for i in range(rng.randint(1, 3))]
    letters = list("xyz"[: rng.randint(1, 3)])
    permuting = rng.random() < 0.5
    trans = {}
    for q in states:
        outs = (rng.sample if permuting else rng.choices)(letters, k=len(letters))
        for a, b in zip(letters, outs):
            if permuting or rng.random() < 0.8:
                trans[q, a] = (b, rng.choice(states))
    return MealyAutomaton("rand", letters, states, trans)


def _constraint(rng: random.Random, letters, name: str) -> Acceptor:
    states = [f"s{i}" for i in range(rng.randint(1, 3))]
    trans = {(q, a, rng.choice(states)) for q in states for a in letters if rng.random() < 0.8}
    return Acceptor(name, letters, states, trans, [states[0]], rng.sample(states, 1))


def _instance(rng: random.Random, shape: str) -> WordProblemInstance:
    """A random instance with at least one side longer than _BLOCK: two
    random sides, an empty side against a long one, or two sides that end
    in the same suffix."""
    aut = _automaton(rng)
    states = sorted(aut.states)
    inverse = check_properties(aut).inverse_deterministic

    def items(n: int) -> list[SignedState]:
        return [
            SignedState(rng.choice(states), inverse and rng.random() < 0.3) for _ in range(n)
        ]

    long = items(rng.randint(_BLOCK + 1, 24))
    if shape == "empty":
        lhs, rhs = [], long
    elif shape == "suffix":
        cut = rng.randint(0, len(long))
        lhs, rhs = long, items(rng.randint(0, 24 - len(long) + cut)) + long[cut:]
    else:
        lhs, rhs = long, items(rng.randint(0, 24))
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    letters = sorted(aut.alphabet)
    constraints = [_constraint(rng, letters, f"c{i}") for i in range(rng.randint(0, 2))]
    return WordProblemInstance(aut, lhs, rhs, constraints)


def _value(result):
    return result.output if isinstance(result, Defined) else UNDEFINED


def _built(power: _PowerTable) -> int:
    """How many cells the rows of power hold, not deferred to power.cell."""
    return sum(cell is not _DEFERRED for row in power.rows for cell in row)


def _check_blocks(inst: WordProblemInstance, rng: random.Random) -> None:
    """The sides as the search starts them: cut from the right, numbered
    one to one, and stepped on cells built only for the letters read."""
    base = inst.automaton._table
    power, lhs, rhs = _sides(base, inst.lhs, inst.rhs)
    assert isinstance(power, _PowerTable)
    signed = [[base.signed(item) for item in side] for side in (inst.lhs, inst.rhs)]
    for side, items in zip((lhs, rhs), signed):
        blocks = [power.blocks[s] for s in side]
        assert [s for block in blocks for s in block] == items
        assert all(len(block) == _BLOCK for block in blocks[1:])
        assert all(0 < len(block) <= _BLOCK for block in blocks)
    if lhs and rhs:
        assert (lhs[-1] == rhs[-1]) == (signed[0][-_BLOCK:] == signed[1][-_BLOCK:])
    # thread a word on both tables side by side
    sides = [[list(lhs), list(items)] for lhs, items in zip((lhs, rhs), signed)]
    assert _built(power) == 0  # no cell before a letter is read
    for _ in range(6):
        a = rng.randrange(base.width)
        built = _built(power)
        stepped = 0
        for side in sides:
            blocks, items = side
            if blocks is None:
                continue
            stepped += len(blocks)
            out = _thread(power, blocks, a)
            assert out == _thread(base, items, a)
            if out is None:
                side[0] = None
            else:
                assert [s for b in blocks for s in power.blocks[b]] == items
        assert _built(power) - built <= stepped


def test_long_sides_agree_with_the_literal_enumeration():
    rng = random.Random(2024)
    decided = witnesses = short = 0
    for i in range(600):
        inst = _instance(rng, ("random", "empty", "suffix")[i % 3])
        _check_blocks(inst, rng)
        try:
            verdict = decide(inst, max_configs=BUDGET)
        except ConfigBudgetExceeded:
            continue
        decided += 1
        naive = oracle_decide(inst, ORACLE_LEN, naive=True)
        if verdict.kind == NOT_EQUAL:
            witnesses += 1
            w = verdict.witness
            values = [_value(act_word(inst.automaton, side, w)) for side in (inst.lhs, inst.rhs)]
            assert values == [verdict.lhs_value, verdict.rhs_value]
            assert values[0] != values[1]
            assert all(acceptor_accepts(acc, w) for acc in inst.constraints)
        if verdict.kind == NOT_EQUAL and len(verdict.witness) <= ORACLE_LEN:
            short += 1
            assert naive == verdict
        else:
            assert naive.kind == EQUAL and naive.bounded
    assert decided > 580 and witnesses > 150 and short > 150


def test_an_ambiguous_step_in_a_block_names_the_base_state():
    # ~q reads b as q's b -> b, and a as q's a -> a into ~p; p emits a on
    # both letters, so ~p is undefined on a
    reach = MealyAutomaton(
        "reach",
        ("a", "b"),
        ("q", "p"),
        {
            ("q", "a"): ("a", "p"),
            ("q", "b"): ("b", "q"),
            ("p", "a"): ("a", "p"),
            ("p", "b"): ("a", "p"),
        },
    )
    table = reach._table
    items = [table.signed(SignedState("q"))] * 8 + [table.signed(SignedState("q", True))]
    power = _PowerTable(table)
    blocks = list(power.cut(tuple(items)))
    for a in (1, 0):  # b, then a
        assert _thread(power, blocks, a) == _thread(table, items, a)
    for _ in range(2):  # the step raises each time: no cell is kept for it
        with pytest.raises(NotInverseDeterministic, match="state 'p' of reach emits 'a'"):
            _thread(power, blocks, 0)
