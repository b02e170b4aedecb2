"""Ready-made example automata and the exponential-separation family.

Five small machines, each interesting for a different reason:

* an adding machine whose carry state increments least-significant-first
  binary words,
* a two-state constant-output machine generating a free semigroup of rank
  two (optionally with one transition removed, making it properly partial),
* a three-state partial machine that is reversible and bireversible without
  being inverse-deterministic,
* the dual of the adding machine (states and letters exchanged), whose
  k-item state sequences behave as a width-k binary counter,
* the same dual extended by a constant state q.

The counter behaviour gives word-problem instances whose shortest witnesses
have length exponential in the sequence length: separation_instance builds
them, and decide finds witnesses of length 2**(n-1) on the n-th.
"""

from __future__ import annotations

import functools
from typing import Callable

from .errors import AutomatonError
from .mealy import MealyAutomaton, StateSequence
from .wordproblem import WordProblemInstance


def _adding_machine() -> MealyAutomaton:
    # +1 adds one (with carry) to a least-significant-digit-first binary
    # word; +0 is the identity it decays to once the carry is absorbed.
    return MealyAutomaton(
        "adding",
        alphabet=("0", "1"),
        states=("+1", "+0"),
        transitions={
            ("+1", "1"): ("0", "+1"),
            ("+1", "0"): ("1", "+0"),
            ("+0", "0"): ("0", "+0"),
            ("+0", "1"): ("1", "+0"),
        },
    )


def _free_semigroup(partial: bool) -> MealyAutomaton:
    # State x emits x constantly and moves to the state named by its input,
    # so a state sequence acting on a long enough word spells itself out.
    trans = {
        ("a", "a"): ("a", "a"),
        ("a", "b"): ("a", "b"),
        ("b", "b"): ("b", "b"),
        ("b", "a"): ("b", "a"),
    }
    name = "free"
    if partial:
        del trans[("b", "a")]
        name = "free-partial"
    return MealyAutomaton(name, alphabet=("a", "b"), states=("a", "b"), transitions=trans)


def _bireversible_example() -> MealyAutomaton:
    # Two transitions out of r with equal outputs: reversible and
    # bireversible yet not inverse-deterministic.
    return MealyAutomaton(
        "bireversible",
        alphabet=("a", "b", "c"),
        states=("r", "s", "t"),
        transitions={
            ("r", "a"): ("b", "s"),
            ("r", "c"): ("b", "t"),
        },
    )


def _dual_adding(prime: bool) -> MealyAutomaton:
    # Dual of the adding machine under the renaming +1 -> a, +0 -> b.
    # On input a, state 0 flips to 1 emitting b; state 1 flips to 0 emitting
    # a (the carry). Input b is the identity everywhere.
    trans = {
        ("0", "a"): ("b", "1"),
        ("0", "b"): ("b", "0"),
        ("1", "a"): ("a", "0"),
        ("1", "b"): ("b", "1"),
    }
    states = ["0", "1"]
    name = "dual-adding"
    if prime:
        states.append("q")
        trans[("q", "a")] = ("b", "q")
        trans[("q", "b")] = ("b", "q")
        name = "dual-adding-prime"
    return MealyAutomaton(name, alphabet=("a", "b"), states=states, transitions=trans)


# CLI-facing names. Keys double as the generated automata's names.
GADGET_NAMES: dict[str, Callable[[], MealyAutomaton]] = {
    "adding": _adding_machine,
    "free": functools.partial(_free_semigroup, False),
    "free-partial": functools.partial(_free_semigroup, True),
    "bireversible": _bireversible_example,
    "dual-adding": functools.partial(_dual_adding, False),
    "dual-adding-prime": functools.partial(_dual_adding, True),
}


def build_gadget(name: str) -> MealyAutomaton:
    """Construct the example automaton called name, a GADGET_NAMES key."""
    if name not in GADGET_NAMES:
        raise AutomatonError(f"unknown gadget {name!r}; expected one of {sorted(GADGET_NAMES)}")
    return GADGET_NAMES[name]()


def counter_sequence(value: int, width: int) -> StateSequence:
    """The width-item dual-adding sequence encoding value, least significant
    digit rightmost (the rightmost item acts first, so acting on letter a
    increments)."""
    if not 0 <= value < 2**width:
        raise AutomatonError(f"value {value} does not fit in {width} digits")
    digits = [str((value >> i) & 1) for i in range(width)]
    return StateSequence(reversed(digits))


def separation_instance(name: str, n: int) -> WordProblemInstance:
    """The n-th exponential-separation instance on a dual-adding gadget,
    whose shortest witness is a**(2**(n-1)). On dual-adding it is n copies
    of state 0 against n-1: width-n and width-(n-1) counters, which first
    disagree when the narrow one overflows. On dual-adding-prime it is n-1
    copies of state 0 against the constant state q: q always emits b, and
    the counter first emits a when it overflows."""
    if n < 1:
        raise AutomatonError("n must be >= 1")
    if name == "dual-adding":
        lhs, rhs = ["0"] * n, ["0"] * (n - 1)
    elif name == "dual-adding-prime":
        lhs, rhs = ["0"] * (n - 1), ["q"]
    else:
        raise AutomatonError(
            f"separation instances exist only for the dual-adding gadgets, not {name!r}"
        )
    return WordProblemInstance(build_gadget(name), lhs, rhs)

