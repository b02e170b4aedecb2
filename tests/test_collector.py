"""The cyclic garbage collector around the entry points that pause it.

parse_file, parse_text and the search behind decide and oracle_decide keep
many new containers alive while they run, so they run with the collector
paused, and leave it as they found it, whether they return or raise. The
rest runs unpaused: build_tm_automaton, the MealyAutomaton constructor and
check_properties fill and read lists of ints, which the collector does not
track, so on the machine tables they start no collection. minimize starts
none either: it keeps one tuple key per class and frees the others as it
makes them. A pause around the transitions derived from a table would only
defer its collections to the next allocation. The search leaves no
reference cycle behind, so what it built is freed when it returns.
"""

import gc
from contextlib import contextmanager

import pytest
from helpers import SCANNER, TINY, rebuilt_with_add

from autsg import cli, gadgets, mealy, reductions, textio, turing, wordproblem
from autsg.errors import ConfigBudgetExceeded, ParseError
from autsg.gadgets import build_gadget, separation_instance
from autsg.mealy import MealyAutomaton, _gc_paused, _Table, check_properties, minimize
from autsg.textio import parse_file, parse_text, serialize_automaton
from autsg.turing import TmReductionParams, build_tm_automaton
from autsg.wordproblem import WordProblemInstance, _search, decide, oracle_decide

ADDING = build_gadget("adding")
# 2,000 states in a ring over two letters: enough objects that building them
# with the collector on starts several collections, even in check_properties,
# whose pair sets CPython can fill with up to 2,000 recycled 2-tuples that
# the collector does not count
RING_DICT = {(f"q{i}", a): (a, f"q{(i + 1) % 2000}") for i in range(2000) for a in "ab"}
RING = MealyAutomaton("ring", ["a", "b"], [f"q{i}" for i in range(2000)], RING_DICT)
RING_TEXT = serialize_automaton(RING)
# the same ring on a, but only q0 emits b: no two states act alike, so each
# round of minimize keeps a key per state
SPIRAL = MealyAutomaton(
    "spiral",
    ["a", "b"],
    [f"q{i}" for i in range(2000)],
    {(f"q{i}", "a"): ("b" if i == 0 else "a", f"q{(i + 1) % 2000}") for i in range(2000)},
)


SPIRAL_ROWS = rebuilt_with_add(SPIRAL)
TINY_GROUP = TmReductionParams(p_val=1, group_variant=True)
SCANNER_GROUP = TmReductionParams(p_val=3, input_word=("a", "a"), group_variant=True)
SEPARATION = separation_instance("dual-adding", 9)
SCANNER_TABLE = build_tm_automaton(SCANNER, SCANNER_GROUP)


@contextmanager
def _collector(on: bool):
    """Switch the collector on or off, and back to what it was after."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield on
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    with _collector(request.param) as on:
        yield on


CALLS = {
    "parse_text": lambda: parse_text(RING_TEXT),
    "build_tm_automaton": lambda: build_tm_automaton(TINY, TINY_GROUP),
    "check_properties": lambda: check_properties(RING),
    "minimize": lambda: minimize(RING),
    "minimize (rows)": lambda: minimize(SPIRAL_ROWS),
    "transitions (rows)": lambda: rebuilt_with_add(RING).transitions.copy(),
    "decide": lambda: decide(WordProblemInstance(ADDING, ["+1"], ["+0"])),
    "oracle_decide": lambda: oracle_decide(WordProblemInstance(ADDING, ["+1"], ["+1"]), 4),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_collector_state_is_restored(collector, call):
    call()
    assert gc.isenabled() is collector


def test_collector_state_is_restored_on_raise(collector):
    with pytest.raises(ParseError):
        parse_text("mealy m\nalphabet a\nstates q\nt q a a zz\nend\n")
    assert gc.isenabled() is collector
    with pytest.raises(ConfigBudgetExceeded):
        decide(SEPARATION, max_configs=3)
    assert gc.isenabled() is collector


def _collections_during(call) -> int:
    """How many collections start before call() returns, counted from an
    empty young generation, so that what earlier tests left behind does not
    decide whether call() starts one."""
    starts = []

    def count(phase, _info):
        if phase == "start":
            starts.append(phase)

    gc.collect()
    gc.callbacks.append(count)
    try:
        call()
        return len(starts)
    finally:
        gc.callbacks.remove(count)


PAUSED = {
    "parse_text": (parse_text, (RING_TEXT,)),
    "search": (_search, (SEPARATION, None, None)),
}


@pytest.mark.parametrize("fn,args", PAUSED.values(), ids=PAUSED.keys())
def test_no_collection_runs_inside_the_entry_points(fn, args):
    with _collector(True):
        # the same work unpaused starts collections, so the input is big enough
        assert _collections_during(lambda: fn.__wrapped__(*args)) > 0
        assert _collections_during(lambda: fn(*args)) == 0


# built here, so that the case below counts check_properties alone and not
# the transitions dict of RING, which only the first test to read it derives
RING_AFRESH = MealyAutomaton("ring", RING.alphabet, RING.states, RING_DICT)
UNPAUSED = {
    # the 21k-state automaton and its Moore quotient, the 2,000-state ring's
    # table filled from a dict, and the flags of a ring built afresh
    "build_tm_automaton": lambda: build_tm_automaton(SCANNER, SCANNER_GROUP),
    "minimize": lambda: minimize(SCANNER_TABLE),
    "MealyAutomaton": lambda: MealyAutomaton("ring", RING.alphabet, RING.states, RING_DICT),
    "check_properties": lambda: check_properties(RING_AFRESH),
}


@pytest.mark.parametrize("call", UNPAUSED.values(), ids=UNPAUSED.keys())
def test_no_collection_runs_inside_the_table_builders(call):
    with _collector(True):
        assert _collections_during(call) == 0


@pytest.mark.parametrize("n", [10, 16])
def test_a_blocked_search_leaves_nothing_for_the_collector(n):
    # the search steps these sides in blocks; the power table and its rows
    # hold no reference cycle, so reference counting frees them all
    with _collector(False):
        gc.collect()
        decide(separation_instance("dual-adding", n))
        assert gc.collect() == 0


def test_the_pause_wraps_exactly_the_entry_points_that_pay():
    paused = _gc_paused(lambda: None).__code__
    wrapped = {
        name
        for module in (cli, gadgets, mealy, reductions, textio, turing, wordproblem)
        for scope in (module, *(v for v in vars(module).values() if isinstance(v, type)))
        for name, fn in vars(scope).items()
        if getattr(fn, "__code__", None) is paused
    }
    assert wrapped == {"parse_file", "parse_text", "_search"}
    assert all(hasattr(fn, "__wrapped__") for fn in (parse_file, parse_text, _search))
    assert not any(hasattr(fn, "__wrapped__") for fn in (minimize, _Table.cells))


def test_pause_nests_and_refuses_generators():
    @_gc_paused
    def outer():
        inner_state = inner()
        return inner_state, gc.isenabled()

    @_gc_paused
    def inner():
        return gc.isenabled()

    with _collector(True):
        assert outer() == (False, False)
        assert gc.isenabled()

    def gen():
        yield 1

    with pytest.raises(TypeError):
        _gc_paused(gen)
