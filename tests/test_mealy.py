"""Core action semantics, classification and constructions.

The concrete expected values were worked out by hand from the transition
tables (each is a short trace; the adding-machine ones are also sanity-checked
by the binary-increment reading) and frozen here.
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autsg import (
    Acceptor,
    AutomatonError,
    Defined,
    MealyAutomaton,
    NotInverseDeterministic,
    ReservedTokenCollision,
    SignedState,
    StateSequence,
    UndefinedAt,
    UnknownLetter,
    UnknownState,
    acceptor_accepts,
    act_step,
    act_word,
    build_gadget,
    check_properties,
    complete_with_zero,
    dual,
    invert,
    minimize,
    union,
)
from autsg.mealy import _Table
from autsg.textio import parse_text, serialize_automaton
from helpers import (
    S,
    W,
    act,
    class_flags,
    rebuilt_with_add,
    rename_letters,
    rename_states,
    renamed,
    stdout_under_hash_seeds,
)

ADDING = build_gadget("adding")
FREE = build_gadget("free")
FREE_PARTIAL = build_gadget("free-partial")
BIREV = build_gadget("bireversible")
D = build_gadget("dual-adding")
DPRIME = build_gadget("dual-adding-prime")


# ---------------------------------------------------------------- act_step


def test_act_step_forward():
    assert act_step(ADDING, "+1", "0") == ("1", SignedState("+0"))
    assert act_step(ADDING, "+1", "1") == ("0", SignedState("+1"))
    assert act_step(ADDING, "+0", "0") == ("0", SignedState("+0"))
    assert act_step(ADDING, "+0", "1") == ("1", SignedState("+0"))


def test_act_step_inverted():
    # ~q consumes the letter that q would emit, and emits what q would read:
    # +1 emits 0 on input 1, so ~+1 maps 1 to 0 while stepping to ~+0?
    # No: the transition emitting "1" is +1 -0/1-> +0, hence ~+1 on input 1
    # yields output 0 and lands in ~+0.
    assert act_step(ADDING, S("~+1")[0], "1") == ("0", SignedState("+0", True))
    assert act_step(ADDING, S("~+1")[0], "0") == ("1", SignedState("+1", True))
    assert act_step(ADDING, S("~+0")[0], "0") == ("0", SignedState("+0", True))
    assert act_step(ADDING, S("~+0")[0], "1") == ("1", SignedState("+0", True))


def test_act_step_partial_returns_none():
    assert act_step(FREE_PARTIAL, "b", "a") is None
    # inverted: nothing out of state a emits "b" in the full free machine
    assert act_step(FREE, S("~a")[0], "b") is None


def test_act_step_inverse_nondeterminism():
    # state a of the free machine emits "a" twice
    with pytest.raises(NotInverseDeterministic):
        act_step(FREE, S("~a")[0], "a")


def test_act_step_validation():
    with pytest.raises(UnknownLetter):
        act_step(ADDING, "+1", "2")
    with pytest.raises(UnknownState):
        act_step(ADDING, "+2", "0")


def test_act_step_checks_the_state_before_the_letter():
    # act_step is act_word on one item and one letter, so with both unknown
    # it names the state, as act_word does
    for act_one in (act_step, lambda aut, q, a: act_word(aut, [q], [a])):
        with pytest.raises(UnknownState, match="'\\+2' is not a state of adding"):
            act_one(ADDING, "+2", "2")


# ---------------------------------------------------------------- act_word


def test_act_word_increments_lsb_first():
    r = act_word(ADDING, ["+1"], "010")
    assert isinstance(r, Defined)
    assert r.output == W("110")  # 2 + 1 = 3, digits least significant first
    assert r.final == S("+0")

    r = act_word(ADDING, ["+1"], "110")
    assert r.output == W("001")  # 3 + 1 = 4
    assert r.final == S("+0")

    r = act_word(ADDING, ["+1"], "111")
    assert r.output == W("000")  # overflow keeps the carry alive
    assert r.final == S("+1")


def test_act_word_inverted_decrements():
    assert act_word(ADDING, S("~+1"), "110").output == W("010")
    assert act_word(ADDING, S("~+1"), "001").output == W("110")


def test_act_word_empty_sequence_is_identity():
    r = act_word(ADDING, [], "0110")
    assert r.output == W("0110")
    assert r.final == StateSequence()


def test_act_word_empty_word():
    r = act_word(ADDING, ["+1"], "")
    assert r.output == ()
    assert r.final == S("+1")


def test_act_word_undefined_index():
    assert act_word(FREE_PARTIAL, S("b", "a"), "aa") == UndefinedAt(0)
    assert act_word(FREE_PARTIAL, S("a", "b"), "ba") == UndefinedAt(1)
    assert act_word(FREE_PARTIAL, ["b"], "ba") == UndefinedAt(1)
    # letters are checked in order: an undefined letter before an unknown one
    assert act_word(FREE_PARTIAL, ["b"], ("a", "x")) == UndefinedAt(0)


def test_act_word_threads_rightmost_first():
    # [0] then the fresh carry: on the dual adder, 0 -a/b-> 1 -a/a-> 0
    assert act_word(D, ["0"], "aa").output == W("ba")
    # two-item sequence: width-2 counter, wraps after four increments
    r = act_word(D, S("0", "0"), "aaaa")
    assert r.output == W("bbba")
    assert r.final == S("0", "0")


def test_act_word_validation():
    with pytest.raises(UnknownState):
        act_word(ADDING, ["nope"], "0")
    with pytest.raises(UnknownLetter):
        act_word(ADDING, ["+1"], "012")
    with pytest.raises(UnknownLetter):
        act_word(ADDING, [], "x")
    with pytest.raises(UnknownLetter):
        act_word(ADDING, S("~+1"), "0x")
    with pytest.raises(NotInverseDeterministic):
        act_word(FREE, [SignedState("a", inverted=True)], "a")


def _outcome(thunk):
    try:
        return thunk()
    except NotInverseDeterministic:
        return NotInverseDeterministic


def test_actions_match_literal_reference():
    # random partial automata, many of them not inverse-deterministic, so
    # both sides must also agree on where an inverse step is ambiguous
    rng = random.Random(2718)
    ambiguous = 0
    for _ in range(400):
        letters = ["x", "y", "z"][: rng.randint(1, 3)]
        states = [f"q{i}" for i in range(rng.randint(1, 3))]
        trans = {
            (q, a): (rng.choice(letters), rng.choice(states))
            for q in states
            for a in letters
            if rng.random() < 0.8
        }
        aut = MealyAutomaton("rand", letters, states, trans)
        seq = StateSequence(
            SignedState(rng.choice(states), rng.random() < 0.5)
            for _ in range(rng.randint(0, 3))
        )
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        expected = _outcome(lambda: act(aut, seq, word))
        assert _outcome(lambda: act_word(aut, seq, word)) == expected
        ambiguous += expected is NotInverseDeterministic
        item, letter = SignedState(rng.choice(states), rng.random() < 0.5), letters[0]
        one = _outcome(lambda: act(aut, [item], [letter]))
        step = _outcome(lambda: act_step(aut, item, letter))
        if isinstance(one, Defined):
            assert step == (one.output[0], one.final[0])
        else:
            assert step == (None if isinstance(one, UndefinedAt) else one)
    assert ambiguous > 20


# ----------------------------------------------------------- classification


def test_properties_adding():
    p = check_properties(ADDING)
    assert p.complete
    assert p.inverse_deterministic and p.inverse_complete
    # +0 receives letter 0 from both states, so not reversible
    assert not p.reversible and not p.bireversible
    assert p.is_s_bar_automaton and p.is_g_automaton


def test_properties_free():
    p = check_properties(FREE)
    assert p.complete
    assert not p.inverse_deterministic  # constant output per state
    assert not p.is_g_automaton

    p = check_properties(FREE_PARTIAL)
    assert not p.complete
    assert not p.inverse_deterministic
    assert not p.is_s_bar_automaton


def test_properties_bireversible_example():
    p = check_properties(BIREV)
    assert not p.complete
    assert not p.inverse_deterministic
    assert not p.inverse_complete
    assert p.reversible
    assert p.bireversible
    assert not p.is_s_bar_automaton
    assert not p.is_g_automaton


def test_properties_dual_adding():
    p = check_properties(D)
    assert p.complete
    assert not p.inverse_deterministic  # state 0 emits b on both letters


# ----------------------------------------------------------------- invert


def test_invert_adding_table():
    inv = invert(ADDING)
    assert inv.states == frozenset({"~+1", "~+0"})
    assert inv.transitions[("~+1", "0")] == ("1", "~+1")
    assert inv.transitions[("~+1", "1")] == ("0", "~+0")
    assert inv.transitions[("~+0", "0")] == ("0", "~+0")
    assert inv.transitions[("~+0", "1")] == ("1", "~+0")


def test_invert_requires_inverse_determinism():
    with pytest.raises(NotInverseDeterministic):
        invert(FREE)
    with pytest.raises(NotInverseDeterministic):
        invert(D)


def test_invert_matches_inverted_item_action():
    # acting with the forward state of the inverted automaton agrees with
    # acting with the inverted item on the original
    for word in ["0", "1", "00", "01", "10", "11", "0110", "111000"]:
        via_item = act_word(ADDING, S("~+1"), word)
        via_inv = act_word(invert(ADDING), ["~+1"], word)
        assert via_item.output == via_inv.output


# ------------------------------------------------------------------ union


def test_union_disjoint_keeps_names():
    u = union(ADDING, D)
    assert u.states == ADDING.states | D.states
    assert u.alphabet == frozenset({"0", "1", "a", "b"})
    assert u.transitions[("+1", "0")] == ("1", "+0")
    assert u.transitions[("0", "a")] == ("b", "1")


def test_union_collision_prefixes():
    u = union(ADDING, ADDING)
    assert u.states == frozenset({"l_+1", "l_+0", "r_+1", "r_+0"})
    assert u.transitions[("l_+1", "0")] == ("1", "l_+0")

    renamed = MealyAutomaton(
        "other", ADDING.alphabet, ADDING.states, ADDING.transitions
    )
    u2 = union(ADDING, renamed)
    assert ("adding_+1", "0") in u2.transitions
    assert ("other_+1", "0") in u2.transitions


def test_union_never_merges_states():
    # prefixed with their names, A's b_x and B's x would both be a_b_x
    a = MealyAutomaton("a", "01", ["x", "b_x"], {("x", "0"): ("0", "b_x")})
    b = MealyAutomaton("a_b", "01", ["x"], {("x", "1"): ("1", "x")})
    u = union(a, b)
    assert u.states == frozenset({"l_x", "l_b_x", "r_x"})
    assert u.transitions == {("l_x", "0"): ("0", "l_b_x"), ("r_x", "1"): ("1", "r_x")}


# ------------------------------------------------------------------- dual


def test_dual_of_adding_is_dual_adding_gadget():
    renamed = rename_letters(dual(ADDING), {"+1": "a", "+0": "b"})
    assert renamed.same_structure(D)


def test_dual_is_involutive():
    for a in (ADDING, FREE, D, BIREV):
        assert dual(dual(a)).same_structure(a)


# ------------------------------------------------------- complete_with_zero


def test_zero_completion_values():
    hat = complete_with_zero(FREE_PARTIAL)
    p = check_properties(hat)
    assert p.complete
    assert hat.states == frozenset({"a", "b", "_zero"})
    assert hat.alphabet == frozenset({"a", "b", "_bot"})
    r = act_word(hat, S("b", "a"), "aa")
    assert r.output == ("_bot", "_bot")
    assert act_word(hat, S("a", "b"), "ba").output == ("a", "_bot")
    # the original behaviour is untouched where it was defined
    assert act_word(hat, ["b"], "bbb").output == W("bbb")


def test_zero_completion_collisions():
    taken_letter = MealyAutomaton("x", ["_bot"], ["q"], {})
    with pytest.raises(ReservedTokenCollision):
        complete_with_zero(taken_letter)
    taken_state = MealyAutomaton("x", ["a"], ["_zero"], {})
    with pytest.raises(ReservedTokenCollision):
        complete_with_zero(taken_state)


# -------------------------------------------------------------- acceptors


def test_acceptor_accepts():
    ab_star_b = Acceptor(
        "endswithb",
        alphabet=("a", "b"),
        states=("i", "f"),
        transitions={("i", "a", "i"), ("i", "b", "f"), ("f", "a", "i"), ("f", "b", "f")},
        initial=("i",),
        final=("f",),
    )
    assert acceptor_accepts(ab_star_b, "b")
    assert acceptor_accepts(ab_star_b, "aab")
    assert not acceptor_accepts(ab_star_b, "")
    assert not acceptor_accepts(ab_star_b, "ba")


def test_acceptor_validation():
    with pytest.raises(ValueError):
        Acceptor("x", ("a",), ("q",), (), (), ())  # no initial state
    with pytest.raises(ValueError):
        Acceptor("x", ("a",), ("q",), {("q", "b", "q")}, ("q",), ())


def test_automaton_validation():
    with pytest.raises(ValueError):
        MealyAutomaton("x", ("a",), ("q",), {("q", "a"): ("a", "missing")})
    with pytest.raises(ValueError):
        MealyAutomaton("x", ("~a",), ("q",), {})  # letters may not start with ~
    # states may: the inverted copy relies on it
    MealyAutomaton("x", ("a",), ("~q",), {})
    # any Unicode whitespace, such as the file separator, is rejected
    for tok in ("q r", "q\x1cr"):
        with pytest.raises(ValueError):
            MealyAutomaton("x", ("a",), (tok,), {})
        with pytest.raises(ValueError):
            MealyAutomaton("x", (tok,), ("q",), {})
    # a bad transition: the first bad entry in insertion order is named, and
    # within one entry its source, then its target, input and output
    good = (("p", "b"), ("b", "q"))
    bad = [
        ((("z", "a"), ("a", "q")), "transition source 'z' is not a declared state"),
        ((("q", "a"), ("a", "z")), "transition target 'z' is not a declared state"),
        ((("q", "c"), ("a", "q")), "transition input 'c' is not in the alphabet"),
        ((("p", "a"), ("c", "q")), "transition output 'c' is not in the alphabet"),
        ((("y", "d"), ("d", "y")), "transition source 'y' is not a declared state"),
        ((("q", "b"), ("d", "y")), "transition target 'y' is not a declared state"),
        ((("p", "d"), ("d", "q")), "transition input 'd' is not in the alphabet"),
    ]
    for entry, message in bad:
        with pytest.raises(ValueError) as exc:
            MealyAutomaton("x", "ab", "qp", dict([good, entry]))
        assert str(exc.value) == message
    for start in range(len(bad)):
        entries = [entry for entry, _ in bad[start:] + bad[:start]]
        with pytest.raises(ValueError) as exc:
            MealyAutomaton("x", "ab", "qp", dict([good, *entries]))
        assert str(exc.value) == bad[start][1]


@pytest.mark.parametrize("bad", ["", "p q", "p\tq", "p\u00a0q", "p\x1cq", 7, None])
def test_state_token_errors_name_the_bad_token(bad):
    # whichever constructor checks the states, one bad name among 50 good
    # ones is named with the per-token message, wherever it stands; a bad
    # letter is still reported before any state
    good = [f"g{i}" for i in range(50)]
    if isinstance(bad, str) and bad:
        message = f"state name may not contain whitespace: {bad!r}"
    else:
        message = f"state name must be a non-empty string, got {bad!r}"
    makers = (
        lambda letters, states: MealyAutomaton("m", letters, states, {}),
        lambda letters, states: MealyAutomaton._of(_Table("m", letters, states)),
        lambda letters, states: Acceptor("z", letters, states, [], ["g0"], []),
    )
    for at in (0, 25, 50):
        states = good[:at] + [bad] + good[at:]
        for make in makers:
            with pytest.raises(ValueError) as exc:
                make(["a", "b"], states)
            assert str(exc.value) == message
            with pytest.raises(ValueError) as exc:
                make(["a", "~b"], states)
            assert str(exc.value) == "letter token may not begin with '~': '~b'"


@pytest.mark.parametrize("bad", [3, None, ("q",)])
def test_a_sequence_item_of_the_wrong_type_is_an_automaton_error(bad):
    # as a token of the wrong type is: one error family for a wrong type
    message = f"sequence item must be SignedState or str, got {bad!r}"
    for make in (lambda: StateSequence([bad]), lambda: act_word(ADDING, ["+0", bad], "0")):
        with pytest.raises(AutomatonError) as exc:
            make()
        assert str(exc.value) == message
    with pytest.raises(AutomatonError, match="must be a non-empty string"):
        MealyAutomaton("m", ["a", bad], ["q"], {})


def test_transitions_do_not_follow_the_dict_they_were_built_from():
    trans = {("q", "a"): ("b", "q"), ("q", "b"): ("a", "p")}
    aut = MealyAutomaton("x", "ab", "qp", trans)
    trans[("q", "a")] = ("a", "p")
    trans[("p", "a")] = ("a", "q")
    del trans[("q", "b")]
    assert dict(aut.transitions) == {("q", "a"): ("b", "q"), ("q", "b"): ("a", "p")}
    assert act_word(aut, ["q"], "ab") == Defined(("b", "a"), S("p"))
    assert act_word(aut, ["q"], "ba") == UndefinedAt(1)


def test_transitions_are_read_only():
    a = build_gadget("adding")
    assert act_word(a, ["+1"], "0") == Defined(("1",), S("+0"))
    with pytest.raises(TypeError):
        a.transitions[("+1", "0")] = ("0", "+1")
    assert act_word(a, ["+1"], "0") == Defined(("1",), S("+0"))


def test_an_automaton_whose_transitions_were_read_pickles_and_copies():
    # the read-only view is made on every read and never kept on the
    # automaton, since a mappingproxy can be neither pickled nor copied; the
    # signed rows built so far go along, an ambiguous step included
    ambiguous = [SignedState("a", True)]
    for aut in (build_gadget("free"), rebuilt_with_add(FREE)):
        assert len(aut.transitions) == 4
        with pytest.raises(NotInverseDeterministic):
            act_word(aut, ambiguous, "a")
        for twin in (pickle.loads(pickle.dumps(aut)), copy.copy(aut), copy.deepcopy(aut)):
            assert twin == aut and aut == twin
            assert dict(twin.transitions) == dict(aut.transitions)
            assert act_word(twin, S("a", "~b"), "ab") == act_word(aut, S("a", "~b"), "ab")
            with pytest.raises(NotInverseDeterministic):
                act_word(twin, ambiguous, "a")


def test_token_errors_do_not_depend_on_string_hashing():
    # several bad tokens: the first one given is the one named, whatever
    # order a set would iterate them in
    script = (
        "from autsg.mealy import Acceptor, MealyAutomaton, _Table\n"
        "from autsg.turing import TuringMachineSpec\n"
        "for make in (\n"
        "    lambda: MealyAutomaton('m', ['~a', '~b', '~c'], ['q'], {}),\n"
        "    lambda: MealyAutomaton('m', ['a'], ['p q', 'r s', 't u'], {}),\n"
        "    lambda: MealyAutomaton._of(_Table('m', ['a'], ['q', 'r s', 'p q'])),\n"
        "    lambda: Acceptor('z', ['~a', '~b', '~c'], ['s'], [], ['s'], []),\n"
        "    lambda: TuringMachineSpec('m', ['_', 'a:b', 'c|d', 'e:f'], '_', ['z'], 'z', [], {}),\n"
        "    lambda: TuringMachineSpec('m', ['_'], '_', ['z:0', 'z|1', 'z:2'], 'z:0', [], {}),\n"
        "):\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    expected = (
        "letter token may not begin with '~': '~a'\n"
        "state name may not contain whitespace: 'p q'\n"
        "state name may not contain whitespace: 'r s'\n"
        "letter token may not begin with '~': '~a'\n"
        "tape symbol may not contain ':' or '|': 'a:b'\n"
        "machine state may not contain ':' or '|': 'z:0'\n"
    )
    assert stdout_under_hash_seeds(["-c", script]) == [expected] * 2


def test_dual_names_the_same_bad_letter_under_every_hash_seed():
    # the states become the dual's letters; none of them may begin with ~
    script = (
        "from autsg.mealy import MealyAutomaton, dual\n"
        "try:\n"
        "    dual(MealyAutomaton('m', ['0'], ['~c', '~b', '~a'], {}))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    expected = "letter token may not begin with '~': '~a'\n"
    assert stdout_under_hash_seeds(["-c", script]) == [expected] * 2


# ---------------------------------------------------------------- minimize


def test_minimize_merges_copies():
    both = union(ADDING, ADDING)
    quotient, class_of = minimize(both)
    assert class_of == {"l_+0": "l_+0", "r_+0": "l_+0", "l_+1": "l_+1", "r_+1": "l_+1"}
    named = rename_states(ADDING, {"+0": "l_+0", "+1": "l_+1"}, name=both.name)
    assert quotient == named


def test_minimize_tells_undefined_apart():
    # p and r loop on a and are undefined on b; s is undefined on both, and
    # t emits on b the letter p emits on a, into s
    aut = MealyAutomaton(
        "u",
        ["a", "b"],
        ["p", "r", "s", "t"],
        {("p", "a"): ("a", "p"), ("r", "a"): ("a", "r"), ("t", "b"): ("a", "s")},
    )
    quotient, class_of = minimize(aut)
    assert class_of == {"p": "p", "r": "p", "s": "s", "t": "t"}
    assert quotient.alphabet == aut.alphabet
    assert dict(quotient.transitions) == {("p", "a"): ("a", "p"), ("t", "b"): ("a", "s")}


def test_minimize_splits_at_every_depth():
    # two copies of a ring of six states on a, where only q0 and r0 emit b:
    # q_i and q_j first differ after min(i, j) letters, and q_i equals r_i
    trans = {}
    for c in "qr":
        for i in range(6):
            trans[(f"{c}{i}", "a")] = ("b" if i == 0 else "a", f"{c}{(i + 1) % 6}")
    aut = MealyAutomaton("ring", ["a", "b"], sorted({q for q, _ in trans}), trans)
    quotient, class_of = minimize(aut)
    assert class_of == {f"{c}{i}": f"q{i}" for c in "qr" for i in range(6)}
    assert dict(quotient.transitions) == {k: v for k, v in trans.items() if k[0][0] == "q"}


def test_minimize_without_letters_or_states():
    quotient, class_of = minimize(MealyAutomaton("e", [], ["q", "p"], {}))
    assert class_of == {"p": "p", "q": "p"} and quotient.states == {"p"}
    quotient, class_of = minimize(MealyAutomaton("e", ["a"], [], {}))
    assert class_of == {} and quotient.states == frozenset()


def test_rows_derive_their_transitions_on_first_read():
    # built through _Table.add, from a dict or by the parser, an automaton
    # keeps only its table until transitions are read, then keeps their dict
    text = serialize_automaton(ADDING)
    for make in (
        lambda: rebuilt_with_add(ADDING),
        lambda: build_gadget("adding"),
        lambda: parse_text(text).automata[ADDING.name],
    ):
        aut = make()
        assert "_transitions" not in vars(aut)
        assert len(aut.transitions) == 4 and "_transitions" in vars(aut)
        assert dict(aut.transitions) == dict(ADDING.transitions)
        assert aut.transitions.copy() == dict(ADDING.transitions)


def test_derived_automata_and_the_serializer_derive_no_transitions():
    # they read the source's cells off its table, so no dict of every cell
    # is left cached on the source for as long as it lives
    for read in (complete_with_zero, dual, lambda a: union(a, a), serialize_automaton):
        source = build_gadget("adding")
        read(source)
        assert "_transitions" not in vars(source)


def test_cells_leave_the_table_sorted_by_name():
    # rebuilt_with_add gives the rows in reverse order; the transitions and
    # the text still come sorted by state and then by letter
    aut = rebuilt_with_add(ADDING)
    assert serialize_automaton(aut) == serialize_automaton(ADDING)
    assert list(aut.transitions) == sorted(aut.transitions)


def test_row_validation():
    # add gives a state first named as a target the next row, undefined;
    # _of checks the tokens of the table it wraps
    table = _Table("x", "ba", ["q"])
    table.add("q", "a", "b", "p")
    assert (table.letters, table.states) == (["a", "b"], ["q", "p"])
    assert (table.outs, table.targets) == ([1, -1, -1, -1], [1, 0, 0, 0])
    aut = MealyAutomaton._of(table)
    assert aut == MealyAutomaton("x", "ab", "qp", {("q", "a"): ("b", "p")})
    assert act_word(aut, ["q"], "ab") == UndefinedAt(1)
    for name, states, bad in (("x", ["q r", "p"], "'q r'"), ("x y", ["q", "p"], "'x y'")):
        with pytest.raises(ValueError, match=f"state name may not contain whitespace: {bad}"):
            MealyAutomaton._of(_Table(name, "ab", states))


def test_route_writes_identity_cells():
    # one cell per letter, each emitting its letter; a target named for the
    # first time gets the next row, undefined; a later write to a cell
    # replaces the earlier one, which build_tm_automaton's re-routing of
    # probe0, probe4 and bump0 relies on
    table = _Table("x", "ab#", ["q"])
    table.route("q", "#ab", "q")
    assert (table.letters, table.outs, table.targets) == (["#", "a", "b"], [0, 1, 2], [0, 0, 0])
    table.route("q", "#", "p")
    assert table.states == ["q", "p"]
    assert (table.outs, table.targets) == ([0, 1, 2, -1, -1, -1], [1, 0, 0, 0, 0, 0])
    table.route("q", "ab", "p")
    assert (table.outs, table.targets) == ([0, 1, 2, -1, -1, -1], [1, 1, 1, 0, 0, 0])
    routed = {("q", a): (a, "p") for a in "ab#"}
    assert MealyAutomaton._of(table) == MealyAutomaton("x", "ab#", "qp", routed)


def test_block_reserves_undefined_rows_under_new_names():
    # each new name gets the next row, undefined; the indices returned are
    # the int objects state_index holds, so targets copied from the list
    # share them; a later add writes into a reserved row
    table = _Table("x", "ab", ["q"])
    rows = table.block(["p", "r"])
    assert rows == [1, 2] and table.states == ["q", "p", "r"]
    assert all(i is table.state_index[q] for i, q in zip(rows, "pr"))
    assert (table.outs, table.targets) == ([-1] * 6, [0] * 6)
    table.add("r", "b", "a", "p")
    assert (table.outs, table.targets) == ([-1] * 5 + [0], [0] * 5 + [1])
    # a name already in the table or repeated in the block would leave two
    # rows under one name: the first such name in the order given is
    # refused, and the table is left as it was
    for names, bad in ((["s", "q", "t", "t"], "q"), (["s", "t", "s", "p"], "s")):
        with pytest.raises(ValueError, match=f"state '{bad}' is named twice in table x"):
            table.block(names)
    assert (table.states, len(table.outs), len(table.state_index)) == (["q", "p", "r"], 6, 3)


def test_equality_copies_no_transitions():
    # same_structure, and with it ==, compares the derived transitions in
    # place; Mapping.__eq__ would copy both into dicts first
    def build():
        states = [f"q{i}" for i in range(1000)]
        trans = {
            (q, a): (b, states[(7 * i + j) % 1000])
            for i, q in enumerate(states)
            for j, (a, b) in enumerate((("0", "1"), ("1", "0")))
        }
        return MealyAutomaton("m", "01", states, trans)

    a, b = build(), build()
    size = sys.getsizeof(a.transitions.copy())  # derives a's dict
    assert b.transitions["q0", "0"] == ("1", "q0")  # and b's
    tracemalloc.start()
    try:
        assert a == b and a.same_structure(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size // 10


# ------------------------------------------------------------ property style


@st.composite
def automata(draw, max_states=4, max_letters=3, complete=False, group=False):
    """Random automata; group=True draws G-automata, each state's outputs a
    permutation of the letters."""
    n_q = draw(st.integers(1, max_states))
    n_a = draw(st.integers(1, max_letters))
    states = [f"q{i}" for i in range(n_q)]
    letters = [f"x{i}" for i in range(n_a)]
    trans = {}
    for q in states:
        outs = draw(st.permutations(letters)) if group else None
        for i, a in enumerate(letters):
            if complete or group or draw(st.booleans()):
                out = outs[i] if group else draw(st.sampled_from(letters))
                nxt = draw(st.sampled_from(states))
                trans[(q, a)] = (out, nxt)
    return MealyAutomaton("rand", letters, states, trans)


@given(automata(), st.data())
def test_action_preserves_length(aut, data):
    seq = StateSequence(
        data.draw(st.lists(st.sampled_from(sorted(aut.states)), max_size=3))
    )
    word = tuple(
        data.draw(st.lists(st.sampled_from(sorted(aut.alphabet)), max_size=6))
    )
    r = act_word(aut, seq, word)
    if isinstance(r, Defined):
        assert len(r.output) == len(word)
        assert len(r.final) == len(seq)
    else:
        assert 0 <= r.index < len(word)


@given(automata(), st.data())
def test_action_splits_over_concatenation(aut, data):
    seq = StateSequence(
        data.draw(st.lists(st.sampled_from(sorted(aut.states)), max_size=3))
    )
    letters = sorted(aut.alphabet)
    u = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=4)))
    v = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=4)))
    whole = act_word(aut, seq, u + v)
    first = act_word(aut, seq, u)
    if isinstance(first, UndefinedAt):
        assert whole == first
        return
    rest = act_word(aut, first.final, v)
    if isinstance(rest, UndefinedAt):
        assert whole == UndefinedAt(len(u) + rest.index)
    else:
        assert isinstance(whole, Defined)
        assert whole.output == first.output + rest.output
        assert whole.final == rest.final


@given(automata())
def test_classification_implications(aut):
    p = check_properties(aut)
    if p.bireversible:
        assert p.reversible
    if p.is_g_automaton:
        assert p.is_s_bar_automaton and p.complete
    if p.inverse_complete:
        assert p.complete and p.inverse_deterministic


@given(automata(), automata(group=True))
def test_class_flags_match_their_definitions(aut, group):
    for automaton in (aut, group):
        report = check_properties(automaton)
        want = class_flags(automaton)
        assert {f.name for f in fields(report)} | {"is_s_bar_automaton"} == set(want)
        assert {flag: getattr(report, flag) for flag in want} == want


@given(automata())
@settings(max_examples=60)
def test_double_inversion_restores(aut):
    p = check_properties(aut)
    if not p.inverse_deterministic:
        with pytest.raises(NotInverseDeterministic):
            invert(aut)
        return
    twice = invert(invert(aut))
    back = rename_states(twice, {q: q[2:] for q in twice.states})
    assert back.same_structure(aut)


@given(automata(max_states=6), st.data())
def test_minimize_keeps_every_action(aut, data):
    quotient, class_of = minimize(aut)
    assert set(class_of) == aut.states and set(class_of.values()) == quotient.states
    assert all(class_of[q] <= q for q in aut.states)
    letters, states = sorted(aut.alphabet), sorted(aut.states)
    words = data.draw(st.lists(st.lists(st.sampled_from(letters), max_size=6), min_size=1, max_size=3))
    seq = data.draw(st.lists(st.tuples(st.sampled_from(states), st.booleans()), max_size=3))
    seqs = [[SignedState(q, inv)] for q in states for inv in (False, True)]
    seqs.append([SignedState(q, inv) for q, inv in seq])
    for items in seqs:
        classes = [SignedState(class_of[i.base], i.inverted) for i in items]
        for word in words:
            got = _outcome(lambda: act_word(quotient, classes, word))
            assert got == renamed(_outcome(lambda: act_word(aut, items, word)), class_of)


@given(automata())
def test_minimize_is_idempotent(aut):
    quotient, _ = minimize(aut)
    again, class_of = minimize(quotient)
    assert again == quotient
    assert class_of == {q: q for q in quotient.states}


@given(automata(), automata(group=True))
def test_minimize_keeps_the_class_flags(aut, group):
    assert check_properties(group).is_g_automaton
    for automaton in (aut, group):
        before = check_properties(automaton)
        after = check_properties(minimize(automaton)[0])
        for flag in ("complete", "inverse_deterministic", "inverse_complete", "is_g_automaton"):
            assert getattr(after, flag) == getattr(before, flag)


@given(automata(), automata(group=True))
def test_automata_rebuilt_from_their_rows_keep_the_contracts(aut, group):
    for automaton in (aut, group):
        rows = rebuilt_with_add(automaton)
        assert rows == automaton and automaton == rows
        assert rows.same_structure(automaton) and automaton.same_structure(rows)
        assert serialize_automaton(rows) == serialize_automaton(automaton)
        with pytest.raises(TypeError):
            rows.transitions[min(rows.states), min(rows.alphabet)] = ("x0", "q0")
        report, want = check_properties(rebuilt_with_add(automaton)), class_flags(automaton)
        assert {flag: getattr(report, flag) for flag in want} == want
        assert dual(dual(rows)).same_structure(rows)
