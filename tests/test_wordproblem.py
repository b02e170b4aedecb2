"""Constrained word-problem decisions.

decide() is exercised against hand-traced verdicts and against the bounded
reference oracle, whose naive mode really is the literal length-then-lex
enumeration, so agreement between the three pins the semantics down from
independent directions.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autsg import (
    Acceptor,
    AutomatonError,
    ConfigBudgetExceeded,
    Defined,
    EQUAL,
    MealyAutomaton,
    NOT_EQUAL,
    NotInverseDeterministic,
    SignedState,
    UNDEFINED,
    Verdict,
    WordProblemInstance,
    acceptor_accepts,
    act_word,
    build_gadget,
    check_properties,
    complete_with_zero,
    config_bound,
    decide,
    minimize,
    oracle_decide,
    separation_instance,
    union,
)
from autsg.mealy import BOTTOM_LETTER
from autsg.reductions import DfaList, reduce_dfa_emptiness, reduce_dfa_intersection
from autsg.turing import TmReductionParams, _reduce_quotient
from helpers import SCANNER, S, W, random_dfa, rename_states

ADDING = build_gadget("adding")
FREE_PARTIAL = build_gadget("free-partial")
D = build_gadget("dual-adding")


def b_star() -> Acceptor:
    return Acceptor(
        "bstar",
        alphabet=("a", "b"),
        states=("s",),
        transitions={("s", "b", "s")},
        initial=("s",),
        final=("s",),
    )


# ------------------------------------------------------------------ decide


def test_decide_equal_terminates_on_partial():
    inst = WordProblemInstance(FREE_PARTIAL, S("b", "b"), S("b"))
    v = decide(inst)
    assert v.kind == EQUAL
    assert not v.bounded
    assert v.witness is None


def test_decide_defined_vs_undefined_witness():
    inst = WordProblemInstance(FREE_PARTIAL, S("b"), S("a"))
    v = decide(inst)
    assert v.kind == NOT_EQUAL
    assert v.witness == W("a")
    assert v.lhs_value is UNDEFINED
    assert v.rhs_value == W("a")


def test_decide_diverging_outputs_witness():
    inst = WordProblemInstance(D, S("0", "0"), S("0"))
    v = decide(inst)
    assert v.kind == NOT_EQUAL
    assert v.witness == W("aa")
    assert v.lhs_value == W("bb")
    assert v.rhs_value == W("ba")


def test_decide_constraint_masks_difference():
    # 0 and 1 differ on words containing a, but act as the identity on b*
    inst = WordProblemInstance(D, S("0"), S("1"), [b_star()])
    assert decide(inst).kind == EQUAL
    # without the constraint they differ immediately
    v = decide(WordProblemInstance(D, S("0"), S("1")))
    assert v.kind == NOT_EQUAL
    assert v.witness == W("a")


def test_decide_identity_compositions():
    # an inverted item cancels its forward neighbour in both orders
    for seq in (S("~+1", "+1"), S("+1", "~+1")):
        v = decide(WordProblemInstance(ADDING, seq, S()))
        assert v.kind == EQUAL


def test_decide_same_sequence_equal():
    v = decide(WordProblemInstance(ADDING, S("+1"), S("+1")))
    assert v.kind == EQUAL


def test_decide_witness_is_length_lex_least():
    # the shortest witness is unique here; check lex among equal length by
    # brute force below in the oracle agreement tests
    inst = WordProblemInstance(ADDING, S("+1"), S("+0"))
    v = decide(inst)
    assert v.witness == W("0")


def test_decide_budget():
    inst = WordProblemInstance(D, S("0", "0", "0"), S("0", "0"))
    with pytest.raises(ConfigBudgetExceeded) as exc:
        decide(inst, max_configs=3)
    # how far the search got: configurations stored and depth reached
    assert (exc.value.configs, exc.value.depth) == (4, 3)
    assert "4 stored, depth 3 reached" in str(exc.value)
    # a generous cap changes nothing
    v = decide(inst, max_configs=10_000)
    assert v.kind == NOT_EQUAL
    assert len(v.witness) == 4

    # the cap counts explored configurations, so a search that finishes
    # within it is unaffected even at the exact boundary
    tight = WordProblemInstance(FREE_PARTIAL, S("b", "b"), S("b"))
    assert decide(tight, max_configs=1).kind == EQUAL


@pytest.mark.parametrize("budget", [0, -5])
def test_decide_rejects_a_budget_below_one(budget):
    inst = WordProblemInstance(D, S("0", "0", "0"), S("0", "0"))
    with pytest.raises(ValueError, match="max_configs must be >= 1"):
        decide(inst, max_configs=budget)


def test_undefined_survives_copy_and_pickle():
    v = decide(WordProblemInstance(FREE_PARTIAL, S("b"), S("a")))
    assert v.lhs_value is UNDEFINED
    for again in (copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert again == v
        assert again.lhs_value is UNDEFINED
    assert repr(UNDEFINED) == str(UNDEFINED) == "Undefined"


def test_instance_validation():
    with pytest.raises(ValueError):
        WordProblemInstance(ADDING, S("nope"), S())
    other_alphabet = Acceptor(
        "x", ("0",), ("s",), {("s", "0", "s")}, ("s",), ("s",)
    )
    with pytest.raises(ValueError):
        WordProblemInstance(ADDING, S("+1"), S(), [other_alphabet])


# ------------------------------------------------------------ config_bound


def test_config_bound_values():
    assert config_bound(WordProblemInstance(D, S("0", "0"), S("0"))) == 54
    assert config_bound(WordProblemInstance(ADDING, S("+1"), S())) == 6
    assert config_bound(WordProblemInstance(ADDING, S(), S())) == 2
    two_state_constraint = Acceptor(
        "c", ("0", "1"), ("x", "y"), {("x", "0", "y")}, ("x",), ("y",)
    )
    assert (
        config_bound(WordProblemInstance(ADDING, S("+1"), S(), [two_state_constraint]))
        == 6 * 4
    )


def test_decide_explores_at_most_config_bound():
    inst = WordProblemInstance(D, S("0", "0"), S("0"))
    # must terminate within the bound; no exception means the cap held
    v = decide(inst, max_configs=config_bound(inst))
    assert v.kind == NOT_EQUAL


# ------------------------------------------------------------------ oracle


def test_oracle_bounded_equal_flag():
    inst = WordProblemInstance(D, S("0", "0"), S("0"))
    v = oracle_decide(inst, max_len=1)
    assert v.kind == EQUAL
    assert v.bounded
    v = oracle_decide(inst, max_len=2)
    assert v.kind == NOT_EQUAL
    assert v.witness == W("aa")


def test_oracle_naive_matches_default_mode():
    inst = WordProblemInstance(D, S("0", "0"), S("0"))
    for max_len in range(4):
        a = oracle_decide(inst, max_len)
        b = oracle_decide(inst, max_len, naive=True)
        assert (a.kind, a.witness) == (b.kind, b.witness)
        assert (a.lhs_value, a.rhs_value) == (b.lhs_value, b.rhs_value)


def test_oracle_rejects_negative_bound():
    with pytest.raises(ValueError):
        oracle_decide(WordProblemInstance(ADDING, S(), S()), -1)


@pytest.mark.parametrize(
    "bound,kind", [("3", "str"), (2.5, "float"), (True, "bool"), (False, "bool")]
)
def test_bounds_that_are_not_ints_are_rejected(bound, kind):
    # unchecked, a str reaches a comparison and raises TypeError, a bool
    # passes as 1 or 0, and a float cuts the search at the next int up
    inst = WordProblemInstance(D, S("0", "0", "0"), S("0", "0"))
    with pytest.raises(AutomatonError, match=f"^max_configs must be an int, not {kind}$"):
        decide(inst, max_configs=bound)
    with pytest.raises(AutomatonError, match=f"^max_len must be an int, not {kind}$"):
        oracle_decide(inst, bound)
    with pytest.raises(AutomatonError, match=f"^max_len must be an int, not {kind}$"):
        oracle_decide(inst, bound, naive=True)


@pytest.mark.parametrize("name", ["dual-adding", "dual-adding-prime"])
def test_the_longest_witnesses_keep_their_values(name):
    # 2**15 letters: the node chain that rebuilds the witness also gives the
    # sides' values, which must be what each side does to the witness
    inst = separation_instance(name, 16)
    verdict = decide(inst)
    assert len(verdict.witness) == 2**15
    for side, value in ((inst.lhs, verdict.lhs_value), (inst.rhs, verdict.rhs_value)):
        result = act_word(inst.automaton, side, verdict.witness)
        assert isinstance(result, Defined) and result.output == value


@pytest.mark.parametrize("name", ["dual-adding", "dual-adding-prime"])
@pytest.mark.parametrize("n", range(4, 8))
def test_the_bounded_search_cuts_at_the_last_level(name, n):
    # the default oracle expands no level at or past max_len: one letter
    # short of the 2**(n-1)-letter witness it sees nothing, at its length
    # it gives decide's verdict
    inst = separation_instance(name, n)
    verdict = decide(inst)
    assert len(verdict.witness) == 2 ** (n - 1)
    assert oracle_decide(inst, len(verdict.witness) - 1) == Verdict(EQUAL, bounded=True)
    assert oracle_decide(inst, len(verdict.witness)) == verdict


def _random_automaton(rng: random.Random, states, letters, fixed=None) -> MealyAutomaton:
    """A random partial automaton over letters. With a letter fixed, every
    state also emits fixed on itself and stays put, and half the time the
    states permute letters, so that inverted items are common."""
    permuting = fixed is not None and rng.random() < 0.5
    trans = {}
    for q in states:
        outs = rng.sample(letters, len(letters)) if permuting else None
        for i, a in enumerate(letters):
            if permuting:
                trans[(q, a)] = (outs[i], rng.choice(states))
            elif rng.random() < 0.8:
                trans[(q, a)] = (rng.choice(letters), rng.choice(states))
        if fixed is not None:
            trans[(q, fixed)] = (fixed, q)
    alphabet = letters if fixed is None else [*letters, fixed]
    return MealyAutomaton("rand", alphabet, states, trans)


def _at_least(n: int, counted, alphabet) -> Acceptor:
    """The words over alphabet with at least n letters in counted."""
    states = [f"d{i}" for i in range(n + 1)]
    trans = {
        (q, c, states[min(i + 1, n)] if c in counted else q)
        for i, q in enumerate(states)
        for c in alphabet
    }
    return Acceptor(f"at-least-{n}", alphabet, states, trans, states[:1], states[-1:])


def _random_instance(rng: random.Random, fixed=None) -> WordProblemInstance:
    """A random instance over x and y with sides of up to 2 items. With a
    letter fixed, the automaton fixes it too (_random_automaton), sides run
    to 12 items half the time, past the 8 beyond which the search steps
    blocks, the random constraint steps on fixed from each state to itself
    half the time, the case in which the search skips that letter, and half
    the time a second one takes only words with at least 6 x, 6 y or 6 of
    both, so that the search goes past the depth from which it skips."""
    n_states = rng.randint(1, 3)
    states = [f"q{i}" for i in range(n_states)]
    letters = ["x", "y"]
    aut = _random_automaton(rng, states, letters, fixed)
    inv_ok = check_properties(aut).inverse_deterministic

    def item():
        q = rng.choice(states)
        if inv_ok and rng.random() < 0.3:
            return f"~{q}"
        return q

    most = 2 if fixed is None else rng.choice((2, 12))
    lhs = S(*[item() for _ in range(rng.randint(0, most))])
    rhs = S(*[item() for _ in range(rng.randint(0, most))])
    constraints = []
    if rng.random() < 0.5:
        acc_states = ["s0", "s1"]
        acc_trans = set()
        for q in acc_states:
            for a in letters:
                if rng.random() < 0.7:
                    acc_trans.add((q, a, rng.choice(acc_states)))
        if fixed is not None:
            stays = rng.random() < 0.5
            for q in acc_states:
                if stays or rng.random() < 0.7:
                    acc_trans.add((q, fixed, q if stays else rng.choice(acc_states)))
        constraints.append(
            Acceptor(
                "c",
                aut.alphabet,
                acc_states,
                acc_trans,
                ["s0"],
                rng.sample(acc_states, rng.randint(1, 2)),
            )
        )
    if fixed is not None and rng.random() < 0.5:
        counted = rng.choice((["x"], ["y"], letters))
        constraints.append(_at_least(6, counted, aut.alphabet))
    return WordProblemInstance(aut, lhs, rhs, constraints)


def test_oracle_modes_agree_on_random_instances():
    rng = random.Random(4217)
    checked = 0
    for _ in range(150):
        inst = _random_instance(rng)
        fast = oracle_decide(inst, max_len=4)
        slow = oracle_decide(inst, max_len=4, naive=True)
        assert (fast.kind, fast.witness) == (slow.kind, slow.witness)
        if fast.kind == NOT_EQUAL:
            assert (fast.lhs_value, fast.rhs_value) == (slow.lhs_value, slow.rhs_value)
            checked += 1
    assert checked > 20  # the sample actually contains differing pairs


def test_decide_agrees_with_oracle_at_the_bound():
    rng = random.Random(99)
    for _ in range(100):
        inst = _random_instance(rng)
        exact = decide(inst)
        bounded = oracle_decide(inst, max_len=config_bound(inst))
        assert exact.kind == bounded.kind
        assert exact.witness == bounded.witness


def test_witness_is_minimal_and_valid():
    rng = random.Random(7)
    seen = 0
    for _ in range(120):
        inst = _random_instance(rng)
        v = decide(inst)
        if v.kind != NOT_EQUAL:
            continue
        seen += 1
        # no strictly shorter word separates: the bounded oracle one letter
        # short of the witness must say Equal
        if len(v.witness) > 0:
            below = oracle_decide(inst, max_len=len(v.witness) - 1, naive=True)
            assert below.kind == EQUAL
        assert v.lhs_value != v.rhs_value
    assert seen > 20


def test_decide_is_symmetric():
    rng = random.Random(31)
    for _ in range(60):
        inst = _random_instance(rng)
        flipped = WordProblemInstance(
            inst.automaton, inst.rhs, inst.lhs, inst.constraints
        )
        a = decide(inst)
        b = decide(flipped)
        assert a.kind == b.kind
        assert a.witness == b.witness
        if a.kind == NOT_EQUAL:
            assert (a.lhs_value, a.rhs_value) == (b.rhs_value, b.lhs_value)


def _answer(v) -> tuple:
    return (v.kind, v.witness, v.lhs_value, v.rhs_value)


def _mapped(inst: WordProblemInstance, automaton: MealyAutomaton, name_of) -> WordProblemInstance:
    """inst on automaton, each item's state renamed through name_of."""
    def side(seq):
        return [SignedState(name_of[i.base], i.inverted) for i in seq]

    return WordProblemInstance(automaton, side(inst.lhs), side(inst.rhs), inst.constraints)


@given(st.integers(0, 2**32), st.data())
@settings(max_examples=80, deadline=None)
def test_decide_is_unchanged_by_transforms_that_keep_the_actions(seed, data):
    inst = _random_instance(random.Random(seed))
    aut, same = inst.automaton, {q: q for q in inst.automaton.states}
    want = _answer(decide(inst))
    # states renamed by a bijection, which also reorders them
    names = data.draw(st.permutations([f"r{i}" for i in range(len(aut.states))]))
    rename = dict(zip(sorted(aut.states), names))
    assert _answer(decide(_mapped(inst, rename_states(aut, rename), rename))) == want
    # a disjoint union with an automaton over some of the letters
    letters = data.draw(st.lists(st.sampled_from(sorted(aut.alphabet)), unique=True))
    other = _random_automaton(random.Random(seed + 1), ["o0", "o1"], sorted(letters))
    assert _answer(decide(_mapped(inst, union(aut, other), same))) == want
    # the Moore quotient, each item replaced by its class
    quotient, class_of = minimize(aut)
    assert _answer(decide(_mapped(inst, quotient, class_of))) == want
    # the zero completion tells products of generators apart exactly where
    # they differ: a side undefined on the witness emits the bottom letter
    # on its last letter instead
    items = [*inst.lhs, *inst.rhs]
    if inst.constraints or not inst.lhs or not inst.rhs or any(i.inverted for i in items):
        return
    got = decide(_mapped(inst, complete_with_zero(aut), same))

    def undefined(value):
        return UNDEFINED if value and value[-1] == BOTTOM_LETTER else value

    assert _answer(got)[:2] == want[:2]
    assert (undefined(got.lhs_value), undefined(got.rhs_value)) == want[2:]


def _inverse(items: list[SignedState]) -> list[SignedState]:
    return [SignedState(i.base, not i.inverted) for i in reversed(items)]


def test_a_sequence_times_its_inverse_is_the_identity_on_g_automata():
    rng = random.Random(1212)
    automata = [ADDING]
    for trial in range(6):
        dfas = DfaList([random_dfa(rng, f"m{trial}d{k}") for k in range(rng.randint(1, 3))])
        automata.append(reduce_dfa_intersection(dfas, group_variant=True).automaton)
        automata.append(reduce_dfa_emptiness(random_dfa(rng, f"m{trial}e")).automaton)
    for aut in automata:
        assert check_properties(aut).is_g_automaton, aut.name
        states = sorted(aut.states)
        for _ in range(5):
            u = [SignedState(rng.choice(states), rng.random() < 0.5)
                 for _ in range(rng.randint(1, 3))]
            for seq in (u + _inverse(u), _inverse(u) + u):
                assert decide(WordProblemInstance(aut, seq, [])).kind == EQUAL, (aut.name, seq)


# q's own outputs differ, but q reaches p, which emits a on both letters:
# q maps ua and ub alike, so ~q is undefined too
REACHES_AMBIGUOUS = MealyAutomaton(
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


@pytest.mark.parametrize(
    "aut, item, rhs",
    [
        # r emits b on two transitions, so ~r is undefined
        pytest.param(build_gadget("bireversible"), "~r", S(), id="rhs0"),
        pytest.param(build_gadget("bireversible"), "~r", S("~r"), id="rhs1"),
        pytest.param(build_gadget("bireversible"), "~r", S("s"), id="rhs2"),
        pytest.param(REACHES_AMBIGUOUS, "~q", S(), id="reaches-ambiguous"),
    ],
)
def test_ill_posed_inversion_rejected_when_built(aut, item, rhs):
    # the instance must fail when it is built, not answer or fail partway
    # through the search
    with pytest.raises(NotInverseDeterministic):
        WordProblemInstance(aut, S(item), rhs)
    with pytest.raises(NotInverseDeterministic):
        WordProblemInstance(aut, rhs, S(item))


def test_act_word_raises_only_at_the_ambiguous_step():
    # acting, unlike building an instance, fails only where ~p is stepped
    assert act_word(REACHES_AMBIGUOUS, S("~q"), "ba").output == W("ba")
    with pytest.raises(NotInverseDeterministic):
        act_word(REACHES_AMBIGUOUS, S("~q"), "aa")


def test_empty_word_never_witnesses():
    # even with an epsilon-accepting constraint and wildly different sides
    inst = WordProblemInstance(D, S("0"), S("1"), [b_star()])
    v = decide(inst)
    assert v.kind == EQUAL or v.witness != ()


# ------------------------------------------------- letters the search skips
#
# A letter that every state emits on itself while staying put, and on which
# every constraint state steps to itself alone, maps each configuration to
# itself, so the search stops trying it once it is a few letters deep. These
# tests pin that the skip keeps every verdict, witness and stored
# configuration, on searches that go past that depth.

FIXED_ORACLE_LEN = 4
FIXED_BUDGET = 4000
DEEP = 8  # letters, well past the depth from which the search skips


def _skips(inst: WordProblemInstance, fixed: str) -> bool:
    """Whether each constraint state steps on fixed to itself alone (the
    automata of _random_instance always fix it)."""
    return all(
        {p for (s, a, p) in acc.transitions if (s, a) == (q, fixed)} == {q}
        for acc in inst.constraints
        for q in acc.states
    )


def _unskipped(inst: WordProblemInstance) -> WordProblemInstance:
    """inst with one more constraint, which accepts every word but changes
    state on every letter, so that the search skips none."""
    letters = inst.automaton.alphabet
    trans = {(q, c, p) for q, p in ("uv", "vu") for c in letters}
    swap = Acceptor("swap", letters, "uv", trans, "u", "uv")
    return WordProblemInstance(inst.automaton, inst.lhs, inst.rhs, [*inst.constraints, swap])


def test_skipped_letters_keep_every_verdict():
    rng = random.Random(2611)
    decided = skipped = constrained = blocked = inverted = deep = short = 0
    for i in range(600):
        fixed = "amz"[i % 3]  # before, between and after x and y
        inst = _random_instance(rng, fixed)
        naive = oracle_decide(inst, FIXED_ORACLE_LEN, naive=True)
        assert oracle_decide(inst, FIXED_ORACLE_LEN) == naive
        try:
            verdict = decide(inst, max_configs=FIXED_BUDGET)
            unskipped = decide(_unskipped(inst), max_configs=2 * FIXED_BUDGET)
        except ConfigBudgetExceeded:
            continue
        decided += 1
        assert unskipped == verdict
        if _skips(inst, fixed):
            skipped += 1
            constrained += bool(inst.constraints)
            blocked += max(len(inst.lhs), len(inst.rhs)) > 8
            inverted += all(any(it.inverted for it in side) for side in (inst.lhs, inst.rhs))
            deep += verdict.kind == NOT_EQUAL and len(verdict.witness) > 5
        if verdict.kind == NOT_EQUAL:
            w = verdict.witness
            values = [act_word(inst.automaton, side, w) for side in (inst.lhs, inst.rhs)]
            values = [v.output if isinstance(v, Defined) else UNDEFINED for v in values]
            assert values == [verdict.lhs_value, verdict.rhs_value] and values[0] != values[1]
            assert all(acceptor_accepts(acc, w) for acc in inst.constraints)
        if verdict.kind == NOT_EQUAL and len(verdict.witness) <= FIXED_ORACLE_LEN:
            short += 1
            assert naive == verdict
        else:
            assert naive.kind == EQUAL and naive.bounded
    assert decided > 580 and short > 100
    assert skipped > 400 and constrained > 250 and blocked > 90 and inverted > 70 and deep > 60


# every state emits a on a and stays put, and no state emits one letter
# twice, so every inverted item is defined
FIXES_A = MealyAutomaton(
    "fixes-a",
    ("a", "x", "y"),
    ("p", "q"),
    {
        ("p", "a"): ("a", "p"),
        ("p", "x"): ("y", "q"),
        ("p", "y"): ("x", "p"),
        ("q", "a"): ("a", "q"),
        ("q", "x"): ("x", "p"),
        ("q", "y"): ("y", "q"),
    },
)

# constraints that step on a from each state to itself, so a stays skipped:
# at least 6 letters other than a, no x, an odd number of y
LONG = _at_least(6, "xy", "axy")
NO_X = Acceptor(
    "no-x", ("a", "x", "y"), ("s",), {("s", "a", "s"), ("s", "y", "s")}, ("s",), ("s",)
)
ODD_Y = Acceptor(
    "odd-y",
    ("a", "x", "y"),
    ("e", "o"),
    {(q, c, q) for q in "eo" for c in "ax"} | {("e", "y", "o"), ("o", "y", "e")},
    ("e",),
    ("o",),
)


@pytest.mark.parametrize(
    "lhs, rhs, constraints, witness",
    [
        (S("~p", "q"), S("q", "~p"), [LONG], "xxxxxx"),
        (S("p", "~q", "p"), S("~q", "p", "p"), [LONG, ODD_Y], "xxxxxy"),
        (S("~p", "~p"), S("~q"), [LONG], "xxxxyx"),
        (S("~q", "q"), S(), [LONG, NO_X], None),
        # both sides blocked
        (S(*["~p", "q", "q"] * 3), S(*["q", "~p"] * 5), [LONG, NO_X], "yyyyyy"),
        (S(*["~p", "q", "q"] * 3), S(*["q", "~p"] * 5), [LONG, ODD_Y], "xxxxxy"),
    ],
)
def test_inverted_items_under_a_skipped_letter(lhs, rhs, constraints, witness):
    assert check_properties(FIXES_A).inverse_deterministic
    inst = WordProblemInstance(FIXES_A, lhs, rhs, constraints)
    verdict = decide(inst)
    assert verdict == decide(_unskipped(inst))
    if witness is None:
        assert verdict.kind == EQUAL
        assert oracle_decide(inst, DEEP, naive=True) == Verdict(EQUAL, bounded=True)
    else:
        assert verdict.witness == W(witness)
        assert oracle_decide(inst, len(witness), naive=True) == verdict
        assert oracle_decide(inst, len(witness)) == verdict


@pytest.mark.parametrize("item", ["~0", "~1"])
def test_an_inverse_reaching_a_second_source_of_the_fixed_letter_is_rejected(item):
    # in dual-adding every state emits b on b and stays put, but 0 emits b
    # on a too; ~0, and ~1, which reaches 0, are rejected when built, so
    # the skip never meets the ambiguous step
    with pytest.raises(NotInverseDeterministic):
        WordProblemInstance(D, S(item), S())
    with pytest.raises(NotInverseDeterministic):
        WordProblemInstance(D, S("0"), S("1", item))


def _chain(name: str, tail, finals) -> Acceptor:
    """An acceptor that reads a^DEEP from c0 to c{DEEP}, with no step on b,
    and then the transitions tail."""
    trans = {(f"c{i}", "a", f"c{i + 1}") for i in range(DEEP)} | set(tail)
    states = {q for (q, _, p) in trans for q in (q, p)}
    return Acceptor(name, ("a", "b"), states, trans, ("c0",), finals)


# every state emits b on b and stays put; p and r differ on a
FIXES_B = MealyAutomaton(
    "fixes-b",
    ("a", "b"),
    ("p", "r"),
    {
        ("p", "a"): ("a", "p"),
        ("p", "b"): ("b", "p"),
        ("r", "a"): ("b", "r"),
        ("r", "b"): ("b", "r"),
    },
)


def test_a_constraint_that_moves_on_the_fixed_letter_keeps_it():
    # the constraint accepts a^DEEP b (a|b)*, so every witness reads b after
    # the search is DEEP letters deep; skipping b would answer Equal
    tail = [(f"c{DEEP}", "b", "t"), ("t", "a", "t"), ("t", "b", "t")]
    inst = WordProblemInstance(FIXES_B, S("p"), S("r"), [_chain("late-b", tail, ("t",))])
    verdict = decide(inst)
    assert verdict.witness == W("a" * DEEP + "b")
    assert (verdict.lhs_value, verdict.rhs_value) == (W("a" * DEEP + "b"), W("b" * (DEEP + 1)))
    assert oracle_decide(inst, DEEP + 1, naive=True) == verdict


def test_a_constraint_state_with_no_step_on_the_fixed_letter_keeps_it():
    # after a^DEEP the subset is {s0, s1}, and b takes it to {s0}, as s1 has
    # no step on b: one more configuration, which the search must store.
    # (When each constraint state steps on b to itself or nowhere, deleting
    # the b's of a witness leaves a shorter one, so a skip could change the
    # stored configurations only, not the verdict.)
    tail = [(f"c{DEEP}", "a", "s0"), (f"c{DEEP}", "a", "s1")]
    tail += [("s0", "a", "s0"), ("s0", "b", "s0"), ("s1", "a", "s1")]
    drops = _chain("drops", tail, ("s1",))
    inst = WordProblemInstance(FIXES_B, S("p"), S("p"), [drops])
    # c0 .. c{DEEP}, {s0, s1} and {s0}
    with pytest.raises(ConfigBudgetExceeded) as exc:
        decide(inst, max_configs=DEEP + 2)
    assert (exc.value.configs, exc.value.depth) == (DEEP + 3, DEEP + 2)
    assert decide(inst).kind == EQUAL


def test_a_letter_that_moves_a_state_is_kept():
    # every state emits b on b, but p moves to r on it; with at least DEEP
    # a's the least witness reads b only at DEEP - 1 letters deep, so that
    # skipping b there would give a later witness
    moves_on_b = MealyAutomaton(
        "moves-on-b",
        ("a", "b"),
        ("p", "r", "s"),
        {
            ("p", "a"): ("a", "p"),
            ("p", "b"): ("b", "r"),
            ("r", "a"): ("b", "r"),
            ("r", "b"): ("b", "r"),
            ("s", "a"): ("a", "s"),
            ("s", "b"): ("b", "s"),
        },
    )
    inst = WordProblemInstance(moves_on_b, S("p"), S("s"), [_at_least(DEEP, "a", "ab")])
    verdict = decide(inst)
    assert verdict.witness == W("a" * (DEEP - 1) + "ba")
    assert oracle_decide(inst, DEEP + 1, naive=True) == verdict


# The search steps the constraint subsets once per tuple of subsets and
# letter, into a row that every later configuration with that tuple reads.
# These tests draw several constraints over the same letters whose subsets
# repeat, so that one constraint's subset stands next to different subsets
# of another, and pin the search's size on the paper's constrained instance.

ROW_ORACLE_LEN = 4
ROW_BUDGET = 4000


def _small_constraint(rng: random.Random, name: str, alphabet) -> Acceptor:
    """A 2- or 3-state NFA that steps on most letters to one or two states
    of few, so that its subsets repeat; it may die on a letter."""
    states = ["s0", "s1", "s2"][: rng.randint(2, 3)]
    trans = {
        (q, c, p)
        for q in states
        for c in alphabet
        if rng.random() < 0.85
        for p in rng.sample(states, rng.choice((1, 1, 2)))
    }
    finals = rng.sample(states, rng.randint(1, len(states) - 1))
    return Acceptor(name, alphabet, states, trans, ["s0"], finals)


def _multi_constraint_instance(rng: random.Random) -> WordProblemInstance:
    """A random instance over x and y, as _random_instance draws them, under
    2 or 3 small constraints."""
    states = [f"q{i}" for i in range(rng.randint(1, 3))]
    aut = _random_automaton(rng, states, ["x", "y"])
    inv_ok = check_properties(aut).inverse_deterministic

    def side():
        items = rng.choices(states, k=rng.randint(0, 2))
        return S(*[f"~{q}" if inv_ok and rng.random() < 0.3 else q for q in items])

    lhs, rhs = side(), side()
    constraints = [
        _small_constraint(rng, f"c{k}", aut.alphabet) for k in range(rng.randint(2, 3))
    ]
    return WordProblemInstance(aut, lhs, rhs, constraints)


def test_rows_of_several_constraints_keep_every_verdict():
    rng = random.Random(2817)
    decided = short = three = accepting_late = 0
    for _ in range(500):
        inst = _multi_constraint_instance(rng)
        naive = oracle_decide(inst, ROW_ORACLE_LEN, naive=True)
        assert oracle_decide(inst, ROW_ORACLE_LEN) == naive
        try:
            verdict = decide(inst, max_configs=ROW_BUDGET)
        except ConfigBudgetExceeded:
            continue
        decided += 1
        three += len(inst.constraints) == 3
        assert decide(_unskipped(inst), max_configs=2 * ROW_BUDGET) == verdict
        if verdict.kind == NOT_EQUAL:
            w = verdict.witness
            values = [act_word(inst.automaton, side, w) for side in (inst.lhs, inst.rhs)]
            values = [v.output if isinstance(v, Defined) else UNDEFINED for v in values]
            assert values == [verdict.lhs_value, verdict.rhs_value] and values[0] != values[1]
            assert all(acceptor_accepts(acc, w) for acc in inst.constraints)
            # a prefix on which the sides already differ, but that some
            # constraint rejects: the witness waited for the constraints
            accepting_late += any(
                not all(acceptor_accepts(acc, w[:k]) for acc in inst.constraints)
                and act_word(inst.automaton, inst.lhs, w[:k])
                != act_word(inst.automaton, inst.rhs, w[:k])
                for k in range(1, len(w))
            )
        if verdict.kind == NOT_EQUAL and len(verdict.witness) <= ROW_ORACLE_LEN:
            short += 1
            assert naive == verdict
        else:
            assert naive.kind == EQUAL and naive.bounded
    assert decided > 480 and short > 150 and three > 200 and accepting_late > 50


# the group-variant Scanner reduction at p = 3, input a a, as reduce tm
# prints it, under its one constraint: (configs, depth) at two budgets
# between the 25 and 1,180 that tests/test_search_size.py pins
SCAN_GROUP_AT_BUDGET = {500: (501, 16), 1000: (1001, 26)}


@pytest.mark.parametrize("budget", sorted(SCAN_GROUP_AT_BUDGET))
def test_rows_keep_the_constrained_search_size(budget):
    params = TmReductionParams(p_val=3, input_word=("a", "a"), group_variant=True)
    inst = _reduce_quotient(SCANNER, params)
    with pytest.raises(ConfigBudgetExceeded) as exc:
        decide(inst, max_configs=budget)
    assert (exc.value.configs, exc.value.depth) == SCAN_GROUP_AT_BUDGET[budget]
