"""Machine-reduction tests.

The simulator is the oracle here: encode_computation and the automaton
families are checked against direct configuration-by-configuration runs,
and all frozen words below were derived from those runs by hand first.
"""

import itertools
import random
import tracemalloc

import pytest
from helpers import LOOPER, SCANNER

from autsg import mealy, turing
from autsg.cli import run
from autsg.errors import LeftEdgeViolated, NotGAutomaton, SpaceBoundViolated
from autsg.mealy import (
    Defined,
    MealyAutomaton,
    SignedState,
    UndefinedAt,
    _Table,
    acceptor_accepts,
    act_word,
    check_properties,
    minimize,
)
from autsg.textio import parse_text, serialize_instance, serialize_tm
from autsg.turing import (
    MOVES,
    TmReductionParams,
    TuringMachineSpec,
    _complete_rows,
    build_tm_automaton,
    checker_entry,
    checker_family_size,
    delta_alphabet,
    derive_tau,
    encode_computation,
    initial_configuration,
    reduce_tm,
    sigma_alphabet,
    simulate_tm,
    split_head,
    structured_words_acceptor,
)
from autsg.wordproblem import EQUAL, NOT_EQUAL, WordProblemInstance, decide

from helpers import SMALL_DELTA_MACHINES, TINY, assert_built_as_from_a_dict, renamed

# Accepts immediately, regardless of input.
ACCEPT_NOW = TuringMachineSpec(
    "accnow",
    ["_", "a"],
    "_",
    ["z0", "zf"],
    "z0",
    ["zf"],
    {("z0", "_"): ("_", "zf", "N"), ("z0", "a"): ("a", "zf", "N")},
)

LEFTY = TuringMachineSpec(
    "lefty", ["_", "a"], "_", ["z0"], "z0", [], {("z0", "a"): ("a", "z0", "L")}
)

AUT_LOOP = build_tm_automaton(LOOPER, TmReductionParams(p_val=3))
AUT_ACC_G = build_tm_automaton(ACCEPT_NOW, TmReductionParams(p_val=2, group_variant=True))


# --- machine specs ---------------------------------------------------------


def test_totalization_fills_stay_put_loops():
    assert LOOPER.rules[("z1", "a")] == ("a", "z1", "N")
    assert LOOPER.rules[("z1", "_")] == ("_", "z1", "N")
    assert len(LOOPER.rules) == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(blank="b"),
        dict(tape_alphabet=["_", "0"]),
        dict(tape_alphabet=["_", "x:y"]),
        dict(states=["z0", "z|1"]),
        dict(initial="zz"),
        dict(finals=["zz"]),
        dict(rules={("z0", "_"): ("_", "z0", "U")}),
        dict(rules={("z0", "q"): ("_", "z0", "N")}),
        # the name becomes part of the reduction automaton's name, and is
        # written as the head of a tm block
        dict(name="my tm"),
        dict(name=""),
    ],
)
def test_spec_validation(kwargs):
    base = dict(
        name="t",
        tape_alphabet=["_", "a"],
        blank="_",
        states=["z0"],
        initial="z0",
        finals=[],
        rules={},
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        TuringMachineSpec(**base)


def test_alphabets():
    assert delta_alphabet(ACCEPT_NOW) == ("_", "a", "_:z0", "_:zf", "a:z0", "a:zf")
    assert sigma_alphabet(ACCEPT_NOW) == delta_alphabet(ACCEPT_NOW) + ("0", "1", "#", "$")


@pytest.mark.parametrize(
    "p,k", [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (100, 7)]
)
def test_block_width(p, k):
    assert TmReductionParams(p_val=p).k == k


def test_params_validation():
    with pytest.raises(ValueError):
        TmReductionParams(p_val=0)
    with pytest.raises(ValueError):
        TmReductionParams(p_val=1, input_word=("a", "a"))
    with pytest.raises(ValueError):
        simulate_tm(SCANNER, TmReductionParams(p_val=2, input_word=("_",)), 1)
    with pytest.raises(ValueError):
        simulate_tm(SCANNER, TmReductionParams(p_val=2, input_word=("b",)), 1)


# --- local evolution map ---------------------------------------------------


def test_tau_values_for_scanner():
    tau = derive_tau(SCANNER)
    # head on the middle cell, moving right: symbol is left behind
    assert tau.get(("a", "a:z0", "_")) == "a"
    # head on the left neighbour, moving right: it arrives
    assert tau.get(("a:z0", "a", "_")) == "a:z0"
    # head on the right neighbour, moving right: it leaves the window
    assert tau.get(("_", "a", "a:z0")) == "a"
    # stay-put rewrite keeps the head on the middle cell
    assert tau.get(("a", "_:z0", "_")) == "_:zf"
    # no head: middle untouched
    assert tau.get(("_", "a", "_")) == "a"
    # two heads never occur in a configuration
    assert tau.get(("a:z0", "a:z0", "_")) is None
    assert len(tau) == 2**3 + 3 * 4 * 2**2


def test_tau_left_arrival():
    tau = derive_tau(LEFTY)
    assert tau.get(("a", "_", "a:z0")) == "_:z0"
    assert tau.get(("a:z0", "_", "a")) == "_"


# --- simulation ------------------------------------------------------------


def test_simulate_immediate_accept():
    sim = simulate_tm(ACCEPT_NOW, TmReductionParams(p_val=2), 3)
    assert sim.trace[0] == ("_:z0", "_")
    assert sim.trace[1] == ("_:zf", "_")
    assert sim.accepts_within == 1
    assert len(sim.trace) == 4


def test_simulate_accepts_at_step_zero():
    # acceptance is entering a final state, counted from step 1: the
    # encoding c1 # ... # cT has no c0, so a final initial state is no
    # acceptance until the machine enters a final state again
    tm = TuringMachineSpec("triv", ["_"], "_", ["z0"], "z0", ["z0"], {})
    assert simulate_tm(tm, TmReductionParams(p_val=1), 0).accepts_within is None
    assert simulate_tm(tm, TmReductionParams(p_val=1), 1).accepts_within == 1
    # final only at step 0: z0 steps to z1 on both letters and z1 stays put
    leaves = {("z0", g): (g, "z1", "N") for g in "_a"}
    tm = TuringMachineSpec("leave", ["_", "a"], "_", ["z0", "z1"], "z0", ["z0"], leaves)
    assert simulate_tm(tm, TmReductionParams(p_val=2), 20).accepts_within is None
    for group in (False, True):
        assert decide(reduce_tm(tm, TmReductionParams(p_val=2, group_variant=group))).kind == EQUAL


def test_simulate_scanner():
    params = TmReductionParams(p_val=3, input_word=("a", "a"))
    assert initial_configuration(SCANNER, params) == ("a:z0", "a", "_")
    sim = simulate_tm(SCANNER, params, 3)
    assert sim.trace[1] == ("a", "a:z0", "_")
    assert sim.trace[2] == ("a", "a", "_:z0")
    assert sim.trace[3] == ("a", "a", "_:zf")
    assert sim.accepts_within == 3


def test_simulate_never_accepts():
    assert simulate_tm(LOOPER, TmReductionParams(p_val=2), 10).accepts_within is None


def test_simulate_space_bound():
    params = TmReductionParams(p_val=3, input_word=("a", "a", "a"))
    with pytest.raises(SpaceBoundViolated):
        simulate_tm(SCANNER, params, 5)


def test_simulate_left_edge():
    with pytest.raises(LeftEdgeViolated):
        simulate_tm(LEFTY, TmReductionParams(p_val=2, input_word=("a",)), 1)


# --- word encoding ---------------------------------------------------------


def test_encode_one_step():
    u = encode_computation(ACCEPT_NOW, TmReductionParams(p_val=2), 1)
    assert u == ("_:zf", "0", "0", "_", "0", "0", "$", "0", "0", "$", "0")


def test_encode_two_steps_extends_with_a_segment():
    params = TmReductionParams(p_val=2)
    u1 = encode_computation(ACCEPT_NOW, params, 1)
    u2 = encode_computation(ACCEPT_NOW, params, 2)
    assert len(u2) == 18
    assert u2[:6] == u1[:6]
    assert u2[6] == "#"
    assert u2[7:13] == u1[:6]


def test_encode_needs_a_step():
    with pytest.raises(ValueError):
        encode_computation(ACCEPT_NOW, TmReductionParams(p_val=2), 0)


# --- check-marking ---------------------------------------------------------


def test_mark_increments_first_unmarked_block():
    res = act_word(AUT_LOOP, ["mark"], ("a", "0", "1", "a", "1", "0"))
    assert isinstance(res, Defined)
    assert res.output == ("a", "1", "1", "a", "0", "1")


def test_mark_twice_overflows():
    res = act_word(AUT_LOOP, ["mark", "mark"], ("a", "0", "1", "a", "1", "0"))
    assert res == UndefinedAt(3)


@pytest.mark.parametrize("passes", range(4))
def test_mark_pass_counts(passes):
    k = 2
    segment = []
    for _ in range(3):
        segment += ["a"] + ["0"] * k
    res = act_word(AUT_LOOP, ["mark"] * passes, tuple(segment))
    assert isinstance(res, Defined)
    for i in range(3):
        block = res.output[i * (k + 1) + 1 : (i + 1) * (k + 1)]
        value = max(0, passes - i)
        assert block == (str(value & 1), str(value >> 1 & 1))


# --- automaton families ----------------------------------------------------


def test_state_counts():
    assert checker_family_size(6) == 21387
    assert len(AUT_LOOP.states) == 21387 + 7 + 5 + 6 + 9
    assert len(AUT_ACC_G.states) == 21387 + 7 + 5 + 6 + 9 + 6
    # the checker family plus the 27 mark, form, full and probe states, and
    # in the group variant bump0-bump4 and the sink
    for tm, n_delta in zip(SMALL_DELTA_MACHINES, (3, 4, 5)):
        assert len(delta_alphabet(tm)) == n_delta
        for group in (False, True):
            aut = build_tm_automaton(tm, TmReductionParams(p_val=3, group_variant=group))
            assert len(aut.states) == checker_family_size(n_delta) + 27 + 6 * group


def test_scanner_group_build_keeps_under_9_5_mb():
    # the checker family's targets are read off one shared index list per
    # family: an index computed per cell would be an int object of its own,
    # about 3 MB more over the 214,200 cells
    params = TmReductionParams(p_val=3, input_word=("a", "a"), group_variant=True)
    tracemalloc.start()
    try:
        aut = build_tm_automaton(SCANNER, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(aut.states) == 21387 + 27 + 6
    assert peak <= 9.5 * 2**20


def test_inverse_variant_class():
    rep = check_properties(AUT_LOOP)
    assert rep.is_s_bar_automaton
    assert not rep.complete


def test_group_variant_class():
    rep = check_properties(AUT_ACC_G)
    assert rep.is_g_automaton


def test_group_completion_prefers_identity():
    assert AUT_ACC_G.transitions[("probe1", "1")] == ("1", "sink")
    assert AUT_ACC_G.transitions[("probe6", "#")] == ("#", "sink")
    # identity 1/1 is taken by the toggle's output, so 1 falls back to the
    # smallest unused letter
    assert AUT_ACC_G.transitions[("probe6", "1")] == ("0", "sink")
    # a chk1 state reads no # or $: the completion sends them to the sink
    assert AUT_ACC_G.transitions[("chk1|_|a|_||", "#")] == ("#", "sink")
    assert AUT_ACC_G.transitions[("chk1|_|a|_||", "$")] == ("$", "sink")


def test_group_completion_leaves_a_finished_table_as_it_is():
    params = TmReductionParams(p_val=3, group_variant=True)
    table = build_tm_automaton(SMALL_DELTA_MACHINES[0], params)._table
    outs, targets = list(table.outs), list(table.targets)
    _complete_rows(table, table.state_index["sink"])
    assert (table.outs, table.targets) == (outs, targets)


def _table(outs: list[int]) -> _Table:
    """The table of two states q0 and q1 over the letters a, b, c, declared
    in reverse order, so q1 has row 0: qi emits letter outs[3 * i + j] on
    letter j (nothing where -1) and moves to q0."""
    table = _Table("t", "abc", ["q1", "q0"])
    for k, b in enumerate(outs):
        if b >= 0:
            table.add(f"q{k // 3}", "abc"[k % 3], "abc"[b], "q0")
    return table


def test_group_class_check_reads_every_row():
    _complete_rows(_table([0, 1, 2, 2, 0, 1]), sink=0)
    with pytest.raises(NotGAutomaton, match="'q0'"):  # q0 emits a twice
        _complete_rows(_table([0, 0, 2, 2, 0, 1]), sink=0)
    # many rows share one permutation; a bad row among them is named, and of
    # two different bad rows the first in table order
    table = _Table("t", "abc", [f"q{i}" for i in range(200)])
    table.outs = [1, 2, 0] * 200
    _complete_rows(table, sink=0)
    table.outs[300:303] = [1, 1, 0]
    with pytest.raises(NotGAutomaton, match="'q100'"):
        _complete_rows(table, sink=0)
    table.outs[420:423] = [0, 0, 0]
    table.outs[180:183] = [2, 2, -1]
    with pytest.raises(NotGAutomaton, match="'q60'"):
        _complete_rows(table, sink=0)


def test_group_completion_fails_the_check_on_a_repeated_output():
    # q1 emits b on a and on c: no filling of its b cell undoes the repeat
    table = _table([0, -1, -1, 1, -1, 1])
    with pytest.raises(NotGAutomaton, match="'q1'") as err:
        _complete_rows(table, sink=table.state_index["q1"])
    assert str(err.value) == (
        "t failed the class check: state 'q1' does not emit every letter exactly once"
    )


def _completed_by_reference(rows, width, sink):
    """The identity-preferring sink completion of rows, lists of width
    output indices (-1 where undefined), cell by cell: (outs, targets) per
    row, or the index of the first row whose defined outputs repeat."""
    done = []
    for i, row in enumerate(rows):
        defined = [b for b in row if b >= 0]
        if len(set(defined)) < len(defined):
            return i
        outs, targets = list(row), [None] * width
        for j in range(width):
            if outs[j] < 0:
                free = [x for x in range(width) if x not in outs]
                outs[j] = j if j in free else min(free)
                targets[j] = sink
        done.append((outs, targets))
    return done


def test_group_completion_against_a_literal_reference():
    # random tables with undefined cells and repeated outputs: either the
    # first row with a repeated defined output is named, or every row is a
    # permutation, defined cells are as they were, and each filled cell
    # takes its own letter if free, else the least free one, to the sink
    rng = random.Random(23)
    raised = completed = 0
    for trial in range(400):
        width, n = rng.randint(2, 5), rng.randint(1, 30)
        letters = "abcde"[:width]
        rows = []
        for _ in range(n):
            row = rng.sample(range(width), width)
            for j in range(width):
                if rng.random() < 0.3:
                    row[j] = -1
            if rng.random() < 0.03:
                row[rng.randrange(width)] = row[rng.randrange(width)]
            rows.append(row)
        table = _Table("t", letters, [f"q{i}" for i in range(n)])
        for i, row in enumerate(rows):
            for j, b in enumerate(row):
                if b >= 0:
                    table.add(f"q{i}", letters[j], letters[b], f"q{rng.randrange(n)}")
        before = list(table.targets)
        sink = rng.randrange(n)
        want = _completed_by_reference(rows, width, sink)
        if isinstance(want, int):
            with pytest.raises(NotGAutomaton, match=f"'q{want}'"):
                _complete_rows(table, sink)
            raised += 1
            continue
        _complete_rows(table, sink)
        for i, (outs, targets) in enumerate(want):
            row = slice(i * width, (i + 1) * width)
            assert sorted(table.outs[row]) == list(range(width))
            assert table.outs[row] == outs
            assert table.targets[row] == [
                old if t is None else t for old, t in zip(before[row], targets)
            ]
        completed += 1
    assert raised > 20 and completed > 20


def test_reduce_tm_derives_no_literal_transitions(tmp_path, monkeypatch, capsys):
    # the automaton is built with one chk row per tau class, checked and
    # minimized on its rows: no table it makes comes near the literal 21k
    # rows, and only the quotient's cells are ever named, to print it
    derived, wrapped = [], []
    cells, of = _Table.cells, MealyAutomaton._of.__func__

    def spy(table):
        derived.append(len(table.states))
        return cells(table)

    def spy_of(cls, table):
        wrapped.append(len(table.states))
        return of(cls, table)

    monkeypatch.setattr(_Table, "cells", spy)
    monkeypatch.setattr(MealyAutomaton, "_of", classmethod(spy_of))
    f = tmp_path / "scan.tm"
    f.write_text(serialize_tm(SCANNER), encoding="utf-8")
    for variant in ([], ["--group"]):
        assert run(["reduce", "tm", str(f), "--space", "3", "--input", "a", "a", *variant]) == 0
        assert capsys.readouterr().out
    assert len(derived) == 2 and max(derived) < 100
    assert len(wrapped) == 4 and max(wrapped) <= 1000


def test_group_build_checks_tokens_and_completes_rows_in_bulk(monkeypatch):
    # the state names are checked in one pass, and one completion runs over
    # the whole table once its blocks are written: a per-name check or a
    # completion per row would only show as a slower build
    checked, completed = [], []
    check_token, complete_rows = mealy._check_token, turing._complete_rows

    def spy_check(tok, what):
        checked.append((tok, what))
        check_token(tok, what)

    def spy_complete(table, sink):
        completed.append(len(table.states))
        complete_rows(table, sink)

    monkeypatch.setattr(mealy, "_check_token", spy_check)
    monkeypatch.setattr(turing, "_complete_rows", spy_complete)
    params = TmReductionParams(p_val=3, input_word=("a", "a"), group_variant=True)
    inst = reduce_tm(SCANNER, params)
    names = [tok for tok, what in checked if what == "state name"]
    assert names == [inst.automaton.name, inst.constraints[0].name]
    assert completed == [len(inst.automaton.states)]


def test_random_machines_stay_in_class():
    rng = random.Random(7)
    for trial in range(20):
        n_states = rng.randint(1, 2)
        states = [f"z{i}" for i in range(n_states)]
        rules = {}
        for z in states:
            for g in ("_", "a"):
                if rng.random() < 0.7:
                    rules[(z, g)] = (
                        rng.choice(["_", "a"]),
                        rng.choice(states),
                        rng.choice(["L", "N", "R"]),
                    )
        finals = [z for z in states if rng.random() < 0.4]
        tm = TuringMachineSpec(f"r{trial}", ["_", "a"], "_", states, "z0", finals, rules)
        assert check_properties(
            build_tm_automaton(tm, TmReductionParams(p_val=1))
        ).is_s_bar_automaton
        assert check_properties(
            build_tm_automaton(tm, TmReductionParams(p_val=1, group_variant=True))
        ).is_g_automaton


def test_minimize_keeps_the_literal_actions():
    params = TmReductionParams(p_val=2)
    full = build_tm_automaton(ACCEPT_NOW, params)
    quotient, class_of = minimize(full)
    assert len(quotient.states) < len(full.states)
    assert quotient.name == full.name and quotient.alphabet == full.alphabet
    items = ["full0", "mark", checker_entry(("_", "_:z0", "_")), "form0"]
    classes = [class_of[q] for q in items]
    assert set(classes) <= quotient.states
    for T in (1, 2):
        u = encode_computation(ACCEPT_NOW, params, T)
        assert act_word(quotient, classes, u) == renamed(act_word(full, items, u), class_of)


# --- instances -------------------------------------------------------------


def test_instance_shapes():
    inst = reduce_tm(ACCEPT_NOW, TmReductionParams(p_val=2))
    assert [str(s) for s in inst.lhs] == [
        "probe0",
        "full0",
        "mark",
        checker_entry(("_:z0", "_", "_")),
        "mark",
        checker_entry(("_", "_:z0", "_")),
        "form0",
    ]
    assert tuple(str(s) for s in inst.rhs) == tuple(str(s) for s in inst.lhs[1:])
    assert inst.constraints == ()

    group = reduce_tm(ACCEPT_NOW, TmReductionParams(p_val=2, group_variant=True))
    assert len(group.lhs) == 5 and len(group.rhs) == 4
    assert [c.name for c in group.constraints] == ["structured"]


def test_structured_words():
    params = TmReductionParams(p_val=2, group_variant=True)
    acc = structured_words_acceptor(ACCEPT_NOW, params)
    for T in (1, 2, 3):
        assert acceptor_accepts(acc, encode_computation(ACCEPT_NOW, params, T))
    assert not acceptor_accepts(acc, ())
    assert not acceptor_accepts(acc, ("_:zf", "0", "0", "_", "0", "$", "$", "0"))
    assert not acceptor_accepts(
        acc, ("_", "0", "0", "_", "0", "1", "$", "0", "0", "$", "0")
    )


def test_encoding_toggles_exactly_the_last_digit():
    params = TmReductionParams(p_val=2)
    inst = reduce_tm(ACCEPT_NOW, params)
    u = encode_computation(ACCEPT_NOW, params, 1)
    lv = act_word(inst.automaton, inst.lhs, u)
    rv = act_word(inst.automaton, inst.rhs, u)
    assert isinstance(lv, Defined) and isinstance(rv, Defined)
    assert lv.output[:-1] == rv.output[:-1]
    assert (lv.output[-1], rv.output[-1]) == ("1", "0")


def test_decide_accepting_machine_inverse():
    inst = reduce_tm(ACCEPT_NOW, TmReductionParams(p_val=2))
    v = decide(inst)
    assert v.kind == NOT_EQUAL
    # shorter than the canonical 11-letter encoding: the shape checker q_c
    # does not pin block widths, so the search squeezes block 1 and the
    # counter down to the minimum that survives both marking passes
    assert v.witness == ("_:zf", "0", "0", "_", "0", "$", "$", "0")
    assert v.lhs_value[:-1] == v.rhs_value[:-1]
    assert (v.lhs_value[-1], v.rhs_value[-1]) == ("1", "0")


def test_decide_accepting_machine_group():
    params = TmReductionParams(p_val=2, group_variant=True)
    inst = reduce_tm(ACCEPT_NOW, params)
    v = decide(inst)
    assert v.kind == NOT_EQUAL
    assert v.witness == encode_computation(ACCEPT_NOW, params, 1)


@pytest.mark.parametrize("group", [False, True], ids=["inverse", "group"])
def test_reduce_tm_builds_as_from_a_dict(group):
    inst = reduce_tm(TINY, TmReductionParams(p_val=1, group_variant=group))
    assert_built_as_from_a_dict(inst)
    assert decide(inst).kind == NOT_EQUAL


@pytest.mark.parametrize("group", [False, True], ids=["inverse", "group"])
@pytest.mark.parametrize("tm,inp", [(SCANNER, ("a", "a")), (LOOPER, ())], ids=["scan", "looper"])
def test_quotient_agrees_with_the_literal_automaton_on_the_sweep(tm, inp, group):
    # criterion 7's agreement sweep, on the quotient: every one-segment
    # word, and for the Looper inverse-semigroup instance every two-segment
    # word, resumed from its # prefix, acts on each side of the quotient as
    # on the literal side, states renamed through class_of
    params = TmReductionParams(p_val=3, input_word=inp, group_variant=group)
    inst = reduce_tm(tm, params)
    literal = inst.automaton
    quotient, class_of = minimize(literal)
    k = params.k
    suffix = ("$",) + ("0",) * k + ("$", "0")
    segments = [
        tuple(x for c in cells for x in (c,) + ("0",) * k)
        for cells in itertools.product(delta_alphabet(tm), repeat=3)
    ]
    defined = 0
    for side in (inst.lhs, inst.rhs):
        classes = [class_of[s.base] for s in side]
        for seg in segments:
            full = act_word(literal, side, seg + suffix)
            assert act_word(quotient, classes, seg + suffix) == renamed(full, class_of)
            defined += isinstance(full, Defined)
            if tm is not LOOPER or group:
                continue
            pre = act_word(literal, side, seg + ("#",))
            qpre = act_word(quotient, classes, seg + ("#",))
            assert qpre == renamed(pre, class_of)
            if isinstance(pre, Defined):
                for seg2 in segments:
                    tail = act_word(literal, pre.final, seg2 + suffix)
                    assert act_word(quotient, qpre.final, seg2 + suffix) == renamed(tail, class_of)
                    defined += isinstance(tail, Defined)
    assert defined > 0


def _one_segment_words(tm, params):
    k = params.k
    for cells in itertools.product(delta_alphabet(tm), repeat=params.p_val):
        parts = []
        for c in cells:
            parts.append(c)
            parts.extend(["0"] * k)
        yield tuple(parts) + ("$",) + ("0",) * k + ("$", "0")


def test_non_accepting_machine_acts_equal():
    params = TmReductionParams(p_val=2)
    inst = reduce_tm(LOOPER, params)
    gparams = TmReductionParams(p_val=2, group_variant=True)
    ginst = reduce_tm(LOOPER, gparams)
    checked = 0
    for u in _one_segment_words(LOOPER, params):
        lv = act_word(inst.automaton, inst.lhs, u)
        rv = act_word(inst.automaton, inst.rhs, u)
        if isinstance(lv, Defined):
            assert isinstance(rv, Defined) and lv.output == rv.output
            checked += 1
        else:
            assert lv == rv
        gl = act_word(ginst.automaton, ginst.lhs, u)
        gr = act_word(ginst.automaton, ginst.rhs, u)
        assert gl.output == gr.output
    assert checked >= 1


def test_head_token_collisions_rejected_early():
    # a tape symbol containing ":" could collide with a head token and
    # silently merge two automaton states, so it is rejected up front
    with pytest.raises(ValueError):
        TuringMachineSpec("bad", ["_", "a:b"], "_", ["z0"], "z0", [], {})


# Moore classes at p = 3, for the machines the benchmark runs
CLASSES = {("scan", False): 72, ("scan", True): 64, ("looper", False): 66, ("looper", True): 57}


@pytest.mark.parametrize("group", [False, True], ids=["inverse", "group"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "tm,inputs",
    [(SCANNER, {2: ("a",), 3: ("a", "a")}), (LOOPER, {}), (ACCEPT_NOW, {})],
    ids=["scan", "looper", "accnow"],
)
def test_quotient_instance_keeps_the_verdict(tm, inputs, p, group):
    params = TmReductionParams(p_val=p, input_word=inputs.get(p, ()), group_variant=group)
    inst = reduce_tm(tm, params)
    quotient, class_of = minimize(inst.automaton)
    if p == 3 and (tm.name, group) in CLASSES:
        assert len(quotient.states) == CLASSES[tm.name, group]
    lhs, rhs = ([class_of[s.base] for s in seq] for seq in (inst.lhs, inst.rhs))
    small = WordProblemInstance(quotient, lhs, rhs, inst.constraints)
    assert decide(small) == decide(inst)


# --- reduce tm against the literal reduction and the machine ---------------


def _random_machine(rng, name, tape, states):
    """1-2 states over the given tape, some rules left to the stay-put
    completion; the initial state may be final."""
    states = rng.sample(states, rng.randint(1, 2))
    rules = {
        (z, g): (rng.choice(tape), rng.choice(states), rng.choice(MOVES))
        for z in states
        for g in tape
        if rng.random() < 0.8
    }
    finals = [z for z in states if rng.random() < 0.3]
    return TuringMachineSpec(name, tape, tape[0], states, states[0], finals, rules)


def _reduce_tm_stdout(tm, params, tmp_path, capsys):
    f = tmp_path / f"{tm.name}.tm"
    f.write_text(serialize_tm(tm), encoding="utf-8")
    argv = ["reduce", "tm", str(f), "--space", str(params.p_val), "--input", *params.input_word]
    assert run(argv + ["--group"] * params.group_variant) == 0
    return capsys.readouterr().out


def test_reduce_tm_prints_the_quotient_of_the_literal_reduction(tmp_path, capsys):
    # reduce tm writes one chk row per tau class and names it by the least
    # literal name among its windows; the reference minimizes the literal
    # automaton. Names that sort before and after "|" ("x{", "b}", "a~")
    # make the least window string differ from the least row name.
    rng = random.Random(21)
    for trial in range(48):
        tape = rng.sample(["_", "a", "b}", "a~", "x{"], 2)
        tm = _random_machine(rng, f"m{trial}", tape, ["z0", "b}", "a~", "x{"])
        p, group = 1 + trial % 3, trial // 3 % 2 == 1
        word = tuple(rng.choices(tape[1:], k=rng.randint(0, p)))
        params = TmReductionParams(p_val=p, input_word=word, group_variant=group)
        inst = reduce_tm(tm, params)
        quotient, class_of = minimize(inst.automaton)
        lhs, rhs = (
            [SignedState(class_of[s.base], s.inverted) for s in seq] for seq in (inst.lhs, inst.rhs)
        )
        want = serialize_instance(WordProblemInstance(quotient, lhs, rhs, inst.constraints))
        assert _reduce_tm_stdout(tm, params, tmp_path, capsys) == want, (tm, params)


def _first_acceptance(tm, params):
    """The first step T >= 1 that enters a final state, or None if the
    machine leaves the space first or repeats a configuration before one:
    p * |Q| * 2^p configurations fit in the space over {_, a}."""
    cfg = initial_configuration(tm, params)
    for t in range(1, params.p_val * len(tm.states) * 2**params.p_val + 2):
        try:
            cfg = turing._step(tm, cfg)
        except (SpaceBoundViolated, LeftEdgeViolated):
            return None
        if any(split_head(c)[1] in tm.finals for c in cfg if ":" in c):
            return t
    return None


def test_reduce_tm_decides_as_the_machine_runs(tmp_path, capsys):
    # the verdict on the printed quotient is NotEqual exactly when the
    # machine accepts within the space; a group witness is the encoding of
    # that run, while the inverse variant's may be shorter (its shape
    # checker q_c does not pin block widths), so only its verdict is compared
    rng = random.Random(5)
    accepting = 0
    for trial in range(100):
        tm = _random_machine(rng, f"d{trial}", ["_", "a"], ["z0", "z1"])
        p = rng.randint(1, 3)
        word = ("a",) * rng.randint(0, p)
        T = _first_acceptance(tm, TmReductionParams(p_val=p, input_word=word))
        accepting += T is not None
        for group in (False, True):
            params = TmReductionParams(p_val=p, input_word=word, group_variant=group)
            doc = parse_text(_reduce_tm_stdout(tm, params, tmp_path, capsys))
            v = decide(doc.resolve(doc.instances[0]))
            assert v.kind == (EQUAL if T is None else NOT_EQUAL), (tm, params, T)
            if group and T is not None:
                assert v.witness == encode_computation(tm, params, T), (tm, params)
    assert 0 < accepting < 100
