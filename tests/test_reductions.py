"""DFA reduction compilers against hand-traced verdicts and the product
oracle."""

from __future__ import annotations

import random
from collections import deque

import pytest

from autsg import (
    Acceptor,
    EQUAL,
    MalformedDfa,
    NOT_EQUAL,
    check_properties,
    decide,
)
from autsg.mealy import _Table
from autsg.reductions import (
    DfaList,
    _counters,
    dfa_intersection_empty,
    reduce_dfa_emptiness,
    reduce_dfa_intersection,
)
from autsg.textio import serialize_instance
from helpers import W, assert_built_as_from_a_dict, random_dfa, stdout_under_hash_seeds


def bit_dfa(name, states, initial, finals, edges):
    trans = {(q, a, p) for (q, a), p in edges.items()}
    return Acceptor(name, ("0", "1"), states, trans, (initial,), finals)


EMPTY_LANG = bit_dfa("empty", ["z"], "z", [], {("z", "0"): "z", ("z", "1"): "z"})
ALL_WORDS = bit_dfa("all", ["z"], "z", ["z"], {("z", "0"): "z", ("z", "1"): "z"})
ONLY_EPSILON = bit_dfa(
    "eps",
    ["f", "s"],
    "f",
    ["f"],
    {("f", "0"): "s", ("f", "1"): "s", ("s", "0"): "s", ("s", "1"): "s"},
)
ZEROS_STAR = bit_dfa(
    "zeros",
    ["z", "dd"],
    "z",
    ["z"],
    {("z", "0"): "z", ("z", "1"): "dd", ("dd", "0"): "dd", ("dd", "1"): "dd"},
)
ONES_STAR = bit_dfa(
    "ones",
    ["o", "dd"],
    "o",
    ["o"],
    {("o", "1"): "o", ("o", "0"): "dd", ("dd", "0"): "dd", ("dd", "1"): "dd"},
)
EVEN_ZEROS_ONLY = bit_dfa(
    "evz",
    ["e", "o", "dd"],
    "e",
    ["e"],
    {
        ("e", "0"): "o",
        ("o", "0"): "e",
        ("e", "1"): "dd",
        ("o", "1"): "dd",
        ("dd", "0"): "dd",
        ("dd", "1"): "dd",
    },
)
ODD_ZEROS_ONLY = bit_dfa(
    "odz",
    ["e", "o", "dd"],
    "e",
    ["o"],
    {
        ("e", "0"): "o",
        ("o", "0"): "e",
        ("e", "1"): "dd",
        ("o", "1"): "dd",
        ("dd", "0"): "dd",
        ("dd", "1"): "dd",
    },
)
ODD_LENGTH = bit_dfa(
    "oddlen",
    ["ev", "od"],
    "ev",
    ["od"],
    {("ev", "0"): "od", ("ev", "1"): "od", ("od", "0"): "ev", ("od", "1"): "ev"},
)


def dfa_language_empty(acc: Acceptor) -> bool:
    steps = {(q, a): p for (q, a, p) in acc.transitions}
    start = next(iter(acc.initial))
    seen = {start}
    queue = deque([start])
    while queue:
        q = queue.popleft()
        if q in acc.final:
            return False
        for a in ("0", "1"):
            p = steps[(q, a)]
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return True


# -------------------------------------------------------------- validation


def test_dfalist_validation():
    with pytest.raises(MalformedDfa):
        DfaList([])
    bad_alpha = Acceptor("x", ("a", "b"), ("q",), {("q", "a", "q"), ("q", "b", "q")}, ("q",), ())
    with pytest.raises(MalformedDfa):
        DfaList([bad_alpha])
    nondet = Acceptor(
        "x", ("0", "1"), ("q", "p"),
        {("q", "0", "q"), ("q", "0", "p"), ("q", "1", "q"),
         ("p", "0", "p"), ("p", "1", "p")},
        ("q",), (),
    )
    with pytest.raises(MalformedDfa):
        DfaList([nondet])
    incomplete = Acceptor("x", ("0", "1"), ("q",), {("q", "0", "q")}, ("q",), ())
    with pytest.raises(MalformedDfa):
        DfaList([incomplete])
    two_initial = Acceptor(
        "x", ("0", "1"), ("q", "p"),
        {("q", "0", "q"), ("q", "1", "q"), ("p", "0", "p"), ("p", "1", "p")},
        ("q", "p"), (),
    )
    with pytest.raises(MalformedDfa):
        DfaList([two_initial])


def test_malformed_dfa_messages_do_not_depend_on_string_hashing():
    # the first pair in sorted order is the one named, whatever order a set
    # would iterate the states or the transitions in
    script = (
        "from autsg import Acceptor, MalformedDfa\n"
        "from autsg.reductions import DfaList\n"
        "edges = [(q, a, p) for q in 'pq' for a in '01' for p in 'pq']\n"
        "for make in (\n"
        "    lambda: Acceptor('x', '01', 'pqrs', [], 'p', []),\n"
        "    lambda: Acceptor('y', '01', 'pq', edges, 'p', []),\n"
        "):\n"
        "    try:\n"
        "        DfaList([make()])\n"
        "    except MalformedDfa as exc:\n"
        "        print(exc)\n"
    )
    expected = (
        "x: missing transition on ('p', '0')\n"
        "y: nondeterministic on ('p', '0')\n"
    )
    assert stdout_under_hash_seeds(["-c", script]) == [expected] * 2


def test_dfalist_metrics():
    d = DfaList([ZEROS_STAR, EVEN_ZEROS_ONLY])
    assert d.r == 2


# ---------------------------------------------------------- product oracle


def test_product_oracle_values():
    assert dfa_intersection_empty(DfaList([EMPTY_LANG]))
    assert not dfa_intersection_empty(DfaList([ZEROS_STAR, ONES_STAR]))
    assert dfa_intersection_empty(DfaList([EVEN_ZEROS_ONLY, ODD_ZEROS_ONLY]))


# ------------------------------------------------------------ intersection


@pytest.mark.parametrize("group", [False, True])
def test_intersection_empty_language_equal(group):
    inst = reduce_dfa_intersection(DfaList([EMPTY_LANG]), group)
    assert decide(inst).kind == EQUAL


@pytest.mark.parametrize("group", [False, True])
def test_intersection_epsilon_witness(group):
    inst = reduce_dfa_intersection(DfaList([ONLY_EPSILON]), group)
    v = decide(inst)
    assert v.kind == NOT_EQUAL
    assert v.witness == W("#1#1")


@pytest.mark.parametrize("group", [False, True])
def test_intersection_two_dfas(group):
    inst = reduce_dfa_intersection(DfaList([ZEROS_STAR, ONES_STAR]), group)
    v = decide(inst)
    assert v.kind == NOT_EQUAL
    assert v.witness == W("#11#1")

    inst = reduce_dfa_intersection(DfaList([EVEN_ZEROS_ONLY, ODD_ZEROS_ONLY]), group)
    assert decide(inst).kind == EQUAL


def test_intersection_instance_shape():
    d = DfaList([ZEROS_STAR, ONES_STAR])
    inst = reduce_dfa_intersection(d, False)
    assert [i.base for i in inst.lhs] == ["check", "dfa2_o", "dfa1_z"]
    assert [i.base for i in inst.rhs] == ["flip", "dfa2_o", "dfa1_z"]
    assert inst.constraints == ()
    g = reduce_dfa_intersection(d, True)
    assert len(g.constraints) == 1


def test_intersection_constraint_language():
    from autsg import acceptor_accepts

    g = reduce_dfa_intersection(DfaList([ZEROS_STAR, ONES_STAR]), True)
    c = g.constraints[0]
    assert acceptor_accepts(c, W("#11#1"))
    assert acceptor_accepts(c, W("010#11#1"))
    assert not acceptor_accepts(c, W("#11#0"))
    assert not acceptor_accepts(c, W("#1#1"))
    assert not acceptor_accepts(c, W("11#1"))


def test_intersection_automaton_classes():
    d = DfaList([ZEROS_STAR, EVEN_ZEROS_ONLY])
    plain = reduce_dfa_intersection(d, False)
    p = check_properties(plain.automaton)
    assert p.is_s_bar_automaton
    assert not p.complete
    g = reduce_dfa_intersection(d, True)
    pg = check_properties(g.automaton)
    assert pg.is_g_automaton
    assert pg.complete and pg.inverse_deterministic


def test_intersection_matches_oracle_on_random_inputs():
    rng = random.Random(2026)
    for trial in range(30):
        r = rng.randint(1, 3)
        d = DfaList([random_dfa(rng, f"t{trial}d{k}") for k in range(r)])
        want_equal = dfa_intersection_empty(d)
        for group in (False, True):
            inst = reduce_dfa_intersection(d, group)
            got = decide(inst)
            assert (got.kind == EQUAL) == want_equal, (trial, group)
            assert_built_as_from_a_dict(inst)
            p = check_properties(inst.automaton)
            assert p.is_g_automaton if group else p.is_s_bar_automaton, (trial, group)


# ------------------------------------------------- the counter template


def _rows_snapshot(table) -> tuple:
    """What a template holds, in lists that later writes cannot reach."""
    rows = [None if row is None else list(row) for row in table.rows]
    return list(table.states), list(table.outs), list(table.targets), rows


@pytest.mark.parametrize("group", [False, True])
def test_a_build_changes_neither_its_template_nor_an_earlier_build(group):
    first = reduce_dfa_intersection(DfaList([ZEROS_STAR, ONES_STAR]), group)
    text, verdict = serialize_instance(first), decide(first)
    template = _counters(2, group)
    before = _rows_snapshot(template)
    second = reduce_dfa_intersection(DfaList([EVEN_ZEROS_ONLY, ODD_LENGTH]), group)
    assert decide(second).kind == EQUAL and verdict.kind == NOT_EQUAL
    assert serialize_instance(first) == text and decide(first) == verdict
    assert _counters(2, group) is template and _rows_snapshot(template) == before
    # each build has lists of its own, and only the counter rows in common
    a, b = first.automaton._table, second.automaton._table
    for attr in ("states", "outs", "targets", "rows", "state_index"):
        assert len({id(getattr(t, attr)) for t in (a, b, template)}) == 3, attr


@pytest.mark.parametrize("group", [False, True])
def test_every_carried_row_is_the_row_built_afresh(group):
    # before any step, a build carries every signed row of its counters and
    # none of its DFA copies; stepped, all its rows, inverted ones included,
    # equal the rows of the same table built again from its cells (these
    # automata are inverse-deterministic, so no cell is _DEFERRED)
    rng = random.Random(20)
    for trial in range(12):
        r = rng.randint(1, 6)
        d = DfaList([random_dfa(rng, f"t{trial}d{k}") for k in range(r)])
        inst = reduce_dfa_intersection(d, group)
        table, counters = inst.automaton._table, 2 * len(_counters(r, group).states)
        assert len(table.rows) == 2 * len(table.states)
        assert None not in table.rows[:counters]
        assert table.rows[counters:] == [None] * (len(table.rows) - counters)
        decide(inst)
        carried = [table.rows[s] or table.row(s) for s in range(len(table.rows))]
        fresh = table.copy()
        fresh.rows = [None] * len(table.rows)
        assert carried == [fresh.row(s) for s in range(len(table.rows))], (trial, r)


def test_the_template_cache_is_bounded_and_every_r_stays_exact():
    # r = 1..20 in both variants is 40 templates, more than the cache keeps;
    # the DFAs come from a pool of four, so the product stays small
    rng, pool = random.Random(6), [ALL_WORDS, ODD_LENGTH, ZEROS_STAR, EVEN_ZEROS_ONLY]
    verdicts = set()
    for r in range(1, 21):
        d = DfaList([rng.choice(pool) for _ in range(r)])
        want_equal = dfa_intersection_empty(d)
        verdicts.add(want_equal)
        for group in (False, True):
            inst = reduce_dfa_intersection(d, group)
            assert (decide(inst).kind == EQUAL) == want_equal, (r, group)
            assert_built_as_from_a_dict(inst)
            assert _counters.cache_info().currsize <= 16
    assert verdicts == {False, True}


@pytest.mark.parametrize("group", [False, True])
def test_a_cached_template_leaves_a_build_only_its_dfa_cells(group, monkeypatch):
    # a silent loss of the template would change no output, only the time:
    # count what goes through _Table.add and _Table.row
    added, stepped = [], []
    add, row = _Table.add, _Table.row

    def spy_add(self, q, a, b, p):
        added.append(q)
        add(self, q, a, b, p)

    def spy_row(self, s):
        stepped.append(self.states[s >> 1])
        return row(self, s)

    monkeypatch.setattr(_Table, "add", spy_add)
    monkeypatch.setattr(_Table, "row", spy_row)
    _counters.cache_clear()
    reduce_dfa_intersection(DfaList([ZEROS_STAR, ONES_STAR]), group)
    assert "check" in added and "check" in stepped  # a first build writes the template
    added.clear()
    stepped.clear()
    d = DfaList([ONES_STAR, ZEROS_STAR])
    inst = reduce_dfa_intersection(d, group)
    assert len(added) == 3 * sum(len(acc.states) for acc in d.dfas)
    assert all(q.startswith("dfa") for q in added)
    # the witness runs through the counters, whose rows the template carried
    assert decide(inst).witness == W("#11#1")
    assert stepped and all(q.startswith("dfa") for q in stepped)


# -------------------------------------------------------------- emptiness


def test_emptiness_frozen_verdicts():
    assert decide(reduce_dfa_emptiness(EMPTY_LANG)).kind == EQUAL

    v = decide(reduce_dfa_emptiness(ALL_WORDS))
    assert v.kind == NOT_EQUAL
    assert v.witness == W("0")

    v = decide(reduce_dfa_emptiness(ODD_LENGTH))
    assert v.kind == NOT_EQUAL
    assert v.witness == W("00")


def test_emptiness_automaton_is_group():
    # identity at non-final states, a swap at final ones: every state acts
    # as a permutation, so the result is always a G-automaton
    p = check_properties(reduce_dfa_emptiness(ODD_LENGTH).automaton)
    assert p.is_g_automaton


def test_emptiness_rejects_malformed():
    incomplete = Acceptor("x", ("0", "1"), ("q",), {("q", "0", "q")}, ("q",), ())
    with pytest.raises(MalformedDfa):
        reduce_dfa_emptiness(incomplete)


def test_emptiness_witness_length_law():
    rng = random.Random(551)
    interesting = 0
    for trial in range(30):
        dfa = random_dfa(rng, f"e{trial}", max_states=5)
        inst = reduce_dfa_emptiness(dfa)
        assert_built_as_from_a_dict(inst)
        v = decide(inst)
        if dfa_language_empty(dfa):
            assert v.kind == EQUAL
            continue
        interesting += 1
        # shortest accepted word by subset-free BFS over the DFA
        steps = {(q, a): p for (q, a, p) in dfa.transitions}
        start = next(iter(dfa.initial))
        dist = {start: 0}
        queue = deque([start])
        best = None
        while queue:
            q = queue.popleft()
            if q in dfa.final:
                best = dist[q]
                break
            for a in ("0", "1"):
                p = steps[(q, a)]
                if p not in dist:
                    dist[p] = dist[q] + 1
                    queue.append(p)
        assert v.kind == NOT_EQUAL
        assert len(v.witness) == best + 1
    assert interesting >= 10
