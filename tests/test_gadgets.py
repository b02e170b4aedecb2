"""Example automata tables and the exponential separation family."""

from __future__ import annotations

import pytest

from autsg import (
    Defined,
    EQUAL,
    NOT_EQUAL,
    WordProblemInstance,
    act_word,
    build_gadget,
    check_properties,
    counter_sequence,
    decide,
    oracle_decide,
    separation_instance,
)
from helpers import S


def test_adding_machine_table():
    a = build_gadget("adding")
    assert a.states == frozenset({"+1", "+0"})
    assert a.alphabet == frozenset({"0", "1"})
    assert dict(a.transitions) == {
        ("+1", "1"): ("0", "+1"),
        ("+1", "0"): ("1", "+0"),
        ("+0", "0"): ("0", "+0"),
        ("+0", "1"): ("1", "+0"),
    }
    assert check_properties(a).is_g_automaton


def test_free_semigroup_tables():
    full = build_gadget("free")
    assert len(full.transitions) == 4
    partial = build_gadget("free-partial")
    assert len(partial.transitions) == 3
    # state b keeps exactly its b/b loop
    assert [k for k in partial.transitions if k[0] == "b"] == [("b", "b")]
    assert partial.transitions[("b", "b")] == ("b", "b")


def test_bireversible_example_table():
    b = build_gadget("bireversible")
    assert b.states == frozenset({"r", "s", "t"})
    assert b.alphabet == frozenset({"a", "b", "c"})
    assert dict(b.transitions) == {
        ("r", "a"): ("b", "s"),
        ("r", "c"): ("b", "t"),
    }
    p = check_properties(b)
    assert p.bireversible and not p.inverse_deterministic


def test_dual_adding_tables():
    d = build_gadget("dual-adding")
    assert dict(d.transitions) == {
        ("0", "a"): ("b", "1"),
        ("0", "b"): ("b", "0"),
        ("1", "a"): ("a", "0"),
        ("1", "b"): ("b", "1"),
    }
    dp = build_gadget("dual-adding-prime")
    assert dp.states == frozenset({"0", "1", "q"})
    assert dp.transitions[("q", "a")] == ("b", "q")
    assert dp.transitions[("q", "b")] == ("b", "q")
    # D sits inside D'
    for k, v in d.transitions.items():
        assert dp.transitions[k] == v


def test_gadget_id_validation():
    with pytest.raises(ValueError):
        build_gadget("no-such-gadget")


def test_example_action():
    d = build_gadget("dual-adding")
    r = act_word(d, ["0"], "aa")
    assert isinstance(r, Defined)
    assert r.output == ("b", "a")


# ------------------------------------------------------------- counter law


def test_counter_sequence_encoding():
    assert counter_sequence(0, 3) == S("0", "0", "0")
    assert counter_sequence(1, 3) == S("0", "0", "1")  # LSB rightmost
    assert counter_sequence(4, 3) == S("1", "0", "0")
    assert counter_sequence(6, 3) == S("1", "1", "0")
    with pytest.raises(ValueError):
        counter_sequence(8, 3)
    with pytest.raises(ValueError):
        counter_sequence(-1, 3)


def test_counter_law():
    d = build_gadget("dual-adding")
    for width in range(1, 7):
        for i in range(2**width - 1):
            r = act_word(d, counter_sequence(i, width), "a")
            assert r.output == ("b",)
            assert r.final == counter_sequence(i + 1, width)
            r = act_word(d, counter_sequence(i, width), "b")
            assert r.output == ("b",)
            assert r.final == counter_sequence(i, width)
        # wrap-around: all ones emits the carry and resets
        r = act_word(d, counter_sequence(2**width - 1, width), "a")
        assert r.output == ("a",)
        assert r.final == counter_sequence(0, width)


# -------------------------------------------------------------- separation


@pytest.mark.parametrize("n,length", [(1, 1), (2, 2), (3, 4), (5, 16)])
def test_separation_witness(n, length):
    verdict = decide(separation_instance("dual-adding", n))
    assert verdict.kind == NOT_EQUAL
    assert verdict.witness == ("a",) * length


@pytest.mark.parametrize("n,length", [(1, 1), (2, 2), (6, 32)])
def test_separation_witness_dprime(n, length):
    verdict = decide(separation_instance("dual-adding-prime", n))
    assert verdict.kind == NOT_EQUAL
    assert verdict.witness == ("a",) * length


def test_separation_rejects_bad_n():
    with pytest.raises(ValueError):
        separation_instance("dual-adding", 0)
    with pytest.raises(ValueError):
        separation_instance("dual-adding-prime", 0)
    with pytest.raises(ValueError):
        separation_instance("adding", 2)


def test_sides_agree_below_the_bound():
    d = build_gadget("dual-adding")
    for n in range(1, 5):
        inst = WordProblemInstance(
            d, S(*["0"] * n), S(*["0"] * (n - 1))
        )
        below = oracle_decide(inst, max_len=2 ** (n - 1) - 1, naive=(n <= 3))
        assert below.kind == EQUAL
