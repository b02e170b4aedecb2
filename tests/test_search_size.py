"""The size of the search behind decide, pinned.

decide stores one configuration per distinct (lhs, rhs, subsets, diverged)
tuple it reaches, and raises ConfigBudgetExceeded as soon as it holds more
than max_configs, reporting how many it stored and the breadth-first depth
it reached. A witness is returned as its configuration is stored, before
the budget test. So the least budget under which decide returns measures
the whole search, and the depth at a fixed budget shows how far
breadth-first order got. A change to how the search represents or steps
its configurations must leave both as they are.
"""

import hashlib
import random
from collections import Counter

import pytest
from helpers import LOOPER, SCANNER, acceptance_dfa

from autsg.errors import ConfigBudgetExceeded
from autsg.gadgets import separation_instance
from autsg.mealy import SignedState, minimize
from autsg.reductions import DfaList, reduce_dfa_emptiness, reduce_dfa_intersection
from autsg.turing import TmReductionParams, reduce_tm
from autsg.wordproblem import NOT_EQUAL, WordProblemInstance, decide

BUDGET = 25


def _least_budget(inst: WordProblemInstance) -> int:
    """The least max_configs under which decide(inst) returns."""
    lo, hi = 1, 1
    while _exceeds(inst, hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if _exceeds(inst, mid) else (lo, mid)
    return lo


def _exceeds(inst: WordProblemInstance, budget: int) -> bool:
    try:
        decide(inst, max_configs=budget)
    except ConfigBudgetExceeded:
        return True
    return False


def _at_budget(inst: WordProblemInstance) -> tuple[int, int] | str:
    """(configs, depth) when decide(inst) passes BUDGET, else its verdict's kind."""
    try:
        return decide(inst, max_configs=BUDGET).kind
    except ConfigBudgetExceeded as exc:
        return exc.configs, exc.depth


# on dual-adding, n = 9 is the first size whose sides are stepped in blocks:
# 9 items against 8
@pytest.mark.parametrize("n", [8, 9, 12, 16])
@pytest.mark.parametrize("name", ["dual-adding", "dual-adding-prime"])
def test_separation_stores_one_config_per_witness_letter(name, n):
    inst, half = separation_instance(name, n), 2 ** (n - 1)
    with pytest.raises(ConfigBudgetExceeded) as exc:
        decide(inst, max_configs=half - 1)
    assert (exc.value.configs, exc.value.depth) == (half, half - 1)
    verdict = decide(inst, max_configs=half)
    assert verdict.kind == NOT_EQUAL and len(verdict.witness) == half


# per (machine, variant) at p = 3, on the Moore quotient as reduce tm emits
# it: (configs, depth) at BUDGET, and the least budget that decides
TM_SEARCH = {
    ("scan", False): ((26, 6), 137),
    ("scan", True): ((26, 4), 1180),
    ("looper", False): ((26, 8), 31),
    ("looper", True): ((26, 5), 263),
}


@pytest.mark.parametrize("group", [False, True], ids=["inverse", "group"])
@pytest.mark.parametrize(
    "tm,word", [(SCANNER, ("a", "a")), (LOOPER, ())], ids=["scan", "looper"]
)
def test_machine_reduction_search_size(tm, word, group):
    inst = reduce_tm(tm, TmReductionParams(p_val=3, input_word=word, group_variant=group))
    quotient, class_of = minimize(inst.automaton)
    lhs, rhs = (
        [SignedState(class_of[item.base], item.inverted) for item in seq]
        for seq in (inst.lhs, inst.rhs)
    )
    small = WordProblemInstance(quotient, lhs, rhs, inst.constraints)
    at_budget, least = TM_SEARCH[tm.name, group]
    assert _at_budget(small) == at_budget
    assert _exceeds(small, least - 1) and not _exceeds(small, least)


def _dfa_instances() -> list[WordProblemInstance]:
    """The instances of acceptance criteria 5 and 6, in their order."""
    out, rng = [], random.Random(42)
    for i in range(100):
        r = rng.randint(1, 3)
        dfas = DfaList([acceptance_dfa(rng, f"d{i}_{k}", 4, 0.5) for k in range(r)])
        out += [reduce_dfa_intersection(dfas, group) for group in (False, True)]
    rng = random.Random(4242)
    out += [reduce_dfa_emptiness(acceptance_dfa(rng, f"e{i}", 5, 0.15)) for i in range(100)]
    return out


def test_dfa_reduction_search_sizes():
    # the least budget of each instance, summed and hashed in order, and a
    # tally of what decide gives at BUDGET
    instances = _dfa_instances()
    least = [_least_budget(inst) for inst in instances]
    assert sum(least) == 2846
    assert hashlib.sha256(repr(least).encode()).hexdigest() == (
        "341bcdee0979da6acd1eee301f8e85c1eac49b63af6f1967243d5028d19bf0bf"
    )
    assert Counter(map(_at_budget, instances)) == {
        "NotEqual": 124,
        "Equal": 154,
        (26, 5): 2,
        (26, 6): 14,
        (26, 7): 4,
        (26, 8): 2,
    }
