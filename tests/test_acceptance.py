"""End-to-end acceptance checks, one test per numbered criterion.

Every test prints a single "criterion N: PASS/FAIL (...)" line (visible
under pytest -s; pytest -v shows its own verdict per test) and collects
sub-check failures so the line is printed either way. The last test
replays text serialization over every automaton and acceptor the earlier
tests built, so the module is meant to run in file order as a whole.

Random draws are seeded and therefore reproducible; the seeds were not
searched, and every comparison below is exact (zero tolerance).
"""

import itertools
import random
import time

from helpers import acceptance_dfa

from autsg.errors import LeftEdgeViolated, SpaceBoundViolated
from autsg.gadgets import build_gadget, separation_instance
from autsg.mealy import (
    Acceptor,
    Defined,
    MealyAutomaton,
    PropertyReport,
    SignedState,
    UndefinedAt,
    acceptor_accepts,
    act_word,
    check_properties,
    complete_with_zero,
    dual,
    invert,
)
from autsg.reductions import (
    DfaList,
    dfa_intersection_empty,
    reduce_dfa_emptiness,
    reduce_dfa_intersection,
)
from autsg.textio import parse_text, serialize_acceptor, serialize_automaton
from autsg.turing import (
    CHECK_MARK_STATE,
    TmReductionParams,
    TuringMachineSpec,
    delta_alphabet,
    encode_computation,
    reduce_tm,
    simulate_tm,
)
from autsg.wordproblem import (
    EQUAL,
    NOT_EQUAL,
    WordProblemInstance,
    config_bound,
    decide,
    oracle_decide,
)

# Everything built while the criteria run is collected here; criterion 9
# round-trips it all through the text format.
_MEALY: list[MealyAutomaton] = []
_ACCEPTORS: list[Acceptor] = []
_SEEN: set = set()


def _register(aut: MealyAutomaton) -> None:
    key = (aut.name, aut.alphabet, aut.states, frozenset(aut.transitions.items()))
    if key not in _SEEN:
        _SEEN.add(key)
        _MEALY.append(aut)


def _register_acceptor(acc: Acceptor) -> None:
    key = (acc.name, acc.alphabet, acc.states, acc.transitions, acc.initial, acc.final)
    if key not in _SEEN:
        _SEEN.add(key)
        _ACCEPTORS.append(acc)


def _emit(num: int, problems: list, detail: str) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num}: {status} ({detail})")
    assert not problems, f"criterion {num}: " + "; ".join(str(p) for p in problems[:10])


def _rand_partial(rng, name, max_states=3, letters=("0", "1"), density=0.7):
    m = rng.randint(1, max_states)
    states = [f"q{j}" for j in range(m)]
    trans = {}
    for q in states:
        for a in letters:
            if rng.random() < density:
                trans[(q, a)] = (rng.choice(letters), rng.choice(states))
    return MealyAutomaton(name, letters, states, trans)


# --- criterion 1 -------------------------------------------------------------


def test_criterion_1_adding_machine_exactness():
    problems = []
    adding = build_gadget("adding")
    _register(adding)
    act_word(adding, ["+1"], "010")  # warm-up, so the timing is steady-state
    t0 = time.perf_counter()
    r1 = act_word(adding, ["+1"], "010")
    r2 = act_word(adding, ["+1"], "110")
    elapsed = time.perf_counter() - t0
    if not (isinstance(r1, Defined) and "".join(r1.output) == "110"):
        problems.append(f"+1 on 010 gave {r1!r}")
    if not (isinstance(r2, Defined) and "".join(r2.output) == "001"):
        problems.append(f"+1 on 110 gave {r2!r}")
    if elapsed >= 0.001:
        problems.append(f"two actions took {elapsed * 1000:.3f}ms, budget 1ms")
    _emit(1, problems, f"both increments byte-exact in {elapsed * 1e6:.0f}us")


# --- criterion 2 -------------------------------------------------------------


def test_criterion_2_exponential_separation():
    t0 = time.perf_counter()
    problems = []
    d = build_gadget("dual-adding")
    dp = build_gadget("dual-adding-prime")
    _register(d)
    _register(dp)
    prime_base = len(dp.states) - 1
    for n in range(1, 17):
        v = decide(separation_instance("dual-adding", n))
        if v.kind != NOT_EQUAL or len(v.witness) != 2 ** (n - 1):
            problems.append(f"n={n}: main family {v.kind}, witness {v.witness!r:.40}")
        v = decide(separation_instance("dual-adding-prime", n))
        # (state count - 1) raised to (total sequence items - 1); the two
        # sides have n-1 and 1 items, so this equals 2**(n-1)
        want = prime_base ** ((n - 1) + 1 - 1)
        if v.kind != NOT_EQUAL or want != 2 ** (n - 1) or len(v.witness) != want:
            problems.append(f"n={n}: extended family {v.kind}, witness {v.witness!r:.40}")
    for n in range(1, 6):
        bound = 2 ** (n - 1) - 1
        v = oracle_decide(
            WordProblemInstance(d, ["0"] * n, ["0"] * (n - 1)), bound, naive=True
        )
        if v.kind != EQUAL:
            problems.append(f"n={n}: main family differs below the bound: {v}")
        v = oracle_decide(
            WordProblemInstance(dp, ["0"] * (n - 1), ["q"]), bound, naive=True
        )
        if v.kind != EQUAL:
            problems.append(f"n={n}: extended family differs below the bound: {v}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _emit(
        2,
        problems,
        f"witness lengths exact for n=1..16 in both families, exhaustive "
        f"agreement below 2**(n-1) for n<=5, {elapsed:.1f}s",
    )


# --- criterion 3 -------------------------------------------------------------


def test_criterion_3_zero_completion_faithfulness():
    rng = random.Random(20260817)
    problems = []
    outcomes = {EQUAL: 0, NOT_EQUAL: 0}
    for i in range(200):
        aut = _rand_partial(rng, f"zc{i}")
        states = sorted(aut.states)
        # Products of generators only: the empty sequence denotes the ambient
        # identity map, which the completion genuinely tells apart from every
        # product (any product sends the fresh bottom letter to bottom,
        # the identity keeps the word as it is).
        lhs = [rng.choice(states) for _ in range(rng.randint(1, 3))]
        rhs = [rng.choice(states) for _ in range(rng.randint(1, 3))]
        hat = complete_with_zero(aut)
        _register(aut)
        _register(hat)
        v = decide(WordProblemInstance(aut, lhs, rhs))
        vh = decide(WordProblemInstance(hat, lhs, rhs))
        if v.kind != vh.kind or v.witness != vh.witness:
            problems.append(
                f"case {i}: {v.kind}/{v.witness} vs completed {vh.kind}/{vh.witness}"
            )
        outcomes[v.kind] += 1
    _emit(
        3,
        problems,
        f"200 partial automata agree with their completions, kind and witness: "
        f"{outcomes[EQUAL]} equal, {outcomes[NOT_EQUAL]} not",
    )


# --- criterion 4 -------------------------------------------------------------


def test_criterion_4_decider_matches_oracle():
    rng = random.Random(777)
    problems = []
    outcomes = {EQUAL: 0, NOT_EQUAL: 0}
    inverted_cases = 0
    for i in range(200):
        letters = ("0", "1")[: rng.randint(1, 2)]
        aut = _rand_partial(rng, f"wp{i}", letters=letters)
        _register(aut)
        states = sorted(aut.states)
        inv_ok = check_properties(aut).inverse_deterministic

        def draw_seq():
            out = []
            for _ in range(rng.randint(0, 3)):
                inv = inv_ok and rng.random() < 0.3
                out.append(SignedState(rng.choice(states), inverted=inv))
            return out

        lhs = draw_seq()
        rhs = draw_seq()
        if any(s.inverted for s in lhs + rhs):
            inverted_cases += 1
        constraints = []
        for _ in range(rng.randint(0, 1)):
            m = rng.randint(1, 2)
            cs = [f"x{j}" for j in range(m)]
            ctrans = set()
            for q in cs:
                for a in letters:
                    for p in cs:
                        if rng.random() < 0.5:
                            ctrans.add((q, a, p))
            init = [q for q in cs if rng.random() < 0.6] or [cs[0]]
            fin = [q for q in cs if rng.random() < 0.5]
            acc = Acceptor(f"k{i}", letters, cs, ctrans, init, fin)
            constraints.append(acc)
            _register_acceptor(acc)
        inst = WordProblemInstance(aut, lhs, rhs, constraints)
        v = decide(inst)
        vo = oracle_decide(inst, max_len=config_bound(inst))
        if v.kind != vo.kind or v.witness != vo.witness:
            problems.append(
                f"case {i}: decide {v.kind}/{v.witness}, oracle {vo.kind}/{vo.witness}"
            )
        outcomes[v.kind] += 1
    _emit(
        4,
        problems,
        f"200 instances, identical kinds and witnesses "
        f"({outcomes[NOT_EQUAL]} not-equal, {inverted_cases} with inverted items)",
    )


# --- criterion 5 -------------------------------------------------------------


def test_criterion_5_dfa_intersection_reduction():
    t0 = time.perf_counter()
    rng = random.Random(42)
    problems = []
    empties = 0
    for i in range(100):
        r = rng.randint(1, 3)
        dfas = [acceptance_dfa(rng, f"d{i}_{k}", 4, 0.5) for k in range(r)]
        for acc in dfas:
            _register_acceptor(acc)
        d = DfaList(dfas)
        empty = dfa_intersection_empty(d)
        empties += empty
        for group in (False, True):
            inst = reduce_dfa_intersection(d, group_variant=group)
            _register(inst.automaton)
            for acc in inst.constraints:
                _register_acceptor(acc)
            v = decide(inst)
            if (v.kind == EQUAL) != empty:
                problems.append(
                    f"list {i} group={group}: product oracle says empty={empty}, "
                    f"decide says {v.kind}"
                )
            if group and not check_properties(inst.automaton).is_g_automaton:
                problems.append(f"list {i}: group-variant automaton fails the class check")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    _emit(
        5,
        problems,
        f"100 lists, both variants match the product oracle "
        f"({empties} empty intersections), {elapsed:.1f}s",
    )


# --- criterion 6 -------------------------------------------------------------


def test_criterion_6_dfa_emptiness_reduction():
    rng = random.Random(4242)
    problems = []
    empties = 0
    for i in range(100):
        dfa = acceptance_dfa(rng, f"e{i}", 5, 0.15)
        _register_acceptor(dfa)
        steps = {(q, a): p for (q, a, p) in dfa.transitions}
        start = next(iter(dfa.initial))
        seen = {start}
        frontier = [start]
        while frontier:
            q = frontier.pop()
            for a in ("0", "1"):
                p = steps[(q, a)]
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        empty = not (seen & dfa.final)
        empties += empty
        inst = reduce_dfa_emptiness(dfa)
        _register(inst.automaton)
        v = decide(inst)
        if (v.kind == EQUAL) != empty:
            problems.append(f"dfa {i}: reachability oracle says empty={empty}, decide {v.kind}")
    _emit(
        6,
        problems,
        f"100 complete automata match the reachability oracle ({empties} empty)",
    )


# --- criterion 7 -------------------------------------------------------------

ACCEPT_NOW = TuringMachineSpec(
    "accnow",
    ["_", "a"],
    "_",
    ["z0", "zf"],
    "z0",
    ["zf"],
    {("z0", "_"): ("_", "zf", "N"), ("z0", "a"): ("a", "zf", "N")},
)

LOOPER = TuringMachineSpec(
    "looper",
    ["_", "a"],
    "_",
    ["z0", "z1"],
    "z0",
    [],
    {("z0", "_"): ("_", "z0", "N"), ("z0", "a"): ("a", "z0", "N")},
)

SCANNER = TuringMachineSpec(
    "scan",
    ["_", "a"],
    "_",
    ["z0", "zf"],
    "z0",
    ["zf"],
    {("z0", "a"): ("a", "z0", "R"), ("z0", "_"): ("_", "zf", "N")},
)

HAND_MACHINES = (ACCEPT_NOW, LOOPER, SCANNER)


def _segment(cells, k):
    parts = []
    for c in cells:
        parts.append(c)
        parts.extend(["0"] * k)
    return tuple(parts)


def _resume(aut, pre, tail):
    """Partial value of prefix+tail given the prefix action result."""
    if not isinstance(pre, Defined):
        return None
    v = act_word(aut, pre.final, tail)
    if not isinstance(v, Defined):
        return None
    return pre.output + v.output


def _agreement_sweep(tm, inp, problems):
    """Exhaustively compare the two sides of both reduction variants on every
    one- and two-segment word shape (segment cells drawn from the full cell
    alphabet, digit blocks all zero). Returns the number of words checked."""
    delta = delta_alphabet(tm)
    k = TmReductionParams(p_val=3, input_word=inp).k
    suffix = ("$",) + ("0",) * k + ("$", "0")
    words = 0
    for group in (False, True):
        inst = reduce_tm(tm, TmReductionParams(p_val=3, input_word=inp, group_variant=group))
        aut = inst.automaton
        _register(aut)
        for acc in inst.constraints:
            _register_acceptor(acc)
        defined_hits = 0
        for cells1 in itertools.product(delta, repeat=3):
            seg1 = _segment(cells1, k)
            lv = act_word(aut, inst.lhs, seg1 + suffix)
            rv = act_word(aut, inst.rhs, seg1 + suffix)
            lval = lv.output if isinstance(lv, Defined) else None
            rval = rv.output if isinstance(rv, Defined) else None
            if lval != rval:
                problems.append(f"{tm.name}/{inp}: one-segment disagreement at {cells1}")
            elif lval is not None:
                defined_hits += 1
            words += 1
            lpre = act_word(aut, inst.lhs, seg1 + ("#",))
            rpre = act_word(aut, inst.rhs, seg1 + ("#",))
            if not isinstance(lpre, Defined) and not isinstance(rpre, Defined):
                words += len(delta) ** 3  # both sides stay undefined on every extension
                continue
            for cells2 in itertools.product(delta, repeat=3):
                tail = _segment(cells2, k) + suffix
                lfull = _resume(aut, lpre, tail)
                rfull = _resume(aut, rpre, tail)
                if lfull != rfull:
                    problems.append(
                        f"{tm.name}/{inp}: two-segment disagreement at {cells1}+{cells2}"
                    )
                    if len(problems) > 25:
                        return words
                elif lfull is not None:
                    defined_hits += 1
                words += 1
        if not group and defined_hits == 0:
            problems.append(f"{tm.name}/{inp}: no defined agreements at all")
    return words


def test_criterion_7_machine_reduction_properties():
    t0 = time.perf_counter()
    problems = []

    # (a) accepted computations separate the sides, exactly at the last letter
    accept_cases = 0
    for tm in HAND_MACHINES:
        for ln in range(4):
            inp = ("a",) * ln
            for p in range(max(1, ln), 6):
                params = TmReductionParams(p_val=p, input_word=inp)
                try:
                    sim = simulate_tm(tm, params, 64)
                except (SpaceBoundViolated, LeftEdgeViolated):
                    continue
                T = sim.accepts_within
                if not T:
                    continue
                w = encode_computation(tm, params, T)
                for group in (False, True):
                    inst = reduce_tm(
                        tm, TmReductionParams(p_val=p, input_word=inp, group_variant=group)
                    )
                    _register(inst.automaton)
                    for acc in inst.constraints:
                        _register_acceptor(acc)
                    lv = act_word(inst.automaton, inst.lhs, w)
                    rv = act_word(inst.automaton, inst.rhs, w)
                    tag = f"{tm.name} |inp|={ln} p={p} group={group}"
                    if not (isinstance(lv, Defined) and isinstance(rv, Defined)):
                        problems.append(f"{tag}: sides not both defined on the encoding")
                        continue
                    if lv.output[:-1] != rv.output[:-1] or lv.output[-1] == rv.output[-1]:
                        problems.append(f"{tag}: outputs do not differ exactly at the end")
                    if group and not acceptor_accepts(inst.constraints[0], w):
                        problems.append(f"{tag}: encoding is outside the constraint language")
                accept_cases += 1

    # (b) no acceptance within two steps means full agreement on all
    # one- and two-segment words at width 3
    sweeps = 0
    words = 0
    for tm in HAND_MACHINES:
        for ln in range(4):
            inp = ("a",) * ln
            params = TmReductionParams(p_val=3, input_word=inp)
            try:
                sim = simulate_tm(tm, params, 2)
            except (SpaceBoundViolated, LeftEdgeViolated):
                continue
            if sim.accepts_within is not None:
                continue
            words += _agreement_sweep(tm, inp, problems)
            sweeps += 1

    # (c) the marker overflows: applied twice to a 01 a 10 it runs out of
    # digits in the first block and dies there
    aut = reduce_tm(LOOPER, TmReductionParams(p_val=3)).automaton
    word = ("a", "0", "1", "a", "1", "0")
    once = act_word(aut, [CHECK_MARK_STATE], word)
    twice = act_word(aut, [CHECK_MARK_STATE, CHECK_MARK_STATE], word)
    if not (isinstance(once, Defined) and once.output == ("a", "1", "1", "a", "0", "1")):
        problems.append(f"single marking gave {once!r}")
    if twice != UndefinedAt(3):
        problems.append(f"double marking gave {twice!r}, expected undefined at 3")

    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        problems.append(f"took {elapsed:.1f}s, budget 600s")
    _emit(
        7,
        problems,
        f"{accept_cases} accepting runs separate exactly at the last letter, "
        f"{sweeps} exhaustive sweeps over {words} words agree, overflow check, "
        f"{elapsed:.0f}s",
    )


# --- criterion 8 -------------------------------------------------------------


def test_criterion_8_structural_invariants():
    rng = random.Random(88)
    problems = []
    gadget_pool = [
        build_gadget(g)
        for g in (
            "adding",
            "free",
            "free-partial",
            "bireversible",
            "dual-adding",
            "dual-adding-prime",
        )
    ]
    rand_pool = [_rand_partial(rng, f"st{i}") for i in range(60)]
    pool = gadget_pool + rand_pool
    for a in pool:
        _register(a)

    # length preservation and prefix compatibility
    for _ in range(500):
        aut = rng.choice(pool)
        states = sorted(aut.states)
        letters = sorted(aut.alphabet)
        seq = [rng.choice(states) for _ in range(rng.randint(0, 3))]
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        res = act_word(aut, seq, w)
        if isinstance(res, Defined):
            if len(res.output) != len(w):
                problems.append(f"{aut.name}: length not preserved on {w}")
            i = rng.randint(0, len(w))
            pre = act_word(aut, seq, w[:i])
            if not isinstance(pre, Defined) or pre.output != res.output[:i]:
                problems.append(f"{aut.name}: prefix of length {i} inconsistent on {w}")
        else:
            j = res.index
            pre = act_word(aut, seq, w[:j])
            again = act_word(aut, seq, w[: j + 1])
            if not isinstance(pre, Defined) or again != res:
                problems.append(f"{aut.name}: undefined index {j} inconsistent on {w}")

    # an inverted state undoes its original on the domain
    inv_pool = [a for a in pool if check_properties(a).inverse_deterministic]
    defined_cases = 0
    for _ in range(300):
        aut = rng.choice(inv_pool)
        q = rng.choice(sorted(aut.states))
        letters = sorted(aut.alphabet)
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        res = act_word(aut, [SignedState(q, inverted=True), SignedState(q)], w)
        if isinstance(res, Defined):
            defined_cases += 1
            if res.output != w:
                problems.append(f"{aut.name}: ~{q} after {q} moved {w}")
    if defined_cases < 50:
        problems.append(f"inverse identity sampled too thin ({defined_cases} defined)")

    # inversion and duality are involutions (inversion up to the ~~ renaming)
    for aut in pool:
        if check_properties(aut).inverse_deterministic:
            inv = invert(aut)
            _register(inv)
            inv2 = invert(inv)
            want = {
                (f"~~{q}", a): (b, f"~~{p}")
                for (q, a), (b, p) in aut.transitions.items()
            }
            if dict(inv2.transitions) != want or inv2.states != {
                f"~~{q}" for q in aut.states
            }:
                problems.append(f"{aut.name}: double inversion is not the ~~ renaming")
        dd = dual(dual(aut))
        _register(dual(aut))
        if not dd.same_structure(aut):
            problems.append(f"{aut.name}: double dual changed the table")

    # the free-semigroup prefix law, 1000 pairs
    free = build_gadget("free")
    for _ in range(1000):
        q = [rng.choice("ab") for _ in range(rng.randint(0, 6))]
        u = tuple(rng.choice("ab") for _ in range(rng.randint(0, 10)))
        res = act_word(free, q, u)
        want = (tuple(q) + u)[: len(u)]
        if not isinstance(res, Defined) or res.output != want:
            problems.append(f"free prefix law broke for q={q} u={u}")
            break

    # completeness plus inverse determinism forces inverse completeness
    dense = [_rand_partial(rng, f"ic{i}", density=0.95) for i in range(200)]
    for a in dense:
        _register(a)
    implication_hits = 0
    for aut in pool + dense:
        rep = check_properties(aut)
        if rep.complete and rep.inverse_deterministic:
            implication_hits += 1
            if not rep.inverse_complete:
                problems.append(f"{aut.name}: complete + inverse-deterministic "
                                "but not inverse-complete")
    if implication_hits < 5:
        problems.append(f"implication sampled too thin ({implication_hits} cases)")

    # the partial reversible example carries exactly the expected flag set
    rep = check_properties(build_gadget("bireversible"))
    want_rep = PropertyReport(
        complete=False,
        inverse_deterministic=False,
        inverse_complete=False,
        reversible=True,
        bireversible=True,
        is_g_automaton=False,
    )
    if rep != want_rep:
        problems.append(f"example flag set is {rep}")

    _emit(
        8,
        problems,
        f"prefix laws, inverse identity ({defined_cases} defined cases), "
        f"involutions, free law x1000, implication ({implication_hits} cases), "
        f"example flags",
    )


# --- criterion 9 -------------------------------------------------------------


def test_criterion_9_serialization_round_trip():
    t0 = time.perf_counter()
    problems = []
    if len(_MEALY) < 100 or not _ACCEPTORS:
        problems.append("registry is nearly empty; run the whole module in order")
    for aut in _MEALY:
        doc = parse_text(serialize_automaton(aut))
        if doc.automata.get(aut.name) != aut:
            problems.append(f"automaton {aut.name} did not round-trip")
            if len(problems) > 20:
                break
    for acc in _ACCEPTORS:
        doc = parse_text(serialize_acceptor(acc))
        if doc.acceptors.get(acc.name) != acc:
            problems.append(f"acceptor {acc.name} did not round-trip")
            if len(problems) > 20:
                break
    elapsed = time.perf_counter() - t0
    _emit(
        9,
        problems,
        f"{len(_MEALY)} automata and {len(_ACCEPTORS)} acceptors round-tripped, "
        f"{elapsed:.1f}s",
    )
