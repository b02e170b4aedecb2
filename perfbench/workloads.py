"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload is built from a namespace of freshly imported autsg modules
(so set-up time includes the import), a seed and a quick flag for the
reduced-size smoke run. run_pass() does one full pass over the inputs and
records every verdict and time in an Outcome; check() verifies one pass's
outputs outside the timed region and returns {operation key: problem}.

Every pass rebuilds its automata from plain data or files, so a cache a
later version of the library keeps on an automaton object cannot carry over
from one pass to the next.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
import time
import traceback

EQUAL = "Equal"
NOT_EQUAL = "NotEqual"

clock = time.perf_counter


class Outcome:
    """Everything one pass produced."""

    def __init__(self, tracer, between=None):
        self.tracer = tracer
        self.between = between  # runs before each operation, off the clock
        self.paused = 0.0  # seconds spent in between()
        self.verdicts: dict[str, tuple[str, tuple | None]] = {}
        self.latencies: dict[str, float] = {}  # seconds per decide request
        self.extra: dict[str, object] = {}
        self.op_seconds: dict[str, float] = {}  # every operation attempted
        self.errors: dict[str, str] = {}
        self.seconds = 0.0

    @contextlib.contextmanager
    def op(self, key: str):
        """One timed operation: an exception fails it without stopping the
        pass."""
        if self.between is not None:
            t0 = clock()
            self.between()
            self.paused += clock() - t0
        self.tracer.instance = key
        t0 = clock()
        try:
            yield
        except Exception as exc:  # the pass must go on; the failure is counted
            traceback.print_exc(file=sys.stderr)
            self.errors[key] = f"{type(exc).__name__}: {exc}"
        finally:
            self.op_seconds[key] = clock() - t0


def _value(m, result):
    return result.output if isinstance(result, m.mealy.Defined) else None


def replay(m, tracer, key, automaton, lhs, rhs, constraints, witness):
    """A NotEqual witness must separate the sides' partial values and lie in
    every constraint language. Returns a problem or None."""
    tracer.instance = key
    with tracer.span("bench.witness_replay"):
        lv = m.mealy.act_word(automaton, lhs, witness)
        rv = m.mealy.act_word(automaton, rhs, witness)
    if _value(m, lv) == _value(m, rv):
        return "the sides agree on the witness"
    for acc in constraints:
        if not m.mealy.acceptor_accepts(acc, witness):
            return f"constraint {acc.name} rejects the witness"
    return None


def _porcelain(line: str):
    """(kind, witness) from one `decide --porcelain` line."""
    if line == "EQUAL":
        return EQUAL, None
    head, _, rest = line.partition(" ")
    length, _, toks = rest.partition(" ")
    witness = tuple(toks.split())
    if head != "NOT-EQUAL" or int(length) != len(witness):
        raise ValueError(f"unexpected porcelain line {line[:80]!r}")
    return NOT_EQUAL, witness


# --------------------------------------------------------------------------
# separation


class Separation:
    """decide on the dual adding machine and its extension by a constant
    state, n = 8..16: witnesses of length 2**(n-1), found by search alone.
    The instances are the paper's, so the seed has no effect."""

    name = "separation"

    def __init__(self, m, seed: int, quick: bool, workdir):
        self.m = m
        low, high = (4, 9) if quick else (8, 16)
        self.jobs = []
        for n in range(low, high + 1):
            self.jobs.append(("dual-adding", n, ("0",) * n, ("0",) * (n - 1)))
            self.jobs.append(("dual-adding-prime", n, ("0",) * (n - 1), ("q",)))

    def run_pass(self, out: Outcome) -> None:
        gadgets, wp = self.m.gadgets, self.m.wordproblem
        for name, n, lhs, rhs in self.jobs:
            key = f"{name}/n={n}"
            with out.op(key):
                inst = wp.WordProblemInstance(gadgets.build_gadget(name), lhs, rhs)
                t0 = clock()
                verdict = wp.decide(inst)
                out.latencies[key] = clock() - t0
                out.verdicts[key] = (verdict.kind, verdict.witness)

    def check(self, out: Outcome) -> dict[str, str]:
        problems = {}
        for name, n, lhs, rhs in self.jobs:
            key = f"{name}/n={n}"
            if key not in out.verdicts:
                continue
            kind, witness = out.verdicts[key]
            if kind != NOT_EQUAL:
                problems[key] = f"expected NotEqual, got {kind}"
            elif len(witness) != 2 ** (n - 1):
                problems[key] = f"witness length {len(witness)}, expected {2 ** (n - 1)}"
            else:
                aut = self.m.gadgets.build_gadget(name)
                problem = replay(self.m, out.tracer, key, aut, lhs, rhs, (), witness)
                if problem:
                    problems[key] = problem
        return problems


# --------------------------------------------------------------------------
# tm-pipeline

# name, tape, blank, states, initial, finals, rules, input
MACHINES = (
    (
        "scan",
        ("_", "a"),
        "_",
        ("z0", "zf"),
        "z0",
        ("zf",),
        {("z0", "a"): ("a", "z0", "R"), ("z0", "_"): ("_", "zf", "N")},
        ("a", "a"),
    ),
    (
        "looper",
        ("_", "a"),
        "_",
        ("z0", "z1"),
        "z0",
        (),
        {("z0", "_"): ("_", "z0", "N"), ("z0", "a"): ("a", "z0", "N")},
        (),
    ),
)
SPACE = 3
SIM_STEPS = 32
SWEPT = "looper/inverse"


class TmPipeline:
    """`autsg reduce tm` to a file, then `autsg decide --porcelain` on it,
    both in process; then an act_word agreement sweep over every one- and
    two-segment word of the looper's inverse-semigroup instance. The
    instances are fixed, so the seed has no effect."""

    name = "tm-pipeline"

    def __init__(self, m, seed: int, quick: bool, workdir):
        self.m = m
        self.workdir = workdir / "tm"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.specs = {}
        self.jobs = []
        for name, tape, blank, states, initial, finals, rules, inp in MACHINES:
            spec = m.turing.TuringMachineSpec(name, tape, blank, states, initial, finals, rules)
            self.specs[name] = (spec, inp)
            (self.workdir / f"{name}.tm").write_text(m.textio.serialize_tm(spec), encoding="utf-8")
            for group in (False,) if quick else (False, True):
                self.jobs.append((name, inp, group))
        # sweep words, as plain letter tuples
        looper = self.specs["looper"][0]
        k = m.turing.TmReductionParams(p_val=SPACE).k
        cells = list(itertools.product(m.turing.delta_alphabet(looper), repeat=SPACE))
        segments = [tuple(t for c in cs for t in (c,) + ("0",) * k) for cs in cells]
        self.suffix = ("$",) + ("0",) * k + ("$", "0")
        self.segments = segments

    def _paths(self, key):
        stem = key.replace("/", "-")
        return self.workdir / f"{stem}.txt", self.workdir / f"{stem}.out"

    def run_pass(self, out: Outcome) -> None:
        cli = self.m.cli
        for name, inp, group in self.jobs:
            key = f"{name}/{'group' if group else 'inverse'}"
            inst_path, verdict_path = self._paths(key)
            with out.op(key + "/reduce"):
                argv = ["reduce", "tm", str(self.workdir / f"{name}.tm"), "--space", str(SPACE)]
                argv += ["--input", *inp] + (["--group"] if group else [])
                with open(inst_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                    status = cli.run(argv)
                if status != 0:
                    raise RuntimeError(f"reduce tm exited {status}")
            with out.op(key):
                with open(verdict_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                    t0 = clock()
                    status = cli.run(["decide", str(inst_path), "--porcelain"])
                    out.latencies[key] = clock() - t0
                out.extra[key] = status
                out.verdicts[key] = _porcelain(verdict_path.read_text(encoding="utf-8").strip())
        if SWEPT in out.extra:
            with out.op("looper/sweep"):
                doc = self.m.textio.parse_file(self._paths(SWEPT)[0])
                out.extra["looper/sweep"] = self._sweep(doc.resolve(doc.instances[0]))

    def _sweep(self, inst):
        """(words compared, words defined on both sides, disagreements)."""
        m = self.m
        act, aut, lhs, rhs = m.mealy.act_word, inst.automaton, inst.lhs, inst.rhs
        suffix, segments = self.suffix, self.segments
        words = defined = bad = 0
        for seg1 in segments:
            lv = _value(m, act(aut, lhs, seg1 + suffix))
            bad += lv != _value(m, act(aut, rhs, seg1 + suffix))
            defined += lv is not None
            words += 1
            lpre = act(aut, lhs, seg1 + ("#",))
            rpre = act(aut, rhs, seg1 + ("#",))
            if _value(m, lpre) is None and _value(m, rpre) is None:
                words += len(segments)  # both sides stay undefined on every extension
                continue
            for seg2 in segments:
                tail = seg2 + suffix
                full = []
                for pre in (lpre, rpre):
                    rest = None if _value(m, pre) is None else _value(m, act(aut, pre.final, tail))
                    full.append(None if rest is None else pre.output + rest)
                bad += full[0] != full[1]
                defined += full[0] is not None
                words += 1
        return words, defined, bad

    def check(self, out: Outcome) -> dict[str, str]:
        m = self.m
        problems = {}
        for name, _inp, group in self.jobs:
            key = f"{name}/{'group' if group else 'inverse'}"
            if key not in out.verdicts:
                continue
            spec, inp = self.specs[name]
            params = m.turing.TmReductionParams(p_val=SPACE, input_word=inp, group_variant=group)
            accepts = m.turing.simulate_tm(spec, params, SIM_STEPS).accepts_within is not None
            want_kind, want_status = (NOT_EQUAL, 10) if accepts else (EQUAL, 0)
            kind, witness = out.verdicts[key]
            if (kind, out.extra[key]) != (want_kind, want_status):
                problems[key] = f"{kind} with exit {out.extra[key]}, simulation says {want_kind}"
            elif kind == NOT_EQUAL:
                doc = m.textio.parse_file(self._paths(key)[0])
                inst = doc.resolve(doc.instances[0])
                problem = replay(
                    m, out.tracer, key, inst.automaton, inst.lhs, inst.rhs, inst.constraints, witness
                )
                if problem:
                    problems[key] = problem
        if "looper/sweep" in out.extra:
            words, defined, bad = out.extra["looper/sweep"]
            if bad or not defined:
                problems["looper/sweep"] = f"{bad} disagreements, {defined} defined of {words} words"
        return problems

    def close(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


# --------------------------------------------------------------------------
# constrained-corpus

LETTERS = ("a", "b", "c")
ORACLE_LEN = 4
ORACLE_SAMPLE = 80
# A constraint that accepts nothing makes an instance vacuously Equal, yet
# decide searches the instance's whole reachable space before it says so.
# With up to 4 items a side the slowest of 1,500 such draws took 0.13 s,
# and rare draws take seconds; with up to 2 the slowest of 1,200 took about
# 2 ms on a 2-vCPU host, so the group is measured in every pass without
# setting the pass time.
VACUOUS_ITEMS = 2


def _rand_mealy(rng):
    letters = LETTERS[: rng.randint(1, 3)]
    states = [f"q{j}" for j in range(rng.randint(1, 4))]
    trans = {}
    for q in states:
        for a in letters:
            if rng.random() < 0.75:
                trans[(q, a)] = (rng.choice(letters), rng.choice(states))
    return letters, states, trans


def _inverse_deterministic(trans) -> bool:
    outs = [(q, b) for (q, _a), (b, _p) in trans.items()]
    return len(outs) == len(set(outs))


def _accepts_something(trans, initial, final) -> bool:
    seen, frontier = set(initial), list(initial)
    while frontier:
        q = frontier.pop()
        for src, _a, p in trans:
            if src == q and p not in seen:
                seen.add(p)
                frontier.append(p)
    return bool(seen & set(final))


def _rand_nfa(rng, name, letters, empty=False):
    """A random acceptor whose language is empty or not, as asked."""
    while True:
        states = [f"x{j}" for j in range(rng.randint(1, 3))]
        trans = {(q, a, p) for q in states for a in letters for p in states if rng.random() < 0.5}
        initial = [q for q in states if rng.random() < 0.5] or [states[0]]
        final = [q for q in states if rng.random() < 0.5]
        if _accepts_something(trans, initial, final) != empty:
            return name, letters, states, trans, initial, final


def _rand_word(rng, name, max_items, n_nfas, empty=False):
    """Plain data of one word-problem instance: a random partial automaton,
    two signed sequences of up to max_items items (at least one when the
    constraint languages are empty), inverse items only when the automaton
    is inverse-deterministic, and n_nfas random constraints."""
    letters, states, trans = _rand_mealy(rng)
    inv = _inverse_deterministic(trans)
    sides = [
        tuple(
            (rng.choice(states), inv and rng.random() < 0.3)
            for _ in range(rng.randint(int(empty), max_items))
        )
        for _side in range(2)
    ]
    nfas = [_rand_nfa(rng, f"{name}_{j}", letters, empty) for j in range(n_nfas)]
    return letters, states, trans, sides, nfas


def _rand_dfa(rng, name, max_states, final_prob):
    states = [f"s{j}" for j in range(rng.randint(1, max_states))]
    trans = {(q, a, rng.choice(states)) for q in states for a in ("0", "1")}
    final = [q for q in states if rng.random() < final_prob]
    return name, ("0", "1"), states, trans, [states[0]], final


class ConstrainedCorpus:
    """Thousands of small instances: random partial automata with signed
    sequences and random NFA constraints, a group of them whose one
    constraint accepts nothing, and DFA lists and single DFAs compiled by the
    reductions."""

    name = "constrained-corpus"

    def __init__(self, m, seed: int, quick: bool, workdir):
        self.m = m
        rng = random.Random(seed)
        sizes = (160, 20, 20, 20) if quick else (12000, 1200, 1200, 1200)
        n_word, n_vacuous, n_isect, n_empty = sizes
        items = []
        for i in range(n_word):
            data = _rand_word(rng, f"k{i}", 4, rng.randint(0, 2))
            items.append((f"w{i}", "word", data))
        for i in range(n_vacuous):
            data = _rand_word(rng, f"v{i}", VACUOUS_ITEMS, 1, empty=True)
            items.append((f"v{i}", "vacuous", data))
        for i in range(n_isect):
            dfas = [_rand_dfa(rng, f"d{i}_{j}", 4, 0.5) for j in range(rng.randint(1, 3))]
            items.append((f"i{i}/inverse", "isect", (dfas, False)))
            items.append((f"i{i}/group", "isect", (dfas, True)))
        for i in range(n_empty):
            items.append((f"e{i}", "empty", _rand_dfa(rng, f"e{i}", 5, 0.15)))
        rng.shuffle(items)
        self.items = items
        self.seed = seed

    def _instance(self, kind, data):
        """Build the word-problem instance of one item from plain data."""
        m = self.m
        if kind in ("word", "vacuous"):
            letters, states, trans, sides, nfas = data
            aut = m.mealy.MealyAutomaton("w", letters, states, trans)
            lhs, rhs = ([m.mealy.SignedState(q, inv) for q, inv in side] for side in sides)
            accs = [m.mealy.Acceptor(*nfa) for nfa in nfas]
            return m.wordproblem.WordProblemInstance(aut, lhs, rhs, accs)
        if kind == "isect":
            dfas, group = data
            dfa_list = m.reductions.DfaList([m.mealy.Acceptor(*d) for d in dfas])
            return m.reductions.reduce_dfa_intersection(dfa_list, group_variant=group)
        return m.reductions.reduce_dfa_emptiness(m.mealy.Acceptor(*data))

    def run_pass(self, out: Outcome) -> None:
        decide = self.m.wordproblem.decide
        for key, kind, data in self.items:
            with out.op(key):
                inst = self._instance(kind, data)
                t0 = clock()
                verdict = decide(inst)
                out.latencies[key] = clock() - t0
                out.verdicts[key] = (verdict.kind, verdict.witness)

    def _expected(self, kind, data):
        """The known verdict: the DFA oracles', Equal for the vacuous group,
        None for word items."""
        m = self.m
        if kind == "vacuous":
            return EQUAL
        if kind == "isect":
            dfa_list = m.reductions.DfaList([m.mealy.Acceptor(*d) for d in data[0]])
            return EQUAL if m.reductions.dfa_intersection_empty(dfa_list) else NOT_EQUAL
        if kind == "empty":
            _name, _alpha, _states, trans, initial, final = data
            steps = {(q, a): p for q, a, p in trans}
            seen, frontier = set(initial), list(initial)
            while frontier:
                q = frontier.pop()
                for a in ("0", "1"):
                    if steps[(q, a)] not in seen:
                        seen.add(steps[(q, a)])
                        frontier.append(steps[(q, a)])
            return NOT_EQUAL if seen & set(final) else EQUAL
        return None

    def check(self, out: Outcome) -> dict[str, str]:
        m = self.m
        problems = {}
        # the naive oracle sees every word up to ORACLE_LEN letters, so it
        # can confirm Equal verdicts and NotEqual ones with short witnesses
        short = [
            key
            for key, kind, _data in self.items
            if kind in ("word", "vacuous")
            and key in out.verdicts
            and len(out.verdicts[key][1] or ()) <= ORACLE_LEN
        ]
        sampled = set(random.Random(self.seed).sample(short, min(ORACLE_SAMPLE, len(short))))
        for key, kind, data in self.items:
            if key not in out.verdicts:
                continue
            verdict = out.verdicts[key]
            expected = self._expected(kind, data)
            if expected is not None and verdict[0] != expected:
                problems[key] = f"decide says {verdict[0]}, expected {expected}"
                continue
            if verdict[0] == EQUAL and key not in sampled:
                continue
            inst = self._instance(kind, data)
            if verdict[0] == NOT_EQUAL:
                problem = replay(
                    m, out.tracer, key, inst.automaton, inst.lhs, inst.rhs,
                    inst.constraints, verdict[1],
                )
                if problem:
                    problems[key] = problem
                    continue
            if key in sampled:
                ref = m.wordproblem.oracle_decide(inst, max_len=ORACLE_LEN, naive=True)
                if (ref.kind, ref.witness) != verdict:
                    problems[key] = f"naive oracle says {ref.kind}/{ref.witness}"
        return problems


WORKLOADS = {w.name: w for w in (Separation, TmPipeline, ConstrainedCorpus)}
