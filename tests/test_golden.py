"""Golden digests: the SHA-256 of the reductions' outputs, pinned.

A change to a construction, to minimize, to the derived automata (invert,
union, dual, complete_with_zero) or to the text format that alters a single
output byte, or an error's class or message, fails here; so does a change
to a verdict or witness of the larger DFA instances. Run as a script,
this file prints one line per digest; the test runs it in a fresh
interpreter under two PYTHONHASHSEED values, so no output may depend on
string hashing either.

    python tests/test_golden.py   (with src/ on PYTHONPATH)
"""

import hashlib
import io
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from helpers import (
    LOOPER,
    SCANNER,
    SMALL_DELTA_MACHINES,
    rebuilt_with_add,
    stdout_under_hash_seeds,
)

from autsg.cli import run
from autsg.errors import AutomatonError
from autsg.mealy import Acceptor, MealyAutomaton, complete_with_zero, dual, invert, union
from autsg.reductions import DfaList, reduce_dfa_intersection
from autsg.textio import serialize_automaton, serialize_instance, serialize_tm
from autsg.turing import TmReductionParams, build_tm_automaton
from autsg.wordproblem import decide

GOLDEN = {
    "reduce tm scan inverse":
        "a806a2ae1616b531111f1e4171408384b67ebe9d6bcf6e331546982f9d9820d1",
    "reduce tm scan group":
        "0ab7fa2dab7f489674cc65be528a543c7d9fccb91c57303c9bd92b2dcc00576e",
    "reduce tm looper inverse":
        "09292092763db56cf727780487d844e2471afbaaf7ea8c000f0a78fcbe053c16",
    "reduce tm looper group":
        "e60ee406173b134f3a0e37b5ec485fb68f309ec3da811798f3e461f81b2ee04e",
    "reduce tm flip inverse":
        "2076e4fff8cdf199a9cc9aef335b1eb5f4812b7029cd72ee151d3bab77b622d8",
    "reduce tm flip group":
        "133b4ba71f1f8082c26265372856224ca4d5847d83ce8cef0775c44f7b3e30a1",
    "reduce tm swap inverse":
        "8b714983906c50eafb9d05b3223cf1652f6c4b97d7d4ce3534e4468cf8f1213a",
    "reduce tm swap group":
        "846e7fab1a63a5b66d7ecc30bf880630e45e62ffe8039f0eb9a6b27a08a7c39d",
    "reduce tm count inverse":
        "e34721601b3900d2c712d65614710b62a22578af4d2439e102bca3932b3a0271",
    "reduce tm count group":
        "5ceb2fef7ab65d513b60349a337f8a96e85785b4ddfe62984e4e306273040dfe",
    "build_tm_automaton scan inverse":
        "aca9a7126e12fcd2c3640d040891637d219820f2097d528a3c9d8f7bb2fb4f39",
    "build_tm_automaton scan group":
        "41ab9c9a914efaf6739731eb6255cf6de886e3b30119ec3df2fcf37677eb8026",
    "build_tm_automaton looper inverse":
        "f08c260fcae8fa3c576fae23b775dddfc13ed9f6b48f3dbacd973a6accfeb703",
    "build_tm_automaton looper group":
        "c5b526e7bf86d5460944b62df7cef5d4441a93da5cf11495bff05af63fc69092",
    "build_tm_automaton flip inverse":
        "61f3c5183da91a71dd8c1e03375be840b5efa5be45872a6b79bb9cbf87231352",
    "build_tm_automaton flip group":
        "82c8749a025915e8516d485258dd63b1d1f45c71db9a6c0f795d373c285a6037",
    "build_tm_automaton swap inverse":
        "acabb32cd564163ba13b7c55a1db4c7be3ec48f4a5dca05e7afc20c7e6be879b",
    "build_tm_automaton swap group":
        "3219c4efaf7e594c3de49182da19ec49090444f01e5260ccc8bee7892b14dc62",
    "build_tm_automaton count inverse":
        "58c63aba5fbcb5158aacdfb7ff68116403bc6d1ebb9727bdf7ca1d6874aa0c0f",
    "build_tm_automaton count group":
        "d235b2f56805c8573f0833359b684cd8296e19f293f42a5fa5572cae85a4c0f7",
    "reduce_dfa_intersection corpus":
        "224cfe97f460bffafd7423df011687339b85e9bb74d7a446157b766e0be8bf32",
    "reduce_dfa_intersection r 4..6":
        "500959b7265a8c85847fa359e73b0bd2a4fa9c07c853c57aefba94c266d40825",
    "derived automata":
        "3839520bccb3693b02dc13f5f93f53059efe89f5ded9ba275b138d6fe1f268eb",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reduce_tm(tm, argv: list[str]) -> str:
    """The stdout of autsg reduce tm on tm at --space 3."""
    with tempfile.TemporaryDirectory() as d:
        f = Path(d) / f"{tm.name}.tm"
        f.write_text(serialize_tm(tm), encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(["reduce", "tm", str(f), "--space", "3", *argv]) == 0
    return out.getvalue()


def _random_dfas(rng: random.Random, fewest: int = 1, most: int = 3) -> DfaList:
    """fewest to most complete DFAs of one to four states each."""
    dfas = []
    for k in range(rng.randint(fewest, most)):
        states = [f"s{i}" for i in range(rng.randint(1, 4))]
        trans = [(q, a, rng.choice(states)) for q in states for a in "01"]
        finals = [q for q in states if rng.random() < 0.5]
        dfas.append(Acceptor(f"d{k}", "01", states, trans, states[:1], finals))
    return DfaList(dfas)


def _random_automaton(rng: random.Random) -> MealyAutomaton:
    """A small partial automaton drawn from few names, so that unions
    collide: a third have rows of distinct outputs; states may begin with ~
    and tokens may be the reserved _zero and _bot."""
    letters = rng.sample(["0", "1", "a", "b", "_x", "_bot"], rng.randint(1, 3))
    states = rng.sample(["x", "y", "z", "b_x", "~x", "~~y", "_zero"], rng.randint(1, 4))
    injective = rng.random() < 1 / 3
    trans = {}
    for q in states:
        k = len(letters)
        outputs = rng.sample(letters, k) if injective else rng.choices(letters, k=k)
        for a, b in zip(letters, outputs):
            if rng.random() < 0.8:
                trans[q, a] = (b, rng.choice(states))
    return MealyAutomaton(rng.choice(["a", "a_b", "m"]), letters, states, trans)


def _derived(automata: list[MealyAutomaton]) -> str:
    """One line per operation applied: the serialized result, or the
    error's class and message."""
    calls = [(op, (a,)) for a in automata for op in (invert, dual, complete_with_zero)]
    calls += [(union, pair) for pair in zip(automata, automata[1:])]
    calls += [(union, (a, a)) for a in automata[::10]]
    lines = []
    for op, args in calls:
        try:
            lines.append(serialize_automaton(op(*args)))
        except (AutomatonError, ValueError) as exc:
            lines.append(f"{type(exc).__name__}: {exc}\n")
    return "".join(lines)


def digests() -> dict[str, str]:
    out = {}
    runs = [(SCANNER, ["--input", "a", "a"]), (LOOPER, [])]
    runs += [(tm, []) for tm in SMALL_DELTA_MACHINES]
    for tm, argv in runs:
        out[f"reduce tm {tm.name} inverse"] = _sha256(_reduce_tm(tm, argv))
        out[f"reduce tm {tm.name} group"] = _sha256(_reduce_tm(tm, argv + ["--group"]))
    builds = [(SCANNER, ("a", "a")), (LOOPER, ())]
    builds += [(tm, ()) for tm in SMALL_DELTA_MACHINES]
    for tm, word in builds:
        for variant, group in (("inverse", False), ("group", True)):
            params = TmReductionParams(p_val=3, input_word=word, group_variant=group)
            text = serialize_automaton(build_tm_automaton(tm, params))
            out[f"build_tm_automaton {tm.name} {variant}"] = _sha256(text)
    rng, corpus = random.Random(2016), hashlib.sha256()
    for _ in range(300):
        dfas = _random_dfas(rng)
        for group in (False, True):
            corpus.update(serialize_instance(reduce_dfa_intersection(dfas, group)).encode())
    out["reduce_dfa_intersection corpus"] = corpus.hexdigest()
    # larger r, each instance followed by its verdict and witness
    rng, corpus = random.Random(2017), hashlib.sha256()
    for _ in range(60):
        dfas = _random_dfas(rng, 4, 6)
        for group in (False, True):
            inst = reduce_dfa_intersection(dfas, group)
            verdict = decide(inst)
            corpus.update(serialize_instance(inst).encode())
            corpus.update(f"{verdict.kind} {' '.join(verdict.witness or ())}\n".encode())
    out["reduce_dfa_intersection r 4..6"] = corpus.hexdigest()
    rng = random.Random(17)
    automata = [_random_automaton(rng) for _ in range(200)]
    # every fourth one on a table whose rows are not in sorted order
    automata[::4] = map(rebuilt_with_add, automata[::4])
    out["derived automata"] = _sha256(_derived(automata))
    return out


def test_outputs_match_their_golden_digests():
    expected = "".join(f"{key} {digest}\n" for key, digest in GOLDEN.items())
    assert stdout_under_hash_seeds([__file__], seeds=("1", "7")) == [expected] * 2


if __name__ == "__main__":
    for key, digest in digests().items():
        print(key, digest)
