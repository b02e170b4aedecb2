"""Spans around calls into autsg's public functions, recorded from outside.

install() wraps the functions and methods listed below in every loaded autsg
module namespace that holds them, so calls between modules are caught as
well as the benchmark's own calls. Each span records its name, start, end,
parent span and the workload item (instance id) being processed. Spans stay
in memory and are written out by dump() when the run ends.

Per-letter primitives (act_step, acceptor_step) are deliberately not
wrapped: searches call them millions of times, and their time shows up as
the self time of the calling layer instead.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "textio", "turing", "mealy", "wordproblem", "reductions", "gadgets")


def _count_act_word(counts, args, result):
    # act_word(automaton, seq, word): one threading step per item and letter
    counts["mealy.act_word.letter_steps"] += len(args[1]) * len(args[2])


def _count_decide(counts, args, result):
    if result.witness is not None:
        counts["wordproblem.decide.witness_letters"] += len(result.witness)


def _count_serialize(counts, args, result):
    counts["textio.serialize_instance.bytes"] += len(result.encode("utf-8"))


def _count_parse_file(counts, args, result):
    counts["textio.parse.bytes"] += os.path.getsize(args[0])


def _count_parse_text(counts, args, result):
    counts["textio.parse.bytes"] += len(args[0].encode("utf-8"))


def _count_build_tm(counts, args, result):
    counts["turing.automaton.transitions"] += len(result.transitions)


def _cli_name(args) -> str:
    """cli.run.reduce_tm, cli.run.decide, ... from run(argv)."""
    argv = args[0]
    return "cli.run." + "_".join(argv[:2] if argv[0] == "reduce" else argv[:1])


# module -> {public function: counter or None}
FUNCTIONS = {
    "cli": {"run": None},
    "textio": {
        "parse_file": _count_parse_file,
        "parse_text": _count_parse_text,
        "serialize_instance": _count_serialize,
        "resolve_sequence": None,
    },
    "turing": {"build_tm_automaton": _count_build_tm, "reduce_tm": None},
    "mealy": {"act_word": _count_act_word, "check_properties": None},
    "wordproblem": {"decide": _count_decide},
    "reductions": {
        "reduce_dfa_intersection": None,
        "reduce_dfa_emptiness": None,
        "dfa_intersection_empty": None,
    },
    "gadgets": {"build_gadget": None},
}

# module -> (class, method); a constructor span is named module.Class
METHODS = {
    "mealy": (("MealyAutomaton", "__init__"), ("Acceptor", "__init__")),
    "wordproblem": (("WordProblemInstance", "__init__"),),
    "textio": (("DocumentSet", "resolve"),),
    "reductions": (("DfaList", "__init__"),),
}


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class NullTracer:
    """Stands in for Tracer in untraced runs."""

    instance = None

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, instance id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.instance = None
        self._stack: list[int] = []
        self._checks_from = 0
        self.pass_counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as an output check."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self, mods) -> None:
        namespaces = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "autsg" or key.startswith("autsg.")
        ]
        for layer, funcs in FUNCTIONS.items():
            module = getattr(mods, layer)
            for attr, count in funcs.items():
                original = getattr(module, attr)
                name = _cli_name if attr == "run" else f"{layer}.{attr}"
                wrapper = self._wrap(original, name, count)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._undo.append((ns, key, original))
                            setattr(ns, key, wrapper)
        for layer, methods in METHODS.items():
            for cls_name, attr in methods:
                cls = getattr(getattr(mods, layer), cls_name)
                original = cls.__dict__[attr]
                name = f"{layer}.{cls_name}" + ("" if attr == "__init__" else f".{attr}")
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, None))

    def remove(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def start_checks(self) -> None:
        """Spans from here on belong to the output checks, not the pass."""
        self._checks_from = len(self.spans)
        self.pass_counts = dict(self.counts)

    def summary(self, lo: int, hi: int):
        """Over spans[lo:hi]: per span name, total seconds and calls; per
        layer, self seconds. A span's self time is its duration minus its
        children's durations."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _inst in spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            name, start, end, _parent, _inst = spans[i]
            total[name] += end - start
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += end - start - child[i]
        return total, calls, self_s

    def layer_metrics(self, traced_pass_s: float, untraced_pass_s: float) -> dict:
        """Per-layer figures of the traced pass; the witness replay and the
        DFA oracle are figures of the output checks that follow it."""
        total, calls, self_s = self.summary(0, self._checks_from)
        checks, _calls, _self = self.summary(self._checks_from, len(self.spans))
        counts = defaultdict(int, self.pass_counts)
        act_s = total["mealy.act_word"]
        parse_s = total["textio.parse_file"] + total["textio.parse_text"]
        m = {
            "wordproblem.decide.s": (total["wordproblem.decide"], "s"),
            "wordproblem.decide.calls": (calls["wordproblem.decide"], "count"),
            "wordproblem.decide.witness_letters": (
                counts["wordproblem.decide.witness_letters"],
                "count",
            ),
            "wordproblem.decide.p50_ms": (
                percentile(self._durations("wordproblem.decide"), 50) * 1000,
                "ms",
            ),
            "wordproblem.WordProblemInstance.s": (total["wordproblem.WordProblemInstance"], "s"),
            "wordproblem.witness_replay.s": (checks["bench.witness_replay"], "s"),
            "mealy.act_word.s": (act_s, "s"),
            "mealy.act_word.calls": (calls["mealy.act_word"], "count"),
            "mealy.act_word.letter_steps_per_s": (
                counts["mealy.act_word.letter_steps"] / act_s if act_s else 0.0,
                "1/s",
            ),
            "mealy.MealyAutomaton.init_s": (total["mealy.MealyAutomaton"], "s"),
            "mealy.check_properties.s": (total["mealy.check_properties"], "s"),
            "turing.build_tm_automaton.s": (total["turing.build_tm_automaton"], "s"),
            "turing.automaton.transitions": (counts["turing.automaton.transitions"], "count"),
            "textio.serialize_instance.s": (total["textio.serialize_instance"], "s"),
            "textio.serialize_instance.bytes": (counts["textio.serialize_instance.bytes"], "B"),
            "textio.parse_text.s": (parse_s, "s"),
            "textio.parse_text.bytes_per_s": (
                counts["textio.parse.bytes"] / parse_s if parse_s else 0.0,
                "B/s",
            ),
            "textio.resolve.s": (
                total["textio.DocumentSet.resolve"] + total["textio.resolve_sequence"],
                "s",
            ),
            "cli.run.reduce_tm.s": (total["cli.run.reduce_tm"], "s"),
            "cli.run.decide.s": (total["cli.run.decide"], "s"),
            "reductions.reduce_dfa_intersection.s": (
                total["reductions.reduce_dfa_intersection"],
                "s",
            ),
            "reductions.reduce_dfa_emptiness.s": (total["reductions.reduce_dfa_emptiness"], "s"),
            "reductions.dfa_intersection_empty.s": (
                checks["reductions.dfa_intersection_empty"],
                "s",
            ),
            "gadgets.build_gadget.s": (total["gadgets.build_gadget"], "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_s[layer], "s")
        m["trace.pass_s"] = (traced_pass_s, "s")
        m["trace.overhead_s"] = (traced_pass_s - untraced_pass_s, "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m

    def _durations(self, name: str) -> list[float]:
        """Durations of the traced pass's spans of this name, or [0.0]."""
        spans = self.spans[: self._checks_from]
        return [end - start for n, start, end, _p, _i in spans if n == name] or [0.0]

    def dump(self, path) -> None:
        """One JSON array per line: name, start, end, parent, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
