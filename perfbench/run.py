"""Run one benchmark workload of autsg and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package under test is imported from
the src/ directory beside this one, and scratch files (reduction outputs,
span dumps) go to .perfbench/ at the root. Everything runs in this one
process, with no extra threads.

--trace 0 times full passes, at least two and as many more as fit in S
seconds. Each pass runs on a fresh set-up (a fresh import of autsg plus
generation of the seeded inputs, timed). More set-ups run between the
operations of a pass, off its clock, so that set-ups take about
SETUP_SHARE of the run and are spread over it. Then it checks the outputs
of the last pass and prints the end-to-end metrics. --trace 1 sets up once,
times untraced passes for half of S, then wraps autsg's public functions
(tracing.py) for exactly one pass and the output checks, and prints the
per-layer metrics. Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines above it
give the sample counts, a digest of every (kind, witness) pair and ungated
metadata. --quick shrinks the inputs for the smoke test (smoke.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
import typing
from pathlib import Path

from tracing import NullTracer, Tracer, percentile
from workloads import WORKLOADS, Outcome

SETUP_SHARE = 0.1
MODULES = ("cli", "textio", "turing", "mealy", "wordproblem", "reductions", "gadgets")

clock = time.perf_counter


def forget_autsg() -> None:
    """Drop every loaded autsg module, and typing's caches, which would
    otherwise keep the classes of every earlier import alive."""
    for key in [k for k in sys.modules if k == "autsg" or k.startswith("autsg.")]:
        del sys.modules[key]
    for clear in getattr(typing, "_cleanups", ()):
        clear()


def import_autsg():
    """Import autsg; returns a namespace of its modules."""
    importlib.import_module("autsg")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"autsg.{name}") for name in MODULES}
    )


class Tally:
    """What the passes leave behind: the first pass in full, and of every
    pass only what the metrics need, so that memory does not grow with the
    number of passes.

    Times are kept as each operation's fastest over the passes. On a host
    shared with other machines a pass can run twice as slow, in bursts of
    milliseconds to tens of seconds, and the fastest try at each operation
    repeats better across runs than the median pass (README.md)."""

    def __init__(self):
        self.first: Outcome | None = None
        self.wall: list[float] = []
        self.best_op: dict[str, float] = {}
        self.best_decide: dict[str, float] = {}
        self.attempted = 0
        self._bad: list[set[str]] = []

    def add(self, out: Outcome) -> None:
        if self.first is None:
            self.first = out
        self.wall.append(out.seconds)
        self.attempted += len(out.op_seconds)
        for best, times in ((self.best_op, out.op_seconds), (self.best_decide, out.latencies)):
            for key, seconds in times.items():
                best[key] = min(seconds, best.get(key, seconds))
        # operations that raised or gave another output than the first pass
        self._bad.append(
            set(out.errors)
            | {
                key
                for key in out.op_seconds
                if out.verdicts.get(key) != self.first.verdicts.get(key)
                or out.extra.get(key) != self.first.extra.get(key)
            }
        )

    def failed(self, problems) -> int:
        """Failed operations, counting those whose output failed a check."""
        return sum(len(bad | set(problems)) for bad in self._bad)


def run_passes(next_workload, tally: Tally, seconds: float, tracer, at_least: int, between=None):
    """At least `at_least` rounds, then more while another round of the
    median length so far still ends within `seconds` of the start. A round
    is next_workload(), which gives the workload to run, and one full pass
    over it, with between() before each operation. Returns the last pass
    and its workload."""
    start = clock()
    rounds: list[float] = []
    while len(rounds) < at_least or clock() - start + statistics.median(rounds) <= seconds:
        t0 = clock()
        workload = None  # the last pass's workload goes before the next set-up
        workload = next_workload()
        gc.collect()
        out = Outcome(tracer, between)
        t1 = clock()
        workload.run_pass(out)
        out.seconds = clock() - t1 - out.paused
        tally.add(out)
        rounds.append(clock() - t0)
    return out, workload


def digest(outcome) -> str:
    lines = sorted(
        f"{key} {kind} {' '.join(witness or ())}"
        for key, (kind, witness) in outcome.verdicts.items()
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def metadata(root: Path) -> dict:
    """Ungated facts about the code and machine measured."""
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted((root / "src").rglob("*.py"))
    )
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one autsg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "autsg" / "__init__.py").is_file():
        print(f"run.py: no autsg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    make = WORKLOADS[args.workload]

    if not args.trace:
        setups: list[float] = []
        start = clock()

        def set_up():
            forget_autsg()
            gc.collect()
            t0 = clock()
            workload = make(import_autsg(), args.seed, args.quick, workdir)
            setups.append(clock() - t0)
            return workload

        def between():
            # the host's speed drifts over seconds, so set-ups are spread
            # over the run, between operations, at SETUP_SHARE of its time
            while sum(setups) < SETUP_SHARE * (clock() - start):
                set_up()

        tally = Tally()
        reference, workload = run_passes(set_up, tally, args.seconds, NullTracer(), 2, between)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = workload.check(reference)
        wall, passes = tally.wall, len(tally.wall)
        latencies = list(tally.best_decide.values())
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (sum(tally.best_op.values()), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "decide_ms.p99": (percentile(latencies, 99) * 1000, "ms"),
        }
        notes = [
            f"setup_s: median of {len(setups)} set-ups, fastest {min(setups):.4f} s",
            f"pass_s: sum over operations of each one's fastest of {passes} passes;"
            f" median pass wall time {statistics.median(wall):.3f} s of "
            + ", ".join(f"{t:.3f}" for t in wall),
            f"decide_ms: over {len(latencies)} instances, each its fastest of {passes} requests",
        ]
    else:
        workload = make(import_autsg(), args.seed, args.quick, workdir)
        tally = Tally()
        run_passes(lambda: workload, tally, args.seconds / 2, NullTracer(), 1)
        untraced = list(tally.wall)
        tracer = Tracer()
        tracer.install(workload.m)
        try:
            reference, _ = run_passes(lambda: workload, tally, 0, tracer, 1)
            tracer.start_checks()
            problems = workload.check(reference)
        finally:
            tracer.remove()
        metrics = tracer.layer_metrics(reference.seconds, statistics.median(untraced))
        span_path = workdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(span_path)
        notes = [
            f"per-layer figures: one traced pass, and its output checks for the witness"
            f" replay and the DFA oracle; {len(tracer.spans)} spans in {span_path.name}",
            f"trace.overhead_s: traced pass minus the median of {len(untraced)} untraced passes",
        ]
    if hasattr(workload, "close"):
        workload.close()

    failed = tally.failed(problems)
    for key, problem in sorted(problems.items()):
        print(f"check failed: {key}: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("meta " + json.dumps(metadata(root)))
    print(f"digest sha256:{digest(reference)} over {len(reference.verdicts)} (kind, witness) pairs")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
