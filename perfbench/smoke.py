"""Smoke test of the benchmark at reduced size.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the schema the benchmark promises, runs every
workload with --quick in both modes and checks each result line: exactly the
keys correct, attempted, failed and metrics; a correct run with no failures;
every named metric present with its unit and nothing else. Last, it checks
that the benchmark exits non-zero without a result line in a directory that
holds only BENCHMARK.json and the benchmark's own files. Prints one line per
problem and exits 1 if there was any.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TIMEOUT_S = 600


def check_schema(bench: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(bench["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    for path in bench["paths"]:
        if not (ROOT / path).is_dir() or path.startswith("/") or ".." in path:
            problems.append(f"bad path {path!r}")
    names = []
    for w in bench["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w['name']}")
    metric_fields = {
        "end_to_end": {"name", "unit", "better", "bound"},
        "per_layer": {"name", "unit", "better"},
    }
    for group, fields in metric_fields.items():
        for metric in bench[group]:
            names.append(metric["name"])
            if set(metric) != fields or metric["better"] not in ("lower", "higher"):
                problems.append(f"bad {group} entry {metric['name']}")
            if not UNIT.match(metric["unit"]):
                problems.append(f"bad unit {metric['unit']!r}")
            if group == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"bound of {metric['name']} out of range")
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    setup = bounds.get("setup_s")
    if not setup or (setup["unit"], setup["better"]) != ("s", "lower"):
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif any(m["bound"] > setup["bound"] for m in bench["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def run(bench: dict, cwd: Path, workload: str, trace: int):
    argv = bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1"]
    argv += ["--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(bench, ROOT, workload, trace)
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    if got != want:
        diff = sorted(set(got) ^ set(want))
        problems.append(f"{tag}: metrics differ from BENCHMARK.json: {diff}")
    for name, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{tag}: {name} is not a number")
    return problems


def check_bare(bench: dict) -> list[str]:
    """Without the sources beside it the benchmark must fail, not report."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench, bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without sources the benchmark still reported a result"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_schema(bench)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            problems += check_run(bench, workload["name"], trace)
    problems += check_bare(bench)
    for problem in problems:
        print(problem)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
