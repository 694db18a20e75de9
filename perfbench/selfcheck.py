#!/usr/bin/env python3
"""Self-check of the benchmark at toy sizes (one to two minutes).

    python3 perfbench/selfcheck.py

Runs every workload with ``--small`` (same structure, toy dimensions):
once untraced and twice traced with the same seed.  It checks

* the last output line against the schema and the metric lists of
  BENCHMARK.json, and that every output check passed;
* that the exact counts repeat from run to run:
  ``numcore.tape.records_per_pair`` (41 on desk; 42 on paper and
  score-cold, whose dropout adds one record per pair),
  ``embeddings.lookup_all.calls`` and ``rng.stream.calls``;
* that without the pairsim sources the benchmark fails without
  printing a result.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS_PER_PAIR = {"desk": 41, "paper": 42, "score-cold": 42}
EXACT = ("numcore.tape.records_per_pair", "embeddings.lookup_all.calls",
         "rng.stream.calls")
SEED = 3


def run(cwd: Path, workload: str, trace: int, small: bool = True):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    if small:
        cmd.append("--small")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def schema_problems(result: dict, defs: list) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"top-level keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if type(result[key]) is not int:
            problems.append(f"{key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    if sorted(result["metrics"]) != sorted(d["name"] for d in defs):
        problems.append("metric names differ from BENCHMARK.json")
    for d in defs:
        m = result["metrics"].get(d["name"], {})
        value = m.get("value")
        if type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{d['name']}: value {value!r}")
        if m.get("unit") != d["unit"]:
            problems.append(f"{d['name']}: unit {m.get('unit')!r}, want {d['unit']!r}")
    return problems


def main() -> int:
    problems = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        traced = []
        for trace in (0, 1, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            defs = BENCHMARK["per_layer" if trace else "end_to_end"]
            problems += [f"{label}: {p}" for p in schema_problems(result, defs)]
            if trace:
                traced.append({k: result["metrics"][k]["value"] for k in EXACT})
        if len(traced) == 2:
            if traced[0] != traced[1]:
                problems.append(f"{workload}: exact counts differ: {traced}")
            if traced[0]["numcore.tape.records_per_pair"] != RECORDS_PER_PAIR[workload]:
                problems.append(f"{workload}: records_per_pair {traced[0]}")
        print(f"{workload}: {'ok' if not problems else 'problems so far'}", flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "desk", 0, small=False)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without sources: exit 0 or printed output")

    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
