#!/usr/bin/env python3
"""Check that the benchmark harness catches bad runs; exits 1 loudly if not.

    python3 perfbench/selfcheck.py

1. A corrupted expected build digest, ablation count or eval score must make
   every pass of that run fail.
2. Two traced runs of the same input must report identical per-layer counts.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   must exit non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run

SEED = run.DEFAULT_SEED


def quiet(_message: str) -> None:
    pass


def corrupted_runs_fail(expected: dict) -> list[str]:
    problems = []
    cases = []
    bad = copy.deepcopy(expected)
    bad["build"]["complex"] = "0" * 64
    cases.append(("build", bad, "a wrong .complex digest"))
    bad = copy.deepcopy(expected)
    bad["ablate"]["kept"]["no_fres"] += 1
    cases.append(("ablate", bad, "a wrong ablation kept count"))
    bad = copy.deepcopy(expected)
    bad["eval"]["asset"]["sari"] += 1e-6
    cases.append(("eval", bad, "an eval score 1e-6 off"))
    for workload, bad, what in cases:
        result = run.run_workload(workload, SEED, 0.5, False, expected=bad, log=quiet)
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(
                f"{workload} with {what}: correct={result['correct']}, "
                f"{result['failed']} of {result['attempted']} passes failed"
            )
    return problems


def counts_repeat() -> list[str]:
    problems = []
    for workload in ("build", "ablate"):
        runs = [run.run_workload(workload, SEED, 0.5, True, log=quiet) for _ in range(2)]
        for result in runs:
            if not result["correct"]:
                problems.append(f"traced {workload} run failed: {result['errors'][:3]}")
        first, second = ({n: r["metrics"].get(n) for n in run.COUNT_METRICS} for r in runs)
        diff = {n: (first[n], second[n]) for n in first if first[n] != second[n]}
        if diff:
            problems.append(f"traced {workload} counts differ between runs: {diff}")
    return problems


def bare_directory_fails() -> list[str]:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        proc = subprocess.run(
            spec["command"] + ["--workload", "build", "--seed", str(SEED), "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    if proc.returncode == 0 or printed_result:
        return [f"bare directory: exit {proc.returncode}, printed result: {printed_result}"]
    return []


def main() -> int:
    run.check_checkout()
    expected, source = run.expectations(SEED, run.load_expected())
    if source != "recorded":
        print(f"SELF-CHECK FAILED: seed {SEED} has no recorded expectations", file=sys.stderr)
        return 1
    problems = corrupted_runs_fail(expected) + counts_repeat() + bare_directory_fails()
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("self-check passed: corrupted expectations fail every pass, traced counts repeat, "
          "a bare directory exits non-zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
