#!/usr/bin/env python3
"""Record the expected outputs that benchmark passes are checked against.

    python3 perfbench/record.py --seeds 0-99,109

For each seed it runs untimed one-worker ``build`` and ``ablate`` passes on
the workload input and stores the sha256 of every ``.complex``/``.simple``
file, the drop tallies and the ablation kept counts. It also stores the
``eval --row source`` scores on both test sets, after checking them against
the published values. Outputs are pinned byte-for-byte by the acceptance
tests, so re-record only for a deliberate output change, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(run.DEFAULT_SEED), help="e.g. 0-99,109")
    args = parser.parse_args()
    run.check_checkout()

    recorded = run.load_expected()
    if recorded.get("size") != run.SIZE:
        recorded = {"size": run.SIZE, "corpus": {}, "eval": {}}

    out = run.WORK / "reference" / "eval"
    out.mkdir(parents=True, exist_ok=True)
    calls, _ = run.workload_calls("eval", run.DEFAULT_SEED, out)
    result = run.run_pass(calls, False, time.monotonic() + run.PASS_LIMIT_S)
    scores = run.observed("eval", result, out)
    for name, report in scores.items():
        for key, (value, tol) in run.PUBLISHED[name].items():
            if not abs(report[key] - value) <= tol:
                raise SystemExit(f"{name} {key} = {report[key]}, published {value} +- {tol}")
    recorded["eval"] = scores

    for seed in parse_seeds(args.seeds):
        recorded["corpus"][f"{seed}/{run.SIZE}"] = run.reference(seed)
        print(f"seed {seed} recorded", file=sys.stderr)
    recorded["corpus"] = dict(
        sorted(recorded["corpus"].items(), key=lambda kv: [int(x) for x in kv[0].split("/")])
    )
    run.EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
